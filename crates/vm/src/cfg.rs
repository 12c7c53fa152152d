//! Control-flow graph construction from bytecode.
//!
//! Blocks are maximal straight-line instruction ranges. Edges are either
//! *normal* (fall-through and jumps) or *exceptional* (from every
//! instruction range protected by a handler to the handler's entry).
//! Loop instrumentation only rewrites normal edges; exceptional loop
//! exits are reconstructed at run time from the interpreter's active-loop
//! stack.

use crate::bytecode::Function;

/// Kind of a control-flow edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Fall-through or explicit jump.
    Normal,
    /// Exception propagation into a handler.
    Exceptional,
}

/// A basic block: instructions `start..end` of the owning function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Index of the first instruction.
    pub start: usize,
    /// One past the last instruction.
    pub end: usize,
    /// Successor block indices with edge kinds.
    pub succs: Vec<(usize, EdgeKind)>,
    /// Predecessor block indices (all kinds).
    pub preds: Vec<usize>,
}

/// A function's control-flow graph.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<Block>,
    /// Map from instruction index to its block.
    pub block_of: Vec<usize>,
}

impl Cfg {
    /// Builds the CFG of `func`.
    pub fn build(func: &Function) -> Cfg {
        let code = &func.code;
        let n = code.len();
        if n == 0 {
            return Cfg {
                blocks: vec![Block {
                    start: 0,
                    end: 0,
                    succs: Vec::new(),
                    preds: Vec::new(),
                }],
                block_of: Vec::new(),
            };
        }

        // Leaders: entry, all branch targets, all handler targets, and
        // every instruction following a branch or terminator.
        let mut leader = vec![false; n + 1];
        leader[0] = true;
        leader[n] = true;
        for (i, instr) in code.iter().enumerate() {
            if let Some(t) = instr.targets() {
                leader[t] = true;
                leader[i + 1] = true;
            }
            if instr.is_terminator() {
                leader[i + 1] = true;
            }
        }
        for h in &func.handlers {
            leader[h.target] = true;
            leader[h.start] = true;
            if h.end <= n {
                leader[h.end] = true;
            }
        }

        let mut starts: Vec<usize> = (0..n).filter(|&i| leader[i]).collect();
        starts.push(n);

        let mut blocks: Vec<Block> = Vec::with_capacity(starts.len() - 1);
        let mut block_of = vec![0usize; n];
        for w in starts.windows(2) {
            let (s, e) = (w[0], w[1]);
            let b = blocks.len();
            for item in block_of.iter_mut().take(e).skip(s) {
                *item = b;
            }
            blocks.push(Block {
                start: s,
                end: e,
                succs: Vec::new(),
                preds: Vec::new(),
            });
        }

        // Normal edges. A jump target equal to the code length is a jump
        // to the (empty) function end — only emitted on unreachable paths
        // (e.g. after a `try` whose body and handler both return) — and
        // produces no edge.
        let mut edges: Vec<(usize, usize, EdgeKind)> = Vec::new();
        for (b, block) in blocks.iter().enumerate() {
            let last = block.end - 1;
            let instr = code[last];
            if let Some(t) = instr.targets().filter(|&t| t < n) {
                edges.push((b, block_of[t], EdgeKind::Normal));
            }
            if !instr.is_terminator() && block.end < n {
                edges.push((b, block_of[block.end], EdgeKind::Normal));
            }
        }

        // Exceptional edges: each block overlapping a protected range may
        // transfer to the handler entry.
        for h in &func.handlers {
            let target_block = block_of[h.target];
            for (b, block) in blocks.iter().enumerate() {
                if block.start < h.end && block.end > h.start {
                    edges.push((b, target_block, EdgeKind::Exceptional));
                }
            }
        }

        edges.sort_by_key(|&(s, t, k)| (s, t, k == EdgeKind::Exceptional));
        edges.dedup();
        for (s, t, k) in edges {
            blocks[s].succs.push((t, k));
            blocks[t].preds.push(s);
        }

        Cfg { blocks, block_of }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the CFG has no blocks (never true for compiled functions).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Blocks in reverse postorder from the entry (unreachable blocks are
    /// appended at the end in index order).
    pub fn reverse_postorder(&self) -> Vec<usize> {
        let mut visited = vec![false; self.blocks.len()];
        let mut post = Vec::with_capacity(self.blocks.len());
        // Iterative DFS with explicit stack of (block, next-successor).
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        visited[0] = true;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            let succs = &self.blocks[b].succs;
            if *next < succs.len() {
                let (t, _) = succs[*next];
                *next += 1;
                if !visited[t] {
                    visited[t] = true;
                    stack.push((t, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        for (b, seen) in visited.iter().enumerate() {
            if !seen {
                post.push(b);
            }
        }
        post
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;

    fn cfg_of(src: &str, name: &str) -> (Cfg, Function) {
        let p = compile(src).expect("compiles");
        let f = p
            .func(p.func_by_name(name).expect("function exists"))
            .clone();
        (Cfg::build(&f), f)
    }

    #[test]
    fn straight_line_is_one_block() {
        let (cfg, f) = cfg_of(
            "class Main { static int main() { int a = 1; int b = 2; return a + b; } }",
            "Main.main",
        );
        assert_eq!(cfg.len(), 1);
        assert_eq!(cfg.blocks[0].end, f.code.len());
    }

    #[test]
    fn if_makes_diamond() {
        let (cfg, _) = cfg_of(
            "class Main { static int main() { int a = 1; if (a > 0) { a = 2; } else { a = 3; } return a; } }",
            "Main.main",
        );
        // entry (cond), then, else, join
        assert!(cfg.len() >= 4);
        assert_eq!(cfg.blocks[0].succs.len(), 2);
    }

    #[test]
    fn while_creates_cycle() {
        let (cfg, _) = cfg_of(
            "class Main { static int main() { int i = 0; while (i < 3) { i = i + 1; } return i; } }",
            "Main.main",
        );
        // Some block must have a successor with a smaller index (back edge).
        let has_back = cfg
            .blocks
            .iter()
            .enumerate()
            .any(|(b, blk)| blk.succs.iter().any(|&(t, _)| t <= b));
        assert!(has_back, "expected a back edge in a while loop");
    }

    #[test]
    fn exceptional_edges_point_to_handler() {
        let (cfg, f) = cfg_of(
            "class Main { static int main() { try { throw 1; } catch (int e) { return e; } return 0; } }",
            "Main.main",
        );
        let h = f.handlers[0];
        let target = cfg.block_of[h.target];
        let has_exc = cfg
            .blocks
            .iter()
            .any(|b| b.succs.contains(&(target, EdgeKind::Exceptional)));
        assert!(has_exc);
    }

    #[test]
    fn reverse_postorder_starts_at_entry_and_covers_all() {
        let (cfg, _) = cfg_of(
            "class Main { static int main() { int s = 0; for (int i = 0; i < 4; i = i + 1) { if (i > 1) { s = s + i; } } return s; } }",
            "Main.main",
        );
        let rpo = cfg.reverse_postorder();
        assert_eq!(rpo[0], 0);
        assert_eq!(rpo.len(), cfg.len());
        let mut sorted = rpo.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..cfg.len()).collect::<Vec<_>>());
    }

    #[test]
    fn preds_match_succs() {
        let (cfg, _) = cfg_of(
            "class Main { static int main() { int i = 0; while (i < 3) { if (i == 1) { break; } i = i + 1; } return i; } }",
            "Main.main",
        );
        for (b, blk) in cfg.blocks.iter().enumerate() {
            for &(t, _) in &blk.succs {
                assert!(cfg.blocks[t].preds.contains(&b));
            }
        }
    }
}

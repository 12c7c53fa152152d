//! Bytecode instrumentation pass.
//!
//! Mirrors AlgoProf's dynamic-binary-instrumentation layer (paper §3.1):
//!
//! * **loop entry / back edge / exit** — natural loops are detected on the
//!   bytecode CFG via dominators; profile pseudo-instructions are inserted
//!   on the loop's entry, back, and exit edges (splitting jump edges with
//!   trampoline blocks and extending fall-through blocks in place). A
//!   backward jump whose edge carries only back-edge markers gets them
//!   inline, in front of it, so a loop latch costs no trampoline jump;
//! * **method entries and exits** — restricted by default to methods that
//!   may participate in recursion (call-graph SCC analysis, reference
//!   \[21\]);
//! * **reference instance field accesses** — restricted by default to
//!   fields participating in a recursive type cycle (reference \[22\]);
//! * **array accesses, allocations of recursive classes, and I/O** —
//!   toggled by flags consumed by the interpreter.
//!
//! Exceptional control flow cannot carry inserted instructions, so each
//! exception-handler entry records how many instrumented loops are active
//! there; the interpreter emits the missing loop-exit events while
//! unwinding (paper §3.2: "AlgoProf correctly handles exceptional control
//! flow").

use std::collections::HashMap;

use crate::bytecode::{CompiledProgram, Function, Instr, LoopId, LoopInfo};
use crate::callgraph::CallGraph;
use crate::cfg::{Cfg, EdgeKind};
use crate::dominators::Dominators;
use crate::loops::LoopForest;
use crate::rectypes::RecursiveTypes;

/// Which methods report entry/exit events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MethodInstrumentation {
    /// Only methods in call-graph cycles (the paper's default, via static
    /// recursion-header analysis).
    #[default]
    RecursionHeaders,
    /// Every method (no static filtering).
    All,
    /// No method events.
    None,
}

/// Which reference fields report access events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FieldInstrumentation {
    /// Only fields participating in a recursive type cycle (the paper's
    /// default).
    #[default]
    RecursiveOnly,
    /// All reference fields.
    AllRefFields,
    /// No field events.
    None,
}

/// Which allocations report events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocInstrumentation {
    /// Only instances of recursive classes (the paper's default).
    #[default]
    RecursiveClasses,
    /// Every `new`.
    All,
    /// No allocation events.
    None,
}

/// Configuration of the instrumentation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrumentOptions {
    /// Insert loop entry/back/exit pseudo-instructions.
    pub loops: bool,
    /// Method entry/exit events.
    pub methods: MethodInstrumentation,
    /// Reference-field access events.
    pub fields: FieldInstrumentation,
    /// Array load/store events.
    pub arrays: bool,
    /// Allocation events.
    pub allocs: AllocInstrumentation,
    /// `readInput`/`print` events.
    pub io: bool,
}

impl Default for InstrumentOptions {
    fn default() -> Self {
        InstrumentOptions {
            loops: true,
            methods: MethodInstrumentation::RecursionHeaders,
            fields: FieldInstrumentation::RecursiveOnly,
            arrays: true,
            allocs: AllocInstrumentation::RecursiveClasses,
            io: true,
        }
    }
}

impl CompiledProgram {
    /// Produces an instrumented copy of this program according to `opts`.
    ///
    /// The original program is left untouched; running it produces no
    /// profiler events.
    pub fn instrument(&self, opts: &InstrumentOptions) -> CompiledProgram {
        let mut out = self.clone();
        out.loops = Vec::new();

        // Static analyses shared across functions.
        let rec = RecursiveTypes::analyze(self);
        for (c, class) in out.classes.iter_mut().enumerate() {
            class.is_recursive = rec.recursive_class[c];
            class.track_alloc = match opts.allocs {
                AllocInstrumentation::RecursiveClasses => rec.recursive_class[c],
                AllocInstrumentation::All => true,
                AllocInstrumentation::None => false,
            };
        }
        for (f, field) in out.fields.iter_mut().enumerate() {
            field.is_recursive = rec.recursive_field[f];
            let is_ref = matches!(
                field.ty,
                crate::bytecode::ErasedType::Ref(_) | crate::bytecode::ErasedType::Array(_)
            );
            field.track_access = match opts.fields {
                FieldInstrumentation::RecursiveOnly => rec.recursive_field[f],
                FieldInstrumentation::AllRefFields => is_ref,
                FieldInstrumentation::None => false,
            };
        }

        let callgraph = CallGraph::build(self);
        for (f, func) in out.functions.iter_mut().enumerate() {
            func.track_entry_exit = match opts.methods {
                MethodInstrumentation::RecursionHeaders => callgraph.potentially_recursive[f],
                MethodInstrumentation::All => true,
                MethodInstrumentation::None => false,
            };
        }

        out.track_arrays = opts.arrays;
        out.track_io = opts.io;

        if opts.loops {
            let mut all_loops = Vec::new();
            for func in &mut out.functions {
                instrument_loops(func, &mut all_loops);
            }
            out.loops = all_loops;
            fixup_loop_funcs(&mut out);
            resolve_loop_hints(&mut out);
        }

        out.instrumented = true;
        out
    }
}

/// Maps the raw index-dataflow hints (function + pre-order loop ordinal)
/// onto the registered [`LoopId`]s. Code generation emits loop headers in
/// pre-order, so the natural-loop ordinal (header order) matches the HIR
/// pre-order ordinal.
fn resolve_loop_hints(program: &mut CompiledProgram) {
    let mut hints = Vec::new();
    for h in &program.index_hints {
        let find = |ordinal: u32| {
            program
                .loops
                .iter()
                .find(|l| l.func.0 == h.func && l.ordinal == ordinal)
                .map(|l| l.id)
        };
        if let (Some(outer), Some(inner)) = (find(h.outer), find(h.inner)) {
            hints.push((outer, inner));
        }
    }
    program.loop_hints = hints;
}

/// Rewrites `func` in place, inserting loop profile instructions, and
/// appends this function's loops to `all_loops`.
fn instrument_loops(func: &mut Function, all_loops: &mut Vec<LoopInfo>) {
    let cfg = Cfg::build(func);
    let doms = Dominators::compute(&cfg);
    let forest = LoopForest::detect(&cfg, &doms);
    if forest.is_empty() {
        return;
    }

    // Register loops globally, ordered by header position. The owning
    // FuncId is unknown here (we only have the Function); `fixup_loop_funcs`
    // patches it after all functions are rewritten.
    let first_id = all_loops.len();
    let loop_ids: Vec<LoopId> = (0..forest.len())
        .map(|i| LoopId((first_id + i) as u32))
        .collect();
    for (i, l) in forest.loops.iter().enumerate() {
        let header_line = func.lines[cfg.blocks[l.header].start];
        all_loops.push(LoopInfo {
            id: loop_ids[i],
            func: crate::bytecode::FuncId(u32::MAX), // patched by caller below
            ordinal: i as u32,
            line: header_line,
            parent: l.parent.map(|p| loop_ids[p]),
            name: format!("{}:loop{}@L{}", func.name, i, header_line),
        });
    }

    // Per normal edge, the profile instruction sequence.
    let mut edge_instrs: HashMap<(usize, usize), Vec<Instr>> = HashMap::new();
    for (u, block) in cfg.blocks.iter().enumerate() {
        for &(v, kind) in &block.succs {
            if kind != EdgeKind::Normal {
                continue;
            }
            let mut seq = Vec::new();
            // Exits: loops containing u but not v, innermost first.
            let mut exited: Vec<usize> = (0..forest.len())
                .filter(|&l| forest.loops[l].contains(u) && !forest.loops[l].contains(v))
                .collect();
            exited.sort_by_key(|&l| std::cmp::Reverse(forest.loops[l].depth));
            for l in exited {
                seq.push(Instr::ProfLoopExit(loop_ids[l]));
            }
            // Back edges: v is a header and u is in its loop.
            for (l, lp) in forest.loops.iter().enumerate() {
                if lp.header == v && lp.contains(u) {
                    seq.push(Instr::ProfLoopBack(loop_ids[l]));
                }
            }
            // Entries: loops containing v but not u, outermost first.
            let mut entered: Vec<usize> = (0..forest.len())
                .filter(|&l| !forest.loops[l].contains(u) && forest.loops[l].contains(v))
                .collect();
            entered.sort_by_key(|&l| forest.loops[l].depth);
            for l in entered {
                seq.push(Instr::ProfLoopEntry(loop_ids[l]));
            }
            if !seq.is_empty() {
                edge_instrs.insert((u, v), seq);
            }
        }
    }

    // Prologue: loops whose header is the entry block are entered when the
    // function starts.
    let mut prologue = Vec::new();
    let mut entry_loops: Vec<usize> = (0..forest.len())
        .filter(|&l| forest.loops[l].header == 0)
        .collect();
    entry_loops.sort_by_key(|&l| forest.loops[l].depth);
    for l in entry_loops {
        prologue.push(Instr::ProfLoopEntry(loop_ids[l]));
    }

    // Relinearize.
    let mut new_code: Vec<Instr> = Vec::with_capacity(func.code.len() + 16);
    let mut new_lines: Vec<u32> = Vec::with_capacity(func.code.len() + 16);
    let mut instr_map: Vec<usize> = vec![0; func.code.len() + 1];
    let mut block_new_start: Vec<usize> = vec![0; cfg.len()];
    // Trampolines to fix up after all blocks are placed: (position of the
    // jump instruction in new_code, edge).
    let mut pending_jumps: Vec<(usize, usize, usize)> = Vec::new(); // (new_pos, u, v)

    for instr in &prologue {
        new_code.push(*instr);
        new_lines.push(func.decl_line);
    }

    // A backward jump whose edge carries only back-edge markers gets
    // them inline, in front of it, instead of a trampoline: the jump
    // stays the edge's one taken backward jump (a scheduler yield
    // point), after the same events. Every other instrumented edge is
    // split by a trampoline.
    let back_edge_only = |u: usize, v: usize| {
        edge_instrs
            .get(&(u, v))
            .is_some_and(|seq| seq.iter().all(|i| matches!(i, Instr::ProfLoopBack(_))))
    };

    for (b, block) in cfg.blocks.iter().enumerate() {
        block_new_start[b] = new_code.len();
        #[allow(clippy::needless_range_loop)] // `i` is an instruction index used for both tables
        for i in block.start..block.end {
            instr_map[i] = new_code.len();
            let line = func.lines[i];
            // A target equal to the code length (unreachable jump to the
            // function end) is mapped to the relocated end-of-code.
            let block_target = |t: usize| {
                if t < func.code.len() {
                    cfg.block_of[t]
                } else {
                    usize::MAX
                }
            };
            match func.code[i] {
                Instr::Jump(t) if t <= i && back_edge_only(b, cfg.block_of[t]) => {
                    let v = cfg.block_of[t];
                    for instr in &edge_instrs[&(b, v)] {
                        new_code.push(*instr);
                        new_lines.push(line);
                    }
                    new_code.push(Instr::Jump(block_new_start[v]));
                    new_lines.push(line);
                }
                Instr::Jump(t) => {
                    pending_jumps.push((new_code.len(), b, block_target(t)));
                    new_code.push(Instr::Jump(usize::MAX));
                    new_lines.push(line);
                }
                Instr::JumpIfFalse(t) => {
                    pending_jumps.push((new_code.len(), b, block_target(t)));
                    new_code.push(Instr::JumpIfFalse(usize::MAX));
                    new_lines.push(line);
                }
                Instr::JumpIfTrue(t) => {
                    pending_jumps.push((new_code.len(), b, block_target(t)));
                    new_code.push(Instr::JumpIfTrue(usize::MAX));
                    new_lines.push(line);
                }
                other => {
                    new_code.push(other);
                    new_lines.push(line);
                }
            }
        }
        // Fall-through edge instrumentation, inserted in place. The
        // fall-through successor (if any) is the next block in order.
        if b + 1 < cfg.len() {
            let last = func.code[block.end - 1];
            let falls_through = !last.is_terminator();
            if falls_through {
                if let Some(seq) = edge_instrs.get(&(b, b + 1)) {
                    for instr in seq {
                        new_code.push(*instr);
                        new_lines.push(func.lines[block.end - 1]);
                    }
                }
            }
        }
    }
    instr_map[func.code.len()] = new_code.len();

    // Emit trampolines and patch jumps.
    let mut patched: Vec<(usize, usize)> = Vec::new(); // (jump pos, final target)
    let end_of_blocks = instr_map[func.code.len()];
    for (pos, u, v) in pending_jumps {
        if v == usize::MAX {
            patched.push((pos, end_of_blocks));
            continue;
        }
        let target = if let Some(seq) = edge_instrs.get(&(u, v)) {
            let tstart = new_code.len();
            for instr in seq {
                new_code.push(*instr);
                new_lines.push(new_lines[pos]);
            }
            new_code.push(Instr::Jump(block_new_start[v]));
            new_lines.push(new_lines[pos]);
            tstart
        } else {
            block_new_start[v]
        };
        patched.push((pos, target));
    }
    for (pos, target) in patched {
        new_code[pos] = match new_code[pos] {
            Instr::Jump(_) => Instr::Jump(target),
            Instr::JumpIfFalse(_) => Instr::JumpIfFalse(target),
            Instr::JumpIfTrue(_) => Instr::JumpIfTrue(target),
            other => other,
        };
    }

    // Remap the exception table and record the active-loop depth at each
    // handler entry.
    for h in &mut func.handlers {
        let target_block = cfg.block_of[h.target];
        h.active_loops = forest.loops_containing(target_block).len() as u16;
        h.start = instr_map[h.start];
        h.end = instr_map[h.end];
        h.target = block_new_start[target_block];
    }

    func.code = new_code;
    func.lines = new_lines;
}

/// Patches [`LoopInfo::func`] fields after per-function instrumentation
/// (kept separate so `instrument_loops` needs no function id).
fn fixup_loop_funcs(program: &mut CompiledProgram) {
    // Loops were appended per function in function order; recover the
    // owner by matching loop ids found in each function's code.
    for (f, func) in program.functions.iter().enumerate() {
        for instr in &func.code {
            if let Instr::ProfLoopEntry(id) | Instr::ProfLoopBack(id) | Instr::ProfLoopExit(id) =
                instr
            {
                program.loops[id.index()].func = crate::bytecode::FuncId(f as u32);
            }
        }
    }
    // Rebuild names with the (now known) owning function names.
    for l in &mut program.loops {
        if l.func.0 != u32::MAX {
            let fname = &program.functions[l.func.index()].name;
            l.name = format!("{}:loop{}@L{}", fname, l.ordinal, l.line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::event::NoopSink as NoopProfiler;
    use crate::interp::Interp;

    fn instrumented(src: &str) -> CompiledProgram {
        compile(src)
            .expect("compiles")
            .instrument(&InstrumentOptions::default())
    }

    #[test]
    fn registers_loops_with_owners() {
        let p = instrumented(
            r#"class Main {
                static int main() {
                    int s = 0;
                    for (int i = 0; i < 5; i = i + 1) { s = s + i; }
                    return s;
                }
            }"#,
        );
        assert_eq!(p.loops.len(), 1);
        let l = &p.loops[0];
        assert_eq!(p.func(l.func).name, "Main.main");
        assert!(l.name.contains("Main.main"));
    }

    #[test]
    fn instrumented_program_still_computes_same_result() {
        let src = r#"class Main {
            static int main() {
                int s = 0;
                for (int i = 0; i < 10; i = i + 1) {
                    if (i % 3 == 0) { continue; }
                    if (i == 8) { break; }
                    s = s + i;
                }
                return s;
            }
        }"#;
        let plain = compile(src).expect("compiles");
        let inst = plain.instrument(&InstrumentOptions::default());
        let r1 = Interp::new(&plain)
            .run(&mut NoopProfiler)
            .expect("plain runs");
        let r2 = Interp::new(&inst)
            .run(&mut NoopProfiler)
            .expect("instrumented runs");
        assert_eq!(r1.return_value, r2.return_value);
    }

    #[test]
    fn nested_loops_get_parent_links() {
        let p = instrumented(
            r#"class Main {
                static int main() {
                    int s = 0;
                    for (int i = 0; i < 3; i = i + 1)
                        for (int j = 0; j < i; j = j + 1)
                            s = s + 1;
                    return s;
                }
            }"#,
        );
        assert_eq!(p.loops.len(), 2);
        let child = p
            .loops
            .iter()
            .find(|l| l.parent.is_some())
            .expect("inner loop");
        let parent = child.parent.expect("parent id");
        assert!(p.loops[parent.index()].parent.is_none());
    }

    #[test]
    fn loop_events_are_balanced_in_code() {
        let p = instrumented(
            r#"class Main {
                static int main() {
                    int s = 0;
                    int i = 0;
                    while (i < 4) { s = s + i; i = i + 1; }
                    return s;
                }
            }"#,
        );
        let main = p.func(p.entry);
        let entries = main
            .code
            .iter()
            .filter(|i| matches!(i, Instr::ProfLoopEntry(_)))
            .count();
        let exits = main
            .code
            .iter()
            .filter(|i| matches!(i, Instr::ProfLoopExit(_)))
            .count();
        let backs = main
            .code
            .iter()
            .filter(|i| matches!(i, Instr::ProfLoopBack(_)))
            .count();
        assert!(entries >= 1);
        assert!(exits >= 1);
        assert_eq!(backs, 1);
    }

    #[test]
    fn recursion_headers_are_tracked() {
        let p = instrumented(
            r#"class Main {
                static int main() { return fib(6); }
                static int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
                static int helper() { return 1; }
            }"#,
        );
        let fib = p.func(p.func_by_name("Main.fib").expect("fib exists"));
        let helper = p.func(p.func_by_name("Main.helper").expect("helper exists"));
        let main = p.func(p.entry);
        assert!(fib.track_entry_exit);
        assert!(!helper.track_entry_exit);
        assert!(!main.track_entry_exit);
    }

    #[test]
    fn recursive_fields_and_classes_are_flagged() {
        let p = instrumented(
            r#"class Main { static int main() { return 0; } }
            class Node { Node next; int value; }"#,
        );
        let node = p.class(p.class_by_name("Node").expect("Node exists"));
        assert!(node.is_recursive);
        assert!(node.track_alloc);
        let next = p
            .fields
            .iter()
            .find(|f| f.name == "next")
            .expect("next field");
        assert!(next.track_access);
        let value = p
            .fields
            .iter()
            .find(|f| f.name == "value")
            .expect("value field");
        assert!(!value.track_access);
    }

    #[test]
    fn handler_remapping_keeps_program_correct() {
        let src = r#"class Main {
            static int main() {
                int s = 0;
                for (int i = 0; i < 5; i = i + 1) {
                    try {
                        if (i == 3) { throw 100; }
                        s = s + i;
                    } catch (int e) {
                        s = s + e;
                    }
                }
                return s;
            }
        }"#;
        let plain = compile(src).expect("compiles");
        let inst = plain.instrument(&InstrumentOptions::default());
        let r1 = Interp::new(&plain)
            .run(&mut NoopProfiler)
            .expect("plain runs");
        let r2 = Interp::new(&inst)
            .run(&mut NoopProfiler)
            .expect("instrumented runs");
        assert_eq!(r1.return_value, r2.return_value);
        // 0+1+2+100+4 = 107
        assert_eq!(r2.return_value.as_int(), Some(107));
        let main = inst.func(inst.entry);
        assert_eq!(main.handlers[0].active_loops, 1);
    }

    #[test]
    fn options_none_disables_everything() {
        let opts = InstrumentOptions {
            loops: false,
            methods: MethodInstrumentation::None,
            fields: FieldInstrumentation::None,
            arrays: false,
            allocs: AllocInstrumentation::None,
            io: false,
        };
        let p = compile(
            r#"class Main { static int main() { return fact(3); }
                static int fact(int n) { if (n <= 1) { return 1; } return n * fact(n-1); } }"#,
        )
        .expect("compiles")
        .instrument(&opts);
        assert!(p.loops.is_empty());
        assert!(p.functions.iter().all(|f| !f.track_entry_exit));
        assert!(!p.track_arrays);
        assert!(!p.track_io);
    }
}

//! Traditional calling-context-tree (CCT) hotness profiler for the jay
//! VM — the baseline that Figure 2 of the paper contrasts with
//! algorithmic profiles.
//!
//! Each calling context (a path of methods from `Main.main`) is annotated
//! with its call count and its *inclusive* and *exclusive* "time",
//! measured in interpreted bytecode instructions — a deterministic,
//! platform-independent proxy for the wall-clock hotness that Java's
//! hprof reports.
//!
//! Use with `InstrumentOptions { methods: MethodInstrumentation::All, .. }`
//! so every call produces entry/exit events.
//!
//! # Example
//!
//! ```
//! use algoprof_cct::CctProfiler;
//! use algoprof_vm::instrument::{InstrumentOptions, MethodInstrumentation};
//! use algoprof_vm::{compile, Interp};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = r#"
//!     class Main {
//!         static int main() { return f() + f(); }
//!         static int f() { return 21; }
//!     }
//! "#;
//! let opts = InstrumentOptions {
//!     methods: MethodInstrumentation::All,
//!     ..InstrumentOptions::default()
//! };
//! let program = compile(src)?.instrument(&opts);
//! let mut cct = CctProfiler::new();
//! Interp::new(&program).run(&mut cct)?;
//! let profile = cct.finish(&program);
//! let f = profile.find("Main.f").expect("context exists");
//! assert_eq!(profile.node(f).calls, 2);
//! # Ok(())
//! # }
//! ```

use std::fmt::Write as _;

use algoprof_vm::{CompiledProgram, Event, EventCx, EventSink, FuncId};

/// Index of a node in the [`CctProfile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CctNodeId(pub u32);

impl CctNodeId {
    /// The id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One calling context.
#[derive(Debug, Clone)]
pub struct CctNode {
    /// This node's id.
    pub id: CctNodeId,
    /// The method executing in this context (`None` for the synthetic
    /// root).
    pub func: Option<FuncId>,
    /// Parent context.
    pub parent: Option<CctNodeId>,
    /// Child contexts in first-call order.
    pub children: Vec<CctNodeId>,
    /// Number of times this context was entered.
    pub calls: u64,
    /// Instructions executed in this context including callees.
    pub inclusive: u64,
    /// Instructions executed in this context excluding callees.
    pub exclusive: u64,
}

/// A finished CCT profile.
#[derive(Debug, Clone)]
pub struct CctProfile {
    nodes: Vec<CctNode>,
    names: Vec<String>,
}

impl CctProfile {
    /// The synthetic root.
    pub fn root(&self) -> CctNodeId {
        CctNodeId(0)
    }

    /// All contexts.
    pub fn nodes(&self) -> &[CctNode] {
        &self.nodes
    }

    /// One context by id.
    pub fn node(&self, id: CctNodeId) -> &CctNode {
        &self.nodes[id.index()]
    }

    /// Display name of a context.
    pub fn name(&self, id: CctNodeId) -> &str {
        &self.names[id.index()]
    }

    /// Finds the first context (preorder) whose method name contains
    /// `needle`.
    pub fn find(&self, needle: &str) -> Option<CctNodeId> {
        (0..self.nodes.len())
            .map(|i| CctNodeId(i as u32))
            .find(|&id| self.names[id.index()].contains(needle))
    }

    /// Total calls of every context matching `needle` (a method may
    /// appear in several contexts).
    pub fn total_calls(&self, needle: &str) -> u64 {
        self.nodes
            .iter()
            .filter(|n| self.names[n.id.index()].contains(needle))
            .map(|n| n.calls)
            .sum()
    }

    /// The methods ranked by total exclusive cost, hottest first.
    pub fn hottest_methods(&self) -> Vec<(String, u64)> {
        let mut by_method: std::collections::BTreeMap<String, u64> = Default::default();
        for n in &self.nodes {
            if n.func.is_some() {
                *by_method
                    .entry(self.names[n.id.index()].clone())
                    .or_insert(0) += n.exclusive;
            }
        }
        let mut out: Vec<(String, u64)> = by_method.into_iter().collect();
        out.sort_by_key(|(_, v)| std::cmp::Reverse(*v));
        out
    }

    /// The methods ranked by total call count, most-called first.
    pub fn most_called_methods(&self) -> Vec<(String, u64)> {
        let mut by_method: std::collections::BTreeMap<String, u64> = Default::default();
        for n in &self.nodes {
            if n.func.is_some() {
                *by_method
                    .entry(self.names[n.id.index()].clone())
                    .or_insert(0) += n.calls;
            }
        }
        let mut out: Vec<(String, u64)> = by_method.into_iter().collect();
        out.sort_by_key(|(_, v)| std::cmp::Reverse(*v));
        out
    }

    /// Graphviz DOT rendering of the calling-context tree.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph cct {\n  node [shape=box];\n");
        for n in &self.nodes {
            let _ = writeln!(
                out,
                "  n{} [label=\"{}\\ncalls={} excl={}\"];",
                n.id.0,
                self.name(n.id).replace('"', "'"),
                n.calls,
                n.exclusive
            );
            if let Some(p) = n.parent {
                let _ = writeln!(out, "  n{} -> n{};", p.0, n.id.0);
            }
        }
        out.push_str("}\n");
        out
    }

    /// Renders the Figure-2-style tree: each context with calls and
    /// inclusive/exclusive instruction counts.
    pub fn render_text(&self) -> String {
        let mut out = String::from("Calling context tree (time = interpreted instructions)\n");
        self.render_node(self.root(), "", true, &mut out);
        out
    }

    fn render_node(&self, id: CctNodeId, prefix: &str, is_last: bool, out: &mut String) {
        let n = self.node(id);
        let connector = if prefix.is_empty() {
            ""
        } else if is_last {
            "`- "
        } else {
            "|- "
        };
        let _ = writeln!(
            out,
            "{prefix}{connector}{} calls={} incl={} excl={}",
            self.name(id),
            n.calls,
            n.inclusive,
            n.exclusive
        );
        let child_prefix = if prefix.is_empty() {
            "  ".to_owned()
        } else {
            format!("{prefix}{}", if is_last { "   " } else { "|  " })
        };
        let k = n.children.len();
        for (i, &c) in n.children.iter().enumerate() {
            self.render_node(c, &child_prefix, i + 1 == k, out);
        }
    }
}

/// The CCT profiler: plug into [`Interp::run`](algoprof_vm::Interp::run).
#[derive(Debug)]
pub struct CctProfiler {
    nodes: Vec<CctNode>,
    stack: Vec<CctNodeId>,
}

impl CctProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        CctProfiler {
            nodes: vec![CctNode {
                id: CctNodeId(0),
                func: None,
                parent: None,
                children: Vec::new(),
                calls: 1,
                inclusive: 0,
                exclusive: 0,
            }],
            stack: vec![CctNodeId(0)],
        }
    }

    /// Produces the profile, resolving method names against `program`.
    pub fn finish(mut self, program: &CompiledProgram) -> CctProfile {
        self.propagate_inclusive();
        let names = self
            .nodes
            .iter()
            .map(|n| match n.func {
                None => "<root>".to_owned(),
                Some(f) => program.func(f).name.clone(),
            })
            .collect();
        CctProfile {
            nodes: self.nodes,
            names,
        }
    }

    fn propagate_inclusive(&mut self) {
        // Children have larger ids than parents, so a reverse sweep
        // accumulates bottom-up.
        for i in (1..self.nodes.len()).rev() {
            self.nodes[i].inclusive += self.nodes[i].exclusive;
            let incl = self.nodes[i].inclusive;
            if let Some(p) = self.nodes[i].parent {
                self.nodes[p.index()].inclusive += incl;
            }
        }
        self.nodes[0].inclusive += self.nodes[0].exclusive;
    }

    fn current(&self) -> CctNodeId {
        *self.stack.last().expect("CCT stack is never empty")
    }
}

impl Default for CctProfiler {
    fn default() -> Self {
        CctProfiler::new()
    }
}

impl CctProfiler {
    fn enter(&mut self, func: FuncId) {
        let parent = self.current();
        let child = self.nodes[parent.index()]
            .children
            .iter()
            .copied()
            .find(|&c| self.nodes[c.index()].func == Some(func));
        let child = match child {
            Some(c) => c,
            None => {
                let id = CctNodeId(self.nodes.len() as u32);
                self.nodes.push(CctNode {
                    id,
                    func: Some(func),
                    parent: Some(parent),
                    children: Vec::new(),
                    calls: 0,
                    inclusive: 0,
                    exclusive: 0,
                });
                self.nodes[parent.index()].children.push(id);
                id
            }
        };
        self.nodes[child.index()].calls += 1;
        self.stack.push(child);
    }
}

impl EventSink for CctProfiler {
    fn event(&mut self, ev: &Event, _cx: &EventCx<'_>) {
        match *ev {
            Event::MethodEntry { func } => self.enter(func),
            Event::MethodExit { .. } if self.stack.len() > 1 => {
                self.stack.pop();
            }
            Event::Instruction { .. } => {
                let cur = self.current();
                self.nodes[cur.index()].exclusive += 1;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algoprof_vm::instrument::{InstrumentOptions, MethodInstrumentation};
    use algoprof_vm::{compile, Interp};

    fn profile(src: &str) -> CctProfile {
        let opts = InstrumentOptions {
            methods: MethodInstrumentation::All,
            ..InstrumentOptions::default()
        };
        let program = compile(src).expect("compiles").instrument(&opts);
        let mut cct = CctProfiler::new();
        Interp::new(&program).run(&mut cct).expect("runs");
        cct.finish(&program)
    }

    #[test]
    fn counts_calls_per_context() {
        let p = profile(
            r#"class Main {
                static int main() {
                    int s = 0;
                    for (int i = 0; i < 10; i = i + 1) { s = s + leaf(); }
                    return s + other();
                }
                static int leaf() { return 1; }
                static int other() { return leaf(); }
            }"#,
        );
        // leaf appears in two contexts: under main (10 calls) and under
        // other (1 call).
        assert_eq!(p.total_calls("Main.leaf"), 11);
        let contexts: Vec<u64> = p
            .nodes()
            .iter()
            .filter(|n| p.name(n.id).contains("Main.leaf"))
            .map(|n| n.calls)
            .collect();
        let mut sorted = contexts.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 10]);
    }

    #[test]
    fn inclusive_contains_exclusive_of_callees() {
        let p = profile(
            r#"class Main {
                static int main() { return mid(); }
                static int mid() { return leaf() + leaf(); }
                static int leaf() {
                    int s = 0;
                    for (int i = 0; i < 50; i = i + 1) { s = s + 1; }
                    return s;
                }
            }"#,
        );
        let mid = p.find("Main.mid").expect("mid context");
        let leaf = p.find("Main.leaf").expect("leaf context");
        assert!(p.node(mid).inclusive > p.node(mid).exclusive);
        assert!(p.node(mid).inclusive >= p.node(leaf).inclusive);
        assert!(p.node(leaf).exclusive > 100, "loop body dominates");
    }

    #[test]
    fn hottest_and_most_called_rankings() {
        let p = profile(
            r#"class Main {
                static int main() {
                    int s = 0;
                    for (int i = 0; i < 100; i = i + 1) { s = s + cheap(); }
                    s = s + expensive();
                    return s;
                }
                static int cheap() { return 1; }
                static int expensive() {
                    int s = 0;
                    for (int i = 0; i < 10000; i = i + 1) { s = s + 1; }
                    return s;
                }
            }"#,
        );
        let most_called = p.most_called_methods();
        assert_eq!(most_called[0].0, "Main.cheap");
        let hottest = p.hottest_methods();
        assert_eq!(hottest[0].0, "Main.expensive");
    }

    #[test]
    fn recursion_grows_context_chain() {
        let p = profile(
            r#"class Main {
                static int main() { return fact(5); }
                static int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
            }"#,
        );
        // Plain CCTs do not fold recursion: fact appears in a chain of
        // contexts.
        let fact_contexts = p
            .nodes()
            .iter()
            .filter(|n| p.name(n.id).contains("Main.fact"))
            .count();
        assert_eq!(fact_contexts, 5);
    }

    #[test]
    fn render_contains_counts() {
        let p = profile("class Main { static int main() { return 1; } }");
        let text = p.render_text();
        assert!(text.contains("Main.main"));
        assert!(text.contains("calls=1"));
    }
}

//! Opcode-frequency and opcode-pair statistics sink.
//!
//! `OpStats` is an [`EventSink`] that consumes the
//! [`Event::Instruction`] stream and aggregates how often each opcode —
//! and each *adjacent* opcode pair — executed. It is the measurement
//! half of the profile-guided superinstruction work (see
//! [`crate::fuse`]): `algoprof opstats` runs it over a corpus and the
//! top pairs it reports are exactly the patterns the fusion pass
//! targets.
//!
//! Pairs are counted within a dynamic instruction stream, with the
//! predecessor reset at method entry and exit so pairs never span a call
//! boundary (the callee's first opcode is not "adjacent" to the caller's
//! call instruction in any fusible sense).

use std::fmt::Write as _;

use crate::bytecode::Opcode;
use crate::event::{Event, EventCx, EventSink};

/// Aggregated opcode statistics over one or more program runs.
#[derive(Clone)]
pub struct OpStats {
    /// Executions per opcode, indexed by [`Opcode::index`].
    freq: Vec<u64>,
    /// Executions per adjacent pair, `pairs[a * COUNT + b]`.
    pairs: Vec<u64>,
    /// Previous opcode in the current straight-line stream, if any.
    prev: Option<Opcode>,
    /// Total instruction events seen.
    total: u64,
}

impl Default for OpStats {
    fn default() -> Self {
        OpStats {
            freq: vec![0; Opcode::COUNT],
            pairs: vec![0; Opcode::COUNT * Opcode::COUNT],
            prev: None,
            total: 0,
        }
    }
}

impl OpStats {
    /// A fresh, all-zero collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of instruction events recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Times `op` executed.
    pub fn count(&self, op: Opcode) -> u64 {
        self.freq[op.index()]
    }

    /// Folds another collector into this one (run-over-run aggregation).
    /// The pair cursor is not carried across runs.
    pub fn merge(&mut self, other: &OpStats) {
        for (a, b) in self.freq.iter_mut().zip(&other.freq) {
            *a += b;
        }
        for (a, b) in self.pairs.iter_mut().zip(&other.pairs) {
            *a += b;
        }
        self.total += other.total;
        self.prev = None;
    }

    /// The `n` most-executed opcodes, hottest first. Deterministic: ties
    /// break on opcode name. Zero-count opcodes are omitted.
    pub fn top_opcodes(&self, n: usize) -> Vec<(Opcode, u64)> {
        let mut rows: Vec<(Opcode, u64)> = Opcode::ALL
            .iter()
            .map(|&op| (op, self.freq[op.index()]))
            .filter(|&(_, c)| c > 0)
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.name().cmp(b.0.name())));
        rows.truncate(n);
        rows
    }

    /// The `n` most-executed adjacent pairs, hottest first. Deterministic:
    /// ties break on the pair's names. Zero-count pairs are omitted.
    pub fn top_pairs(&self, n: usize) -> Vec<(Opcode, Opcode, u64)> {
        let mut rows: Vec<(Opcode, Opcode, u64)> = Vec::new();
        for &a in Opcode::ALL {
            for &b in Opcode::ALL {
                let c = self.pairs[a.index() * Opcode::COUNT + b.index()];
                if c > 0 {
                    rows.push((a, b, c));
                }
            }
        }
        rows.sort_by(|x, y| {
            y.2.cmp(&x.2)
                .then_with(|| x.0.name().cmp(y.0.name()))
                .then_with(|| x.1.name().cmp(y.1.name()))
        });
        rows.truncate(n);
        rows
    }

    /// Human-readable report: top `n` opcodes and pairs with counts and
    /// percentages.
    pub fn render_text(&self, n: usize) -> String {
        let mut out = String::new();
        let total = self.total.max(1) as f64;
        let _ = writeln!(out, "instructions: {}", self.total);
        let _ = writeln!(out, "top opcodes:");
        for (op, c) in self.top_opcodes(n) {
            let _ = writeln!(
                out,
                "  {:<16} {:>12}  {:>6.2}%",
                op.name(),
                c,
                100.0 * c as f64 / total
            );
        }
        let _ = writeln!(out, "top pairs:");
        for (a, b, c) in self.top_pairs(n) {
            let _ = writeln!(
                out,
                "  {:<16} {:<16} {:>12}  {:>6.2}%",
                a.name(),
                b.name(),
                c,
                100.0 * c as f64 / total
            );
        }
        out
    }

    /// JSON report with the same content as [`OpStats::render_text`].
    pub fn render_json(&self, n: usize) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = write!(out, "  \"instructions\": {},\n  \"opcodes\": [", self.total);
        for (i, (op, c)) in self.top_opcodes(n).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {{\"op\": \"{}\", \"count\": {c}}}", op.name());
        }
        out.push_str("\n  ],\n  \"pairs\": [");
        for (i, (a, b, c)) in self.top_pairs(n).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"first\": \"{}\", \"second\": \"{}\", \"count\": {c}}}",
                a.name(),
                b.name()
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

impl EventSink for OpStats {
    fn event(&mut self, ev: &Event, _cx: &EventCx<'_>) {
        match ev {
            Event::Instruction { op, .. } => {
                self.freq[op.index()] += 1;
                self.total += 1;
                if let Some(prev) = self.prev {
                    self.pairs[prev.index() * Opcode::COUNT + op.index()] += 1;
                }
                // Calls, returns, and throws transfer to another frame:
                // the next opcode is never fusibly adjacent to them.
                self.prev = match op {
                    Opcode::CallStatic
                    | Opcode::CallVirtual
                    | Opcode::CallDirect
                    | Opcode::Ret
                    | Opcode::RetVal
                    | Opcode::Throw => None,
                    _ => Some(*op),
                };
            }
            // Method-entry/exit events (only emitted for recursion-tracked
            // methods) also mark frame boundaries.
            Event::MethodEntry { .. } | Event::MethodExit { .. } => {
                self.prev = None;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::instrument::InstrumentOptions;
    use crate::interp::Interp;

    fn pair_count(stats: &OpStats, a: Opcode, b: Opcode) -> u64 {
        stats.pairs[a.index() * Opcode::COUNT + b.index()]
    }

    fn stats_of(src: &str) -> OpStats {
        let p = compile(src)
            .expect("compiles")
            .instrument(&InstrumentOptions::default());
        let mut stats = OpStats::new();
        let result = Interp::new(&p).run(&mut stats).expect("runs");
        assert_eq!(stats.total(), result.instructions);
        stats
    }

    #[test]
    fn counts_match_instruction_total() {
        let stats = stats_of(
            "class Main { static int main() {
                int s = 0;
                for (int i = 0; i < 10; i = i + 1) { s = s + i; }
                return s;
            } }",
        );
        let freq_sum: u64 = Opcode::ALL.iter().map(|&op| stats.count(op)).sum();
        assert_eq!(freq_sum, stats.total());
        assert!(stats.count(Opcode::LoadLocal) > 0);
    }

    #[test]
    fn loop_increment_pair_is_hot() {
        let stats = stats_of(
            "class Main { static int main() {
                int s = 0;
                for (int i = 0; i < 100; i = i + 1) { s = s + i; }
                return s;
            } }",
        );
        // The canonical increment `i = i + 1` executes load/const/add/store
        // every iteration; its pairs must rank near the top.
        assert!(pair_count(&stats, Opcode::LoadLocal, Opcode::ConstInt) >= 100);
        assert!(pair_count(&stats, Opcode::Add, Opcode::StoreLocal) >= 100);
        let top = stats.top_pairs(10);
        assert!(top
            .iter()
            .any(|&(a, b, _)| a == Opcode::LoadLocal && b == Opcode::ConstInt));
    }

    #[test]
    fn pairs_do_not_span_calls() {
        let stats = stats_of(
            "class Main {
                static int main() { return f(); }
                static int f() { return 7; }
            }",
        );
        // CallStatic is the caller's last opcode before the callee runs;
        // no pair may join it to the callee's first opcode.
        for &op in Opcode::ALL {
            assert_eq!(
                pair_count(&stats, Opcode::CallStatic, op),
                0,
                "pair (call_static, {}) spans a call boundary",
                op.name()
            );
        }
    }

    #[test]
    fn merge_adds_counts() {
        let a = stats_of("class Main { static int main() { return 1 + 2; } }");
        let mut b = a.clone();
        b.merge(&a);
        assert_eq!(b.total(), 2 * a.total());
        assert_eq!(b.count(Opcode::Add), 2 * a.count(Opcode::Add));
        assert_eq!(
            pair_count(&b, Opcode::ConstInt, Opcode::ConstInt),
            2 * pair_count(&a, Opcode::ConstInt, Opcode::ConstInt)
        );
    }

    #[test]
    fn rankings_are_deterministic_and_sorted() {
        let stats = stats_of(
            "class Main { static int main() {
                int s = 0;
                for (int i = 0; i < 10; i = i + 1) { s = s + i * 2; }
                return s;
            } }",
        );
        let top = stats.top_opcodes(100);
        for w in top.windows(2) {
            assert!(
                w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0.name() < w[1].0.name()),
                "ranking must be count-desc then name-asc"
            );
        }
        let json = stats.render_json(5);
        assert!(json.contains("\"instructions\""));
        assert!(json.contains("\"pairs\""));
        let text = stats.render_text(5);
        assert!(text.contains("top opcodes:"));
    }
}

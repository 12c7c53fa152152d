//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a name, its start and end, the span that caused it and
//! the request it belongs to. Spans are kept in memory while the run
//! measures and written out once it ends. With tracing off every call
//! is a no-op, so the untraced loop pays one branch per span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now();
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's duration minus the part its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Self time summed by span name, in ns, with the number of spans.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut by = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_ns()) {
            let e = by.entry(s.name).or_insert((0, 0));
            e.0 += t;
            e.1 += 1;
        }
        by
    }

    /// Share of the wall time of root spans named `root` that their
    /// child spans cover.
    pub fn coverage(&self, root: &str) -> f64 {
        let (mut wall, mut covered) = (0u64, 0u64);
        let roots: Vec<bool> = self.spans.iter().map(|s| s.name == root).collect();
        for s in &self.spans {
            match s.parent {
                None if s.name == root => wall += s.end_ns - s.start_ns,
                Some(p) if roots[p] => covered += s.end_ns - s.start_ns,
                _ => {}
            }
        }
        covered as f64 / wall.max(1) as f64
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_coverage_counts_them() {
        let mut spans = Spans::new(true);
        spans.spans = vec![
            Span {
                name: "request",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                request: 1,
            },
            Span {
                name: "a",
                start_ns: 10,
                end_ns: 50,
                parent: Some(0),
                request: 1,
            },
            Span {
                name: "b",
                start_ns: 20,
                end_ns: 30,
                parent: Some(1),
                request: 1,
            },
            Span {
                name: "a",
                start_ns: 60,
                end_ns: 90,
                parent: Some(0),
                request: 1,
            },
        ];
        assert_eq!(spans.self_ns(), vec![30, 30, 10, 30]);
        assert_eq!(spans.self_by_name()["a"], (60, 2));
        assert!((spans.coverage("request") - 0.7).abs() < 1e-12);
    }

    #[test]
    fn off_records_nothing() {
        let mut spans = Spans::new(false);
        spans.time("x", || ());
        assert!(spans.spans().is_empty());
    }
}

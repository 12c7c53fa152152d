//! Decoding a recording into human-readable or JSON-lines events.
//!
//! [`DumpSink`] is an [`EventSink`] that renders each event it observes
//! with the [`Event`] serializer — one line per event
//! — and writes it to an `io::Write` backend. Drive it from a
//! [`TraceReplayer`](crate::TraceReplayer) to turn a `.aptr` recording
//! into text (the `algoprof events` subcommand does exactly that).
//!
//! A `limit` stops *printing* after N events but the replay itself should
//! still run to the `End` tag, so stream validation (balance, bounds,
//! shadow-heap consistency) covers the whole recording either way.

use std::io::{self, Write};

use algoprof_vm::{Event, EventCx, EventSink};

/// Renders events as lines (text or JSON) into an `io::Write` backend.
///
/// Because `EventSink::event` cannot return errors, an I/O failure is
/// stashed and surfaced by [`DumpSink::finish`]; after a failure the
/// sink stops rendering.
#[derive(Debug)]
pub struct DumpSink<W: Write> {
    out: W,
    json: bool,
    limit: Option<u64>,
    /// Only render events delivered on this guest thread (`None` = all).
    filter: Option<u32>,
    /// The thread the stream is currently delivering on: implicitly `t0`
    /// from the start, updated by every `ThreadSwitch` (the switch line
    /// itself is attributed to the thread being switched *to*).
    thread: u32,
    written: u64,
    io_err: Option<io::Error>,
}

impl<W: Write> DumpSink<W> {
    /// A sink writing one line per event to `out`; `json` selects
    /// JSON-lines over plain text, `limit` caps the number of lines
    /// (`None` = dump everything).
    pub fn new(out: W, json: bool, limit: Option<u64>) -> Self {
        DumpSink {
            out,
            json,
            limit,
            filter: None,
            thread: 0,
            written: 0,
            io_err: None,
        }
    }

    /// Restricts rendering to events delivered on guest thread `id`.
    /// Filtering is per *delivery* thread, so `ThreadSpawn`s performed by
    /// the filtered thread appear while its own switch-in lines do.
    /// Replay still validates the whole stream.
    pub fn with_thread_filter(mut self, id: u32) -> Self {
        self.filter = Some(id);
        self
    }

    /// Flushes the backend and returns the number of lines written.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error hit while writing, whether it
    /// occurred mid-dump or now.
    pub fn finish(mut self) -> io::Result<u64> {
        if let Some(e) = self.io_err {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.written)
    }
}

impl<W: Write> EventSink for DumpSink<W> {
    fn event(&mut self, ev: &Event, cx: &EventCx<'_>) {
        if let Event::ThreadSwitch { thread } = ev {
            self.thread = thread.index() as u32;
        }
        if self.io_err.is_some()
            || self.limit.is_some_and(|n| self.written >= n)
            || self.filter.is_some_and(|f| f != self.thread)
        {
            return;
        }
        let line = if self.json {
            // Splice the delivery thread in as the first key so every
            // JSON line is self-describing: {"thread": N, "event": ...}.
            let body = ev.render_json(cx.program);
            format!("{{\"thread\": {}, {}", self.thread, &body[1..])
        } else {
            format!("t{} {}", self.thread, ev.render_text(cx.program))
        };
        if let Err(e) = writeln!(self.out, "{line}") {
            self.io_err = Some(e);
            return;
        }
        self.written += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{read_header, TraceHeader, TraceRecorder, TraceReplayer};
    use algoprof_vm::{compile, InstrumentOptions, Interp};

    fn record(src: &str) -> Vec<u8> {
        let options = InstrumentOptions::default();
        let program = compile(src).expect("compiles").instrument(&options);
        let header = TraceHeader::new(src, &options, &[]);
        let mut bytes = Vec::new();
        let mut rec = TraceRecorder::new(&header, &mut bytes);
        Interp::new(&program).run(&mut rec).expect("runs");
        rec.finish().expect("finishes");
        bytes
    }

    const SRC: &str = "class Main { static int main() {
        Node head = null;
        for (int i = 0; i < 3; i = i + 1) {
            Node n = new Node();
            n.next = head;
            head = n;
        }
        int[] a = new int[2];
        a[1] = 7;
        return 0;
    } }
    class Node { Node next; }";

    fn dump(json: bool, limit: Option<u64>) -> (String, u64) {
        let trace = record(SRC);
        let (header, events) = read_header(&trace).expect("valid header");
        let program = compile(&header.source)
            .expect("header source compiles")
            .instrument(&header.instrument);
        let mut out = Vec::new();
        let mut sink = DumpSink::new(&mut out, json, limit);
        TraceReplayer::new()
            .replay(&program, events, &mut sink)
            .expect("replays");
        let written = sink.finish().expect("finishes");
        (String::from_utf8(out).expect("utf-8"), written)
    }

    #[test]
    fn text_dump_resolves_names() {
        let (text, written) = dump(false, None);
        assert!(written > 0);
        assert!(text.contains("loop_entry Main.main:loop"), "got:\n{text}");
        assert!(text.contains("object_alloc obj@0 : Node"), "got:\n{text}");
        assert!(text.contains("array_write arr@0[1] = 7"), "got:\n{text}");
        // Every line carries its delivery thread; this guest never
        // spawns, so that is t0 throughout.
        for line in text.lines() {
            assert!(line.starts_with("t0 "), "got: {line}");
        }
    }

    #[test]
    fn json_dump_is_json_lines() {
        let (text, _) = dump(true, None);
        for line in text.lines() {
            assert!(
                line.starts_with("{\"thread\": 0, \"event\": \""),
                "got: {line}"
            );
            assert!(line.ends_with('}'), "got: {line}");
        }
        assert!(text.contains("\"event\": \"field_write\""), "got:\n{text}");
    }

    const THREADED_SRC: &str = "class Main { static int main() {
        int t1 = spawn work(3);
        int t2 = spawn work(4);
        return join t1 + join t2;
    }
    static int work(int n) {
        int s = 0;
        for (int i = 0; i < n; i = i + 1) { s = s + i; }
        return s;
    } }";

    fn dump_threaded(filter: Option<u32>) -> String {
        let trace = record(THREADED_SRC);
        let (header, events) = read_header(&trace).expect("valid header");
        let program = compile(&header.source)
            .expect("header source compiles")
            .instrument(&header.instrument);
        let mut out = Vec::new();
        let mut sink = DumpSink::new(&mut out, false, None);
        if let Some(id) = filter {
            sink = sink.with_thread_filter(id);
        }
        TraceReplayer::new()
            .replay(&program, events, &mut sink)
            .expect("replays");
        sink.finish().expect("finishes");
        String::from_utf8(out).expect("utf-8")
    }

    #[test]
    fn threaded_dump_attributes_lines_to_delivery_threads() {
        let text = dump_threaded(None);
        for t in ["t0 ", "t1 ", "t2 "] {
            assert!(text.contains(t), "missing {t} lines:\n{text}");
        }
        // Switch lines belong to the thread being switched to.
        assert!(
            text.lines()
                .filter(|l| l.contains("thread_switch"))
                .all(|l| {
                    // `tN thread_switch tN` — the column matches the target.
                    let target = l.split_whitespace().last().unwrap_or_default();
                    l.starts_with(&format!("{target} "))
                }),
            "got:\n{text}"
        );
    }

    #[test]
    fn thread_filter_selects_one_thread_but_validates_all() {
        let all = dump_threaded(None);
        let only1 = dump_threaded(Some(1));
        assert!(!only1.is_empty());
        for line in only1.lines() {
            assert!(line.starts_with("t1 "), "got: {line}");
        }
        let expected: Vec<&str> = all.lines().filter(|l| l.starts_with("t1 ")).collect();
        assert_eq!(only1.lines().collect::<Vec<_>>(), expected);
        // A filter naming a thread the run never reaches prints nothing
        // (but replays fine — the stream is still fully validated).
        assert!(dump_threaded(Some(9)).is_empty());
    }

    #[test]
    fn limit_caps_lines_but_replay_validates_everything() {
        let (text, written) = dump(false, Some(2));
        assert_eq!(written, 2);
        assert_eq!(text.lines().count(), 2);
        // And a corrupt tail still fails even when the limit hides it.
        let mut trace = record(SRC);
        let end = trace.len() - 1;
        trace[end] = 0xEE; // overwrite the End tag with garbage
        let (header, events) = read_header(&trace).expect("valid header");
        let program = compile(&header.source)
            .expect("header source compiles")
            .instrument(&header.instrument);
        let mut sink = DumpSink::new(Vec::new(), false, Some(1));
        let err = TraceReplayer::new()
            .replay(&program, events, &mut sink)
            .expect_err("corrupt tail must be reported");
        let msg = err.to_string();
        assert!(
            msg.contains("truncated") || msg.contains("tag"),
            "got {msg}"
        );
    }
}

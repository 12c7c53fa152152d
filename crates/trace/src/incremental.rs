//! Incremental replay over partial buffers: decode what has arrived,
//! suspend mid-stream, resume when more bytes land.
//!
//! A daemon ingesting an APTR upload (or `algoprof analyze -` reading a
//! pipe) wants to feed each network/pipe chunk as it arrives and let
//! analysis overlap ingestion. [`IncrementalReplayer`] provides that as
//! a push-style buffer around the one replay driver
//! ([`TraceReplayer`]): [`feed`] appends bytes, [`header`] surfaces the
//! decoded [`TraceHeader`] as soon as it is complete (so the caller can
//! compile the program), [`advance`] delivers every event whose bytes
//! are fully buffered, stopping — not failing — at a partial event, and
//! [`finish`] closes the stream. [`TraceReplayer::replay`] is the same
//! driver fed the whole stream at once, so both report the same events
//! and the same error for the same bytes, however they are chunked.
//!
//! [`feed`]: IncrementalReplayer::feed
//! [`header`]: IncrementalReplayer::header
//! [`advance`]: IncrementalReplayer::advance
//! [`finish`]: IncrementalReplayer::finish

use algoprof_vm::{CompiledProgram, EventSink};

use crate::format::{TraceError, TraceHeader};
use crate::replay::{ReplayStats, TraceReplayer};

/// Buffered bytes consumed this far are dropped once the prefix grows
/// past this, keeping steady-state memory proportional to one chunk
/// rather than the whole trace.
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// Push-style trace replayer: feed byte chunks, drain decoded events.
///
/// ```
/// use algoprof_vm::{compile, InstrumentOptions, Interp, NoopProfiler};
/// use algoprof_trace::{IncrementalReplayer, TraceHeader, TraceRecorder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let src = "class Main { static int main() {
///     int s = 0;
///     for (int i = 0; i < 10; i = i + 1) { s = s + i; }
///     return s;
/// } }";
/// let opts = InstrumentOptions::default();
/// let program = compile(src)?.instrument(&opts);
/// let mut bytes = Vec::new();
/// let mut rec = TraceRecorder::new(&TraceHeader::new(src, &opts, &[]), &mut bytes);
/// Interp::new(&program).run(&mut rec)?;
/// rec.finish()?;
///
/// // Feed the recording one byte at a time, as a slow pipe would.
/// let mut inc = IncrementalReplayer::new();
/// let mut sink = NoopProfiler;
/// let mut compiled = None;
/// for b in bytes {
///     inc.feed(&[b]);
///     if compiled.is_none() {
///         if let Some(h) = inc.header()? {
///             compiled = Some(compile(&h.source)?.instrument(&h.instrument));
///         }
///     }
///     if let Some(p) = &compiled {
///         inc.advance(p, &mut sink)?;
///     }
/// }
/// let stats = inc.finish()?;
/// assert!(stats.events > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct IncrementalReplayer {
    buf: Vec<u8>,
    /// Offset of the first unconsumed byte in `buf`.
    consumed: usize,
    /// Total bytes fed, across compactions.
    fed: u64,
    /// Bytes fed after the `End` tag; they are counted, not kept.
    trailing: u64,
    header: Option<TraceHeader>,
    replayer: TraceReplayer,
}

impl IncrementalReplayer {
    /// A replayer awaiting its first chunk.
    pub fn new() -> Self {
        IncrementalReplayer::default()
    }

    /// Appends a chunk of trace bytes.
    pub fn feed(&mut self, chunk: &[u8]) {
        self.fed += chunk.len() as u64;
        if self.replayer.ended {
            self.trailing += chunk.len() as u64;
        } else {
            self.buf.extend_from_slice(chunk);
        }
    }

    /// Total bytes fed so far.
    pub fn bytes_fed(&self) -> u64 {
        self.fed
    }

    /// The trace header, once enough bytes have arrived to decode it;
    /// `Ok(None)` means "feed more". Compile the returned header's
    /// source under its instrumentation options to obtain the program
    /// for [`IncrementalReplayer::advance`].
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] when the buffered prefix is already
    /// malformed (bad magic, unsupported version, corrupt header).
    pub fn header(&mut self) -> Result<Option<&TraceHeader>, TraceError> {
        if self.header.is_none() {
            match TraceHeader::decode(&self.buf) {
                Ok((h, off)) => {
                    self.header = Some(h);
                    self.consumed = off;
                }
                Err(TraceError::Truncated) => return Ok(None),
                Err(e) => return Err(e),
            }
        }
        Ok(self.header.as_ref())
    }

    /// Delivers every fully buffered event to `sink`. Stops cleanly at a
    /// partial event (resume by feeding more bytes and calling again).
    /// `program` must be the compiled form of the header returned by
    /// [`IncrementalReplayer::header`]; calling before the header is
    /// decoded is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Corrupt`] for structurally invalid events
    /// and for repetitions still open at `End`. Bytes after `End` are
    /// reported by [`IncrementalReplayer::finish`], which knows how many
    /// there were.
    pub fn advance<S: EventSink>(
        &mut self,
        program: &CompiledProgram,
        sink: &mut S,
    ) -> Result<(), TraceError> {
        if self.header.is_none() || self.replayer.ended {
            return Ok(());
        }
        if self.consumed >= COMPACT_THRESHOLD {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.consumed += self
            .replayer
            .advance(program, &self.buf[self.consumed..], sink)?;
        if self.replayer.ended {
            self.trailing += (self.buf.len() - self.consumed) as u64;
            self.buf = Vec::new();
            self.consumed = 0;
        }
        Ok(())
    }

    /// Declares the stream complete and returns the final stats.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Truncated`] when the `End` tag was never
    /// decoded (the upload stopped mid-stream) and
    /// [`TraceError::Corrupt`] for bytes after it.
    pub fn finish(&self) -> Result<ReplayStats, TraceError> {
        self.replayer.finish(self.trailing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{read_header, TraceRecorder, TraceReplayer};
    use algoprof_vm::{compile, Event, EventCx, InstrumentOptions, Interp, NoopProfiler};

    const SRC: &str = "class Main { static int main() {
        Node head = null;
        int[] a = new int[6];
        int s = 0;
        for (int i = 0; i < 6; i = i + 1) {
            Node x = new Node();
            x.v = i;
            x.next = head;
            head = x;
            a[i] = i + 1;
        }
        while (head != null) { s = s + head.v; head = head.next; }
        print(s);
        return s;
    } }
    class Node { int v; Node next; }";

    fn record() -> Vec<u8> {
        let opts = InstrumentOptions::default();
        let program = compile(SRC).expect("compiles").instrument(&opts);
        let mut bytes = Vec::new();
        let mut rec = TraceRecorder::new(&TraceHeader::new(SRC, &opts, &[]), &mut bytes);
        Interp::new(&program).run(&mut rec).expect("runs");
        rec.finish().expect("finishes");
        bytes
    }

    #[derive(Debug, Default, PartialEq, Eq)]
    struct Transcript(Vec<String>);

    impl EventSink for Transcript {
        fn event(&mut self, ev: &Event, cx: &EventCx<'_>) {
            if matches!(ev, Event::Instruction { .. }) {
                return;
            }
            self.0.push(format!("{ev:?} @{}", cx.heap.epoch()));
        }
    }

    /// Feeds `bytes` in chunks of `n` and returns the transcript.
    fn incremental_transcript(bytes: &[u8], n: usize) -> (Transcript, ReplayStats) {
        let mut inc = IncrementalReplayer::new();
        let mut sink = Transcript::default();
        let mut compiled = None;
        for chunk in bytes.chunks(n) {
            inc.feed(chunk);
            if compiled.is_none() {
                if let Some(h) = inc.header().expect("header ok") {
                    compiled = Some(
                        compile(&h.source)
                            .expect("header source compiles")
                            .instrument(&h.instrument),
                    );
                }
            }
            if let Some(p) = &compiled {
                inc.advance(p, &mut sink).expect("advances");
            }
        }
        let stats = inc.finish().expect("complete stream");
        (sink, stats)
    }

    #[test]
    fn chunked_replay_matches_batch_replay_at_every_chunk_size() {
        let bytes = record();
        let (header, events) = read_header(&bytes).expect("header");
        let program = compile(&header.source)
            .expect("compiles")
            .instrument(&header.instrument);
        let mut batch = Transcript::default();
        let batch_stats = TraceReplayer::new()
            .replay(&program, events, &mut batch)
            .expect("replays");
        for n in [1, 2, 3, 7, 64, bytes.len()] {
            let (t, stats) = incremental_transcript(&bytes, n);
            assert_eq!(t, batch, "chunk size {n} diverged");
            assert_eq!(stats.events, batch_stats.events);
        }
    }

    #[test]
    fn header_surfaces_only_when_complete() {
        let bytes = record();
        let (_, events) = read_header(&bytes).expect("header");
        let header_len = bytes.len() - events.len();
        let mut inc = IncrementalReplayer::new();
        inc.feed(&bytes[..header_len - 1]);
        assert!(inc.header().expect("no error yet").is_none());
        inc.feed(&bytes[header_len - 1..header_len]);
        let h = inc.header().expect("ok").expect("decoded").clone();
        assert_eq!(h.source, SRC);
    }

    #[test]
    fn unfinished_stream_reports_truncated() {
        let bytes = record();
        let mut inc = IncrementalReplayer::new();
        inc.feed(&bytes[..bytes.len() - 1]);
        let h = inc.header().expect("ok").expect("decoded").clone();
        let program = compile(&h.source)
            .expect("compiles")
            .instrument(&h.instrument);
        inc.advance(&program, &mut NoopProfiler).expect("advances");
        assert_eq!(inc.finish(), Err(TraceError::Truncated));
    }

    #[test]
    fn trailing_bytes_after_end_are_corrupt() {
        let mut bytes = record();
        bytes.push(0x01);
        let mut inc = IncrementalReplayer::new();
        inc.feed(&bytes);
        let h = inc.header().expect("ok").expect("decoded").clone();
        let program = compile(&h.source)
            .expect("compiles")
            .instrument(&h.instrument);
        inc.advance(&program, &mut NoopProfiler).expect("advances");
        assert_eq!(
            inc.finish(),
            Err(TraceError::Corrupt("1 trailing bytes after End tag".into()))
        );
    }

    #[test]
    fn bad_magic_is_reported_from_header() {
        let mut inc = IncrementalReplayer::new();
        inc.feed(b"NOPE");
        assert_eq!(inc.header(), Err(TraceError::BadMagic));
    }

    #[test]
    fn compaction_preserves_the_stream() {
        // Feed a trace 1 byte at a time through a tiny threshold clone by
        // just exercising the default path on a real trace; the public
        // behaviour contract is chunked == batch, covered above. Here we
        // additionally check bytes_fed accounting survives compaction.
        let bytes = record();
        let (t, _) = incremental_transcript(&bytes, 1);
        assert!(!t.0.is_empty());
        let mut inc = IncrementalReplayer::new();
        inc.feed(&bytes);
        assert_eq!(inc.bytes_fed(), bytes.len() as u64);
    }
}

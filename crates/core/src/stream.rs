//! Streaming analysis: profile an APTR trace while it is still arriving.
//!
//! Profiling a trace through [`crate::profile`](fn@crate::profile)
//! needs the whole trace before analysis starts. [`StreamingAnalysis`]
//! inverts that: each
//! [`feed`] decodes every fully buffered event through
//! [`IncrementalReplayer`] straight into a live [`AlgoProf`], and pushes
//! every repetition-tree invocation that *finished* during the chunk
//! into a per-node [`StreamingFit`] — the paper's §3.3 "infer the cost
//! function online, discard the individual data points" optimization,
//! wired to a real incremental producer. Analysis therefore overlaps
//! ingestion: by the time the last chunk of a network upload (or an
//! `algoprof analyze -` pipe) lands, the profiler has already consumed
//! everything before it.
//!
//! [`finish`] closes the stream and returns the full
//! [`ProfileSet`] — identical to what
//! [`crate::profile`](fn@crate::profile) produces for the same bytes,
//! errors included, since both decode through the one replay driver —
//! plus the per-node online fits.
//!
//! [`feed`]: StreamingAnalysis::feed
//! [`finish`]: StreamingAnalysis::finish

use std::collections::BTreeMap;

use algoprof_fit::{Fit, PowerFit, StreamingFit};
use algoprof_trace::IncrementalReplayer;
use algoprof_vm::CompiledProgram;

use crate::inputs::{InputKind, InputRegistry};
use crate::profile::ProfileSet;
use crate::profiler::{AlgoProf, AlgoProfOptions};
use crate::reptree::{Invocation, NodeId};
use crate::run::{recorded_program, ProfileError};

/// Online ⟨size, steps⟩ fit state for one repetition-tree node.
#[derive(Debug, Default)]
struct NodeFitState {
    fit: StreamingFit,
    /// Invocations of this node already pushed (a contiguous prefix —
    /// an unfinished invocation stalls the cursor until it finalizes).
    pushed: usize,
}

/// One node's online fit in the final [`StreamingReport`].
#[derive(Debug, Clone)]
pub struct StreamNodeFit {
    /// Display name of the repetition-tree node.
    pub node: String,
    /// ⟨size, steps⟩ observations consumed.
    pub points: usize,
    /// Best model by BIC over the streamed points.
    pub best: Option<Fit>,
    /// Log–log power-law fit over the streamed points.
    pub power: Option<PowerFit>,
}

/// Everything a completed streaming analysis produced.
#[derive(Debug)]
pub struct StreamingReport {
    /// One profile per guest thread, identical to the
    /// [`crate::profile`](fn@crate::profile) result for the same trace
    /// bytes and options (single-threaded guests yield a one-entry set).
    pub profiles: ProfileSet,
    /// Per-node online fits, sized nodes only, in node-id order.
    pub node_fits: Vec<StreamNodeFit>,
    /// The guest source embedded in the trace header (the stream itself
    /// is gone by now, so callers that want it — e.g. `analyze -`
    /// cross-validation — take it from here).
    pub source: String,
    /// Events replayed.
    pub events: u64,
    /// Trace bytes consumed.
    pub bytes: u64,
}

/// Push-style trace analysis; see the module docs.
#[derive(Debug)]
pub struct StreamingAnalysis {
    options: AlgoProfOptions,
    inc: IncrementalReplayer,
    program: Option<CompiledProgram>,
    profiler: Option<AlgoProf>,
    fits: BTreeMap<usize, NodeFitState>,
}

impl StreamingAnalysis {
    /// An analysis awaiting its first chunk.
    pub fn new(options: AlgoProfOptions) -> Self {
        StreamingAnalysis {
            options,
            inc: IncrementalReplayer::new(),
            program: None,
            profiler: None,
            fits: BTreeMap::new(),
        }
    }

    /// Feeds one chunk of APTR bytes, replaying every event that is now
    /// fully buffered into the profiler and updating the online fits
    /// with invocations that finished during this chunk.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError`] when the trace prefix is malformed or
    /// the embedded source does not compile. A short chunk is never an
    /// error — decoding simply waits for more bytes.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<(), ProfileError> {
        self.inc.feed(chunk);
        if self.program.is_none() {
            if let Some(header) = self.inc.header()? {
                let program = recorded_program(header)?;
                self.profiler = Some(AlgoProf::with_options(self.options));
                self.program = Some(program);
            }
        }
        if let (Some(program), Some(profiler)) = (&self.program, &mut self.profiler) {
            self.inc.advance(program, profiler)?;
            let tree = profiler.tree();
            let registry = profiler.registry();
            for node in tree.nodes() {
                let state = self.fits.entry(node.id.index()).or_default();
                push_finished(state, &node.invocations, registry);
            }
        }
        Ok(())
    }

    /// Closes the stream: verifies the `End` tag arrived, finalizes the
    /// profiler, folds still-open invocations (finalized only now) into
    /// the online fits, and returns the [`StreamingReport`].
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Trace`] when the stream stopped before
    /// its `End` tag (`Truncated`) or carried trailing bytes.
    pub fn finish(mut self) -> Result<StreamingReport, ProfileError> {
        let stats = self.inc.finish()?;
        let source = self
            .inc
            .header()
            .expect("header decoded long before End")
            .map(|h| h.source.clone())
            .unwrap_or_default();
        let profiler = self
            .profiler
            .take()
            .expect("End tag decoded implies the header was decoded");
        let program = self
            .program
            .take()
            .expect("End tag decoded implies the header was decoded");
        let profiles = profiler.finish_set(&program);
        // Invocations still open at the last chunk (e.g. the root) are
        // finalized inside `finish`; fold them in from the final tree.
        // Online fits follow the main thread (the stream's implicit
        // starting thread — the one `feed` was watching all along).
        let main = profiles.main();
        for node in main.tree().nodes() {
            let state = self.fits.entry(node.id.index()).or_default();
            push_finished(state, &node.invocations, main.registry());
        }
        let node_fits = self
            .fits
            .iter()
            .filter(|(_, s)| !s.fit.is_empty())
            .map(|(&idx, s)| StreamNodeFit {
                node: main.node_name(NodeId(idx as u32)).to_string(),
                points: s.fit.len(),
                best: s.fit.best_fit(),
                power: s.fit.power_law(),
            })
            .collect();
        Ok(StreamingReport {
            profiles,
            node_fits,
            source,
            events: stats.events,
            bytes: self.inc.bytes_fed(),
        })
    }
}

/// Pushes the contiguous run of newly finished invocations (those past
/// `state.pushed`) into the node's online fit. An invocation contributes
/// a point only if it touched a sized input (structure or array), with
/// size = the largest such input's high-water size and cost = steps —
/// the same point definition as
/// [`AlgorithmicProfile::invocation_series`].
fn push_finished(state: &mut NodeFitState, invocations: &[Invocation], registry: &InputRegistry) {
    while let Some(inv) = invocations.get(state.pushed) {
        if !inv.finished {
            break;
        }
        let size = inv
            .inputs
            .iter()
            .filter(|(&i, _)| {
                matches!(
                    registry.input(i).kind,
                    InputKind::Structure | InputKind::Array(_)
                )
            })
            .map(|(_, obs)| obs.max_size)
            .max();
        if let Some(size) = size {
            state.fit.push(size as f64, inv.costs.steps() as f64);
        }
        state.pushed += 1;
    }
}

/// Renders the online-fit section of a streaming report as stable text
/// (used by the serve streaming endpoint's response body).
pub fn render_stream_fits(report: &StreamingReport) -> String {
    let mut out = String::new();
    out.push_str("streaming fits (online, per repetition-tree node)\n");
    if report.node_fits.is_empty() {
        out.push_str("  (no sized invocations)\n");
        return out;
    }
    for f in &report.node_fits {
        out.push_str(&format!("  {} [{} points]", f.node, f.points));
        if let Some(best) = &f.best {
            out.push_str(&format!(
                "  best {:?} coeff {:.4} r2 {:.4}",
                best.model, best.coeff, best.r2
            ));
        }
        if let Some(p) = &f.power {
            out.push_str(&format!("  power n^{:.3}", p.exponent));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{profile, record_source_with, Guest, RunConfig};
    use algoprof_vm::InstrumentOptions;

    fn record(src: &str) -> Result<Vec<u8>, ProfileError> {
        record_source_with(src, &InstrumentOptions::default(), &[])
    }

    fn batch(trace: &[u8]) -> Result<ProfileSet, ProfileError> {
        profile(Guest::Trace(trace), &RunConfig::default())
    }

    const SRC: &str = "class Main { static int main() {
        Node head = null;
        for (int i = 0; i < 12; i = i + 1) {
            Node x = new Node();
            x.next = head;
            head = x;
        }
        int c = 0;
        Node cur = head;
        while (cur != null) { c = c + 1; cur = cur.next; }
        return c;
    } }
    class Node { Node next; }";

    fn streamed(trace: &[u8], chunk: usize) -> StreamingReport {
        let mut s = StreamingAnalysis::new(AlgoProfOptions::default());
        for c in trace.chunks(chunk) {
            s.feed(c).expect("feeds");
        }
        s.finish().expect("finishes")
    }

    #[test]
    fn streaming_profile_equals_batch_profile() {
        let trace = record(SRC).expect("records");
        let batch = batch(&trace).expect("replays");
        for chunk in [1, 7, 64, trace.len()] {
            let report = streamed(&trace, chunk);
            assert_eq!(
                report.profiles, batch,
                "chunk size {chunk} diverged from batch"
            );
            assert_eq!(report.bytes, trace.len() as u64);
            assert!(report.events > 0);
        }
    }

    #[test]
    fn online_fits_cover_sized_nodes() {
        let trace = record(SRC).expect("records");
        let report = streamed(&trace, 11);
        // Both loops touch the Node structure input, so both stream
        // points into their node fits.
        assert!(
            report.node_fits.len() >= 2,
            "expected fits for construction and traversal loops, got {:?}",
            report.node_fits
        );
        let total: usize = report.node_fits.iter().map(|f| f.points).sum();
        assert!(total > 0);
        assert_eq!(report.source, SRC);
        let text = render_stream_fits(&report);
        assert!(text.contains("streaming fits"));
        assert!(text.contains("points]"));
    }

    #[test]
    fn threaded_streaming_equals_batch_set() {
        const TSRC: &str = "class Main { static int main() {
            int t1 = spawn work(6);
            int t2 = spawn work(9);
            return join t1 + join t2;
        }
        static int work(int n) {
            Node head = null;
            for (int i = 0; i < n; i = i + 1) {
                Node x = new Node(); x.next = head; head = x;
            }
            return n;
        } }
        class Node { Node next; }";
        let trace = record(TSRC).expect("records");
        let batch = batch(&trace).expect("replays");
        assert_eq!(batch.len(), 3, "main + two workers");
        for chunk in [1, 13, trace.len()] {
            let report = streamed(&trace, chunk);
            assert_eq!(
                report.profiles, batch,
                "chunk size {chunk} diverged from the batch set"
            );
        }
    }

    #[test]
    fn truncated_stream_is_an_error_at_finish() {
        let trace = record(SRC).expect("records");
        let mut s = StreamingAnalysis::new(AlgoProfOptions::default());
        s.feed(&trace[..trace.len() - 1]).expect("feeds");
        let err = s.finish().unwrap_err();
        assert!(matches!(err, ProfileError::Trace(_)));
    }

    #[test]
    fn bad_bytes_are_an_error_at_feed() {
        let mut s = StreamingAnalysis::new(AlgoProfOptions::default());
        let err = s.feed(b"definitely not a trace").unwrap_err();
        assert!(matches!(err, ProfileError::Trace(_)));
    }
}

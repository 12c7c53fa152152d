//! One-call convenience: compile, instrument, execute, and profile a jay
//! source program — or record its event trace once and profile the
//! recording as many times as needed ([`record_source`],
//! [`profile_trace`]).

use std::fmt;

use algoprof_trace::{read_header, TraceError, TraceHeader, TraceRecorder, TraceReplayer};
use algoprof_vm::{
    compile, CompileError, CompiledProgram, EventSink, InstrumentOptions, Interp, RuntimeError,
};

use crate::profile::{AlgorithmicProfile, ProfileSet};
use crate::profiler::{AlgoProf, AlgoProfOptions};

/// Why [`profile_source`] failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileError {
    /// The guest program did not compile.
    Compile(CompileError),
    /// The guest program failed at run time.
    Runtime(RuntimeError),
    /// A recorded trace could not be decoded.
    Trace(TraceError),
    /// A program or trace file could not be read, or an output file
    /// could not be written (the message carries the path and OS error).
    Io(String),
}

impl ProfileError {
    /// Wraps a filesystem failure on `path` (CLI and sweep callers read
    /// programs/traces and write reports through this constructor, so
    /// every exit path speaks `ProfileError`).
    pub fn io(verb: &str, path: &str, e: &std::io::Error) -> ProfileError {
        ProfileError::Io(format!("cannot {verb} {path}: {e}"))
    }
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Compile(e) => write!(f, "guest compilation failed: {e}"),
            ProfileError::Runtime(e) => write!(f, "guest execution failed: {e}"),
            ProfileError::Trace(e) => write!(f, "trace replay failed: {e}"),
            ProfileError::Io(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ProfileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProfileError::Compile(e) => Some(e),
            ProfileError::Runtime(e) => Some(e),
            ProfileError::Trace(e) => Some(e),
            ProfileError::Io(_) => None,
        }
    }
}

impl From<CompileError> for ProfileError {
    fn from(e: CompileError) -> Self {
        ProfileError::Compile(e)
    }
}

impl From<RuntimeError> for ProfileError {
    fn from(e: RuntimeError) -> Self {
        ProfileError::Runtime(e)
    }
}

impl From<TraceError> for ProfileError {
    fn from(e: TraceError) -> Self {
        ProfileError::Trace(e)
    }
}

/// The live prelude every source entry point shares: compiles,
/// instruments and fuses `source`, then runs it on `input`, delivering
/// every event to `sink`. Returns the program the events resolve against.
fn run_source<S: EventSink>(
    source: &str,
    instrument: &InstrumentOptions,
    input: &[i64],
    sink: &mut S,
) -> Result<CompiledProgram, ProfileError> {
    let program = compile(source)?.instrument(instrument).fuse_default();
    Interp::new(&program).with_input(input.to_vec()).run(sink)?;
    Ok(program)
}

/// The replay prelude every trace entry point shares: recompiles the
/// source embedded in the trace header under the recorded
/// instrumentation options, then replays the events into `sink`.
/// Compilation is deterministic, so every id in the stream resolves
/// exactly as it did while recording.
///
/// # Errors
///
/// Returns [`ProfileError::Trace`] when the trace is malformed and
/// [`ProfileError::Compile`] when its embedded source does not compile.
pub fn replay_trace<S: EventSink>(
    trace: &[u8],
    sink: &mut S,
) -> Result<CompiledProgram, ProfileError> {
    let (header, events) = read_header(trace)?;
    let program = compile(&header.source)?.instrument(&header.instrument);
    TraceReplayer::new().replay(&program, events, sink)?;
    Ok(program)
}

/// Compiles `source`, instruments it with the default options, runs it,
/// and returns its algorithmic profile.
///
/// # Errors
///
/// Returns [`ProfileError`] when the guest program fails to compile or
/// its execution raises an uncaught error.
///
/// # Example
///
/// ```
/// let profile = algoprof::profile_source(
///     "class Main { static int main() {
///          int s = 0;
///          for (int i = 0; i < 5; i = i + 1) { s = s + i; }
///          return s;
///      } }",
/// )?;
/// assert_eq!(profile.algorithms().len(), 2);
/// # Ok::<(), algoprof::ProfileError>(())
/// ```
pub fn profile_source(source: &str) -> Result<AlgorithmicProfile, ProfileError> {
    profile_source_with(
        source,
        &InstrumentOptions::default(),
        AlgoProfOptions::default(),
        &[],
    )
}

/// Like [`profile_source`] with explicit instrumentation and profiler
/// options plus guest input values.
///
/// # Errors
///
/// Same as [`profile_source`].
pub fn profile_source_with(
    source: &str,
    instrument: &InstrumentOptions,
    options: AlgoProfOptions,
    input: &[i64],
) -> Result<AlgorithmicProfile, ProfileError> {
    profile_source_set_with(source, instrument, options, input).map(ProfileSet::into_main)
}

/// Like [`profile_source_with`], but returns one profile per guest
/// thread ([`ProfileSet`]) instead of only the main thread's —
/// single-threaded programs yield a one-element set.
///
/// # Errors
///
/// Same as [`profile_source`].
pub fn profile_source_set_with(
    source: &str,
    instrument: &InstrumentOptions,
    options: AlgoProfOptions,
    input: &[i64],
) -> Result<ProfileSet, ProfileError> {
    let mut profiler = AlgoProf::with_options(options);
    let program = run_source(source, instrument, input, &mut profiler)?;
    Ok(profiler.finish_set(&program))
}

/// Compiles `source`, instruments it with the default options, executes
/// it once, and returns the recorded event trace. Feed the bytes to
/// [`profile_trace`] (any number of times) to analyze without
/// re-executing the guest.
///
/// # Errors
///
/// Returns [`ProfileError`] when the guest fails to compile or its
/// execution raises an uncaught error.
pub fn record_source(source: &str) -> Result<Vec<u8>, ProfileError> {
    record_source_with(source, &InstrumentOptions::default(), &[])
}

/// Like [`record_source`] with explicit instrumentation options and
/// guest input values (both are embedded in the trace header, so the
/// recording stays self-contained).
///
/// # Errors
///
/// Same as [`record_source`].
pub fn record_source_with(
    source: &str,
    instrument: &InstrumentOptions,
    input: &[i64],
) -> Result<Vec<u8>, ProfileError> {
    let mut bytes = Vec::new();
    let mut recorder = TraceRecorder::new(&TraceHeader::new(source, instrument, input), &mut bytes);
    run_source(source, instrument, input, &mut recorder)?;
    recorder.finish().expect("writes to a Vec<u8> cannot fail");
    Ok(bytes)
}

/// Profiles a recorded trace under the default [`AlgoProfOptions`]
/// without executing the guest.
///
/// # Errors
///
/// Returns [`ProfileError`] when the trace is malformed or its embedded
/// source no longer compiles.
pub fn profile_trace(trace: &[u8]) -> Result<AlgorithmicProfile, ProfileError> {
    profile_trace_with(trace, AlgoProfOptions::default())
}

/// Like [`profile_trace`] with explicit profiler options. The resulting
/// profile equals what a live run under `options` would have produced.
///
/// # Errors
///
/// Same as [`profile_trace`].
pub fn profile_trace_with(
    trace: &[u8],
    options: AlgoProfOptions,
) -> Result<AlgorithmicProfile, ProfileError> {
    profile_trace_set_with(trace, options).map(ProfileSet::into_main)
}

/// Like [`profile_trace_with`], but returns one profile per guest thread
/// recorded in the trace ([`ProfileSet`]).
///
/// # Errors
///
/// Same as [`profile_trace`].
pub fn profile_trace_set_with(
    trace: &[u8],
    options: AlgoProfOptions,
) -> Result<ProfileSet, ProfileError> {
    let mut profiler = AlgoProf::with_options(options);
    let program = replay_trace(trace, &mut profiler)?;
    Ok(profiler.finish_set(&program))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_source_smoke() {
        let p = profile_source(
            "class Main { static int main() { int s = 0; for (int i = 0; i < 3; i = i + 1) { s = s + 1; } return s; } }",
        )
        .expect("profiles");
        assert_eq!(p.algorithms().len(), 2);
    }

    #[test]
    fn compile_error_is_reported() {
        let e = profile_source("class Main {").unwrap_err();
        assert!(matches!(e, ProfileError::Compile(_)));
        assert!(e.to_string().contains("compilation"));
    }

    #[test]
    fn runtime_error_is_reported() {
        let e = profile_source("class Main { static int main() { throw 3; } }").unwrap_err();
        assert!(matches!(e, ProfileError::Runtime(_)));
    }

    const LOOP_SRC: &str = "class Main { static int main() {
        int s = 0;
        for (int i = 0; i < 6; i = i + 1) { s = s + i; }
        return s;
    } }";

    #[test]
    fn trace_profile_equals_live_profile() {
        let live = profile_source(LOOP_SRC).expect("profiles");
        let trace = record_source(LOOP_SRC).expect("records");
        let replayed = profile_trace(&trace).expect("replays");
        assert_eq!(live, replayed);
    }

    #[test]
    fn trace_error_is_reported() {
        let e = profile_trace(b"not a trace").unwrap_err();
        assert!(matches!(e, ProfileError::Trace(_)));
        assert!(e.to_string().contains("trace"));
    }

    /// Two workers each build and traverse their own list while sharing a
    /// lock-guarded counter — exercises threads, locks, and tracked data
    /// structures at once.
    const THREADED_SRC: &str = "class Main { static int main() {
        Counter c = new Counter();
        int t1 = spawn work(c, 12);
        int t2 = spawn work(c, 18);
        int a = join t1;
        int b = join t2;
        return c.total;
    }
    static int work(Counter c, int n) {
        Node head = null;
        for (int i = 0; i < n; i = i + 1) {
            Node x = new Node();
            x.next = head;
            head = x;
        }
        Node cur = head;
        while (cur != null) {
            lock c;
            c.total = c.total + 1;
            unlock c;
            cur = cur.next;
        }
        return n;
    } }
    class Counter { int total; }
    class Node { Node next; }";

    #[test]
    fn threaded_trace_profile_equals_live_profile_under_every_criterion() {
        use crate::snapshot::EquivalenceCriterion;

        let trace = record_source(THREADED_SRC).expect("records");
        for criterion in [
            EquivalenceCriterion::AllElements,
            EquivalenceCriterion::SomeElements,
            EquivalenceCriterion::SameArray,
            EquivalenceCriterion::SameType,
        ] {
            let options = AlgoProfOptions {
                criterion,
                ..AlgoProfOptions::default()
            };
            let live =
                profile_source_set_with(THREADED_SRC, &InstrumentOptions::default(), options, &[])
                    .expect("profiles live");
            let replayed = profile_trace_set_with(&trace, options).expect("replays");
            assert_eq!(live.len(), 3, "main + two workers under {criterion:?}");
            assert_eq!(
                live, replayed,
                "per-thread profiles must match live under {criterion:?}"
            );
        }
    }
}

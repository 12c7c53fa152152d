//! The one run entry point. [`run`] takes a [`Guest`] — jay source to
//! compile, instrument, fuse and execute, or a recorded trace to replay —
//! to any [`EventSink`] under one [`RunConfig`]; [`profile`] drives an
//! [`AlgoProf`] through it. Profile jobs, analyze jobs, the CLI's
//! `record`, `events` and `opstats`, and the examples all run this way,
//! so a new concern becomes a [`RunConfig`] field rather than another
//! wrapper.

use std::fmt;
use std::sync::Arc;

use algoprof_trace::{read_header, TraceError, TraceHeader, TraceRecorder, TraceReplayer};
use algoprof_vm::{
    CompileError, CompiledProgram, EventSink, InstrumentOptions, Interp, RuntimeError,
};

use crate::profile::{AlgorithmicProfile, ProfileSet};
use crate::profiler::{AlgoProf, AlgoProfOptions};
use crate::programs::{program_for, ProgramCache};

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

/// What a run is driven from.
#[derive(Debug, Clone, Copy)]
pub enum Guest<'a> {
    /// jay source text, compiled under [`RunConfig::instrument`], fused
    /// if [`RunConfig::fuse`], and executed on [`RunConfig::input`].
    Source(&'a str),
    /// A recorded APTR trace. Its header carries the source,
    /// instrumentation and input it was recorded with, so the config's
    /// are not consulted, and nothing executes.
    Trace(&'a [u8]),
}

/// Everything a run depends on besides its [`Guest`].
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Instrumentation of a source guest.
    pub instrument: InstrumentOptions,
    /// Values for a source guest's `readInput()` calls.
    pub input: Vec<i64>,
    /// Profiler configuration ([`profile`] only).
    pub options: AlgoProfOptions,
    /// Whether a source guest's bytecode is fused into
    /// superinstructions. Reports are identical either way; only the
    /// dispatch count changes.
    pub fuse: bool,
}

impl Default for RunConfig {
    /// Default instrumentation and profiler options, no input, fused:
    /// the configuration users run.
    fn default() -> Self {
        RunConfig {
            instrument: InstrumentOptions::default(),
            input: Vec::new(),
            options: AlgoProfOptions::default(),
            fuse: true,
        }
    }
}

/// Runs `guest` under `config`, delivering every event to `sink`, and
/// returns the program the events resolve against.
///
/// A trace's embedded source is recompiled under its recorded
/// instrumentation; compilation is deterministic, so every id in the
/// stream resolves exactly as it did while recording.
///
/// # Errors
///
/// Returns [`ProfileError::Compile`] when the source (or the trace's
/// embedded source) does not compile, [`ProfileError::Runtime`] when the
/// guest raises an uncaught error, and [`ProfileError::Trace`] when the
/// trace is malformed.
pub fn run<S: EventSink>(
    guest: Guest<'_>,
    config: &RunConfig,
    sink: &mut S,
) -> Result<Arc<CompiledProgram>, ProfileError> {
    run_in(None, guest, config, sink)
}

/// [`run`], taking the program from `programs` when the caller keeps a
/// [`ProgramCache`].
pub(crate) fn run_in<S: EventSink>(
    programs: Option<&ProgramCache>,
    guest: Guest<'_>,
    config: &RunConfig,
    sink: &mut S,
) -> Result<Arc<CompiledProgram>, ProfileError> {
    match guest {
        Guest::Source(source) => {
            let program = program_for(programs, source, &config.instrument, config.fuse)?;
            Interp::new(&program)
                .with_input(config.input.clone())
                .run(sink)?;
            Ok(program)
        }
        Guest::Trace(trace) => {
            let (header, events) = read_header(trace)?;
            let program = recorded_program(programs, &header)?;
            TraceReplayer::new().replay(&program, events, sink)?;
            Ok(program)
        }
    }
}

/// The program a trace's events resolve against: its embedded source
/// compiled under its recorded instrumentation (unfused: nothing runs).
pub(crate) fn recorded_program(
    programs: Option<&ProgramCache>,
    header: &TraceHeader,
) -> Result<Arc<CompiledProgram>, CompileError> {
    program_for(programs, &header.source, &header.instrument, false)
}

/// Runs `guest` under `config` into an [`AlgoProf`] and returns one
/// profile per guest thread. A trace's profile equals what the live run
/// it recorded would have produced under the same options.
///
/// # Errors
///
/// Same as [`run`].
pub fn profile(guest: Guest<'_>, config: &RunConfig) -> Result<ProfileSet, ProfileError> {
    profile_in(None, guest, config)
}

/// [`profile`], taking the program from `programs` when the caller
/// keeps a [`ProgramCache`].
pub(crate) fn profile_in(
    programs: Option<&ProgramCache>,
    guest: Guest<'_>,
    config: &RunConfig,
) -> Result<ProfileSet, ProfileError> {
    let mut profiler = AlgoProf::with_options(config.options);
    let program = run_in(programs, guest, config, &mut profiler)?;
    Ok(profiler.finish_set(&program))
}

/// Profiles `source` under the default [`RunConfig`] and returns its main
/// thread's profile.
///
/// # Errors
///
/// Same as [`run`].
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
    profile(Guest::Source(source), &RunConfig::default()).map(ProfileSet::into_main)
}

/// Executes `source` once under `instrument` with `input` and returns the
/// recorded event trace, which embeds all three. Profile the bytes with
/// [`Guest::Trace`] any number of times without re-executing the guest.
///
/// # Errors
///
/// Same as [`run`].
pub fn record_source_with(
    source: &str,
    instrument: &InstrumentOptions,
    input: &[i64],
) -> Result<Vec<u8>, ProfileError> {
    let config = RunConfig {
        instrument: *instrument,
        input: input.to_vec(),
        ..RunConfig::default()
    };
    let mut bytes = Vec::new();
    let mut recorder = TraceRecorder::new(&TraceHeader::new(source, instrument, input), &mut bytes);
    run(Guest::Source(source), &config, &mut recorder)?;
    recorder.finish().expect("writes to a Vec<u8> cannot fail");
    Ok(bytes)
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

    fn record(src: &str) -> Vec<u8> {
        record_source_with(src, &InstrumentOptions::default(), &[]).expect("records")
    }

    #[test]
    fn trace_profile_equals_live_profile() {
        let config = RunConfig::default();
        let live = profile(Guest::Source(LOOP_SRC), &config).expect("profiles");
        let trace = record(LOOP_SRC);
        let replayed = profile(Guest::Trace(&trace), &config).expect("replays");
        assert_eq!(live, replayed);
    }

    #[test]
    fn trace_error_is_reported() {
        let e = profile(Guest::Trace(b"not a trace"), &RunConfig::default()).unwrap_err();
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

        let trace = record(THREADED_SRC);
        for criterion in [
            EquivalenceCriterion::AllElements,
            EquivalenceCriterion::SomeElements,
            EquivalenceCriterion::SameArray,
            EquivalenceCriterion::SameType,
        ] {
            let config = RunConfig {
                options: AlgoProfOptions {
                    criterion,
                    ..AlgoProfOptions::default()
                },
                ..RunConfig::default()
            };
            let live = profile(Guest::Source(THREADED_SRC), &config).expect("profiles live");
            let replayed = profile(Guest::Trace(&trace), &config).expect("replays");
            assert_eq!(live.len(), 3, "main + two workers under {criterion:?}");
            assert_eq!(
                live, replayed,
                "per-thread profiles must match live under {criterion:?}"
            );
        }
    }
}

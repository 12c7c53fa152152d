//! Adversarial decoding: a damaged APTR stream must always surface
//! `ProfileError::Trace` (or, when the damage lands in the embedded
//! source, a compile/runtime error) — never a panic, an abort, or an
//! unbounded loop.
//!
//! Two damage models over a real fig5 recording (the array-backed list
//! of Listing 6): every strict prefix of the byte stream, and a
//! single-byte corruption at every offset under several flip patterns.
//! A third check holds the replay drivers to one answer: seeded
//! corruptions of every `examples/*.jay` recording must give the same
//! profile, or the same error text, whether the trace is profiled whole
//! or streamed in chunks of any size.

use algoprof::{
    profile, record_source_with, Guest, ProfileError, ProfileSet, RunConfig, StreamingAnalysis,
};
use algoprof_programs::{array_list_program, GrowthPolicy};
use algoprof_suite::testutil::TestRng;
use algoprof_trace::read_header;
use algoprof_vm::InstrumentOptions;

fn profile_trace(trace: &[u8]) -> Result<ProfileSet, ProfileError> {
    profile(Guest::Trace(trace), &RunConfig::default())
}

fn fig5_recording() -> Vec<u8> {
    let src = array_list_program(GrowthPolicy::ByOne, 17, 8, 1);
    record_source_with(&src, &InstrumentOptions::default(), &[]).expect("records")
}

#[test]
fn every_prefix_is_a_trace_error() {
    let trace = fig5_recording();
    for cut in 0..trace.len() {
        match profile_trace(&trace[..cut]) {
            Err(ProfileError::Trace(_)) => {}
            Err(other) => panic!("prefix of {cut} bytes gave non-trace error: {other}"),
            Ok(_) => panic!("prefix of {cut} bytes decoded successfully"),
        }
    }
    // The full recording still replays.
    profile_trace(&trace).expect("intact trace replays");
}

#[test]
fn single_byte_flips_never_panic() {
    let trace = fig5_recording();
    let (_, events) = read_header(&trace).expect("intact header");
    let header_len = trace.len() - events.len();
    let mut outcomes = [0usize; 3]; // [ok, trace error, other error]
    for pos in 0..trace.len() {
        for mask in [0x01u8, 0x80, 0xff] {
            let mut bad = trace.clone();
            bad[pos] ^= mask;
            // Must return, not panic: the test binary itself would die
            // on a panic, an OOM abort, or a hang.
            match profile_trace(&bad) {
                Ok(_) => outcomes[0] += 1,
                Err(ProfileError::Trace(_)) => outcomes[1] += 1,
                Err(_) => outcomes[2] += 1,
            }
        }
    }
    // Flips inside the event stream can only be accepted or rejected as
    // trace errors; compile/runtime errors require damaging the header's
    // embedded source.
    assert!(outcomes[1] > 0, "no flip was detected as corruption");
    let _ = header_len;
}

#[test]
fn event_stream_flips_error_or_replay_consistently() {
    // Focused variant: corrupt only event-stream bytes and require that
    // the result is either a clean replay (the flip happened to produce
    // another valid stream) or ProfileError::Trace — the source is
    // intact, so compile errors are impossible.
    let trace = fig5_recording();
    let (_, events) = read_header(&trace).expect("intact header");
    let start = trace.len() - events.len();
    for pos in start..trace.len() {
        let mut bad = trace.clone();
        bad[pos] ^= 0x2a;
        match profile_trace(&bad) {
            Ok(_) | Err(ProfileError::Trace(_)) => {}
            Err(other) => panic!("event-stream flip at {pos} gave {other}"),
        }
    }
}

#[test]
fn truncated_and_empty_inputs_error() {
    for bytes in [&b""[..], &b"A"[..], &b"APTR"[..], &b"APT"[..]] {
        assert!(matches!(profile_trace(bytes), Err(ProfileError::Trace(_))));
    }
}

/// Input handed to every example's `readInput()`, as the CLI's
/// `--input 12` would.
const EXAMPLE_INPUT: i64 = 12;

/// Corruptions made of each example recording.
const CASES_PER_EXAMPLE: usize = 64;

/// `examples/*.jay` recorded at [`EXAMPLE_INPUT`], sorted by file name.
fn example_recordings() -> Vec<(String, Vec<u8>)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples");
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("examples directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "jay"))
        .map(|p| {
            let source = std::fs::read_to_string(&p).expect("readable example");
            let trace =
                record_source_with(&source, &InstrumentOptions::default(), &[EXAMPLE_INPUT])
                    .unwrap_or_else(|e| panic!("{}: recording failed: {e}", p.display()));
            (p.display().to_string(), trace)
        })
        .collect();
    out.sort();
    out
}

/// `trace` fed to a [`StreamingAnalysis`] in `chunk`-byte pieces, stopping
/// at the first error as the daemon and `analyze -` do.
fn streamed(trace: &[u8], chunk: usize) -> Result<ProfileSet, String> {
    let mut analysis = StreamingAnalysis::new(Default::default());
    for piece in trace.chunks(chunk.max(1)) {
        analysis.feed(piece).map_err(|e| e.to_string())?;
    }
    analysis
        .finish()
        .map(|report| report.profiles)
        .map_err(|e| e.to_string())
}

#[test]
fn batch_and_streaming_replay_agree_on_every_corruption() {
    let mut rng = TestRng::new(0x0a9e_e21d);
    let recordings = example_recordings();
    assert!(recordings.len() >= 6, "every shipped example is covered");
    let (mut cases, mut errors) = (0, 0);
    for (name, trace) in &recordings {
        let (_, events) = read_header(trace).expect("intact header");
        let header_len = trace.len() - events.len();
        for _ in 0..CASES_PER_EXAMPLE {
            let mut bad = trace.clone();
            // Mostly the event stream, sometimes the header; a quarter of
            // the cases plant a premature End tag.
            let pos = if rng.below(8) == 0 {
                rng.range(0, trace.len())
            } else {
                rng.range(header_len, trace.len())
            };
            if rng.below(4) == 0 {
                bad[pos] = 0x00;
            } else {
                bad[pos] ^= rng.range(1, 256) as u8;
            }
            let batch = profile_trace(&bad).map_err(|e| e.to_string());
            for chunk in [bad.len(), 1, 7, 64] {
                let streaming = streamed(&bad, chunk);
                assert!(
                    batch == streaming,
                    "{name}, byte {pos}, {chunk}-byte chunks: batch gave {:?}, streaming {:?}",
                    batch.as_ref().err(),
                    streaming.as_ref().err(),
                );
            }
            cases += 1;
            errors += usize::from(batch.is_err());
        }
    }
    assert!(cases >= 360, "only {cases} corruptions");
    // Most single-byte corruptions are caught; a floor keeps the
    // comparison from passing on error-free cases alone.
    assert!(
        errors >= cases / 2,
        "only {errors} of {cases} corruptions errored"
    );
}

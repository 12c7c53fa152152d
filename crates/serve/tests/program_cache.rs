//! The daemon's program cache: jobs and trace uploads of a source the
//! daemon has compiled reuse the compiled program, every answer stays
//! byte-identical to `JobSpec::execute()`, and the cache stays within
//! its limits.

use std::process::Command;

use algoprof::programs::{MAX_PROGRAMS, MAX_SOURCE_BYTES};
use algoprof::{record_source_with, AlgoProfOptions, JobSpec, ProgramCacheStats};
use algoprof_serve::{client, Server, ServerAddr, ServerConfig};
use algoprof_vm::{AllocInstrumentation, InstrumentOptions};

const SORT: &str = include_str!("../../../examples/sized_insertion_sort.jay");

fn start(workers: usize) -> (Server, ServerAddr) {
    let config = ServerConfig {
        workers,
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).expect("starts");
    let addr = ServerAddr::Tcp(server.addr().expect("tcp").to_string());
    (server, addr)
}

fn profile_spec(program: &str, source: &str, n: i64) -> JobSpec {
    JobSpec::Profile {
        program: program.into(),
        source: source.into(),
        input: vec![n],
        options: AlgoProfOptions::default(),
    }
}

fn analyze_spec(trace: &[u8]) -> JobSpec {
    JobSpec::Analyze {
        trace: trace.to_vec(),
        options: AlgoProfOptions::default(),
    }
}

/// Submits `spec`, waits for it, and checks the answer against the
/// one `JobSpec::execute()` gives without a daemon.
fn submit_and_check(addr: &ServerAddr, spec: &JobSpec) {
    let submitted = client::submit(addr, spec).expect("submits");
    let done = client::wait(addr, &submitted.id).expect("finishes");
    match spec.execute() {
        Ok(expected) => assert_eq!(done.output, Some(expected), "{} job", spec.kind()),
        Err(e) => {
            assert_eq!(done.status, "failed");
            assert_eq!(done.error, Some(e.to_string()));
        }
    }
}

/// Uploads `trace` to the streaming endpoint and checks the report
/// against the analyze job's `JobSpec::execute()` text.
fn stream_and_check(addr: &ServerAddr, trace: &[u8]) {
    let report = client::stream_trace(addr, &mut &trace[..], "").expect("streams");
    let expected = analyze_spec(trace).execute().expect("analyzes");
    assert_eq!(report.text, expected.text);
}

fn programs(addr: &ServerAddr) -> ProgramCacheStats {
    client::all_cache_stats(addr).expect("stats").1
}

fn stats(entries: u64, hits: u64, misses: u64, evictions: u64) -> ProgramCacheStats {
    ProgramCacheStats {
        entries,
        hits,
        misses,
        evictions,
    }
}

fn record(source: &str, instrument: &InstrumentOptions, n: i64) -> Vec<u8> {
    record_source_with(source, instrument, &[n]).expect("records")
}

#[test]
fn cold_jobs_and_trace_uploads_of_one_source_compile_it_once_per_fusion() {
    let (server, addr) = start(2);
    for n in 8..14 {
        submit_and_check(&addr, &profile_spec(&format!("cold-{n}.jay"), SORT, n));
    }
    // Profile jobs run fused, traces resolve against the unfused
    // program: one miss each, every later request a hit.
    assert_eq!(programs(&addr), stats(1, 5, 1, 0));
    let default = InstrumentOptions::default();
    stream_and_check(&addr, &record(SORT, &default, 9));
    stream_and_check(&addr, &record(SORT, &default, 12));
    submit_and_check(&addr, &analyze_spec(&record(SORT, &default, 10)));
    assert_eq!(programs(&addr), stats(2, 7, 2, 0));

    // `submit cache-stats` prints the counters on a line of their own,
    // after the result cache's.
    let out = Command::new(env!("CARGO_BIN_EXE_algoprof"))
        .args(["submit", "--addr", &addr.to_string(), "cache-stats"])
        .output()
        .expect("runs the CLI");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf-8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    assert!(lines[0].starts_with("cache entries "), "{text}");
    assert_eq!(
        lines[1],
        "program cache entries 2 hits 7 misses 2 evictions 0"
    );
    server.shutdown();
}

#[test]
fn each_instrumentation_and_fusion_gets_its_own_entry() {
    let (server, addr) = start(1);
    let default = InstrumentOptions::default();
    let other = InstrumentOptions {
        allocs: AllocInstrumentation::None,
        arrays: false,
        ..default
    };
    assert_ne!(other, default);
    stream_and_check(&addr, &record(SORT, &other, 6));
    stream_and_check(&addr, &record(SORT, &default, 6));
    submit_and_check(&addr, &analyze_spec(&record(SORT, &other, 7)));
    submit_and_check(&addr, &profile_spec("sort.jay", SORT, 6));
    assert_eq!(programs(&addr), stats(3, 1, 3, 0));
    server.shutdown();
}

#[test]
fn the_cache_stays_within_its_limits() {
    let (server, addr) = start(1);
    let distinct = |k: usize| format!("// variant {k}\n{SORT}");
    for k in 0..MAX_PROGRAMS + 3 {
        submit_and_check(&addr, &profile_spec("sort.jay", &distinct(k), 5));
        assert!(programs(&addr).entries <= MAX_PROGRAMS as u64);
    }
    assert_eq!(programs(&addr), stats(16, 0, 19, 3));
    // The newest source is still kept; the oldest was evicted.
    submit_and_check(
        &addr,
        &profile_spec("again.jay", &distinct(MAX_PROGRAMS + 2), 6),
    );
    assert_eq!(programs(&addr), stats(16, 1, 19, 3));

    // A source over the byte budget is answered but never kept.
    let huge = format!("// {}\n{SORT}", "x".repeat(MAX_SOURCE_BYTES));
    submit_and_check(&addr, &profile_spec("huge.jay", &huge, 5));
    submit_and_check(&addr, &profile_spec("huge.jay", &huge, 6));
    assert_eq!(programs(&addr), stats(16, 1, 21, 3));
    server.shutdown();
}

#[test]
fn a_compile_error_is_the_same_on_every_submission() {
    let (server, addr) = start(1);
    let spec = profile_spec(
        "bad.jay",
        "class Main { static int main() { return x; } }",
        1,
    );
    let expected = spec.execute().expect_err("does not compile").to_string();
    for _ in 0..3 {
        let submitted = client::submit(&addr, &spec).expect("submits");
        let done = client::wait(&addr, &submitted.id).expect("finishes");
        assert_eq!(done.status, "failed");
        assert_eq!(done.error.as_deref(), Some(expected.as_str()));
    }
    assert_eq!(programs(&addr), stats(0, 0, 3, 0));
    server.shutdown();
}

#[test]
fn concurrent_submissions_of_one_source_both_answer_correctly() {
    let (server, addr) = start(2);
    let together = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for n in [20, 21] {
            let (addr, together) = (&addr, &together);
            s.spawn(move || {
                together.wait();
                submit_and_check(addr, &profile_spec("sort.jay", SORT, n));
            });
        }
    });
    let after = programs(&addr);
    // Both may miss at once and compile; the cache keeps one copy.
    assert_eq!(after.entries, 1);
    assert_eq!(after.hits + after.misses, 2);
    server.shutdown();
}

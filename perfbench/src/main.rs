//! The algoprof benchmark: drives the workspace's public functions
//! in-process on seeded inputs, one closed-loop client per workload,
//! checks every answer, and prints one JSON object of metrics as the
//! last line of standard output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, with every time read at
//! the host speed of the [`reference`] kernel timed beside it. `--trace 1` alternates
//! traced and untraced requests, then probes each layer on the
//! workload's own inputs, and reports the per-layer metrics; its spans
//! are written to `perfbench/out/`. See `perfbench/WORKLOADS.md`.

mod affinity;
mod check;
mod live;
mod probes;
mod reference;
mod serve;
mod spans;
mod stats;
mod sweep;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use algoprof::{JobSpec, SweepJob};

use spans::Spans;
use stats::{median, peak_rss_mb, tail_percentile};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// One workload: a seeded request list served by one closed-loop client.
pub trait Workload {
    type Reply;
    /// Serves request `i` of the seeded list (indices wrap around it).
    fn serve(&mut self, i: usize, spans: &mut Spans) -> Result<Self::Reply, String>;
    /// Checks the answer to request `i` against its reference.
    fn check(&self, i: usize, reply: &Self::Reply) -> Result<(), String>;
    /// One-shot profiling jobs representative of the requests, for the
    /// layer probes of the traced run.
    fn probe_jobs(&self) -> Vec<SweepJob>;
    /// Daemon jobs representative of the requests, for the serve probe.
    fn probe_specs(&self) -> Vec<JobSpec>;
}

const WORKLOADS: [&str; 4] = [
    "live_list_sort",
    "live_array_sort",
    "sweep_corpus",
    "serve_mixed",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {WORKLOADS:?} or all"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Named metrics in report order, each with its unit.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

struct Outcome {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    metrics: Metrics,
}

/// Requests after which `peak_rss_mb` is read. Memory a workload keeps
/// per request (the daemon keeps every job it ran) then grows with a
/// fixed amount of work, not with how many requests the host manages to
/// serve in the run.
const RSS_REQUESTS: usize = 256;

/// Serves request `i`, checks the answer and counts it; returns its wall
/// time in ms (checking is not timed).
fn serve_checked<W: Workload>(
    w: &mut W,
    i: usize,
    spans: &mut Spans,
    outcome: &mut Outcome,
) -> f64 {
    spans.set_request(i as u64);
    let t0 = Instant::now();
    spans.enter("request");
    let reply = w.serve(i, spans);
    spans.exit();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    outcome.attempted += 1;
    if let Err(e) = reply.and_then(|r| w.check(i, &r)) {
        outcome.failed += 1;
        outcome
            .first_error
            .get_or_insert(format!("request {i}: {e}"));
    }
    ms
}

/// Runs of the reference kernel timed before and after each set-up.
const SETUP_REFERENCES: usize = 5;

/// The median time of `runs` runs of the reference kernel, in ms.
fn reference_ms(runs: usize) -> f64 {
    median(&(0..runs).map(|_| reference::time_ms()).collect::<Vec<_>>())
}

/// Sets the workload up, then serves requests in a closed loop for
/// `seconds`. The other `SETUP_REPS - 1` set-ups are spread evenly over
/// the run, with the loop's clock stopped, so that their median does
/// not hang on one moment of the host's load; they start only once
/// `peak_rss_mb` has been read after the first [`RSS_REQUESTS`].
///
/// The reference kernel runs between consecutive requests, untimed by
/// them. Each request's time is read at the reference speed through the
/// mean of the kernel's times just before and just after it, and each
/// set-up's through the kernel's median time before and after it.
fn run<W: Workload>(
    name: &str,
    setup: impl Fn(u64) -> Result<W, String>,
    args: &Args,
) -> Result<Outcome, String> {
    let timed_setup = |setup_s: &mut Vec<f64>| {
        let before = reference_ms(SETUP_REFERENCES);
        let start = Instant::now();
        let w = setup(args.seed)?;
        let wall = start.elapsed().as_secs_f64();
        let after = reference_ms(SETUP_REFERENCES);
        setup_s.push(reference::normalize(wall, (before + after) / 2.0));
        Ok::<W, String>(w)
    };
    let mut setup_s = Vec::new();
    let mut w = timed_setup(&mut setup_s)?;

    let mut spans = Spans::new(false);
    // Request times at the reference speed; untraced requests' wall
    // times and the kernel's times, for the traced run's host figures.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut plain_wall, mut references) = (Vec::new(), Vec::new());
    let mut out = Outcome {
        attempted: 0,
        failed: 0,
        first_error: None,
        metrics: Metrics::default(),
    };
    let mut rss = None;
    let budget = Duration::from_secs(args.seconds);
    let (mut measured, mut window) = (Duration::ZERO, Instant::now());
    let mut i = 0usize;
    let mut before = reference::time_ms();
    while measured + window.elapsed() < budget {
        if rss.is_some()
            && (measured + window.elapsed()) * SETUP_REPS as u32 >= budget * setup_s.len() as u32
        {
            measured += window.elapsed();
            drop(timed_setup(&mut setup_s)?);
            window = Instant::now();
            before = reference::time_ms();
        }
        let trace_this = args.trace && i % 2 == 1;
        spans.set_on(trace_this);
        let ms = serve_checked(&mut w, i, &mut spans, &mut out);
        let after = reference::time_ms();
        let at_reference = reference::normalize(ms, (before + after) / 2.0);
        references.push(after);
        before = after;
        if trace_this {
            traced.push(at_reference);
        } else {
            plain.push(at_reference);
            plain_wall.push(ms);
        }
        i += 1;
        if i == RSS_REQUESTS {
            rss = Some(peak_rss_mb());
        }
    }
    // A run too short to reach the RSS sample serves the rest untimed.
    spans.set_on(false);
    while i < RSS_REQUESTS {
        serve_checked(&mut w, i, &mut spans, &mut out);
        i += 1;
    }
    let rss = rss.unwrap_or_else(peak_rss_mb);
    while setup_s.len() < SETUP_REPS {
        drop(timed_setup(&mut setup_s)?);
    }

    let metrics = &mut out.metrics;
    if args.trace {
        let coverage = spans.coverage("request");
        let layers = spans.self_by_name();
        spans.set_on(true);
        probes::run(&w, &mut spans, metrics)?;
        metrics.put("tracing.coverage", coverage, "ratio");
        metrics.put("host.reference_ms", median(&references), "ms");
        metrics.put("host.wall_p50_ms", median(&plain_wall), "ms");
        metrics.put(
            "tracing.overhead_ratio",
            median(&traced) / median(&plain),
            "ratio",
        );
        let mut table = format!(
            "{name}: loop self time per traced request ({} requests)\n",
            traced.len()
        );
        for (layer, (ns, count)) in layers {
            let _ = writeln!(
                table,
                "  {layer:<16} {:>10.3} ms  ({count} spans)",
                ns as f64 / 1e6 / traced.len().max(1) as f64
            );
        }
        eprint!("{table}");
        write_spans(name, args.seed, &spans);
    } else {
        let p90 = tail_percentile(&plain, 0.9)
            .ok_or_else(|| format!("{name}: {} samples are too few for a p90", plain.len()))?;
        metrics.put("latency_p50_ms", median(&plain), "ms");
        metrics.put("latency_p90_ms", p90, "ms");
        let busy_s = plain.iter().sum::<f64>() / 1e3;
        metrics.put("throughput_per_s", plain.len() as f64 / busy_s, "1/s");
        metrics.put("peak_rss_mb", rss, "MiB");
        metrics.put("setup_s", median(&setup_s), "s");
        eprintln!(
            "{name}: {} requests ({} samples), {} failed, error_rate {}",
            out.attempted,
            plain.len(),
            out.failed,
            out.failed as f64 / out.attempted.max(1) as f64
        );
        eprintln!(
            "{name}: wall-time p50 {:.3} ms; reference kernel p50 {:.4} ms (nominal {} ms)",
            median(&plain_wall),
            median(&references),
            reference::NOMINAL_MS
        );
    }
    Ok(out)
}

fn write_spans(name: &str, seed: u64, spans: &Spans) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans-{name}-seed{seed}.jsonl"));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans.to_jsonl())) {
        Ok(()) => eprintln!(
            "{name}: {} spans written to {}",
            spans.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("{name}: cannot write {}: {e}", path.display()),
    }
}

fn run_workload(name: &str, args: &Args) -> Result<Outcome, String> {
    match name {
        "live_list_sort" => run(name, live::Live::list, args),
        "live_array_sort" => run(name, live::Live::array, args),
        "sweep_corpus" => {
            affinity::pin();
            run(name, sweep::Corpus::setup, args)
        }
        "serve_mixed" => {
            affinity::pin();
            run(name, serve::Mixed::setup, args)
        }
        _ => unreachable!("workload names are validated"),
    }
}

/// One workload's result: attempted, failed, and named metrics with units.
type WorkloadResult = (u64, u64, Vec<(String, f64, String)>);

/// The JSON object the benchmark prints as its last line.
fn result_line(attempted: u64, failed: u64, metrics: &[(String, f64, String)]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(key, value, unit)| {
            format!("\"{key}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

/// Reads back a line [`result_line`] wrote.
fn parse_result_line(line: &str) -> Option<WorkloadResult> {
    let count = |key: &str| -> Option<u64> {
        let rest = line.split_once(&format!("\"{key}\": "))?.1;
        rest.split(',').next()?.parse().ok()
    };
    let body = line.split_once("\"metrics\": {")?.1.strip_suffix("}}")?;
    let mut metrics = Vec::new();
    for entry in body.split("}, ").filter(|e| !e.is_empty()) {
        let (key, rest) = entry.split_once(": {\"value\": ")?;
        let (value, unit) = rest.split_once(", \"unit\": ")?;
        let unit = unit.trim_end_matches('}').trim_matches('"');
        metrics.push((
            key.trim_matches('"').to_string(),
            value.parse().ok()?,
            unit.to_string(),
        ));
    }
    Some((count("attempted")?, count("failed")?, metrics))
}

/// Runs one workload in this process.
fn run_here(name: &str, args: &Args) -> Result<WorkloadResult, String> {
    let outcome = run_workload(name, args)?;
    if let Some(e) = &outcome.first_error {
        eprintln!("perfbench: {name}: {e}");
    }
    let mut metrics = Vec::new();
    for (metric, value, unit) in outcome.metrics.0 {
        eprintln!("  {name}/{metric} = {value} {unit}");
        if !value.is_finite() {
            return Err(format!("{name}/{metric} is not a number"));
        }
        metrics.push((metric, value, unit.to_string()));
    }
    Ok((outcome.attempted, outcome.failed, metrics))
}

/// Runs one workload in a child process of its own, so that its
/// `peak_rss_mb` is its own and not the peak of the workloads before it.
fn run_child(name: &str, args: &Args) -> Result<WorkloadResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {name}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{name} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .last()
        .and_then(parse_result_line)
        .ok_or_else(|| format!("{name} printed no result line"))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let all = args.workload == "all";
    let names: Vec<&str> = if all {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    for name in &names {
        let result = if all {
            run_child(name, &args)
        } else {
            run_here(name, &args)
        };
        let (a, f, ms) = match result {
            Ok(result) => result,
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        };
        attempted += a;
        failed += f;
        for (metric, value, unit) in ms {
            let key = if all {
                format!("{name}/{metric}")
            } else {
                metric
            };
            metrics.push((key, value, unit));
        }
    }
    println!("{}", result_line(attempted, failed, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_reads_back() {
        let metrics = vec![
            (
                "live_list_sort/latency_p50_ms".to_string(),
                21.5034,
                "ms".to_string(),
            ),
            ("setup_s".to_string(), 0.0000125, "s".to_string()),
        ];
        let line = result_line(1000, 2, &metrics);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1000, \"failed\": 2,"));
        assert_eq!(parse_result_line(&line), Some((1000, 2, metrics)));
        assert_eq!(parse_result_line("perfbench: no result"), None);
    }
}

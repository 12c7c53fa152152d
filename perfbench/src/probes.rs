//! Layer probes for the traced run: each calls one layer's public
//! function on the workload's own inputs inside a span, so every
//! per-layer metric is measured where the work happens and on the
//! inputs of the workload it is reported for.

use std::time::{Duration, Instant};

use algoprof::{render_set, AlgoProf, AlgoProfOptions, SweepJob};
use algoprof_analysis::analyze_source;
use algoprof_serve::client;
use algoprof_trace::{read_header, TraceHeader, TraceRecorder, TraceReplayer};
use algoprof_vm::{compile, InstrumentOptions, Interp, NoopSink};

use crate::serve::{poll, start_daemon};
use crate::spans::Spans;
use crate::stats::median;
use crate::{affinity, sweep, Metrics, Workload};

/// Request ids of probe spans start here, apart from the loop's.
const PROBE_REQUEST: u64 = 1 << 32;
/// Timed repetitions of each sweep in the speed-up probe.
const SWEEP_REPS: usize = 3;
/// Health round trips in the serve probe.
const PINGS: usize = 20;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times `f` inside a span and returns its result with the duration.
fn timed<T>(spans: &mut Spans, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = spans.time(name, f);
    (out, start.elapsed())
}

/// Sums over the probe jobs of the one-shot profiling pipeline.
#[derive(Default)]
struct Pipeline {
    compile: Duration,
    noop: Duration,
    profiled: Duration,
    finish: Duration,
    render: Duration,
    record: Duration,
    replay: Duration,
    analysis: Duration,
    instructions: u64,
    dispatches: u64,
    events: u64,
    trace_bytes: u64,
    invocations: u64,
    stats: algoprof::SnapshotStats,
}

fn pipeline(jobs: &[SweepJob], spans: &mut Spans) -> Result<Pipeline, String> {
    let mut p = Pipeline::default();
    let options = InstrumentOptions::default();
    for (k, job) in jobs.iter().enumerate() {
        spans.set_request(PROBE_REQUEST + k as u64);
        let input = job.input.clone();
        let (program, t) = timed(spans, "vm.compile", || {
            compile(&job.source).map(|p| p.instrument(&options).fuse_default())
        });
        let program = program.map_err(|e| e.to_string())?;
        p.compile += t;
        let (run, t) = timed(spans, "vm.noop_run", || {
            Interp::new(&program)
                .with_input(input.clone())
                .run(&mut NoopSink)
        });
        let run = run.map_err(|e| e.to_string())?;
        p.noop += t;
        p.instructions += run.instructions;
        p.dispatches += run.dispatches;

        let mut profiler = AlgoProf::with_options(AlgoProfOptions::default());
        let (run, t) = timed(spans, "profiler.run", || {
            Interp::new(&program)
                .with_input(input.clone())
                .run(&mut profiler)
        });
        run.map_err(|e| e.to_string())?;
        p.profiled += t;
        let s = profiler.snapshot_stats();
        p.stats.full_walks += s.full_walks;
        p.stats.cache_hits += s.cache_hits;
        p.stats.partial_redos += s.partial_redos;
        p.stats.objects_traversed += s.objects_traversed;
        p.stats.elements_scanned += s.elements_scanned;
        let (set, t) = timed(spans, "finish", || profiler.finish_set(&program));
        p.finish += t;
        p.invocations += set
            .threads()
            .iter()
            .flat_map(|profile| profile.algorithms())
            .map(|a| a.invocation_count() as u64)
            .sum::<u64>();
        let (_, t) = timed(spans, "render.text", || render_set(&set));
        p.render += t;

        let mut bytes = Vec::new();
        let header = TraceHeader::new(&job.source, &options, &input);
        let (stats, t) = timed(spans, "trace.encode", || {
            let mut recorder = TraceRecorder::new(&header, &mut bytes);
            let run = Interp::new(&program)
                .with_input(input.clone())
                .run(&mut recorder);
            run.map(|_| recorder.finish().expect("writes to a Vec cannot fail"))
        });
        let stats = stats.map_err(|e| e.to_string())?;
        p.record += t;
        p.events += stats.events;
        p.trace_bytes += stats.event_bytes;
        let (header, events) = read_header(&bytes).map_err(|e| e.to_string())?;
        let replayed = compile(&header.source)
            .map_err(|e| e.to_string())?
            .instrument(&header.instrument);
        let (replay, t) = timed(spans, "trace.decode", || {
            TraceReplayer::new().replay(&replayed, events, &mut NoopSink)
        });
        replay.map_err(|e| e.to_string())?;
        p.replay += t;
        let (analysis, t) = timed(spans, "analysis", || analyze_source(&job.source));
        analysis.map_err(|e| e.to_string())?;
        p.analysis += t;
    }
    Ok(p)
}

/// Runs every probe and puts the per-layer metrics.
pub fn run<W: Workload>(w: &W, spans: &mut Spans, m: &mut Metrics) -> Result<(), String> {
    let jobs = w.probe_jobs();
    let p = pipeline(&jobs, spans)?;
    let per_job = |x: u64| x as f64 / jobs.len() as f64;
    let instr = p.instructions as f64;
    let profiler_ns = p.profiled.saturating_sub(p.noop).as_nanos() as f64;
    let one_shot = p.compile + p.profiled + p.finish + p.render;
    m.put("vm.compile_ms", ms(p.compile) / jobs.len() as f64, "ms");
    m.put(
        "vm.dispatch_ns_per_instr",
        p.noop.as_nanos() as f64 / instr,
        "ns",
    );
    m.put("vm.instructions", per_job(p.instructions), "count");
    m.put("vm.dispatch_ratio", p.dispatches as f64 / instr, "ratio");
    m.put("profiler.ns_per_instr", profiler_ns / instr, "ns");
    m.put(
        "profiler.share",
        profiler_ns / one_shot.as_nanos() as f64,
        "ratio",
    );
    let s = p.stats;
    let measured = s.full_walks + s.cache_hits + s.partial_redos;
    m.put("snapshot.full_walks", per_job(s.full_walks), "count");
    m.put("snapshot.cache_hits", per_job(s.cache_hits), "count");
    m.put("snapshot.partial_redos", per_job(s.partial_redos), "count");
    m.put(
        "snapshot.objects_traversed",
        per_job(s.objects_traversed),
        "count",
    );
    m.put(
        "snapshot.elements_scanned",
        per_job(s.elements_scanned),
        "count",
    );
    m.put(
        "snapshot.reuse_ratio",
        (s.cache_hits + s.partial_redos) as f64 / measured.max(1) as f64,
        "ratio",
    );
    m.put("finish.ms", ms(p.finish) / jobs.len() as f64, "ms");
    m.put("profile.invocations", per_job(p.invocations), "count");
    m.put("render.text_ms", ms(p.render) / jobs.len() as f64, "ms");
    let events = p.events as f64;
    m.put(
        "trace.encode_ns_per_event",
        p.record.saturating_sub(p.noop).as_nanos() as f64 / events,
        "ns",
    );
    m.put("trace.bytes_per_event", p.trace_bytes as f64 / events, "B");
    m.put(
        "trace.decode_ns_per_event",
        p.replay.as_nanos() as f64 / events,
        "ns",
    );
    m.put("analysis.ms", ms(p.analysis) / jobs.len() as f64, "ms");

    // The probe jobs as one sweep, serial against all cores, on every
    // CPU of the host.
    spans.set_request(PROBE_REQUEST + jobs.len() as u64);
    let (mut serial, mut parallel) = (Vec::new(), Vec::new());
    let mut report = None;
    for _ in 0..SWEEP_REPS {
        let (r, t) =
            affinity::while_unpinned(|| timed(spans, "sweep.workers_1", || sweep::sweep(&jobs, 1)));
        r?;
        serial.push(ms(t));
        let (r, t) = affinity::while_unpinned(|| {
            timed(spans, "sweep.workers_n", || {
                sweep::sweep(&jobs, affinity::nproc())
            })
        });
        report = Some(r?);
        parallel.push(ms(t));
    }
    let report = report.expect("at least one sweep");
    let (_, t) = timed(spans, "render.sweep_text", || report.render_text());
    m.put("render.sweep_text_ms", ms(t), "ms");
    let (_, t) = timed(spans, "render.json", || report.render_json());
    m.put("render.json_ms", ms(t), "ms");
    m.put("sweep.speedup", median(&serial) / median(&parallel), "x");

    serve_probe(w, spans, m)
}

/// The workload's jobs through a fresh daemon: each submitted cold,
/// polled to completion, then resubmitted as a cache hit.
fn serve_probe<W: Workload>(w: &W, spans: &mut Spans, m: &mut Metrics) -> Result<(), String> {
    spans.set_request(PROBE_REQUEST + (1 << 16));
    let (server, addr) = start_daemon()?;
    let mut rtt = Vec::new();
    for _ in 0..PINGS {
        let (r, t) = timed(spans, "serve.health", || client::health(&addr));
        r.map_err(|e| e.to_string())?;
        rtt.push(ms(t));
    }
    let specs = w.probe_specs();
    let (mut submit, mut queue, mut exec) = (Vec::new(), Vec::new(), Vec::new());
    // Submit to done, for cold jobs and then for their resubmissions.
    let mut fetch = [Vec::new(), Vec::new()];
    let (mut polls, mut rejected) = (0u64, 0u64);
    for (round, fetched) in fetch.iter_mut().enumerate() {
        for spec in &specs {
            let (submitted, t) = timed(spans, "serve.submit", || client::submit(&addr, spec));
            let submitted = match submitted {
                Ok(s) => s,
                Err(e) if e.0.contains(" 503") => {
                    rejected += 1;
                    continue;
                }
                Err(e) => return Err(e.to_string()),
            };
            submit.push(ms(t));
            let start = Instant::now();
            let polled = poll(&addr, &submitted.id, spans, "serve.status")?;
            fetched.push(ms(start.elapsed()));
            if round == 0 {
                polls += polled.polls;
                queue.push(ms(polled.queued));
                // What a worker runs for this job, in-process.
                let (out, t) = timed(spans, "serve.exec", || spec.execute());
                out.map_err(|e| e.to_string())?;
                exec.push(ms(t));
            }
        }
    }
    let cache = client::cache_stats(&addr).map_err(|e| e.to_string())?;
    server.shutdown();
    m.put("serve.rtt_ms", median(&rtt), "ms");
    m.put("serve.submit_ms", median(&submit), "ms");
    m.put("serve.queue_ms", median(&queue), "ms");
    m.put("serve.exec_ms", median(&exec), "ms");
    m.put("serve.fetch_ms", median(&fetch[0]), "ms");
    m.put("serve.hit_fetch_ms", median(&fetch[1]), "ms");
    m.put(
        "serve.polls_per_job",
        polls as f64 / specs.len() as f64,
        "count",
    );
    m.put(
        "serve.cache_hit_ratio",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        "ratio",
    );
    m.put("serve.rejected", rejected as f64, "count");
    Ok(())
}

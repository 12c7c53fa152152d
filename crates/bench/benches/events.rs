//! Event-pipeline benchmark: per-event dispatch overhead of the unified
//! `EventSink` path and the payoff of single-pass multi-ablation
//! profiling. Records the comparison in `BENCH_events.json` at the
//! workspace root.
//!
//! Two questions, one workload (the fig5 ArrayList-growth program):
//! 1. per-event overhead — the same instrumented execution driving a
//!    `NoopSink`, one live `AlgoProf`, and a `Fanout` of 4 `AlgoProf`s
//!    (one per equivalence criterion). The profiled runs are timed on
//!    the fused program, which is what every user path runs; the
//!    unfused figures are kept beside them;
//! 2. single-pass payoff — `Tee(recorder, Fanout×4)` in one execution
//!    vs the old pipeline of one recording plus 4 replays.
//!
//! Not a `criterion_group!` bench: each measured unit is a whole guest
//! execution, so this harness times runs with `std::time::Instant` and
//! reports min-of-N like the offline harness does.

use std::time::{Duration, Instant};

use algoprof::{profile_trace_with, AlgoProf, AlgoProfOptions, EquivalenceCriterion};
use algoprof_programs::{array_list_program, GrowthPolicy};
use algoprof_trace::{TraceHeader, TraceRecorder};
use algoprof_vm::{compile, CompiledProgram, Fanout, InstrumentOptions, Interp, NoopSink, Tee};

const CRITERIA: [EquivalenceCriterion; 4] = [
    EquivalenceCriterion::SomeElements,
    EquivalenceCriterion::AllElements,
    EquivalenceCriterion::SameArray,
    EquivalenceCriterion::SameType,
];

fn quick_mode() -> bool {
    std::env::var_os("ALGOPROF_BENCH_QUICK").is_some()
}

fn ablation_profilers() -> Vec<AlgoProf> {
    CRITERIA
        .iter()
        .map(|&criterion| {
            AlgoProf::with_options(AlgoProfOptions {
                criterion,
                ..AlgoProfOptions::default()
            })
        })
        .collect()
}

/// Min-of-N wall-clock time of `f`, with the result of the best rep.
fn min_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut best: Option<(Duration, T)> = None;
    for _ in 0..reps {
        let start = Instant::now();
        let out = f();
        let t = start.elapsed();
        if best.as_ref().is_none_or(|(bt, _)| t < *bt) {
            best = Some((t, out));
        }
    }
    best.expect("at least one rep")
}

/// Instructions executed by one run — the per-event denominator.
fn run_events(program: &CompiledProgram) -> u64 {
    Interp::new(program)
        .run(&mut NoopSink)
        .expect("runs")
        .instructions
}

fn main() {
    let (n, reps) = if quick_mode() { (200, 2) } else { (1000, 5) };
    // The noop runs are the headline ns/instr numbers and cheap (~2 ms
    // each), so take many more samples: min-of-k only converges on the
    // true cost once some iteration lands in a quiet scheduling window.
    let noop_reps = if quick_mode() { 2 } else { 40 };
    let src = array_list_program(GrowthPolicy::Doubling, n, 100, 1);
    let instrument = InstrumentOptions::default();
    let program = compile(&src).expect("compiles").instrument(&instrument);
    let fused = program.fuse();
    let header = TraceHeader::new(&src, &instrument, &[]);
    let instructions = run_events(&program);
    assert_eq!(
        instructions,
        run_events(&fused),
        "fusion must not change the logical instruction count"
    );
    println!("group events");
    println!("  workload: fig5 arraylist n={n}, {instructions} instructions, {reps} reps");

    // 1. Per-event dispatch overhead of increasingly loaded sinks —
    //    plus the payoff of profile-guided superinstruction dispatch
    //    (same logical event stream, fewer dispatch-loop iterations).
    let (t_noop, _) = min_of(noop_reps, || run_events(&program));
    let (t_noop_fused, _) = min_of(noop_reps, || run_events(&fused));
    let live = |program: &CompiledProgram| {
        let mut prof = AlgoProf::new();
        Interp::new(program).run(&mut prof).expect("runs");
        prof.finish(program).algorithms().len()
    };
    let fanout = |program: &CompiledProgram| {
        let mut fan = Fanout::new(ablation_profilers());
        Interp::new(program).run(&mut fan).expect("runs");
        fan.into_sinks()
            .into_iter()
            .map(|p| p.finish(program).algorithms().len())
            .sum::<usize>()
    };
    let (t_one, algos_one) = min_of(reps, || live(&fused));
    let (t_fan4, algos_fan) = min_of(reps, || fanout(&fused));
    let (t_one_unfused, _) = min_of(reps, || live(&program));
    let (t_fan4_unfused, _) = min_of(reps, || fanout(&program));
    assert!(algos_one > 0 && algos_fan >= 4 * algos_one);
    let per_event = |t: Duration| t.as_secs_f64() * 1e9 / instructions as f64;
    println!(
        "  events/noop_sink        min {t_noop:>12.3?}   ({:.1} ns/instr)",
        per_event(t_noop)
    );
    println!(
        "  events/noop_sink_fused  min {t_noop_fused:>12.3?}   ({:.1} ns/instr)",
        per_event(t_noop_fused)
    );
    println!(
        "  events/fused_dispatch_speedup            {:>12.2}x",
        t_noop.as_secs_f64() / t_noop_fused.as_secs_f64().max(1e-9)
    );
    println!(
        "  events/algoprof_live    min {t_one:>12.3?}   ({:.1} ns/instr; unfused {:.1})",
        per_event(t_one),
        per_event(t_one_unfused)
    );
    println!(
        "  events/fanout_4x        min {t_fan4:>12.3?}   ({:.1} ns/instr; unfused {:.1})",
        per_event(t_fan4),
        per_event(t_fan4_unfused)
    );

    // 2. Single pass (Tee + Fanout×4) vs record once + replay 4 times.
    let (t_single, single_algos) = min_of(reps, || {
        let mut bytes = Vec::new();
        let mut sink = Tee::new(
            TraceRecorder::new(&header, &mut bytes),
            Fanout::new(ablation_profilers()),
        );
        Interp::new(&program).run(&mut sink).expect("runs");
        let Tee {
            a: recorder,
            b: fanout,
        } = sink;
        recorder.finish().expect("finishes");
        fanout
            .into_sinks()
            .into_iter()
            .map(|p| p.finish(&program).algorithms().len())
            .sum::<usize>()
    });
    let (t_replay, replay_algos) = min_of(reps, || {
        let mut bytes = Vec::new();
        let mut recorder = TraceRecorder::new(&header, &mut bytes);
        Interp::new(&program).run(&mut recorder).expect("runs");
        recorder.finish().expect("finishes");
        CRITERIA
            .iter()
            .map(|&criterion| {
                let options = AlgoProfOptions {
                    criterion,
                    ..AlgoProfOptions::default()
                };
                profile_trace_with(&bytes, options)
                    .expect("replays")
                    .algorithms()
                    .len()
            })
            .sum::<usize>()
    });
    assert_eq!(single_algos, replay_algos, "both pipelines must agree");
    let speedup = t_replay.as_secs_f64() / t_single.as_secs_f64().max(1e-9);
    println!("  events/single_pass_4x   min {t_single:>12.3?}");
    println!("  events/record_4replays  min {t_replay:>12.3?}");
    println!("  events/single_pass_speedup               {speedup:>12.2}x");

    let json = format!(
        "{{\n  \"bench\": \"events\",\n  \"workload\": \"fig5 arraylist doubling n={n}\",\n  \
         \"quick\": {},\n  \"instructions\": {instructions},\n  \
         \"ns_per_instr\": {{\n    \"noop_sink\": {:.3},\n    \"noop_sink_fused\": {:.3},\n    \
         \"algoprof_live\": {:.3},\n    \"algoprof_live_unfused\": {:.3},\n    \
         \"fanout_4x\": {:.3},\n    \"fanout_4x_unfused\": {:.3}\n  }},\n  \
         \"wall_ms\": {{\n    \"noop_sink\": {:.3},\n    \"noop_sink_fused\": {:.3},\n    \
         \"algoprof_live\": {:.3},\n    \"algoprof_live_unfused\": {:.3},\n    \
         \"fanout_4x\": {:.3},\n    \"fanout_4x_unfused\": {:.3},\n    \
         \"single_pass_4x\": {:.3},\n    \
         \"record_4replays\": {:.3}\n  }},\n  \
         \"fused_dispatch_speedup\": {:.3},\n  \
         \"single_pass_speedup\": {speedup:.3}\n}}\n",
        quick_mode(),
        per_event(t_noop),
        per_event(t_noop_fused),
        per_event(t_one),
        per_event(t_one_unfused),
        per_event(t_fan4),
        per_event(t_fan4_unfused),
        t_noop.as_secs_f64() * 1e3,
        t_noop_fused.as_secs_f64() * 1e3,
        t_one.as_secs_f64() * 1e3,
        t_one_unfused.as_secs_f64() * 1e3,
        t_fan4.as_secs_f64() * 1e3,
        t_fan4_unfused.as_secs_f64() * 1e3,
        t_single.as_secs_f64() * 1e3,
        t_replay.as_secs_f64() * 1e3,
        t_noop.as_secs_f64() / t_noop_fused.as_secs_f64().max(1e-9),
    );
    // cargo runs benches with the package as cwd; anchor the artifact at
    // the workspace root regardless.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_events.json");
    std::fs::write(out, json).expect("writes BENCH_events.json");
    println!("  wrote {out}");
}

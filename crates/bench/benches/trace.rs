//! Criterion benchmark: cost of trace recording and the payoff of
//! replay-based re-analysis (`algoprof-trace`).
//!
//! Three questions, one workload (the fig5 ArrayList-growth program):
//! 1. recording overhead — instrumented run + `TraceRecorder` vs the
//!    same run with `NoopProfiler`;
//! 2. record-while-profiling overhead — `TraceRecorder` teeing into a
//!    live `AlgoProf` vs the live `AlgoProf` alone;
//! 3. re-analysis speedup — the 4-criteria ablation served from one
//!    recording vs 4 full live re-executions.

use algoprof_bench::harness::Criterion;
use algoprof_bench::{criterion_group, criterion_main};

use algoprof::{
    profile, record_source_with, AlgoProf, AlgoProfOptions, EquivalenceCriterion, Guest, RunConfig,
};
use algoprof_programs::{array_list_program, GrowthPolicy};
use algoprof_trace::{TraceHeader, TraceRecorder};
use algoprof_vm::{compile, InstrumentOptions, Interp, NoopProfiler, Tee};

const CRITERIA: [EquivalenceCriterion; 4] = [
    EquivalenceCriterion::SomeElements,
    EquivalenceCriterion::AllElements,
    EquivalenceCriterion::SameArray,
    EquivalenceCriterion::SameType,
];

fn bench_trace(c: &mut Criterion) {
    let src = array_list_program(GrowthPolicy::Doubling, 1000, 100, 1);
    let instrument = InstrumentOptions::default();
    let program = compile(&src).expect("compiles").instrument(&instrument);
    let header = TraceHeader::new(&src, &instrument, &[]);

    let mut group = c.benchmark_group("trace");

    // 1. Recording overhead over a no-op instrumented run.
    group.bench_function("instrumented_noop", |b| {
        b.iter(|| {
            Interp::new(&program)
                .run(&mut NoopProfiler)
                .expect("runs")
                .instructions
        })
    });
    group.bench_function("record_only", |b| {
        b.iter(|| {
            let mut rec = TraceRecorder::new(&header, Vec::new());
            Interp::new(&program).run(&mut rec).expect("runs");
            rec.finish().expect("finishes").total_bytes
        })
    });

    // 2. Recording while profiling (tee) over plain live profiling.
    group.bench_function("live_algoprof", |b| {
        b.iter(|| {
            let mut prof = AlgoProf::new();
            Interp::new(&program).run(&mut prof).expect("runs");
            prof.finish(&program).algorithms().len()
        })
    });
    group.bench_function("record_tee_algoprof", |b| {
        b.iter(|| {
            let mut sink = Tee::new(TraceRecorder::new(&header, Vec::new()), AlgoProf::new());
            Interp::new(&program).run(&mut sink).expect("runs");
            let Tee { a: rec, b: prof } = sink;
            let stats = rec.finish().expect("finishes");
            (stats.total_bytes, prof.finish(&program).algorithms().len())
        })
    });

    // 3. The ablation study: one recording analyzed 4 ways vs 4 live runs.
    let trace = record_source_with(&src, &instrument, &[]).expect("records");
    group.bench_function("ablation_4x_replay", |b| {
        b.iter(|| {
            let mut algos = 0usize;
            for criterion in CRITERIA {
                let config = RunConfig {
                    options: AlgoProfOptions {
                        criterion,
                        ..AlgoProfOptions::default()
                    },
                    ..RunConfig::default()
                };
                algos += profile(Guest::Trace(&trace), &config)
                    .expect("replays")
                    .main()
                    .algorithms()
                    .len();
            }
            algos
        })
    });
    group.bench_function("ablation_4x_live", |b| {
        b.iter(|| {
            let mut algos = 0usize;
            for criterion in CRITERIA {
                let config = RunConfig {
                    options: AlgoProfOptions {
                        criterion,
                        ..AlgoProfOptions::default()
                    },
                    ..RunConfig::default()
                };
                algos += profile(Guest::Source(&src), &config)
                    .expect("profiles")
                    .main()
                    .algorithms()
                    .len();
            }
            algos
        })
    });

    group.finish();
}

criterion_group!(benches, bench_trace);
criterion_main!(benches);

//! Criterion benchmark: interpretation overhead of each profiling level
//! (paper §5's overhead discussion, measured rigorously), and the
//! profiler's own share of a profiled run (`profiler_layer`).

use std::hint::black_box;
use std::time::{Duration, Instant};

use algoprof_bench::harness::Criterion;
use algoprof_bench::{criterion_group, criterion_main};

use algoprof::AlgoProf;
use algoprof_cct::CctProfiler;
use algoprof_programs::{insertion_sort_program, sized_insertion_sort_program, SortWorkload};
use algoprof_vm::instrument::{InstrumentOptions, MethodInstrumentation};
use algoprof_vm::{compile, CompiledProgram, Interp, NoopProfiler};

fn programs() -> (CompiledProgram, CompiledProgram, CompiledProgram) {
    let src = insertion_sort_program(SortWorkload::Random, 41, 10, 1);
    let plain = compile(&src).expect("compiles");
    let instrumented = plain.instrument(&InstrumentOptions::default());
    let cct = plain.instrument(&InstrumentOptions {
        methods: MethodInstrumentation::All,
        ..InstrumentOptions::default()
    });
    (plain, instrumented, cct)
}

fn bench_overhead(c: &mut Criterion) {
    let (plain, instrumented, cct_program) = programs();
    let mut group = c.benchmark_group("overhead");

    group.bench_function("uninstrumented", |b| {
        b.iter(|| {
            Interp::new(&plain)
                .run(&mut NoopProfiler)
                .expect("runs")
                .instructions
        })
    });

    group.bench_function("instrumented_noop", |b| {
        b.iter(|| {
            Interp::new(&instrumented)
                .run(&mut NoopProfiler)
                .expect("runs")
                .instructions
        })
    });

    group.bench_function("cct_profiler", |b| {
        b.iter(|| {
            let mut profiler = CctProfiler::new();
            Interp::new(&cct_program).run(&mut profiler).expect("runs");
            profiler.finish(&cct_program).nodes().len()
        })
    });

    group.bench_function("algoprof", |b| {
        b.iter(|| {
            let mut profiler = AlgoProf::new();
            Interp::new(&instrumented).run(&mut profiler).expect("runs");
            profiler.finish(&instrumented).algorithms().len()
        })
    });

    group.finish();
}

/// Runs of each side per size; `ALGOPROF_BENCH_QUICK` makes it one.
const LAYER_ROUNDS: usize = 400;

/// The profiler's cost in process: the fused random sized list sort
/// (the `live_list_sort` program, default options) run with a no-op
/// sink and with `AlgoProf`, interleaved, min of [`LAYER_ROUNDS`] runs
/// each. The difference is the profiler's overhead (event delivery,
/// repetition, attribution, sizing) without compile, finish or render.
fn bench_profiler_layer(_c: &mut Criterion) {
    let rounds = match std::env::var_os("ALGOPROF_BENCH_QUICK") {
        Some(_) => 1,
        None => LAYER_ROUNDS,
    };
    let program = compile(&sized_insertion_sort_program(SortWorkload::Random))
        .expect("compiles")
        .instrument(&InstrumentOptions::default())
        .fuse_default();
    println!("group profiler_layer (fused sized list sort, min of {rounds} runs)");
    println!(
        "  {:>5} {:>12} {:>12} {:>12}",
        "n", "noop", "algoprof", "overhead"
    );
    for n in [100, 131, 163] {
        let (mut noop, mut profiled) = (Duration::MAX, Duration::MAX);
        for _ in 0..rounds {
            let start = Instant::now();
            Interp::new(&program)
                .with_input(vec![n])
                .run(&mut NoopProfiler)
                .expect("runs");
            noop = noop.min(start.elapsed());
            let mut profiler = AlgoProf::new();
            let start = Instant::now();
            Interp::new(&program)
                .with_input(vec![n])
                .run(&mut profiler)
                .expect("runs");
            profiled = profiled.min(start.elapsed());
            black_box(profiler);
        }
        println!(
            "  {n:>5} {noop:>12.3?} {profiled:>12.3?} {:>12.3?}",
            profiled.saturating_sub(noop)
        );
    }
}

criterion_group!(benches, bench_overhead, bench_profiler_layer);
criterion_main!(benches);

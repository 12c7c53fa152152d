//! Incremental snapshot cache vs from-scratch traversal.
//!
//! Measures both wall time and the traversal-work counters
//! ([`algoprof::SnapshotStats`]) on the two listings whose re-measurement
//! cost dominates: the ArrayList growth study (Listing 6) and the
//! insertion sort of the running example (Listing 1). The counter report
//! is printed once per workload after its timing runs, from their last
//! iteration, so under `ALGOPROF_BENCH_QUICK` each configuration runs
//! once (the from-scratch growth study takes ~15 s). `objects` counts
//! the objects read from the heap: a structure redo reads every member,
//! so on the sort it is the cache hits, not the redos, that keep it low;
//! on the growth study the write-log replay keeps `elements` linear.
//!
//! A last group times one structure redo of an unmodified 131-node doubly
//! linked list (the size of the benchmark's list sort) against a full
//! walk of it; divide by 131 for the cost per member.

use algoprof_bench::harness::Criterion;
use algoprof_bench::{criterion_group, criterion_main};

use algoprof::snapshot::{measure_structure, remeasure_structure, VisitMarks};
use algoprof::{AlgoProf, AlgoProfOptions, IncrementalMode, SnapshotStats};
use algoprof_programs::{array_list_program, insertion_sort_program, GrowthPolicy, SortWorkload};
use algoprof_vm::instrument::MethodInstrumentation;
use algoprof_vm::{compile, CompiledProgram, Heap, InstrumentOptions, Interp, Value};

fn run_with(program: &CompiledProgram, incremental: IncrementalMode) -> SnapshotStats {
    let mut profiler = AlgoProf::with_options(AlgoProfOptions {
        incremental,
        ..AlgoProfOptions::default()
    });
    Interp::new(program).run(&mut profiler).expect("runs");
    profiler.snapshot_stats()
}

fn report(label: &str, full: &SnapshotStats, inc: &SnapshotStats) {
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    println!(
        "  {label}: objects {} -> {} ({:.1}x), arrays {} -> {} ({:.1}x), elements {} -> {} ({:.1}x)",
        full.objects_traversed,
        inc.objects_traversed,
        ratio(full.objects_traversed, inc.objects_traversed),
        full.arrays_traversed,
        inc.arrays_traversed,
        ratio(full.arrays_traversed, inc.arrays_traversed),
        full.elements_scanned,
        inc.elements_scanned,
        ratio(full.elements_scanned, inc.elements_scanned),
    );
    println!(
        "  {label}: full walks {} -> {}, cache hits {}, partial redos {}",
        full.full_walks, inc.full_walks, inc.cache_hits, inc.partial_redos
    );
}

fn bench_workload(c: &mut Criterion, group_name: &str, src: &str, opts: &InstrumentOptions) {
    let program = compile(src).expect("compiles").instrument(opts);

    let mut stats = [SnapshotStats::default(); 2];
    let mut group = c.benchmark_group(group_name);
    let modes = [
        ("full", IncrementalMode::Disabled),
        ("incremental", IncrementalMode::Enabled),
    ];
    for ((name, mode), last) in modes.into_iter().zip(&mut stats) {
        group.bench_function(name, |b| {
            b.iter(|| {
                *last = run_with(&program, mode);
                last.traversal_work()
            })
        });
    }
    group.finish();
    println!("group {group_name} (traversal work)");
    report("reduction", &stats[0], &stats[1]);
}

fn bench_arraylist_growth(c: &mut Criterion) {
    // One testForSize run of 10^4 appends (plus a size-1 warmup pass),
    // doubling growth so the guest itself stays near-linear. Full
    // method instrumentation makes every append() a measured algorithm,
    // so the backing array is re-measured once per append — the regime
    // where the from-scratch traversal goes quadratic and the write-log
    // replay stays linear.
    let src = array_list_program(GrowthPolicy::Doubling, 10_002, 10_000, 1);
    let opts = InstrumentOptions {
        methods: MethodInstrumentation::All,
        ..InstrumentOptions::default()
    };
    bench_workload(c, "incremental_arraylist", &src, &opts);
}

fn bench_insertion_sort(c: &mut Criterion) {
    // Sizes 0, 40, 80, ..., 240 of the paper's running example.
    let src = insertion_sort_program(SortWorkload::Random, 241, 40, 1);
    bench_workload(c, "incremental_sort", &src, &InstrumentOptions::default());
}

fn bench_redo_per_member(c: &mut Criterion) {
    const MEMBERS: usize = 131;
    // Instrumented, so `Node` and its links are recursive.
    let program = compile(
        "class Main { static int main() { return 0; } } class Node { Node next; Node prev; }",
    )
    .expect("compiles")
    .instrument(&InstrumentOptions::default());
    let node = program.class_by_name("Node").expect("declared");
    let mut heap = Heap::new();
    let nodes: Vec<_> = (0..MEMBERS).map(|_| heap.alloc_object(node, 2)).collect();
    for w in nodes.windows(2) {
        heap.set_field(w[0], 0, Value::Obj(w[1]));
        heap.set_field(w[1], 1, Value::Obj(w[0]));
    }
    let mut marks = VisitMarks::default();
    let mut stats = SnapshotStats::default();
    let mut m = measure_structure(&program, &heap, nodes[0], &mut marks, &mut stats);
    assert_eq!(m.snapshot.size, MEMBERS);
    assert!(m.strongly_connected, "linked both ways");

    let mut group = c.benchmark_group("incremental_redo_131_members");
    group.bench_function("redo_unmodified", |b| {
        b.iter(|| remeasure_structure(&program, &heap, &mut m, nodes[0], &mut marks, &mut stats))
    });
    group.bench_function("full_walk", |b| {
        b.iter(|| {
            measure_structure(&program, &heap, nodes[0], &mut marks, &mut stats)
                .snapshot
                .size
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_arraylist_growth,
    bench_insertion_sort,
    bench_redo_per_member
);
criterion_main!(benches);

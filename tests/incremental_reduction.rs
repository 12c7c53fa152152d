//! Guards the incremental snapshot cache's reason to exist: on the
//! ArrayList growth study (Listing 6) with per-call method
//! instrumentation, every `append` re-measures the backing array, so
//! from-scratch traversal work is quadratic in the list length while
//! the write-log replay stays linear. The benchmark
//! (`crates/bench/benches/incremental.rs`) measures the full 10^4-element
//! configuration; this test asserts the required ≥ 5× reduction in
//! objects traversed at a size small enough for the debug-build suite.
//!
//! It also pins the exact snapshot counters of the two sized sorts the
//! benchmark profiles, so a change to how a walk is done, or to when a
//! cached walk is reused, cannot change how many walks happen or what
//! they visit unnoticed.

use algoprof::{AlgoProf, AlgoProfOptions, IncrementalMode, SnapshotStats};
use algoprof_programs::{
    array_list_program, sized_insertion_sort_array_program, sized_insertion_sort_program,
    GrowthPolicy, SortWorkload,
};
use algoprof_vm::instrument::MethodInstrumentation;
use algoprof_vm::{compile, InstrumentOptions, Interp};

fn stats_for(src: &str, incremental: IncrementalMode) -> SnapshotStats {
    let program = compile(src)
        .expect("compiles")
        .instrument(&InstrumentOptions {
            methods: MethodInstrumentation::All,
            ..InstrumentOptions::default()
        });
    let mut profiler = AlgoProf::with_options(AlgoProfOptions {
        incremental,
        ..AlgoProfOptions::default()
    });
    Interp::new(&program).run(&mut profiler).expect("runs");
    profiler.snapshot_stats()
}

#[test]
fn arraylist_growth_objects_traversed_shrink_at_least_5x() {
    let src = array_list_program(GrowthPolicy::Doubling, 1_002, 1_000, 1);
    let full = stats_for(&src, IncrementalMode::Disabled);
    let inc = stats_for(&src, IncrementalMode::Enabled);

    assert!(
        full.objects_traversed >= 5 * inc.objects_traversed.max(1),
        "expected >=5x fewer objects traversed, got {} -> {}",
        full.objects_traversed,
        inc.objects_traversed
    );
    // The cache must be doing real incremental work, not just skipping.
    assert!(inc.partial_redos > 0, "write-log replay never ran");
    assert!(
        inc.full_walks < full.full_walks / 5,
        "full walks {} -> {}: cache barely engaged",
        full.full_walks,
        inc.full_walks
    );
}

/// Snapshot counters of one profiled run of a sized sort, compiled the
/// way every user path compiles (instrumented with default options, then
/// fused) and profiled with default options.
fn sort_stats(src: &str, n: i64) -> SnapshotStats {
    let program = compile(src)
        .expect("compiles")
        .instrument(&InstrumentOptions::default())
        .fuse_default();
    let mut profiler = AlgoProf::new();
    Interp::new(&program)
        .with_input(vec![n])
        .run(&mut profiler)
        .expect("runs");
    profiler.snapshot_stats()
}

/// Pins how many walks the profiler makes and what they visit. The
/// first-access/exit policy fixes the number of measurements (walks,
/// cache hits and partial redos together); which of them are answered
/// from cache depends on the reuse rules. The doubly linked list is
/// strongly connected, so its second measurement per outer iteration,
/// taken from another node of an unchanged list, is a cache hit. Every
/// other re-measurement is a partial redo, a walk over the cached edge
/// lists that reads from the heap only the nodes written since the
/// cached walk (the relinked ones, during the sort). The one full walk
/// left is the list's first measurement. A change to how a walk is done
/// must leave every counter here unchanged.
#[test]
fn sort_walk_counters_are_pinned() {
    let list = sized_insertion_sort_program(SortWorkload::Random);
    assert_eq!(
        sort_stats(&list, 100),
        SnapshotStats {
            full_walks: 1,
            cache_hits: 107,
            partial_redos: 96,
            objects_traversed: 2_911,
            arrays_traversed: 0,
            elements_scanned: 0,
        }
    );
    assert_eq!(
        sort_stats(&list, 163),
        SnapshotStats {
            full_walks: 1,
            cache_hits: 169,
            partial_redos: 160,
            objects_traversed: 7_362,
            arrays_traversed: 0,
            elements_scanned: 0,
        }
    );
    let array = sized_insertion_sort_array_program(SortWorkload::Reversed);
    assert_eq!(
        sort_stats(&array, 160),
        SnapshotStats {
            full_walks: 1,
            cache_hits: 2,
            partial_redos: 319,
            objects_traversed: 0,
            arrays_traversed: 1,
            elements_scanned: 13_198,
        }
    );
}

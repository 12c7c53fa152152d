//! API-surface tests for profile exports and the remaining strategy
//! combinations.

use algoprof::{AlgoProfOptions, AlgorithmicProfile, CostMetric, EquivalenceCriterion};
use algoprof_programs::{insertion_sort_program, SortWorkload};

fn sort_profile() -> AlgorithmicProfile {
    let src = insertion_sort_program(SortWorkload::Random, 41, 10, 1);
    algoprof::profile_source(&src).expect("profiles")
}

#[test]
fn csv_export_has_header_and_rows() {
    let p = sort_profile();
    let algo = p.algorithm_by_root_name("List.sort:loop0").expect("sort");
    let input = p.primary_input(algo.id).expect("input");
    let csv = p.series_csv(algo.id, input, CostMetric::Steps);
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some("size,cost"));
    let rows: Vec<&str> = lines.collect();
    assert!(!rows.is_empty());
    for row in rows {
        let mut parts = row.split(',');
        parts
            .next()
            .expect("size column")
            .parse::<f64>()
            .expect("numeric size");
        parts
            .next()
            .expect("cost column")
            .parse::<f64>()
            .expect("numeric cost");
        assert_eq!(parts.next(), None);
    }
}

#[test]
fn access_series_sums_reads_and_writes() {
    let p = sort_profile();
    let algo = p.algorithm_by_root_name("List.sort:loop0").expect("sort");
    let input = p.primary_input(algo.id).expect("input");
    let access = p.access_series(algo.id, input);
    let reads = p.series(algo.id, input, CostMetric::Reads);
    let writes = p.series(algo.id, input, CostMetric::Writes);
    assert_eq!(access.len(), reads.len());
    for ((a, r), w) in access.iter().zip(&reads).zip(&writes) {
        assert_eq!(a.1, r.1 + w.1);
    }
}

#[test]
fn same_array_criterion_profiles_arrays() {
    // SameArray cannot track reallocation, so a grow-by-1 list fragments
    // into one input per backing array — the behaviour the paper's
    // footnote 1 warns about, observable end-to-end.
    let src =
        algoprof_programs::array_list_program(algoprof_programs::GrowthPolicy::ByOne, 17, 8, 1);
    let fragmenting = algoprof::profile(
        algoprof::Guest::Source(&src),
        &algoprof::RunConfig {
            options: AlgoProfOptions {
                criterion: EquivalenceCriterion::SameArray,
                ..AlgoProfOptions::default()
            },
            ..algoprof::RunConfig::default()
        },
    )
    .expect("profiles")
    .into_main();
    let merging = algoprof::profile_source(&src).expect("profiles");
    assert!(
        fragmenting.registry().inputs().len() > merging.registry().inputs().len(),
        "SameArray ({}) must fragment reallocated arrays vs SomeElements ({})",
        fragmenting.registry().inputs().len(),
        merging.registry().inputs().len()
    );
}

#[test]
fn algorithms_touching_finds_members_not_only_roots() {
    let p = sort_profile();
    // The inner sort loop is a member but not a root.
    let touching = p.algorithms_touching("List.sort:loop1");
    assert_eq!(touching.len(), 1);
    assert!(p.node_name(touching[0].root).contains("List.sort:loop0"));
    assert!(p.algorithm_by_root_name("List.sort:loop1").is_none());
}

#[test]
fn fit_display_formats_are_stable() {
    let p = sort_profile();
    let algo = p.algorithm_by_root_name("List.sort:loop0").expect("sort");
    let fit = p.fit_invocation_steps(algo.id).expect("fits");
    let text = fit.to_string();
    assert!(text.starts_with("cost = "));
    assert!(text.contains("R^2"));
    assert!(fit.predict(0.0).is_finite());
}

#[test]
fn stats_are_consistent_with_tree() {
    let p = sort_profile();
    let stats = p.stats();
    let nodes: usize = p.tree().len();
    let invocations: usize = p.tree().nodes().iter().map(|n| n.invocations.len()).sum();
    assert_eq!(stats.nodes, nodes);
    assert_eq!(stats.invocations, invocations);
}

#[test]
fn aborted_runs_still_produce_a_profile() {
    // Fuel exhaustion mid-run leaves invocations open; finish() must
    // close them and produce a structurally valid (if partial) profile.
    use algoprof_vm::{compile, InstrumentOptions, Interp, RuntimeError};
    let src = insertion_sort_program(SortWorkload::Random, 101, 10, 3);
    let program = compile(&src)
        .expect("compiles")
        .instrument(&InstrumentOptions::default());
    let mut profiler = algoprof::AlgoProf::new();
    let err = Interp::new(&program)
        .with_fuel(200_000)
        .run(&mut profiler)
        .expect_err("must run out of fuel");
    assert!(matches!(err, RuntimeError::OutOfFuel));
    let profile = profiler.finish(&program);
    // Everything open was finalized; the tree is coherent.
    for node in profile.tree().nodes() {
        assert!(node.active.is_empty(), "all activations closed");
    }
    assert!(profile.stats().invocations > 0);
    for algo in profile.algorithms() {
        assert!(algo.members.contains(&algo.root));
    }
}

#[test]
fn empty_program_profiles_to_root_only() {
    let profile = algoprof::profile_source("class Main { static int main() { return 0; } }")
        .expect("profiles");
    assert_eq!(profile.tree().len(), 1, "just the Program root");
    assert_eq!(profile.algorithms().len(), 1);
    assert!(profile.is_data_structure_less(profile.algorithms()[0].id));
    let html = algoprof::render_html(&profile);
    assert!(html.contains("Program"), "report renders even when trivial");
}

//! Integration test: Listing 6 / Figures 4 and 5 — the array-backed list
//! growth bug.

use algoprof::{AlgoProfOptions, AlgorithmicProfile, ArraySizeStrategy, CostMetric};
use algoprof_fit::{best_fit, Model};
use algoprof_programs::{array_list_program, GrowthPolicy};

fn profile(policy: GrowthPolicy) -> AlgorithmicProfile {
    let src = array_list_program(policy, 97, 8, 1);
    let opts = AlgoProfOptions {
        array_strategy: ArraySizeStrategy::UniqueElements,
        ..AlgoProfOptions::default()
    };
    algoprof::profile(
        algoprof::Guest::Source(&src),
        &algoprof::RunConfig {
            options: opts,
            ..algoprof::RunConfig::default()
        },
    )
    .expect("profiles")
    .into_main()
}

fn access_series(profile: &AlgorithmicProfile) -> Vec<(f64, f64)> {
    let algo = profile
        .algorithm_by_root_name("Main.testForSize:loop0")
        .expect("append algorithm");
    let reads = profile.invocation_series(algo.id, CostMetric::Reads);
    let writes = profile.invocation_series(algo.id, CostMetric::Writes);
    reads
        .iter()
        .zip(&writes)
        .map(|(r, w)| (r.0, r.1 + w.1))
        .collect()
}

#[test]
fn figure4_append_and_grow_form_one_algorithm() {
    for policy in [GrowthPolicy::ByOne, GrowthPolicy::Doubling] {
        let profile = profile(policy);
        let algo = profile
            .algorithm_by_root_name("Main.testForSize:loop0")
            .expect("append algorithm");
        assert_eq!(
            algo.members.len(),
            2,
            "{policy}: append loop + grow loop fuse into one algorithm"
        );
        assert!(algo
            .members
            .iter()
            .any(|&m| profile.node_name(m).contains("growIfFull")));
        // The harness loops stay separate and data-structure-less.
        let harness = profile
            .algorithm_by_root_name("Main.main:loop0")
            .expect("harness loop");
        assert!(profile.is_data_structure_less(harness.id));
    }
}

#[test]
fn figure5_grow_by_one_is_quadratic() {
    let profile = profile(GrowthPolicy::ByOne);
    let fit = best_fit(&access_series(&profile)).expect("fits");
    assert_eq!(fit.model, Model::Quadratic, "naive growth costs Θ(n²)");
    assert!(
        (fit.coeff - 1.0).abs() < 0.1,
        "≈ n² accesses, got coefficient {}",
        fit.coeff
    );
}

#[test]
fn figure5_doubling_is_linear() {
    let profile = profile(GrowthPolicy::Doubling);
    let fit = best_fit(&access_series(&profile)).expect("fits");
    assert_eq!(fit.model, Model::Linear, "doubling costs Θ(n)");
}

#[test]
fn figure5_crossover_naive_loses_at_scale() {
    let by_one = access_series(&profile(GrowthPolicy::ByOne));
    let doubling = access_series(&profile(GrowthPolicy::Doubling));
    let last_naive = by_one.last().expect("points").1;
    let last_doubling = doubling.last().expect("points").1;
    assert!(
        last_naive > 3.0 * last_doubling,
        "at n≈100 the naive list must cost several times more \
         ({last_naive} vs {last_doubling})"
    );
}

#[test]
fn resized_arrays_are_one_input() {
    // Despite reallocation, the evolving backing array is identified as a
    // single input (SomeElements criterion, paper §3.4 footnote 1).
    let profile = profile(GrowthPolicy::ByOne);
    let algo = profile
        .algorithm_by_root_name("Main.testForSize:loop0")
        .expect("append algorithm");
    // One backing-array input per harness iteration (12 sizes), not one
    // per reallocation (which would be hundreds).
    let arrays = algo
        .inputs
        .iter()
        .filter(|&&i| {
            matches!(
                profile.registry().input(i).kind,
                algoprof::InputKind::Array(_)
            )
        })
        .count();
    assert_eq!(arrays, 12, "one logical array input per run");
}

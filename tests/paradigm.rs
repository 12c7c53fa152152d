//! Integration test: §4.3 — the profiler is agnostic to programming
//! paradigm. An imperative, mutating insertion sort and a functional,
//! recursive, immutable insertion sort yield matching complexities.

use algoprof::{AlgoProfOptions, AlgorithmicProfile, EquivalenceCriterion};
use algoprof_fit::Model;
use algoprof_programs::{functional_sort_program, insertion_sort_program, SortWorkload};

fn profile_same_type(src: &str) -> AlgorithmicProfile {
    let opts = AlgoProfOptions {
        criterion: EquivalenceCriterion::SameType,
        ..AlgoProfOptions::default()
    };
    algoprof::profile(
        algoprof::Guest::Source(src),
        &algoprof::RunConfig {
            options: opts,
            ..algoprof::RunConfig::default()
        },
    )
    .expect("profiles")
    .into_main()
}

#[test]
fn both_paradigms_are_quadratic_on_reversed_input() {
    let imperative = profile_same_type(&insertion_sort_program(SortWorkload::Reversed, 65, 8, 1));
    let functional = profile_same_type(&functional_sort_program(SortWorkload::Reversed, 65, 8, 1));

    let imp = imperative
        .algorithm_by_root_name("List.sort:loop0")
        .expect("imperative sort");
    let fun = functional
        .algorithm_by_root_name("FList.sort")
        .expect("functional sort");

    let fi = imperative.fit_invocation_steps(imp.id).expect("fits");
    let ff = functional.fit_invocation_steps(fun.id).expect("fits");
    assert_eq!(fi.model, Model::Quadratic);
    assert_eq!(ff.model, Model::Quadratic);
    assert!(
        (fi.coeff - ff.coeff).abs() < 0.05,
        "coefficients agree: {} vs {}",
        fi.coeff,
        ff.coeff
    );
}

#[test]
fn exponents_agree_within_tolerance_on_random_input() {
    let imperative = profile_same_type(&insertion_sort_program(SortWorkload::Random, 65, 8, 1));
    let functional = profile_same_type(&functional_sort_program(SortWorkload::Random, 65, 8, 1));
    let imp = imperative
        .algorithm_by_root_name("List.sort:loop0")
        .expect("imperative sort");
    let fun = functional
        .algorithm_by_root_name("FList.sort")
        .expect("functional sort");
    let pi = imperative
        .fit_invocation_power_law(imp.id)
        .expect("imperative power law");
    let pf = functional
        .fit_invocation_power_law(fun.id)
        .expect("functional power law");
    assert!(
        (pi.exponent - pf.exponent).abs() < 0.25,
        "orders of growth agree: {} vs {}",
        pi.exponent,
        pf.exponent
    );
}

#[test]
fn classifications_differ_but_inputs_match() {
    // The implementations differ honestly: the mutating sort modifies its
    // structure; the immutable one constructs fresh nodes. The profiler
    // reports exactly that distinction while agreeing on complexity.
    let imperative = profile_same_type(&insertion_sort_program(SortWorkload::Reversed, 33, 8, 1));
    let functional = profile_same_type(&functional_sort_program(SortWorkload::Reversed, 33, 8, 1));
    let imp = imperative
        .algorithm_by_root_name("List.sort:loop0")
        .expect("imperative sort");
    let fun = functional
        .algorithm_by_root_name("FList.sort")
        .expect("functional sort");
    assert!(imperative
        .describe_algorithm(imp.id)
        .contains("Modification"));
    assert!(functional
        .describe_algorithm(fun.id)
        .contains("Construction"));
}

#[test]
fn functional_sort_groups_sort_and_insert_recursions() {
    let functional = profile_same_type(&functional_sort_program(SortWorkload::Reversed, 33, 8, 1));
    let fun = functional
        .algorithm_by_root_name("FList.sort")
        .expect("functional sort algorithm");
    assert!(
        fun.members
            .iter()
            .any(|&m| functional.node_name(m).contains("FList.insert")),
        "insert recursion fused with sort recursion under SameType"
    );
}

//! §4.3 — paradigm agnosticism.
//!
//! Profiles the imperative, mutating insertion sort (Listing 1) and a
//! functional, recursive, immutable insertion sort on the same workloads
//! and shows that the automatically inferred complexities agree: both are
//! quadratic on random inputs and the fitted exponents match closely,
//! even though one is a loop nest that modifies a structure and the other
//! is a recursion nest that constructs new structures.

use algoprof::{AlgoProfOptions, CostMetric, EquivalenceCriterion};
use algoprof_bench::SweepArgs;
use algoprof_programs::{functional_sort_program, insertion_sort_program, SortWorkload};

/// The immutable sort builds a *fresh* structure disjoint from its input,
/// so the reference-overlap criterion sees two inputs and keeps `sort`
/// (traversing the original) apart from `insert` (constructing the
/// result). The paper's Same-Type equivalence criterion (§2.4) treats
/// disconnected instances of one node type as the same input — exactly
/// what makes the two paradigms comparable.
fn profile_same_type(src: &str) -> algoprof::AlgorithmicProfile {
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

fn main() {
    let args = SweepArgs::parse(81, 8, 2);
    println!("Paradigm agnosticism (paper section 4.3)\n");

    for workload in [SortWorkload::Random, SortWorkload::Reversed] {
        println!("=== workload: {workload} ===");

        let imperative = profile_same_type(&insertion_sort_program(
            workload,
            args.max_size,
            args.step,
            args.reps,
        ));
        let functional = profile_same_type(&functional_sort_program(
            workload,
            args.max_size,
            args.step,
            args.reps,
        ));

        let imp = imperative
            .algorithm_by_root_name("List.sort:loop0")
            .expect("imperative sort algorithm");
        let fun_algo = functional
            .algorithm_by_root_name("FList.sort")
            .expect("functional sort algorithm");

        let imp_fit = imperative
            .fit_invocation_power_law(imp.id)
            .expect("imperative fit");
        let fun_fit = functional
            .fit_invocation_power_law(fun_algo.id)
            .expect("functional fit");

        println!(
            "  imperative  ({}): {}",
            imperative.describe_algorithm(imp.id),
            imp_fit
        );
        println!(
            "  functional  ({}): {}",
            functional.describe_algorithm(fun_algo.id),
            fun_fit
        );
        println!(
            "  exponents: {:.3} vs {:.3} (difference {:.3})",
            imp_fit.exponent,
            fun_fit.exponent,
            (imp_fit.exponent - fun_fit.exponent).abs()
        );
        let steps_i: f64 = imperative
            .invocation_series(imp.id, CostMetric::Steps)
            .iter()
            .map(|p| p.1)
            .sum();
        let steps_f: f64 = functional
            .invocation_series(fun_algo.id, CostMetric::Steps)
            .iter()
            .map(|p| p.1)
            .sum();
        println!("  total steps: imperative {steps_i}, functional {steps_f}\n");
    }
}

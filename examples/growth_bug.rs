//! Scenario: uncovering an algorithmic inefficiency (paper §4.2).
//!
//! A dynamically-growing array-backed list that grows by one element per
//! reallocation is accidentally quadratic; growing by doubling is linear.
//! The algorithmic profiler finds this *from the outside*: no annotation,
//! no knowledge of the code — the fitted cost functions differ in model
//! class.
//!
//! Run with: `cargo run --example growth_bug`

use algoprof::{AlgoProfOptions, ArraySizeStrategy, CostMetric};
use algoprof_programs::{array_list_program, GrowthPolicy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for policy in [GrowthPolicy::ByOne, GrowthPolicy::Doubling] {
        let source = array_list_program(policy, 129, 8, 1);
        let opts = AlgoProfOptions {
            array_strategy: ArraySizeStrategy::UniqueElements,
            ..AlgoProfOptions::default()
        };
        let profile = algoprof::profile(
            algoprof::Guest::Source(&source),
            &algoprof::RunConfig {
                options: opts,
                ..algoprof::RunConfig::default()
            },
        )?
        .into_main();

        let append = profile
            .algorithm_by_root_name("Main.testForSize:loop0")
            .expect("append algorithm");

        // Figure 4's observation: the append loop and the grow loop are
        // automatically fused into one algorithm, so we see the *total*
        // cost of appending n elements including all copying.
        let grow_fused = append
            .members
            .iter()
            .any(|&m| profile.node_name(m).contains("growIfFull"));

        println!("growth policy: {policy}");
        println!("  append+grow fused: {grow_fused}");
        if let Some(fit) = profile.fit_invocation_steps(append.id) {
            println!("  steps(n) = {fit}  [{}]", fit.model.big_o());
        }
        let reads = profile.invocation_series(append.id, CostMetric::Reads);
        let writes = profile.invocation_series(append.id, CostMetric::Writes);
        let copies: Vec<(f64, f64)> = reads
            .iter()
            .zip(&writes)
            .map(|(r, w)| (r.0, r.1 + w.1))
            .collect();
        if let Some(fit) = algoprof_fit::best_fit(&copies) {
            println!("  array accesses(n) = {fit}  [{}]", fit.model.big_o());
        }
        println!();
    }

    println!(
        "fix: change one line (grow by doubling) and the cost model drops from O(n^2) to O(n)."
    );
    Ok(())
}

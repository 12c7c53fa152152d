//! Figure 5 — cost functions for growing an array by 1 vs doubling.
//!
//! The naive grow-by-1 list costs Θ(n²) element accesses to append n
//! elements; the doubling list costs Θ(n). We plot combined structure
//! accesses (appends + copies), the figure's cost measure, against the
//! number of appended elements (unique-element array sizing, so the
//! x-axis is the used size rather than the capacity).

use algoprof::{AlgoProfOptions, ArraySizeStrategy, CostMetric};
use algoprof_bench::{print_series, SweepArgs};
use algoprof_programs::{array_list_program, GrowthPolicy};

fn main() {
    let args = SweepArgs::parse(129, 8, 1);
    println!("Figure 5: grow-by-1 (quadratic) vs doubling (linear)");
    println!("(sizes 1..{} step {})\n", args.max_size, args.step);

    for policy in [GrowthPolicy::ByOne, GrowthPolicy::Doubling] {
        let src = array_list_program(policy, args.max_size, args.step, args.reps);
        let opts = AlgoProfOptions {
            array_strategy: ArraySizeStrategy::UniqueElements,
            ..AlgoProfOptions::default()
        };
        let profile = algoprof::profile(
            algoprof::Guest::Source(&src),
            &algoprof::RunConfig {
                options: opts,
                ..algoprof::RunConfig::default()
            },
        )
        .expect("profiles")
        .into_main();
        let algo = profile
            .algorithm_by_root_name("Main.testForSize:loop0")
            .expect("append algorithm exists");

        let reads = profile.invocation_series(algo.id, CostMetric::Reads);
        let writes = profile.invocation_series(algo.id, CostMetric::Writes);
        let accesses: Vec<(f64, f64)> = reads
            .iter()
            .zip(&writes)
            .map(|(r, w)| (r.0, r.1 + w.1))
            .collect();

        println!("--- {policy} ---");
        print_series("array accesses (appends + copies) vs elements", &accesses);
        print_series(
            "algorithmic steps vs elements",
            &profile.invocation_series(algo.id, CostMetric::Steps),
        );
        println!();
    }
}

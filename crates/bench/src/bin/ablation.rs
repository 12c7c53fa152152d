//! Ablation: grouping strategies over Table 1.
//!
//! Replays the 18 Table-1 programs under each grouping strategy:
//!
//! * `SharedInput` — the paper's heuristic (reproduces the x/*/− column);
//! * `SharedInputOrIndexFlow` — the paper's §4.1 proposed dataflow fix
//!   (implemented in `algoprof_vm::indexflow`), which repairs the two
//!   `−` rows without disturbing the others;
//! * `SameMethod` — the coarse alternative §2.5 mentions.

use algoprof::{AlgoProfOptions, GroupingStrategy};
use algoprof_programs::table1_programs;

fn main() {
    let strategies = [
        ("shared-input", GroupingStrategy::SharedInput),
        ("index-flow", GroupingStrategy::SharedInputOrIndexFlow),
        ("same-method", GroupingStrategy::SameMethod),
    ];

    println!("Grouping-strategy ablation over Table 1");
    println!(
        "{:35} {:>14} {:>14} {:>14}",
        "program", "shared-input", "index-flow", "same-method"
    );
    println!("{}", "-".repeat(80));

    let mut grouped_counts = [0usize; 3];
    for p in table1_programs() {
        let mut cells = Vec::new();
        for (i, (_, strategy)) in strategies.iter().enumerate() {
            let opts = AlgoProfOptions {
                grouping: *strategy,
                ..AlgoProfOptions::default()
            };
            let profile = algoprof::profile(
                algoprof::Guest::Source(&p.source),
                &algoprof::RunConfig {
                    options: opts,
                    ..algoprof::RunConfig::default()
                },
            )
            .expect("profiles")
            .into_main();
            let outcome = p.evaluate(&profile);
            if outcome.observed_grouped {
                grouped_counts[i] += 1;
            }
            cells.push(if outcome.observed_grouped {
                "grouped"
            } else {
                "split"
            });
        }
        println!(
            "{:35} {:>14} {:>14} {:>14}",
            p.name, cells[0], cells[1], cells[2]
        );
    }
    println!("{}", "-".repeat(80));
    println!(
        "{:35} {:>14} {:>14} {:>14}",
        "rows grouped (of 18)", grouped_counts[0], grouped_counts[1], grouped_counts[2]
    );
    println!(
        "\npaper: shared-input groups 16/18 (the two 2-d array rows split);\n\
         the section-4.1 dataflow refinement is expected to reach 18/18."
    );
}

//! Scenario: algorithms over external input/output streams (the paper's
//! Input/Output algorithm classes, §2.8).
//!
//! Some algorithms consume external data rather than in-memory
//! structures; the profiler classifies them as Input/Output algorithms
//! and relates cost to the amount of data moved.
//!
//! Run with: `cargo run --example io_streams`

use algoprof::{AlgorithmClass, CostMetric, Guest, RunConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A guest filter pipeline: read n values, write the positive ones.
    let source = r#"
        class Main {
            static int main() {
                int n = readInput();
                int written = 0;
                for (int i = 0; i < n; i = i + 1) {
                    int v = readInput();
                    if (v > 0) {
                        print(v);
                        written = written + 1;
                    }
                }
                return written;
            }
        }
    "#;

    // Host-provided input: a length header followed by values.
    let mut input = vec![12i64];
    input.extend([3, -1, 4, -1, 5, -9, 2, 6, -5, 3, 5, -8]);

    let config = RunConfig {
        input,
        ..RunConfig::default()
    };
    let profile = algoprof::profile(Guest::Source(source), &config)?.into_main();

    // The header read (`int n = readInput()`) happens outside the loop
    // and touches the same input stream, so the loop fuses with the
    // program root — find the algorithm *containing* the loop.
    let touching = profile.algorithms_touching("Main.main:loop0");
    let pipeline = *touching.first().expect("filter loop");
    println!("filter loop classifications:");
    for c in profile.classifications(pipeline.id) {
        println!("  - {}", c.class);
    }
    let classes: Vec<AlgorithmClass> = profile
        .classifications(pipeline.id)
        .iter()
        .map(|c| c.class)
        .collect();
    assert!(classes.contains(&AlgorithmClass::Input));
    assert!(classes.contains(&AlgorithmClass::Output));

    println!(
        "reads: {}, writes: {}",
        pipeline.total_costs.get(algoprof::CostKey::InputRead),
        pipeline.total_costs.get(algoprof::CostKey::OutputWrite),
    );
    let _ = CostMetric::InputReads; // see `invocation_series` for trends
    Ok(())
}

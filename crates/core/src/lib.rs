//! **algoprof** — an algorithmic profiler, reproducing *"Algorithmic
//! Profiling"* (Zaparanuks & Hauswirth, PLDI 2012).
//!
//! A traditional profiler reports *where* a program spends resources; an
//! algorithmic profiler reports *why* and *how cost scales*: it finds the
//! repetitions (loops and recursions) in a run, determines each
//! algorithm's inputs and their sizes automatically, measures cost in
//! algorithm-level units (steps, structure reads/writes, element
//! creations, I/O), groups repetitions into algorithms, classifies them
//! (construction / modification / traversal / input / output), and fits
//! empirical cost functions such as `steps ≈ 0.25·n²`.
//!
//! The profiler consumes instrumentation events from the
//! [`algoprof_vm`] guest VM (the substitution for the paper's JVM — see
//! the repository DESIGN.md).
//!
//! # Quickstart
//!
//! ```
//! use algoprof::{AlgoProf, CostMetric};
//! use algoprof_vm::{compile, InstrumentOptions, Interp};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = r#"
//!     class Main {
//!         static int main() {
//!             Node head = null;
//!             for (int i = 0; i < 50; i = i + 1) {
//!                 Node n = new Node();
//!                 n.next = head;
//!                 head = n;
//!             }
//!             return 0;
//!         }
//!     }
//!     class Node { Node next; }
//! "#;
//! let program = compile(src)?.instrument(&InstrumentOptions::default());
//! let mut profiler = AlgoProf::new();
//! Interp::new(&program).run(&mut profiler)?;
//! let profile = profiler.finish(&program);
//!
//! // The construction loop is one algorithm with a measurable input.
//! let algo = profile.algorithm_by_root_name("Main.main:loop0").expect("found");
//! let input = profile.primary_input(algo.id).expect("has an input");
//! assert_eq!(profile.registry().input(input).max_size, 50);
//! # Ok(())
//! # }
//! ```

pub mod algorithms;
pub mod classify;
pub mod cost;
pub mod crossval;
pub mod hash;
pub mod html;
pub mod inputs;
pub mod jobs;
pub mod pool;
pub mod profile;
pub mod profiler;
pub mod report;
pub mod reptree;
pub mod run;
pub mod snapshot;
pub mod stream;
pub mod sweep;

pub use algorithms::{Algorithm, AlgorithmId, DataPoint, GroupingStrategy};
pub use classify::{AlgorithmClass, Classification};
pub use cost::{AccessOp, CostKey, CostMap};
pub use crossval::{cross_validate, render_cross_checks, CrossCheck};
pub use hash::{sha256_hex, Sha256};
pub use html::{render_html, render_html_set, render_sweep_html};
pub use inputs::{InputId, InputInfo, InputKind, InputRegistry};
pub use jobs::{JobError, JobOutput, JobResult, JobSpec, CACHE_SCHEMA_VERSION};
pub use pool::{default_workers, run_indexed, WorkerPool};
pub use profile::{
    merge_invocation_series, merge_invocation_series_nominal, merge_series, AlgorithmicProfile,
    CostMetric, ProfileSet,
};
pub use profiler::{AlgoProf, AlgoProfOptions, SnapshotPolicy};
pub use report::{render as render_report, render_merged, render_set};
pub use reptree::{Invocation, NodeId, RepKind, RepNode, RepTree};
pub use run::{profile, profile_source, record_source_with, run, Guest, ProfileError, RunConfig};
pub use stream::{render_stream_fits, StreamNodeFit, StreamingAnalysis, StreamingReport};

pub use snapshot::{
    ArraySizeStrategy, ElemKey, EquivalenceCriterion, IncrementalMode, Measurement, Snapshot,
    SnapshotStats,
};
pub use sweep::{
    run_sweep, SweepAblation, SweepConfig, SweepError, SweepJob, SweepJobReport, SweepReport,
    SweepRunReport, SweepSeries,
};

#[cfg(test)]
mod tests {
    use super::*;
    use algoprof_vm::{compile, InstrumentOptions, Interp};

    /// Profiles a source program end to end.
    fn profile_src(src: &str) -> AlgorithmicProfile {
        let program = compile(src)
            .expect("compiles")
            .instrument(&InstrumentOptions::default());
        let mut prof = AlgoProf::new();
        Interp::new(&program).run(&mut prof).expect("runs");
        prof.finish(&program)
    }

    #[test]
    fn construction_loop_is_classified_and_sized() {
        let profile = profile_src(
            r#"class Main {
                static int main() {
                    Node head = null;
                    for (int i = 0; i < 30; i = i + 1) {
                        Node n = new Node();
                        n.next = head;
                        head = n;
                    }
                    return 0;
                }
            }
            class Node { Node next; }"#,
        );
        let algo = profile
            .algorithm_by_root_name("Main.main:loop0")
            .expect("loop algorithm exists");
        assert_eq!(
            profile.classifications(algo.id)[0].class,
            AlgorithmClass::Construction
        );
        let input = profile.primary_input(algo.id).expect("input detected");
        assert_eq!(profile.registry().input(input).max_size, 30);
        assert!(profile.input_description(input).contains("Node"));
        // 30 back edges = 30 algorithmic steps.
        assert_eq!(algo.total_costs.steps(), 30);
    }

    #[test]
    fn traversal_loop_is_classified() {
        let profile = profile_src(
            r#"class Main {
                static int main() {
                    Node head = null;
                    for (int i = 0; i < 10; i = i + 1) {
                        Node n = new Node();
                        n.next = head;
                        head = n;
                    }
                    int count = 0;
                    Node cur = head;
                    while (cur != null) { count = count + 1; cur = cur.next; }
                    return count;
                }
            }
            class Node { Node next; }"#,
        );
        let traversal = profile
            .algorithm_by_root_name("Main.main:loop1")
            .expect("second loop");
        assert_eq!(
            profile.classifications(traversal.id)[0].class,
            AlgorithmClass::Traversal
        );
        // Construction and traversal see the same input.
        let construction = profile
            .algorithm_by_root_name("Main.main:loop0")
            .expect("first loop");
        assert_eq!(construction.inputs, traversal.inputs);
    }

    #[test]
    fn recursive_construction_builds_recursion_node() {
        let profile = profile_src(
            r#"class Main {
                static int main() {
                    Node list = build(20);
                    return 0;
                }
                static Node build(int n) {
                    if (n == 0) { return null; }
                    Node head = new Node();
                    head.next = build(n - 1);
                    return head;
                }
            }
            class Node { Node next; }"#,
        );
        let rec = profile
            .algorithm_by_root_name("Main.build")
            .expect("recursion algorithm");
        // 21 calls, 20 of them subsequent (steps).
        assert_eq!(rec.total_costs.steps(), 20);
        assert_eq!(
            profile.classifications(rec.id)[0].class,
            AlgorithmClass::Construction
        );
        let input = profile.primary_input(rec.id).expect("input");
        assert_eq!(profile.registry().input(input).max_size, 20);
    }

    #[test]
    fn io_algorithm_classification() {
        let src = r#"class Main {
            static int main() {
                int s = 0;
                for (int i = 0; i < 5; i = i + 1) { s = s + readInput(); }
                for (int i = 0; i < 3; i = i + 1) { print(s); }
                return s;
            }
        }"#;
        let program = compile(src)
            .expect("compiles")
            .instrument(&InstrumentOptions::default());
        let mut prof = AlgoProf::new();
        Interp::new(&program)
            .with_input(vec![1, 2, 3, 4, 5])
            .run(&mut prof)
            .expect("runs");
        let profile = prof.finish(&program);
        let reader = profile
            .algorithm_by_root_name("Main.main:loop0")
            .expect("read loop");
        assert!(profile
            .classifications(reader.id)
            .iter()
            .any(|c| c.class == AlgorithmClass::Input));
        let writer = profile
            .algorithm_by_root_name("Main.main:loop1")
            .expect("write loop");
        assert!(profile
            .classifications(writer.id)
            .iter()
            .any(|c| c.class == AlgorithmClass::Output));
    }

    #[test]
    fn data_structure_less_loops_are_flagged() {
        let profile = profile_src(
            r#"class Main {
                static int main() {
                    int s = 0;
                    for (int i = 0; i < 100; i = i + 1) { s = s + i; }
                    return s;
                }
            }"#,
        );
        let algo = profile
            .algorithm_by_root_name("Main.main:loop0")
            .expect("loop");
        assert!(profile.is_data_structure_less(algo.id));
        assert_eq!(
            profile.describe_algorithm(algo.id),
            "Data-structure-less algorithm"
        );
    }

    #[test]
    fn render_text_contains_tree_and_algorithms() {
        let profile = profile_src(
            r#"class Main {
                static int main() {
                    int s = 0;
                    for (int i = 0; i < 4; i = i + 1) { s = s + i; }
                    return s;
                }
            }"#,
        );
        let text = profile.render_text();
        assert!(text.contains("Program"));
        assert!(text.contains("Main.main:loop0"));
        assert!(text.contains("algorithm#"));
    }
}

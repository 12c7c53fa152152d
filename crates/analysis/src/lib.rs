//! Static algorithmic-complexity analysis and lints for **jay** programs.
//!
//! AlgoProf infers cost functions *empirically* — it runs the program and
//! fits models to ⟨input size, cost⟩ points. This crate builds the static
//! half of that story, in the spirit of the static resource-analysis
//! literature the reproduction cites (López-García et al.'s parametric
//! static profiling framework): an abstract interpretation over the typed
//! HIR that
//!
//! 1. detects induction variables and classifies each loop's iteration
//!    bound (constant / linear-in-local / linear-in-input-length /
//!    logarithmic / unknown) via interval + monotonic-progress analysis
//!    ([`bounds`]),
//! 2. composes those bounds over the static repetition structure — the
//!    loop forest plus recursion SCCs — into a predicted asymptotic class
//!    per repetition ([`compose`]), named exactly like the dynamic
//!    profiler's repetition nodes so predictions and empirical fits can
//!    be cross-validated, and
//! 3. hosts a span-carrying diagnostics framework ([`diag`]) with a
//!    catalog of lints (AP001–AP007; [`bounds`] + [`lints`]).
//!
//! The predictions are intentionally *worst-case* and coarse (a lattice
//! of big-O classes, not closed-form bounds): their purpose is to agree
//! or disagree with an empirical fit, giving the dynamic profiler a
//! correctness oracle and the static analysis a reality check — each
//! side auditing the other.
//!
//! # Example
//!
//! ```
//! use algoprof_analysis::analyze_source;
//! use algoprof_fit::ComplexityClass;
//!
//! let src = r#"
//!     class Main {
//!         static int main() {
//!             int n = readInput();
//!             int s = 0;
//!             for (int i = 0; i < n; i = i + 1) {
//!                 for (int j = 0; j < n; j = j + 1) { s = s + 1; }
//!             }
//!             return s;
//!         }
//!     }
//! "#;
//! let analysis = analyze_source(src).expect("compiles");
//! let outer = analysis
//!     .predictions
//!     .iter()
//!     .find(|p| p.name.contains("loop0"))
//!     .expect("outer loop predicted");
//! assert_eq!(outer.class, ComplexityClass::Quadratic);
//! ```

pub mod bounds;
pub mod compose;
pub mod costfn;
pub mod diag;
pub mod interval;
pub mod lints;
pub mod report;

use algoprof_vm::bytecode::CompiledProgram;
use algoprof_vm::callgraph::CallGraph;
use algoprof_vm::error::CompileError;
use algoprof_vm::hir::HFunction;
use algoprof_vm::{compile_with_bodies, InstrumentOptions};

pub use bounds::{BoundKind, FunctionSummary, LoopSummary};
pub use compose::{cost_map, prediction_map, Composer, FeatureCost, Prediction, PredictionKind};
pub use costfn::{CostFn, Feature, InductionVar, OpCounts, TripCount};
pub use diag::{Code, Diagnostic, Level, Span};
pub use interval::Interval;
pub use report::{render_json, render_text};

/// The complete result of analyzing one program.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Lint findings, in canonical order (line, code, function).
    pub diagnostics: Vec<Diagnostic>,
    /// Predicted asymptotic class per repetition, in function-table /
    /// pre-order.
    pub predictions: Vec<Prediction>,
    /// Whether any diagnostic is error-level.
    pub has_errors: bool,
}

impl Analysis {
    /// Looks up the prediction for a repetition by its dynamic name
    /// (`Class.method:loopN@Lline` or `Func (recursion)`).
    pub fn prediction(&self, name: &str) -> Option<&Prediction> {
        self.predictions.iter().find(|p| p.name == name)
    }
}

/// Analyzes jay source end to end: parse, type-check, then run the loop
/// bound classifier, lint catalog, and cost composition.
///
/// The source is parsed and type-checked once
/// ([`compile_with_bodies`]): the typed bodies feed the analysis, and
/// the program lowered from them is instrumented (with default options)
/// so predictions carry the exact repetition names the dynamic profiler
/// reports.
///
/// # Errors
///
/// Returns the first lexical, syntactic, or semantic error; a program
/// that does not compile cannot be analyzed.
pub fn analyze_source(source: &str) -> Result<Analysis, CompileError> {
    Ok(analyze_source_with_features(source)?.0)
}

/// Like [`analyze_source`], additionally splitting each repetition's
/// predicted cost by language feature (virtual dispatch, field access,
/// array access, allocation). The feature list is index-aligned with
/// `Analysis::predictions`.
///
/// # Errors
///
/// Returns the first lexical, syntactic, or semantic error.
pub fn analyze_source_with_features(
    source: &str,
) -> Result<(Analysis, Vec<FeatureCost>), CompileError> {
    let (bodies, compiled) = compile_with_bodies(source)?;
    let instrumented = compiled.instrument(&InstrumentOptions::default());
    Ok(analyze_program_with_features(&bodies, &instrumented))
}

/// Analyzes already-lowered bodies against their instrumented program.
///
/// `bodies` and `instrumented` must come from the same source and
/// compile options — loop pre-order ordinals in the HIR are matched
/// positionally against the instrumented program's natural-loop
/// ordinals.
pub fn analyze_program(bodies: &[HFunction], instrumented: &CompiledProgram) -> Analysis {
    analyze_program_with_features(bodies, instrumented).0
}

/// Like [`analyze_program`], also producing the per-feature cost
/// breakdown (index-aligned with the predictions).
pub fn analyze_program_with_features(
    bodies: &[HFunction],
    instrumented: &CompiledProgram,
) -> (Analysis, Vec<FeatureCost>) {
    let callgraph = CallGraph::build(instrumented);

    let mut diagnostics = Vec::new();
    let mut summaries = Vec::with_capacity(bodies.len());
    for body in bodies {
        let facts = bounds::Facts::collect(body);
        let (summary, diags) = bounds::summarize_function(body, &facts);
        summaries.push(summary);
        diagnostics.extend(diags);
    }
    diagnostics.extend(lints::lint_program(bodies, instrumented, &callgraph));

    let (predictions, features) =
        Composer::new(&summaries, instrumented, &callgraph).predictions_with_features(true);
    let has_errors = diag::finalize(&mut diagnostics);
    (
        Analysis {
            diagnostics,
            predictions,
            has_errors,
        },
        features,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use algoprof_fit::ComplexityClass;
    use algoprof_vm::compile;

    fn predict(src: &str, name_part: &str) -> ComplexityClass {
        let a = analyze_source(src).expect("analyzes");
        a.predictions
            .iter()
            .find(|p| p.name.contains(name_part))
            .unwrap_or_else(|| panic!("no prediction matching {name_part}: {:?}", a.predictions))
            .class
    }

    #[test]
    fn quadratic_nest_is_predicted() {
        let src = r#"class Main { static int main() {
            int n = readInput();
            int s = 0;
            for (int i = 0; i < n; i = i + 1) {
                for (int j = 0; j < n; j = j + 1) { s = s + 1; }
            }
            return s;
        } }"#;
        assert_eq!(predict(src, "loop0"), ComplexityClass::Quadratic);
        assert_eq!(predict(src, "loop1"), ComplexityClass::Linear);
    }

    #[test]
    fn linear_loop_calling_linear_helper_is_quadratic() {
        let src = r#"class Main {
            static int walk(int n) {
                int s = 0;
                for (int i = 0; i < n; i = i + 1) { s = s + 1; }
                return s;
            }
            static int main() {
                int n = readInput();
                int s = 0;
                for (int i = 0; i < n; i = i + 1) { s = s + Main.walk(n); }
                return s;
            }
        }"#;
        assert_eq!(predict(src, "Main.main:loop0"), ComplexityClass::Quadratic);
    }

    #[test]
    fn single_recursion_is_linear_branching_is_exponential() {
        let src = r#"class Main {
            static int down(int n) {
                if (n <= 0) { return 0; }
                return Main.down(n - 1) + 1;
            }
            static int fib(int n) {
                if (n < 2) { return n; }
                return Main.fib(n - 1) + Main.fib(n - 2);
            }
            static int main() { return Main.down(readInput()) + Main.fib(5); }
        }"#;
        let a = analyze_source(src).expect("analyzes");
        assert_eq!(
            a.prediction("Main.down (recursion)").expect("down").class,
            ComplexityClass::Linear
        );
        assert_eq!(
            a.prediction("Main.fib (recursion)").expect("fib").class,
            ComplexityClass::Exponential
        );
        // Well-formed recursion: no AP002.
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn prediction_names_match_instrumented_loop_names() {
        let src = r#"class Main { static int main() {
            int s = 0;
            for (int i = 0; i < 5; i = i + 1) { s = s + 1; }
            return s;
        } }"#;
        let a = analyze_source(src).expect("analyzes");
        let instrumented = compile(src)
            .expect("compiles")
            .instrument(&InstrumentOptions::default());
        let expected: Vec<String> = instrumented.loops.iter().map(|l| l.name.clone()).collect();
        let got: Vec<String> = a
            .predictions
            .iter()
            .filter(|p| p.kind == PredictionKind::Loop)
            .map(|p| p.name.clone())
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn compile_errors_propagate() {
        assert!(analyze_source("class Main { static int main() { return x; } }").is_err());
    }

    const INSERTION_SORT: &str = r#"class Main {
        static int main() {
            int size = readInput();
            int[] a = new int[size];
            Main.fill(a);
            Main.sort(a);
            return a.length;
        }
        static void fill(int[] a) {
            for (int i = 0; i < a.length; i = i + 1) { a[i] = a.length - i; }
        }
        static void sort(int[] a) {
            for (int i = 1; i < a.length; i = i + 1) {
                int key = a[i];
                int j = i;
                while (j > 0 && a[j - 1] > key) {
                    a[j] = a[j - 1];
                    j = j - 1;
                }
                a[j] = key;
            }
        }
    }"#;

    #[test]
    fn insertion_sort_cost_is_half_n_squared() {
        // The triangular recurrence solved in closed form: outer trips
        // n−1; inner trips i with i = 1 + k; Σ = (n−1) + Σₖ(1 + k)
        // = 0.5n² + 0.5n − 1. At n = 8 that is exactly the 35 steps
        // the dynamic profiler measures.
        let a = analyze_source(INSERTION_SORT).expect("analyzes");
        let p = a
            .predictions
            .iter()
            .find(|p| p.name.contains("Main.sort:loop0"))
            .expect("outer sort loop");
        assert_eq!(p.class, ComplexityClass::Quadratic);
        assert_eq!(p.cost.to_string(), "0.5*n^2 + 0.5*n - 1");
        let lead = p.cost.leading().expect("exact leading term");
        assert_eq!((lead.degree, lead.log), (2, false));
        assert!((lead.coeff - 0.5).abs() < 1e-9);
        assert!((p.cost.eval_terms(8.0) - 35.0).abs() < 1e-9);
        // The inner loop alone has no closed form over n (its trip
        // count depends on the outer induction variable): widened.
        let inner = a
            .predictions
            .iter()
            .find(|p| p.name.contains("Main.sort:loop1"))
            .expect("inner sort loop");
        assert!(inner.cost.leading().is_none());
        assert_eq!(inner.cost.class(), ComplexityClass::Linear);
        // The fill loop is exactly n.
        let fill = a
            .predictions
            .iter()
            .find(|p| p.name.contains("Main.fill:loop0"))
            .expect("fill loop");
        assert_eq!(fill.cost.to_string(), "n");
    }

    #[test]
    fn quadratic_nest_cost_is_n_squared_plus_n() {
        let src = r#"class Main { static int main() {
            int n = readInput();
            int s = 0;
            for (int i = 0; i < n; i = i + 1) {
                for (int j = 0; j < n; j = j + 1) { s = s + 1; }
            }
            return s;
        } }"#;
        let a = analyze_source(src).expect("analyzes");
        let outer = a
            .predictions
            .iter()
            .find(|p| p.name.contains("loop0"))
            .expect("outer");
        // n iterations, each costing 1 (itself) + n (inner execution).
        assert_eq!(outer.cost.to_string(), "n^2 + n");
        let inner = a
            .predictions
            .iter()
            .find(|p| p.name.contains("loop1"))
            .expect("inner");
        assert_eq!(inner.cost.to_string(), "n");
    }

    #[test]
    fn doubling_loop_cost_has_exact_log_coefficient() {
        let src = r#"class Main { static int main() {
            int n = readInput();
            int s = 0;
            for (int i = 1; i < n; i = i * 2) { s = s + 1; }
            return s;
        } }"#;
        let a = analyze_source(src).expect("analyzes");
        let p = a
            .predictions
            .iter()
            .find(|p| p.name.contains("loop0"))
            .expect("loop");
        // log₂(n)/log₂(2) = 1·log n, plus an O(1) tail for the start
        // value: the coefficient is exact, the constant is not.
        assert_eq!(p.cost.to_string(), "log n + O(1)");
        let lead = p.cost.leading().expect("leading log term");
        assert_eq!((lead.degree, lead.log), (0, true));
        assert!((lead.coeff - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sequential_loops_sharing_a_slot_keep_exact_trip_counts() {
        // The compiler reuses local slots, so both `i`s land on one
        // slot; the reaching-store fallback must still find each loop's
        // own initializer instead of widening.
        let src = r#"class Main { static int main() {
            int n = readInput();
            int[] a = new int[n];
            for (int i = 0; i < a.length; i = i + 1) { a[i] = 1; }
            for (int i = 1; i < a.length; i = i + 1) { a[i] = 2; }
            return 0;
        } }"#;
        let a = analyze_source(src).expect("analyzes");
        let costs: Vec<String> = a.predictions.iter().map(|p| p.cost.to_string()).collect();
        assert_eq!(costs, vec!["n".to_string(), "n - 1".to_string()]);
    }

    #[test]
    fn conditional_reinitialization_widens_honestly() {
        // Two inits reach the second loop (one under a branch): no
        // single reaching store, so the trip count must widen rather
        // than guess.
        let src = r#"class Main { static int main() {
            int n = readInput();
            int i = 0;
            for (i = 0; i < n; i = i + 1) { int x = i; }
            if (n > 4) { i = 2; } else { i = 3; }
            while (i < n) { i = i + 1; }
            return 0;
        } }"#;
        let a = analyze_source(src).expect("analyzes");
        let second = a.predictions.last().expect("second loop");
        assert_eq!(second.class, ComplexityClass::Linear);
        assert_eq!(second.cost.to_string(), "O(n)");
    }

    #[test]
    fn recursion_cost_widens_to_class() {
        let src = r#"class Main {
            static int down(int n) {
                if (n <= 0) { return 0; }
                return Main.down(n - 1) + 1;
            }
            static int main() { return Main.down(readInput()); }
        }"#;
        let a = analyze_source(src).expect("analyzes");
        let p = a.prediction("Main.down (recursion)").expect("down");
        assert_eq!(p.cost.to_string(), "O(n)");
        assert!(p.cost.leading().is_none());
    }

    #[test]
    fn feature_attribution_splits_array_accesses() {
        let (a, features) = analyze_source_with_features(INSERTION_SORT).expect("analyzes");
        assert_eq!(a.predictions.len(), features.len());
        let idx = a
            .predictions
            .iter()
            .position(|p| p.name.contains("Main.sort:loop0"))
            .expect("outer sort loop");
        let fc = &features[idx];
        let by_name = |name: &str| -> &CostFn {
            fc.features
                .iter()
                .find(|(f, _)| f.name() == name)
                .map(|(_, c)| c)
                .unwrap()
        };
        // Inner region: 2 reads (condition + shift) + 1 write per
        // iteration; outer region: 1 read + 1 write per iteration.
        // Σ over the triangular nest: 3·(0.5n²−0.5n) + 2·(n−1).
        assert_eq!(by_name("array-access").to_string(), "1.5*n^2 + 0.5*n - 2");
        // No virtual calls, fields, or allocations anywhere in sort.
        assert_eq!(by_name("virtual-dispatch").to_string(), "0");
        assert_eq!(by_name("field-access").to_string(), "0");
        assert_eq!(by_name("allocation").to_string(), "0");
    }
}

//! Cross-validation of static complexity predictions against dynamic
//! fits — each analysis auditing the other.
//!
//! The dynamic profiler fits models to observed ⟨input size, cost⟩
//! points; the [`algoprof_analysis`] crate predicts a big-O class for
//! every repetition from the source alone. This module lines the two up
//! per algorithm: because static predictions and dynamic repetition
//! nodes share names (`Class.method:loopN@Lline`, `Func (recursion)`),
//! comparing them is a dictionary lookup.
//!
//! Works on *any* [`AlgorithmicProfile`] plus the source it came from,
//! so trace recordings are checkable offline: the APTR header embeds the
//! source, and `algoprof analyze <trace> --check` replays the recording
//! while [`cross_validate`] re-analyzes the embedded source — no guest
//! re-execution.
//!
//! Agreement is judged at polynomial-degree granularity
//! ([`ComplexityClass::agrees_with`]): O(n log n) agrees with a linear
//! fit, and an `Unknown` on either side makes no claim (`agrees: None`)
//! rather than a spurious verdict.

use std::collections::HashMap;

use algoprof_analysis::{analyze_source, cost_map, CostFn};
use algoprof_fit::{check_coefficient, CoeffCheck, CoeffVerdict, ComplexityClass, Fit};
use algoprof_vm::error::CompileError;

use crate::profile::AlgorithmicProfile;

/// Static predictions of one source: asymptotic class and cost function
/// per repetition name ([`cost_map`]).
pub(crate) type Predictions = HashMap<String, (ComplexityClass, CostFn)>;

/// One algorithm's static prediction judged against its dynamic fit: the
/// part [`CrossCheck`] and [`SweepSeries`](crate::SweepSeries) share.
pub(crate) struct Verdict {
    /// Statically predicted class, when the analysis names the algorithm.
    pub predicted: Option<ComplexityClass>,
    /// The cost function behind the prediction.
    pub cost: Option<CostFn>,
    /// Class agreement; `None` when either side makes no claim.
    pub agrees: Option<bool>,
    /// Coefficient-level comparison of `cost`'s leading term against `fit`.
    pub coeff: CoeffCheck,
}

/// The verdict rule: looks `name` up in `predictions`, judges the
/// predicted class against `fit`'s ([`ComplexityClass::agrees_with`]),
/// then compares coefficients ([`check_coefficient`]).
pub(crate) fn verdict(predictions: &Predictions, name: &str, fit: Option<&Fit>) -> Verdict {
    let (predicted, cost) = match predictions.get(name) {
        Some((class, cost)) => (Some(*class), Some(cost.clone())),
        None => (None, None),
    };
    let agrees = match (predicted, fit) {
        (Some(p), Some(f)) => p.agrees_with(f.model.complexity_class()),
        _ => None,
    };
    let coeff = check_coefficient(predicted, cost.as_ref().and_then(CostFn::leading), fit);
    Verdict {
        predicted,
        cost,
        agrees,
        coeff,
    }
}

/// The verdict for one algorithm: static prediction vs dynamic fit.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossCheck {
    /// Root repetition name shared by both sides.
    pub name: String,
    /// Statically predicted class, when the analysis names this
    /// repetition.
    pub predicted: Option<ComplexityClass>,
    /// The symbolic cost function behind the prediction, with
    /// coefficients where the recurrence solver proved them.
    pub cost: Option<CostFn>,
    /// Class of the best dynamic fit over this profile's per-invocation
    /// ⟨size, steps⟩ points, when the series is fittable.
    pub fitted: Option<ComplexityClass>,
    /// `Some(true)`/`Some(false)` when both sides make a claim; `None`
    /// when either is missing or `Unknown`.
    pub agrees: Option<bool>,
    /// Coefficient-level comparison of the predicted cost function's
    /// leading term against the dynamic fit.
    pub coeff: CoeffCheck,
}

impl std::fmt::Display for CrossCheck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let show = |c: Option<ComplexityClass>| c.map(|c| c.big_o()).unwrap_or("-");
        let verdict = match self.agrees {
            Some(true) => "agrees",
            Some(false) => "DISAGREES",
            None => "unverified",
        };
        write!(
            f,
            "{}  predicted {}  fitted {}  [{}]",
            self.name,
            show(self.predicted),
            show(self.fitted),
            verdict
        )?;
        if let Some(cost) = &self.cost {
            write!(f, "  cost {cost}")?;
        }
        if self.coeff.verdict != CoeffVerdict::Unverified {
            write!(f, "  coeff[{}]", self.coeff.verdict.label())?;
            if let (Some(p), Some(fc)) = (self.coeff.predicted, self.coeff.fitted) {
                write!(f, " {p} vs {fc:.4}")?;
            }
        }
        Ok(())
    }
}

/// Cross-validates every algorithm of `profile` against the static
/// analysis of `source` (which must be the source the profile was made
/// from — for trace recordings, the header's embedded source).
///
/// Returns one [`CrossCheck`] per algorithm, in profile order.
///
/// # Errors
///
/// Returns the compile error when `source` does not compile (it cannot
/// then be the profiled program).
pub fn cross_validate(
    profile: &AlgorithmicProfile,
    source: &str,
) -> Result<Vec<CrossCheck>, CompileError> {
    let analysis = analyze_source(source)?;
    let predictions = cost_map(&analysis.predictions);
    Ok(profile
        .algorithms()
        .iter()
        .map(|algo| {
            let name = profile.node_name(algo.root).to_string();
            let fit = profile.fit_invocation_steps(algo.id);
            let v = verdict(&predictions, &name, fit.as_ref());
            CrossCheck {
                name,
                predicted: v.predicted,
                cost: v.cost,
                fitted: fit.map(|f| f.model.complexity_class()),
                agrees: v.agrees,
                coeff: v.coeff,
            }
        })
        .collect())
}

/// Renders cross-validation results as an aligned text block.
pub fn render_cross_checks(checks: &[CrossCheck]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("cross-validation (static prediction vs dynamic fit):\n");
    if checks.is_empty() {
        out.push_str("  (no algorithms)\n");
    }
    for c in checks {
        let _ = writeln!(out, "  {c}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{profile, Guest, RunConfig};
    use crate::AlgorithmicProfile;

    fn profile_sized_list(k: i64) -> AlgorithmicProfile {
        let config = RunConfig {
            input: vec![k],
            ..RunConfig::default()
        };
        profile(Guest::Source(SIZED_LIST), &config)
            .expect("profiles")
            .into_main()
    }

    // Figure-1 shape: a harness invokes the construction at growing
    // sizes, so the per-invocation ⟨size, steps⟩ series is fittable
    // within a single run.
    const SIZED_LIST: &str = "class Main {
        static int build(int n) {
            Node head = null;
            for (int i = 0; i < n; i = i + 1) {
                Node x = new Node(); x.next = head; head = x;
            }
            return 0;
        }
        static int main() {
            int k = readInput();
            for (int s = 1; s <= k; s = s + 1) { Main.build(s * 4); }
            return 0;
        }
    }
    class Node { Node next; }";

    #[test]
    fn construction_prediction_matches_dynamic_fit() {
        let profile = profile_sized_list(8);
        let checks = cross_validate(&profile, SIZED_LIST).expect("validates");
        assert!(!checks.is_empty());
        let c = checks
            .iter()
            .find(|c| c.name.contains("build:loop0"))
            .expect("construction check");
        assert_eq!(c.predicted, Some(ComplexityClass::Linear));
        assert_eq!(c.fitted, Some(ComplexityClass::Linear), "{c}");
        assert_eq!(c.agrees, Some(true), "{c}");
        let text = render_cross_checks(&checks);
        assert!(text.contains("[agrees]"), "{text}");
    }

    #[test]
    fn verdict_table() {
        use algoprof_fit::{fit_model, Model};
        use CoeffVerdict::{Agrees, Disagrees, Unverified};
        use ComplexityClass::{Linear, Quadratic, Unknown};

        let points: Vec<(f64, f64)> = (1..=8).map(|n| (n as f64, 2.0 * n as f64)).collect();
        let fit = fit_model(&points, Model::Linear).expect("linear fit");
        let predictions: Predictions = [
            ("linear", Linear, CostFn::from_term(1, false, 2.0)),
            ("quadratic", Quadratic, CostFn::from_term(2, false, 1.0)),
            ("unknown", Unknown, CostFn::widened(Unknown)),
        ]
        .into_iter()
        .map(|(name, class, cost)| (name.to_string(), (class, cost)))
        .collect();

        // (name, fitted?, predicted, agrees, coefficient verdict)
        let table = [
            ("absent", true, None, None, Unverified),
            ("absent", false, None, None, Unverified),
            ("unknown", true, Some(Unknown), None, Unverified),
            ("unknown", false, Some(Unknown), None, Unverified),
            ("linear", true, Some(Linear), Some(true), Agrees),
            ("linear", false, Some(Linear), None, Unverified),
            ("quadratic", true, Some(Quadratic), Some(false), Disagrees),
            ("quadratic", false, Some(Quadratic), None, Unverified),
        ];
        for (name, fitted, predicted, agrees, coeff) in table {
            let v = verdict(&predictions, name, fitted.then_some(&fit));
            let case = format!("{name}, fitted {fitted}");
            assert_eq!(v.predicted, predicted, "{case}");
            assert_eq!(
                v.cost,
                predictions.get(name).map(|(_, c)| c.clone()),
                "{case}"
            );
            assert_eq!(v.agrees, agrees, "{case}");
            assert_eq!(v.coeff.verdict, coeff, "{case}");
            if coeff == Unverified {
                assert_eq!(v.coeff, CoeffCheck::unverified(), "{case}");
            } else {
                assert_eq!(v.coeff.fitted, Some(fit.coeff), "{case}");
            }
        }
    }

    #[test]
    fn non_compiling_source_is_rejected() {
        let profile = profile_sized_list(4);
        assert!(cross_validate(&profile, "class Main {").is_err());
    }
}

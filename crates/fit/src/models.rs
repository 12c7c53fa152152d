//! Complexity model candidates for empirical cost-function fitting.

use std::fmt;

/// A candidate asymptotic model `cost ≈ coeff · g(n) + intercept`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Model {
    /// `g(n) = 1` — constant cost.
    Constant,
    /// `g(n) = log₂ n`.
    Logarithmic,
    /// `g(n) = n`.
    Linear,
    /// `g(n) = n·log₂ n`.
    Linearithmic,
    /// `g(n) = n²`.
    Quadratic,
    /// `g(n) = n³`.
    Cubic,
}

impl Model {
    /// All candidates, in increasing asymptotic order.
    pub const ALL: [Model; 6] = [
        Model::Constant,
        Model::Logarithmic,
        Model::Linear,
        Model::Linearithmic,
        Model::Quadratic,
        Model::Cubic,
    ];

    /// Evaluates the basis function `g(n)`. `log(n)` is clamped at `n = 1`
    /// so sizes 0 and 1 do not produce `-inf`.
    pub fn basis(self, n: f64) -> f64 {
        let ln = if n > 1.0 { n.log2() } else { 0.0 };
        match self {
            Model::Constant => 1.0,
            Model::Logarithmic => ln,
            Model::Linear => n,
            Model::Linearithmic => n * ln,
            Model::Quadratic => n * n,
            Model::Cubic => n * n * n,
        }
    }

    /// The number of free parameters this model uses when fitted with an
    /// intercept (for the BIC complexity penalty).
    pub fn parameter_count(self) -> usize {
        match self {
            Model::Constant => 1,
            _ => 2,
        }
    }

    /// The conventional big-O name.
    pub fn big_o(self) -> &'static str {
        match self {
            Model::Constant => "O(1)",
            Model::Logarithmic => "O(log n)",
            Model::Linear => "O(n)",
            Model::Linearithmic => "O(n log n)",
            Model::Quadratic => "O(n^2)",
            Model::Cubic => "O(n^3)",
        }
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let g = match self {
            Model::Constant => "1",
            Model::Logarithmic => "log n",
            Model::Linear => "n",
            Model::Linearithmic => "n log n",
            Model::Quadratic => "n^2",
            Model::Cubic => "n^3",
        };
        f.write_str(g)
    }
}

/// An asymptotic complexity class, shared between the empirical fits in
/// this crate and the static predictions in `algoprof-analysis`. Richer
/// than [`Model`]: it carries `Exponential` (statically derivable from
/// branching recursion but never fitted from the polynomial/log basis)
/// and `Unknown` (the static analysis makes no claim).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ComplexityClass {
    /// O(1).
    Constant,
    /// O(log n).
    Logarithmic,
    /// O(n).
    Linear,
    /// O(n log n).
    Linearithmic,
    /// O(n²).
    Quadratic,
    /// O(n³).
    Cubic,
    /// O(2ⁿ) (or worse).
    Exponential,
    /// No claim; compares as the top of the lattice.
    Unknown,
}

impl ComplexityClass {
    /// The conventional big-O name.
    pub fn big_o(self) -> &'static str {
        match self {
            ComplexityClass::Constant => "O(1)",
            ComplexityClass::Logarithmic => "O(log n)",
            ComplexityClass::Linear => "O(n)",
            ComplexityClass::Linearithmic => "O(n log n)",
            ComplexityClass::Quadratic => "O(n^2)",
            ComplexityClass::Cubic => "O(n^3)",
            ComplexityClass::Exponential => "O(2^n)",
            ComplexityClass::Unknown => "O(?)",
        }
    }

    /// The polynomial degree used for agreement checks: log factors do
    /// not change the degree (O(n log n) has degree 1), exponential and
    /// unknown have none.
    fn degree(self) -> Option<u32> {
        match self {
            ComplexityClass::Constant | ComplexityClass::Logarithmic => Some(0),
            ComplexityClass::Linear | ComplexityClass::Linearithmic => Some(1),
            ComplexityClass::Quadratic => Some(2),
            ComplexityClass::Cubic => Some(3),
            ComplexityClass::Exponential | ComplexityClass::Unknown => None,
        }
    }

    /// Whether a static prediction and an empirical fit agree, comparing
    /// at polynomial-degree granularity (an O(n log n) fit agrees with a
    /// predicted O(n): the log factor is below the resolution of the
    /// degree comparison). Returns `None` when either side is `Unknown`
    /// — the static analysis made no claim, so there is nothing to
    /// validate.
    pub fn agrees_with(self, fitted: ComplexityClass) -> Option<bool> {
        if self == ComplexityClass::Unknown || fitted == ComplexityClass::Unknown {
            return None;
        }
        if self == ComplexityClass::Exponential || fitted == ComplexityClass::Exponential {
            return Some(self == fitted);
        }
        Some(self.degree() == fitted.degree())
    }

    /// Sequential composition: the class of `A; B` is the larger class.
    pub fn seq(self, other: ComplexityClass) -> ComplexityClass {
        self.max(other)
    }

    /// Nested composition: the class of running an `other`-cost body
    /// `self`-many times. Polynomial degrees add (log factors saturate
    /// at one); anything past cubic leaves the representable basis and
    /// becomes `Unknown`; exponential absorbs everything but unknown.
    pub fn nest(self, other: ComplexityClass) -> ComplexityClass {
        use ComplexityClass::*;
        if self == Unknown || other == Unknown {
            return Unknown;
        }
        if self == Exponential || other == Exponential {
            return Exponential;
        }
        let degree = self.degree().unwrap() + other.degree().unwrap();
        let has_log = matches!(self, Logarithmic | Linearithmic)
            || matches!(other, Logarithmic | Linearithmic);
        match (degree, has_log) {
            (0, false) => Constant,
            (0, true) => Logarithmic,
            (1, false) => Linear,
            (1, true) => Linearithmic,
            (2, false) => Quadratic,
            (3, false) => Cubic,
            // n²·log n, n³·log n, n⁴, … are outside the fitted basis.
            _ => Unknown,
        }
    }
}

impl fmt::Display for ComplexityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.big_o())
    }
}

impl Model {
    /// The complexity class this model family belongs to.
    pub fn complexity_class(self) -> ComplexityClass {
        match self {
            Model::Constant => ComplexityClass::Constant,
            Model::Logarithmic => ComplexityClass::Logarithmic,
            Model::Linear => ComplexityClass::Linear,
            Model::Linearithmic => ComplexityClass::Linearithmic,
            Model::Quadratic => ComplexityClass::Quadratic,
            Model::Cubic => ComplexityClass::Cubic,
        }
    }
}

/// A fitted cost function `cost ≈ coeff · g(n) + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fit {
    /// The model family.
    pub model: Model,
    /// Scale coefficient.
    pub coeff: f64,
    /// Additive intercept.
    pub intercept: f64,
    /// Coefficient of determination on the fitted data (1 = perfect).
    pub r2: f64,
    /// Root mean squared error on the fitted data.
    pub rmse: f64,
    /// Bayesian information criterion (lower is better); used for model
    /// selection across candidates.
    pub bic: f64,
    /// Number of points fitted.
    pub n_points: usize,
}

impl Fit {
    /// Predicted cost at size `n`.
    pub fn predict(&self, n: f64) -> f64 {
        self.coeff * self.model.basis(n) + self.intercept
    }
}

impl fmt::Display for Fit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.model == Model::Constant {
            return write!(f, "cost = {:.4}", self.coeff + self.intercept);
        }
        write!(f, "cost = {:.4}*{}", self.coeff, self.model)?;
        if self.intercept.abs() > 1e-9 {
            write!(
                f,
                " {} {:.4}",
                if self.intercept >= 0.0 { "+" } else { "-" },
                self.intercept.abs()
            )?;
        }
        write!(f, "  (R^2 = {:.4})", self.r2)
    }
}

/// A power-law fit `cost ≈ coeff · n^exponent` from log–log regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerFit {
    /// Scale coefficient.
    pub coeff: f64,
    /// Fitted exponent (the empirical order of growth).
    pub exponent: f64,
    /// Coefficient of determination in log–log space.
    pub r2: f64,
    /// Number of points used (only `n > 0`, `cost > 0`).
    pub n_points: usize,
}

impl PowerFit {
    /// Predicted cost at size `n`.
    pub fn predict(&self, n: f64) -> f64 {
        self.coeff * n.powf(self.exponent)
    }
}

impl fmt::Display for PowerFit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cost = {:.4}*n^{:.3}  (R^2 = {:.4})",
            self.coeff, self.exponent, self.r2
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basis_values() {
        assert_eq!(Model::Constant.basis(17.0), 1.0);
        assert_eq!(Model::Linear.basis(17.0), 17.0);
        assert_eq!(Model::Quadratic.basis(4.0), 16.0);
        assert_eq!(Model::Cubic.basis(3.0), 27.0);
        assert_eq!(Model::Logarithmic.basis(8.0), 3.0);
        assert_eq!(Model::Linearithmic.basis(8.0), 24.0);
    }

    #[test]
    fn basis_is_finite_at_small_sizes() {
        for m in Model::ALL {
            assert!(m.basis(0.0).is_finite());
            assert!(m.basis(1.0).is_finite());
        }
    }

    #[test]
    fn fit_predict_and_display() {
        let fit = Fit {
            model: Model::Quadratic,
            coeff: 0.25,
            intercept: 0.0,
            r2: 1.0,
            rmse: 0.0,
            bic: -1.0,
            n_points: 10,
        };
        assert_eq!(fit.predict(10.0), 25.0);
        let s = fit.to_string();
        assert!(s.contains("0.25"));
        assert!(s.contains("n^2"));
    }

    #[test]
    fn power_fit_predicts() {
        let p = PowerFit {
            coeff: 2.0,
            exponent: 1.5,
            r2: 1.0,
            n_points: 5,
        };
        assert!((p.predict(4.0) - 16.0).abs() < 1e-9);
        assert!(!p.to_string().is_empty());
    }

    #[test]
    fn big_o_names() {
        assert_eq!(Model::Quadratic.big_o(), "O(n^2)");
        assert_eq!(Model::Linearithmic.big_o(), "O(n log n)");
    }
}

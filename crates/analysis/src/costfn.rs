//! Symbolic cost functions: polynomial / log-polynomial bounds **with
//! coefficients** over the input-size parameter `n`.
//!
//! The class lattice in [`compose`](crate::compose) answers "how does
//! cost grow?"; this module answers "by how much?", in the spirit of
//! López-García et al.'s parametric static profiling: every repetition
//! gets a closed-form worst-case cost function such as
//! `0.5*n^2 + 0.5*n - 1`, derived by solving the loop-bound recurrences
//! the interval/induction analysis already computes —
//!
//! * a counted loop's trip count is `(bound − init) / step`, an affine
//!   form in `n` built from the same interval facts that classified its
//!   [`BoundKind`](crate::bounds::BoundKind);
//! * a nest whose inner bound is the outer induction variable is a
//!   **triangular recurrence**: summing the affine trip count over the
//!   outer iteration space gives the closed form
//!   `Σₖ (i₀ + s·k) = i₀·T + s·(T² − T)/2` — the `0.5·n²` of insertion
//!   sort, with the coefficient proven rather than guessed;
//! * multiplicative progress contributes `log₂ n / log₂ step`;
//! * everything the solver cannot prove is **widened** to an `O(class)`
//!   term that keeps the class claim but surrenders the coefficient
//!   (recursion SCCs, bounds behind unanalyzable heap reads, saturated
//!   log products, data-dependent trip counts).
//!
//! A [`CostFn`] therefore has two parts: exact terms (coefficient ×
//! basis) and an optional widened `O(class)` tail. Its leading
//! coefficient is only reported when every term at or above the leading
//! exact term's class is exact — an honest claim, checkable against the
//! empirically fitted coefficient.
//!
//! The same composition, run with per-loop *feature weights* instead of
//! the constant iteration weight, splits a predicted cost by language
//! feature (virtual dispatch, field access, array access, allocation) —
//! feature-specific profiling in the sense of Andersen et al., but
//! static.

use std::collections::BTreeMap;
use std::fmt;

use algoprof_fit::{ComplexityClass, LeadingTerm};
use algoprof_vm::bytecode::CompiledProgram;
use algoprof_vm::callgraph::{cha_targets, CallGraph};
use algoprof_vm::hir::LocalSlot;

use crate::bounds::{CallSite, FunctionSummary};

/// One basis term `n^degree · (log n)^{0,1}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Term {
    degree: u8,
    log: bool,
}

impl Term {
    /// The complexity class of this basis term, `None` when the pair is
    /// outside the representable basis (degree > 3, or a log factor on
    /// a degree-2+ term).
    fn class(self) -> Option<ComplexityClass> {
        match (self.degree, self.log) {
            (0, false) => Some(ComplexityClass::Constant),
            (0, true) => Some(ComplexityClass::Logarithmic),
            (1, false) => Some(ComplexityClass::Linear),
            (1, true) => Some(ComplexityClass::Linearithmic),
            (2, false) => Some(ComplexityClass::Quadratic),
            (3, false) => Some(ComplexityClass::Cubic),
            _ => None,
        }
    }

    fn basis_name(self) -> &'static str {
        match (self.degree, self.log) {
            (0, false) => "",
            (0, true) => "log n",
            (1, false) => "n",
            (1, true) => "n log n",
            (2, false) => "n^2",
            _ => "n^3",
        }
    }
}

/// Coefficients smaller than this are treated as zero (they only arise
/// as exact cancellations with rounding noise).
const EPS: f64 = 1e-9;

/// A symbolic worst-case cost function over the input-size parameter
/// `n`: a sum of exact terms `coeff · n^d · (log n)^l` plus an optional
/// widened `O(class)` tail whose coefficient is unprovable.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CostFn {
    /// Exact terms, keyed by basis.
    terms: BTreeMap<Term, f64>,
    /// The widened tail: an upper bound of this class holds, with an
    /// unknown constant factor.
    widened: Option<ComplexityClass>,
}

impl CostFn {
    /// The zero cost function.
    pub fn zero() -> CostFn {
        CostFn::default()
    }

    /// The constant cost `k`.
    pub fn constant(k: f64) -> CostFn {
        CostFn::from_term(0, false, k)
    }

    /// A single exact term `coeff · n^degree · (log n)^log`. Terms
    /// outside the representable basis widen to their class instead.
    pub fn from_term(degree: u8, log: bool, coeff: f64) -> CostFn {
        let mut out = CostFn::zero();
        out.push_term(Term { degree, log }, coeff);
        out
    }

    /// The fully widened cost `O(class)` — no exact coefficients.
    pub fn widened(class: ComplexityClass) -> CostFn {
        CostFn {
            terms: BTreeMap::new(),
            widened: Some(class),
        }
    }

    /// Whether this is exactly zero (no terms, no widened tail).
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty() && self.widened.is_none()
    }

    fn push_term(&mut self, t: Term, coeff: f64) {
        if coeff.abs() <= EPS {
            return;
        }
        if t.class().is_none() || !coeff.is_finite() {
            // Outside the representable basis (or numerically broken):
            // the honest claim is the class alone.
            self.widen(term_overflow_class(t));
            return;
        }
        let entry = self.terms.entry(t).or_insert(0.0);
        *entry += coeff;
        if entry.abs() <= EPS {
            self.terms.remove(&t);
        }
    }

    fn widen(&mut self, class: ComplexityClass) {
        self.widened = Some(match self.widened {
            Some(w) => w.max(class),
            None => class,
        });
    }

    /// The class of the exact part alone (`None` when there are no
    /// exact terms).
    fn exact_class(&self) -> Option<ComplexityClass> {
        self.terms
            .keys()
            .filter_map(|t| t.class())
            .max_by_key(|c| *c as u8)
    }

    /// The overall complexity class this cost function claims.
    pub fn class(&self) -> ComplexityClass {
        match (self.exact_class(), self.widened) {
            (Some(a), Some(b)) => a.max(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => ComplexityClass::Constant,
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &CostFn) -> CostFn {
        let mut out = self.clone();
        for (t, c) in &other.terms {
            out.push_term(*t, *c);
        }
        if let Some(w) = other.widened {
            out.widen(w);
        }
        out
    }

    /// `k · self`. The widened tail is class-level and absorbs constant
    /// factors unchanged.
    pub fn scale(&self, k: f64) -> CostFn {
        let mut out = CostFn {
            terms: BTreeMap::new(),
            widened: self.widened,
        };
        for (t, c) in &self.terms {
            out.push_term(*t, c * k);
        }
        out
    }

    /// `self · other` — the closed form for "run an `other`-cost body
    /// `self`-many times" when both sides are polynomial. Products that
    /// leave the representable basis (a second log factor, degree > 3)
    /// widen to their class; any widened input widens the corresponding
    /// product by class composition.
    pub fn mul(&self, other: &CostFn) -> CostFn {
        let mut out = CostFn::zero();
        for (ta, ca) in &self.terms {
            for (tb, cb) in &other.terms {
                let t = Term {
                    degree: ta.degree + tb.degree,
                    log: ta.log || tb.log,
                };
                if ta.log && tb.log {
                    // log·log saturates to a single log factor in the
                    // class lattice; the coefficient is no longer exact.
                    out.widen(term_overflow_class(t));
                } else {
                    out.push_term(t, ca * cb);
                }
            }
        }
        let a_exact = self.exact_class();
        let b_exact = other.exact_class();
        if let Some(wa) = self.widened {
            if let Some(be) = b_exact {
                out.widen(wa.nest(be));
            }
            if let Some(wb) = other.widened {
                out.widen(wa.nest(wb));
            }
        }
        if let Some(wb) = other.widened {
            if let Some(ae) = a_exact {
                out.widen(ae.nest(wb));
            }
        }
        out
    }

    /// The leading exact term, reported only when its class strictly
    /// dominates the widened tail — otherwise the coefficient claim
    /// would be hollow (an `O(n²)` tail under an exact `n²` term means
    /// the true leading coefficient is unknown).
    pub fn leading(&self) -> Option<LeadingTerm> {
        let (t, c) = self.terms.iter().next_back()?;
        let t_class = t.class()?;
        if let Some(w) = self.widened {
            if w >= t_class {
                return None;
            }
        }
        Some(LeadingTerm {
            degree: t.degree as u32,
            log: t.log,
            coeff: *c,
        })
    }

    /// Evaluates the **exact terms** at size `n` (`log` clamped at
    /// `n = 1`, matching the fitted basis). The widened tail is not
    /// included, so a widened cost (rendered with a `+ O(class)` tail)
    /// is not bounded by this value.
    pub fn eval_terms(&self, n: f64) -> f64 {
        let ln = if n > 1.0 { n.log2() } else { 0.0 };
        self.terms
            .iter()
            .map(|(t, c)| {
                let mut v = *c;
                for _ in 0..t.degree {
                    v *= n;
                }
                if t.log {
                    v *= ln;
                }
                v
            })
            .sum()
    }
}

/// The class a basis-overflowing term widens to, per the same rules as
/// [`ComplexityClass::nest`]: one log factor saturates the lattice's
/// log bit, anything past the representable basis is `Unknown`.
fn term_overflow_class(t: Term) -> ComplexityClass {
    match (t.degree, t.log) {
        (0, true) => ComplexityClass::Logarithmic,
        (1, true) => ComplexityClass::Linearithmic,
        _ => ComplexityClass::Unknown,
    }
}

/// Formats a coefficient: integers without a decimal point, everything
/// else with Rust's shortest-roundtrip `Display` (deterministic).
fn fmt_coeff(c: f64) -> String {
    if c == c.trunc() && c.abs() < 1e15 {
        format!("{}", c as i64)
    } else {
        format!("{c}")
    }
}

impl fmt::Display for CostFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.write_str("0");
        }
        let mut first = true;
        for (t, c) in self.terms.iter().rev() {
            let mag = c.abs();
            if first {
                if *c < 0.0 {
                    f.write_str("-")?;
                }
                first = false;
            } else if *c < 0.0 {
                f.write_str(" - ")?;
            } else {
                f.write_str(" + ")?;
            }
            let basis = t.basis_name();
            if basis.is_empty() {
                f.write_str(&fmt_coeff(mag))?;
            } else if (mag - 1.0).abs() <= EPS {
                f.write_str(basis)?;
            } else {
                write!(f, "{}*{}", fmt_coeff(mag), basis)?;
            }
        }
        if let Some(w) = self.widened {
            if first {
                f.write_str(w.big_o())?;
            } else {
                write!(f, " + {}", w.big_o())?;
            }
        }
        Ok(())
    }
}

// ------------------------------------------------- symbolic trip counts

/// A loop's symbolic trip count:
/// `trips = fixed(n) + coeff · value(outer slot)`, where the optional
/// `outer` component references an **enclosing** loop's induction
/// variable — the triangular-nest case the composer sums in closed
/// form.
#[derive(Debug, Clone, PartialEq)]
pub struct TripCount {
    /// The part that depends only on the input-size parameter.
    pub fixed: CostFn,
    /// `(slot, coeff)`: an additional `coeff · v` trips where `v` is
    /// the current value of an enclosing loop's induction variable.
    pub outer: Option<(LocalSlot, f64)>,
}

impl TripCount {
    /// A trip count with no provable coefficient: `O(class)` iterations.
    pub fn widened(class: ComplexityClass) -> TripCount {
        TripCount {
            fixed: CostFn::widened(class),
            outer: None,
        }
    }

    /// An exact trip count depending only on `n`.
    pub fn exact(fixed: CostFn) -> TripCount {
        TripCount { fixed, outer: None }
    }
}

/// The induction variable a counted loop progresses, with the constant
/// initial value and signed additive step when the solver proved them —
/// exactly what the triangular closed form `Σₖ (i₀ + s·k)` needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InductionVar {
    /// The progressing local.
    pub slot: LocalSlot,
    /// Constant initial value, when every non-progress store is one
    /// provable constant.
    pub init: Option<f64>,
    /// Signed additive step, when all progress stores agree on it.
    pub step: Option<f64>,
}

/// Per-region static operation counts for feature attribution. A region
/// is a loop's own straight-line code (nested loops excluded — they
/// carry their own counts) or a function's code outside every loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounts {
    /// Virtual (dynamically dispatched) call sites.
    pub virtual_calls: u32,
    /// Field reads (`x.f`).
    pub field_reads: u32,
    /// Field writes (`x.f = v`).
    pub field_writes: u32,
    /// Array element reads (`a[i]`).
    pub array_reads: u32,
    /// Array element writes (`a[i] = v`).
    pub array_writes: u32,
    /// Object and array allocations.
    pub allocs: u32,
}

/// A language feature the cost attribution can split by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feature {
    /// Virtually dispatched calls.
    VirtualDispatch,
    /// Field reads + writes.
    FieldAccess,
    /// Array element reads + writes.
    ArrayAccess,
    /// Object and array allocations (array growth shows up here).
    Allocation,
}

impl Feature {
    /// All features, in report order.
    pub const ALL: [Feature; 4] = [
        Feature::VirtualDispatch,
        Feature::FieldAccess,
        Feature::ArrayAccess,
        Feature::Allocation,
    ];

    /// Stable report name.
    pub fn name(self) -> &'static str {
        match self {
            Feature::VirtualDispatch => "virtual-dispatch",
            Feature::FieldAccess => "field-access",
            Feature::ArrayAccess => "array-access",
            Feature::Allocation => "allocation",
        }
    }

    /// The per-region weight of this feature.
    pub fn weight(self, ops: &OpCounts) -> f64 {
        (match self {
            Feature::VirtualDispatch => ops.virtual_calls,
            Feature::FieldAccess => ops.field_reads + ops.field_writes,
            Feature::ArrayAccess => ops.array_reads + ops.array_writes,
            Feature::Allocation => ops.allocs,
        }) as f64
    }
}

// ---------------------------------------------------------- composition

/// Cost of one full execution of a loop (all iterations, nested
/// repetitions and callees folded in): a part depending only on `n`,
/// plus an optional part proportional to an enclosing induction
/// variable's current value (propagated upward until the owning loop
/// sums it in closed form).
struct LoopExec {
    fixed: CostFn,
    outer: Option<(LocalSlot, CostFn)>,
}

/// Composes symbolic [`CostFn`]s over the loop forest and call graph,
/// mirroring the class composition in [`crate::compose`] but carrying
/// coefficients. One composer per *weight model*: the steps model
/// weighs every loop iteration 1 (matching the dynamic profiler's step
/// counter), a feature model weighs each region by its static op count.
pub(crate) struct CostComposer<'a> {
    summaries: &'a [FunctionSummary],
    program: &'a CompiledProgram,
    callgraph: &'a CallGraph,
    /// Steps class per function (recursion multiplier included), from
    /// the class composer — what widened recursion costs collapse to.
    fn_class: &'a [ComplexityClass],
    /// Per-iteration weight for `(function, loop)`.
    loop_w: Vec<Vec<f64>>,
    /// Per-invocation weight of each function's code outside loops.
    top_w: Vec<f64>,
    /// Whether recursion itself carries weight: true for the steps
    /// model (the dynamic profiler counts every recursive call as a
    /// step), false for feature models (a feature absent from an SCC
    /// contributes nothing, multiplier or not).
    recursion_counts: bool,
    memo: Vec<Option<CostFn>>,
    in_progress: Vec<bool>,
}

impl<'a> CostComposer<'a> {
    /// The steps model: every loop iteration costs 1 (recursive calls
    /// are folded in through the widened recursion costs).
    pub(crate) fn steps(
        summaries: &'a [FunctionSummary],
        program: &'a CompiledProgram,
        callgraph: &'a CallGraph,
        fn_class: &'a [ComplexityClass],
    ) -> CostComposer<'a> {
        let loop_w = summaries.iter().map(|s| vec![1.0; s.loops.len()]).collect();
        let top_w = vec![0.0; summaries.len()];
        CostComposer::with_weights(summaries, program, callgraph, fn_class, loop_w, top_w, true)
    }

    /// A feature model: each region weighs its static op count for
    /// `feature`.
    pub(crate) fn feature(
        summaries: &'a [FunctionSummary],
        program: &'a CompiledProgram,
        callgraph: &'a CallGraph,
        fn_class: &'a [ComplexityClass],
        feature: Feature,
    ) -> CostComposer<'a> {
        let loop_w = summaries
            .iter()
            .map(|s| s.loops.iter().map(|l| feature.weight(&l.ops)).collect())
            .collect();
        let top_w = summaries
            .iter()
            .map(|s| feature.weight(&s.top_ops))
            .collect();
        CostComposer::with_weights(
            summaries, program, callgraph, fn_class, loop_w, top_w, false,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn with_weights(
        summaries: &'a [FunctionSummary],
        program: &'a CompiledProgram,
        callgraph: &'a CallGraph,
        fn_class: &'a [ComplexityClass],
        loop_w: Vec<Vec<f64>>,
        top_w: Vec<f64>,
        recursion_counts: bool,
    ) -> CostComposer<'a> {
        let n = summaries.len();
        CostComposer {
            summaries,
            program,
            callgraph,
            fn_class,
            loop_w,
            top_w,
            recursion_counts,
            memo: vec![None; n],
            in_progress: vec![false; n],
        }
    }

    /// Worst-case cost of the repetition rooted at loop `l` of function
    /// `f`, per invocation of the repetition (one full loop execution).
    /// Loops whose per-execution cost depends on an enclosing induction
    /// variable have no invocation-level closed form over `n` alone and
    /// widen to their class.
    pub(crate) fn loop_cost(&mut self, f: usize, l: usize, class: ComplexityClass) -> CostFn {
        let exec = self.loop_exec(f, l);
        match exec.outer {
            None => exec.fixed,
            Some(_) => CostFn::widened(class),
        }
    }

    /// Worst-case cost per invocation of function `f` (what a call site
    /// pays). Recursive functions widen to their class: the recursion
    /// depth multiplier has no provable constant.
    pub(crate) fn func_cost(&mut self, f: usize) -> CostFn {
        if let Some(c) = &self.memo[f] {
            return c.clone();
        }
        if self.in_progress[f] {
            // Cycle cut; the widening below restores the blow-up.
            return CostFn::zero();
        }
        self.in_progress[f] = true;

        let mut cost = CostFn::constant(self.top_w[f]);
        let top_calls: Vec<CallSite> = self.summaries[f].top_calls.clone();
        let top_loops: Vec<usize> = self.summaries[f]
            .loops
            .iter()
            .enumerate()
            .filter(|(_, lp)| lp.parent.is_none())
            .map(|(i, _)| i)
            .collect();
        for site in top_calls {
            cost = cost.add(&self.call_cost(site));
        }
        for l in top_loops {
            let exec = self.loop_exec(f, l);
            cost = cost.add(&exec.fixed);
            if let Some((_, unit)) = exec.outer {
                // A top-level loop cannot depend on an enclosing
                // induction variable; only malformed trip-count facts
                // reach here. Widen honestly.
                cost = cost.add(&CostFn::widened(unit.class().nest(ComplexityClass::Linear)));
            }
        }

        let total = if self.callgraph.potentially_recursive[f] {
            if cost.is_zero() && !self.recursion_counts {
                // Nothing in the SCC carries weight under this model
                // (e.g. a recursion with no array accesses): the exact
                // zero survives the multiplier.
                CostFn::zero()
            } else {
                CostFn::widened(self.fn_class[f])
            }
        } else {
            cost
        };

        self.in_progress[f] = false;
        self.memo[f] = Some(total.clone());
        total
    }

    /// Cost of one full execution of loop `l` in function `f`.
    fn loop_exec(&mut self, f: usize, l: usize) -> LoopExec {
        let lp = &self.summaries[f].loops[l];
        let trips = lp.trips.clone();
        let induction = lp.induction;
        let calls: Vec<CallSite> = lp.calls.clone();
        let children: Vec<usize> = lp.children.clone();
        let w = self.loop_w[f][l];

        // Per-iteration cost: this loop's own weight, plus callees,
        // plus the v-independent part of each nested loop's execution.
        let mut per_iter = CostFn::constant(w);
        // Cost proportional to *our* induction variable's value, from
        // children whose trip counts reference it (triangular nests).
        let mut tri = CostFn::zero();
        // Cost proportional to a further-out loop's variable, constant
        // during our execution: propagate upward scaled by our trips.
        let mut prop: Option<(LocalSlot, CostFn)> = None;
        for site in calls {
            per_iter = per_iter.add(&self.call_cost(site));
        }
        for c in children {
            let ce = self.loop_exec(f, c);
            per_iter = per_iter.add(&ce.fixed);
            if let Some((slot, unit)) = ce.outer {
                if induction.is_some_and(|iv| iv.slot == slot) {
                    tri = tri.add(&unit);
                } else {
                    match &mut prop {
                        None => prop = Some((slot, unit)),
                        Some((ps, pu)) if *ps == slot => *pu = pu.add(&unit),
                        Some(_) => {
                            // A second distinct outer variable: widen it
                            // into the per-iteration cost (its magnitude
                            // is at most linear in the input).
                            per_iter = per_iter
                                .add(&CostFn::widened(unit.class().nest(ComplexityClass::Linear)));
                        }
                    }
                }
            }
        }

        match trips.outer {
            Some((oslot, ocoeff)) => {
                // Our own trip count depends on an enclosing variable
                // `v`: exec(v) = (fixed + ocoeff·v) · per_iter. Any
                // triangular or propagated component under us would be
                // quadratic in `v` — outside the linear outer form —
                // so it widens (induction values are at most linear in
                // the input).
                let mut fixed = trips.fixed.mul(&per_iter);
                if !tri.is_zero() {
                    fixed = fixed.add(&CostFn::widened(
                        tri.class().nest(ComplexityClass::Quadratic),
                    ));
                }
                if let Some((_, pu)) = prop {
                    fixed = fixed.add(&CostFn::widened(
                        pu.class().nest(ComplexityClass::Quadratic),
                    ));
                }
                LoopExec {
                    fixed,
                    outer: Some((oslot, per_iter.scale(ocoeff))),
                }
            }
            None => {
                let t = trips.fixed;
                let mut fixed = t.mul(&per_iter);
                if !tri.is_zero() {
                    // Triangular closed form: our induction variable
                    // takes the values i₀ + s·k for k = 0..T, so
                    //   Σₖ tri·(i₀ + s·k)
                    //     = tri · (i₀·T + s·(T² − T)/2).
                    let solved = induction.and_then(|iv| Some((iv.init?, iv.step?)));
                    match solved {
                        Some((i0, s)) => {
                            let t2 = t.mul(&t);
                            let sum_v = t.scale(i0).add(&t2.add(&t.scale(-1.0)).scale(0.5 * s));
                            fixed = fixed.add(&tri.mul(&sum_v));
                        }
                        None => {
                            // The recurrence has no constant base case:
                            // keep the class (v is bounded by the trip
                            // count's own class), drop the coefficient.
                            let cls = tri.class().nest(t.class()).nest(t.class());
                            fixed = fixed.add(&CostFn::widened(cls));
                        }
                    }
                }
                let outer = prop.map(|(slot, unit)| (slot, unit.mul(&t)));
                LoopExec { fixed, outer }
            }
        }
    }

    /// Worst-case cost of one call through `site`: virtual sites take a
    /// term-wise maximum over the CHA targets (a sound upper bound for
    /// `max(f, g)` with non-negative coefficients).
    fn call_cost(&mut self, site: CallSite) -> CostFn {
        if site.virtual_dispatch {
            let targets = cha_targets(self.program, site.callee);
            let mut worst = CostFn::zero();
            for t in targets {
                let c = self.func_cost(t.index());
                worst = worst_of(&worst, &c);
            }
            worst
        } else {
            self.func_cost(site.callee.index())
        }
    }
}

/// Term-wise maximum of two cost functions: an upper bound for the
/// pointwise `max(a, b)` when all coefficients are non-negative, exact
/// when one argument dominates the other.
fn worst_of(a: &CostFn, b: &CostFn) -> CostFn {
    let mut out = CostFn::zero();
    let keys: std::collections::BTreeSet<Term> =
        a.terms.keys().chain(b.terms.keys()).copied().collect();
    for t in keys {
        let ca = a.terms.get(&t).copied().unwrap_or(0.0);
        let cb = b.terms.get(&t).copied().unwrap_or(0.0);
        out.push_term(t, ca.max(cb));
    }
    match (a.widened, b.widened) {
        (Some(x), Some(y)) => out.widen(x.max(y)),
        (Some(x), None) => out.widen(x),
        (None, Some(y)) => out.widen(y),
        (None, None) => {}
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_leading() {
        let f = CostFn::from_term(2, false, 0.5)
            .add(&CostFn::from_term(1, false, 0.5))
            .add(&CostFn::constant(-1.0));
        assert_eq!(f.to_string(), "0.5*n^2 + 0.5*n - 1");
        let lead = f.leading().expect("leading");
        assert_eq!((lead.degree, lead.log), (2, false));
        assert!((lead.coeff - 0.5).abs() < 1e-12);
        assert_eq!(f.class(), ComplexityClass::Quadratic);
        assert!((f.eval_terms(8.0) - 35.0).abs() < 1e-9);
    }

    #[test]
    fn widened_tail_hides_leading_coefficient() {
        let f = CostFn::from_term(2, false, 1.0).add(&CostFn::widened(ComplexityClass::Quadratic));
        assert_eq!(f.leading(), None);
        assert_eq!(f.to_string(), "n^2 + O(n^2)");
        // A lower-order tail leaves the leading claim intact.
        let g = CostFn::from_term(2, false, 1.0).add(&CostFn::widened(ComplexityClass::Linear));
        assert!(g.leading().is_some());
        assert_eq!(g.to_string(), "n^2 + O(n)");
    }

    #[test]
    fn mul_adds_degrees_and_saturates_logs() {
        let n = CostFn::from_term(1, false, 2.0);
        let n2 = n.mul(&n);
        assert_eq!(n2.to_string(), "4*n^2");
        let log = CostFn::from_term(0, true, 1.0);
        let nlog = n.mul(&log);
        assert_eq!(nlog.class(), ComplexityClass::Linearithmic);
        assert!(nlog.widened.is_none());
        // log · log saturates: the coefficient is surrendered.
        let loglog = log.mul(&log);
        assert!(loglog.widened.is_some());
        assert_eq!(loglog.class(), ComplexityClass::Logarithmic);
        // Past-cubic products widen to Unknown.
        let n3 = n2.mul(&n);
        let n4 = n3.mul(&n);
        assert_eq!(n4.class(), ComplexityClass::Unknown);
    }

    #[test]
    fn widened_products_compose_by_class() {
        let n = CostFn::from_term(1, false, 1.0);
        let w = CostFn::widened(ComplexityClass::Linear);
        let prod = n.mul(&w);
        assert_eq!(prod.class(), ComplexityClass::Quadratic);
        assert_eq!(prod.leading(), None);
        assert_eq!(prod.to_string(), "O(n^2)");
    }

    #[test]
    fn worst_of_is_termwise_max() {
        let a = CostFn::from_term(1, false, 3.0);
        let b = CostFn::from_term(1, false, 1.0).add(&CostFn::constant(5.0));
        let w = worst_of(&a, &b);
        assert_eq!(w.to_string(), "3*n + 5");
    }

    #[test]
    fn zero_display() {
        assert_eq!(CostFn::zero().to_string(), "0");
        assert_eq!(
            CostFn::widened(ComplexityClass::Cubic).to_string(),
            "O(n^3)"
        );
    }
}

//! Loop iteration-bound classification over the typed HIR.
//!
//! For every function this module builds a [`FunctionSummary`]: the loop
//! tree in HIR pre-order (which matches the natural-loop ordinals the
//! instrumentation pass assigns, since codegen emits loop headers in
//! pre-order), each loop's [`BoundKind`], and the call sites attributed
//! to each loop. The bound classifier recognizes three shapes:
//!
//! * **Counted loops** — a conjunct `i ⊲ B` with `⊲ ∈ {<, <=, >, >=, !=}`
//!   where `i` is a local making monotonic progress (`i = i ± c`,
//!   `i = i * k`, `i = i / k` with constant step) and `B` is
//!   loop-invariant. The trip count is classified from the bound *and*
//!   the initial value (a countdown `for (i = n; i > 0; i = i - 1)` is
//!   linear in `n`, not in the constant `0`).
//! * **Structure walks** — `x != null` where the loop advances `x`
//!   through a field (`x = x.next`), or `x.f != null` where the loop
//!   rewrites `f`; both are linear in the structure's length.
//! * Everything else is [`BoundKind::Unknown`].
//!
//! The same walk carries enough effect information to implement lint
//! AP001 (*loop makes no progress toward its exit*): a loop with no
//! reachable break/return/throw whose condition reads only values the
//! body provably never changes can never terminate once entered.

use std::collections::BTreeSet;

use algoprof_fit::ComplexityClass;
use algoprof_vm::ast::{BinOp, UnOp};
use algoprof_vm::bytecode::{FieldId, FuncId};
use algoprof_vm::hir::{HExpr, HFunction, HStmt, LocalSlot};

use crate::costfn::{CostFn, InductionVar, OpCounts, TripCount};
use crate::diag::{Code, Diagnostic};
use crate::interval::Interval;

/// Classification of a loop's iteration count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundKind {
    /// Trip count bounded by a compile-time constant.
    Constant,
    /// Multiplicative progress toward a classifiable bound.
    Logarithmic,
    /// Linear in the value of a local/parameter of unknown magnitude.
    LinearLocal,
    /// Linear in the input: bounded by an array length, a value read
    /// from input, or a walk over a recursive structure.
    LinearInputLength,
    /// No recognized progress pattern.
    Unknown,
}

impl BoundKind {
    /// The complexity class one execution of the loop header contributes.
    pub fn class(self) -> ComplexityClass {
        match self {
            BoundKind::Constant => ComplexityClass::Constant,
            BoundKind::Logarithmic => ComplexityClass::Logarithmic,
            BoundKind::LinearLocal | BoundKind::LinearInputLength => ComplexityClass::Linear,
            BoundKind::Unknown => ComplexityClass::Unknown,
        }
    }

    /// Short description used in reports.
    pub fn describe(self) -> &'static str {
        match self {
            BoundKind::Constant => "constant",
            BoundKind::Logarithmic => "logarithmic",
            BoundKind::LinearLocal => "linear in a local",
            BoundKind::LinearInputLength => "linear in input length",
            BoundKind::Unknown => "unknown",
        }
    }

    fn rank(self) -> u8 {
        match self {
            BoundKind::Constant => 0,
            BoundKind::Logarithmic => 1,
            BoundKind::LinearLocal => 2,
            BoundKind::LinearInputLength => 3,
            BoundKind::Unknown => 4,
        }
    }

    /// The coarser (larger trip count) of two classifications.
    pub fn max(self, other: BoundKind) -> BoundKind {
        if self.rank() >= other.rank() {
            self
        } else {
            other
        }
    }
}

/// A call site attributed to a loop (or to the function's straight-line
/// code when outside every loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallSite {
    /// Statically resolved callee (for virtual sites, the declaration
    /// the checker resolved; dispatch may select an override).
    pub callee: FuncId,
    /// Whether the site dispatches virtually (CHA targets apply).
    pub virtual_dispatch: bool,
    /// Source line.
    pub line: u32,
}

/// One loop of a function, in HIR pre-order.
#[derive(Debug, Clone)]
pub struct LoopSummary {
    /// Pre-order ordinal within the function (equals the natural-loop
    /// ordinal in the instrumented program's `LoopInfo`).
    pub ordinal: u32,
    /// Source line of the loop keyword.
    pub line: u32,
    /// Index of the parent loop in [`FunctionSummary::loops`], if nested.
    pub parent: Option<usize>,
    /// Indices of directly nested loops.
    pub children: Vec<usize>,
    /// Iteration-bound classification.
    pub bound: BoundKind,
    /// Symbolic trip count with coefficients, when the recurrence was
    /// solvable (widened to `O(bound class)` otherwise).
    pub trips: TripCount,
    /// The counted loop's induction variable, with initial value and
    /// signed step when provable.
    pub induction: Option<InductionVar>,
    /// Static op counts of this loop's own region (nested loops carry
    /// their own).
    pub ops: OpCounts,
    /// Call sites whose innermost enclosing loop is this one.
    pub calls: Vec<CallSite>,
}

/// Static summary of one function body.
#[derive(Debug, Clone)]
pub struct FunctionSummary {
    /// Function id (index into the program's function table).
    pub func: FuncId,
    /// Qualified name (`Class.method`).
    pub name: String,
    /// Declaration line.
    pub line: u32,
    /// Loops in pre-order.
    pub loops: Vec<LoopSummary>,
    /// Call sites outside every loop.
    pub top_calls: Vec<CallSite>,
    /// Static op counts of the function's code outside every loop.
    pub top_ops: OpCounts,
}

/// Per-slot def/use facts for one function, shared by the bound
/// classifier and the lints.
pub struct Facts<'a> {
    /// Number of parameter slots (`this` included).
    pub n_params: u16,
    /// Every store to each slot (value expression + best-effort line).
    pub stores: Vec<Vec<&'a HExpr>>,
    /// Read count per slot.
    pub reads: Vec<u32>,
    /// Slots bound by `catch` clauses (excluded from write-only lints).
    pub catch_slots: BTreeSet<LocalSlot>,
}

impl<'a> Facts<'a> {
    /// Collects facts for `func`.
    pub fn collect(func: &'a HFunction) -> Facts<'a> {
        let mut facts = Facts {
            n_params: func.n_params,
            stores: vec![Vec::new(); func.n_locals as usize],
            reads: vec![0; func.n_locals as usize],
            catch_slots: BTreeSet::new(),
        };
        facts.walk_stmts(&func.body);
        facts
    }

    fn walk_stmts(&mut self, stmts: &'a [HStmt]) {
        for s in stmts {
            self.walk_stmt(s);
        }
    }

    fn walk_stmt(&mut self, stmt: &'a HStmt) {
        match stmt {
            HStmt::Expr(e) => self.walk_expr(e),
            HStmt::StoreLocal { slot, value, .. } => {
                if let Some(v) = self.stores.get_mut(*slot as usize) {
                    v.push(value);
                }
                self.walk_expr(value);
            }
            HStmt::StoreField { obj, value, .. } => {
                self.walk_expr(obj);
                self.walk_expr(value);
            }
            HStmt::StoreIndex {
                arr, idx, value, ..
            } => {
                self.walk_expr(arr);
                self.walk_expr(idx);
                self.walk_expr(value);
            }
            HStmt::If { cond, then, els } => {
                self.walk_expr(cond);
                self.walk_stmts(then);
                self.walk_stmts(els);
            }
            HStmt::Loop {
                cond, body, update, ..
            } => {
                self.walk_expr(cond);
                self.walk_stmts(body);
                self.walk_stmts(update);
            }
            HStmt::Return { value, .. } => {
                if let Some(v) = value {
                    self.walk_expr(v);
                }
            }
            HStmt::Break | HStmt::Continue => {}
            HStmt::Throw { value, .. } => self.walk_expr(value),
            HStmt::Try {
                body,
                catch_slot,
                handler,
                ..
            } => {
                self.catch_slots.insert(*catch_slot);
                self.walk_stmts(body);
                self.walk_stmts(handler);
            }
            HStmt::Lock { obj, .. } | HStmt::Unlock { obj, .. } => self.walk_expr(obj),
        }
    }

    fn walk_expr(&mut self, expr: &'a HExpr) {
        if let HExpr::Local(s) = expr {
            if let Some(r) = self.reads.get_mut(*s as usize) {
                *r += 1;
            }
        }
        for_each_child(expr, |c| self.walk_expr(c));
    }

    /// Constant-evaluates `expr` (literals, arithmetic, and
    /// single-assignment constant locals) to an interval.
    pub fn const_eval(&self, expr: &HExpr) -> Option<Interval> {
        self.const_eval_rec(expr, 0)
    }

    fn const_eval_rec(&self, expr: &HExpr, depth: u32) -> Option<Interval> {
        if depth > 16 {
            return None;
        }
        match expr {
            HExpr::Int(k) => Some(Interval::constant(*k)),
            HExpr::Unary {
                op: UnOp::Neg,
                expr,
            } => Some(self.const_eval_rec(expr, depth + 1)?.neg()),
            HExpr::Binary { op, lhs, rhs, .. } => {
                let a = self.const_eval_rec(lhs, depth + 1)?;
                let b = self.const_eval_rec(rhs, depth + 1)?;
                match op {
                    BinOp::Add => Some(a.add(b)),
                    BinOp::Sub => Some(a.sub(b)),
                    BinOp::Mul => Some(a.mul(b)),
                    BinOp::Div => Some(a.div(b)),
                    _ => None,
                }
            }
            HExpr::Local(s) => {
                // A parameter is never constant; a local is constant when
                // its single store is.
                if (*s as usize) < self.n_params as usize {
                    return None;
                }
                match self.stores.get(*s as usize).map(|v| v.as_slice()) {
                    Some([single]) => self.const_eval_rec(single, depth + 1),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// Whether the local's value derives from `readInput()` (single
    /// store whose value contains a read).
    fn is_input_local(&self, slot: LocalSlot) -> bool {
        match self.stores.get(slot as usize).map(|v| v.as_slice()) {
            Some([single]) => expr_contains(single, &|e| matches!(e, HExpr::ReadInput { .. })),
            _ => false,
        }
    }
}

/// Applies `f` to each direct child expression of `expr`.
pub fn for_each_child<'a>(expr: &'a HExpr, mut f: impl FnMut(&'a HExpr)) {
    match expr {
        HExpr::Int(_)
        | HExpr::Bool(_)
        | HExpr::Null
        | HExpr::Local(_)
        | HExpr::ReadInput { .. } => {}
        HExpr::GetField { obj, .. } => f(obj),
        HExpr::GetIndex { arr, idx, .. } => {
            f(arr);
            f(idx);
        }
        HExpr::ArrayLen { arr, .. } => f(arr),
        HExpr::CallStatic { args, .. }
        | HExpr::CallVirtual { args, .. }
        | HExpr::CallDirect { args, .. }
        | HExpr::NewObject { args, .. }
        | HExpr::Spawn { args, .. } => {
            for a in args {
                f(a);
            }
        }
        HExpr::Join { handle, .. } => f(handle),
        HExpr::NewArray { len, .. } => f(len),
        HExpr::ArrayLit { elems, .. } => {
            for e in elems {
                f(e);
            }
        }
        HExpr::Cast { expr, .. } | HExpr::InstanceOf { expr, .. } => f(expr),
        HExpr::Unary { expr, .. } => f(expr),
        HExpr::Binary { lhs, rhs, .. } => {
            f(lhs);
            f(rhs);
        }
        HExpr::Print { arg, .. } => f(arg),
    }
}

/// Whether any subexpression of `expr` satisfies `pred`.
pub fn expr_contains(expr: &HExpr, pred: &dyn Fn(&HExpr) -> bool) -> bool {
    if pred(expr) {
        return true;
    }
    let mut found = false;
    for_each_child(expr, |c| {
        if !found && expr_contains(c, pred) {
            found = true;
        }
    });
    found
}

/// Best-effort source line of an expression (the HIR only records lines
/// on nodes that can trap or call).
pub fn expr_line(expr: &HExpr) -> Option<u32> {
    match expr {
        HExpr::GetField { line, .. }
        | HExpr::GetIndex { line, .. }
        | HExpr::ArrayLen { line, .. }
        | HExpr::CallStatic { line, .. }
        | HExpr::CallVirtual { line, .. }
        | HExpr::CallDirect { line, .. }
        | HExpr::NewObject { line, .. }
        | HExpr::NewArray { line, .. }
        | HExpr::ArrayLit { line, .. }
        | HExpr::Cast { line, .. }
        | HExpr::InstanceOf { line, .. }
        | HExpr::Binary { line, .. }
        | HExpr::ReadInput { line }
        | HExpr::Print { line, .. }
        | HExpr::Spawn { line, .. }
        | HExpr::Join { line, .. } => Some(*line),
        HExpr::Unary { expr, .. } => expr_line(expr),
        HExpr::Int(_) | HExpr::Bool(_) | HExpr::Null | HExpr::Local(_) => None,
    }
}

/// Best-effort source line of a statement.
pub fn stmt_line(stmt: &HStmt) -> Option<u32> {
    match stmt {
        HStmt::Expr(e) => expr_line(e),
        HStmt::StoreLocal { value, .. } => expr_line(value),
        HStmt::StoreField { line, .. }
        | HStmt::StoreIndex { line, .. }
        | HStmt::Loop { line, .. }
        | HStmt::Return { line, .. }
        | HStmt::Throw { line, .. }
        | HStmt::Lock { line, .. }
        | HStmt::Unlock { line, .. } => Some(*line),
        HStmt::If { cond, then, els } => expr_line(cond)
            .or_else(|| then.iter().find_map(stmt_line))
            .or_else(|| els.iter().find_map(stmt_line)),
        HStmt::Break | HStmt::Continue => None,
        HStmt::Try { body, handler, .. } => body
            .iter()
            .find_map(stmt_line)
            .or_else(|| handler.iter().find_map(stmt_line)),
    }
}

/// Splits a condition into its `&&` conjuncts.
fn conjuncts(cond: &HExpr) -> Vec<&HExpr> {
    let mut out = Vec::new();
    fn rec<'a>(e: &'a HExpr, out: &mut Vec<&'a HExpr>) {
        match e {
            HExpr::Binary {
                op: BinOp::And,
                lhs,
                rhs,
                ..
            } => {
                rec(lhs, out);
                rec(rhs, out);
            }
            _ => out.push(e),
        }
    }
    rec(cond, &mut out);
    out
}

/// Everything a loop's body + update can observably change, plus
/// control-flow escape information, gathered in one walk.
#[derive(Debug, Default)]
struct LoopEffects<'a> {
    stored_locals: BTreeSet<LocalSlot>,
    /// Every in-loop store, with its value expression (progress analysis
    /// must see the loop's own updates, not stores elsewhere in the
    /// function).
    local_stores: Vec<(LocalSlot, &'a HExpr)>,
    stored_fields: BTreeSet<FieldId>,
    has_store_index: bool,
    has_call: bool,
    /// `break` at this loop's own nesting level.
    direct_break: bool,
    has_return: bool,
    has_throw: bool,
}

impl<'a> LoopEffects<'a> {
    fn gather(body: &'a [HStmt], update: &'a [HStmt]) -> LoopEffects<'a> {
        let mut fx = LoopEffects::default();
        fx.stmts(body, 0);
        fx.stmts(update, 0);
        fx
    }

    fn stmts(&mut self, stmts: &'a [HStmt], depth: u32) {
        for s in stmts {
            self.stmt(s, depth);
        }
    }

    fn stmt(&mut self, stmt: &'a HStmt, depth: u32) {
        match stmt {
            HStmt::Expr(e) => self.expr(e),
            HStmt::StoreLocal { slot, value, .. } => {
                self.stored_locals.insert(*slot);
                self.local_stores.push((*slot, value));
                self.expr(value);
            }
            HStmt::StoreField {
                obj, field, value, ..
            } => {
                self.stored_fields.insert(*field);
                self.expr(obj);
                self.expr(value);
            }
            HStmt::StoreIndex {
                arr, idx, value, ..
            } => {
                self.has_store_index = true;
                self.expr(arr);
                self.expr(idx);
                self.expr(value);
            }
            HStmt::If { cond, then, els } => {
                self.expr(cond);
                self.stmts(then, depth);
                self.stmts(els, depth);
            }
            HStmt::Loop {
                cond, body, update, ..
            } => {
                self.expr(cond);
                self.stmts(body, depth + 1);
                self.stmts(update, depth + 1);
            }
            HStmt::Return { value, .. } => {
                self.has_return = true;
                if let Some(v) = value {
                    self.expr(v);
                }
            }
            HStmt::Break => {
                if depth == 0 {
                    self.direct_break = true;
                }
            }
            HStmt::Continue => {}
            HStmt::Throw { value, .. } => {
                self.has_throw = true;
                self.expr(value);
            }
            HStmt::Try { body, handler, .. } => {
                self.stmts(body, depth);
                self.stmts(handler, depth);
            }
            HStmt::Lock { obj, .. } | HStmt::Unlock { obj, .. } => self.expr(obj),
        }
    }

    fn expr(&mut self, expr: &'a HExpr) {
        if matches!(
            expr,
            HExpr::CallStatic { .. }
                | HExpr::CallVirtual { .. }
                | HExpr::CallDirect { .. }
                | HExpr::NewObject { .. }
                | HExpr::Spawn { .. }
                | HExpr::Join { .. }
        ) {
            self.has_call = true;
        }
        for_each_child(expr, |c| self.expr(c));
    }
}

/// What a loop condition reads.
#[derive(Debug, Default)]
struct CondReads {
    locals: BTreeSet<LocalSlot>,
    fields: BTreeSet<FieldId>,
    has_array_access: bool,
    has_call_or_input: bool,
}

impl CondReads {
    fn gather(cond: &HExpr) -> CondReads {
        let mut r = CondReads::default();
        r.expr(cond);
        r
    }

    fn expr(&mut self, expr: &HExpr) {
        match expr {
            HExpr::Local(s) => {
                self.locals.insert(*s);
            }
            HExpr::GetField { field, .. } => {
                self.fields.insert(*field);
            }
            HExpr::GetIndex { .. } | HExpr::ArrayLen { .. } => self.has_array_access = true,
            HExpr::CallStatic { .. }
            | HExpr::CallVirtual { .. }
            | HExpr::CallDirect { .. }
            | HExpr::NewObject { .. }
            | HExpr::ReadInput { .. }
            | HExpr::Spawn { .. }
            | HExpr::Join { .. } => self.has_call_or_input = true,
            _ => {}
        }
        for_each_child(expr, |c| self.expr(c));
    }
}

struct Collector<'a> {
    facts: &'a Facts<'a>,
    func: &'a HFunction,
    loops: Vec<LoopSummary>,
    stack: Vec<usize>,
    top_calls: Vec<CallSite>,
    top_ops: OpCounts,
    diagnostics: Vec<Diagnostic>,
    /// The store to each slot that reaches the current walk position on
    /// the straight-line path — `None` when no single store dominates
    /// (never stored, stored under a branch, or stale after a loop that
    /// rewrites the slot). Needed because the compiler reuses local
    /// slots: sequential `for (int i = ...)` loops share one slot, so
    /// the per-function store list alone cannot name *this* loop's init.
    reaching: Vec<Option<&'a HExpr>>,
}

/// Everything one conjunct of a loop condition tells us about the trip
/// count: the class-level bound, the symbolic trip count, and the
/// induction variable the loop progresses.
struct ConjunctShape {
    kind: BoundKind,
    trips: TripCount,
    induction: Option<InductionVar>,
}

impl ConjunctShape {
    fn unknown() -> ConjunctShape {
        ConjunctShape {
            kind: BoundKind::Unknown,
            trips: TripCount::widened(ComplexityClass::Unknown),
            induction: None,
        }
    }
}

/// An affine form `n·N + k (+ coeff·v)` over the input-size parameter
/// `N` and at most one enclosing induction variable `v` — the value
/// domain of the trip-count solver.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LinForm {
    n: f64,
    k: f64,
    outer: Option<(LocalSlot, f64)>,
}

impl LinForm {
    fn constant(k: f64) -> LinForm {
        LinForm {
            n: 0.0,
            k,
            outer: None,
        }
    }

    fn input() -> LinForm {
        LinForm {
            n: 1.0,
            k: 0.0,
            outer: None,
        }
    }

    fn is_scalar(&self) -> bool {
        self.n == 0.0 && self.outer.is_none()
    }

    fn neg(self) -> LinForm {
        self.scale(-1.0)
    }

    fn scale(self, s: f64) -> LinForm {
        LinForm {
            n: self.n * s,
            k: self.k * s,
            outer: self.outer.map(|(slot, c)| (slot, c * s)),
        }
    }

    /// `self + other`, failing when two *different* enclosing variables
    /// would be needed.
    fn add(self, other: LinForm) -> Option<LinForm> {
        let outer = match (self.outer, other.outer) {
            (None, o) | (o, None) => o,
            (Some((a, ca)), Some((b, cb))) if a == b => Some((a, ca + cb)),
            _ => return None,
        };
        Some(LinForm {
            n: self.n + other.n,
            k: self.k + other.k,
            outer: outer.filter(|(_, c)| c.abs() > 1e-9),
        })
    }
}

/// Builds the summary (and any loop-shaped diagnostics) for one function.
pub fn summarize_function<'a>(
    func: &'a HFunction,
    facts: &'a Facts<'a>,
) -> (FunctionSummary, Vec<Diagnostic>) {
    let mut c = Collector {
        facts,
        func,
        loops: Vec::new(),
        stack: Vec::new(),
        top_calls: Vec::new(),
        top_ops: OpCounts::default(),
        diagnostics: Vec::new(),
        reaching: vec![None; func.n_locals as usize],
    };
    c.stmts(&func.body);
    (
        FunctionSummary {
            func: func.id,
            name: func.name.clone(),
            line: func.line,
            loops: c.loops,
            top_calls: c.top_calls,
            top_ops: c.top_ops,
        },
        c.diagnostics,
    )
}

impl<'a> Collector<'a> {
    fn stmts(&mut self, stmts: &'a [HStmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, stmt: &'a HStmt) {
        match stmt {
            HStmt::Expr(e) => self.expr(e),
            HStmt::StoreLocal { slot, value, .. } => {
                self.expr(value);
                if let Some(r) = self.reaching.get_mut(*slot as usize) {
                    *r = Some(value);
                }
            }
            HStmt::StoreField { obj, value, .. } => {
                self.ops_mut().field_writes += 1;
                self.expr(obj);
                self.expr(value);
            }
            HStmt::StoreIndex {
                arr, idx, value, ..
            } => {
                self.ops_mut().array_writes += 1;
                self.expr(arr);
                self.expr(idx);
                self.expr(value);
            }
            HStmt::If { cond, then, els } => {
                self.expr(cond);
                self.stmts(then);
                self.stmts(els);
                // A store under either branch is conditional for the
                // code after the join.
                self.invalidate_reaching(&LoopEffects::gather(then, els).stored_locals);
            }
            HStmt::Loop {
                cond,
                body,
                update,
                line,
            } => {
                let ordinal = self.loops.len();
                let parent = self.stack.last().copied();
                self.loops.push(LoopSummary {
                    ordinal: ordinal as u32,
                    line: *line,
                    parent,
                    children: Vec::new(),
                    bound: BoundKind::Unknown,
                    trips: TripCount::widened(ComplexityClass::Unknown),
                    induction: None,
                    ops: OpCounts::default(),
                    calls: Vec::new(),
                });
                if let Some(p) = parent {
                    self.loops[p].children.push(ordinal);
                }
                let effects = LoopEffects::gather(body, update);
                let shape = self.classify(cond, &effects);
                self.loops[ordinal].bound = shape.kind;
                self.loops[ordinal].trips = shape.trips;
                self.loops[ordinal].induction = shape.induction;
                self.lint_no_progress(cond, &effects, *line);

                self.stack.push(ordinal);
                self.expr(cond);
                self.stmts(body);
                self.stmts(update);
                self.stack.pop();
                // After the loop, a slot it stores has run through an
                // unknown number of updates; no single store reaches.
                self.invalidate_reaching(&effects.stored_locals);
            }
            HStmt::Return { value, .. } => {
                if let Some(v) = value {
                    self.expr(v);
                }
            }
            HStmt::Break | HStmt::Continue => {}
            HStmt::Throw { value, .. } => self.expr(value),
            HStmt::Try { body, handler, .. } => {
                self.stmts(body);
                self.stmts(handler);
                self.invalidate_reaching(&LoopEffects::gather(body, handler).stored_locals);
            }
            HStmt::Lock { obj, .. } | HStmt::Unlock { obj, .. } => self.expr(obj),
        }
    }

    /// Forgets the reaching store of every slot in `slots` (the walk
    /// passed a join where those stores became conditional or stale).
    fn invalidate_reaching(&mut self, slots: &BTreeSet<LocalSlot>) {
        for s in slots {
            if let Some(r) = self.reaching.get_mut(*s as usize) {
                *r = None;
            }
        }
    }

    /// The op-count region of the current position: the innermost
    /// enclosing loop, or the function's straight-line code.
    fn ops_mut(&mut self) -> &mut OpCounts {
        match self.stack.last() {
            Some(&l) => &mut self.loops[l].ops,
            None => &mut self.top_ops,
        }
    }

    fn expr(&mut self, expr: &'a HExpr) {
        match expr {
            HExpr::GetField { .. } => self.ops_mut().field_reads += 1,
            HExpr::GetIndex { .. } => self.ops_mut().array_reads += 1,
            HExpr::CallVirtual { .. } => self.ops_mut().virtual_calls += 1,
            HExpr::NewObject { .. } | HExpr::NewArray { .. } | HExpr::ArrayLit { .. } => {
                self.ops_mut().allocs += 1
            }
            _ => {}
        }
        let site = match expr {
            HExpr::CallStatic { func, line, .. } | HExpr::CallDirect { func, line, .. } => {
                Some(CallSite {
                    callee: *func,
                    virtual_dispatch: false,
                    line: *line,
                })
            }
            HExpr::CallVirtual { func, line, .. } => Some(CallSite {
                callee: *func,
                virtual_dispatch: true,
                line: *line,
            }),
            HExpr::NewObject {
                ctor: Some(f),
                line,
                ..
            } => Some(CallSite {
                callee: *f,
                virtual_dispatch: false,
                line: *line,
            }),
            _ => None,
        };
        if let Some(site) = site {
            match self.stack.last() {
                Some(&l) => self.loops[l].calls.push(site),
                None => self.top_calls.push(site),
            }
        }
        for_each_child(expr, |c| self.expr(c));
    }

    /// Classifies the trip count of a loop with condition `cond` and
    /// effects `fx`, solving the trip-count recurrence symbolically
    /// where the shapes allow.
    fn classify(&self, cond: &HExpr, fx: &LoopEffects) -> ConjunctShape {
        let mut best = ConjunctShape::unknown();
        for c in conjuncts(cond) {
            let shape = self.classify_conjunct(c, fx);
            // The tightest conjunct bounds the loop: `i < n && x != null`
            // iterates at most min(n, |list|) times.
            if shape.kind.rank() < best.kind.rank() {
                best = shape;
            }
        }
        best
    }

    fn classify_conjunct(&self, c: &HExpr, fx: &LoopEffects) -> ConjunctShape {
        let HExpr::Binary { op, lhs, rhs, .. } = c else {
            return ConjunctShape::unknown();
        };
        match op {
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Ne => {}
            _ => return ConjunctShape::unknown(),
        }

        // Structure walk: `x != null` (either side).
        if *op == BinOp::Ne {
            for (side, _other) in [(lhs, rhs), (rhs, lhs)] {
                if matches!(_other.as_ref(), HExpr::Null) {
                    if let Some(k) = self.classify_null_chase(side, fx) {
                        // A full walk visits each of the structure's
                        // nodes exactly once: 1·N trips.
                        return ConjunctShape {
                            kind: k,
                            trips: TripCount::exact(CostFn::from_term(1, false, 1.0)),
                            induction: None,
                        };
                    }
                    return ConjunctShape::unknown();
                }
            }
        }

        // Counted loop: one side is a progressing induction local.
        for (ind, bound) in [(lhs, rhs), (rhs, lhs)] {
            let HExpr::Local(slot) = ind.as_ref() else {
                continue;
            };
            if !fx.stored_locals.contains(slot) {
                continue;
            }
            let Some(progress) = self.progress_of(*slot, fx) else {
                continue;
            };
            // The bound must be loop-invariant.
            let bound_kind = self.classify_bound_expr(bound, fx);
            if bound_kind == BoundKind::Unknown {
                return ConjunctShape::unknown();
            }
            let ind_on_lhs = std::ptr::eq(ind.as_ref(), lhs.as_ref());
            return match progress {
                Progress::Additive => {
                    // A countdown's trip count is set by the initial
                    // value, a count-up's by the bound; take the coarser
                    // of both rather than guessing the direction.
                    let kind = bound_kind.max(self.classify_init(*slot, fx));
                    self.additive_shape(*slot, *op, ind_on_lhs, bound, kind)
                }
                Progress::Multiplicative => self.multiplicative_shape(*slot, bound),
            };
        }
        ConjunctShape::unknown()
    }

    /// Solves an additive counted loop's trip count:
    /// `trips = (bound − init) / step` (+1 for inclusive comparisons),
    /// an affine form over `N` and at most one enclosing induction
    /// variable. Unsolvable pieces widen to the class the `BoundKind`
    /// already proved.
    fn additive_shape(
        &self,
        slot: LocalSlot,
        op: BinOp,
        ind_on_lhs: bool,
        bound: &HExpr,
        kind: BoundKind,
    ) -> ConjunctShape {
        let enclosing = self.enclosing_induction_slots();
        let step = self.additive_step(slot);
        let init_form = self.init_form(slot, &enclosing);
        let init_const = init_form.filter(|f| f.is_scalar()).map(|f| f.k);
        let induction = Some(InductionVar {
            slot,
            init: init_const,
            step,
        });
        let widened = ConjunctShape {
            kind,
            trips: TripCount::widened(kind.class()),
            induction,
        };
        let (Some(step), Some(init_form)) = (step, init_form) else {
            return widened;
        };
        let Some(bound_form) = self.linear_form(bound, &enclosing, 0) else {
            return widened;
        };
        let Some(diff) = bound_form.add(init_form.neg()) else {
            return widened;
        };
        let mut trips = diff.scale(1.0 / step);
        // Normalize the comparison so the induction variable reads on
        // the left: `n > i` means `i < n`.
        let op = if ind_on_lhs {
            op
        } else {
            match op {
                BinOp::Lt => BinOp::Gt,
                BinOp::Le => BinOp::Ge,
                BinOp::Gt => BinOp::Lt,
                BinOp::Ge => BinOp::Le,
                other => other,
            }
        };
        if matches!(op, BinOp::Le | BinOp::Ge) {
            trips.k += 1.0;
        }
        if !trips.n.is_finite() || !trips.k.is_finite() || trips.n < 0.0 {
            // A negative N-coefficient means the loop shrinks with the
            // input (or the direction analysis failed): no closed form.
            return widened;
        }
        if trips.is_scalar() {
            // Pure constant: round up for non-dividing steps, clamp a
            // never-entered loop to zero. `!=` conditions demand exact
            // division; a negative remainder-style count is wrap-around
            // territory and stays widened.
            if op == BinOp::Ne && (trips.k < 0.0 || trips.k.fract().abs() > 1e-9) {
                return widened;
            }
            trips.k = trips.k.ceil().max(0.0);
        }
        let fixed = CostFn::from_term(1, false, trips.n).add(&CostFn::constant(trips.k));
        ConjunctShape {
            kind,
            trips: TripCount {
                fixed,
                outer: trips.outer,
            },
            induction,
        }
    }

    /// Solves a multiplicative counted loop: `log₂(bound) / log₂(step)`
    /// trips, so an exact `1/log₂(step)` coefficient on the `log n` term
    /// when the bound is linear in the input (the additive constant
    /// `log₂` of the bound's own coefficient stays an `O(1)` tail).
    fn multiplicative_shape(&self, slot: LocalSlot, bound: &HExpr) -> ConjunctShape {
        let enclosing = self.enclosing_induction_slots();
        let induction = Some(InductionVar {
            slot,
            init: self
                .init_form(slot, &enclosing)
                .filter(|f| f.is_scalar())
                .map(|f| f.k),
            step: None,
        });
        let factor = self.multiplicative_factor(slot);
        let bound_form = self.linear_form(bound, &enclosing, 0);
        let trips = match (factor, bound_form) {
            (Some(k), Some(bf)) if bf.n > 0.0 && bf.outer.is_none() => TripCount::exact(
                CostFn::from_term(0, true, 1.0 / k.log2())
                    .add(&CostFn::widened(ComplexityClass::Constant)),
            ),
            (Some(_), Some(bf)) if bf.is_scalar() => {
                // Constant bound: a constant number of doublings.
                TripCount::widened(ComplexityClass::Constant)
            }
            _ => TripCount::widened(ComplexityClass::Logarithmic),
        };
        ConjunctShape {
            kind: BoundKind::Logarithmic,
            trips,
            induction,
        }
    }

    /// Induction slots of every loop enclosing the one being classified
    /// (the classification runs before the loop is pushed, so the stack
    /// holds exactly the enclosing loops, already classified).
    fn enclosing_induction_slots(&self) -> BTreeSet<LocalSlot> {
        self.stack
            .iter()
            .filter_map(|&i| self.loops[i].induction.map(|iv| iv.slot))
            .collect()
    }

    /// The signed additive step shared by every progress store to
    /// `slot`, when they agree.
    fn additive_step(&self, slot: LocalSlot) -> Option<f64> {
        let stores = self.facts.stores.get(slot as usize)?;
        let mut step: Option<f64> = None;
        for value in stores {
            if self.progress_shape(slot, value).is_none() {
                continue;
            }
            let HExpr::Binary { op, lhs, rhs, .. } = value else {
                return None;
            };
            let (self_on_lhs, step_expr) = if matches!(lhs.as_ref(), HExpr::Local(s) if *s == slot)
            {
                (true, rhs)
            } else {
                (false, lhs)
            };
            let k = self.facts.const_eval(step_expr)?.as_constant()? as f64;
            let s = match op {
                BinOp::Add => k,
                BinOp::Sub if self_on_lhs => -k,
                _ => return None,
            };
            match step {
                None => step = Some(s),
                Some(prev) if prev == s => {}
                Some(_) => return None,
            }
        }
        step
    }

    /// The multiplicative factor (absolute value) shared by every
    /// progress store to `slot`, when they agree.
    fn multiplicative_factor(&self, slot: LocalSlot) -> Option<f64> {
        let stores = self.facts.stores.get(slot as usize)?;
        let mut factor: Option<f64> = None;
        for value in stores {
            if self.progress_shape(slot, value).is_none() {
                continue;
            }
            let HExpr::Binary { op, lhs, rhs, .. } = value else {
                return None;
            };
            let step_expr = if matches!(lhs.as_ref(), HExpr::Local(s) if *s == slot) {
                rhs
            } else {
                lhs
            };
            let k = (self.facts.const_eval(step_expr)?.as_constant()? as f64).abs();
            if !matches!(op, BinOp::Mul | BinOp::Div) || k < 2.0 {
                return None;
            }
            match factor {
                None => factor = Some(k),
                Some(prev) if prev == k => {}
                Some(_) => return None,
            }
        }
        factor
    }

    /// The induction variable's initial value as an affine form: the
    /// single non-progress store when there is one, the size parameter
    /// itself when the slot is a never-reassigned parameter.
    fn init_form(&self, slot: LocalSlot, enclosing: &BTreeSet<LocalSlot>) -> Option<LinForm> {
        let stores = self.facts.stores.get(slot as usize)?;
        let inits: Vec<&&HExpr> = stores
            .iter()
            .filter(|v| self.progress_shape(slot, v).is_none())
            .collect();
        match inits.as_slice() {
            [] if (slot as usize) < self.facts.n_params as usize => {
                // A parameter arrives initialized from the caller; we
                // identify integer size parameters with the measured
                // size axis N (documented assumption).
                Some(LinForm::input())
            }
            [single] => self.linear_form(single, enclosing, 0),
            // Several candidate inits: the compiler reuses slots, so
            // sequential loops share one induction slot. Use the store
            // that dominates this loop's entry on the straight-line
            // path, when there is one.
            _ => {
                let value = self.reaching.get(slot as usize).copied().flatten()?;
                if self.progress_shape(slot, value).is_some() {
                    return None;
                }
                self.linear_form(value, enclosing, 0)
            }
        }
    }

    /// Evaluates a loop-invariant expression to an affine form over the
    /// input-size parameter `N` and at most one enclosing induction
    /// variable. `None` means no provable coefficients (heap reads,
    /// multi-store locals, nonlinear arithmetic) — callers widen.
    fn linear_form(
        &self,
        e: &HExpr,
        enclosing: &BTreeSet<LocalSlot>,
        depth: u32,
    ) -> Option<LinForm> {
        if depth > 16 {
            return None;
        }
        match e {
            HExpr::Int(k) => Some(LinForm::constant(*k as f64)),
            // A value read straight from input, or a structure length:
            // the measured size axis itself.
            HExpr::ReadInput { .. } | HExpr::ArrayLen { .. } => Some(LinForm::input()),
            HExpr::Unary {
                op: UnOp::Neg,
                expr,
            } => Some(self.linear_form(expr, enclosing, depth + 1)?.neg()),
            HExpr::Binary { op, lhs, rhs, .. } => {
                let a = self.linear_form(lhs, enclosing, depth + 1)?;
                let b = self.linear_form(rhs, enclosing, depth + 1)?;
                match op {
                    BinOp::Add => a.add(b),
                    BinOp::Sub => a.add(b.neg()),
                    BinOp::Mul if a.is_scalar() => Some(b.scale(a.k)),
                    BinOp::Mul if b.is_scalar() => Some(a.scale(b.k)),
                    BinOp::Div if b.is_scalar() && b.k != 0.0 => Some(a.scale(1.0 / b.k)),
                    _ => None,
                }
            }
            HExpr::Local(s) => {
                if let Some(k) = self.facts.const_eval(e).and_then(|iv| iv.as_constant()) {
                    return Some(LinForm::constant(k as f64));
                }
                if enclosing.contains(s) {
                    return Some(LinForm {
                        n: 0.0,
                        k: 0.0,
                        outer: Some((*s, 1.0)),
                    });
                }
                if (*s as usize) < self.facts.n_params as usize {
                    // Size parameter ≡ N (documented assumption).
                    return Some(LinForm::input());
                }
                match self.facts.stores.get(*s as usize).map(|v| v.as_slice()) {
                    Some([single]) => self.linear_form(single, enclosing, depth + 1),
                    _ => None,
                }
            }
            // Heap reads: the magnitude is unprovable without a heap
            // shape analysis — widen.
            _ => None,
        }
    }

    /// `x != null` walks: returns a classification when the loop
    /// provably advances the tested reference.
    fn classify_null_chase(&self, tested: &HExpr, fx: &LoopEffects) -> Option<BoundKind> {
        match tested {
            // `while (x != null)` with `x = <something>.field` in the loop.
            HExpr::Local(slot) if fx.stored_locals.contains(slot) => {
                let advances = self.facts.stores.get(*slot as usize).is_some_and(|stores| {
                    stores
                        .iter()
                        .any(|v| expr_contains(v, &|e| matches!(e, HExpr::GetField { .. })))
                });
                advances.then_some(BoundKind::LinearInputLength)
            }
            // `while (x.f != null)` with a store to `f` in the loop.
            HExpr::GetField { field, .. } if fx.stored_fields.contains(field) => {
                Some(BoundKind::LinearInputLength)
            }
            _ => None,
        }
    }

    /// The progress shape of every in-loop store to `slot`, if all
    /// stores are monotonic self-updates with constant step.
    fn progress_of(&self, slot: LocalSlot, _fx: &LoopEffects) -> Option<Progress> {
        let stores = self.facts.stores.get(slot as usize)?;
        let mut shape: Option<Progress> = None;
        let mut saw_update = false;
        for value in stores {
            let Some(p) = self.progress_shape(slot, value) else {
                // A non-progress store (the initializer) is fine; it
                // lives outside the loop for every loop the checker can
                // build (`for` initializers precede the `Loop` node).
                continue;
            };
            saw_update = true;
            match shape {
                None => shape = Some(p),
                Some(prev) if prev == p => {}
                // Mixed additive/multiplicative updates: give up.
                Some(_) => return None,
            }
        }
        if saw_update {
            shape
        } else {
            None
        }
    }

    fn progress_shape(&self, slot: LocalSlot, value: &HExpr) -> Option<Progress> {
        let HExpr::Binary { op, lhs, rhs, .. } = value else {
            return None;
        };
        let (self_side, step) = if matches!(lhs.as_ref(), HExpr::Local(s) if *s == slot) {
            (true, rhs)
        } else if matches!(rhs.as_ref(), HExpr::Local(s) if *s == slot) {
            (false, lhs)
        } else {
            return None;
        };
        let step = self.facts.const_eval(step)?.as_constant()?;
        match op {
            BinOp::Add if step != 0 => Some(Progress::Additive),
            // `i = i - c` only counts with the local on the left.
            BinOp::Sub if self_side && step != 0 => Some(Progress::Additive),
            BinOp::Mul if step.abs() >= 2 => Some(Progress::Multiplicative),
            BinOp::Div if self_side && step.abs() >= 2 => Some(Progress::Multiplicative),
            _ => None,
        }
    }

    /// Classifies the loop-invariant bound expression.
    fn classify_bound_expr(&self, bound: &HExpr, fx: &LoopEffects) -> BoundKind {
        // Constant wins outright.
        if self.facts.const_eval(bound).is_some() {
            return BoundKind::Constant;
        }
        // The bound must not change while the loop runs: reject bounds
        // reading locals the loop stores, fields the loop (or a callee)
        // may rewrite, or values re-read each iteration.
        let reads = CondReads::gather(bound);
        if reads.has_call_or_input
            || reads.locals.iter().any(|s| fx.stored_locals.contains(s))
            || reads.fields.iter().any(|f| fx.stored_fields.contains(f))
        {
            return BoundKind::Unknown;
        }
        let mut kind = BoundKind::Constant;
        let mut classify = |e: &HExpr| match e {
            HExpr::ArrayLen { .. } => kind = kind.max(BoundKind::LinearInputLength),
            HExpr::Local(s) => {
                if self.facts.is_input_local(*s) {
                    kind = kind.max(BoundKind::LinearInputLength);
                } else if self.facts.const_eval(&HExpr::Local(*s)).is_none() {
                    kind = kind.max(BoundKind::LinearLocal);
                }
            }
            HExpr::GetField { .. } | HExpr::GetIndex { .. } => {
                kind = kind.max(BoundKind::LinearLocal)
            }
            _ => {}
        };
        walk_expr_tree(bound, &mut classify);
        kind
    }

    /// Classifies the initial value of an induction local: every store
    /// that is not a self-update is a (re)initialization.
    fn classify_init(&self, slot: LocalSlot, fx: &LoopEffects) -> BoundKind {
        let Some(stores) = self.facts.stores.get(slot as usize) else {
            return BoundKind::Unknown;
        };
        let mut kind = BoundKind::Constant;
        for value in stores {
            if self.progress_shape(slot, value).is_some() {
                continue;
            }
            kind = kind.max(self.classify_bound_expr(value, fx));
        }
        if (slot as usize) < self.facts.n_params as usize {
            // A parameter arrives initialized from the caller.
            kind = kind.max(BoundKind::LinearLocal);
        }
        kind
    }

    /// Lint AP001: the loop has no reachable exit.
    fn lint_no_progress(&mut self, cond: &HExpr, fx: &LoopEffects, line: u32) {
        if fx.direct_break || fx.has_return || fx.has_throw {
            return;
        }
        match cond {
            // `while (false)` never runs — dead, but not a hang.
            HExpr::Bool(false) => return,
            // `while (true)` can only leave via break/return/throw,
            // which we just ruled out.
            HExpr::Bool(true) => {}
            _ => {
                let reads = CondReads::gather(cond);
                // Calls and reads can produce fresh values each test.
                if reads.has_call_or_input {
                    return;
                }
                // A stored condition local can flip the condition.
                if reads.locals.iter().any(|s| fx.stored_locals.contains(s)) {
                    return;
                }
                // Heap reads can change if the loop writes the same
                // field, writes any array cell, or calls out.
                let heap_read = !reads.fields.is_empty() || reads.has_array_access;
                if heap_read
                    && (fx.has_call
                        || fx.has_store_index
                        || reads.fields.iter().any(|f| fx.stored_fields.contains(f)))
                {
                    return;
                }
                // A condition reading nothing mutable and a body storing
                // none of it: the condition's value is frozen.
            }
        }
        self.diagnostics.push(Diagnostic::new(
            Code::NoProgress,
            &self.func.name,
            line,
            "loop makes no progress toward its exit: the condition reads no value \
             the loop body can change, and the body has no break, return, or throw"
                .to_string(),
        ));
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Progress {
    Additive,
    Multiplicative,
}

/// Pre-order walk applying `f` to every node of an expression tree.
fn walk_expr_tree(expr: &HExpr, f: &mut impl FnMut(&HExpr)) {
    f(expr);
    for_each_child(expr, |c| walk_expr_tree(c, f));
}

#[cfg(test)]
mod tests {
    use super::*;
    use algoprof_vm::parser::parse;
    use algoprof_vm::typeck::check;

    fn summaries(src: &str) -> Vec<(FunctionSummary, Vec<Diagnostic>)> {
        let typed = check(&parse(src).expect("parses")).expect("checks");
        typed
            .bodies
            .iter()
            .map(|b| {
                let facts = Facts::collect(b);
                summarize_function(b, &facts)
            })
            .collect()
    }

    fn main_loops(src: &str) -> Vec<LoopSummary> {
        summaries(src)
            .into_iter()
            .find(|(s, _)| s.name == "Main.main")
            .expect("Main.main")
            .0
            .loops
    }

    #[test]
    fn constant_counted_loop() {
        let loops = main_loops(
            r#"class Main { static int main() {
                int s = 0;
                for (int i = 0; i < 10; i = i + 1) { s = s + i; }
                return s;
            } }"#,
        );
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].bound, BoundKind::Constant);
    }

    #[test]
    fn constant_via_const_local() {
        let loops = main_loops(
            r#"class Main { static int main() {
                int n = 4 * 8;
                int s = 0;
                for (int i = 0; i < n; i = i + 1) { s = s + 1; }
                return s;
            } }"#,
        );
        assert_eq!(loops[0].bound, BoundKind::Constant);
    }

    #[test]
    fn input_bounded_loop_is_linear_input() {
        let loops = main_loops(
            r#"class Main { static int main() {
                int n = readInput();
                int s = 0;
                for (int i = 0; i < n; i = i + 1) { s = s + 1; }
                return s;
            } }"#,
        );
        assert_eq!(loops[0].bound, BoundKind::LinearInputLength);
    }

    #[test]
    fn array_length_bound_is_linear_input() {
        let loops = main_loops(
            r#"class Main { static int main() {
                int[] a = new int[7];
                int s = 0;
                for (int i = 0; i < a.length; i = i + 1) { s = s + a[i]; }
                return s;
            } }"#,
        );
        assert_eq!(loops[0].bound, BoundKind::LinearInputLength);
    }

    #[test]
    fn countdown_from_local_is_linear_local() {
        let src = r#"class Main {
            static int work(int n) {
                int s = 0;
                for (int i = n; i > 0; i = i - 1) { s = s + 1; }
                return s;
            }
            static int main() { return Main.work(5); }
        }"#;
        let all = summaries(src);
        let (work, _) = all.iter().find(|(s, _)| s.name == "Main.work").unwrap();
        assert_eq!(work.loops[0].bound, BoundKind::LinearLocal);
    }

    #[test]
    fn doubling_loop_is_logarithmic() {
        let loops = main_loops(
            r#"class Main { static int main() {
                int n = readInput();
                int s = 0;
                for (int i = 1; i < n; i = i * 2) { s = s + 1; }
                return s;
            } }"#,
        );
        assert_eq!(loops[0].bound, BoundKind::Logarithmic);
    }

    #[test]
    fn unrecognized_progress_is_unknown() {
        let loops = main_loops(
            r#"class Main { static int main() {
                int n = readInput();
                int i = 0;
                while (i < n) { i = n - i; }
                return i;
            } }"#,
        );
        assert_eq!(loops[0].bound, BoundKind::Unknown);
    }

    #[test]
    fn loop_tree_and_calls_attribution() {
        let src = r#"class Main {
            static int leaf() { return 1; }
            static int main() {
                int s = Main.leaf();
                for (int i = 0; i < 3; i = i + 1) {
                    for (int j = 0; j < 3; j = j + 1) { s = s + Main.leaf(); }
                }
                return s;
            }
        }"#;
        let all = summaries(src);
        let (main, _) = all.iter().find(|(s, _)| s.name == "Main.main").unwrap();
        assert_eq!(main.loops.len(), 2);
        assert_eq!(main.loops[1].parent, Some(0));
        assert_eq!(main.loops[0].children, vec![1]);
        assert_eq!(main.top_calls.len(), 1);
        assert!(main.loops[0].calls.is_empty());
        assert_eq!(main.loops[1].calls.len(), 1);
    }

    #[test]
    fn no_progress_fires_on_frozen_condition() {
        let src = r#"class Main { static int main() {
            int i = 0;
            int s = 0;
            while (i < 10) { s = s + 1; }
            return s;
        } }"#;
        let all = summaries(src);
        let (_, diags) = all.iter().find(|(s, _)| s.name == "Main.main").unwrap();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::NoProgress);
    }

    #[test]
    fn no_progress_spares_break_and_updates() {
        let src = r#"class Main { static int main() {
            int i = 0;
            while (true) { i = i + 1; if (i > 3) { break; } }
            int j = 0;
            while (j < 10) { j = j + 1; }
            return i + j;
        } }"#;
        let all = summaries(src);
        let (_, diags) = all.iter().find(|(s, _)| s.name == "Main.main").unwrap();
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }
}

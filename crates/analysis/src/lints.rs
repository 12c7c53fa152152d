//! Statement-level lints: AP002–AP007.
//!
//! (AP001, *loop makes no progress*, lives with the bound classifier in
//! [`crate::bounds`] — it shares the loop-effects walk.)

use std::collections::{BTreeMap, BTreeSet};

use algoprof_vm::ast::BinOp;
use algoprof_vm::bytecode::{CompiledProgram, FieldId};
use algoprof_vm::callgraph::{cha_targets, CallGraph};
use algoprof_vm::hir::{HExpr, HFunction, HStmt};

use crate::bounds::{expr_line, for_each_child, stmt_line, Facts};
use crate::diag::{Code, Diagnostic};

/// Runs every statement-level lint over the program.
pub fn lint_program(
    bodies: &[HFunction],
    compiled: &CompiledProgram,
    callgraph: &CallGraph,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for func in bodies {
        let facts = Facts::collect(func);
        lint_no_base_case(func, compiled, callgraph, &mut diags);
        lint_unreachable(func, &mut diags);
        lint_write_only_locals(func, &facts, &mut diags);
        lint_const_traps(func, &facts, &mut diags);
        lint_thread_misuse(func, &facts, &mut diags);
    }
    lint_write_only_fields(bodies, compiled, &mut diags);
    diags
}

// ---------------------------------------------------------------------------
// AP002: recursion with no base case
// ---------------------------------------------------------------------------

/// Outcome of symbolically executing a statement list for AP002.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// Every path through the list reaches a recursive call (line of the
    /// first witness).
    Recurses(u32),
    /// Some path leaves the function without recursing — a base case.
    Exits,
    /// Control may fall through to the statements that follow.
    Falls,
}

fn lint_no_base_case(
    func: &HFunction,
    compiled: &CompiledProgram,
    callgraph: &CallGraph,
    diags: &mut Vec<Diagnostic>,
) {
    let f = func.id.index();
    if !callgraph.potentially_recursive[f] {
        return;
    }
    let my_scc = callgraph.scc[f];
    let is_rec = |e: &HExpr| -> bool {
        let (callee, virt) = match e {
            HExpr::CallStatic { func, .. } | HExpr::CallDirect { func, .. } => (*func, false),
            HExpr::CallVirtual { func, .. } => (*func, true),
            HExpr::NewObject { ctor: Some(c), .. } => (*c, false),
            _ => return false,
        };
        if virt {
            cha_targets(compiled, callee)
                .iter()
                .any(|t| callgraph.scc[t.index()] == my_scc)
        } else {
            callgraph.scc[callee.index()] == my_scc
        }
    };
    if let Path::Recurses(line) = scan_stmts(&func.body, &is_rec) {
        diags.push(Diagnostic::new(
            Code::NoBaseCase,
            &func.name,
            line,
            format!(
                "'{}' recurses on every path: no base case can stop the recursion",
                func.name
            ),
        ));
    }
}

fn scan_stmts(stmts: &[HStmt], is_rec: &dyn Fn(&HExpr) -> bool) -> Path {
    for stmt in stmts {
        // A recursive call in a position that always evaluates settles it.
        if let Some(line) = stmt_rec_call(stmt, is_rec) {
            return Path::Recurses(line);
        }
        match stmt {
            HStmt::Return { .. } | HStmt::Throw { .. } => return Path::Exits,
            // Leaving the list via a loop jump: treat as an escaping
            // path so the lint stays conservative inside loops.
            HStmt::Break | HStmt::Continue => return Path::Exits,
            HStmt::If { then, els, .. } => {
                match (scan_stmts(then, is_rec), scan_stmts(els, is_rec)) {
                    (Path::Recurses(l), Path::Recurses(_)) => return Path::Recurses(l),
                    (Path::Exits, _) | (_, Path::Exits) => return Path::Exits,
                    // At least one arm falls through: keep scanning.
                    _ => {}
                }
            }
            HStmt::Try { body, handler, .. } => {
                match (scan_stmts(body, is_rec), scan_stmts(handler, is_rec)) {
                    (Path::Recurses(l), Path::Recurses(_)) => return Path::Recurses(l),
                    (Path::Exits, _) | (_, Path::Exits) => return Path::Exits,
                    _ => {}
                }
            }
            // A loop body may run zero times: only its condition (checked
            // by `stmt_rec_call`) evaluates unconditionally.
            _ => {}
        }
    }
    Path::Falls
}

/// A recursive call in an always-evaluated position of `stmt`, if any.
fn stmt_rec_call(stmt: &HStmt, is_rec: &dyn Fn(&HExpr) -> bool) -> Option<u32> {
    let mut exprs: Vec<&HExpr> = Vec::new();
    match stmt {
        HStmt::Expr(e) => exprs.push(e),
        HStmt::StoreLocal { value, .. } => exprs.push(value),
        HStmt::StoreField { obj, value, .. } => {
            exprs.push(obj);
            exprs.push(value);
        }
        HStmt::StoreIndex {
            arr, idx, value, ..
        } => {
            exprs.push(arr);
            exprs.push(idx);
            exprs.push(value);
        }
        // If and Loop conditions evaluate at least once.
        HStmt::If { cond, .. } | HStmt::Loop { cond, .. } => exprs.push(cond),
        HStmt::Return { value: Some(v), .. } => exprs.push(v),
        HStmt::Throw { value, .. } => exprs.push(value),
        HStmt::Lock { obj, .. } | HStmt::Unlock { obj, .. } => exprs.push(obj),
        HStmt::Return { value: None, .. } | HStmt::Break | HStmt::Continue | HStmt::Try { .. } => {}
    }
    exprs
        .into_iter()
        .find_map(|e| unconditional_rec_call(e, is_rec))
}

/// Searches `expr` for a recursive call, skipping short-circuited
/// right-hand sides (which may never evaluate).
fn unconditional_rec_call(expr: &HExpr, is_rec: &dyn Fn(&HExpr) -> bool) -> Option<u32> {
    if is_rec(expr) {
        return expr_line(expr);
    }
    match expr {
        HExpr::Binary {
            op: BinOp::And | BinOp::Or,
            lhs,
            ..
        } => unconditional_rec_call(lhs, is_rec),
        _ => {
            let mut found = None;
            for_each_child(expr, |c| {
                if found.is_none() {
                    found = unconditional_rec_call(c, is_rec);
                }
            });
            found
        }
    }
}

// ---------------------------------------------------------------------------
// AP003: unreachable statement after a terminator
// ---------------------------------------------------------------------------

fn lint_unreachable(func: &HFunction, diags: &mut Vec<Diagnostic>) {
    check_list(&func.body, func, diags);

    fn check_list(stmts: &[HStmt], func: &HFunction, diags: &mut Vec<Diagnostic>) {
        for (i, stmt) in stmts.iter().enumerate() {
            // Recurse into live nested lists.
            match stmt {
                HStmt::If { then, els, .. } => {
                    check_list(then, func, diags);
                    check_list(els, func, diags);
                }
                HStmt::Loop { body, update, .. } => {
                    check_list(body, func, diags);
                    check_list(update, func, diags);
                }
                HStmt::Try { body, handler, .. } => {
                    check_list(body, func, diags);
                    check_list(handler, func, diags);
                }
                _ => {}
            }
            if terminates(stmt) {
                if let Some(next) = stmts.get(i + 1) {
                    let line = stmt_line(next)
                        .or_else(|| stmt_line(stmt))
                        .unwrap_or(func.line);
                    diags.push(Diagnostic::new(
                        Code::Unreachable,
                        &func.name,
                        line,
                        format!(
                            "unreachable statement: control never passes the preceding {}",
                            terminator_name(stmt)
                        ),
                    ));
                }
                // Everything after the terminator is dead; one report per
                // list is enough.
                return;
            }
        }
    }
}

/// Whether control can never flow past `stmt`.
fn terminates(stmt: &HStmt) -> bool {
    match stmt {
        HStmt::Return { .. } | HStmt::Throw { .. } | HStmt::Break | HStmt::Continue => true,
        HStmt::If {
            cond, then, els, ..
        } => match cond {
            HExpr::Bool(true) => list_terminates(then),
            HExpr::Bool(false) => list_terminates(els),
            _ => list_terminates(then) && list_terminates(els),
        },
        // `while (true)` without a break at its own level never falls
        // through (it loops or leaves the whole function).
        HStmt::Loop {
            cond: HExpr::Bool(true),
            body,
            update,
            ..
        } => !has_direct_break(body) && !has_direct_break(update),
        _ => false,
    }
}

fn list_terminates(stmts: &[HStmt]) -> bool {
    stmts.iter().any(terminates)
}

fn has_direct_break(stmts: &[HStmt]) -> bool {
    stmts.iter().any(|s| match s {
        HStmt::Break => true,
        HStmt::If { then, els, .. } => has_direct_break(then) || has_direct_break(els),
        HStmt::Try { body, handler, .. } => has_direct_break(body) || has_direct_break(handler),
        // A nested loop captures its own breaks.
        _ => false,
    })
}

fn terminator_name(stmt: &HStmt) -> &'static str {
    match stmt {
        HStmt::Return { .. } => "return",
        HStmt::Throw { .. } => "throw",
        HStmt::Break => "break",
        HStmt::Continue => "continue",
        HStmt::Loop { .. } => "infinite loop",
        _ => "branch (both arms leave the block)",
    }
}

// ---------------------------------------------------------------------------
// AP004: write-only locals and fields
// ---------------------------------------------------------------------------

fn lint_write_only_locals(func: &HFunction, facts: &Facts<'_>, diags: &mut Vec<Diagnostic>) {
    for slot in facts.n_params..facts.stores.len() as u16 {
        let stores = &facts.stores[slot as usize];
        if stores.is_empty() || facts.reads[slot as usize] > 0 || facts.catch_slots.contains(&slot)
        {
            continue;
        }
        let line = stores
            .iter()
            .find_map(|v| expr_line(v))
            .unwrap_or(func.line);
        diags.push(Diagnostic::new(
            Code::WriteOnly,
            &func.name,
            line,
            format!(
                "local variable (slot {slot}) in '{}' is written but never read",
                func.name
            ),
        ));
    }
}

fn lint_write_only_fields(
    bodies: &[HFunction],
    compiled: &CompiledProgram,
    diags: &mut Vec<Diagnostic>,
) {
    let mut written: BTreeMap<FieldId, (String, u32)> = BTreeMap::new();
    let mut read: BTreeSet<FieldId> = BTreeSet::new();

    fn visit_expr(e: &HExpr, read: &mut BTreeSet<FieldId>) {
        if let HExpr::GetField { field, .. } = e {
            read.insert(*field);
        }
        for_each_child(e, |c| visit_expr(c, read));
    }
    fn visit_stmts(
        stmts: &[HStmt],
        func: &HFunction,
        written: &mut BTreeMap<FieldId, (String, u32)>,
        read: &mut BTreeSet<FieldId>,
    ) {
        for s in stmts {
            match s {
                HStmt::Expr(e) => visit_expr(e, read),
                HStmt::StoreLocal { value, .. } => visit_expr(value, read),
                HStmt::StoreField {
                    obj,
                    field,
                    value,
                    line,
                } => {
                    written
                        .entry(*field)
                        .or_insert_with(|| (func.name.clone(), *line));
                    visit_expr(obj, read);
                    visit_expr(value, read);
                }
                HStmt::StoreIndex {
                    arr, idx, value, ..
                } => {
                    visit_expr(arr, read);
                    visit_expr(idx, read);
                    visit_expr(value, read);
                }
                HStmt::If {
                    cond, then, els, ..
                } => {
                    visit_expr(cond, read);
                    visit_stmts(then, func, written, read);
                    visit_stmts(els, func, written, read);
                }
                HStmt::Loop {
                    cond, body, update, ..
                } => {
                    visit_expr(cond, read);
                    visit_stmts(body, func, written, read);
                    visit_stmts(update, func, written, read);
                }
                HStmt::Return { value, .. } => {
                    if let Some(v) = value {
                        visit_expr(v, read);
                    }
                }
                HStmt::Break | HStmt::Continue => {}
                HStmt::Throw { value, .. } => visit_expr(value, read),
                HStmt::Try { body, handler, .. } => {
                    visit_stmts(body, func, written, read);
                    visit_stmts(handler, func, written, read);
                }
                HStmt::Lock { obj, .. } | HStmt::Unlock { obj, .. } => visit_expr(obj, read),
            }
        }
    }

    for func in bodies {
        visit_stmts(&func.body, func, &mut written, &mut read);
    }
    for (field, (func_name, line)) in written {
        if read.contains(&field) {
            continue;
        }
        let info = compiled.field(field);
        let class = &compiled.class(info.class).name;
        diags.push(Diagnostic::new(
            Code::WriteOnly,
            &func_name,
            line,
            format!("field '{class}.{}' is written but never read", info.name),
        ));
    }
}

// ---------------------------------------------------------------------------
// AP005 / AP006: provable traps (interval analysis)
// ---------------------------------------------------------------------------

fn lint_const_traps(func: &HFunction, facts: &Facts<'_>, diags: &mut Vec<Diagnostic>) {
    // Arrays with a compile-time-known length: single-assignment locals
    // initialized from `new T[k]` or an array literal.
    let mut known_len: BTreeMap<u16, i64> = BTreeMap::new();
    for (slot, stores) in facts.stores.iter().enumerate() {
        if let [single] = stores.as_slice() {
            match single {
                HExpr::NewArray { len, .. } => {
                    if let Some(k) = facts.const_eval(len).and_then(|i| i.as_constant()) {
                        known_len.insert(slot as u16, k);
                    }
                }
                HExpr::ArrayLit { elems, .. } => {
                    known_len.insert(slot as u16, elems.len() as i64);
                }
                _ => {}
            }
        }
    }

    let mut check_expr = |e: &HExpr, diags: &mut Vec<Diagnostic>| match e {
        HExpr::GetIndex { arr, idx, line } => {
            check_index(arr, idx, *line, facts, &known_len, func, diags);
        }
        HExpr::Binary {
            op: BinOp::Div | BinOp::Rem,
            rhs,
            line,
            ..
        } if facts.const_eval(rhs).is_some_and(|i| i.is_zero()) => {
            diags.push(Diagnostic::new(
                Code::DivisionByZero,
                &func.name,
                *line,
                "division by a value that is provably zero".to_string(),
            ));
        }
        _ => {}
    };

    fn walk_exprs(
        e: &HExpr,
        f: &mut dyn FnMut(&HExpr, &mut Vec<Diagnostic>),
        d: &mut Vec<Diagnostic>,
    ) {
        f(e, d);
        for_each_child(e, |c| walk_exprs(c, f, d));
    }
    fn walk(
        stmts: &[HStmt],
        f: &mut dyn FnMut(&HExpr, &mut Vec<Diagnostic>),
        facts: &Facts<'_>,
        known_len: &BTreeMap<u16, i64>,
        func: &HFunction,
        d: &mut Vec<Diagnostic>,
    ) {
        for s in stmts {
            match s {
                HStmt::Expr(e) => walk_exprs(e, f, d),
                HStmt::StoreLocal { value, .. } => walk_exprs(value, f, d),
                HStmt::StoreField { obj, value, .. } => {
                    walk_exprs(obj, f, d);
                    walk_exprs(value, f, d);
                }
                HStmt::StoreIndex {
                    arr,
                    idx,
                    value,
                    line,
                } => {
                    check_index(arr, idx, *line, facts, known_len, func, d);
                    walk_exprs(arr, f, d);
                    walk_exprs(idx, f, d);
                    walk_exprs(value, f, d);
                }
                HStmt::If {
                    cond, then, els, ..
                } => {
                    walk_exprs(cond, f, d);
                    walk(then, f, facts, known_len, func, d);
                    walk(els, f, facts, known_len, func, d);
                }
                HStmt::Loop {
                    cond, body, update, ..
                } => {
                    walk_exprs(cond, f, d);
                    walk(body, f, facts, known_len, func, d);
                    walk(update, f, facts, known_len, func, d);
                }
                HStmt::Return { value, .. } => {
                    if let Some(v) = value {
                        walk_exprs(v, f, d);
                    }
                }
                HStmt::Break | HStmt::Continue => {}
                HStmt::Throw { value, .. } => walk_exprs(value, f, d),
                HStmt::Try { body, handler, .. } => {
                    walk(body, f, facts, known_len, func, d);
                    walk(handler, f, facts, known_len, func, d);
                }
                HStmt::Lock { obj, .. } | HStmt::Unlock { obj, .. } => walk_exprs(obj, f, d),
            }
        }
    }
    walk(&func.body, &mut check_expr, facts, &known_len, func, diags);
}

// ---------------------------------------------------------------------------
// AP007: thread-primitive misuse
// ---------------------------------------------------------------------------

/// Flags the ways jay's thread primitives go wrong without tripping the
/// compiler: a `join` of a value that no `spawn` result can reach, the
/// same handle joined twice along one path, an `unlock` with no matching
/// `lock`, a lock still held when the function leaves, and branches or
/// loop bodies that disagree about which locks are held.
///
/// Everything here is per-function and keyed by local slot, so handles
/// and lock objects that flow through fields, arrays, or calls are out
/// of scope — the lint stays conservative (warning-level) by design.
fn lint_thread_misuse(func: &HFunction, facts: &Facts<'_>, diags: &mut Vec<Diagnostic>) {
    let mut joined = BTreeSet::new();
    scan_joins(&func.body, facts, &mut joined, func, diags);

    let mut held: BTreeMap<u16, (u32, u32)> = BTreeMap::new();
    if scan_locks(&func.body, &mut held, func, diags) {
        for (&slot, &(depth, line)) in &held {
            if depth > 0 {
                diags.push(Diagnostic::new(
                    Code::ThreadMisuse,
                    &func.name,
                    line,
                    format!(
                        "lock on local (slot {slot}) in '{}' is never unlocked before the function ends",
                        func.name
                    ),
                ));
            }
        }
    }
}

/// Whether `expr` contains a `spawn` anywhere.
fn contains_spawn(expr: &HExpr) -> bool {
    if matches!(expr, HExpr::Spawn { .. }) {
        return true;
    }
    let mut found = false;
    for_each_child(expr, |c| found = found || contains_spawn(c));
    found
}

/// Whether every store to `slot` is a `spawn` result — the slot is then
/// definitely a thread handle, so a second `join` of it is misuse.
fn is_spawn_local(facts: &Facts<'_>, slot: u16) -> bool {
    facts
        .stores
        .get(slot as usize)
        .is_some_and(|stores| !stores.is_empty() && stores.iter().all(|v| contains_spawn(v)))
}

/// The expressions of `stmt` that evaluate whenever the statement runs
/// (branch and loop bodies excluded — those are path-scanned separately).
fn stmt_exprs(stmt: &HStmt) -> Vec<&HExpr> {
    match stmt {
        HStmt::Expr(e) => vec![e],
        HStmt::StoreLocal { value, .. } => vec![value],
        HStmt::StoreField { obj, value, .. } => vec![obj, value],
        HStmt::StoreIndex {
            arr, idx, value, ..
        } => vec![arr, idx, value],
        HStmt::If { cond, .. } | HStmt::Loop { cond, .. } => vec![cond],
        HStmt::Return { value: Some(v), .. } => vec![v],
        HStmt::Throw { value, .. } => vec![value],
        HStmt::Lock { obj, .. } | HStmt::Unlock { obj, .. } => vec![obj],
        HStmt::Return { value: None, .. } | HStmt::Break | HStmt::Continue | HStmt::Try { .. } => {
            vec![]
        }
    }
}

/// Path-sensitive scan for join misuse. `joined` holds the handle slots
/// already joined on every path reaching the current point.
fn scan_joins(
    stmts: &[HStmt],
    facts: &Facts<'_>,
    joined: &mut BTreeSet<u16>,
    func: &HFunction,
    diags: &mut Vec<Diagnostic>,
) {
    for stmt in stmts {
        for e in stmt_exprs(stmt) {
            check_join_expr(e, facts, joined, func, diags);
        }
        match stmt {
            // A re-store makes the slot a fresh handle (the value was
            // already scanned above, so `t = join t` counts the read).
            HStmt::StoreLocal { slot, .. } => {
                joined.remove(slot);
            }
            HStmt::If { then, els, .. } => {
                let mut a = joined.clone();
                let mut b = joined.clone();
                scan_joins(then, facts, &mut a, func, diags);
                scan_joins(els, facts, &mut b, func, diags);
                // Joined-for-sure afterwards = joined on both arms.
                *joined = &a & &b;
            }
            HStmt::Loop { body, update, .. } => {
                // The body may run zero times: scan it on a throwaway
                // path and keep the pre-loop state. (A join that repeats
                // across iterations is real misuse but not provable
                // here without trip counts.)
                let mut a = joined.clone();
                scan_joins(body, facts, &mut a, func, diags);
                scan_joins(update, facts, &mut a, func, diags);
            }
            HStmt::Try { body, handler, .. } => {
                let mut a = joined.clone();
                let mut b = joined.clone();
                scan_joins(body, facts, &mut a, func, diags);
                scan_joins(handler, facts, &mut b, func, diags);
                *joined = &a & &b;
            }
            _ => {}
        }
    }
}

fn check_join_expr(
    expr: &HExpr,
    facts: &Facts<'_>,
    joined: &mut BTreeSet<u16>,
    func: &HFunction,
    diags: &mut Vec<Diagnostic>,
) {
    if let HExpr::Join { handle, line } = expr {
        if facts.const_eval(handle).is_some() {
            // A compile-time constant can never be a spawn result: the
            // join either traps or waits on an unrelated thread.
            diags.push(Diagnostic::new(
                Code::ThreadMisuse,
                &func.name,
                *line,
                "'join' of a constant value that no 'spawn' result reaches".to_string(),
            ));
        } else if let HExpr::Local(slot) = handle.as_ref() {
            if is_spawn_local(facts, *slot) && !joined.insert(*slot) {
                diags.push(Diagnostic::new(
                    Code::ThreadMisuse,
                    &func.name,
                    *line,
                    format!(
                        "thread handle (slot {slot}) in '{}' is joined twice on the same path",
                        func.name
                    ),
                ));
            }
        }
    }
    for_each_child(expr, |c| check_join_expr(c, facts, joined, func, diags));
}

/// The positive-depth entries of a held-lock map (for path comparison).
fn held_depths(held: &BTreeMap<u16, (u32, u32)>) -> BTreeMap<u16, u32> {
    held.iter()
        .filter(|(_, &(d, _))| d > 0)
        .map(|(&s, &(d, _))| (s, d))
        .collect()
}

/// Per-slot minimum of two held-lock maps (the state that is certain
/// after diverging paths rejoin; avoids cascading reports).
fn held_min(
    a: &BTreeMap<u16, (u32, u32)>,
    b: &BTreeMap<u16, (u32, u32)>,
) -> BTreeMap<u16, (u32, u32)> {
    a.iter()
        .map(|(&s, &(da, line))| {
            let db = b.get(&s).map_or(0, |&(d, _)| d);
            (s, (da.min(db), line))
        })
        .collect()
}

/// Path-sensitive lock-depth scan. `held` maps a lock object's local
/// slot to (depth, line of the first `lock`). Returns whether control
/// can fall out the end of the list.
fn scan_locks(
    stmts: &[HStmt],
    held: &mut BTreeMap<u16, (u32, u32)>,
    func: &HFunction,
    diags: &mut Vec<Diagnostic>,
) -> bool {
    for stmt in stmts {
        match stmt {
            HStmt::Lock {
                obj: HExpr::Local(slot),
                line,
            } => {
                held.entry(*slot).or_insert((0, *line)).0 += 1;
            }
            HStmt::Unlock {
                obj: HExpr::Local(slot),
                line,
            } => match held.get_mut(slot) {
                Some(e) if e.0 > 0 => e.0 -= 1,
                _ => diags.push(Diagnostic::new(
                    Code::ThreadMisuse,
                    &func.name,
                    *line,
                    format!(
                        "'unlock' of local (slot {slot}) in '{}' without a matching 'lock' on this path",
                        func.name
                    ),
                )),
            },
            HStmt::Return { line, .. } | HStmt::Throw { line, .. } => {
                for (&slot, &(depth, _)) in held.iter() {
                    if depth > 0 {
                        diags.push(Diagnostic::new(
                            Code::ThreadMisuse,
                            &func.name,
                            *line,
                            format!(
                                "'{}' leaves while still holding the lock on local (slot {slot})",
                                func.name
                            ),
                        ));
                    }
                }
                return false;
            }
            // A loop jump escapes this list; the enclosing loop's
            // imbalance check covers whatever it left held.
            HStmt::Break | HStmt::Continue => return false,
            HStmt::If { then, els, .. } => {
                let mut a = held.clone();
                let mut b = held.clone();
                let fa = scan_locks(then, &mut a, func, diags);
                let fb = scan_locks(els, &mut b, func, diags);
                match (fa, fb) {
                    (true, true) => {
                        if held_depths(&a) != held_depths(&b) {
                            let line = stmt_line(stmt).unwrap_or(func.line);
                            diags.push(Diagnostic::new(
                                Code::ThreadMisuse,
                                &func.name,
                                line,
                                format!(
                                    "branches of 'if' in '{}' disagree about which locks are held afterwards",
                                    func.name
                                ),
                            ));
                        }
                        *held = held_min(&a, &b);
                    }
                    (true, false) => *held = a,
                    (false, true) => *held = b,
                    (false, false) => return false,
                }
            }
            HStmt::Loop {
                body, update, line, ..
            } => {
                let mut a = held.clone();
                if scan_locks(body, &mut a, func, diags) {
                    scan_locks(update, &mut a, func, diags);
                }
                if held_depths(&a) != held_depths(held) {
                    diags.push(Diagnostic::new(
                        Code::ThreadMisuse,
                        &func.name,
                        *line,
                        format!(
                            "loop body in '{}' changes which locks are held across iterations",
                            func.name
                        ),
                    ));
                }
                // The zero-trip path continues with the pre-loop state.
            }
            HStmt::Try { body, handler, .. } => {
                let mut a = held.clone();
                let mut b = held.clone();
                let fa = scan_locks(body, &mut a, func, diags);
                let fb = scan_locks(handler, &mut b, func, diags);
                match (fa, fb) {
                    (true, true) => *held = held_min(&a, &b),
                    (true, false) => *held = a,
                    (false, true) => *held = b,
                    (false, false) => return false,
                }
            }
            _ => {}
        }
    }
    true
}

#[allow(clippy::too_many_arguments)]
fn check_index(
    arr: &HExpr,
    idx: &HExpr,
    line: u32,
    facts: &Facts<'_>,
    known_len: &BTreeMap<u16, i64>,
    func: &HFunction,
    diags: &mut Vec<Diagnostic>,
) {
    let HExpr::Local(slot) = arr else { return };
    let Some(&len) = known_len.get(slot) else {
        return;
    };
    let Some(interval) = facts.const_eval(idx) else {
        return;
    };
    // Provably out of bounds: the whole interval misses [0, len).
    if interval.hi < 0 || interval.lo >= len {
        let shown = match interval.as_constant() {
            Some(k) => k.to_string(),
            None => format!("[{}, {}]", interval.lo, interval.hi),
        };
        diags.push(Diagnostic::new(
            Code::IndexOutOfBounds,
            &func.name,
            line,
            format!("array index {shown} is provably out of bounds for length {len}"),
        ));
    }
}

#[cfg(test)]
mod tests {
    use crate::analyze_source;
    use crate::diag::{Code, Level};

    fn ap007_lines(src: &str) -> Vec<u32> {
        let a = analyze_source(src).expect("compiles");
        a.diagnostics
            .iter()
            .filter(|d| d.code == Code::ThreadMisuse)
            .inspect(|d| assert_eq!(d.level, Level::Warning, "AP007 is advisory"))
            .map(|d| d.span.line)
            .collect()
    }

    #[test]
    fn join_of_constant_fires() {
        let src = "class Main { static int main() {
            int t = 3;
            return join t;
        } }";
        assert_eq!(ap007_lines(src), vec![3]);
    }

    #[test]
    fn double_join_on_one_path_fires() {
        let src = "class Main {
            static int main() {
                int t1 = spawn work(4);
                int a = join t1;
                int b = join t1;
                return a + b;
            }
            static int work(int n) { return n * 2; }
        }";
        assert_eq!(ap007_lines(src), vec![5]);
    }

    #[test]
    fn joins_on_separate_branches_are_clean() {
        let src = "class Main {
            static int main() {
                int t1 = spawn work(4);
                int r = 0;
                if (1 < 2) { r = join t1; } else { r = join t1; }
                return r;
            }
            static int work(int n) { return n * 2; }
        }";
        assert_eq!(ap007_lines(src), Vec::<u32>::new());
    }

    #[test]
    fn respawn_resets_the_joined_state() {
        let src = "class Main {
            static int main() {
                int t = spawn work(4);
                int a = join t;
                t = spawn work(5);
                int b = join t;
                return a + b;
            }
            static int work(int n) { return n * 2; }
        }";
        assert_eq!(ap007_lines(src), Vec::<u32>::new());
    }

    #[test]
    fn lock_without_unlock_fires_at_function_end() {
        let src = "class Main { static int main() {
            Box b = new Box();
            lock b;
            b.v = 1;
            unlock b;
            lock b;
            return b.v;
        } }
        class Box { int v; }";
        // Line 7: the return leaves with the second lock still held.
        assert_eq!(ap007_lines(src), vec![7]);
    }

    #[test]
    fn unlock_without_lock_fires() {
        let src = "class Main { static int main() {
            Box b = new Box();
            b.v = 2;
            unlock b;
            return b.v;
        } }
        class Box { int v; }";
        assert_eq!(ap007_lines(src), vec![4]);
    }

    #[test]
    fn branch_that_forgets_to_unlock_fires() {
        let src = "class Main { static int main() {
            Box b = new Box();
            b.v = 3;
            lock b;
            if (b.v > 0) { unlock b; }
            return b.v;
        } }
        class Box { int v; }";
        assert_eq!(ap007_lines(src), vec![5]);
    }

    #[test]
    fn balanced_critical_sections_are_clean() {
        let src = "class Main {
            static int main() {
                Box b = new Box();
                int t1 = spawn bump(b);
                lock b;
                b.v = b.v + 1;
                unlock b;
                return join t1 + b.v;
            }
            static int bump(Box b) {
                lock b;
                b.v = b.v + 1;
                unlock b;
                return b.v;
            }
        }
        class Box { int v; }";
        assert_eq!(ap007_lines(src), Vec::<u32>::new());
    }

    #[test]
    fn balanced_lock_inside_loop_is_clean() {
        let src = "class Main { static int main() {
            Box b = new Box();
            for (int i = 0; i < 4; i = i + 1) {
                lock b;
                b.v = b.v + 1;
                unlock b;
            }
            return b.v;
        } }
        class Box { int v; }";
        assert_eq!(ap007_lines(src), Vec::<u32>::new());
    }
}

//! Index-dataflow analysis (the paper's §4.1 future work).
//!
//! AlgoProf's input-based grouping fails on array loop nests like
//! Listing 5, where the outer loop never touches the array itself — it
//! only increments the index the inner loop uses. The paper: *"We
//! believe that this limitation could be overcome with a dataflow
//! analysis that determines which loops increment the indices used in
//! the array accesses."* This module is that analysis.
//!
//! For every function we walk the typed IR once, assigning each loop its
//! pre-order ordinal (which equals the natural-loop ordinal the
//! instrumentation pass assigns, since code generation emits loop
//! headers in pre-order). For each loop we record (a) the local slots it
//! assigns and (b) the local slots appearing in array-index expressions
//! of accesses attributed to it. A hint `(outer, inner)` is emitted when
//! an ancestor loop assigns a local that an inner loop's array accesses
//! index with — exactly Listing 5's `i`.

use crate::hir::{HExpr, HFunction, HStmt, LocalSlot};

/// One grouping hint: the loop with ordinal `outer` drives an index used
/// by array accesses in the loop with ordinal `inner` (both pre-order
/// ordinals within `func`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IndexHint {
    /// Index of the function in the program's function table.
    pub func: u32,
    /// Pre-order ordinal of the driving (outer) loop.
    pub outer: u32,
    /// Pre-order ordinal of the accessing (inner) loop.
    pub inner: u32,
}

#[derive(Debug, Default)]
struct LoopFacts {
    assigned: Vec<LocalSlot>,
    index_locals: Vec<LocalSlot>,
    ancestors: Vec<u32>,
}

struct Walker {
    loops: Vec<LoopFacts>,
    stack: Vec<u32>,
}

/// Analyzes all function bodies, producing grouping hints.
pub fn analyze(bodies: &[HFunction]) -> Vec<IndexHint> {
    let mut hints = Vec::new();
    for body in bodies {
        let mut w = Walker {
            loops: Vec::new(),
            stack: Vec::new(),
        };
        w.walk_stmts(&body.body);
        for (inner, facts) in w.loops.iter().enumerate() {
            for &outer in &facts.ancestors {
                let outer_facts = &w.loops[outer as usize];
                let drives = facts
                    .index_locals
                    .iter()
                    .any(|l| outer_facts.assigned.contains(l));
                if drives {
                    hints.push(IndexHint {
                        func: body.id.0,
                        outer,
                        inner: inner as u32,
                    });
                }
            }
        }
    }
    hints
}

impl Walker {
    fn current(&mut self) -> Option<&mut LoopFacts> {
        let &top = self.stack.last()?;
        Some(&mut self.loops[top as usize])
    }

    fn note_assign(&mut self, slot: LocalSlot) {
        if let Some(facts) = self.current() {
            if !facts.assigned.contains(&slot) {
                facts.assigned.push(slot);
            }
        }
    }

    fn note_index_expr(&mut self, idx: &HExpr) {
        let mut locals = Vec::new();
        collect_locals(idx, &mut locals);
        if let Some(facts) = self.current() {
            for l in locals {
                if !facts.index_locals.contains(&l) {
                    facts.index_locals.push(l);
                }
            }
        }
    }

    fn walk_stmts(&mut self, stmts: &[HStmt]) {
        for (i, s) in stmts.iter().enumerate() {
            // A `for` statement lowers to `[init; Loop]`, so the init
            // store executes in the *enclosing* loop's body. Writing an
            // index once before a loop is not "driving" it (the paper
            // targets loops that *increment* the index), so a store whose
            // local the immediately following loop also updates is treated
            // as that loop's initializer and skipped here.
            if let HStmt::StoreLocal { slot, value, .. } = s {
                let next_loop_updates = matches!(
                    stmts.get(i + 1),
                    Some(HStmt::Loop { update, .. })
                        if update.iter().any(|u| matches!(u, HStmt::StoreLocal { slot: us, .. } if us == slot))
                );
                if next_loop_updates {
                    self.walk_expr(value);
                    continue;
                }
            }
            self.walk_stmt(s);
        }
    }

    fn walk_stmt(&mut self, stmt: &HStmt) {
        match stmt {
            HStmt::Expr(e) => self.walk_expr(e),
            HStmt::StoreLocal { slot, value, .. } => {
                self.note_assign(*slot);
                self.walk_expr(value);
            }
            HStmt::StoreField { obj, value, .. } => {
                self.walk_expr(obj);
                self.walk_expr(value);
            }
            HStmt::StoreIndex {
                arr, idx, value, ..
            } => {
                self.note_index_expr(idx);
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
                let ordinal = self.loops.len() as u32;
                self.loops.push(LoopFacts {
                    ancestors: self.stack.clone(),
                    ..LoopFacts::default()
                });
                self.stack.push(ordinal);
                self.walk_expr(cond);
                self.walk_stmts(body);
                self.walk_stmts(update);
                self.stack.pop();
            }
            HStmt::Return { value, .. } => {
                if let Some(v) = value {
                    self.walk_expr(v);
                }
            }
            HStmt::Break | HStmt::Continue => {}
            HStmt::Throw { value, .. } => self.walk_expr(value),
            HStmt::Lock { obj, .. } | HStmt::Unlock { obj, .. } => self.walk_expr(obj),
            HStmt::Try { body, handler, .. } => {
                self.walk_stmts(body);
                self.walk_stmts(handler);
            }
        }
    }

    fn walk_expr(&mut self, expr: &HExpr) {
        match expr {
            HExpr::GetIndex { arr, idx, .. } => {
                self.note_index_expr(idx);
                self.walk_expr(arr);
                self.walk_expr(idx);
            }
            HExpr::GetField { obj, .. } => self.walk_expr(obj),
            HExpr::ArrayLen { arr, .. } => self.walk_expr(arr),
            HExpr::CallStatic { args, .. }
            | HExpr::CallVirtual { args, .. }
            | HExpr::CallDirect { args, .. }
            | HExpr::NewObject { args, .. } => {
                for a in args {
                    self.walk_expr(a);
                }
            }
            HExpr::NewArray { len, .. } => self.walk_expr(len),
            HExpr::ArrayLit { elems, .. } => {
                for e in elems {
                    self.walk_expr(e);
                }
            }
            HExpr::Cast { expr, .. } | HExpr::InstanceOf { expr, .. } => self.walk_expr(expr),
            HExpr::Unary { expr, .. } => self.walk_expr(expr),
            HExpr::Binary { lhs, rhs, .. } => {
                self.walk_expr(lhs);
                self.walk_expr(rhs);
            }
            HExpr::Print { arg, .. } => self.walk_expr(arg),
            HExpr::Spawn { args, .. } => {
                for a in args {
                    self.walk_expr(a);
                }
            }
            HExpr::Join { handle, .. } => self.walk_expr(handle),
            HExpr::Int(_)
            | HExpr::Bool(_)
            | HExpr::Null
            | HExpr::Local(_)
            | HExpr::ReadInput { .. } => {}
        }
    }
}

fn collect_locals(expr: &HExpr, out: &mut Vec<LocalSlot>) {
    match expr {
        HExpr::Local(s) => out.push(*s),
        HExpr::Unary { expr, .. } => collect_locals(expr, out),
        HExpr::Binary { lhs, rhs, .. } => {
            collect_locals(lhs, out);
            collect_locals(rhs, out);
        }
        HExpr::GetIndex { arr, idx, .. } => {
            collect_locals(arr, out);
            collect_locals(idx, out);
        }
        HExpr::GetField { obj, .. } => collect_locals(obj, out),
        HExpr::ArrayLen { arr, .. } => collect_locals(arr, out),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::typeck::check;

    fn hints_of(src: &str) -> Vec<IndexHint> {
        let typed = check(&parse(src).expect("parses")).expect("checks");
        analyze(&typed.bodies)
    }

    #[test]
    fn listing5_nest_produces_a_hint() {
        let hints = hints_of(
            r#"class Main {
                static int main() {
                    int[][] array = new int[][] { new int[2], new int[2] };
                    for (int i = 0; i < array.length; i = i + 1) {
                        for (int j = 0; j < array[i].length; j = j + 1) {
                            array[i][j] = i * j;
                        }
                    }
                    return 0;
                }
            }"#,
        );
        // The outer loop (ordinal 0) drives index `i` used by the inner
        // loop (ordinal 1).
        assert!(
            hints.iter().any(|h| h.outer == 0 && h.inner == 1),
            "expected outer->inner hint, got {hints:?}"
        );
    }

    #[test]
    fn independent_nest_produces_no_hint() {
        // The inner loop's index does not involve the outer variable.
        let hints = hints_of(
            r#"class Main {
                static int main() {
                    int[] a = new int[4];
                    int s = 0;
                    for (int i = 0; i < 3; i = i + 1) {
                        for (int j = 0; j < a.length; j = j + 1) {
                            s = s + a[j];
                        }
                    }
                    return s;
                }
            }"#,
        );
        assert!(
            !hints.iter().any(|h| h.outer == 0 && h.inner == 1),
            "no hint expected, got {hints:?}"
        );
    }

    #[test]
    fn hint_spans_multiple_levels() {
        let hints = hints_of(
            r#"class Main {
                static int main() {
                    int[] a = new int[64];
                    for (int i = 0; i < 4; i = i + 1) {
                        for (int j = 0; j < 4; j = j + 1) {
                            for (int k = 0; k < 4; k = k + 1) {
                                a[i * 16 + j * 4 + k] = 1;
                            }
                        }
                    }
                    return a[0];
                }
            }"#,
        );
        // The innermost loop (ordinal 2) indexes with i, j, and k: hints
        // from both ancestors.
        assert!(hints.iter().any(|h| h.outer == 0 && h.inner == 2));
        assert!(hints.iter().any(|h| h.outer == 1 && h.inner == 2));
    }

    #[test]
    fn loops_without_arrays_produce_nothing() {
        let hints = hints_of(
            r#"class Main {
                static int main() {
                    int s = 0;
                    for (int i = 0; i < 5; i = i + 1) {
                        for (int j = 0; j < i; j = j + 1) { s = s + 1; }
                    }
                    return s;
                }
            }"#,
        );
        assert!(hints.is_empty());
    }
}

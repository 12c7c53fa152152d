//! Bytecode verifier: static well-formedness checks over compiled (and
//! instrumented) functions.
//!
//! The interpreter trusts its input; this pass proves that trust is
//! justified, catching compiler or instrumentation bugs early:
//!
//! * all jump targets and handler entries are in range,
//! * table indices (locals, fields, classes, functions, loops) are valid,
//! * the operand stack has a consistent depth at every program point
//!   (merge points agree) and never underflows,
//! * every operand has a *kind* consistent with its consumer: arithmetic
//!   and comparisons take ints, branches take bools, field/array/cast
//!   operations take references ([`Kind`] is a four-point lattice
//!   `{Int, Bool, Ref} < Any`, joined pointwise at merges),
//! * functions cannot fall off the end of their code,
//! * loop entry/exit pseudo-instructions are balanced: the active-loop
//!   depth is consistent at every program point and exits match the
//!   innermost entry.

use std::collections::VecDeque;

use crate::bytecode::{CompiledProgram, FuncId, Instr, LoopId};

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// The offending function.
    pub func: FuncId,
    /// Instruction index, when the error is tied to one.
    pub at: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.at {
            Some(at) => write!(f, "{} at pc {}: {}", self.func, at, self.message),
            None => write!(f, "{}: {}", self.func, self.message),
        }
    }
}

impl std::error::Error for VerifyError {}

/// The verifier's abstraction of a runtime value: a flat lattice with
/// `Any` on top. Locals start at `Any` (parameter kinds are not recorded
/// in bytecode) and conflicting merge inputs join to `Any`, so the
/// checker only rejects *provable* kind confusion, never valid code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// An integer.
    Int,
    /// A boolean.
    Bool,
    /// An object, array, or null reference.
    Ref,
    /// Unknown / merged.
    Any,
}

impl Kind {
    fn join(self, other: Kind) -> Kind {
        if self == other {
            self
        } else {
            Kind::Any
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Int => "int",
            Kind::Bool => "bool",
            Kind::Ref => "ref",
            Kind::Any => "any",
        }
    }
}

/// Verifies every function of `program`.
///
/// # Errors
///
/// Returns the first [`VerifyError`] found.
pub fn verify(program: &CompiledProgram) -> Result<(), VerifyError> {
    for (i, _) in program.functions.iter().enumerate() {
        verify_function(program, FuncId(i as u32))?;
    }
    if program.entry.index() >= program.functions.len() {
        return Err(VerifyError {
            func: program.entry,
            at: None,
            message: "entry function out of range".into(),
        });
    }
    Ok(())
}

/// Abstract machine state at one program point.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AbsState {
    stack: Vec<Kind>,
    locals: Vec<Kind>,
    loops: Vec<LoopId>,
}

fn verify_function(program: &CompiledProgram, func_id: FuncId) -> Result<(), VerifyError> {
    let func = program.func(func_id);
    let n = func.code.len();
    let err = |at: Option<usize>, message: String| VerifyError {
        func: func_id,
        at,
        message,
    };

    if func.lines.len() != n {
        return Err(err(None, "line table length mismatch".into()));
    }
    if n == 0 {
        return Err(err(None, "empty code".into()));
    }

    // Range checks on operands: the branch target, the highest local
    // slot, then each base constituent's table indices.
    for (i, instr) in func.code.iter().enumerate() {
        if let Some(t) = instr.targets().filter(|&t| t > n) {
            return Err(err(Some(i), format!("jump target {t} out of range")));
        }
        let constituents = instr.expand();
        let slots = constituents.iter().filter_map(|c| match *c {
            Instr::LoadLocal(s) | Instr::StoreLocal(s) => Some(s),
            _ => None,
        });
        if let Some(s) = slots.max().filter(|&s| s >= func.n_locals) {
            return Err(err(Some(i), format!("local slot {s} out of range")));
        }
        for c in constituents.iter() {
            operand_range(program, c).map_err(|m| err(Some(i), m))?;
        }
    }
    for h in &func.handlers {
        if h.start > h.end || h.end > n || h.target >= n {
            return Err(err(
                None,
                format!(
                    "handler range {}..{} -> {} out of range",
                    h.start, h.end, h.target
                ),
            ));
        }
        if h.catch_slot as usize >= func.n_locals as usize {
            return Err(err(
                None,
                format!("handler catch slot {} out of range", h.catch_slot),
            ));
        }
    }

    // Abstract interpretation of stack depth + operand kinds, local
    // kinds, and the active-loop stack. `state[pc]` = Some(state) once
    // reached; kinds join pointwise at merges (finite lattice, so the
    // fixpoint terminates), while depth and loop-stack mismatches are
    // hard errors.
    let mut state: Vec<Option<AbsState>> = vec![None; n + 1];
    let mut work: VecDeque<usize> = VecDeque::new();
    state[0] = Some(AbsState {
        stack: Vec::new(),
        locals: vec![Kind::Any; func.n_locals as usize],
        loops: Vec::new(),
    });
    work.push_back(0);
    // Handler entries are reachable with an empty operand stack and the
    // recorded loop depth; the concrete loop ids are refined when the
    // protected range is visited, so seed them lazily below.

    let merge = |state: &mut Vec<Option<AbsState>>,
                 work: &mut VecDeque<usize>,
                 pc: usize,
                 incoming: AbsState|
     -> Result<(), VerifyError> {
        match &mut state[pc] {
            s @ None => {
                *s = Some(incoming);
                work.push_back(pc);
                Ok(())
            }
            Some(existing) => {
                if existing.stack.len() != incoming.stack.len() || existing.loops != incoming.loops
                {
                    Err(VerifyError {
                        func: func_id,
                        at: Some(pc),
                        message: format!(
                            "inconsistent state at merge: depth {} vs {}, loops {:?} vs {:?}",
                            existing.stack.len(),
                            incoming.stack.len(),
                            existing.loops,
                            incoming.loops
                        ),
                    })
                } else {
                    let mut changed = false;
                    for (have, new) in existing
                        .stack
                        .iter_mut()
                        .chain(existing.locals.iter_mut())
                        .zip(incoming.stack.iter().chain(incoming.locals.iter()))
                    {
                        let joined = have.join(*new);
                        if joined != *have {
                            *have = joined;
                            changed = true;
                        }
                    }
                    if changed {
                        work.push_back(pc);
                    }
                    Ok(())
                }
            }
        }
    };

    while let Some(pc) = work.pop_front() {
        if pc >= n {
            return Err(err(Some(pc), "control flow reaches past the end".into()));
        }
        let mut next = state[pc].clone().expect("queued pcs have state");
        let constituents = func.code[pc].expand();
        // A superinstruction runs its constituents through the base rules
        // in order, exactly as the unfused code would.
        for &c in constituents.iter() {
            // Seed exception handlers covering this pc from the state
            // before each constituent: stack is cleared, the loop stack
            // is truncated to the recorded depth, and the catch slot
            // receives the thrown value (kind unknown).
            for h in &func.handlers {
                if pc >= h.start && pc < h.end {
                    let keep = (h.active_loops as usize).min(next.loops.len());
                    let mut locals = next.locals.clone();
                    locals[h.catch_slot as usize] = Kind::Any;
                    merge(
                        &mut state,
                        &mut work,
                        h.target,
                        AbsState {
                            stack: Vec::new(),
                            locals,
                            loops: next.loops[..keep].to_vec(),
                        },
                    )?;
                }
            }
            transfer(program, &mut next, c).map_err(|m| err(Some(pc), m))?;
        }

        // Successors follow from the last constituent.
        match constituents[constituents.len() - 1] {
            Instr::Jump(t) => merge(&mut state, &mut work, t, next)?,
            Instr::JumpIfFalse(t) | Instr::JumpIfTrue(t) => {
                merge(&mut state, &mut work, t, next.clone())?;
                merge(&mut state, &mut work, pc + 1, next)?;
            }
            Instr::Ret | Instr::RetVal | Instr::Throw => {
                // Terminators; returning with active loops is fine — the
                // interpreter synthesizes their exits.
            }
            _ => {
                if pc + 1 >= n {
                    return Err(err(Some(pc), "falls off the end of the code".into()));
                }
                merge(&mut state, &mut work, pc + 1, next)?;
            }
        }
    }

    Ok(())
}

/// Range-checks the table indices a base instruction carries.
fn operand_range(program: &CompiledProgram, instr: &Instr) -> Result<(), String> {
    match *instr {
        Instr::New(c) if c.index() >= program.classes.len() => {
            Err(format!("class {c} out of range"))
        }
        Instr::GetField(f) | Instr::PutField(f) if f.index() >= program.fields.len() => {
            Err(format!("field {f} out of range"))
        }
        Instr::CallStatic(m) | Instr::CallVirtual(m) | Instr::CallDirect(m) | Instr::Spawn(m) => {
            if m.index() >= program.functions.len() {
                Err(format!("function {m} out of range"))
            } else if matches!(instr, Instr::CallVirtual(_)) && program.func(m).vslot.is_none() {
                Err(format!("virtual call to {m} without vslot"))
            } else {
                Ok(())
            }
        }
        Instr::ProfLoopEntry(l) | Instr::ProfLoopBack(l) | Instr::ProfLoopExit(l)
            if l.index() >= program.loops.len() =>
        {
            Err(format!("loop {l} out of range"))
        }
        _ => Ok(()),
    }
}

/// Applies one base instruction to the abstract state: the depth
/// pre-check, the operand kinds, and the active-loop stack.
fn transfer(program: &CompiledProgram, next: &mut AbsState, instr: Instr) -> Result<(), String> {
    // Depth pre-check so multi-operand instructions report underflow
    // (not a kind error against a partially-popped stack).
    let needs = match instr {
        Instr::StoreLocal(_)
        | Instr::Pop
        | Instr::Dup
        | Instr::Neg
        | Instr::Not
        | Instr::ArrayLen
        | Instr::NewArray(_)
        | Instr::JumpIfFalse(_)
        | Instr::JumpIfTrue(_)
        | Instr::GetField(_)
        | Instr::RetVal
        | Instr::Throw
        | Instr::CheckCast(_)
        | Instr::InstanceOfOp(_)
        | Instr::Print
        | Instr::JoinThread
        | Instr::Lock
        | Instr::Unlock => 1,
        Instr::Add
        | Instr::Sub
        | Instr::Mul
        | Instr::Div
        | Instr::Rem
        | Instr::CmpLt
        | Instr::CmpLe
        | Instr::CmpGt
        | Instr::CmpGe
        | Instr::CmpEq
        | Instr::CmpNe
        | Instr::PutField(_)
        | Instr::ALoad => 2,
        Instr::AStore => 3,
        Instr::CallStatic(m) | Instr::CallVirtual(m) | Instr::CallDirect(m) | Instr::Spawn(m) => {
            program.func(m).n_params as usize
        }
        _ => 0,
    };
    if next.stack.len() < needs {
        return Err(format!(
            "stack underflow: depth {}, needs {needs}",
            next.stack.len()
        ));
    }

    let pop = |next: &mut AbsState, want: Kind| -> Result<Kind, String> {
        let got = next.stack.pop().expect("depth pre-checked");
        if want != Kind::Any && got != Kind::Any && got != want {
            return Err(format!(
                "operand kind mismatch: {instr:?} expects {}, found {}",
                want.name(),
                got.name()
            ));
        }
        Ok(got)
    };

    match instr {
        Instr::ConstInt(_) | Instr::ReadInput => next.stack.push(Kind::Int),
        Instr::ConstBool(_) => next.stack.push(Kind::Bool),
        Instr::ConstNull | Instr::New(_) => next.stack.push(Kind::Ref),
        Instr::LoadLocal(s) => next.stack.push(next.locals[s as usize]),
        Instr::StoreLocal(s) => {
            let k = pop(next, Kind::Any)?;
            next.locals[s as usize] = k;
        }
        Instr::Pop => {
            pop(next, Kind::Any)?;
        }
        Instr::Dup => {
            let k = *next.stack.last().expect("depth pre-checked");
            next.stack.push(k);
        }
        Instr::Add | Instr::Sub | Instr::Mul | Instr::Div | Instr::Rem => {
            pop(next, Kind::Int)?;
            pop(next, Kind::Int)?;
            next.stack.push(Kind::Int);
        }
        Instr::CmpLt | Instr::CmpLe | Instr::CmpGt | Instr::CmpGe => {
            pop(next, Kind::Int)?;
            pop(next, Kind::Int)?;
            next.stack.push(Kind::Bool);
        }
        Instr::CmpEq | Instr::CmpNe => {
            // Equality is polymorphic (ints, bools, refs) but both
            // sides must agree when both kinds are known.
            let a = pop(next, Kind::Any)?;
            let b = pop(next, Kind::Any)?;
            if a != Kind::Any && b != Kind::Any && a != b {
                return Err(format!(
                    "operand kind mismatch: {instr:?} compares {} with {}",
                    b.name(),
                    a.name()
                ));
            }
            next.stack.push(Kind::Bool);
        }
        Instr::Neg => {
            pop(next, Kind::Int)?;
            next.stack.push(Kind::Int);
        }
        Instr::Not => {
            pop(next, Kind::Bool)?;
            next.stack.push(Kind::Bool);
        }
        Instr::Jump(_) => {}
        Instr::JumpIfFalse(_) | Instr::JumpIfTrue(_) => {
            pop(next, Kind::Bool)?;
        }
        Instr::GetField(_) => {
            pop(next, Kind::Ref)?;
            next.stack.push(Kind::Any);
        }
        Instr::PutField(_) => {
            pop(next, Kind::Any)?;
            pop(next, Kind::Ref)?;
        }
        Instr::ALoad => {
            pop(next, Kind::Int)?;
            pop(next, Kind::Ref)?;
            next.stack.push(Kind::Any);
        }
        Instr::AStore => {
            pop(next, Kind::Any)?;
            pop(next, Kind::Int)?;
            pop(next, Kind::Ref)?;
        }
        Instr::ArrayLen => {
            pop(next, Kind::Ref)?;
            next.stack.push(Kind::Int);
        }
        Instr::NewArray(_) => {
            pop(next, Kind::Int)?;
            next.stack.push(Kind::Ref);
        }
        Instr::CheckCast(_) => {
            pop(next, Kind::Ref)?;
            next.stack.push(Kind::Ref);
        }
        Instr::InstanceOfOp(_) => {
            pop(next, Kind::Ref)?;
            next.stack.push(Kind::Bool);
        }
        Instr::Print | Instr::RetVal | Instr::Throw => {
            // Print/return/throw accept any kind (the type checker
            // enforces source-level typing; thrown values may be
            // ints or refs).
            pop(next, Kind::Any)?;
        }
        Instr::Ret => {}
        Instr::CallStatic(m) | Instr::CallVirtual(m) | Instr::CallDirect(m) => {
            let callee = program.func(m);
            for _ in 0..callee.n_params {
                pop(next, Kind::Any)?;
            }
            // The bytecode does not record return types; recover the
            // fact from the callee's code: a function returns a value
            // iff any RetVal is present (the type checker guarantees
            // consistency).
            if callee.code.iter().any(|i| matches!(i, Instr::RetVal)) {
                next.stack.push(Kind::Any);
            }
        }
        Instr::Spawn(m) => {
            let callee = program.func(m);
            for _ in 0..callee.n_params {
                pop(next, Kind::Any)?;
            }
            next.stack.push(Kind::Int);
        }
        Instr::JoinThread => {
            pop(next, Kind::Int)?;
            next.stack.push(Kind::Int);
        }
        Instr::Lock | Instr::Unlock => {
            pop(next, Kind::Ref)?;
        }
        Instr::ProfLoopEntry(l) => next.loops.push(l),
        Instr::ProfLoopExit(l) => {
            let top = next.loops.pop();
            if top != Some(l) {
                return Err(format!(
                    "loop exit {l} does not match innermost entry {top:?}"
                ));
            }
        }
        Instr::ProfLoopBack(l) => {
            if next.loops.last() != Some(&l) {
                return Err(format!("back edge of {l} outside that loop"));
            }
        }
        fused => return Err(format!("{fused:?} is not a base instruction")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{CmpKind, FieldId};
    use crate::compile::compile;
    use crate::instrument::InstrumentOptions;

    fn assert_verifies(src: &str) {
        let plain = compile(src).expect("compiles");
        verify(&plain).expect("plain program verifies");
        let inst = plain.instrument(&InstrumentOptions::default());
        verify(&inst).expect("instrumented program verifies");
    }

    #[test]
    fn straight_line_verifies() {
        assert_verifies("class Main { static int main() { return 1 + 2; } }");
    }

    #[test]
    fn control_flow_verifies() {
        assert_verifies(
            r#"class Main {
                static int main() {
                    int s = 0;
                    for (int i = 0; i < 10; i = i + 1) {
                        if (i % 2 == 0) { continue; }
                        if (i > 7) { break; }
                        while (s < 100 && i > 0) { s = s + i; }
                    }
                    return s;
                }
            }"#,
        );
    }

    #[test]
    fn exceptions_and_calls_verify() {
        assert_verifies(
            r#"class Main {
                static int main() {
                    try {
                        for (int i = 0; i < 5; i = i + 1) {
                            if (i == 3) { throw i; }
                        }
                    } catch (int e) { return e; }
                    return helper(2, 3);
                }
                static int helper(int a, int b) { return a * b; }
            }"#,
        );
    }

    #[test]
    fn objects_and_arrays_verify() {
        assert_verifies(
            r#"class Main {
                static int main() {
                    Node n = new Node(5);
                    int[] a = new int[] { 1, 2, 3 };
                    Object o = n;
                    if (o instanceof Node) { return ((Node) o).v + a[2] + a.length; }
                    return 0;
                }
            }
            class Node { Node next; int v; Node(int v) { this.v = v; } }"#,
        );
    }

    #[test]
    fn corrupted_jump_is_rejected() {
        let mut p = compile("class Main { static int main() { return 1; } }").expect("compiles");
        p.functions[0].code[0] = Instr::Jump(999);
        let e = verify(&p).expect_err("must reject");
        assert!(e.message.contains("out of range"));
    }

    #[test]
    fn stack_underflow_is_rejected() {
        let mut p = compile("class Main { static int main() { return 1; } }").expect("compiles");
        p.functions[0].code[0] = Instr::Pop;
        let e = verify(&p).expect_err("must reject");
        assert!(e.message.contains("underflow"));
    }

    #[test]
    fn unbalanced_loop_exit_is_rejected() {
        let src = "class Main { static int main() { int s = 0; for (int i = 0; i < 3; i = i + 1) { s = s + 1; } return s; } }";
        let mut p = compile(src)
            .expect("compiles")
            .instrument(&InstrumentOptions::default());
        // Remove the first ProfLoopEntry to unbalance the loop stack.
        let main = &mut p.functions[p.entry.index()];
        let pos = main
            .code
            .iter()
            .position(|i| matches!(i, Instr::ProfLoopEntry(_)))
            .expect("has loop entry");
        main.code[pos] = Instr::ConstInt(0);
        main.code.insert(pos + 1, Instr::Pop);
        main.lines.insert(pos + 1, 0);
        // Depending on layout this may surface as a loop mismatch or an
        // inconsistent merge; either way verification must fail.
        assert!(verify(&p).is_err());
    }

    #[test]
    fn recursive_program_verifies() {
        // The corpus-wide sweep lives in tests/verify_corpus.rs.
        assert_verifies(
            "class Main { static int main() { return fact(6); } static int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); } }",
        );
    }

    /// Replaces the entry function's body with hand-built code (lines
    /// table resized to match) for negative kind-checking tests.
    fn with_main_code(src: &str, code: Vec<Instr>) -> CompiledProgram {
        let mut p = compile(src).expect("compiles");
        let entry = p.entry.index();
        let f = &mut p.functions[entry];
        f.lines = vec![f.decl_line; code.len()];
        f.code = code;
        p
    }

    #[test]
    fn int_operand_to_getfield_is_rejected() {
        let p = with_main_code(
            "class Main { static int main() { return new Node(1).v; } } class Node { int v; Node(int v) { this.v = v; } }",
            vec![Instr::ConstInt(7), Instr::GetField(FieldId(0)), Instr::RetVal],
        );
        let e = verify(&p).expect_err("must reject");
        assert!(e.message.contains("kind"), "{e}");
        assert!(e.message.contains("expects ref"), "{e}");
        assert!(e.message.contains("found int"), "{e}");
    }

    #[test]
    fn add_on_references_is_rejected() {
        let p = with_main_code(
            "class Main { static int main() { return 1; } }",
            vec![
                Instr::ConstNull,
                Instr::ConstNull,
                Instr::Add,
                Instr::RetVal,
            ],
        );
        let e = verify(&p).expect_err("must reject");
        assert!(e.message.contains("kind"), "{e}");
        assert!(e.message.contains("expects int"), "{e}");
        assert!(e.message.contains("found ref"), "{e}");
    }

    #[test]
    fn branch_on_int_is_rejected() {
        let p = with_main_code(
            "class Main { static int main() { return 1; } }",
            vec![
                Instr::ConstInt(1),
                Instr::JumpIfFalse(2),
                Instr::ConstInt(0),
                Instr::RetVal,
            ],
        );
        let e = verify(&p).expect_err("must reject");
        assert!(e.message.contains("kind"), "{e}");
        assert!(e.message.contains("expects bool"), "{e}");
    }

    #[test]
    fn equality_across_kinds_is_rejected() {
        let p = with_main_code(
            "class Main { static int main() { return 1; } }",
            vec![
                Instr::ConstInt(3),
                Instr::ConstNull,
                Instr::CmpEq,
                Instr::Pop,
                Instr::ConstInt(0),
                Instr::RetVal,
            ],
        );
        let e = verify(&p).expect_err("must reject");
        assert!(e.message.contains("kind"), "{e}");
        assert!(e.message.contains("compares int with ref"), "{e}");
    }

    #[test]
    fn superinstruction_bad_local_slot_is_rejected() {
        let p = with_main_code(
            "class Main { static int main() { return 1; } }",
            vec![
                Instr::FusedLoadLoad(0, 99),
                Instr::Pop,
                Instr::Pop,
                Instr::ConstInt(0),
                Instr::RetVal,
            ],
        );
        let e = verify(&p).expect_err("must reject");
        assert!(e.message.contains("local slot 99 out of range"), "{e}");
    }

    #[test]
    fn cmp_jump_target_out_of_range_is_rejected() {
        let p = with_main_code(
            "class Main { static int main() { return 1; } }",
            vec![
                Instr::ConstInt(1),
                Instr::ConstInt(2),
                Instr::CmpJump(CmpKind::Lt, false, 999),
                Instr::ConstInt(0),
                Instr::RetVal,
            ],
        );
        let e = verify(&p).expect_err("must reject");
        assert!(e.message.contains("jump target 999 out of range"), "{e}");
    }

    #[test]
    fn cmp_jump_on_references_is_rejected() {
        let p = with_main_code(
            "class Main { static int main() { return 1; } }",
            vec![
                Instr::ConstNull,
                Instr::ConstNull,
                Instr::CmpJump(CmpKind::Lt, false, 3),
                Instr::ConstInt(0),
                Instr::RetVal,
            ],
        );
        let e = verify(&p).expect_err("must reject");
        assert!(e.message.contains("expects int"), "{e}");
        assert!(e.message.contains("found ref"), "{e}");
    }

    #[test]
    fn cmp_jump_underflow_is_rejected() {
        let p = with_main_code(
            "class Main { static int main() { return 1; } }",
            vec![
                Instr::ConstInt(1),
                Instr::CmpJump(CmpKind::Eq, true, 2),
                Instr::ConstInt(0),
                Instr::RetVal,
            ],
        );
        let e = verify(&p).expect_err("must reject");
        assert!(e.message.contains("underflow"), "{e}");
    }

    #[test]
    fn fused_load_getfield_on_int_local_is_rejected() {
        let p = with_main_code(
            "class Main { static int main() { int x = 0; return x; } } class Node { int v; }",
            vec![
                Instr::ConstInt(3),
                Instr::StoreLocal(0),
                Instr::FusedLoadGetField(0, FieldId(0)),
                Instr::RetVal,
            ],
        );
        let e = verify(&p).expect_err("must reject");
        assert!(e.message.contains("expects ref"), "{e}");
        assert!(e.message.contains("found int"), "{e}");
    }

    #[test]
    fn fused_load_getfield_len_on_int_local_is_rejected() {
        let p = with_main_code(
            "class Main { static int main() { int x = 0; return x; } } class Node { int v; }",
            vec![
                Instr::ConstInt(3),
                Instr::StoreLocal(0),
                Instr::FusedLoadGetFieldLen(0, FieldId(0)),
                Instr::RetVal,
            ],
        );
        let e = verify(&p).expect_err("must reject");
        assert!(e.message.contains("expects ref"), "{e}");
        assert!(e.message.contains("found int"), "{e}");
    }

    #[test]
    fn fused_loop_back_jump_loop_out_of_range_is_rejected() {
        // The compiled-but-uninstrumented program registers no loops, so
        // any loop id is out of range.
        let p = with_main_code(
            "class Main { static int main() { return 1; } }",
            vec![Instr::FusedLoopBackJump(LoopId(0), 0)],
        );
        let e = verify(&p).expect_err("must reject");
        assert!(e.message.contains("loop LoopId#0 out of range"), "{e}");
    }

    #[test]
    fn fused_loop_back_jump_target_out_of_range_is_rejected() {
        let p = with_main_code(
            "class Main { static int main() { return 1; } }",
            vec![Instr::FusedLoopBackJump(LoopId(0), 999)],
        );
        let e = verify(&p).expect_err("must reject");
        assert!(e.message.contains("jump target 999 out of range"), "{e}");
    }

    #[test]
    fn fused_loop_back_jump_outside_its_loop_is_rejected() {
        let src = "class Main { static int main() { int s = 0; for (int i = 0; i < 3; i = i + 1) { s = s + 1; } return s; } }";
        let mut p = compile(src)
            .expect("compiles")
            .instrument(&InstrumentOptions::default());
        let main = &mut p.functions[p.entry.index()];
        // Fuse the back edge by hand, then cut the loop entry so the back
        // edge executes on an empty loop stack.
        let back = main
            .code
            .iter()
            .position(|i| matches!(i, Instr::ProfLoopBack(_)))
            .expect("has back edge");
        let (l, t) = match (main.code[back], main.code[back + 1]) {
            (Instr::ProfLoopBack(l), Instr::Jump(t)) => (l, t),
            other => panic!("unexpected back-edge shape {other:?}"),
        };
        main.code[back] = Instr::FusedLoopBackJump(l, t);
        let entry = main
            .code
            .iter()
            .position(|i| matches!(i, Instr::ProfLoopEntry(_)))
            .expect("has loop entry");
        main.code[entry] = Instr::Jump(entry + 1);
        assert!(verify(&p).is_err());
    }

    #[test]
    fn fused_load_cmp_jump_target_out_of_range_is_rejected() {
        let p = with_main_code(
            "class Main { static int main() { int x = 0; return x; } }",
            vec![
                Instr::ConstInt(0),
                Instr::StoreLocal(0),
                Instr::ConstInt(1),
                Instr::FusedLoadCmpJump(0, CmpKind::Lt, false, 999),
                Instr::ConstInt(0),
                Instr::RetVal,
            ],
        );
        let e = verify(&p).expect_err("must reject");
        assert!(e.message.contains("jump target 999 out of range"), "{e}");
    }

    #[test]
    fn fused_load_load_cmp_jump_on_reference_is_rejected() {
        let p = with_main_code(
            "class Main { static int main() { int x = 0; int y = 0; return x; } }",
            vec![
                Instr::ConstInt(0),
                Instr::StoreLocal(0),
                Instr::ConstNull,
                Instr::StoreLocal(1),
                Instr::FusedLoadLoadCmpJump(0, 1, CmpKind::Lt, false, 7),
                Instr::ConstInt(0),
                Instr::RetVal,
                Instr::ConstInt(1),
                Instr::RetVal,
            ],
        );
        let e = verify(&p).expect_err("must reject");
        assert!(e.message.contains("expects int"), "{e}");
        assert!(e.message.contains("found ref"), "{e}");
    }

    #[test]
    fn fused_field_add_on_int_local_is_rejected() {
        let p = with_main_code(
            "class Main { static int main() { int x = 0; return x; } } class Node { int v; }",
            vec![
                Instr::ConstInt(3),
                Instr::StoreLocal(0),
                Instr::FusedFieldAdd(0, 0, FieldId(0), 1),
                Instr::ConstInt(0),
                Instr::RetVal,
            ],
        );
        let e = verify(&p).expect_err("must reject");
        assert!(e.message.contains("expects ref"), "{e}");
        assert!(e.message.contains("found int"), "{e}");
    }

    #[test]
    fn fused_offset_aload_on_int_local_is_rejected() {
        let p = with_main_code(
            "class Main { static int main() { int x = 0; return x; } }",
            vec![
                Instr::ConstInt(3),
                Instr::StoreLocal(0),
                Instr::FusedLoadLoadOffALoad(0, 0, true, 1),
                Instr::RetVal,
            ],
        );
        let e = verify(&p).expect_err("must reject");
        assert!(e.message.contains("found int"), "{e}");
    }

    #[test]
    fn well_formed_superinstructions_verify() {
        // Hand-built `x = 5; while (x < 10) { x = x + 1 }` and three
        // tests that skip to the end, exercising the compare-and-branch
        // superinstruction shapes end to end.
        let p = with_main_code(
            "class Main { static int main() { int x = 0; return x; } }",
            vec![
                Instr::ConstInt(5),
                Instr::StoreLocal(0),
                Instr::FusedLoadConst(0, 10),
                Instr::CmpJump(CmpKind::Lt, false, 8),
                Instr::FusedLoadConst(0, 1),
                Instr::Add,
                Instr::StoreLocal(0),
                Instr::Jump(2),
                Instr::FusedLoadLoadCmpJump(0, 0, CmpKind::Eq, false, 13),
                Instr::ConstInt(3),
                Instr::FusedLoadCmpJump(0, CmpKind::Gt, true, 13),
                Instr::ConstNull,
                Instr::FusedNullCmpJump(CmpKind::Eq, false, 13),
                Instr::FusedLoadLoad(0, 0),
                Instr::Pop,
                Instr::RetVal,
            ],
        );
        verify(&p).expect("superinstruction code verifies");
    }

    #[test]
    fn threaded_program_verifies() {
        assert_verifies(
            r#"class Main {
                static int main() {
                    int[] a = new int[8];
                    lock a;
                    int t = spawn worker(a, 0);
                    unlock a;
                    return join t;
                }
                static int worker(int[] a, int lo) {
                    lock a;
                    int s = 0;
                    for (int i = lo; i < a.length; i = i + 1) { s = s + a[i]; }
                    unlock a;
                    return s;
                }
            }"#,
        );
    }

    #[test]
    fn spawn_function_out_of_range_is_rejected() {
        let p = with_main_code(
            "class Main { static int main() { return 1; } }",
            vec![Instr::Spawn(FuncId(99)), Instr::RetVal],
        );
        let e = verify(&p).expect_err("must reject");
        assert!(e.message.contains("out of range"), "{e}");
    }

    #[test]
    fn join_on_reference_is_rejected() {
        let p = with_main_code(
            "class Main { static int main() { return 1; } }",
            vec![Instr::ConstNull, Instr::JoinThread, Instr::RetVal],
        );
        let e = verify(&p).expect_err("must reject");
        assert!(e.message.contains("expects int"), "{e}");
        assert!(e.message.contains("found ref"), "{e}");
    }

    #[test]
    fn lock_on_int_is_rejected() {
        let p = with_main_code(
            "class Main { static int main() { return 1; } }",
            vec![
                Instr::ConstInt(3),
                Instr::Lock,
                Instr::ConstInt(0),
                Instr::RetVal,
            ],
        );
        let e = verify(&p).expect_err("must reject");
        assert!(e.message.contains("expects ref"), "{e}");
        assert!(e.message.contains("found int"), "{e}");
    }

    #[test]
    fn kinds_join_to_any_at_merges() {
        // Different branches can leave different provable facts in a
        // local; reading it afterwards joins to Any and still verifies.
        assert_verifies(
            r#"class Main {
                static int main() {
                    int x = 0;
                    if (readInput() > 0) { x = 1; } else { x = 2; }
                    return x;
                }
            }"#,
        );
    }
}

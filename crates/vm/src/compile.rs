//! Bytecode generation: HIR → stack bytecode, and assembly of the final
//! [`CompiledProgram`] tables.

use crate::ast::{BinOp, UnOp};
use crate::bytecode::{ClassInfo, CompiledProgram, FieldInfo, Function, Handler, Instr};
use crate::error::CompileError;
use crate::hir::{HExpr, HFunction, HStmt};
use crate::parser::parse;
use crate::typeck::{check, erase, Ty, TypedProgram};

/// Compiles jay `source` all the way to an (uninstrumented) bytecode
/// program.
///
/// Run [`CompiledProgram::instrument`](crate::instrument) afterwards to
/// enable profiling events; an uninstrumented program executes silently.
///
/// # Errors
///
/// Returns the first lexical, syntactic, semantic, or code-generation
/// error.
pub fn compile(source: &str) -> Result<CompiledProgram, CompileError> {
    Ok(compile_with_bodies(source)?.1)
}

/// The whole front end in one pass: parses and type-checks `source`
/// once, lowers it, and returns the typed HIR bodies (indexed by
/// [`FuncId`](crate::FuncId)) beside the (uninstrumented) program
/// lowered from them. Static analyses that read the HIR use this
/// instead of compiling the source a second time.
///
/// # Errors
///
/// Same as [`compile`].
pub fn compile_with_bodies(
    source: &str,
) -> Result<(Vec<HFunction>, CompiledProgram), CompileError> {
    let typed = check(&parse(source)?)?;
    let program = lower(&typed);
    Ok((typed.bodies, program))
}

fn lower(typed: &TypedProgram) -> CompiledProgram {
    let returns_void: Vec<bool> = typed.bodies.iter().map(|b| b.returns_void).collect();
    let index_hints = crate::indexflow::analyze(&typed.bodies);

    let mut functions = Vec::with_capacity(typed.bodies.len());
    for body in &typed.bodies {
        functions.push(Codegen::new(&returns_void).run(body));
    }
    for (f, sig) in functions.iter_mut().zip(&typed.methods) {
        f.vslot = sig.vslot;
    }

    let classes = typed
        .classes
        .iter()
        .map(|sig| ClassInfo {
            name: sig.name.clone(),
            superclass: match &sig.superclass {
                Some(Ty::Class(s, _)) => Some(*s),
                _ => None,
            },
            field_layout: sig.field_layout.clone(),
            vtable: sig.vtable.clone(),
            ctor: sig.ctor,
            is_recursive: false,
            track_alloc: false,
        })
        .collect();

    let fields = typed
        .fields
        .iter()
        .map(|sig| FieldInfo {
            name: sig.name.clone(),
            class: sig.class,
            slot: sig.slot,
            ty: erase(&sig.ty),
            is_recursive: false,
            track_access: false,
        })
        .collect();

    CompiledProgram {
        classes,
        fields,
        functions,
        loops: Vec::new(),
        entry: typed.entry,
        track_arrays: false,
        track_io: false,
        instrumented: false,
        index_hints,
        loop_hints: Vec::new(),
    }
}

/// Per-function code generator.
struct Codegen<'a> {
    code: Vec<Instr>,
    lines: Vec<u32>,
    handlers: Vec<Handler>,
    loop_stack: Vec<LoopCtx>,
    returns_void: &'a [bool],
    current_line: u32,
}

struct LoopCtx {
    break_patches: Vec<usize>,
    continue_patches: Vec<usize>,
}

impl<'a> Codegen<'a> {
    fn new(returns_void: &'a [bool]) -> Self {
        Codegen {
            code: Vec::new(),
            lines: Vec::new(),
            handlers: Vec::new(),
            loop_stack: Vec::new(),
            returns_void,
            current_line: 0,
        }
    }

    fn run(mut self, f: &HFunction) -> Function {
        self.current_line = f.line;
        self.stmts(&f.body);
        // Implicit return for void functions (constructors included). A
        // non-void function whose last statement is a return never reaches
        // here; the type checker guarantees non-void bodies return on all
        // paths.
        if f.returns_void {
            self.emit(Instr::Ret);
        }
        Function {
            name: f.name.clone(),
            class: f.class,
            is_static: f.is_static,
            is_ctor: f.is_ctor,
            n_params: f.n_params,
            n_locals: f.n_locals,
            vslot: None, // filled in from the signatures by `lower`
            code: self.code,
            lines: self.lines,
            handlers: self.handlers,
            track_entry_exit: false,
            decl_line: f.line,
        }
    }

    fn emit(&mut self, instr: Instr) -> usize {
        self.code.push(instr);
        self.lines.push(self.current_line);
        self.code.len() - 1
    }

    fn here(&self) -> usize {
        self.code.len()
    }

    fn patch(&mut self, at: usize, target: usize) {
        self.code[at] = match self.code[at] {
            Instr::Jump(_) => Instr::Jump(target),
            Instr::JumpIfFalse(_) => Instr::JumpIfFalse(target),
            Instr::JumpIfTrue(_) => Instr::JumpIfTrue(target),
            other => panic!("patching a non-jump instruction {other:?}"),
        };
    }

    /// Patches every jump in `jumps` to `target`.
    fn patch_all(&mut self, jumps: Vec<usize>, target: usize) {
        for at in jumps {
            self.patch(at, target);
        }
    }

    /// Emits `cond` as jumping code: control jumps when `cond` is
    /// `jump_if` and falls through otherwise. `&&`, `||` and `!` become
    /// branches, so no boolean is pushed for them; any other condition
    /// is pushed as a value and tested by one conditional jump. The
    /// operands are evaluated left to right, and a right operand only
    /// when the left one does not decide. Returns the jumps to patch to
    /// the target.
    fn branch(&mut self, cond: &HExpr, jump_if: bool) -> Vec<usize> {
        match cond {
            HExpr::Unary {
                op: UnOp::Not,
                expr,
            } => self.branch(expr, !jump_if),
            HExpr::Binary {
                op: op @ (BinOp::And | BinOp::Or),
                lhs,
                rhs,
                ..
            } => {
                // The left value that decides the whole: false for `&&`,
                // true for `||`.
                let decides = *op == BinOp::Or;
                if jump_if == decides {
                    let mut jumps = self.branch(lhs, decides);
                    jumps.extend(self.branch(rhs, decides));
                    jumps
                } else {
                    let decided = self.branch(lhs, decides);
                    let jumps = self.branch(rhs, jump_if);
                    let skip = self.here();
                    self.patch_all(decided, skip);
                    jumps
                }
            }
            _ => {
                self.expr(cond);
                vec![self.emit(if jump_if {
                    Instr::JumpIfTrue(0)
                } else {
                    Instr::JumpIfFalse(0)
                })]
            }
        }
    }

    fn stmts(&mut self, stmts: &[HStmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, stmt: &HStmt) {
        match stmt {
            HStmt::Expr(e) => {
                self.expr(e);
                if pushes_value(e, self.returns_void) {
                    self.emit(Instr::Pop);
                }
            }
            HStmt::StoreLocal { slot, value, line } => {
                self.current_line = *line;
                self.expr(value);
                self.current_line = *line;
                self.emit(Instr::StoreLocal(*slot));
            }
            HStmt::StoreField {
                obj,
                field,
                value,
                line,
            } => {
                self.current_line = *line;
                self.expr(obj);
                self.expr(value);
                self.current_line = *line;
                self.emit(Instr::PutField(*field));
            }
            HStmt::StoreIndex {
                arr,
                idx,
                value,
                line,
            } => {
                self.current_line = *line;
                self.expr(arr);
                self.expr(idx);
                self.expr(value);
                self.current_line = *line;
                self.emit(Instr::AStore);
            }
            HStmt::If {
                cond,
                then,
                els,
                line,
            } => {
                self.current_line = *line;
                let to_else = self.branch(cond, false);
                self.stmts(then);
                if els.is_empty() {
                    let end = self.here();
                    self.patch_all(to_else, end);
                } else {
                    let over_else = self.emit(Instr::Jump(0));
                    let else_start = self.here();
                    self.patch_all(to_else, else_start);
                    self.stmts(els);
                    let end = self.here();
                    self.patch(over_else, end);
                }
            }
            HStmt::Loop {
                cond,
                body,
                update,
                line,
            } => {
                self.current_line = *line;
                let cond_label = self.here();
                let to_end = self.branch(cond, false);
                self.loop_stack.push(LoopCtx {
                    break_patches: Vec::new(),
                    continue_patches: Vec::new(),
                });
                self.stmts(body);
                let update_label = self.here();
                self.stmts(update);
                self.current_line = *line;
                self.emit(Instr::Jump(cond_label));
                let end = self.here();
                self.patch_all(to_end, end);
                let ctx = self.loop_stack.pop().expect("loop context pushed above");
                self.patch_all(ctx.break_patches, end);
                self.patch_all(ctx.continue_patches, update_label);
            }
            HStmt::Return { value, line } => {
                self.current_line = *line;
                match value {
                    Some(v) => {
                        self.expr(v);
                        self.current_line = *line;
                        self.emit(Instr::RetVal);
                    }
                    None => {
                        self.emit(Instr::Ret);
                    }
                }
            }
            HStmt::Break => {
                let at = self.emit(Instr::Jump(0));
                self.loop_stack
                    .last_mut()
                    .expect("break is inside a loop (checked)")
                    .break_patches
                    .push(at);
            }
            HStmt::Continue => {
                let at = self.emit(Instr::Jump(0));
                self.loop_stack
                    .last_mut()
                    .expect("continue is inside a loop (checked)")
                    .continue_patches
                    .push(at);
            }
            HStmt::Throw { value, line } => {
                self.current_line = *line;
                self.expr(value);
                self.current_line = *line;
                self.emit(Instr::Throw);
            }
            HStmt::Lock { obj, line } => {
                self.current_line = *line;
                self.expr(obj);
                self.current_line = *line;
                self.emit(Instr::Lock);
            }
            HStmt::Unlock { obj, line } => {
                self.current_line = *line;
                self.expr(obj);
                self.current_line = *line;
                self.emit(Instr::Unlock);
            }
            HStmt::Try {
                body,
                catch,
                catch_slot,
                handler,
            } => {
                let start = self.here();
                self.stmts(body);
                let end = self.here();
                let over = self.emit(Instr::Jump(0));
                let target = self.here();
                self.stmts(handler);
                let after = self.here();
                self.patch(over, after);
                self.handlers.push(Handler {
                    start,
                    end,
                    target,
                    catch: *catch,
                    catch_slot: *catch_slot,
                    active_loops: 0, // refined by the instrumentation pass
                });
            }
        }
    }

    fn expr(&mut self, expr: &HExpr) {
        match expr {
            HExpr::Int(v) => {
                self.emit(Instr::ConstInt(*v));
            }
            HExpr::Bool(v) => {
                self.emit(Instr::ConstBool(*v));
            }
            HExpr::Null => {
                self.emit(Instr::ConstNull);
            }
            HExpr::Local(slot) => {
                self.emit(Instr::LoadLocal(*slot));
            }
            HExpr::GetField { obj, field, line } => {
                self.expr(obj);
                self.current_line = *line;
                self.emit(Instr::GetField(*field));
            }
            HExpr::GetIndex { arr, idx, line } => {
                self.expr(arr);
                self.expr(idx);
                self.current_line = *line;
                self.emit(Instr::ALoad);
            }
            HExpr::ArrayLen { arr, line } => {
                self.expr(arr);
                self.current_line = *line;
                self.emit(Instr::ArrayLen);
            }
            HExpr::CallStatic { func, args, line } => {
                for a in args {
                    self.expr(a);
                }
                self.current_line = *line;
                self.emit(Instr::CallStatic(*func));
            }
            HExpr::CallVirtual { func, args, line } => {
                for a in args {
                    self.expr(a);
                }
                self.current_line = *line;
                self.emit(Instr::CallVirtual(*func));
            }
            HExpr::CallDirect { func, args, line } => {
                for a in args {
                    self.expr(a);
                }
                self.current_line = *line;
                self.emit(Instr::CallDirect(*func));
            }
            HExpr::NewObject {
                class,
                ctor,
                args,
                line,
            } => {
                self.current_line = *line;
                self.emit(Instr::New(*class));
                if let Some(ctor) = ctor {
                    self.emit(Instr::Dup);
                    for a in args {
                        self.expr(a);
                    }
                    self.current_line = *line;
                    self.emit(Instr::CallDirect(*ctor));
                }
            }
            HExpr::NewArray { elem, len, line } => {
                self.expr(len);
                self.current_line = *line;
                self.emit(Instr::NewArray(*elem));
            }
            HExpr::ArrayLit { elem, elems, line } => {
                self.current_line = *line;
                self.emit(Instr::ConstInt(elems.len() as i64));
                self.emit(Instr::NewArray(*elem));
                for (i, e) in elems.iter().enumerate() {
                    self.emit(Instr::Dup);
                    self.emit(Instr::ConstInt(i as i64));
                    self.expr(e);
                    self.current_line = *line;
                    self.emit(Instr::AStore);
                }
            }
            HExpr::Cast { target, expr, line } => {
                self.expr(expr);
                self.current_line = *line;
                self.emit(Instr::CheckCast(*target));
            }
            HExpr::InstanceOf { target, expr, line } => {
                self.expr(expr);
                self.current_line = *line;
                self.emit(Instr::InstanceOfOp(*target));
            }
            HExpr::Unary { op, expr } => {
                self.expr(expr);
                self.emit(match op {
                    UnOp::Neg => Instr::Neg,
                    UnOp::Not => Instr::Not,
                });
            }
            HExpr::Binary { op, lhs, rhs, line } => match op {
                BinOp::And | BinOp::Or => {
                    // The right operand's value, unless the left one
                    // decides: then the deciding constant.
                    let decides = *op == BinOp::Or;
                    let decided = self.branch(lhs, decides);
                    self.expr(rhs);
                    let over = self.emit(Instr::Jump(0));
                    let decided_label = self.here();
                    self.patch_all(decided, decided_label);
                    self.emit(Instr::ConstBool(decides));
                    let end = self.here();
                    self.patch(over, end);
                }
                _ => {
                    self.expr(lhs);
                    self.expr(rhs);
                    self.current_line = *line;
                    self.emit(match op {
                        BinOp::Add => Instr::Add,
                        BinOp::Sub => Instr::Sub,
                        BinOp::Mul => Instr::Mul,
                        BinOp::Div => Instr::Div,
                        BinOp::Rem => Instr::Rem,
                        BinOp::Lt => Instr::CmpLt,
                        BinOp::Le => Instr::CmpLe,
                        BinOp::Gt => Instr::CmpGt,
                        BinOp::Ge => Instr::CmpGe,
                        BinOp::Eq => Instr::CmpEq,
                        BinOp::Ne => Instr::CmpNe,
                        BinOp::And | BinOp::Or => unreachable!("handled above"),
                    });
                }
            },
            HExpr::Spawn { func, args, line } => {
                for a in args {
                    self.expr(a);
                }
                self.current_line = *line;
                self.emit(Instr::Spawn(*func));
            }
            HExpr::Join { handle, line } => {
                self.expr(handle);
                self.current_line = *line;
                self.emit(Instr::JoinThread);
            }
            HExpr::ReadInput { line } => {
                self.current_line = *line;
                self.emit(Instr::ReadInput);
            }
            HExpr::Print { arg, line } => {
                self.expr(arg);
                self.current_line = *line;
                self.emit(Instr::Print);
            }
        }
    }
}

/// Whether evaluating `expr` leaves a value on the operand stack.
fn pushes_value(expr: &HExpr, returns_void: &[bool]) -> bool {
    match expr {
        HExpr::CallStatic { func, .. }
        | HExpr::CallVirtual { func, .. }
        | HExpr::CallDirect { func, .. } => !returns_void[func.index()],
        HExpr::Print { .. } => false,
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile_ok(src: &str) -> CompiledProgram {
        compile(src).expect("compiles")
    }

    #[test]
    fn compiles_minimal_program() {
        let p = compile_ok("class Main { static int main() { return 1 + 2; } }");
        let main = p.func(p.entry);
        assert!(main.code.contains(&Instr::Add));
        assert!(main.code.ends_with(&[Instr::RetVal]));
    }

    #[test]
    fn jump_targets_are_in_range() {
        let p = compile_ok(
            r#"
            class Main {
                static int main() {
                    int s = 0;
                    for (int i = 0; i < 10; i = i + 1) {
                        if (i % 2 == 0) { continue; }
                        if (i > 7) { break; }
                        s = s + i;
                    }
                    while (s > 3 && s < 100) { s = s - 1; }
                    return s;
                }
            }
        "#,
        );
        for f in &p.functions {
            assert_eq!(f.code.len(), f.lines.len());
            for instr in &f.code {
                if let Some(t) = instr.targets() {
                    assert!(t <= f.code.len(), "target {t} out of range in {}", f.name);
                }
            }
        }
    }

    #[test]
    fn an_if_condition_takes_the_if_line() {
        // `if (f)` has no leaf that sets a line of its own, so without
        // the statement's line its `load; jump_if_false` would keep
        // line 5's.
        let p = compile_ok(
            "class Main {
                static int main() {
                    int n = readInput();
                    boolean f = n > 3;
                    int c = 0;
                    if (f) { c = 1; }
                    return c;
                }
            }",
        );
        let main = p.func(p.entry);
        let at = main
            .code
            .iter()
            .position(|i| matches!(i, Instr::JumpIfFalse(_)))
            .expect("the if's branch");
        assert_eq!(main.code[at - 1], Instr::LoadLocal(1));
        assert_eq!(main.lines[at - 2], 5, "{:?}", main.code[at - 2]);
        assert_eq!(main.lines[at - 1..=at], [6, 6]);
    }

    #[test]
    fn void_function_gets_implicit_ret() {
        let p =
            compile_ok("class Main { static int main() { f(); return 0; } static void f() { } }");
        let f = p.func(p.func_by_name("Main.f").expect("Main.f exists"));
        assert_eq!(f.code.last(), Some(&Instr::Ret));
    }

    #[test]
    fn ctor_compiles_to_new_dup_calldirect() {
        let p = compile_ok(
            r#"
            class Main { static int main() { Node n = new Node(7); return n.value; } }
            class Node { int value; Node(int v) { this.value = v; } }
        "#,
        );
        let main = p.func(p.entry);
        let node = p.class_by_name("Node").expect("Node exists");
        let new_pos = main
            .code
            .iter()
            .position(|i| *i == Instr::New(node))
            .expect("New emitted");
        assert_eq!(main.code[new_pos + 1], Instr::Dup);
        assert!(matches!(main.code[new_pos + 3], Instr::CallDirect(_)));
    }

    #[test]
    fn try_emits_handler_entry() {
        let p = compile_ok(
            r#"
            class Main {
                static int main() {
                    try { throw 3; } catch (int e) { return e; }
                    return 0;
                }
            }
        "#,
        );
        let main = p.func(p.entry);
        assert_eq!(main.handlers.len(), 1);
        let h = main.handlers[0];
        assert!(h.start < h.end);
        assert!(h.target >= h.end);
    }

    #[test]
    fn expression_statement_result_is_popped() {
        let p = compile_ok(
            "class Main { static int main() { f(); return 0; } static int f() { return 3; } }",
        );
        let main = p.func(p.entry);
        let call_pos = main
            .code
            .iter()
            .position(|i| matches!(i, Instr::CallStatic(_)))
            .expect("call emitted");
        assert_eq!(main.code[call_pos + 1], Instr::Pop);
    }

    #[test]
    fn spawn_join_lock_unlock_compile_to_thread_instrs() {
        let p = compile_ok(
            r#"
            class Main {
                static int main() {
                    int[] a = new int[4];
                    lock a;
                    int t = spawn worker(a);
                    unlock a;
                    return join t;
                }
                static int worker(int[] a) { return a.length; }
            }
        "#,
        );
        let main = p.func(p.entry);
        let worker = p.func_by_name("Main.worker").expect("Main.worker exists");
        assert!(main.code.contains(&Instr::Spawn(worker)));
        assert!(main.code.contains(&Instr::JoinThread));
        assert!(main.code.contains(&Instr::Lock));
        assert!(main.code.contains(&Instr::Unlock));
        let lock_pos = main
            .code
            .iter()
            .position(|i| *i == Instr::Lock)
            .expect("lock emitted");
        let unlock_pos = main
            .code
            .iter()
            .position(|i| *i == Instr::Unlock)
            .expect("unlock emitted");
        assert!(lock_pos < unlock_pos);
    }

    #[test]
    fn array_literal_expands_to_stores() {
        let p = compile_ok(
            "class Main { static int main() { int[] a = new int[] {5, 6}; return a[1]; } }",
        );
        let main = p.func(p.entry);
        let stores = main.code.iter().filter(|i| **i == Instr::AStore).count();
        assert_eq!(stores, 2);
    }
}

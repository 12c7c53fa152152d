//! Typed intermediate representation produced by the type checker.
//!
//! The HIR is a resolved, erased form of the AST: names are replaced by
//! slots and table indices, generic types are erased, `for` loops are
//! normalized into a single [`HStmt::Loop`] form with an explicit update
//! sequence (so `continue` has a well-defined target), and implicit
//! `this.field` accesses are made explicit. Bytecode generation consumes
//! this IR directly.

use crate::ast::{BinOp, UnOp};
use crate::bytecode::{ClassId, ElemKind, FieldId, FuncId};

/// A local variable slot within a function frame.
pub type LocalSlot = u16;

/// A function body in typed IR form.
#[derive(Debug, Clone)]
pub struct HFunction {
    /// Index of this function in the program's function table.
    pub id: FuncId,
    /// Qualified name, e.g. `List.sort`.
    pub name: String,
    /// Declaring class.
    pub class: ClassId,
    /// Whether the function is static (no `this` slot).
    pub is_static: bool,
    /// Whether the function is a constructor.
    pub is_ctor: bool,
    /// Number of parameters, including `this` for instance methods.
    pub n_params: u16,
    /// Total number of local slots (params included).
    pub n_locals: u16,
    /// Whether the declared return type is `void`.
    pub returns_void: bool,
    /// The body statements.
    pub body: Vec<HStmt>,
    /// Source line of the declaration.
    pub line: u32,
}

/// A typed statement.
#[derive(Debug, Clone)]
pub enum HStmt {
    /// Evaluate an expression and discard its result.
    Expr(HExpr),
    /// `local = value`.
    StoreLocal {
        /// Destination slot.
        slot: LocalSlot,
        /// Value to store.
        value: HExpr,
        /// Source line of the statement.
        line: u32,
    },
    /// `obj.field = value`.
    StoreField {
        /// Receiver.
        obj: HExpr,
        /// Resolved field.
        field: FieldId,
        /// Value to store.
        value: HExpr,
        /// Source line (for null-dereference reporting).
        line: u32,
    },
    /// `arr[idx] = value`.
    StoreIndex {
        /// Array expression.
        arr: HExpr,
        /// Index expression.
        idx: HExpr,
        /// Value to store.
        value: HExpr,
        /// Source line.
        line: u32,
    },
    /// Two-way branch.
    If {
        /// Condition.
        cond: HExpr,
        /// Then branch.
        then: Vec<HStmt>,
        /// Else branch (possibly empty).
        els: Vec<HStmt>,
        /// Source line of the `if` keyword.
        line: u32,
    },
    /// Unified loop: `while` has an empty `update`; `for` carries its update
    /// statements so `continue` can branch to them.
    Loop {
        /// Loop condition, re-evaluated each iteration.
        cond: HExpr,
        /// Loop body.
        body: Vec<HStmt>,
        /// Update statements executed after the body and on `continue`.
        update: Vec<HStmt>,
        /// Source line of the loop keyword.
        line: u32,
    },
    /// Return from the function.
    Return {
        /// Optional value.
        value: Option<HExpr>,
        /// Source line.
        line: u32,
    },
    /// Exit the innermost loop.
    Break,
    /// Jump to the innermost loop's update/condition.
    Continue,
    /// Raise a guest exception.
    Throw {
        /// Thrown value.
        value: HExpr,
        /// Source line.
        line: u32,
    },
    /// `lock obj;` — acquire the reentrant lock on a reference.
    Lock {
        /// The locked reference.
        obj: HExpr,
        /// Source line.
        line: u32,
    },
    /// `unlock obj;` — release one level of the lock.
    Unlock {
        /// The unlocked reference.
        obj: HExpr,
        /// Source line.
        line: u32,
    },
    /// `try { body } catch (...) { handler }`.
    Try {
        /// Protected statements.
        body: Vec<HStmt>,
        /// What the handler catches.
        catch: CatchKind,
        /// Slot binding the caught value.
        catch_slot: LocalSlot,
        /// Handler statements.
        handler: Vec<HStmt>,
    },
}

/// Runtime matching rule for a `catch` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CatchKind {
    /// Catches thrown `int` values.
    Int,
    /// Catches thrown `boolean` values.
    Bool,
    /// Catches any thrown reference (object, array, or null).
    AnyRef,
    /// Catches instances of the class (or subclasses).
    Class(ClassId),
    /// Catches any thrown array.
    Array,
}

/// A typed expression.
#[derive(Debug, Clone)]
pub enum HExpr {
    /// Integer constant.
    Int(i64),
    /// Boolean constant.
    Bool(bool),
    /// `null`.
    Null,
    /// Read a local slot (`this` is slot 0 in instance methods).
    Local(LocalSlot),
    /// `obj.field`.
    GetField {
        /// Receiver.
        obj: Box<HExpr>,
        /// Resolved field.
        field: FieldId,
        /// Source line.
        line: u32,
    },
    /// `arr[idx]`.
    GetIndex {
        /// Array expression.
        arr: Box<HExpr>,
        /// Index expression.
        idx: Box<HExpr>,
        /// Source line.
        line: u32,
    },
    /// `arr.length`.
    ArrayLen {
        /// Array expression.
        arr: Box<HExpr>,
        /// Source line.
        line: u32,
    },
    /// Direct call to a static method.
    CallStatic {
        /// Callee.
        func: FuncId,
        /// Arguments.
        args: Vec<HExpr>,
        /// Source line.
        line: u32,
    },
    /// Virtually dispatched instance call; `args[0]` is the receiver.
    CallVirtual {
        /// Statically resolved declaration (dispatch may select an
        /// override).
        func: FuncId,
        /// Receiver followed by arguments.
        args: Vec<HExpr>,
        /// Source line.
        line: u32,
    },
    /// Non-virtual instance call (constructor chaining).
    CallDirect {
        /// Exact callee.
        func: FuncId,
        /// Receiver followed by arguments.
        args: Vec<HExpr>,
        /// Source line.
        line: u32,
    },
    /// Allocate an object and run its constructor (if any).
    NewObject {
        /// Instantiated class.
        class: ClassId,
        /// Constructor, when the class declares one.
        ctor: Option<FuncId>,
        /// Constructor arguments.
        args: Vec<HExpr>,
        /// Source line.
        line: u32,
    },
    /// Allocate an array.
    NewArray {
        /// Element kind after erasure.
        elem: ElemKind,
        /// Length expression.
        len: Box<HExpr>,
        /// Source line.
        line: u32,
    },
    /// Allocate an array from literal elements.
    ArrayLit {
        /// Element kind after erasure.
        elem: ElemKind,
        /// Element expressions.
        elems: Vec<HExpr>,
        /// Source line.
        line: u32,
    },
    /// Checked downcast.
    Cast {
        /// Runtime test.
        target: CatchKind,
        /// Operand.
        expr: Box<HExpr>,
        /// Source line.
        line: u32,
    },
    /// `instanceof` test.
    InstanceOf {
        /// Runtime test.
        target: CatchKind,
        /// Operand.
        expr: Box<HExpr>,
        /// Source line.
        line: u32,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<HExpr>,
    },
    /// Binary operation. `&&` and `||` are compiled with short-circuit
    /// control flow.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<HExpr>,
        /// Right operand.
        rhs: Box<HExpr>,
        /// Source line (division by zero reporting).
        line: u32,
    },
    /// `spawn Class.m(args)` — start a thread on a static method; the
    /// expression's value is the new thread's integer handle.
    Spawn {
        /// The static method the thread runs.
        func: FuncId,
        /// Arguments, evaluated on the spawning thread.
        args: Vec<HExpr>,
        /// Source line.
        line: u32,
    },
    /// `join handle` — block until the thread finishes; evaluates to its
    /// return value.
    Join {
        /// The thread-handle expression.
        handle: Box<HExpr>,
        /// Source line.
        line: u32,
    },
    /// `readInput()` builtin: consumes one host-supplied input value.
    ReadInput {
        /// Source line.
        line: u32,
    },
    /// `print(x)` builtin: appends to the run's output and counts as an
    /// output write.
    Print {
        /// Printed value.
        arg: Box<HExpr>,
        /// Source line.
        line: u32,
    },
}

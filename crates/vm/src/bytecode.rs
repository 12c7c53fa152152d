//! Bytecode instruction set and compiled-program tables for the jay VM.

use std::fmt;

use crate::hir::CatchKind;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the id as a usize index.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}#{}", stringify!($name), self.0)
            }
        }
    };
}

id_type!(
    /// Identifies a class in [`CompiledProgram::classes`].
    ClassId
);
id_type!(
    /// Identifies a declared instance field in [`CompiledProgram::fields`].
    FieldId
);
id_type!(
    /// Identifies a function (method or constructor) in
    /// [`CompiledProgram::functions`].
    FuncId
);
id_type!(
    /// Identifies a natural loop registered by the instrumentation pass in
    /// [`CompiledProgram::loops`].
    LoopId
);

/// The erased element kind of an array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElemKind {
    /// `int[]`.
    Int,
    /// `boolean[]`.
    Bool,
    /// Any reference array (`T[]`, `Object[]`, `T[][]`, ...).
    Ref,
}

/// The erased declared type of a field, used by the recursive-data-type
/// analysis to build the type reference graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErasedType {
    /// `int`.
    Int,
    /// `boolean`.
    Bool,
    /// A class reference; `None` is the built-in `Object` top type (also
    /// the erasure of type variables).
    Ref(Option<ClassId>),
    /// An array of the given element type.
    Array(Box<ErasedType>),
}

impl ErasedType {
    /// Returns the class this type ultimately refers to, looking through
    /// arrays: `Node[][]` refers to `Node`.
    pub fn referent_class(&self) -> Option<ClassId> {
        match self {
            ErasedType::Ref(c) => *c,
            ErasedType::Array(inner) => inner.referent_class(),
            _ => None,
        }
    }
}

/// The comparison performed by a fused compare-and-branch
/// superinstruction. `Lt..Ge` take two ints; `Eq`/`Ne` are polymorphic,
/// exactly like the base [`Instr::CmpLt`]..[`Instr::CmpNe`] family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpKind {
    /// `<` on ints.
    Lt,
    /// `<=` on ints.
    Le,
    /// `>` on ints.
    Gt,
    /// `>=` on ints.
    Ge,
    /// `==` on ints, booleans, or references.
    Eq,
    /// `!=` on ints, booleans, or references.
    Ne,
}

impl CmpKind {
    /// The base comparison instruction this kind stands for.
    pub fn instr(self) -> Instr {
        match self {
            CmpKind::Lt => Instr::CmpLt,
            CmpKind::Le => Instr::CmpLe,
            CmpKind::Gt => Instr::CmpGt,
            CmpKind::Ge => Instr::CmpGe,
            CmpKind::Eq => Instr::CmpEq,
            CmpKind::Ne => Instr::CmpNe,
        }
    }
}

/// One bytecode instruction. Jump targets are absolute instruction indices
/// within the owning function.
///
/// The `Fused*`/`CmpJump` variants at the end are
/// **superinstructions** introduced by the profile-guided peephole pass
/// ([`crate::fuse`]); the compiler never emits them directly. Each one is
/// observationally identical to the base sequence it replaces: it emits
/// one [`crate::event::Event::Instruction`] per constituent opcode (see
/// [`Instr::expand`]) and counts every constituent toward the
/// instruction total, so profiles and event streams are byte-identical
/// with fusion on or off — only the number of dispatches changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// Push an integer constant.
    ConstInt(i64),
    /// Push a boolean constant.
    ConstBool(bool),
    /// Push `null`.
    ConstNull,
    /// Push the value of a local slot.
    LoadLocal(u16),
    /// Pop into a local slot.
    StoreLocal(u16),
    /// Duplicate the top of stack.
    Dup,
    /// Discard the top of stack.
    Pop,
    /// Integer addition (wrapping).
    Add,
    /// Integer subtraction (wrapping).
    Sub,
    /// Integer multiplication (wrapping).
    Mul,
    /// Integer division; raises a guest-visible error on zero.
    Div,
    /// Integer remainder; raises on zero.
    Rem,
    /// Integer negation.
    Neg,
    /// Boolean negation.
    Not,
    /// `<` on ints.
    CmpLt,
    /// `<=` on ints.
    CmpLe,
    /// `>` on ints.
    CmpGt,
    /// `>=` on ints.
    CmpGe,
    /// `==` on ints, booleans, or references.
    CmpEq,
    /// `!=` on ints, booleans, or references.
    CmpNe,
    /// Unconditional jump.
    Jump(usize),
    /// Pop a boolean; jump when false.
    JumpIfFalse(usize),
    /// Pop a boolean; jump when true.
    JumpIfTrue(usize),
    /// Allocate an instance of the class with zeroed fields; push the
    /// reference. Emits an allocation event when the class is
    /// alloc-instrumented.
    New(ClassId),
    /// Pop an object reference; push the field value. Emits a structure
    /// read event when the field is instrumented.
    GetField(FieldId),
    /// Pop value then object reference; store into the field. Emits a
    /// structure write event when the field is instrumented.
    PutField(FieldId),
    /// Pop a length; allocate an array of the element kind.
    NewArray(ElemKind),
    /// Pop index then array; push the element.
    ALoad,
    /// Pop value, index, then array; store the element.
    AStore,
    /// Pop an array; push its length.
    ArrayLen,
    /// Call a static function.
    CallStatic(FuncId),
    /// Call an instance method with virtual dispatch on the receiver
    /// (deepest stack argument).
    CallVirtual(FuncId),
    /// Call an instance method without dispatch (constructors).
    CallDirect(FuncId),
    /// Return `void`.
    Ret,
    /// Pop and return a value.
    RetVal,
    /// Pop a value and raise it as a guest exception.
    Throw,
    /// Pop a reference; push it back if it matches, else raise a
    /// class-cast error.
    CheckCast(CatchKind),
    /// Pop a value; push whether it matches.
    InstanceOfOp(CatchKind),
    /// Read one value from the host-supplied input (input-read event).
    ReadInput,
    /// Pop a value and append it to the run output (output-write event).
    Print,
    /// Pop `n_params` arguments and start a new thread running the static
    /// function; push the new thread's integer handle. Never fused; ends
    /// the current scheduler slice so the new thread registers promptly.
    Spawn(FuncId),
    /// Pop an integer thread handle; block until that thread finishes and
    /// push its return value.
    JoinThread,
    /// Pop a reference; acquire its reentrant lock, blocking while another
    /// thread holds it.
    Lock,
    /// Pop a reference; release one level of its lock. Raises
    /// [`crate::error::RuntimeError::UnlockWithoutLock`] when the current
    /// thread is not the owner.
    Unlock,
    /// Instrumentation: control enters the loop from outside.
    ProfLoopEntry(LoopId),
    /// Instrumentation: a loop back edge is traversed (one algorithmic
    /// step).
    ProfLoopBack(LoopId),
    /// Instrumentation: control leaves the loop.
    ProfLoopExit(LoopId),
    /// Fused `LoadLocal a; LoadLocal b`.
    FusedLoadLoad(u16, u16),
    /// Fused `LoadLocal slot; ConstInt k`.
    FusedLoadConst(u16, i64),
    /// Fused `LoadLocal slot; GetField field`.
    FusedLoadGetField(u16, FieldId),
    /// Fused `Cmp<kind>; JumpIfTrue/JumpIfFalse target`. The `bool` is
    /// the branch sense: `true` jumps when the comparison holds
    /// (`JumpIfTrue`), `false` when it does not (`JumpIfFalse`).
    CmpJump(CmpKind, bool, usize),
    /// Fused `LoadLocal slot; GetField field; ArrayLen` — the ubiquitous
    /// `obj.array.length` with the receiver coming straight from a local.
    /// Only emitted for untracked fields (a tracked field's read event
    /// would otherwise reorder against the constituents' instruction
    /// events).
    FusedLoadGetFieldLen(u16, FieldId),
    /// Fused `ProfLoopBack loop; Jump target` — an inline back edge whose
    /// latch is not `x = x ± k` (`x = x.next`, say), or a back-edge
    /// trampoline. Emits the back-edge event, then jumps; the loop id
    /// survives fusion, keeping indexflow ordinals intact.
    FusedLoopBackJump(LoopId, usize),
    /// Fused `LoadLocal slot; AStore` — the slot holds the value, the
    /// index and array are on the stack (`arr[i] = local`).
    FusedLoadAStore(u16),
    /// Fused `LoadLocal a; LoadLocal b; GetField field; ArrayLen` — the
    /// `this.array.length` read with another operand (typically the index
    /// being range-checked) loaded first. Only fused for untracked fields
    /// on a single source line, like [`Instr::FusedLoadGetFieldLen`].
    FusedLoadLoadGetFieldLen(u16, u16, FieldId),
    /// Fused `LoadLocal a; LoadLocal b; Cmp*; JumpIf*` — a loop-header
    /// comparison of two locals. Target narrowed to `u32`.
    FusedLoadLoadCmpJump(u16, u16, CmpKind, bool, u32),
    /// Fused `LoadLocal obj; LoadLocal value; PutField field` — the
    /// common `obj.field = local` store. The write event comes from the
    /// final `PutField`, so no tracking gate is needed.
    FusedLoadLoadPutField(u16, u16, FieldId),
    /// Fused `LoadLocal obj; LoadLocal obj2; GetField f; ConstInt k; Add;
    /// PutField f` — the field increment `obj.f = obj2.f + k`. Only fused
    /// for untracked fields on a single source line (the mid-window
    /// `GetField` must neither emit nor misattribute).
    FusedFieldAdd(u16, u16, FieldId, i32),
    /// Fused `LoadLocal slot; CallDirect f` — the final argument comes
    /// from a local.
    FusedLoadCallDirect(u16, FuncId),
    /// Fused `LoadLocal slot; CallVirtual f` — the final argument comes
    /// from a local.
    FusedLoadCallVirtual(u16, FuncId),
    /// Fused `New class; Dup` — allocate and duplicate for the ctor call.
    /// The allocation event falls *between* the two instruction events,
    /// so the interpreter emits this window's events inline.
    FusedNewDup(ClassId),
    /// Fused `LoadLocal obj; GetField field; LoadLocal idx; ALoad` — the
    /// array-element read `obj.field[idx]`. Only fused for untracked
    /// fields on a single source line (the mid-window `GetField` must
    /// neither emit nor misattribute); the final `ALoad` still emits its
    /// array-read event.
    FusedLoadGetFieldALoad(u16, FieldId, u16),
    /// Fused `LoadLocal arr; LoadLocal idx; ConstInt k; Add|Sub; ALoad` —
    /// the offset read `arr[idx ± k]`. The `bool` selects `Sub`; the
    /// constant is narrowed to `i32`. Only the final `ALoad` can fault
    /// at a line or emit an event.
    FusedLoadLoadOffALoad(u16, u16, bool, i32),
    /// Fused `LoadLocal slot; ConstInt k; Add|Sub; StoreLocal slot;
    /// ProfLoopBack loop; Jump target` — a loop latch `x = x ± k` with
    /// its inline back edge and the backward jump to the loop header.
    /// The `bool` selects `Sub`. The constant and target are narrowed to
    /// keep the instruction word small; the peephole pass only emits this
    /// when both fit. The back-edge event falls between the store and the
    /// jump.
    FusedIncLoopBack(u16, bool, i32, LoopId, u32),
    /// Fused `LoadLocal slot; Cmp*; JumpIf*` — a test of the value on the
    /// stack against a local (`a[j - 1] > key`). Target narrowed to
    /// `u32`.
    FusedLoadCmpJump(u16, CmpKind, bool, u32),
    /// Fused `ConstNull; Cmp*; JumpIf*` — a null test of the value on
    /// the stack (`x != null`). Target narrowed to `u32`.
    FusedNullCmpJump(CmpKind, bool, u32),
}

// Fusion must not widen the instruction word: every form's operands are
// narrowed to fit beside the widest base operand (`ConstInt`'s `i64`).
const _: () = assert!(std::mem::size_of::<Instr>() == 16);

/// The logical opcode of a base instruction, without operands. This is
/// what [`crate::event::Event::Instruction`] carries and what the
/// opcode-statistics sink counts: superinstructions expand to the base
/// opcodes they replace (see [`Instr::expand`]), so the logical opcode
/// stream is identical with fusion on or off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Opcode {
    /// `const_int`.
    ConstInt,
    /// `const_bool`.
    ConstBool,
    /// `const_null`.
    ConstNull,
    /// `load`.
    LoadLocal,
    /// `store`.
    StoreLocal,
    /// `dup`.
    Dup,
    /// `pop`.
    Pop,
    /// `add`.
    Add,
    /// `sub`.
    Sub,
    /// `mul`.
    Mul,
    /// `div`.
    Div,
    /// `rem`.
    Rem,
    /// `neg`.
    Neg,
    /// `not`.
    Not,
    /// `cmp_lt`.
    CmpLt,
    /// `cmp_le`.
    CmpLe,
    /// `cmp_gt`.
    CmpGt,
    /// `cmp_ge`.
    CmpGe,
    /// `cmp_eq`.
    CmpEq,
    /// `cmp_ne`.
    CmpNe,
    /// `jump`.
    Jump,
    /// `jump_if_false`.
    JumpIfFalse,
    /// `jump_if_true`.
    JumpIfTrue,
    /// `new`.
    New,
    /// `getfield`.
    GetField,
    /// `putfield`.
    PutField,
    /// `newarray`.
    NewArray,
    /// `aload`.
    ALoad,
    /// `astore`.
    AStore,
    /// `arraylen`.
    ArrayLen,
    /// `call_static`.
    CallStatic,
    /// `call_virtual`.
    CallVirtual,
    /// `call_direct`.
    CallDirect,
    /// `ret`.
    Ret,
    /// `ret_val`.
    RetVal,
    /// `throw`.
    Throw,
    /// `checkcast`.
    CheckCast,
    /// `instanceof`.
    InstanceOfOp,
    /// `read_input`.
    ReadInput,
    /// `print`.
    Print,
    /// `spawn`.
    Spawn,
    /// `join_thread`.
    JoinThread,
    /// `lock`.
    Lock,
    /// `unlock`.
    Unlock,
    /// `prof_loop_entry`.
    ProfLoopEntry,
    /// `prof_loop_back`.
    ProfLoopBack,
    /// `prof_loop_exit`.
    ProfLoopExit,
}

impl Opcode {
    /// Number of opcodes (for dense counter tables).
    pub const COUNT: usize = 47;

    /// Every opcode, in [`Opcode::index`] order.
    pub const ALL: &'static [Opcode; Opcode::COUNT] = &[
        Opcode::ConstInt,
        Opcode::ConstBool,
        Opcode::ConstNull,
        Opcode::LoadLocal,
        Opcode::StoreLocal,
        Opcode::Dup,
        Opcode::Pop,
        Opcode::Add,
        Opcode::Sub,
        Opcode::Mul,
        Opcode::Div,
        Opcode::Rem,
        Opcode::Neg,
        Opcode::Not,
        Opcode::CmpLt,
        Opcode::CmpLe,
        Opcode::CmpGt,
        Opcode::CmpGe,
        Opcode::CmpEq,
        Opcode::CmpNe,
        Opcode::Jump,
        Opcode::JumpIfFalse,
        Opcode::JumpIfTrue,
        Opcode::New,
        Opcode::GetField,
        Opcode::PutField,
        Opcode::NewArray,
        Opcode::ALoad,
        Opcode::AStore,
        Opcode::ArrayLen,
        Opcode::CallStatic,
        Opcode::CallVirtual,
        Opcode::CallDirect,
        Opcode::Ret,
        Opcode::RetVal,
        Opcode::Throw,
        Opcode::CheckCast,
        Opcode::InstanceOfOp,
        Opcode::ReadInput,
        Opcode::Print,
        Opcode::Spawn,
        Opcode::JoinThread,
        Opcode::Lock,
        Opcode::Unlock,
        Opcode::ProfLoopEntry,
        Opcode::ProfLoopBack,
        Opcode::ProfLoopExit,
    ];

    /// Dense index of this opcode, in `0..Opcode::COUNT`.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The opcode's stable, lower-snake-case name (matches the
    /// disassembler's mnemonics).
    pub fn name(self) -> &'static str {
        match self {
            Opcode::ConstInt => "const_int",
            Opcode::ConstBool => "const_bool",
            Opcode::ConstNull => "const_null",
            Opcode::LoadLocal => "load",
            Opcode::StoreLocal => "store",
            Opcode::Dup => "dup",
            Opcode::Pop => "pop",
            Opcode::Add => "add",
            Opcode::Sub => "sub",
            Opcode::Mul => "mul",
            Opcode::Div => "div",
            Opcode::Rem => "rem",
            Opcode::Neg => "neg",
            Opcode::Not => "not",
            Opcode::CmpLt => "cmp_lt",
            Opcode::CmpLe => "cmp_le",
            Opcode::CmpGt => "cmp_gt",
            Opcode::CmpGe => "cmp_ge",
            Opcode::CmpEq => "cmp_eq",
            Opcode::CmpNe => "cmp_ne",
            Opcode::Jump => "jump",
            Opcode::JumpIfFalse => "jump_if_false",
            Opcode::JumpIfTrue => "jump_if_true",
            Opcode::New => "new",
            Opcode::GetField => "getfield",
            Opcode::PutField => "putfield",
            Opcode::NewArray => "newarray",
            Opcode::ALoad => "aload",
            Opcode::AStore => "astore",
            Opcode::ArrayLen => "arraylen",
            Opcode::CallStatic => "call_static",
            Opcode::CallVirtual => "call_virtual",
            Opcode::CallDirect => "call_direct",
            Opcode::Ret => "ret",
            Opcode::RetVal => "ret_val",
            Opcode::Throw => "throw",
            Opcode::CheckCast => "checkcast",
            Opcode::InstanceOfOp => "instanceof",
            Opcode::ReadInput => "read_input",
            Opcode::Print => "print",
            Opcode::Spawn => "spawn",
            Opcode::JoinThread => "join_thread",
            Opcode::Lock => "lock",
            Opcode::Unlock => "unlock",
            Opcode::ProfLoopEntry => "prof_loop_entry",
            Opcode::ProfLoopBack => "prof_loop_back",
            Opcode::ProfLoopExit => "prof_loop_exit",
        }
    }
}

/// The base instructions one [`Instr`] stands for, in execution order and
/// with their operands: a superinstruction's constituents, or a base
/// instruction alone. Returned by [`Instr::expand`]; derefs to a slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expansion {
    instrs: [Instr; Expansion::MAX],
    len: u8,
}

impl Expansion {
    /// The most base instructions any superinstruction stands for.
    const MAX: usize = 6;

    #[inline]
    fn of<const N: usize>(instrs: [Instr; N]) -> Expansion {
        let mut buf = [Instr::Ret; Expansion::MAX];
        buf[..N].copy_from_slice(&instrs);
        Expansion {
            instrs: buf,
            len: N as u8,
        }
    }
}

impl std::ops::Deref for Expansion {
    type Target = [Instr];

    #[inline]
    fn deref(&self) -> &[Instr] {
        &self.instrs[..self.len as usize]
    }
}

impl std::ops::DerefMut for Expansion {
    fn deref_mut(&mut self) -> &mut [Instr] {
        &mut self.instrs[..self.len as usize]
    }
}

fn add_or_sub(sub: bool) -> Instr {
    if sub {
        Instr::Sub
    } else {
        Instr::Add
    }
}

fn branch(jump_if: bool, t: usize) -> Instr {
    if jump_if {
        Instr::JumpIfTrue(t)
    } else {
        Instr::JumpIfFalse(t)
    }
}

impl Instr {
    /// The base instructions this instruction stands for, with their
    /// operands. A base instruction expands to itself; a superinstruction
    /// to the sequence it was fused from, narrowed operands widened back.
    /// This is the one definition of every superinstruction: the
    /// interpreter counts and reports one logical instruction per
    /// constituent, and the verifier, the CFG builder and the
    /// disassembler walk the constituents with the base rules.
    #[inline]
    pub fn expand(&self) -> Expansion {
        use Instr::*;
        match *self {
            FusedLoadLoad(a, b) => Expansion::of([LoadLocal(a), LoadLocal(b)]),
            FusedLoadConst(s, k) => Expansion::of([LoadLocal(s), ConstInt(k)]),
            FusedLoadGetField(s, f) => Expansion::of([LoadLocal(s), GetField(f)]),
            CmpJump(kind, jump_if, t) => Expansion::of([kind.instr(), branch(jump_if, t)]),
            FusedLoadGetFieldLen(s, f) => Expansion::of([LoadLocal(s), GetField(f), ArrayLen]),
            FusedLoopBackJump(l, t) => Expansion::of([ProfLoopBack(l), Jump(t)]),
            FusedLoadAStore(s) => Expansion::of([LoadLocal(s), AStore]),
            FusedLoadLoadGetFieldLen(a, b, f) => {
                Expansion::of([LoadLocal(a), LoadLocal(b), GetField(f), ArrayLen])
            }
            FusedLoadLoadCmpJump(a, b, kind, jump_if, t) => Expansion::of([
                LoadLocal(a),
                LoadLocal(b),
                kind.instr(),
                branch(jump_if, t as usize),
            ]),
            FusedLoadLoadPutField(a, b, f) => {
                Expansion::of([LoadLocal(a), LoadLocal(b), PutField(f)])
            }
            FusedFieldAdd(a, b, f, k) => Expansion::of([
                LoadLocal(a),
                LoadLocal(b),
                GetField(f),
                ConstInt(k.into()),
                Add,
                PutField(f),
            ]),
            FusedLoadCallDirect(s, m) => Expansion::of([LoadLocal(s), CallDirect(m)]),
            FusedLoadCallVirtual(s, m) => Expansion::of([LoadLocal(s), CallVirtual(m)]),
            FusedNewDup(c) => Expansion::of([New(c), Dup]),
            FusedLoadGetFieldALoad(s, f, i) => {
                Expansion::of([LoadLocal(s), GetField(f), LoadLocal(i), ALoad])
            }
            FusedLoadLoadOffALoad(a, i, sub, k) => Expansion::of([
                LoadLocal(a),
                LoadLocal(i),
                ConstInt(k.into()),
                add_or_sub(sub),
                ALoad,
            ]),
            FusedIncLoopBack(s, sub, k, l, t) => Expansion::of([
                LoadLocal(s),
                ConstInt(k.into()),
                add_or_sub(sub),
                StoreLocal(s),
                ProfLoopBack(l),
                Jump(t as usize),
            ]),
            FusedLoadCmpJump(s, kind, jump_if, t) => {
                Expansion::of([LoadLocal(s), kind.instr(), branch(jump_if, t as usize)])
            }
            FusedNullCmpJump(kind, jump_if, t) => {
                Expansion::of([ConstNull, kind.instr(), branch(jump_if, t as usize)])
            }
            base => Expansion::of([base]),
        }
    }

    /// The superinstruction's name in disassembly; a base instruction's
    /// is its [`Opcode::name`].
    pub fn mnemonic(&self) -> &'static str {
        if let Some(op) = self.opcode() {
            return op.name();
        }
        match self {
            Instr::FusedLoadLoad(..) => "load2",
            Instr::FusedLoadConst(..) => "load_const",
            Instr::FusedLoadGetField(..) => "load_getfield",
            Instr::CmpJump(..) => "cmp_jump",
            Instr::FusedLoadGetFieldLen(..) => "load_getfield_len",
            Instr::FusedLoopBackJump(..) => "loop_back_jump",
            Instr::FusedLoadAStore(_) => "load_astore",
            Instr::FusedLoadLoadGetFieldLen(..) => "load2_getfield_len",
            Instr::FusedLoadLoadCmpJump(..) => "load2_cmp_jump",
            Instr::FusedLoadLoadPutField(..) => "load2_putfield",
            Instr::FusedFieldAdd(..) => "field_add",
            Instr::FusedLoadCallDirect(..) => "load_call_direct",
            Instr::FusedLoadCallVirtual(..) => "load_call_virtual",
            Instr::FusedNewDup(_) => "new_dup",
            Instr::FusedLoadGetFieldALoad(..) => "load_getfield_aload",
            Instr::FusedLoadLoadOffALoad(..) => "load2_off_aload",
            Instr::FusedIncLoopBack(..) => "inc_loop_back",
            Instr::FusedLoadCmpJump(..) => "load_cmp_jump",
            Instr::FusedNullCmpJump(..) => "null_cmp_jump",
            _ => unreachable!("every base instruction has an opcode"),
        }
    }

    /// The logical opcode of a base instruction, or `None` for a
    /// superinstruction (each of its constituents has one).
    pub fn opcode(&self) -> Option<Opcode> {
        use Opcode as O;
        Some(match self {
            Instr::ConstInt(_) => O::ConstInt,
            Instr::ConstBool(_) => O::ConstBool,
            Instr::ConstNull => O::ConstNull,
            Instr::LoadLocal(_) => O::LoadLocal,
            Instr::StoreLocal(_) => O::StoreLocal,
            Instr::Dup => O::Dup,
            Instr::Pop => O::Pop,
            Instr::Add => O::Add,
            Instr::Sub => O::Sub,
            Instr::Mul => O::Mul,
            Instr::Div => O::Div,
            Instr::Rem => O::Rem,
            Instr::Neg => O::Neg,
            Instr::Not => O::Not,
            Instr::CmpLt => O::CmpLt,
            Instr::CmpLe => O::CmpLe,
            Instr::CmpGt => O::CmpGt,
            Instr::CmpGe => O::CmpGe,
            Instr::CmpEq => O::CmpEq,
            Instr::CmpNe => O::CmpNe,
            Instr::Jump(_) => O::Jump,
            Instr::JumpIfFalse(_) => O::JumpIfFalse,
            Instr::JumpIfTrue(_) => O::JumpIfTrue,
            Instr::New(_) => O::New,
            Instr::GetField(_) => O::GetField,
            Instr::PutField(_) => O::PutField,
            Instr::NewArray(_) => O::NewArray,
            Instr::ALoad => O::ALoad,
            Instr::AStore => O::AStore,
            Instr::ArrayLen => O::ArrayLen,
            Instr::CallStatic(_) => O::CallStatic,
            Instr::CallVirtual(_) => O::CallVirtual,
            Instr::CallDirect(_) => O::CallDirect,
            Instr::Ret => O::Ret,
            Instr::RetVal => O::RetVal,
            Instr::Throw => O::Throw,
            Instr::CheckCast(_) => O::CheckCast,
            Instr::InstanceOfOp(_) => O::InstanceOfOp,
            Instr::ReadInput => O::ReadInput,
            Instr::Print => O::Print,
            Instr::Spawn(_) => O::Spawn,
            Instr::JoinThread => O::JoinThread,
            Instr::Lock => O::Lock,
            Instr::Unlock => O::Unlock,
            Instr::ProfLoopEntry(_) => O::ProfLoopEntry,
            Instr::ProfLoopBack(_) => O::ProfLoopBack,
            Instr::ProfLoopExit(_) => O::ProfLoopExit,
            _ => return None,
        })
    }

    /// Whether this instruction unconditionally transfers control (ends a
    /// basic block with no fall-through): its last constituent is a jump,
    /// a return or a throw.
    #[inline]
    pub fn is_terminator(&self) -> bool {
        matches!(
            self.expand().last(),
            Some(Instr::Jump(_) | Instr::Ret | Instr::RetVal | Instr::Throw)
        )
    }

    /// The branch target of this instruction's last constituent, if any
    /// (no other constituent branches).
    #[inline]
    pub fn targets(&self) -> Option<usize> {
        match self.expand().last()? {
            Instr::Jump(t) | Instr::JumpIfFalse(t) | Instr::JumpIfTrue(t) => Some(*t),
            _ => None,
        }
    }
}

/// An exception-table entry: when a guest exception unwinds past an
/// instruction in `start..end` and the thrown value matches `catch`, the
/// value is bound to `catch_slot` and control transfers to `target`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handler {
    /// First protected instruction index.
    pub start: usize,
    /// One past the last protected instruction index.
    pub end: usize,
    /// Handler entry point.
    pub target: usize,
    /// Matching rule.
    pub catch: CatchKind,
    /// Local slot receiving the caught value.
    pub catch_slot: u16,
    /// Number of instrumented loops active at the handler entry; the
    /// interpreter pops loop-exit events down to this depth while
    /// unwinding. Filled in by the instrumentation pass.
    pub active_loops: u16,
}

/// A compiled function (method or constructor).
#[derive(Debug, Clone)]
pub struct Function {
    /// Qualified name, e.g. `List.sort`.
    pub name: String,
    /// Declaring class.
    pub class: ClassId,
    /// Whether static.
    pub is_static: bool,
    /// Whether a constructor.
    pub is_ctor: bool,
    /// Parameter count including `this` for instance methods.
    pub n_params: u16,
    /// Total local slot count.
    pub n_locals: u16,
    /// Virtual-dispatch slot, for instance methods.
    pub vslot: Option<u16>,
    /// Instruction stream.
    pub code: Vec<Instr>,
    /// Source line per instruction (parallel to `code`).
    pub lines: Vec<u32>,
    /// Exception table, checked in order.
    pub handlers: Vec<Handler>,
    /// Whether the interpreter reports entry/exit events for this function
    /// (set by the instrumentation pass for potential recursion headers).
    pub track_entry_exit: bool,
    /// Source line of the declaration.
    pub decl_line: u32,
}

/// Information about a class.
#[derive(Debug, Clone)]
pub struct ClassInfo {
    /// Class name.
    pub name: String,
    /// Direct superclass, if any.
    pub superclass: Option<ClassId>,
    /// Field layout: slot index -> field id, inherited fields first.
    pub field_layout: Vec<FieldId>,
    /// Virtual dispatch table: vslot -> implementing function.
    pub vtable: Vec<FuncId>,
    /// Constructor, if declared.
    pub ctor: Option<FuncId>,
    /// Whether the class participates in a recursive type cycle (set by
    /// the recursive-type analysis during instrumentation).
    pub is_recursive: bool,
    /// Whether `new` of this class reports an allocation event.
    pub track_alloc: bool,
}

/// Information about a declared instance field.
#[derive(Debug, Clone)]
pub struct FieldInfo {
    /// Field name.
    pub name: String,
    /// Declaring class.
    pub class: ClassId,
    /// Slot in the object layout of the declaring class (and subclasses).
    pub slot: u16,
    /// Erased declared type.
    pub ty: ErasedType,
    /// Whether the field participates in a recursive type cycle.
    pub is_recursive: bool,
    /// Whether get/put of this field reports structure access events.
    pub track_access: bool,
}

/// A natural loop registered by the instrumentation pass.
#[derive(Debug, Clone)]
pub struct LoopInfo {
    /// The loop's id (index in [`CompiledProgram::loops`]).
    pub id: LoopId,
    /// Function containing the loop.
    pub func: FuncId,
    /// Ordinal of the loop within its function, in header order.
    pub ordinal: u32,
    /// Source line of the loop header.
    pub line: u32,
    /// Id of the innermost enclosing loop in the same function, if any.
    pub parent: Option<LoopId>,
    /// Human-readable name, e.g. `List.sort:loop1@L9`.
    pub name: String,
}

/// A fully compiled (and possibly instrumented) jay program.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// Class table.
    pub classes: Vec<ClassInfo>,
    /// Global field table.
    pub fields: Vec<FieldInfo>,
    /// Function table.
    pub functions: Vec<Function>,
    /// Loops found by the instrumentation pass (empty before
    /// instrumentation).
    pub loops: Vec<LoopInfo>,
    /// The `Main.main` entry point.
    pub entry: FuncId,
    /// Whether array load/store events are reported.
    pub track_arrays: bool,
    /// Whether `readInput`/`print` events are reported.
    pub track_io: bool,
    /// Whether [`crate::instrument::InstrumentOptions`] have been applied.
    pub instrumented: bool,
    /// Raw index-dataflow grouping hints from [`crate::indexflow`]
    /// (function + pre-order loop ordinals).
    pub index_hints: Vec<crate::indexflow::IndexHint>,
    /// The same hints resolved to registered loops (filled by the
    /// instrumentation pass): `(outer, inner)` means the outer loop
    /// drives an index used by the inner loop's array accesses.
    pub loop_hints: Vec<(LoopId, LoopId)>,
}

impl CompiledProgram {
    /// Returns the class info for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (ids come from this program's own
    /// tables, so that indicates a bug).
    pub fn class(&self, id: ClassId) -> &ClassInfo {
        &self.classes[id.index()]
    }

    /// Returns the field info for `id`.
    pub fn field(&self, id: FieldId) -> &FieldInfo {
        &self.fields[id.index()]
    }

    /// Returns the function for `id`.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Returns the loop info for `id`.
    pub fn loop_info(&self, id: LoopId) -> &LoopInfo {
        &self.loops[id.index()]
    }

    /// Finds a class by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.classes
            .iter()
            .position(|c| c.name == name)
            .map(|i| ClassId(i as u32))
    }

    /// Finds a function by qualified name (`Class.method`).
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Whether `sub` is `sup` or a subclass of it.
    pub fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        let mut cur = Some(sub);
        while let Some(c) = cur {
            if c == sup {
                return true;
            }
            cur = self.class(c).superclass;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_display_and_index() {
        assert_eq!(ClassId(3).index(), 3);
        assert_eq!(FuncId(7).to_string(), "FuncId#7");
    }

    #[test]
    fn erased_type_referent_looks_through_arrays() {
        let t = ErasedType::Array(Box::new(ErasedType::Array(Box::new(ErasedType::Ref(
            Some(ClassId(5)),
        )))));
        assert_eq!(t.referent_class(), Some(ClassId(5)));
        assert_eq!(ErasedType::Int.referent_class(), None);
    }

    #[test]
    fn instr_terminator_and_targets() {
        assert!(Instr::Jump(3).is_terminator());
        assert!(Instr::Ret.is_terminator());
        assert!(!Instr::JumpIfFalse(3).is_terminator());
        assert_eq!(Instr::JumpIfTrue(9).targets(), Some(9));
        assert_eq!(Instr::Add.targets(), None);
    }

    #[test]
    fn superinstruction_targets_and_terminators() {
        let cj = Instr::CmpJump(CmpKind::Lt, false, 7);
        assert_eq!(cj.targets(), Some(7));
        // Fused compare-and-branch still falls through: not a terminator.
        assert!(!cj.is_terminator());
        // A fused back-edge jump is an unconditional transfer.
        let lbj = Instr::FusedLoopBackJump(LoopId(2), 13);
        assert_eq!(lbj.targets(), Some(13));
        assert!(lbj.is_terminator());
        // So is the fused loop latch with its inline back edge.
        let ilb = Instr::FusedIncLoopBack(0, false, 1, LoopId(1), 21);
        assert_eq!(ilb.targets(), Some(21));
        assert!(ilb.is_terminator());
        let dlb = Instr::FusedIncLoopBack(0, true, 1, LoopId(1), 3);
        assert_eq!(dlb.targets(), Some(3));
        assert!(dlb.is_terminator());
        // The load and null compare-and-branch forms fall through like
        // any branch.
        for (instr, t) in [
            (
                Instr::FusedLoadLoadCmpJump(0, 1, CmpKind::Lt, false, 17),
                17,
            ),
            (Instr::FusedLoadCmpJump(0, CmpKind::Gt, false, 11), 11),
            (Instr::FusedNullCmpJump(CmpKind::Ne, true, 5), 5),
        ] {
            assert_eq!(instr.targets(), Some(t), "{instr:?}");
            assert!(!instr.is_terminator(), "{instr:?}");
        }
        // Straight-line superinstructions neither branch nor terminate.
        for instr in [
            Instr::FusedLoadLoadGetFieldLen(0, 1, FieldId(0)),
            Instr::FusedLoadLoadPutField(0, 1, FieldId(0)),
            Instr::FusedFieldAdd(0, 1, FieldId(0), 1),
            Instr::FusedLoadCallDirect(0, FuncId(0)),
            Instr::FusedLoadCallVirtual(0, FuncId(0)),
            Instr::FusedNewDup(ClassId(0)),
            Instr::FusedLoadGetFieldALoad(0, FieldId(0), 1),
            Instr::FusedLoadLoadOffALoad(0, 1, true, 1),
        ] {
            assert_eq!(instr.targets(), None, "{instr:?}");
            assert!(!instr.is_terminator(), "{instr:?}");
        }
    }

    #[test]
    fn base_instructions_expand_to_themselves() {
        for instr in [
            Instr::Add,
            Instr::LoadLocal(3),
            Instr::Jump(9),
            Instr::ProfLoopBack(LoopId(0)),
        ] {
            assert_eq!(&*instr.expand(), &[instr]);
            assert_eq!(instr.mnemonic(), instr.opcode().expect("base").name());
        }
    }

    #[test]
    fn expansions_carry_widened_operands() {
        use Instr as I;
        assert_eq!(
            &*I::FusedIncLoopBack(2, false, -3, LoopId(4), 21).expand(),
            &[
                I::LoadLocal(2),
                I::ConstInt(-3),
                I::Add,
                I::StoreLocal(2),
                I::ProfLoopBack(LoopId(4)),
                I::Jump(21)
            ]
        );
        assert_eq!(
            &*I::FusedIncLoopBack(2, true, 1, LoopId(0), 5).expand(),
            &[
                I::LoadLocal(2),
                I::ConstInt(1),
                I::Sub,
                I::StoreLocal(2),
                I::ProfLoopBack(LoopId(0)),
                I::Jump(5)
            ]
        );
        assert_eq!(
            &*I::FusedLoadCmpJump(3, CmpKind::Gt, false, 9).expand(),
            &[I::LoadLocal(3), I::CmpGt, I::JumpIfFalse(9)]
        );
        assert_eq!(
            &*I::FusedNullCmpJump(CmpKind::Ne, true, 2).expand(),
            &[I::ConstNull, I::CmpNe, I::JumpIfTrue(2)]
        );
        assert_eq!(
            &*I::FusedLoadLoadOffALoad(0, 3, true, 1).expand(),
            &[
                I::LoadLocal(0),
                I::LoadLocal(3),
                I::ConstInt(1),
                I::Sub,
                I::ALoad
            ]
        );
        assert_eq!(
            &*I::FusedLoadLoadCmpJump(0, 1, CmpKind::Ge, true, 17).expand(),
            &[
                I::LoadLocal(0),
                I::LoadLocal(1),
                I::CmpGe,
                I::JumpIfTrue(17)
            ]
        );
        assert_eq!(
            &*I::FusedFieldAdd(4, 5, FieldId(6), 7).expand(),
            &[
                I::LoadLocal(4),
                I::LoadLocal(5),
                I::GetField(FieldId(6)),
                I::ConstInt(7),
                I::Add,
                I::PutField(FieldId(6))
            ]
        );
        let cj = I::CmpJump(CmpKind::Ne, false, 4);
        assert_eq!(&*cj.expand(), &[I::CmpNe, I::JumpIfFalse(4)]);
        assert_eq!(cj.opcode(), None);
        assert_eq!(cj.mnemonic(), "cmp_jump");
    }

    #[test]
    fn opcode_indices_are_dense_and_names_unique() {
        let all = Opcode::ALL;
        assert_eq!(all.len(), Opcode::COUNT);
        for (i, op) in all.iter().enumerate() {
            assert_eq!(op.index(), i);
        }
        let mut names: Vec<&str> = all.iter().map(|o| o.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Opcode::COUNT);
    }
}

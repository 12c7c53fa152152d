//! The jay bytecode interpreter, driving the profiling event stream.
//!
//! The interpreter is generic over an [`EventSink`] (static dispatch, so an
//! uninstrumented run with [`NoopSink`](crate::event::NoopSink) pays nothing
//! for the instrumentation). Events are emitted exactly as the paper's §3.2
//! dynamic-analysis pseudocode expects:
//!
//! * loop entry / back edge / exit from the inserted pseudo-instructions,
//! * method entry / exit for functions flagged by the instrumentation
//!   pass (including exits forced by `return` or exception unwinding
//!   while loops are active — the interpreter synthesizes the missing
//!   loop-exit events innermost-first),
//! * field/array accesses, allocations, and I/O according to the
//!   program's instrumentation flags; heap mutations fire exactly one
//!   event each, after the write is visible in the heap, carrying a
//!   `tracked` flag (see [`Event`]).

use std::collections::HashMap;

use crate::bytecode::{ClassId, CmpKind, CompiledProgram, FieldId, FuncId, Instr, LoopId};
use crate::error::RuntimeError;
use crate::event::{Event, EventCx, EventSink, ThreadId};
use crate::heap::{ArrRef, Heap, ObjRef, Value};
use crate::hir::CatchKind;

/// Scheduling quantum: the number of *yield points* (taken backward
/// jumps, call dispatches, and lock operations) a thread executes before
/// the round-robin scheduler preempts it. Yield points are counted on
/// the logical (unfused) control-flow structure, so the schedule — and
/// therefore the entire event stream — is byte-identical with peephole
/// fusion on or off, and independent of any host parallelism setting.
const QUANTUM: u64 = 64;

/// Identity of a guest lock: every object and array reference doubles as
/// a reentrant lock (`lock x; ... unlock x;`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum LockKey {
    Obj(ObjRef),
    Arr(ArrRef),
}

fn lock_key(v: Value, line: u32) -> Result<LockKey, RuntimeError> {
    match v {
        Value::Obj(o) => Ok(LockKey::Obj(o)),
        Value::Arr(a) => Ok(LockKey::Arr(a)),
        Value::Null => Err(RuntimeError::NullDeref { line }),
        other => Err(RuntimeError::Internal(format!(
            "lock on non-reference {other}"
        ))),
    }
}

/// Why a thread's time slice ended.
#[derive(Debug)]
enum SliceExit {
    /// The thread's root frame returned; the value is the thread's result.
    Done(Value),
    /// A `spawn` executed: the scheduler must create the new thread.
    /// The spawning thread already holds the handle on its stack.
    Spawned {
        tid: u32,
        func: FuncId,
        args: Vec<Value>,
    },
    /// A `join` executed; the scheduler pushes the target's result onto
    /// this thread's stack once (or as soon as) the target is done.
    Join { target: u32 },
    /// A `lock` found the lock held by another thread. The `LockWait`
    /// event was already emitted; the scheduler acquires on wake-up and
    /// emits the contended `LockAcquire`.
    LockBlocked { key: LockKey, obj: Value },
    /// An `unlock` freed a lock another thread is blocked on. The thread
    /// stays runnable, but the slice ends so the scheduler can hand the
    /// lock over. Without this exit a spin loop whose yield-point count
    /// divides the quantum can expire at the same phase of every
    /// iteration — if that phase holds the lock, the blocked thread is
    /// never schedulable and the program livelocks.
    LockHandoff,
    /// The quantum ran out; the thread stays runnable.
    Quantum,
}

/// Why a thread is not currently executing.
#[derive(Debug, Clone, Copy)]
enum ThreadStatus {
    Runnable,
    /// Waiting to acquire a contended lock.
    BlockedOnLock {
        key: LockKey,
        obj: Value,
    },
    /// Waiting for another thread to finish.
    Joining(u32),
    /// Finished with this result.
    Done(Value),
}

/// One guest thread: its own frame/value/loop stacks plus scheduling
/// state. The heap, locks, I/O, and counters stay on [`Interp`] — shared
/// by all threads, as the paper's multithreaded profiling model expects.
#[derive(Debug)]
struct ThreadState {
    id: ThreadId,
    cur: Frame,
    frames: Vec<Frame>,
    values: Vec<Value>,
    loops: Vec<LoopId>,
    status: ThreadStatus,
    /// False until the first slice builds the root frame (so the root
    /// `MethodEntry` event is delivered on this thread, after the switch).
    started: bool,
}

/// The outcome of a completed run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Value returned by `Main.main` ([`Value::Null`] for `void`).
    pub return_value: Value,
    /// Values printed by the guest, in order.
    pub output: Vec<i64>,
    /// Total logical bytecode instructions executed. Superinstructions
    /// count one per constituent opcode (see
    /// [`Instr::expand`](crate::bytecode::Instr::expand)), so this
    /// is identical with peephole fusion on or off.
    pub instructions: u64,
    /// Dispatch-loop iterations. Equal to `instructions` on unfused
    /// code; lower on fused code — the gap is exactly the dispatch
    /// overhead the peephole pass ([`crate::fuse`]) removed.
    pub dispatches: u64,
}

/// One activation record. Frames are plain offsets into the shared
/// value and active-loop stacks owned by [`Interp::run`]: locals live at
/// `values[base..floor]`, the operand stack above `floor`, and the
/// frame's instrumented-loop entries at `loops[loops_base..]`. Keeping
/// frames flat (no per-frame `Vec`s) makes calls allocation-free —
/// arguments are *already* in place as the callee's first locals when
/// the call dispatches.
#[derive(Debug, Clone, Copy)]
struct Frame {
    func: FuncId,
    pc: usize,
    /// First slot of this frame's locals in the shared value stack.
    base: usize,
    /// First operand slot (`base + n_locals`); pops never go below it.
    floor: usize,
    /// First entry of this frame's span in the shared active-loop stack.
    loops_base: usize,
    tracked: bool,
}

/// The jay interpreter.
///
/// # Example
///
/// ```
/// use algoprof_vm::{compile, Interp, NoopProfiler};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = compile("class Main { static int main() { return 6 * 7; } }")?;
/// let result = Interp::new(&program).run(&mut NoopProfiler)?;
/// assert_eq!(result.return_value.as_int(), Some(42));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Interp<'p> {
    program: &'p CompiledProgram,
    heap: Heap,
    input: Vec<i64>,
    input_pos: usize,
    output: Vec<i64>,
    fuel: Option<u64>,
    max_frames: usize,
    instructions: u64,
    dispatches: u64,
    /// Id the next `spawn` hands out (`Main.main` is thread 0).
    next_tid: u32,
    /// The thread whose slice is executing (events implicitly belong to
    /// it; see the thread-event protocol on [`Event`]).
    cur_thread: ThreadId,
    /// True from the first `spawn` on: enables quantum preemption and
    /// thread events. Single-threaded runs never set it, so their event
    /// streams are byte-identical with pre-threading builds.
    threading: bool,
    /// Held locks: key → (owner thread, reentrancy depth). Never
    /// iterated, only probed, so `HashMap` order cannot leak into
    /// scheduling decisions.
    locks: HashMap<LockKey, (u32, u32)>,
    /// How many threads are blocked on each lock. Maintained by the
    /// scheduler (incremented on [`SliceExit::LockBlocked`], decremented
    /// on wake-up) and probed by `unlock` to decide whether freeing a
    /// lock must end the slice ([`SliceExit::LockHandoff`]).
    lock_waiters: HashMap<LockKey, u32>,
}

impl<'p> Interp<'p> {
    /// Creates an interpreter for `program` with no input, unlimited fuel,
    /// and a 100 000-frame stack limit.
    pub fn new(program: &'p CompiledProgram) -> Self {
        Interp {
            program,
            heap: Heap::new(),
            input: Vec::new(),
            input_pos: 0,
            output: Vec::new(),
            fuel: None,
            max_frames: 100_000,
            instructions: 0,
            dispatches: 0,
            next_tid: 1,
            cur_thread: ThreadId::MAIN,
            threading: false,
            locks: HashMap::new(),
            lock_waiters: HashMap::new(),
        }
    }

    /// Supplies values for `readInput()`.
    pub fn with_input(mut self, input: Vec<i64>) -> Self {
        self.input = input;
        self
    }

    /// Limits the run to `fuel` instructions (guards runaway guests).
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = Some(fuel);
        self
    }

    /// Limits the guest call-stack depth.
    pub fn with_max_frames(mut self, max_frames: usize) -> Self {
        self.max_frames = max_frames;
        self
    }

    /// Read-only view of the guest heap (useful after a run).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Delivers one event to `sink` with the current heap as context.
    /// Instruction events are dropped for sinks that do not read them
    /// ([`EventSink::READS_INSTRUCTIONS`]).
    #[inline]
    fn emit<S: EventSink>(&self, sink: &mut S, ev: Event) {
        if !S::READS_INSTRUCTIONS && matches!(ev, Event::Instruction { .. }) {
            return;
        }
        sink.event(
            &ev,
            &EventCx {
                program: self.program,
                heap: &self.heap,
            },
        );
    }

    /// Executes `Main.main` — and every thread it transitively spawns —
    /// to completion, reporting events to `sink`.
    ///
    /// Threads run under a deterministic cooperative round-robin
    /// scheduler: each gets a fixed quantum of yield points, then the
    /// next runnable thread (in spawn order) takes over. The schedule is
    /// a pure function of the program and its input, so repeated runs —
    /// at any host parallelism — produce byte-identical event streams.
    /// The run ends when *all* threads have finished; the result is
    /// thread 0's return value.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] on uncaught guest exceptions, VM-level
    /// faults (null dereference, bounds, division by zero, bad casts,
    /// invalid joins, unlock without lock), deadlock (no thread can make
    /// progress), fuel or stack exhaustion. Sink state after an error is
    /// partial; discard it.
    pub fn run<S: EventSink>(&mut self, sink: &mut S) -> Result<RunResult, RuntimeError> {
        let entry = self.program.entry;
        let mut values: Vec<Value> = Vec::with_capacity(256);
        let cur = self.make_frame(0, entry, 0, 0, &mut values, sink)?;
        let mut threads: Vec<ThreadState> = vec![ThreadState {
            id: ThreadId::MAIN,
            cur,
            frames: Vec::new(),
            values,
            loops: Vec::new(),
            status: ThreadStatus::Runnable,
            started: true,
        }];
        let mut current = 0usize;
        self.cur_thread = ThreadId::MAIN;

        loop {
            let quantum = if self.threading { Some(QUANTUM) } else { None };
            let exit = self.run_slice(&mut threads[current], quantum, sink)?;
            match exit {
                SliceExit::Done(v) => {
                    if self.threading {
                        self.emit(
                            sink,
                            Event::ThreadEnd {
                                thread: threads[current].id,
                            },
                        );
                    }
                    let ended = threads[current].id.0;
                    threads[current].status = ThreadStatus::Done(v);
                    threads[current].values = Vec::new();
                    threads[current].frames = Vec::new();
                    for t in threads.iter_mut() {
                        if matches!(t.status, ThreadStatus::Joining(x) if x == ended) {
                            t.values.push(v);
                            t.status = ThreadStatus::Runnable;
                        }
                    }
                }
                SliceExit::Spawned { tid, func, args } => {
                    self.threading = true;
                    debug_assert_eq!(tid as usize, threads.len());
                    threads.push(ThreadState {
                        id: ThreadId(tid),
                        // Placeholder frame; the first slice builds the
                        // real one (emitting `MethodEntry` on-thread).
                        cur: Frame {
                            func,
                            pc: 0,
                            base: 0,
                            floor: 0,
                            loops_base: 0,
                            tracked: false,
                        },
                        frames: Vec::new(),
                        values: args,
                        loops: Vec::new(),
                        status: ThreadStatus::Runnable,
                        started: false,
                    });
                }
                SliceExit::Join { target } => match threads[target as usize].status {
                    // Joining a finished thread yields its value
                    // immediately (and repeatably).
                    ThreadStatus::Done(v) => threads[current].values.push(v),
                    _ => threads[current].status = ThreadStatus::Joining(target),
                },
                SliceExit::LockBlocked { key, obj } => {
                    threads[current].status = ThreadStatus::BlockedOnLock { key, obj };
                    *self.lock_waiters.entry(key).or_insert(0) += 1;
                }
                SliceExit::LockHandoff | SliceExit::Quantum => {}
            }

            if threads
                .iter()
                .all(|t| matches!(t.status, ThreadStatus::Done(_)))
            {
                let return_value = match threads[0].status {
                    ThreadStatus::Done(v) => v,
                    _ => unreachable!("all threads checked Done above"),
                };
                return Ok(RunResult {
                    return_value,
                    output: std::mem::take(&mut self.output),
                    instructions: self.instructions,
                    dispatches: self.dispatches,
                });
            }

            // Round-robin pick, starting after the thread that just ran.
            // A lock-blocked thread becomes schedulable the moment its
            // lock is free; the first such thread in rotation order wins,
            // acquiring the lock on wake-up.
            let n = threads.len();
            let mut picked = None;
            for i in 1..=n {
                let idx = (current + i) % n;
                match threads[idx].status {
                    ThreadStatus::Runnable => {
                        picked = Some((idx, None));
                        break;
                    }
                    ThreadStatus::BlockedOnLock { key, obj } if !self.locks.contains_key(&key) => {
                        picked = Some((idx, Some((key, obj))));
                        break;
                    }
                    _ => {}
                }
            }
            let Some((idx, wake)) = picked else {
                return Err(RuntimeError::Deadlock);
            };
            if threads[idx].id != self.cur_thread {
                self.emit(
                    sink,
                    Event::ThreadSwitch {
                        thread: threads[idx].id,
                    },
                );
                self.cur_thread = threads[idx].id;
            }
            if let Some((key, obj)) = wake {
                self.locks.insert(key, (threads[idx].id.0, 1));
                match self.lock_waiters.get_mut(&key) {
                    Some(n) if *n > 1 => *n -= 1,
                    _ => {
                        self.lock_waiters.remove(&key);
                    }
                }
                threads[idx].status = ThreadStatus::Runnable;
                self.emit(
                    sink,
                    Event::LockAcquire {
                        obj,
                        contended: true,
                    },
                );
            }
            current = idx;
        }
    }

    /// Runs one scheduling slice of `t`: builds the root frame on first
    /// entry, then executes until the quantum runs out or the thread
    /// blocks or finishes.
    fn run_slice<S: EventSink>(
        &mut self,
        t: &mut ThreadState,
        quantum: Option<u64>,
        sink: &mut S,
    ) -> Result<SliceExit, RuntimeError> {
        if !t.started {
            t.started = true;
            let func = t.cur.func;
            t.cur = self.make_frame(0, func, 0, 0, &mut t.values, sink)?;
        }
        let (exit, cur) = self.execute(
            t.cur,
            &mut t.frames,
            &mut t.values,
            &mut t.loops,
            quantum,
            sink,
        )?;
        t.cur = cur;
        Ok(exit)
    }

    /// Builds an activation record for `func`, emitting its method-entry
    /// event. `depth` is the total frame count the new frame would bring
    /// the stack to, counting the currently executing frame. The call
    /// arguments are the values at `base..` on the shared value stack;
    /// they become the callee's first locals *in place* — no copy — and
    /// the remaining local slots are null-padded.
    #[inline]
    fn make_frame<S: EventSink>(
        &self,
        depth: usize,
        func: FuncId,
        base: usize,
        loops_base: usize,
        values: &mut Vec<Value>,
        sink: &mut S,
    ) -> Result<Frame, RuntimeError> {
        if depth >= self.max_frames {
            return Err(RuntimeError::StackOverflow { depth });
        }
        let f = self.program.func(func);
        let tracked = f.track_entry_exit;
        if tracked {
            self.emit(sink, Event::MethodEntry { func });
        }
        let floor = base + f.n_locals as usize;
        values.resize(floor, Value::Null);
        Ok(Frame {
            func,
            pc: 0,
            base,
            floor,
            loops_base,
            tracked,
        })
    }

    /// Emits the pending loop exits and the method-exit event for a frame
    /// being abandoned (return or unwind). The caller truncates the
    /// shared loop stack to `frame.loops_base` afterwards.
    #[inline]
    fn exit_events<S: EventSink>(&self, frame: &Frame, loops: &[LoopId], sink: &mut S) {
        for &l in loops[frame.loops_base..].iter().rev() {
            self.emit(sink, Event::LoopExit { l });
        }
        if frame.tracked {
            self.emit(sink, Event::MethodExit { func: frame.func });
        }
    }

    /// The dispatch loop. The currently executing frame is held **by
    /// value** in `cur` — `frames` only holds suspended callers — so every
    /// stack/local access is a direct indexed load into the shared value
    /// stack instead of a `frames.last_mut()` round-trip, and the
    /// containing function's code and line tables are cached across
    /// iterations (refreshed only on call, return, and unwind). Locals
    /// and operands share one contiguous `Vec<Value>`, so a call is just
    /// a frame push: the arguments the caller evaluated are already the
    /// callee's first locals. Match arms are ordered by measured
    /// opcode heat from `algoprof opstats` over the listings/table1
    /// corpus: local/constant traffic and fused compare-and-branch first,
    /// calls and exceptional control flow last.
    ///
    /// Each base operation is written once, as a helper taking its
    /// operands as values (`get_field`, `put_field`, `load_elem`,
    /// `store_elem`, `array_len`, `new_object`, `virtual_target`,
    /// `compare!`, `call!`). A base arm pops its operands and calls its
    /// helper; a superinstruction's arm calls its constituents' helpers in
    /// constituent order, so its faults and events fall exactly as the
    /// unfused sequence's do.
    fn execute<S: EventSink>(
        &mut self,
        mut cur: Frame,
        frames: &mut Vec<Frame>,
        values: &mut Vec<Value>,
        loops: &mut Vec<LoopId>,
        mut quantum: Option<u64>,
        sink: &mut S,
    ) -> Result<(SliceExit, Frame), RuntimeError> {
        let program = self.program;
        let mut func = program.func(cur.func);
        // The counters live in registers for the whole loop and are
        // flushed to `self` at every slice exit — error paths leave sink
        // and counter state partial (the `run` contract says to discard
        // them).
        let mut dispatches: u64 = self.dispatches;
        let fuel_limit = self.fuel.unwrap_or(u64::MAX);
        let mut instructions = self.instructions;

        // Ends the slice with `exit`, flushing the counters to `self`.
        macro_rules! exit_slice {
            ($exit:expr) => {{
                self.instructions = instructions;
                self.dispatches = dispatches;
                return Ok(($exit, cur));
            }};
        }
        // Preemption check, placed at yield points only: taken backward
        // jumps, call dispatches, and lock operations. These are
        // properties of the *logical* instruction stream (identical
        // fused and unfused), so the schedule never depends on peephole
        // fusion. `quantum` is `None` until the first spawn: a
        // single-threaded run pays one untaken branch per yield point
        // and can never be preempted.
        macro_rules! yield_point {
            () => {
                if let Some(q) = quantum.as_mut() {
                    *q -= 1;
                    if *q == 0 {
                        exit_slice!(SliceExit::Quantum);
                    }
                }
            };
        }
        // A taken jump to `t`; a backward one is a yield point.
        macro_rules! jump {
            ($t:expr) => {{
                let t = $t as usize;
                let backward = t < cur.pc;
                cur.pc = t;
                if backward {
                    yield_point!();
                }
            }};
        }
        // The call transfer for a call to `m`: its arguments, on top of
        // the value stack from slot `base` on, become the first locals of
        // `callee`. A call is a yield point.
        macro_rules! call {
            ($m:expr, |$base:ident| $callee:expr) => {{
                let $base = arg_base(values, cur.floor, program.func($m).n_params)?;
                let callee =
                    self.make_frame(frames.len() + 1, $callee, $base, loops.len(), values, sink)?;
                frames.push(cur);
                cur = callee;
                func = program.func(cur.func);
                yield_point!();
            }};
        }
        // `a kind b` for a `CmpKind`. The ordered kinds check `b`, then
        // `a`, for ints, and each operand expression is evaluated just
        // before its check: popping arms keep the unfused pop-and-check
        // order.
        macro_rules! compare {
            ($kind:expr, $a:expr, $b:expr) => {
                match $kind {
                    CmpKind::Eq | CmpKind::Ne => {
                        let b = $b;
                        ($a == b) == matches!($kind, CmpKind::Eq)
                    }
                    kind => {
                        let b = as_int($b)?;
                        let a = as_int($a)?;
                        match kind {
                            CmpKind::Lt => a < b,
                            CmpKind::Le => a <= b,
                            CmpKind::Gt => a > b,
                            _ => a >= b,
                        }
                    }
                }
            };
        }
        // A local of the executing frame.
        macro_rules! local {
            ($slot:expr) => {
                values[cur.base + $slot as usize]
            };
        }
        // The instruction events of constituents `range` of `instr`. The
        // sink is asked first, so a sink ignoring instruction events
        // never has the expansion built (~8% of `live_array_sort`
        // throughput when it was).
        macro_rules! instruction_events {
            ($instr:expr, $range:expr) => {
                if S::READS_INSTRUCTIONS {
                    for op in $instr.expand()[$range].iter().filter_map(Instr::opcode) {
                        self.emit(sink, Event::Instruction { func: cur.func, op });
                    }
                }
            };
        }

        loop {
            let pc = cur.pc;
            let Some(&instr) = func.code.get(pc) else {
                return Err(RuntimeError::Internal(format!(
                    "pc {pc} ran past the end of {}",
                    func.name
                )));
            };
            instructions += instr.expand().len() as u64;
            if instructions > fuel_limit {
                return Err(RuntimeError::OutOfFuel);
            }
            dispatches += 1;
            if S::READS_INSTRUCTIONS && !interleaves(instr) {
                instruction_events!(instr, ..);
            }
            cur.pc = pc + 1;

            match instr {
                Instr::LoadLocal(slot) => {
                    let v = local!(slot);
                    values.push(v);
                }
                Instr::FusedLoadLoad(a, b) => {
                    let (va, vb) = (local!(a), local!(b));
                    values.push(va);
                    values.push(vb);
                }
                Instr::FusedLoadConst(slot, k) => {
                    let v = local!(slot);
                    values.push(v);
                    values.push(Value::Int(k));
                }
                Instr::CmpJump(kind, jump_if, t) => {
                    if compare!(kind, pop(values, cur.floor)?, pop(values, cur.floor)?) == jump_if {
                        jump!(t);
                    }
                }
                Instr::FusedLoadLoadCmpJump(a, b, kind, jump_if, t) => {
                    if compare!(kind, local!(a), local!(b)) == jump_if {
                        jump!(t);
                    }
                }
                Instr::FusedIncLoopBack(slot, sub, k, l, t) => {
                    // The `x = x ± k` latch, its back-edge event, then
                    // the backward jump. The constant is an int, so
                    // `Add`/`Sub` only checks the loaded local.
                    instruction_events!(instr, ..3);
                    let v = as_int(local!(slot))?;
                    instruction_events!(instr, 3..5);
                    local!(slot) = Value::Int(offset_by(v, sub, k));
                    self.emit(sink, Event::LoopBackEdge { l });
                    instruction_events!(instr, 5..);
                    jump!(t);
                }
                Instr::FusedLoadCmpJump(slot, kind, jump_if, t) => {
                    if compare!(kind, pop(values, cur.floor)?, local!(slot)) == jump_if {
                        jump!(t);
                    }
                }
                Instr::FusedNullCmpJump(kind, jump_if, t) => {
                    if compare!(kind, pop(values, cur.floor)?, Value::Null) == jump_if {
                        jump!(t);
                    }
                }
                Instr::FusedLoadLoadGetFieldLen(s1, s2, fid) => {
                    // `LoadLocal s1; LoadLocal s2; GetField; ArrayLen`:
                    // s1's value stays on the stack under the length.
                    let line = func.lines[pc];
                    instruction_events!(instr, ..3);
                    let arr = self.get_field(local!(s2), fid, line, sink)?;
                    instruction_events!(instr, 3..);
                    let len = self.array_len(arr, line)?;
                    let first = local!(s1);
                    values.push(first);
                    values.push(len);
                }
                Instr::FusedLoadLoadPutField(s1, s2, fid) => {
                    // `obj.field = local`: s1 is the object, s2 the value.
                    let line = func.lines[pc];
                    self.put_field(local!(s1), fid, local!(s2), line, sink)?;
                }
                Instr::FusedFieldAdd(s1, s2, fid, k) => {
                    // `s1.f = s2.f + k` with no stack traffic at all.
                    let line = func.lines[pc];
                    instruction_events!(instr, ..3);
                    let v = self.get_field(local!(s2), fid, line, sink)?;
                    instruction_events!(instr, 3..5);
                    let sum = Value::Int(offset_by(as_int(v)?, false, k));
                    instruction_events!(instr, 5..);
                    self.put_field(local!(s1), fid, sum, line, sink)?;
                }
                Instr::FusedLoadGetFieldALoad(s1, fid, s2) => {
                    // `obj.field[idx]` with obj and idx from locals.
                    let line = func.lines[pc];
                    instruction_events!(instr, ..2);
                    let arr = self.get_field(local!(s1), fid, line, sink)?;
                    instruction_events!(instr, 2..);
                    let v = self.load_elem(arr, as_int(local!(s2))?, line, sink)?;
                    values.push(v);
                }
                Instr::FusedNewDup(cid) => {
                    instruction_events!(instr, ..1);
                    let obj = Value::Obj(self.new_object(cid, sink));
                    instruction_events!(instr, 1..);
                    values.push(obj);
                    values.push(obj);
                }
                Instr::ConstInt(v) => values.push(Value::Int(v)),
                Instr::StoreLocal(slot) => {
                    local!(slot) = pop(values, cur.floor)?;
                }
                Instr::Add | Instr::Sub | Instr::Mul => {
                    let b = pop_int(values, cur.floor)?;
                    let a = pop_int(values, cur.floor)?;
                    let r = match instr {
                        Instr::Add => a.wrapping_add(b),
                        Instr::Sub => a.wrapping_sub(b),
                        _ => a.wrapping_mul(b),
                    };
                    values.push(Value::Int(r));
                }
                Instr::CmpLt
                | Instr::CmpLe
                | Instr::CmpGt
                | Instr::CmpGe
                | Instr::CmpEq
                | Instr::CmpNe => {
                    let kind = match instr {
                        Instr::CmpLt => CmpKind::Lt,
                        Instr::CmpLe => CmpKind::Le,
                        Instr::CmpGt => CmpKind::Gt,
                        Instr::CmpGe => CmpKind::Ge,
                        Instr::CmpEq => CmpKind::Eq,
                        _ => CmpKind::Ne,
                    };
                    let r = compare!(kind, pop(values, cur.floor)?, pop(values, cur.floor)?);
                    values.push(Value::Bool(r));
                }
                Instr::Jump(t) => jump!(t),
                Instr::JumpIfFalse(t) => {
                    if !pop_bool(values, cur.floor)? {
                        jump!(t);
                    }
                }
                Instr::JumpIfTrue(t) => {
                    if pop_bool(values, cur.floor)? {
                        jump!(t);
                    }
                }
                Instr::ALoad => {
                    let line = func.lines[pc];
                    let idx = pop_int(values, cur.floor)?;
                    let arr = pop(values, cur.floor)?;
                    let v = self.load_elem(arr, idx, line, sink)?;
                    values.push(v);
                }
                Instr::FusedLoadLoadOffALoad(s1, s2, sub, k) => {
                    // `arr[idx ± k]` with arr and idx from locals: the
                    // index local's int check (at `Add`/`Sub`), then the
                    // element read on the wrapped index (at `ALoad`).
                    let idx = offset_by(as_int(local!(s2))?, sub, k);
                    let v = self.load_elem(local!(s1), idx, func.lines[pc], sink)?;
                    values.push(v);
                }
                Instr::FusedLoadAStore(slot) => {
                    // `LoadLocal slot; AStore`: the slot holds the value,
                    // index and array are on the stack.
                    let line = func.lines[pc];
                    let idx = pop_int(values, cur.floor)?;
                    let arr = pop(values, cur.floor)?;
                    self.store_elem(arr, idx, local!(slot), line, sink)?;
                }
                Instr::AStore => {
                    let line = func.lines[pc];
                    let value = pop(values, cur.floor)?;
                    let idx = pop_int(values, cur.floor)?;
                    let arr = pop(values, cur.floor)?;
                    self.store_elem(arr, idx, value, line, sink)?;
                }
                Instr::FusedLoadGetField(slot, fid) => {
                    let v = self.get_field(local!(slot), fid, func.lines[pc], sink)?;
                    values.push(v);
                }
                Instr::FusedLoadGetFieldLen(slot, fid) => {
                    let line = func.lines[pc];
                    instruction_events!(instr, ..2);
                    let arr = self.get_field(local!(slot), fid, line, sink)?;
                    instruction_events!(instr, 2..);
                    let len = self.array_len(arr, line)?;
                    values.push(len);
                }
                Instr::FusedLoopBackJump(l, t) => {
                    instruction_events!(instr, ..1);
                    self.emit(sink, Event::LoopBackEdge { l });
                    instruction_events!(instr, 1..);
                    jump!(t);
                }
                Instr::GetField(fid) => {
                    let line = func.lines[pc];
                    let obj = pop(values, cur.floor)?;
                    let v = self.get_field(obj, fid, line, sink)?;
                    values.push(v);
                }
                Instr::PutField(fid) => {
                    let line = func.lines[pc];
                    let value = pop(values, cur.floor)?;
                    let obj = pop(values, cur.floor)?;
                    self.put_field(obj, fid, value, line, sink)?;
                }
                Instr::ProfLoopBack(l) => {
                    self.emit(sink, Event::LoopBackEdge { l });
                }
                Instr::ProfLoopEntry(l) => {
                    loops.push(l);
                    self.emit(sink, Event::LoopEntry { l });
                }
                Instr::ProfLoopExit(l) => {
                    let popped = if loops.len() > cur.loops_base {
                        loops.pop()
                    } else {
                        None
                    };
                    if popped != Some(l) {
                        return Err(RuntimeError::Internal(format!(
                            "unbalanced loop exit: expected {popped:?}, got {l}"
                        )));
                    }
                    self.emit(sink, Event::LoopExit { l });
                }
                Instr::ConstBool(v) => values.push(Value::Bool(v)),
                Instr::ConstNull => values.push(Value::Null),
                Instr::Dup => {
                    if values.len() <= cur.floor {
                        return Err(RuntimeError::Internal("dup on empty stack".into()));
                    }
                    let v = *values.last().expect("floor check implies non-empty");
                    values.push(v);
                }
                Instr::Pop => {
                    pop(values, cur.floor)?;
                }
                Instr::Div | Instr::Rem => {
                    let line = func.lines[pc];
                    let b = pop_int(values, cur.floor)?;
                    let a = pop_int(values, cur.floor)?;
                    if b == 0 {
                        return Err(RuntimeError::DivisionByZero { line });
                    }
                    let r = if matches!(instr, Instr::Div) {
                        a.wrapping_div(b)
                    } else {
                        a.wrapping_rem(b)
                    };
                    values.push(Value::Int(r));
                }
                Instr::Neg => {
                    let a = pop_int(values, cur.floor)?;
                    values.push(Value::Int(a.wrapping_neg()));
                }
                Instr::Not => {
                    let a = pop_bool(values, cur.floor)?;
                    values.push(Value::Bool(!a));
                }
                Instr::ArrayLen => {
                    let line = func.lines[pc];
                    let arr = pop(values, cur.floor)?;
                    let len = self.array_len(arr, line)?;
                    values.push(len);
                }
                Instr::New(cid) => {
                    let obj = self.new_object(cid, sink);
                    values.push(Value::Obj(obj));
                }
                Instr::NewArray(elem) => {
                    let line = func.lines[pc];
                    let len = pop_int(values, cur.floor)?;
                    if len < 0 {
                        return Err(RuntimeError::NegativeArrayLength { len, line });
                    }
                    let arr = self.heap.alloc_array(elem, len as usize);
                    values.push(Value::Arr(arr));
                    self.emit(
                        sink,
                        Event::ArrayAlloc {
                            arr,
                            elem,
                            len: len as usize,
                        },
                    );
                }
                Instr::FusedLoadCallDirect(slot, m) => {
                    let v = local!(slot);
                    values.push(v);
                    call!(m, |base| m);
                }
                Instr::FusedLoadCallVirtual(slot, m) => {
                    let v = local!(slot);
                    values.push(v);
                    let line = func.lines[pc];
                    call!(m, |base| self.virtual_target(m, values[base], line)?);
                }
                // Arguments are passed straight from the caller's operand
                // stack — no intermediate allocation.
                Instr::CallStatic(m) | Instr::CallDirect(m) => call!(m, |base| m),
                Instr::CallVirtual(m) => {
                    let line = func.lines[pc];
                    call!(m, |base| self.virtual_target(m, values[base], line)?);
                }
                Instr::Ret | Instr::RetVal => {
                    let value = if matches!(instr, Instr::RetVal) {
                        pop(values, cur.floor)?
                    } else {
                        Value::Null
                    };
                    self.exit_events(&cur, loops, sink);
                    loops.truncate(cur.loops_base);
                    values.truncate(cur.base);
                    match frames.pop() {
                        Some(caller) => {
                            cur = caller;
                            func = program.func(cur.func);
                            if matches!(instr, Instr::RetVal) {
                                values.push(value);
                            }
                        }
                        None => {
                            exit_slice!(SliceExit::Done(value));
                        }
                    }
                }
                Instr::Throw => {
                    let line = func.lines[pc];
                    let value = pop(values, cur.floor)?;
                    self.unwind(&mut cur, frames, values, loops, value, line, sink)?;
                    func = program.func(cur.func);
                }
                Instr::CheckCast(kind) => {
                    let line = func.lines[pc];
                    if values.len() <= cur.floor {
                        return Err(RuntimeError::Internal("cast on empty stack".into()));
                    }
                    let v = *values.last().expect("floor check implies non-empty");
                    // `null` passes every reference cast (as in Java).
                    if !matches!(v, Value::Null) && !self.catch_matches(kind, v) {
                        return Err(RuntimeError::ClassCast { line });
                    }
                }
                Instr::InstanceOfOp(kind) => {
                    let v = pop(values, cur.floor)?;
                    // `null instanceof T` is false (as in Java).
                    let r = !matches!(v, Value::Null) && self.catch_matches(kind, v);
                    values.push(Value::Bool(r));
                }
                Instr::ReadInput => {
                    let line = func.lines[pc];
                    if self.input_pos >= self.input.len() {
                        return Err(RuntimeError::InputExhausted { line });
                    }
                    let v = self.input[self.input_pos];
                    self.input_pos += 1;
                    values.push(Value::Int(v));
                    if program.track_io {
                        self.emit(sink, Event::InputRead);
                    }
                }
                Instr::Print => {
                    let v = pop_int(values, cur.floor)?;
                    self.output.push(v);
                    if program.track_io {
                        self.emit(sink, Event::OutputWrite);
                    }
                }
                Instr::Spawn(m) => {
                    // The arguments the spawner evaluated become the new
                    // thread's first locals; the handle is the new
                    // thread's id. The slice ends so the scheduler can
                    // register the thread (it runs next in rotation).
                    let base = arg_base(values, cur.floor, program.func(m).n_params)?;
                    let args: Vec<Value> = values.split_off(base);
                    let tid = self.next_tid;
                    self.next_tid += 1;
                    values.push(Value::Int(tid as i64));
                    self.emit(
                        sink,
                        Event::ThreadSpawn {
                            thread: ThreadId(tid),
                            func: m,
                        },
                    );
                    exit_slice!(SliceExit::Spawned { tid, func: m, args });
                }
                Instr::JoinThread => {
                    let line = func.lines[pc];
                    let h = pop_int(values, cur.floor)?;
                    if h < 0 || h >= i64::from(self.next_tid) || h == i64::from(self.cur_thread.0) {
                        return Err(RuntimeError::InvalidJoin { line });
                    }
                    // The pc is already past the join; the scheduler
                    // pushes the target's result when it is available.
                    exit_slice!(SliceExit::Join { target: h as u32 });
                }
                Instr::Lock => {
                    let line = func.lines[pc];
                    let v = pop(values, cur.floor)?;
                    let key = lock_key(v, line)?;
                    let me = self.cur_thread.0;
                    match self.locks.get(&key).copied() {
                        Some((owner, _)) if owner != me => {
                            // Held by another thread: the wait event is
                            // the profiler's contention-attribution hook
                            // (cost accrues to *this*, blocked, thread).
                            // The pc is already past the Lock; the
                            // scheduler acquires on wake-up and emits the
                            // contended LockAcquire.
                            self.emit(sink, Event::LockWait { obj: v });
                            exit_slice!(SliceExit::LockBlocked { key, obj: v });
                        }
                        held => {
                            let depth = held.map_or(0, |(_, depth)| depth);
                            self.locks.insert(key, (me, depth + 1));
                            self.emit(
                                sink,
                                Event::LockAcquire {
                                    obj: v,
                                    contended: false,
                                },
                            );
                            yield_point!();
                        }
                    }
                }
                Instr::Unlock => {
                    let line = func.lines[pc];
                    let v = pop(values, cur.floor)?;
                    let key = lock_key(v, line)?;
                    let me = self.cur_thread.0;
                    match self.locks.get(&key).copied() {
                        Some((owner, depth)) if owner == me => {
                            let freed = depth == 1;
                            if freed {
                                self.locks.remove(&key);
                            } else {
                                self.locks.insert(key, (me, depth - 1));
                            }
                            self.emit(sink, Event::LockRelease { obj: v });
                            if freed && self.lock_waiters.contains_key(&key) {
                                // Someone is blocked on this lock: end the
                                // slice so the scheduler can hand it over
                                // (see `SliceExit::LockHandoff` for why
                                // waiting for the quantum can livelock).
                                exit_slice!(SliceExit::LockHandoff);
                            }
                            yield_point!();
                        }
                        _ => return Err(RuntimeError::UnlockWithoutLock { line }),
                    }
                }
            }
        }
    }

    /// `GetField fid` on `obj`: the receiver check, the read, and a
    /// tracked field's `FieldRead` event.
    #[inline(always)]
    fn get_field<S: EventSink>(
        &self,
        obj: Value,
        fid: FieldId,
        line: u32,
        sink: &mut S,
    ) -> Result<Value, RuntimeError> {
        let o = as_object(obj, line, "getfield")?;
        let field = self.program.field(fid);
        let v = self.heap.field(o, field.slot as usize);
        if field.track_access {
            self.emit(sink, Event::FieldRead { obj, field: fid });
        }
        Ok(v)
    }

    /// `PutField fid` of `value` on `obj`: the receiver check, the write,
    /// and its `FieldWrite` event.
    #[inline(always)]
    fn put_field<S: EventSink>(
        &mut self,
        obj: Value,
        fid: FieldId,
        value: Value,
        line: u32,
        sink: &mut S,
    ) -> Result<(), RuntimeError> {
        let o = as_object(obj, line, "putfield")?;
        let field = self.program.field(fid);
        self.heap.set_field(o, field.slot as usize, value);
        self.emit(
            sink,
            Event::FieldWrite {
                obj: o,
                field: fid,
                value,
                tracked: field.track_access,
            },
        );
        Ok(())
    }

    /// `ALoad` of `arr[idx]`: the array and bounds checks (one lookup:
    /// `get` is the bounds check), the read, and its `ArrayRead` event.
    #[inline(always)]
    fn load_elem<S: EventSink>(
        &self,
        arr: Value,
        idx: i64,
        line: u32,
        sink: &mut S,
    ) -> Result<Value, RuntimeError> {
        let elems = &self.heap.array(as_array(arr, line)?).elems;
        let Some(&v) = usize::try_from(idx).ok().and_then(|i| elems.get(i)) else {
            return Err(out_of_bounds_err(idx, elems.len(), line));
        };
        if self.program.track_arrays {
            self.emit(sink, Event::ArrayRead { arr });
        }
        Ok(v)
    }

    /// `AStore` of `value` to `arr[idx]`: the array and bounds checks, the
    /// write, and its `ArrayWrite` event.
    #[inline(always)]
    fn store_elem<S: EventSink>(
        &mut self,
        arr: Value,
        idx: i64,
        value: Value,
        line: u32,
        sink: &mut S,
    ) -> Result<(), RuntimeError> {
        let a = as_array(arr, line)?;
        self.heap
            .try_set_elem(a, idx, value)
            .map_err(|len| out_of_bounds_err(idx, len, line))?;
        self.emit(
            sink,
            Event::ArrayWrite {
                arr: a,
                index: idx as usize,
                value,
                tracked: self.program.track_arrays,
            },
        );
        Ok(())
    }

    /// `ArrayLen` of `arr`.
    #[inline(always)]
    fn array_len(&self, arr: Value, line: u32) -> Result<Value, RuntimeError> {
        let len = self.heap.array(as_array(arr, line)?).elems.len();
        Ok(Value::Int(len as i64))
    }

    /// `New cid`: an object with every field at its default, and its
    /// `ObjectAlloc` event.
    #[inline(always)]
    fn new_object<S: EventSink>(&mut self, cid: ClassId, sink: &mut S) -> ObjRef {
        let program = self.program;
        let class = program.class(cid);
        let obj = self.heap.alloc_object_from(
            cid,
            class
                .field_layout
                .iter()
                .map(|&fid| default_field_value(&program.field(fid).ty)),
        );
        self.emit(
            sink,
            Event::ObjectAlloc {
                obj,
                class: cid,
                tracked: class.track_alloc,
            },
        );
        obj
    }

    /// The method a `CallVirtual m` on `receiver` dispatches to: the
    /// receiver check, then the receiver class's vtable entry.
    #[inline(always)]
    fn virtual_target(
        &self,
        m: FuncId,
        receiver: Value,
        line: u32,
    ) -> Result<FuncId, RuntimeError> {
        let o = as_object(receiver, line, "virtual call")?;
        let decl = self.program.func(m);
        let vslot = decl.vslot.ok_or_else(|| {
            RuntimeError::Internal(format!("virtual call to {} without vslot", decl.name))
        })?;
        Ok(self.program.class(self.heap.object(o).class).vtable[vslot as usize])
    }

    /// Unwinds `value` through the frame stack, emitting loop/method exit
    /// events, until a matching handler is found. On success `cur` is the
    /// frame that caught the exception, positioned at the handler.
    #[allow(clippy::too_many_arguments)]
    fn unwind<S: EventSink>(
        &mut self,
        cur: &mut Frame,
        frames: &mut Vec<Frame>,
        values: &mut Vec<Value>,
        loops: &mut Vec<LoopId>,
        value: Value,
        throw_line: u32,
        sink: &mut S,
    ) -> Result<(), RuntimeError> {
        loop {
            let pc = cur.pc.saturating_sub(1);
            let func = self.program.func(cur.func);
            let handler = func
                .handlers
                .iter()
                .find(|h| pc >= h.start && pc < h.end && self.catch_matches(h.catch, value))
                .copied();
            match handler {
                Some(h) => {
                    let mut exits = Vec::new();
                    // Exit instrumented loops abandoned by the transfer.
                    while loops.len() - cur.loops_base > h.active_loops as usize {
                        exits.push(loops.pop().expect("length checked in loop condition"));
                    }
                    // Drop the frame's operands, keeping its locals.
                    values.truncate(cur.floor);
                    values[cur.base + h.catch_slot as usize] = value;
                    cur.pc = h.target;
                    for l in exits {
                        self.emit(sink, Event::LoopExit { l });
                    }
                    return Ok(());
                }
                None => {
                    self.exit_events(cur, loops, sink);
                    loops.truncate(cur.loops_base);
                    values.truncate(cur.base);
                    match frames.pop() {
                        Some(f) => *cur = f,
                        None => {
                            return Err(RuntimeError::UncaughtException {
                                value: value.to_string(),
                                line: throw_line,
                            })
                        }
                    }
                }
            }
        }
    }

    fn catch_matches(&self, kind: CatchKind, value: Value) -> bool {
        match kind {
            CatchKind::Int => matches!(value, Value::Int(_)),
            CatchKind::Bool => matches!(value, Value::Bool(_)),
            CatchKind::AnyRef => value.is_ref(),
            CatchKind::Array => matches!(value, Value::Arr(_)),
            CatchKind::Class(c) => match value {
                Value::Obj(o) => self.program.is_subclass(self.heap.object(o).class, c),
                _ => false,
            },
        }
    }
}

/// The value a freshly allocated field of type `ty` holds (`0`, `false`,
/// or `null`). Public so heap replayers (e.g. `algoprof-trace`) can
/// reconstruct `new` exactly as the interpreter performs it.
pub fn default_field_value(ty: &crate::bytecode::ErasedType) -> Value {
    match ty {
        crate::bytecode::ErasedType::Int => Value::Int(0),
        crate::bytecode::ErasedType::Bool => Value::Bool(false),
        _ => Value::Null,
    }
}

/// Error constructors are `#[cold]` so their formatting machinery stays
/// out of the dispatch loop's instruction footprint.
#[cold]
#[inline(never)]
fn underflow_err() -> RuntimeError {
    RuntimeError::Internal("operand stack underflow".into())
}

#[cold]
#[inline(never)]
fn expected_int_err(other: Value) -> RuntimeError {
    RuntimeError::Internal(format!("expected int, got {other}"))
}

#[cold]
#[inline(never)]
fn out_of_bounds_err(index: i64, len: usize, line: u32) -> RuntimeError {
    RuntimeError::IndexOutOfBounds { index, len, line }
}

#[cold]
#[inline(never)]
fn expected_bool_err(other: Value) -> RuntimeError {
    RuntimeError::Internal(format!("expected bool, got {other}"))
}

#[cold]
#[inline(never)]
fn expected_array_err(other: Value) -> RuntimeError {
    RuntimeError::Internal(format!("expected array, got {other}"))
}

#[cold]
#[inline(never)]
fn non_object_err(op: &str, other: Value) -> RuntimeError {
    RuntimeError::Internal(format!("{op} on non-object {other}"))
}

/// Whether an event or a fault can fall between `instr`'s constituents.
/// This is the one place fusion meets the instruction-event stream: the
/// back-edge event of `loop_back_jump` and `inc_loop_back`, the
/// allocation event of `new_dup`, and the receiver check of the
/// mid-window `GetField` in the field-length, field-element and
/// field-increment forms. Such an arm
/// emits its constituents' instruction events itself, each before that
/// constituent's work, so events and faults fall as in unfused
/// execution; every other instruction has them all emitted before its
/// arm runs.
#[inline(always)]
fn interleaves(instr: Instr) -> bool {
    matches!(
        instr,
        Instr::FusedLoopBackJump(..)
            | Instr::FusedIncLoopBack(..)
            | Instr::FusedNewDup(_)
            | Instr::FusedLoadGetFieldLen(..)
            | Instr::FusedLoadLoadGetFieldLen(..)
            | Instr::FusedLoadGetFieldALoad(..)
            | Instr::FusedFieldAdd(..)
    )
}

/// `v + k`, or `v - k` when `sub` is set, wrapping like the `Add` and
/// `Sub` the `± k` superinstructions stand for.
#[inline]
fn offset_by(v: i64, sub: bool, k: i32) -> i64 {
    if sub {
        v.wrapping_sub(k.into())
    } else {
        v.wrapping_add(k.into())
    }
}

#[inline]
fn pop(values: &mut Vec<Value>, floor: usize) -> Result<Value, RuntimeError> {
    if values.len() <= floor {
        return Err(underflow_err());
    }
    Ok(values.pop().expect("floor check implies non-empty"))
}

#[inline(always)]
fn as_int(v: Value) -> Result<i64, RuntimeError> {
    match v {
        Value::Int(v) => Ok(v),
        other => Err(expected_int_err(other)),
    }
}

#[inline]
fn pop_int(values: &mut Vec<Value>, floor: usize) -> Result<i64, RuntimeError> {
    as_int(pop(values, floor)?)
}

#[inline]
fn pop_bool(values: &mut Vec<Value>, floor: usize) -> Result<bool, RuntimeError> {
    match pop(values, floor)? {
        Value::Bool(v) => Ok(v),
        other => Err(expected_bool_err(other)),
    }
}

/// The receiver check of a field access or virtual call `op`.
#[inline(always)]
fn as_object(v: Value, line: u32, op: &str) -> Result<ObjRef, RuntimeError> {
    match v {
        Value::Obj(o) => Ok(o),
        Value::Null => Err(RuntimeError::NullDeref { line }),
        other => Err(non_object_err(op, other)),
    }
}

/// The array check of an element access or length.
#[inline(always)]
fn as_array(v: Value, line: u32) -> Result<ArrRef, RuntimeError> {
    match v {
        Value::Arr(a) => Ok(a),
        Value::Null => Err(RuntimeError::NullDeref { line }),
        other => Err(expected_array_err(other)),
    }
}

/// Index of the first of `n` call arguments on the shared value stack,
/// given the calling frame's operand floor.
fn arg_base(values: &[Value], floor: usize, n: u16) -> Result<usize, RuntimeError> {
    values
        .len()
        .checked_sub(n.into())
        .filter(|&b| b >= floor)
        .ok_or_else(|| RuntimeError::Internal("operand stack underflow in call".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::event::NoopSink;
    use crate::instrument::InstrumentOptions;

    fn run(src: &str) -> RunResult {
        let p = compile(src).expect("compiles");
        Interp::new(&p).run(&mut NoopSink).expect("runs")
    }

    fn run_err(src: &str) -> RuntimeError {
        let p = compile(src).expect("compiles");
        Interp::new(&p).run(&mut NoopSink).expect_err("fails")
    }

    fn ret(src: &str) -> i64 {
        run(src).return_value.as_int().expect("int result")
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(
            ret("class Main { static int main() { return 2 + 3 * 4 - 6 / 2; } }"),
            11
        );
        assert_eq!(
            ret("class Main { static int main() { return 17 % 5; } }"),
            2
        );
        assert_eq!(
            ret("class Main { static int main() { return -(3 - 8); } }"),
            5
        );
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(
            ret("class Main { static int main() {
                    if (3 < 4 && 4 <= 4 && 5 > 4 && 5 >= 5 && 1 == 1 && 1 != 2) { return 1; }
                    return 0;
                } }"),
            1
        );
    }

    #[test]
    fn short_circuit_avoids_rhs() {
        // Division by zero on the rhs must not run.
        assert_eq!(
            ret("class Main { static int main() {
                    int z = 0;
                    if (false && 1 / z == 0) { return 1; }
                    if (true || 1 / z == 0) { return 2; }
                    return 3;
                } }"),
            2
        );
    }

    #[test]
    fn loops_compute() {
        assert_eq!(
            ret("class Main { static int main() {
                    int s = 0;
                    for (int i = 1; i <= 10; i = i + 1) { s = s + i; }
                    return s;
                } }"),
            55
        );
    }

    #[test]
    fn break_and_continue() {
        assert_eq!(
            ret("class Main { static int main() {
                    int s = 0;
                    for (int i = 0; i < 100; i = i + 1) {
                        if (i % 2 == 0) { continue; }
                        if (i > 10) { break; }
                        s = s + i;
                    }
                    return s;
                } }"),
            1 + 3 + 5 + 7 + 9
        );
    }

    #[test]
    fn objects_fields_and_methods() {
        assert_eq!(
            ret("class Main { static int main() {
                    Counter c = new Counter();
                    c.add(40);
                    c.add(2);
                    return c.total;
                } }
                class Counter {
                    int total;
                    void add(int x) { total = total + x; }
                }"),
            42
        );
    }

    #[test]
    fn constructors_run() {
        assert_eq!(
            ret(
                "class Main { static int main() { return new Pair(40, 2).sum(); } }
                class Pair {
                    int a; int b;
                    Pair(int a, int b) { this.a = a; this.b = b; }
                    int sum() { return a + b; }
                }"
            ),
            42
        );
    }

    #[test]
    fn virtual_dispatch_selects_override() {
        assert_eq!(
            ret("class Main { static int main() {
                    Animal a = new Dog();
                    Animal b = new Animal();
                    return a.noise() * 10 + b.noise();
                } }
                class Animal { int noise() { return 1; } }
                class Dog extends Animal { int noise() { return 2; } }"),
            21
        );
    }

    #[test]
    fn recursion_works() {
        assert_eq!(
            ret("class Main { static int main() { return fact(10); }
                 static int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); } }"),
            3_628_800
        );
    }

    #[test]
    fn arrays_and_length() {
        assert_eq!(
            ret("class Main { static int main() {
                    int[] a = new int[5];
                    for (int i = 0; i < a.length; i = i + 1) { a[i] = i * i; }
                    return a[4] + a.length;
                } }"),
            21
        );
    }

    #[test]
    fn multidim_arrays() {
        assert_eq!(
            ret("class Main { static int main() {
                    int[][] tri = new int[][] { new int[0], new int[1], new int[2] };
                    tri[2][1] = 9;
                    return tri.length + tri[2][1];
                } }"),
            12
        );
    }

    #[test]
    fn linked_structures() {
        assert_eq!(
            ret("class Main { static int main() {
                    Node head = null;
                    for (int i = 0; i < 5; i = i + 1) {
                        Node n = new Node(i);
                        n.next = head;
                        head = n;
                    }
                    int s = 0;
                    Node cur = head;
                    while (cur != null) { s = s + cur.value; cur = cur.next; }
                    return s;
                } }
                class Node { Node next; int value; Node(int v) { this.value = v; } }"),
            10
        );
    }

    #[test]
    fn generics_with_erasure_run() {
        assert_eq!(
            ret("class Main { static int main() {
                    Box<Item> b = new Box<Item>();
                    b.value = new Item(9);
                    return b.get().v;
                } }
                class Box<T> { T value; T get() { return value; } }
                class Item { int v; Item(int v) { this.v = v; } }"),
            9
        );
    }

    #[test]
    fn cast_and_instanceof_runtime() {
        assert_eq!(
            ret("class Main { static int main() {
                    Object o = new Item(5);
                    int r = 0;
                    if (o instanceof Item) { r = ((Item) o).v; }
                    if (o instanceof Other) { r = 100; }
                    return r;
                } }
                class Item { int v; Item(int v) { this.v = v; } }
                class Other { }"),
            5
        );
    }

    #[test]
    fn failed_cast_errors() {
        let e = run_err(
            "class Main { static int main() {
                Object o = new A();
                B b = (B) o;
                return 0;
            } }
            class A { }
            class B { int x; }",
        );
        assert!(matches!(e, RuntimeError::ClassCast { .. }));
    }

    #[test]
    fn null_cast_passes() {
        assert_eq!(
            ret("class Main { static int main() {
                    Object o = null;
                    A a = (A) o;
                    if (a == null) { return 7; }
                    return 0;
                } }
                class A { }"),
            7
        );
    }

    #[test]
    fn throw_and_catch_int() {
        assert_eq!(
            ret("class Main { static int main() {
                    try { f(); } catch (int e) { return e; }
                    return 0;
                }
                static void f() { throw 41 + 1; } }"),
            42
        );
    }

    #[test]
    fn catch_rethrows_on_type_mismatch() {
        assert_eq!(
            ret("class Main { static int main() {
                    try {
                        try { throw 5; } catch (Object o) { return 100; }
                    } catch (int e) { return e; }
                    return 0;
                } }"),
            5
        );
    }

    #[test]
    fn catch_by_class_hierarchy() {
        assert_eq!(
            ret("class Main { static int main() {
                    try { throw new Sub(); } catch (Base b) { return 1; }
                    return 0;
                } }
                class Base { }
                class Sub extends Base { }"),
            1
        );
    }

    #[test]
    fn uncaught_exception_reported() {
        let e = run_err("class Main { static int main() { throw 13; } }");
        assert!(matches!(e, RuntimeError::UncaughtException { .. }));
    }

    #[test]
    fn null_deref_and_bounds_errors() {
        assert!(matches!(
            run_err(
                "class Main { static int main() { Node n = null; return n.v; } }
                 class Node { int v; }"
            ),
            RuntimeError::NullDeref { .. }
        ));
        assert!(matches!(
            run_err("class Main { static int main() { int[] a = new int[2]; return a[5]; } }"),
            RuntimeError::IndexOutOfBounds {
                index: 5,
                len: 2,
                ..
            }
        ));
        assert!(matches!(
            run_err("class Main { static int main() { int[] a = new int[0-1]; return 0; } }"),
            RuntimeError::NegativeArrayLength { .. }
        ));
    }

    #[test]
    fn division_by_zero_errors() {
        assert!(matches!(
            run_err("class Main { static int main() { int z = 0; return 1 / z; } }"),
            RuntimeError::DivisionByZero { .. }
        ));
    }

    #[test]
    fn fuel_limits_runaway_programs() {
        let p = compile("class Main { static int main() { while (true) { } } }").expect("compiles");
        let e = Interp::new(&p)
            .with_fuel(10_000)
            .run(&mut NoopSink)
            .expect_err("must run out of fuel");
        assert!(matches!(e, RuntimeError::OutOfFuel));
    }

    #[test]
    fn stack_overflow_detected() {
        let p = compile(
            "class Main { static int main() { return f(0); }
             static int f(int n) { return f(n + 1); } }",
        )
        .expect("compiles");
        let e = Interp::new(&p)
            .with_max_frames(500)
            .run(&mut NoopSink)
            .expect_err("must overflow");
        assert!(matches!(e, RuntimeError::StackOverflow { .. }));
    }

    #[test]
    fn io_builtins_roundtrip() {
        let p = compile(
            "class Main { static int main() {
                int a = readInput();
                int b = readInput();
                print(a + b);
                print(a * b);
                return 0;
            } }",
        )
        .expect("compiles");
        let r = Interp::new(&p)
            .with_input(vec![6, 7])
            .run(&mut NoopSink)
            .expect("runs");
        assert_eq!(r.output, vec![13, 42]);
    }

    #[test]
    fn input_exhaustion_errors() {
        let e = run_err("class Main { static int main() { return readInput(); } }");
        assert!(matches!(e, RuntimeError::InputExhausted { .. }));
    }

    /// Counts events to validate loop instrumentation balance at run time.
    ///
    /// The write counters consume the value carried by the event directly
    /// — no re-read of `heap` — and honor the `tracked` flag exactly as
    /// AlgoProf does, exercising the merged single-emission mutation
    /// events.
    #[derive(Default)]
    struct CountingSink {
        entries: u64,
        backs: u64,
        exits: u64,
        method_entries: u64,
        method_exits: u64,
        field_puts: u64,
        array_stores: u64,
        untracked_writes: u64,
        stored_int_sum: i64,
    }

    impl EventSink for CountingSink {
        fn event(&mut self, ev: &Event, _cx: &EventCx<'_>) {
            match *ev {
                Event::LoopEntry { .. } => self.entries += 1,
                Event::LoopBackEdge { .. } => self.backs += 1,
                Event::LoopExit { .. } => self.exits += 1,
                Event::MethodEntry { .. } => self.method_entries += 1,
                Event::MethodExit { .. } => self.method_exits += 1,
                Event::FieldWrite { value, tracked, .. } => {
                    if tracked {
                        self.field_puts += 1;
                        if let Some(v) = value.as_int() {
                            self.stored_int_sum += v;
                        }
                    } else {
                        self.untracked_writes += 1;
                    }
                }
                Event::ArrayWrite { value, tracked, .. } => {
                    if tracked {
                        self.array_stores += 1;
                        if let Some(v) = value.as_int() {
                            self.stored_int_sum += v;
                        }
                    } else {
                        self.untracked_writes += 1;
                    }
                }
                _ => {}
            }
        }
    }

    fn run_counting(src: &str) -> CountingSink {
        let p = compile(src)
            .expect("compiles")
            .instrument(&InstrumentOptions::default());
        let mut prof = CountingSink::default();
        Interp::new(&p).run(&mut prof).expect("runs");
        prof
    }

    #[test]
    fn loop_events_balance_simple() {
        let prof = run_counting(
            "class Main { static int main() {
                int s = 0;
                for (int i = 0; i < 7; i = i + 1) { s = s + i; }
                return s;
            } }",
        );
        assert_eq!(prof.entries, 1);
        assert_eq!(prof.exits, 1);
        assert_eq!(prof.backs, 7);
    }

    #[test]
    fn write_events_carry_values_and_tracked_flags() {
        let prof = run_counting(
            "class Main { static int main() {
                Node head = null;
                for (int i = 0; i < 3; i = i + 1) {
                    Node x = new Node();
                    x.next = head;
                    x.tag = i;
                    head = x;
                }
                int[] a = new int[5];
                for (int i = 0; i < 5; i = i + 1) { a[i] = i + 1; }
                return 0;
            } }
            class Node { Node next; int tag; }",
        );
        // Node.next is recursive, hence tracked; each of the 3 stores
        // writes a reference (no int contribution). The 5 array stores
        // write 1..=5, which the sink sums straight from the event
        // payload. Node.tag is not part of a recursive cycle, so its 3
        // writes arrive with tracked=false — each write fires exactly one
        // event either way.
        assert_eq!(prof.field_puts, 3);
        assert_eq!(prof.array_stores, 5);
        assert_eq!(prof.stored_int_sum, 15);
        assert_eq!(prof.untracked_writes, 3);
    }

    #[test]
    fn loop_events_balance_nested() {
        let prof = run_counting(
            "class Main { static int main() {
                int s = 0;
                for (int o = 0; o < 3; o = o + 1) {
                    for (int i = 0; i < o; i = i + 1) { s = s + 1; }
                }
                return s;
            } }",
        );
        // Outer entered once, inner entered 3 times.
        assert_eq!(prof.entries, 4);
        assert_eq!(prof.exits, 4);
        // Outer iterates 3x, inner 0+1+2.
        assert_eq!(prof.backs, 6);
    }

    #[test]
    fn return_inside_loop_emits_exits() {
        let prof = run_counting(
            "class Main { static int main() {
                for (int i = 0; i < 100; i = i + 1) {
                    if (i == 5) { return i; }
                }
                return 0;
            } }",
        );
        assert_eq!(prof.entries, 1);
        assert_eq!(prof.exits, 1);
        assert_eq!(prof.backs, 5);
    }

    #[test]
    fn exception_out_of_loop_emits_exits() {
        let prof = run_counting(
            "class Main { static int main() {
                try {
                    for (int i = 0; i < 100; i = i + 1) {
                        if (i == 4) { throw i; }
                    }
                } catch (int e) { return e; }
                return 0;
            } }",
        );
        assert_eq!(prof.entries, 1);
        assert_eq!(prof.exits, 1, "unwinding must synthesize the loop exit");
        assert_eq!(prof.backs, 4);
    }

    #[test]
    fn exception_across_frames_emits_method_exits() {
        let prof = run_counting(
            "class Main { static int main() {
                try { return rec(3); } catch (int e) { return e; }
            }
            static int rec(int n) {
                if (n == 0) { throw 99; }
                return rec(n - 1);
            } }",
        );
        // rec entered 4 times (n=3..0), all exited during unwinding.
        assert_eq!(prof.method_entries, 4);
        assert_eq!(prof.method_exits, 4);
    }

    #[test]
    fn break_emits_single_exit() {
        let prof = run_counting(
            "class Main { static int main() {
                int s = 0;
                for (int i = 0; i < 100; i = i + 1) {
                    if (i == 3) { break; }
                    s = s + 1;
                }
                return s;
            } }",
        );
        assert_eq!(prof.entries, 1);
        assert_eq!(prof.exits, 1);
        assert_eq!(prof.backs, 3);
    }

    #[test]
    fn spawn_join_returns_thread_results() {
        assert_eq!(
            ret("class Main { static int main() {
                    int t1 = spawn work(10);
                    int t2 = spawn work(32);
                    return join t1 + join t2;
                }
                static int work(int n) {
                    int s = 0;
                    for (int i = 0; i < n; i = i + 1) { s = s + 1; }
                    return s;
                } }"),
            42
        );
    }

    #[test]
    fn locked_counter_is_exact() {
        assert_eq!(
            ret("class Main { static int main() {
                    Counter c = new Counter();
                    int t1 = spawn bump(c, 100);
                    int t2 = spawn bump(c, 100);
                    int a = join t1;
                    int b = join t2;
                    return c.total + a + b;
                }
                static int bump(Counter c, int n) {
                    for (int i = 0; i < n; i = i + 1) {
                        lock c;
                        c.total = c.total + 1;
                        unlock c;
                    }
                    return 0;
                } }
                class Counter { int total; }"),
            200
        );
    }

    #[test]
    fn locks_are_reentrant() {
        assert_eq!(
            ret("class Main { static int main() {
                    int[] a = new int[1];
                    lock a;
                    lock a;
                    a[0] = 7;
                    unlock a;
                    unlock a;
                    return a[0];
                } }"),
            7
        );
    }

    #[test]
    fn join_of_invalid_handle_errors() {
        let e = run_err("class Main { static int main() { return join 5; } }");
        assert!(matches!(e, RuntimeError::InvalidJoin { .. }), "{e:?}");
        // A thread joining itself is equally invalid.
        let e = run_err("class Main { static int main() { return join 0; } }");
        assert!(matches!(e, RuntimeError::InvalidJoin { .. }), "{e:?}");
    }

    #[test]
    fn unlock_without_lock_errors() {
        let e = run_err(
            "class Main { static int main() { int[] a = new int[1]; unlock a; return 0; } }",
        );
        assert!(matches!(e, RuntimeError::UnlockWithoutLock { .. }), "{e:?}");
    }

    #[test]
    fn spin_loop_cannot_starve_a_lock_waiter() {
        // The waiter polls `f.done` under the lock; the setter needs the
        // same lock once. While `done` is 0 the inner drain loop runs
        // zero iterations, making the spin cycle exactly four yield
        // points — lock, the inner loop-exit stub's backward jump,
        // unlock, outer back edge — which divides the 64-point quantum.
        // Without the `LockHandoff` slice exit, quantum expiry then hits
        // the same phase of the cycle forever, and on the two phases
        // that hold the lock the setter is never schedulable — an
        // infinite spin instead of termination. The `pad` pre-spin (one
        // yield point per iteration) shifts the expiry phase, so the
        // four paddings cover every phase of the cycle. The fuel bound
        // turns a regression into a test failure, not a hang.
        for pad in 0..4 {
            let src = format!(
                "class Main {{ static int main() {{
                    Flag f = new Flag();
                    int a = spawn waiter(f, {pad});
                    int b = spawn setter(f);
                    return join a + join b;
                }}
                static int waiter(Flag f, int pad) {{
                    int i = 0;
                    while (i < pad) {{ i = i + 1; }}
                    int seen = 0;
                    while (seen == 0) {{
                        lock f;
                        while (seen < f.done) {{ seen = seen + 1; }}
                        unlock f;
                    }}
                    return seen;
                }}
                static int setter(Flag f) {{
                    lock f;
                    f.done = 1;
                    unlock f;
                    return 1;
                }} }}
                class Flag {{ int done; }}"
            );
            let p = compile(&src)
                .expect("compiles")
                .instrument(&InstrumentOptions::default());
            let r = Interp::new(&p)
                .with_fuel(5_000_000)
                .run(&mut NoopSink)
                .unwrap_or_else(|e| panic!("pad={pad} must terminate, got {e:?}"));
            assert_eq!(r.return_value.as_int(), Some(2), "pad={pad}");
        }
    }

    #[test]
    fn deadlock_is_detected() {
        // Main holds the lock and blocks joining a thread that needs it.
        let e = run_err(
            "class Main { static int main() {
                int[] x = new int[1];
                lock x;
                int t = spawn grab(x);
                return join t;
            }
            static int grab(int[] x) { lock x; unlock x; return 1; } }",
        );
        assert!(matches!(e, RuntimeError::Deadlock), "{e:?}");
    }

    /// Records every event as its debug rendering, for byte-level
    /// determinism and protocol-shape assertions.
    #[derive(Default)]
    struct RecordingSink {
        events: Vec<String>,
    }

    impl EventSink for RecordingSink {
        fn event(&mut self, ev: &Event, _cx: &EventCx<'_>) {
            if !matches!(ev, Event::Instruction { .. }) {
                self.events.push(format!("{ev:?}"));
            }
        }
    }

    fn record_events(src: &str) -> (RunResult, Vec<String>) {
        let p = compile(src)
            .expect("compiles")
            .instrument(&InstrumentOptions::default());
        let mut sink = RecordingSink::default();
        let r = Interp::new(&p).run(&mut sink).expect("runs");
        (r, sink.events)
    }

    const CONTENDED_SRC: &str = "class Main { static int main() {
            Counter c = new Counter();
            int t1 = spawn bump(c, 100);
            int t2 = spawn bump(c, 100);
            int a = join t1;
            int b = join t2;
            return c.total;
        }
        static int bump(Counter c, int n) {
            for (int i = 0; i < n; i = i + 1) {
                lock c;
                c.total = c.total + 1;
                unlock c;
            }
            return 0;
        } }
        class Counter { int total; }";

    #[test]
    fn single_threaded_runs_emit_no_thread_events() {
        let (_, events) = record_events(
            "class Main { static int main() {
                int[] a = new int[3];
                lock a;
                a[0] = 1;
                unlock a;
                return a[0];
            } }",
        );
        assert!(
            !events
                .iter()
                .any(|e| e.starts_with("Thread") || e.contains("ThreadSwitch")),
            "single-threaded run leaked thread events: {events:?}"
        );
        // Lock events still fire (uncontended).
        assert!(events.iter().any(|e| e.starts_with("LockAcquire")));
        assert!(events.iter().any(|e| e.starts_with("LockRelease")));
    }

    #[test]
    fn thread_event_protocol_is_balanced() {
        let (r, events) = record_events(CONTENDED_SRC);
        assert_eq!(r.return_value.as_int(), Some(200));
        let count = |p: &str| events.iter().filter(|e| e.starts_with(p)).count();
        assert_eq!(count("ThreadSpawn"), 2);
        // Main and both workers each end exactly once.
        assert_eq!(count("ThreadEnd"), 3);
        assert!(count("ThreadSwitch") >= 2, "workers must get scheduled");
        // The quantum forces preemption inside the critical section at
        // some point, so contention is observed.
        assert!(count("LockWait") >= 1, "expected contention: {events:?}");
        assert!(
            events
                .iter()
                .any(|e| e.starts_with("LockAcquire") && e.contains("contended: true")),
            "expected a contended acquire"
        );
        // Every wait is eventually satisfied by a contended acquire.
        assert_eq!(
            count("LockWait"),
            events
                .iter()
                .filter(|e| e.starts_with("LockAcquire") && e.contains("contended: true"))
                .count()
        );
    }

    #[test]
    fn threaded_execution_is_deterministic() {
        let (r1, e1) = record_events(CONTENDED_SRC);
        let (r2, e2) = record_events(CONTENDED_SRC);
        assert_eq!(r1.return_value, r2.return_value);
        assert_eq!(r1.instructions, r2.instructions);
        assert_eq!(r1.dispatches, r2.dispatches);
        assert_eq!(e1, e2, "event streams must be byte-identical");
    }

    #[test]
    fn threaded_instruction_count_is_fusion_invariant() {
        // `instructions` counts logical opcodes, and the scheduler's
        // yield points are fusion-invariant, so the fused and unfused
        // builds of a threaded program agree exactly.
        let p = compile(CONTENDED_SRC)
            .expect("compiles")
            .instrument(&InstrumentOptions::default());
        let fused = p.fuse();
        let mut s1 = RecordingSink::default();
        let mut s2 = RecordingSink::default();
        let r1 = Interp::new(&p).run(&mut s1).expect("runs");
        let r2 = Interp::new(&fused).run(&mut s2).expect("runs");
        assert_eq!(r1.return_value, r2.return_value);
        assert_eq!(r1.instructions, r2.instructions);
        assert_eq!(s1.events, s2.events, "schedule must not depend on fusion");
    }
}

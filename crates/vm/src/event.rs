//! The unified profiling event stream: one [`Event`] enum, one
//! [`EventSink`] trait, composable sinks.
//!
//! Every observation the interpreter (or the trace replayer) can make is a
//! variant of [`Event`]; every consumer — AlgoProf, the trace recorder, the
//! calling-context-tree profiler, ad-hoc test sinks — implements the
//! single-method [`EventSink`] trait. Sinks compose statically:
//!
//! * [`Tee<A, B>`] delivers each event to `A` first, then to `B`;
//! * [`Fanout<S>`] delivers each event to a vector of sinks in index
//!   order (slot 0 first).
//!
//! Delivery order is deterministic and documented because recorded traces
//! must be byte-identical regardless of which other sinks observe the same
//! run, and because AlgoProf's input identification reads the heap at event
//! time — all sinks in a composition see the *same* heap state for the same
//! event.
//!
//! Heap-mutation variants ([`Event::ObjectAlloc`], [`Event::FieldWrite`],
//! [`Event::ArrayWrite`]) fire on **every** mutation and carry a `tracked`
//! flag saying whether the instrumentation pass flagged the program element
//! (recursive class, recursive field, `track_arrays`). This merges the old
//! `ProfilerHooks` design where each mutation fired a "raw" hook (always)
//! and a "cooked" hook (tracked only) back to back: one event now carries
//! the ref, class/length, slot, and value that both families used to split
//! between them, and the interpreter emits it exactly once per write.
//! Read-style variants ([`Event::FieldRead`], [`Event::ArrayRead`],
//! [`Event::InputRead`], [`Event::OutputWrite`]) and the repetition events
//! keep their historical gating: they are emitted only when the program
//! element is tracked, so an uninstrumented run stays silent.

use std::fmt::Write as _;

use crate::bytecode::{ClassId, CompiledProgram, ElemKind, FieldId, FuncId, LoopId, Opcode};
use crate::heap::{ArrRef, Heap, ObjRef, Value};

/// Identifies a guest thread. Thread 0 is the main thread; spawned
/// threads get dense ids in spawn order, which the deterministic
/// scheduler makes reproducible across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub u32);

impl ThreadId {
    /// The main thread, where execution starts.
    pub const MAIN: ThreadId = ThreadId(0);

    /// Returns the id as a usize index (ids are dense).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A single profiling event, as defined by the paper's §3 event taxonomy:
/// repetition events (method/loop), cost events (instructions, accesses,
/// creations, I/O), and heap-mutation events (which double as the shadow
/// heap's replication stream).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// An instrumented function was entered (frame already pushed).
    MethodEntry {
        /// The function entered.
        func: FuncId,
    },
    /// An instrumented function is about to return or unwind.
    MethodExit {
        /// The function exiting.
        func: FuncId,
    },
    /// Control entered a loop from outside.
    LoopEntry {
        /// The loop entered.
        l: LoopId,
    },
    /// A loop back edge was traversed (one algorithmic step).
    LoopBackEdge {
        /// The loop iterating.
        l: LoopId,
    },
    /// Control left a loop (normally or exceptionally).
    LoopExit {
        /// The loop exited.
        l: LoopId,
    },
    /// A tracked reference field was read on `obj`.
    FieldRead {
        /// The object read from (always [`Value::Obj`] in live runs; kept
        /// as a [`Value`] so replay reproduces the wire encoding exactly).
        obj: Value,
        /// The field read.
        field: FieldId,
    },
    /// A field was written (after the write is visible in the heap).
    ///
    /// Fires for **every** field write; `tracked` is true when the field
    /// participates in a recursive type cycle (`FieldInfo::track_access`).
    FieldWrite {
        /// The object written to.
        obj: ObjRef,
        /// The field written.
        field: FieldId,
        /// The value stored, so sinks need not re-read the heap.
        value: Value,
        /// Whether the instrumentation pass flagged this field.
        tracked: bool,
    },
    /// An array element was loaded (only when `track_arrays` is set).
    ArrayRead {
        /// The array read from (always [`Value::Arr`] in live runs).
        arr: Value,
    },
    /// An array element was stored (after the write).
    ///
    /// Fires for **every** array store; `tracked` mirrors the program's
    /// `track_arrays` flag.
    ArrayWrite {
        /// The array written to.
        arr: ArrRef,
        /// The element index stored.
        index: usize,
        /// The value stored.
        value: Value,
        /// Whether array accesses are instrumented for this program.
        tracked: bool,
    },
    /// An object was allocated.
    ///
    /// Fires for **every** allocation; `tracked` is true when the class is
    /// flagged (`ClassInfo::track_alloc`).
    ObjectAlloc {
        /// The fresh object (fields hold their defaults).
        obj: ObjRef,
        /// The object's class.
        class: ClassId,
        /// Whether the instrumentation pass flagged this class.
        tracked: bool,
    },
    /// An array was allocated.
    ArrayAlloc {
        /// The fresh array (elements hold their defaults).
        arr: ArrRef,
        /// The erased element kind.
        elem: ElemKind,
        /// The element count.
        len: usize,
    },
    /// `readInput()` consumed one external value (only when `track_io`).
    InputRead,
    /// `print(x)` produced one external value (only when `track_io`).
    OutputWrite,
    /// A new thread was created by `spawn`. Delivered while the spawning
    /// thread is still current; the first events *of* the new thread only
    /// arrive after a [`Event::ThreadSwitch`] to it.
    ThreadSpawn {
        /// The freshly created thread.
        thread: ThreadId,
        /// The static function the thread runs.
        func: FuncId,
    },
    /// The scheduler switched execution to `thread`. Every subsequent
    /// event belongs to `thread` until the next switch. A stream starts
    /// implicitly in [`ThreadId::MAIN`]; single-threaded runs emit no
    /// thread events at all, so their streams are unchanged.
    ThreadSwitch {
        /// The thread now executing.
        thread: ThreadId,
    },
    /// `thread` returned from its entry function and is finished.
    /// Delivered while the ending thread is still current.
    ThreadEnd {
        /// The thread that finished.
        thread: ThreadId,
    },
    /// The current thread acquired the lock on `obj`.
    LockAcquire {
        /// The object or array locked (always a reference).
        obj: Value,
        /// Whether the thread had to block first. A contended acquire is
        /// preceded (earlier in the stream, before the scheduler switched
        /// away) by a [`Event::LockWait`] from the same thread.
        contended: bool,
    },
    /// The current thread released the lock on `obj` (lock depth hit 0).
    LockRelease {
        /// The object or array unlocked.
        obj: Value,
    },
    /// The current thread tried to acquire the lock on `obj`, found it
    /// held by another thread, and is about to block. Attribution charges
    /// this as contention cost to the *blocked* (current) thread.
    LockWait {
        /// The contended object or array.
        obj: Value,
    },
    /// One logical bytecode instruction starts (a deterministic time proxy
    /// for traditional profilers), right before its own work and events.
    /// Not stored in traces.
    Instruction {
        /// The function executing.
        func: FuncId,
        /// The logical opcode. A superinstruction's constituents run one
        /// at a time for a sink that reads these events, one event each
        /// (see [`crate::bytecode::Instr::expand`]), so this stream is
        /// identical with peephole fusion on or off.
        op: Opcode,
    },
}

/// The context every event is delivered with: the program being run and
/// the guest heap *after* the event's effect is visible. AlgoProf's input
/// identification traverses `heap` at event time; most sinks ignore it.
#[derive(Debug, Clone, Copy)]
pub struct EventCx<'a> {
    /// The (instrumented) program being executed or replayed.
    pub program: &'a CompiledProgram,
    /// The guest heap (live) or shadow heap (replay).
    pub heap: &'a Heap,
}

/// Receives the profiling event stream, one call per event.
///
/// Static dispatch: an uninstrumented run with [`NoopSink`] pays nothing.
pub trait EventSink {
    /// Whether this sink reads [`Event::Instruction`]. A sink that sets
    /// it to `false` promises to ignore instruction events, so a driver
    /// may skip delivering them to it; every other event is still
    /// delivered. The check is a constant, so it folds at compile time.
    const READS_INSTRUCTIONS: bool = true;

    /// Observe one event. `cx.heap` already reflects the event's effect.
    fn event(&mut self, ev: &Event, cx: &EventCx<'_>);
}

/// A sink that ignores every event.
///
/// Also re-exported as `NoopProfiler` (the name the pre-`EventSink` hook
/// layer used) for callers that only ever needed "no profiling".
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl EventSink for NoopSink {
    const READS_INSTRUCTIONS: bool = false;

    #[inline]
    fn event(&mut self, _ev: &Event, _cx: &EventCx<'_>) {}
}

impl<S: EventSink + ?Sized> EventSink for &mut S {
    const READS_INSTRUCTIONS: bool = S::READS_INSTRUCTIONS;

    #[inline]
    fn event(&mut self, ev: &Event, cx: &EventCx<'_>) {
        (**self).event(ev, cx);
    }
}

/// Delivers every event to two sinks: `a` first, then `b`.
///
/// The order is part of the contract — e.g. `Tee<TraceRecorder, AlgoProf>`
/// guarantees the recorder serializes each event before the profiler
/// mutates its own state, so recording is invisible to profiling and vice
/// versa.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tee<A, B> {
    /// The first sink; sees each event before `b`.
    pub a: A,
    /// The second sink.
    pub b: B,
}

impl<A, B> Tee<A, B> {
    /// Composes two sinks; `a` observes each event before `b`.
    pub fn new(a: A, b: B) -> Self {
        Tee { a, b }
    }
}

impl<A: EventSink, B: EventSink> EventSink for Tee<A, B> {
    const READS_INSTRUCTIONS: bool = A::READS_INSTRUCTIONS || B::READS_INSTRUCTIONS;

    #[inline]
    fn event(&mut self, ev: &Event, cx: &EventCx<'_>) {
        self.a.event(ev, cx);
        self.b.event(ev, cx);
    }
}

/// Delivers every event to a homogeneous vector of sinks in index order
/// (slot 0 first, slot `n-1` last).
///
/// This is how `sweep` profiles N criteria ablations in a single guest
/// execution: `Fanout<AlgoProf>` with one instance per ablation.
#[derive(Debug, Default, Clone)]
pub struct Fanout<S> {
    /// The sinks, in delivery order.
    pub sinks: Vec<S>,
}

impl<S> Fanout<S> {
    /// Composes a vector of sinks delivered to in index order.
    pub fn new(sinks: Vec<S>) -> Self {
        Fanout { sinks }
    }

    /// Consumes the fanout, yielding the sinks in delivery order.
    pub fn into_sinks(self) -> Vec<S> {
        self.sinks
    }
}

impl<S: EventSink> EventSink for Fanout<S> {
    const READS_INSTRUCTIONS: bool = S::READS_INSTRUCTIONS;

    #[inline]
    fn event(&mut self, ev: &Event, cx: &EventCx<'_>) {
        for sink in &mut self.sinks {
            sink.event(ev, cx);
        }
    }
}

/// Appends `s` to `out` as a quoted JSON string: quotes, backslashes and
/// control characters escaped. The one JSON string escaper of the
/// workspace (event, sweep, lint and daemon JSON all use it).
pub fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `s` as a quoted JSON string ([`write_json_str`]).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_json_str(&mut out, s);
    out
}

fn json_value(out: &mut String, v: Value) {
    match v {
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Null => out.push_str("null"),
        Value::Obj(o) => {
            let _ = write!(out, "\"obj@{}\"", o.0);
        }
        Value::Arr(a) => {
            let _ = write!(out, "\"arr@{}\"", a.0);
        }
    }
}

fn elem_kind_name(elem: ElemKind) -> &'static str {
    match elem {
        ElemKind::Int => "int",
        ElemKind::Bool => "boolean",
        ElemKind::Ref => "ref",
    }
}

impl Event {
    /// The event's stable, lower-snake-case name (shared by the text and
    /// JSON renderings and the `algoprof events` output).
    pub fn name(&self) -> &'static str {
        match self {
            Event::MethodEntry { .. } => "method_entry",
            Event::MethodExit { .. } => "method_exit",
            Event::LoopEntry { .. } => "loop_entry",
            Event::LoopBackEdge { .. } => "loop_back_edge",
            Event::LoopExit { .. } => "loop_exit",
            Event::FieldRead { .. } => "field_read",
            Event::FieldWrite { .. } => "field_write",
            Event::ArrayRead { .. } => "array_read",
            Event::ArrayWrite { .. } => "array_write",
            Event::ObjectAlloc { .. } => "object_alloc",
            Event::ArrayAlloc { .. } => "array_alloc",
            Event::InputRead => "input_read",
            Event::OutputWrite => "output_write",
            Event::ThreadSpawn { .. } => "thread_spawn",
            Event::ThreadSwitch { .. } => "thread_switch",
            Event::ThreadEnd { .. } => "thread_end",
            Event::LockAcquire { .. } => "lock_acquire",
            Event::LockRelease { .. } => "lock_release",
            Event::LockWait { .. } => "lock_wait",
            Event::Instruction { .. } => "instruction",
        }
    }

    /// Renders the event as one human-readable line, resolving ids to
    /// names through `program` (e.g. `loop_entry List.sort:loop1@L9`).
    pub fn render_text(&self, program: &CompiledProgram) -> String {
        match *self {
            Event::MethodEntry { func } | Event::MethodExit { func } => {
                format!("{} {}", self.name(), program.func(func).name)
            }
            Event::LoopEntry { l } | Event::LoopBackEdge { l } | Event::LoopExit { l } => {
                format!("{} {}", self.name(), program.loop_info(l).name)
            }
            Event::FieldRead { obj, field } => {
                let f = program.field(field);
                format!(
                    "{} {obj}.{}.{}",
                    self.name(),
                    program.class(f.class).name,
                    f.name
                )
            }
            Event::FieldWrite {
                obj,
                field,
                value,
                tracked,
            } => {
                let f = program.field(field);
                format!(
                    "{} obj@{}.{}.{} = {value}{}",
                    self.name(),
                    obj.0,
                    program.class(f.class).name,
                    f.name,
                    if tracked { " (tracked)" } else { "" }
                )
            }
            Event::ArrayRead { arr } => format!("{} {arr}", self.name()),
            Event::ArrayWrite {
                arr,
                index,
                value,
                tracked,
            } => format!(
                "{} arr@{}[{index}] = {value}{}",
                self.name(),
                arr.0,
                if tracked { " (tracked)" } else { "" }
            ),
            Event::ObjectAlloc {
                obj,
                class,
                tracked,
            } => format!(
                "{} obj@{} : {}{}",
                self.name(),
                obj.0,
                program.class(class).name,
                if tracked { " (tracked)" } else { "" }
            ),
            Event::ArrayAlloc { arr, elem, len } => format!(
                "{} arr@{} : {}[{len}]",
                self.name(),
                arr.0,
                elem_kind_name(elem)
            ),
            Event::InputRead | Event::OutputWrite => self.name().to_string(),
            Event::ThreadSpawn { thread, func } => {
                format!("{} {thread} {}", self.name(), program.func(func).name)
            }
            Event::ThreadSwitch { thread } | Event::ThreadEnd { thread } => {
                format!("{} {thread}", self.name())
            }
            Event::LockAcquire { obj, contended } => format!(
                "{} {obj}{}",
                self.name(),
                if contended { " (contended)" } else { "" }
            ),
            Event::LockRelease { obj } | Event::LockWait { obj } => {
                format!("{} {obj}", self.name())
            }
            Event::Instruction { func, op } => {
                format!("{} {} {}", self.name(), op.name(), program.func(func).name)
            }
        }
    }

    /// Renders the event as one single-line JSON object (JSON-lines
    /// friendly), resolving ids to names through `program`.
    pub fn render_json(&self, program: &CompiledProgram) -> String {
        let mut out = String::with_capacity(64);
        let _ = write!(out, "{{\"event\": \"{}\"", self.name());
        let str_field = |out: &mut String, key: &str, val: &str| {
            let _ = write!(out, ", \"{key}\": ");
            write_json_str(out, val);
        };
        match *self {
            Event::MethodEntry { func } | Event::MethodExit { func } => {
                str_field(&mut out, "method", &program.func(func).name);
            }
            Event::LoopEntry { l } | Event::LoopBackEdge { l } | Event::LoopExit { l } => {
                str_field(&mut out, "loop", &program.loop_info(l).name);
            }
            Event::FieldRead { obj, field } => {
                let f = program.field(field);
                str_field(&mut out, "obj", &obj.to_string());
                str_field(&mut out, "class", &program.class(f.class).name);
                str_field(&mut out, "field", &f.name);
            }
            Event::FieldWrite {
                obj,
                field,
                value,
                tracked,
            } => {
                let f = program.field(field);
                str_field(&mut out, "obj", &format!("obj@{}", obj.0));
                str_field(&mut out, "class", &program.class(f.class).name);
                str_field(&mut out, "field", &f.name);
                out.push_str(", \"value\": ");
                json_value(&mut out, value);
                let _ = write!(out, ", \"tracked\": {tracked}");
            }
            Event::ArrayRead { arr } => {
                str_field(&mut out, "arr", &arr.to_string());
            }
            Event::ArrayWrite {
                arr,
                index,
                value,
                tracked,
            } => {
                str_field(&mut out, "arr", &format!("arr@{}", arr.0));
                let _ = write!(out, ", \"index\": {index}, \"value\": ");
                json_value(&mut out, value);
                let _ = write!(out, ", \"tracked\": {tracked}");
            }
            Event::ObjectAlloc {
                obj,
                class,
                tracked,
            } => {
                str_field(&mut out, "obj", &format!("obj@{}", obj.0));
                str_field(&mut out, "class", &program.class(class).name);
                let _ = write!(out, ", \"tracked\": {tracked}");
            }
            Event::ArrayAlloc { arr, elem, len } => {
                str_field(&mut out, "arr", &format!("arr@{}", arr.0));
                str_field(&mut out, "elem", elem_kind_name(elem));
                let _ = write!(out, ", \"len\": {len}");
            }
            Event::InputRead | Event::OutputWrite => {}
            Event::ThreadSpawn { thread, func } => {
                let _ = write!(out, ", \"thread\": {}", thread.0);
                str_field(&mut out, "method", &program.func(func).name);
            }
            Event::ThreadSwitch { thread } | Event::ThreadEnd { thread } => {
                let _ = write!(out, ", \"thread\": {}", thread.0);
            }
            Event::LockAcquire { obj, contended } => {
                str_field(&mut out, "obj", &obj.to_string());
                let _ = write!(out, ", \"contended\": {contended}");
            }
            Event::LockRelease { obj } | Event::LockWait { obj } => {
                str_field(&mut out, "obj", &obj.to_string());
            }
            Event::Instruction { func, op } => {
                str_field(&mut out, "op", op.name());
                str_field(&mut out, "method", &program.func(func).name);
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("\u{1}\t"), "\"\\u0001\\t\"");
    }

    /// Appends `(tag, event name)` per event so delivery order is visible.
    struct Recording<'a> {
        tag: &'a str,
        log: &'a std::cell::RefCell<Vec<String>>,
    }

    impl EventSink for Recording<'_> {
        fn event(&mut self, ev: &Event, _cx: &EventCx<'_>) {
            self.log
                .borrow_mut()
                .push(format!("{}:{}", self.tag, ev.name()));
        }
    }

    fn cx_fixture() -> (CompiledProgram, Heap) {
        let program = compile("class Main { static int main() { return 0; } }").expect("compiles");
        (program, Heap::new())
    }

    #[test]
    fn tee_delivers_a_then_b() {
        let (program, heap) = cx_fixture();
        let cx = EventCx {
            program: &program,
            heap: &heap,
        };
        let log = std::cell::RefCell::new(Vec::new());
        let mut tee = Tee::new(
            Recording {
                tag: "a",
                log: &log,
            },
            Recording {
                tag: "b",
                log: &log,
            },
        );
        tee.event(&Event::InputRead, &cx);
        tee.event(&Event::OutputWrite, &cx);
        assert_eq!(
            log.into_inner(),
            vec![
                "a:input_read",
                "b:input_read",
                "a:output_write",
                "b:output_write"
            ]
        );
    }

    #[test]
    fn fanout_delivers_in_index_order() {
        let (program, heap) = cx_fixture();
        let cx = EventCx {
            program: &program,
            heap: &heap,
        };
        let log = std::cell::RefCell::new(Vec::new());
        let mut fanout = Fanout::new(vec![
            Recording {
                tag: "0",
                log: &log,
            },
            Recording {
                tag: "1",
                log: &log,
            },
            Recording {
                tag: "2",
                log: &log,
            },
        ]);
        fanout.event(&Event::InputRead, &cx);
        fanout.event(&Event::OutputWrite, &cx);
        assert_eq!(
            log.into_inner(),
            vec![
                "0:input_read",
                "1:input_read",
                "2:input_read",
                "0:output_write",
                "1:output_write",
                "2:output_write"
            ]
        );
    }

    #[test]
    fn nested_composition_keeps_depth_first_order() {
        let (program, heap) = cx_fixture();
        let cx = EventCx {
            program: &program,
            heap: &heap,
        };
        let log = std::cell::RefCell::new(Vec::new());
        // Tee(Fanout[x, y], z): x, y, then z.
        let mut sink = Tee::new(
            Fanout::new(vec![
                Recording {
                    tag: "x",
                    log: &log,
                },
                Recording {
                    tag: "y",
                    log: &log,
                },
            ]),
            Recording {
                tag: "z",
                log: &log,
            },
        );
        sink.event(&Event::InputRead, &cx);
        assert_eq!(
            log.into_inner(),
            vec!["x:input_read", "y:input_read", "z:input_read"]
        );
    }

    fn reads<S: EventSink>() -> bool {
        S::READS_INSTRUCTIONS
    }

    #[test]
    fn reads_instructions_composes() {
        type Reader = Recording<'static>;
        assert!(reads::<Reader>(), "the default is to read");
        assert!(!reads::<NoopSink>());
        assert!(!reads::<Tee<NoopSink, NoopSink>>());
        assert!(reads::<Tee<NoopSink, Reader>>());
        assert!(reads::<Tee<Reader, NoopSink>>());
        assert!(!reads::<Fanout<NoopSink>>());
        assert!(reads::<Fanout<Reader>>());
        assert!(!reads::<&'static mut NoopSink>());
        assert!(reads::<&'static mut Reader>());
        assert!(!reads::<Tee<&'static mut NoopSink, Fanout<NoopSink>>>());
        assert!(reads::<Tee<Fanout<NoopSink>, &'static mut Fanout<Reader>>>());
    }

    /// Counts what it is handed, split into instruction ticks and the
    /// rest. `READS` says whether it declares that it reads the ticks.
    #[derive(Default)]
    struct Tally<const READS: bool> {
        instructions: u64,
        others: u64,
    }

    impl<const READS: bool> EventSink for Tally<READS> {
        const READS_INSTRUCTIONS: bool = READS;

        fn event(&mut self, ev: &Event, _cx: &EventCx<'_>) {
            match ev {
                Event::Instruction { .. } => self.instructions += 1,
                _ => self.others += 1,
            }
        }
    }

    #[test]
    fn interpreter_skips_instruction_ticks_only_for_sinks_that_ignore_them() {
        let program = compile(
            "class Main { static int main() {
                Node n = null;
                for (int i = 0; i < 5; i = i + 1) { Node m = new Node(); m.next = n; n = m; }
                return 0;
            } }
            class Node { Node next; }",
        )
        .expect("compiles")
        .instrument(&crate::instrument::InstrumentOptions::default())
        .fuse();

        let mut blind = Tally::<false>::default();
        let alone = crate::interp::Interp::new(&program)
            .run(&mut blind)
            .expect("runs");
        assert_eq!(blind.instructions, 0);
        assert!(blind.others > 0 && alone.instructions > 0);

        let mut both = Tee::new(Tally::<false>::default(), Tally::<true>::default());
        let teed = crate::interp::Interp::new(&program)
            .run(&mut both)
            .expect("runs");
        assert_eq!(teed.instructions, alone.instructions);
        assert_eq!(teed.dispatches, alone.dispatches);
        assert_eq!(both.b.instructions, alone.instructions);
        assert_eq!(both.b.others, blind.others);
        assert_eq!(both.a.others, blind.others);
    }

    #[test]
    fn renderings_resolve_names() {
        let program = compile(
            "class Main { static int main() {
                int s = 0;
                for (int i = 0; i < 3; i = i + 1) { s = s + i; }
                return s;
            } }",
        )
        .expect("compiles")
        .instrument(&crate::instrument::InstrumentOptions::default());
        let l = program.loops[0].id;
        let ev = Event::LoopEntry { l };
        let text = ev.render_text(&program);
        assert!(text.starts_with("loop_entry "), "got {text}");
        assert!(text.contains("Main.main"), "got {text}");
        let json = ev.render_json(&program);
        assert!(json.starts_with("{\"event\": \"loop_entry\""), "got {json}");
        assert!(json.contains("\"loop\": \""), "got {json}");

        let ev = Event::FieldWrite {
            obj: ObjRef(0),
            field: FieldId(0),
            value: Value::Int(7),
            tracked: true,
        };
        // Rendering only needs table lookups; Main has no fields, so build
        // a minimal payload against a program that declares one.
        let program = compile(
            "class Main { static int main() { Node n = new Node(); n.v = 7; return n.v; } }
             class Node { int v; }",
        )
        .expect("compiles");
        let json = ev.render_json(&program);
        assert!(json.contains("\"value\": 7"), "got {json}");
        assert!(json.contains("\"tracked\": true"), "got {json}");
        assert!(json.contains("\"field\": \"v\""), "got {json}");
    }
}

//! Replay: rebuild a shadow heap event-by-event and drive any sink.
//!
//! The guest heap mutates at exactly four interpreter sites (`new`,
//! `new[]`, field put, array store), each captured by a mutation record.
//! Replaying the identical [`Heap`] API call sequence against an empty
//! heap therefore reproduces object/array ids, mutation epochs,
//! per-reference stamps, and the array write log *bit for bit* — so a
//! sink driven from the trace observes exactly the heap a live sink
//! observed, and an `AlgoProf` replayed under any option combination
//! yields the profile a live run under those options would have.
//!
//! Replay feeds the *identical* [`EventSink`] API as live execution: one
//! consumer code path, two drivers. The `tracked` flag on mutation events
//! is not stored in the trace; it is re-derived here from the program's
//! instrumentation flags, mirroring how the interpreter computes it.

use algoprof_vm::{
    default_field_value, ArrRef, ClassId, CompiledProgram, ElemKind, Event, EventCx, EventSink,
    FieldId, FuncId, Heap, LoopId, ObjRef, ThreadId, Value,
};

use crate::format::{
    Deltas, TraceError, TAG_ARRAY_ALLOCATED, TAG_ARRAY_LOAD, TAG_ARRAY_WRITTEN, TAG_END,
    TAG_FIELD_GET, TAG_FIELD_WRITTEN, TAG_INPUT_READ, TAG_LOCK_ACQ, TAG_LOCK_REL, TAG_LOCK_WAIT,
    TAG_LOOP_BACK_EDGE, TAG_LOOP_ENTRY, TAG_LOOP_EXIT, TAG_METHOD_ENTRY, TAG_METHOD_EXIT,
    TAG_OBJECT_ALLOCATED, TAG_OUTPUT_WRITE, TAG_THREAD_END, TAG_THREAD_SPAWN, TAG_THREAD_SWITCH,
    VK_ARR, VK_FALSE, VK_INT, VK_NULL, VK_OBJ, VK_TRUE,
};
use crate::wire::Cursor;

/// Upper bound on a replayed array allocation's length. A corrupted
/// varint can claim an arbitrarily large length; without this cap the
/// shadow heap would try to reserve it and abort the process instead of
/// reporting [`TraceError::Corrupt`]. Recordings of real guest runs sit
/// far below the cap (the interpreter would have spent hours building
/// such an array before the allocation event was even written).
pub const MAX_REPLAY_ARRAY_LEN: usize = 1 << 24;

/// Accounting for one replay pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayStats {
    /// Events decoded (the `End` tag not included).
    pub events: u64,
}

/// One open repetition frame during replay, used to validate that the
/// event stream is balanced (see [`TraceReplayer::replay`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Frame {
    Loop(LoopId),
    Method(FuncId),
}

/// Per-thread balance stacks. A multithreaded stream interleaves the
/// threads' repetition events, so balance must be validated against the
/// stack of the thread each event belongs to — the one last switched to.
/// Version-1 traces contain no thread events and stay on stack 0.
#[derive(Debug)]
struct FrameStacks {
    /// Index of the current thread's stack (the last `ThreadSwitch`).
    cur: usize,
    /// One stack per thread, indexed by dense thread id.
    stacks: Vec<Vec<Frame>>,
}

impl Default for FrameStacks {
    fn default() -> Self {
        FrameStacks {
            cur: 0,
            stacks: vec![Vec::new()],
        }
    }
}

impl FrameStacks {
    /// The current thread's stack.
    fn current(&mut self) -> &mut Vec<Frame> {
        &mut self.stacks[self.cur]
    }

    /// Total open repetitions across all threads (0 = balanced).
    fn open(&self) -> usize {
        self.stacks.iter().map(Vec::len).sum()
    }
}

/// What [`TraceReplayer::step`] decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// One event was decoded and delivered to the sink.
    Event,
    /// The `End` tag was read; the stream is complete.
    End,
}

/// Replays a trace's event stream, maintaining the shadow heap.
///
/// The one replay driver: [`TraceReplayer::replay`] feeds it a whole
/// event stream, [`IncrementalReplayer`] chunk by chunk, so the same
/// bytes give the same events, or the same error, however they are split.
///
/// One replayer owns one shadow heap; to analyze the same trace under
/// several configurations, either reuse the replayer (the heap rebuild
/// restarts from scratch each [`TraceReplayer::replay`] call) or create
/// a fresh one per pass — both are cheap relative to re-executing the
/// guest.
///
/// [`IncrementalReplayer`]: crate::IncrementalReplayer
#[derive(Debug)]
pub struct TraceReplayer {
    heap: Heap,
    deltas: Deltas,
    frames: FrameStacks,
    pub(crate) stats: ReplayStats,
    /// Whether the `End` tag has been decoded.
    pub(crate) ended: bool,
}

impl Default for TraceReplayer {
    fn default() -> Self {
        TraceReplayer::new()
    }
}

impl TraceReplayer {
    /// A replayer with an empty shadow heap, at the start of a stream.
    pub fn new() -> Self {
        TraceReplayer {
            heap: Heap::new(),
            deltas: Deltas::START,
            frames: FrameStacks::default(),
            stats: ReplayStats::default(),
            ended: false,
        }
    }

    /// The shadow heap in its current state (fully rebuilt after a
    /// successful [`TraceReplayer::replay`]).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Replays `events` (the byte stream following the header, as
    /// returned by [`crate::read_header`]) against `program`, driving
    /// `sink` exactly as the live interpreter drives its sink.
    ///
    /// `program` must be the result of compiling the trace header's
    /// source under the header's instrumentation options; compilation is
    /// deterministic, so ids embedded in the trace resolve identically.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] when the stream is truncated (no `End`
    /// tag), contains an unknown tag, references an id that does not
    /// exist in `program` or the shadow heap, is unbalanced (a
    /// loop/method exit without its matching entry, a back edge outside
    /// its loop, or an `End` tag with repetitions still open), or
    /// continues past its `End` tag. The live interpreter can only emit
    /// balanced streams, so an unbalanced one is corruption — and
    /// forwarding it would violate the invariants sinks are entitled to
    /// assume.
    pub fn replay<S: EventSink>(
        &mut self,
        program: &CompiledProgram,
        events: &[u8],
        sink: &mut S,
    ) -> Result<ReplayStats, TraceError> {
        *self = TraceReplayer::new();
        let consumed = self.advance(program, events, sink)?;
        self.finish((events.len() - consumed) as u64)
    }

    /// Delivers every complete event at the front of `bytes`, the event
    /// stream continuing where the previous call stopped, and returns
    /// how many bytes that consumed. Stops at a partial event (the next
    /// call retries it from its first byte) and after the `End` tag.
    ///
    /// This is where the `End` tag's own rule lives: repetitions still
    /// open when it is decoded are corruption. Bytes after it are
    /// judged by [`TraceReplayer::finish`], once their count is known.
    pub(crate) fn advance<S: EventSink>(
        &mut self,
        program: &CompiledProgram,
        bytes: &[u8],
        sink: &mut S,
    ) -> Result<usize, TraceError> {
        let mut c = Cursor::new(bytes);
        while !self.ended {
            // Every arm of `step` reads all its bytes before it touches
            // the heap or the frames, so a mid-event `Truncated` has
            // disturbed only the delta registers.
            let (pos, deltas) = (c.pos(), self.deltas);
            match self.step(program, &mut c, sink) {
                Ok(Step::Event) => self.stats.events += 1,
                Ok(Step::End) => {
                    self.ended = true;
                    if self.frames.open() != 0 {
                        return Err(TraceError::Corrupt(format!(
                            "End tag with {} repetitions still open",
                            self.frames.open()
                        )));
                    }
                }
                Err(TraceError::Truncated) => {
                    self.deltas = deltas;
                    return Ok(pos);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(c.pos())
    }

    /// Closes the stream, given the number of bytes that followed the
    /// `End` tag.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Truncated`] when no `End` tag was decoded
    /// and [`TraceError::Corrupt`] when bytes followed it.
    pub(crate) fn finish(&self, trailing: u64) -> Result<ReplayStats, TraceError> {
        if !self.ended {
            return Err(TraceError::Truncated);
        }
        if trailing != 0 {
            return Err(TraceError::Corrupt(format!(
                "{trailing} trailing bytes after End tag"
            )));
        }
        Ok(self.stats)
    }

    /// Decodes and delivers one event from `c`.
    ///
    /// Invariant relied on by [`TraceReplayer::advance`]: every cursor
    /// read in an arm happens before that arm mutates the shadow heap or
    /// the frames, so a `Truncated` error leaves both untouched (only
    /// the delta registers may have advanced).
    fn step<S: EventSink>(
        &mut self,
        program: &CompiledProgram,
        c: &mut Cursor<'_>,
        sink: &mut S,
    ) -> Result<Step, TraceError> {
        macro_rules! emit {
            ($ev:expr) => {
                sink.event(
                    &$ev,
                    &EventCx {
                        program,
                        heap: &self.heap,
                    },
                )
            };
        }
        match c.u8()? {
            TAG_END => return Ok(Step::End),
            TAG_METHOD_ENTRY => {
                let f = self.func_id(&mut *c, program)?;
                self.frames.current().push(Frame::Method(f));
                emit!(Event::MethodEntry { func: f });
            }
            TAG_METHOD_EXIT => {
                let f = self.func_id(&mut *c, program)?;
                if self.frames.current().pop() != Some(Frame::Method(f)) {
                    return Err(TraceError::Corrupt(format!(
                        "method exit for function {} without matching entry",
                        f.0
                    )));
                }
                emit!(Event::MethodExit { func: f });
            }
            TAG_LOOP_ENTRY => {
                let l = self.loop_id(&mut *c, program)?;
                self.frames.current().push(Frame::Loop(l));
                emit!(Event::LoopEntry { l });
            }
            TAG_LOOP_BACK_EDGE => {
                let l = self.loop_id(&mut *c, program)?;
                if self.frames.current().last() != Some(&Frame::Loop(l)) {
                    return Err(TraceError::Corrupt(format!(
                        "back edge for loop {} which is not the innermost open repetition",
                        l.0
                    )));
                }
                emit!(Event::LoopBackEdge { l });
            }
            TAG_LOOP_EXIT => {
                let l = self.loop_id(&mut *c, program)?;
                if self.frames.current().pop() != Some(Frame::Loop(l)) {
                    return Err(TraceError::Corrupt(format!(
                        "loop exit for loop {} without matching entry",
                        l.0
                    )));
                }
                emit!(Event::LoopExit { l });
            }
            TAG_FIELD_GET => {
                let obj = self.value(&mut *c)?;
                let f = self.field_id(&mut *c, program)?;
                emit!(Event::FieldRead { obj, field: f });
            }
            TAG_ARRAY_LOAD => {
                let arr = self.value(&mut *c)?;
                emit!(Event::ArrayRead { arr });
            }
            TAG_INPUT_READ => emit!(Event::InputRead),
            TAG_OUTPUT_WRITE => emit!(Event::OutputWrite),
            TAG_OBJECT_ALLOCATED => {
                let class = self.class_id(&mut *c, program)?;
                let fields = program
                    .class(class)
                    .field_layout
                    .iter()
                    .map(|&fid| default_field_value(&program.field(fid).ty))
                    .collect();
                let obj = self.heap.alloc_object_with(class, fields);
                self.deltas.obj = i64::from(obj.0);
                emit!(Event::ObjectAlloc {
                    obj,
                    class,
                    tracked: program.class(class).track_alloc,
                });
            }
            TAG_ARRAY_ALLOCATED => {
                let elem = match c.u8()? {
                    0 => ElemKind::Int,
                    1 => ElemKind::Bool,
                    2 => ElemKind::Ref,
                    b => return Err(TraceError::Corrupt(format!("element kind {b}"))),
                };
                let len = c.uleb()?;
                if len > MAX_REPLAY_ARRAY_LEN as u64 {
                    return Err(TraceError::Corrupt(format!(
                        "array length {len} exceeds replay cap {MAX_REPLAY_ARRAY_LEN}"
                    )));
                }
                let len = len as usize;
                let arr = self.heap.alloc_array(elem, len);
                self.deltas.arr = i64::from(arr.0);
                emit!(Event::ArrayAlloc { arr, elem, len });
            }
            TAG_FIELD_WRITTEN => {
                let obj = self.obj_ref(&mut *c)?;
                let f = self.field_id(&mut *c, program)?;
                let value = self.value(&mut *c)?;
                let slot = program.field(f).slot as usize;
                // A flipped field id can name a field of a *different*
                // class whose slot lies beyond this object's layout.
                if slot >= self.heap.object(obj).field_count() {
                    return Err(TraceError::Corrupt(format!(
                        "field slot {slot} outside object with {} fields",
                        self.heap.object(obj).field_count()
                    )));
                }
                self.heap.set_field(obj, slot, value);
                emit!(Event::FieldWrite {
                    obj,
                    field: f,
                    value,
                    tracked: program.field(f).track_access,
                });
            }
            TAG_ARRAY_WRITTEN => {
                let arr = self.arr_ref(&mut *c)?;
                let index = c.uleb()? as usize;
                if index >= self.heap.array(arr).elems.len() {
                    return Err(TraceError::Corrupt(format!(
                        "store index {index} out of bounds for array of length {}",
                        self.heap.array(arr).elems.len()
                    )));
                }
                let value = self.value(&mut *c)?;
                self.heap.set_elem(arr, index, value);
                emit!(Event::ArrayWrite {
                    arr,
                    index,
                    value,
                    tracked: program.track_arrays,
                });
            }
            TAG_THREAD_SPAWN => {
                let tid = c.uleb()?;
                let f = self.func_id(&mut *c, program)?;
                // The interpreter allocates thread ids densely in spawn
                // order, so each spawn's id must be the next unseen one.
                if tid != self.frames.stacks.len() as u64 {
                    return Err(TraceError::Corrupt(format!(
                        "thread spawn with id {tid}, expected {}",
                        self.frames.stacks.len()
                    )));
                }
                self.frames.stacks.push(Vec::new());
                emit!(Event::ThreadSpawn {
                    thread: ThreadId(tid as u32),
                    func: f,
                });
            }
            TAG_THREAD_SWITCH => {
                let tid = self.deltas.thread + c.ileb()?;
                if tid < 0 || tid as usize >= self.frames.stacks.len() {
                    return Err(TraceError::Corrupt(format!(
                        "thread switch to {tid} outside the {} spawned",
                        self.frames.stacks.len()
                    )));
                }
                self.deltas.thread = tid;
                self.frames.cur = tid as usize;
                emit!(Event::ThreadSwitch {
                    thread: ThreadId(tid as u32),
                });
            }
            TAG_THREAD_END => {
                let tid = bounded_id(&mut *c, self.frames.stacks.len(), "thread")?;
                if !self.frames.stacks[tid as usize].is_empty() {
                    return Err(TraceError::Corrupt(format!(
                        "thread {tid} ended with {} repetitions still open",
                        self.frames.stacks[tid as usize].len()
                    )));
                }
                emit!(Event::ThreadEnd {
                    thread: ThreadId(tid),
                });
            }
            TAG_LOCK_ACQ => {
                let obj = self.value(&mut *c)?;
                let contended = match c.u8()? {
                    0 => false,
                    1 => true,
                    b => return Err(TraceError::Corrupt(format!("contended byte {b}"))),
                };
                emit!(Event::LockAcquire { obj, contended });
            }
            TAG_LOCK_REL => {
                let obj = self.value(&mut *c)?;
                emit!(Event::LockRelease { obj });
            }
            TAG_LOCK_WAIT => {
                let obj = self.value(&mut *c)?;
                emit!(Event::LockWait { obj });
            }
            tag => return Err(TraceError::Corrupt(format!("unknown event tag {tag:#04x}"))),
        }
        Ok(Step::Event)
    }

    // -------------------------------------------------------- decoding

    fn obj_ref(&mut self, c: &mut Cursor<'_>) -> Result<ObjRef, TraceError> {
        let id = self.deltas.obj + c.ileb()?;
        if id < 0 || id as usize >= self.heap.object_count() {
            return Err(TraceError::Corrupt(format!(
                "object ref {id} outside the {} allocated",
                self.heap.object_count()
            )));
        }
        self.deltas.obj = id;
        Ok(ObjRef(id as u32))
    }

    fn arr_ref(&mut self, c: &mut Cursor<'_>) -> Result<ArrRef, TraceError> {
        let id = self.deltas.arr + c.ileb()?;
        if id < 0 || id as usize >= self.heap.array_count() {
            return Err(TraceError::Corrupt(format!(
                "array ref {id} outside the {} allocated",
                self.heap.array_count()
            )));
        }
        self.deltas.arr = id;
        Ok(ArrRef(id as u32))
    }

    fn value(&mut self, c: &mut Cursor<'_>) -> Result<Value, TraceError> {
        Ok(match c.u8()? {
            VK_NULL => Value::Null,
            VK_FALSE => Value::Bool(false),
            VK_TRUE => Value::Bool(true),
            VK_INT => Value::Int(c.ileb()?),
            VK_OBJ => Value::Obj(self.obj_ref(c)?),
            VK_ARR => Value::Arr(self.arr_ref(c)?),
            b => return Err(TraceError::Corrupt(format!("value kind {b}"))),
        })
    }

    fn func_id(&self, c: &mut Cursor<'_>, program: &CompiledProgram) -> Result<FuncId, TraceError> {
        bounded_id(c, program.functions.len(), "function").map(FuncId)
    }

    fn loop_id(&self, c: &mut Cursor<'_>, program: &CompiledProgram) -> Result<LoopId, TraceError> {
        bounded_id(c, program.loops.len(), "loop").map(LoopId)
    }

    fn field_id(
        &self,
        c: &mut Cursor<'_>,
        program: &CompiledProgram,
    ) -> Result<FieldId, TraceError> {
        bounded_id(c, program.fields.len(), "field").map(FieldId)
    }

    fn class_id(
        &self,
        c: &mut Cursor<'_>,
        program: &CompiledProgram,
    ) -> Result<ClassId, TraceError> {
        bounded_id(c, program.classes.len(), "class").map(ClassId)
    }
}

fn bounded_id(c: &mut Cursor<'_>, len: usize, what: &str) -> Result<u32, TraceError> {
    let id = c.uleb()?;
    if id >= len as u64 {
        return Err(TraceError::Corrupt(format!(
            "{what} id {id} outside table of {len}"
        )));
    }
    Ok(id as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::put_ileb;
    use crate::{IncrementalReplayer, TraceHeader};
    use algoprof_vm::{compile, InstrumentOptions, NoopProfiler};

    const SRC: &str =
        "class Main { static int main() { Node n = new Node(); n.v = 1; return n.v; } }
    class Node { int v; }";

    /// A stream whose first event writes a field of object delta `d`
    /// before anything was allocated: only the starting delta register
    /// decides which ref the error names.
    #[test]
    fn batch_and_streaming_replay_start_from_one_decode_state() {
        let opts = InstrumentOptions::default();
        let program = compile(SRC).expect("compiles").instrument(&opts);
        for d in [0i64, 1, 5, -3] {
            let mut events = vec![TAG_FIELD_WRITTEN];
            put_ileb(&mut events, d);
            let want = TraceError::Corrupt(format!("object ref {} outside the 0 allocated", d - 1));

            let batch = TraceReplayer::new().replay(&program, &events, &mut NoopProfiler);
            assert_eq!(batch, Err(want.clone()), "batch, delta {d}");

            let mut trace = Vec::new();
            TraceHeader::new(SRC, &opts, &[]).encode(&mut trace);
            trace.extend_from_slice(&events);
            let mut inc = IncrementalReplayer::new();
            inc.feed(&trace);
            inc.header().expect("header decodes");
            let streamed = inc.advance(&program, &mut NoopProfiler);
            assert_eq!(streamed, Err(want), "streaming, delta {d}");
        }
    }
}

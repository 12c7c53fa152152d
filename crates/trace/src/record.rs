//! Recording: an [`EventSink`] that serializes the event stream.
//!
//! `TraceRecorder` buffers encoded events internally and drains them to
//! its `io::Write` backend in large chunks, so sink calls never perform
//! small writes. Because `EventSink::event` cannot return errors, an I/O
//! failure is stashed and surfaced by [`TraceRecorder::finish`]; after a
//! failure the recorder keeps consuming events cheaply (encode + drop).
//!
//! Recording composes with live analysis through the generic
//! [`Tee`](algoprof_vm::Tee) combinator: `Tee::new(recorder, profiler)`
//! lets a single guest execution produce both a trace and a live profile,
//! with the recorder observing each event first.

use std::io::{self, Write};

use algoprof_vm::{ArrRef, Event, EventCx, EventSink, ObjRef, Value};

use crate::format::{
    TraceHeader, TAG_ARRAY_ALLOCATED, TAG_ARRAY_LOAD, TAG_ARRAY_WRITTEN, TAG_END, TAG_FIELD_GET,
    TAG_FIELD_WRITTEN, TAG_INPUT_READ, TAG_LOCK_ACQ, TAG_LOCK_REL, TAG_LOCK_WAIT,
    TAG_LOOP_BACK_EDGE, TAG_LOOP_ENTRY, TAG_LOOP_EXIT, TAG_METHOD_ENTRY, TAG_METHOD_EXIT,
    TAG_OBJECT_ALLOCATED, TAG_OUTPUT_WRITE, TAG_THREAD_END, TAG_THREAD_SPAWN, TAG_THREAD_SWITCH,
    VK_ARR, VK_FALSE, VK_INT, VK_NULL, VK_OBJ, VK_TRUE,
};
use crate::wire::{put_ileb, put_uleb};

/// Buffered bytes beyond which the recorder drains to its backend.
const FLUSH_AT: usize = 64 * 1024;

/// Size accounting for a finished recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Events encoded (the terminating `End` tag not included).
    pub events: u64,
    /// Bytes spent on events (header and `End` tag not included).
    pub event_bytes: u64,
    /// Total bytes written, header and `End` tag included.
    pub total_bytes: u64,
}

impl TraceStats {
    /// Mean encoded size of one event, the format's compactness metric.
    pub fn bytes_per_event(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.event_bytes as f64 / self.events as f64
        }
    }
}

/// An [`EventSink`] that writes the trace format.
///
/// Construct with [`TraceRecorder::new`], run the interpreter against it
/// (or compose it with other sinks via [`Tee`](algoprof_vm::Tee) /
/// [`Fanout`](algoprof_vm::Fanout)), then call [`TraceRecorder::finish`].
///
/// Untracked heap-mutation events are stored like tracked ones (the
/// shadow heap needs every mutation); the `tracked` flag itself is *not*
/// stored — replay re-derives it from the program's instrumentation
/// flags, exactly as the interpreter computed it. [`Event::Instruction`]
/// ticks are deliberately outside the format (they would dominate it
/// byte-wise while AlgoProf never consumes them).
#[derive(Debug)]
pub struct TraceRecorder<W: Write> {
    out: W,
    buf: Vec<u8>,
    last_obj: i64,
    last_arr: i64,
    /// Last switched-to thread id, for delta coding. A stream starts
    /// implicitly in thread 0.
    last_thread: i64,
    events: u64,
    event_bytes: u64,
    flushed_bytes: u64,
    io_err: Option<io::Error>,
}

impl<W: Write> TraceRecorder<W> {
    /// A recorder writing `header` and then the event stream to `out`.
    pub fn new(header: &TraceHeader, out: W) -> Self {
        let mut buf = Vec::with_capacity(FLUSH_AT + 1024);
        header.encode(&mut buf);
        TraceRecorder {
            out,
            buf,
            last_obj: -1,
            last_arr: -1,
            last_thread: 0,
            events: 0,
            event_bytes: 0,
            flushed_bytes: 0,
            io_err: None,
        }
    }

    /// Terminates the stream, drains all buffered bytes, and returns the
    /// recording stats.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error hit while draining, whether it
    /// occurred mid-recording or now.
    pub fn finish(mut self) -> io::Result<TraceStats> {
        self.buf.push(TAG_END);
        self.drain();
        if let Some(e) = self.io_err {
            return Err(e);
        }
        self.out.flush()?;
        Ok(TraceStats {
            events: self.events,
            event_bytes: self.event_bytes,
            total_bytes: self.flushed_bytes,
        })
    }

    fn drain(&mut self) {
        if self.io_err.is_none() {
            match self.out.write_all(&self.buf) {
                Ok(()) => self.flushed_bytes += self.buf.len() as u64,
                Err(e) => self.io_err = Some(e),
            }
        }
        self.buf.clear();
    }

    fn event_end(&mut self, start: usize) {
        self.events += 1;
        self.event_bytes += (self.buf.len() - start) as u64;
        if self.buf.len() >= FLUSH_AT {
            self.drain();
        }
    }

    fn put_obj(&mut self, o: ObjRef) {
        put_ileb(&mut self.buf, i64::from(o.0) - self.last_obj);
        self.last_obj = i64::from(o.0);
    }

    fn put_arr(&mut self, a: ArrRef) {
        put_ileb(&mut self.buf, i64::from(a.0) - self.last_arr);
        self.last_arr = i64::from(a.0);
    }

    fn put_value(&mut self, v: Value) {
        match v {
            Value::Null => self.buf.push(VK_NULL),
            Value::Bool(false) => self.buf.push(VK_FALSE),
            Value::Bool(true) => self.buf.push(VK_TRUE),
            Value::Int(i) => {
                self.buf.push(VK_INT);
                put_ileb(&mut self.buf, i);
            }
            Value::Obj(o) => {
                self.buf.push(VK_OBJ);
                self.put_obj(o);
            }
            Value::Arr(a) => {
                self.buf.push(VK_ARR);
                self.put_arr(a);
            }
        }
    }

    fn put_id(&mut self, tag: u8, id: u32) {
        let start = self.buf.len();
        self.buf.push(tag);
        put_uleb(&mut self.buf, u64::from(id));
        self.event_end(start);
    }

    fn put_plain(&mut self, tag: u8) {
        let start = self.buf.len();
        self.buf.push(tag);
        self.event_end(start);
    }
}

impl<W: Write> EventSink for TraceRecorder<W> {
    const READS_INSTRUCTIONS: bool = false;

    fn event(&mut self, ev: &Event, _cx: &EventCx<'_>) {
        match *ev {
            Event::MethodEntry { func } => self.put_id(TAG_METHOD_ENTRY, func.0),
            Event::MethodExit { func } => self.put_id(TAG_METHOD_EXIT, func.0),
            Event::LoopEntry { l } => self.put_id(TAG_LOOP_ENTRY, l.0),
            Event::LoopBackEdge { l } => self.put_id(TAG_LOOP_BACK_EDGE, l.0),
            Event::LoopExit { l } => self.put_id(TAG_LOOP_EXIT, l.0),
            Event::FieldRead { obj, field } => {
                let start = self.buf.len();
                self.buf.push(TAG_FIELD_GET);
                self.put_value(obj);
                put_uleb(&mut self.buf, u64::from(field.0));
                self.event_end(start);
            }
            Event::ArrayRead { arr } => {
                let start = self.buf.len();
                self.buf.push(TAG_ARRAY_LOAD);
                self.put_value(arr);
                self.event_end(start);
            }
            Event::InputRead => self.put_plain(TAG_INPUT_READ),
            Event::OutputWrite => self.put_plain(TAG_OUTPUT_WRITE),
            Event::ObjectAlloc { obj, class, .. } => {
                // The fresh ref is implicit in allocation order; only the
                // class is stored. Still sync the delta base so follow-up
                // writes to the new object encode as delta 0.
                self.put_id(TAG_OBJECT_ALLOCATED, class.0);
                self.last_obj = i64::from(obj.0);
            }
            Event::ArrayAlloc { arr, elem, len } => {
                let start = self.buf.len();
                self.buf.push(TAG_ARRAY_ALLOCATED);
                self.buf.push(match elem {
                    algoprof_vm::ElemKind::Int => 0,
                    algoprof_vm::ElemKind::Bool => 1,
                    algoprof_vm::ElemKind::Ref => 2,
                });
                put_uleb(&mut self.buf, len as u64);
                self.event_end(start);
                self.last_arr = i64::from(arr.0);
            }
            Event::FieldWrite {
                obj, field, value, ..
            } => {
                let start = self.buf.len();
                self.buf.push(TAG_FIELD_WRITTEN);
                self.put_obj(obj);
                put_uleb(&mut self.buf, u64::from(field.0));
                self.put_value(value);
                self.event_end(start);
            }
            Event::ArrayWrite {
                arr, index, value, ..
            } => {
                let start = self.buf.len();
                self.buf.push(TAG_ARRAY_WRITTEN);
                self.put_arr(arr);
                put_uleb(&mut self.buf, index as u64);
                self.put_value(value);
                self.event_end(start);
            }
            Event::ThreadSpawn { thread, func } => {
                let start = self.buf.len();
                self.buf.push(TAG_THREAD_SPAWN);
                put_uleb(&mut self.buf, u64::from(thread.0));
                put_uleb(&mut self.buf, u64::from(func.0));
                self.event_end(start);
            }
            Event::ThreadSwitch { thread } => {
                let start = self.buf.len();
                self.buf.push(TAG_THREAD_SWITCH);
                put_ileb(&mut self.buf, i64::from(thread.0) - self.last_thread);
                self.last_thread = i64::from(thread.0);
                self.event_end(start);
            }
            Event::ThreadEnd { thread } => self.put_id(TAG_THREAD_END, thread.0),
            Event::LockAcquire { obj, contended } => {
                let start = self.buf.len();
                self.buf.push(TAG_LOCK_ACQ);
                self.put_value(obj);
                self.buf.push(contended as u8);
                self.event_end(start);
            }
            Event::LockRelease { obj } => {
                let start = self.buf.len();
                self.buf.push(TAG_LOCK_REL);
                self.put_value(obj);
                self.event_end(start);
            }
            Event::LockWait { obj } => {
                let start = self.buf.len();
                self.buf.push(TAG_LOCK_WAIT);
                self.put_value(obj);
                self.event_end(start);
            }
            Event::Instruction { .. } => {}
        }
    }
}

//! The `algoprof-trace` binary format: magic, header, and event tags.
//!
//! The full specification lives in `docs/TRACE.md`; this module is the
//! single source of truth for the constants it describes. A trace is:
//!
//! ```text
//! magic "APTR" | version u16 LE | instrumentation (6 bytes)
//! | source length uleb | source utf-8 | input count uleb | inputs ileb*
//! | events* | End tag (0x00)
//! ```
//!
//! The header embeds everything needed to re-derive the instrumented
//! [`CompiledProgram`](algoprof_vm::CompiledProgram) — guest source,
//! instrumentation options, and external input values — so a trace file
//! is self-contained: `analyze` recompiles deterministically and replays
//! without consulting the original `.jay` file.

use std::fmt;

use algoprof_vm::{
    AllocInstrumentation, FieldInstrumentation, InstrumentOptions, MethodInstrumentation,
};

use crate::wire::{put_ileb, put_uleb, Cursor};

/// The four magic bytes opening every trace.
pub const MAGIC: [u8; 4] = *b"APTR";

/// Current format version. Writers always emit this version; readers
/// accept every version in `MIN_VERSION..=VERSION` (see `docs/TRACE.md`
/// for the compatibility rules). Version 2 added thread identity: the
/// thread/lock event tags `0x0e..=0x13`. A v1 trace simply never
/// contains them, so its whole stream implicitly belongs to thread 0.
pub const VERSION: u16 = 2;

/// Oldest version this reader still decodes.
pub const MIN_VERSION: u16 = 1;

/// Why a trace could not be decoded.
///
/// Deliberately `Clone + PartialEq + Eq` (and thus free of
/// [`std::io::Error`]) so it can ride inside `algoprof`'s `ProfileError`
/// unchanged; I/O failures belong to the recorder's `finish`, not to
/// decoding, which operates on an in-memory slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The input does not begin with [`MAGIC`].
    BadMagic,
    /// The trace was written by an incompatible format version.
    UnsupportedVersion(u16),
    /// The input ended mid-header or mid-event (no `End` tag seen).
    Truncated,
    /// The input is structurally invalid (bad tag, id out of range, …).
    Corrupt(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not an algoprof trace (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace version {v} (reader supports {MIN_VERSION}..={VERSION})"
                )
            }
            TraceError::Truncated => write!(f, "trace is truncated"),
            TraceError::Corrupt(why) => write!(f, "trace is corrupt: {why}"),
        }
    }
}

impl std::error::Error for TraceError {}

// ------------------------------------------------------------ event tags

/// Terminates the event stream; its absence means truncation.
pub const TAG_END: u8 = 0x00;
/// `on_method_entry(func)`.
pub const TAG_METHOD_ENTRY: u8 = 0x01;
/// `on_method_exit(func)`.
pub const TAG_METHOD_EXIT: u8 = 0x02;
/// `on_loop_entry(loop)`.
pub const TAG_LOOP_ENTRY: u8 = 0x03;
/// `on_loop_back_edge(loop)`.
pub const TAG_LOOP_BACK_EDGE: u8 = 0x04;
/// `on_loop_exit(loop)`.
pub const TAG_LOOP_EXIT: u8 = 0x05;
/// `on_field_get(obj, field)`.
pub const TAG_FIELD_GET: u8 = 0x06;
/// `on_array_load(arr)`.
pub const TAG_ARRAY_LOAD: u8 = 0x07;
/// `on_input_read()`.
pub const TAG_INPUT_READ: u8 = 0x08;
/// `on_output_write()`.
pub const TAG_OUTPUT_WRITE: u8 = 0x09;
/// Heap mutation: an object of some class was allocated. The new
/// [`ObjRef`](algoprof_vm::ObjRef) is implicit (dense allocation order).
pub const TAG_OBJECT_ALLOCATED: u8 = 0x0a;
/// Heap mutation: an array was allocated (element kind + length).
pub const TAG_ARRAY_ALLOCATED: u8 = 0x0b;
/// Heap mutation: a field was written (tracked or not).
pub const TAG_FIELD_WRITTEN: u8 = 0x0c;
/// Heap mutation: an array element was stored (tracked or not).
pub const TAG_ARRAY_WRITTEN: u8 = 0x0d;
/// `ThreadSwitch { thread }`: delta to the last switched-to thread id as
/// ileb. Introduced in version 2.
pub const TAG_THREAD_SWITCH: u8 = 0x0e;
/// `ThreadSpawn { thread, func }`: new thread id + entry function, both
/// uleb. Introduced in version 2.
pub const TAG_THREAD_SPAWN: u8 = 0x0f;
/// `ThreadEnd { thread }`: finished thread id as uleb. Introduced in
/// version 2.
pub const TAG_THREAD_END: u8 = 0x10;
/// `LockAcquire { obj, contended }`: locked value + contended byte.
/// Introduced in version 2.
pub const TAG_LOCK_ACQ: u8 = 0x11;
/// `LockRelease { obj }`: unlocked value. Introduced in version 2.
pub const TAG_LOCK_REL: u8 = 0x12;
/// `LockWait { obj }`: the blocked thread's contended value. Introduced
/// in version 2.
pub const TAG_LOCK_WAIT: u8 = 0x13;

// -------------------------------------------------------- value encoding

/// `Value::Null`.
pub const VK_NULL: u8 = 0;
/// `Value::Bool(false)`.
pub const VK_FALSE: u8 = 1;
/// `Value::Bool(true)`.
pub const VK_TRUE: u8 = 2;
/// `Value::Int(_)`, followed by the payload as ileb.
pub const VK_INT: u8 = 3;
/// `Value::Obj(_)`, followed by the delta to the last object ref as ileb.
pub const VK_OBJ: u8 = 4;
/// `Value::Arr(_)`, followed by the delta to the last array ref as ileb.
pub const VK_ARR: u8 = 5;

/// The delta-coding registers both ends of the format keep: the last
/// object, array and thread id coded. Refs are stored relative to them,
/// so the recorder and the replayer must start from the same state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Deltas {
    pub(crate) obj: i64,
    pub(crate) arr: i64,
    pub(crate) thread: i64,
}

impl Deltas {
    /// Every stream's starting state: no object or array coded yet, and
    /// the implicit thread 0.
    pub(crate) const START: Deltas = Deltas {
        obj: -1,
        arr: -1,
        thread: 0,
    };
}

// --------------------------------------------------------------- header

/// The decoded trace header: everything needed to rebuild the program a
/// trace was recorded against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Format version the trace was written with.
    pub version: u16,
    /// Instrumentation options the guest was compiled with.
    pub instrument: InstrumentOptions,
    /// Guest source text.
    pub source: String,
    /// External input values fed to `readInput()`.
    pub input: Vec<i64>,
}

impl TraceHeader {
    /// A version-[`VERSION`] header for `source` under `instrument` with
    /// guest `input`.
    pub fn new(source: &str, instrument: &InstrumentOptions, input: &[i64]) -> Self {
        TraceHeader {
            version: VERSION,
            instrument: *instrument,
            source: source.to_string(),
            input: input.to_vec(),
        }
    }

    /// Appends the encoded header to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.push(self.instrument.loops as u8);
        out.push(match self.instrument.methods {
            MethodInstrumentation::RecursionHeaders => 0,
            MethodInstrumentation::All => 1,
            MethodInstrumentation::None => 2,
        });
        out.push(match self.instrument.fields {
            FieldInstrumentation::RecursiveOnly => 0,
            FieldInstrumentation::AllRefFields => 1,
            FieldInstrumentation::None => 2,
        });
        out.push(self.instrument.arrays as u8);
        out.push(match self.instrument.allocs {
            AllocInstrumentation::RecursiveClasses => 0,
            AllocInstrumentation::All => 1,
            AllocInstrumentation::None => 2,
        });
        out.push(self.instrument.io as u8);
        put_uleb(out, self.source.len() as u64);
        out.extend_from_slice(self.source.as_bytes());
        put_uleb(out, self.input.len() as u64);
        for &v in &self.input {
            put_ileb(out, v);
        }
    }

    /// Decodes a header from the front of `bytes`, returning it together
    /// with the offset where the event stream begins.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] when the magic or version is wrong, the
    /// input ends early, or an enum byte is out of range.
    pub fn decode(bytes: &[u8]) -> Result<(TraceHeader, usize), TraceError> {
        let mut c = Cursor::new(bytes);
        if c.take(4)? != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = c.u16_le()?;
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let loops = decode_bool(c.u8()?, "loops flag")?;
        let methods = match c.u8()? {
            0 => MethodInstrumentation::RecursionHeaders,
            1 => MethodInstrumentation::All,
            2 => MethodInstrumentation::None,
            b => return Err(TraceError::Corrupt(format!("method instrumentation {b}"))),
        };
        let fields = match c.u8()? {
            0 => FieldInstrumentation::RecursiveOnly,
            1 => FieldInstrumentation::AllRefFields,
            2 => FieldInstrumentation::None,
            b => return Err(TraceError::Corrupt(format!("field instrumentation {b}"))),
        };
        let arrays = decode_bool(c.u8()?, "arrays flag")?;
        let allocs = match c.u8()? {
            0 => AllocInstrumentation::RecursiveClasses,
            1 => AllocInstrumentation::All,
            2 => AllocInstrumentation::None,
            b => return Err(TraceError::Corrupt(format!("alloc instrumentation {b}"))),
        };
        let io = decode_bool(c.u8()?, "io flag")?;
        let src_len = c.uleb()? as usize;
        let source = String::from_utf8(c.take(src_len)?.to_vec())
            .map_err(|_| TraceError::Corrupt("source is not UTF-8".into()))?;
        let n_input = c.uleb()? as usize;
        let mut input = Vec::with_capacity(n_input.min(1 << 16));
        for _ in 0..n_input {
            input.push(c.ileb()?);
        }
        Ok((
            TraceHeader {
                version,
                instrument: InstrumentOptions {
                    loops,
                    methods,
                    fields,
                    arrays,
                    allocs,
                    io,
                },
                source,
                input,
            },
            c.pos(),
        ))
    }
}

fn decode_bool(b: u8, what: &str) -> Result<bool, TraceError> {
    match b {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(TraceError::Corrupt(format!("{what} byte {b}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> TraceHeader {
        TraceHeader::new(
            "class Main { static int main() { return 0; } }",
            &InstrumentOptions {
                loops: true,
                methods: MethodInstrumentation::All,
                fields: FieldInstrumentation::AllRefFields,
                arrays: false,
                allocs: AllocInstrumentation::None,
                io: true,
            },
            &[3, -7, 0, i64::MAX],
        )
    }

    #[test]
    fn header_roundtrips() {
        let h = sample_header();
        let mut buf = Vec::new();
        h.encode(&mut buf);
        let (back, off) = TraceHeader::decode(&buf).expect("decodes");
        assert_eq!(back, h);
        assert_eq!(off, buf.len());
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert_eq!(TraceHeader::decode(b"NOPE....."), Err(TraceError::BadMagic));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut buf = Vec::new();
        sample_header().encode(&mut buf);
        buf[4] = 0x63; // version 99
        buf[5] = 0;
        assert_eq!(
            TraceHeader::decode(&buf),
            Err(TraceError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn truncated_header_is_reported() {
        let mut buf = Vec::new();
        sample_header().encode(&mut buf);
        for cut in [0, 3, 5, 8, buf.len() - 1] {
            assert_eq!(
                TraceHeader::decode(&buf[..cut]),
                Err(TraceError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn errors_display() {
        assert!(TraceError::BadMagic.to_string().contains("magic"));
        assert!(TraceError::UnsupportedVersion(9).to_string().contains('9'));
        assert!(TraceError::Corrupt("x".into()).to_string().contains('x'));
    }
}

//! The **jay** guest language and virtual machine — the execution substrate
//! for the AlgoProf algorithmic-profiler reproduction.
//!
//! The PLDI'12 paper instruments *Java bytecode*. Reproducing that in Rust
//! directly would require proc-macro or LLVM-level instrumentation of Rust
//! itself, which is awkward and non-portable. Instead this crate provides a
//! small Java-like language (classes, single inheritance, virtual dispatch,
//! type-erased generics, arrays, exceptions) compiled to a stack bytecode and
//! executed by an interpreter that emits exactly the instrumentation events
//! AlgoProf consumes:
//!
//! * loop entry / back edge / exit (natural loops found via dominator
//!   analysis on the bytecode CFG),
//! * method entry / exit (restricted to potential recursion headers found
//!   via call-graph SCC analysis),
//! * reference-field get/put restricted to fields participating in a
//!   recursive type cycle,
//! * array load/store, object allocation of recursive classes, and
//!   external input/output operations.
//!
//! # Example
//!
//! ```
//! use algoprof_vm::{compile, InstrumentOptions, Interp, NoopProfiler};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = r#"
//!     class Main {
//!         static int main() {
//!             int s = 0;
//!             for (int i = 0; i < 10; i = i + 1) { s = s + i; }
//!             return s;
//!         }
//!     }
//! "#;
//! let program = compile(src)?;
//! let program = program.instrument(&InstrumentOptions::default());
//! let mut interp = Interp::new(&program);
//! let result = interp.run(&mut NoopProfiler)?;
//! assert_eq!(result.return_value.as_int(), Some(45));
//! # Ok(())
//! # }
//! ```

pub mod ast;
pub mod bytecode;
pub mod callgraph;
pub mod cfg;
pub mod compile;
pub mod disasm;
pub mod dominators;
pub mod error;
pub mod event;
pub mod fuse;
pub mod heap;
pub mod hir;
pub mod indexflow;
pub mod instrument;
pub mod interp;
pub mod lexer;
pub mod loops;
pub mod opstats;
pub mod opt;
pub mod parser;
pub mod pretty;
pub mod rectypes;
pub mod typeck;
pub mod verify;

pub use bytecode::{
    ClassId, CmpKind, CompiledProgram, ElemKind, ErasedType, FieldId, FuncId, Function, Instr,
    LoopId, Opcode,
};
pub use compile::{compile, compile_with_bodies, compile_with_options, CompileOptions};
pub use disasm::{disassemble, disassemble_cfg, disassemble_function};
pub use error::{CompileError, RuntimeError};
pub use event::{Event, EventCx, EventSink, Fanout, NoopSink, Tee, ThreadId};
pub use heap::{ArrRef, ArrayWrite, Heap, ObjRef, Value};
pub use instrument::{
    AllocInstrumentation, FieldInstrumentation, InstrumentOptions, MethodInstrumentation,
};
// `NoopProfiler` is the historical name for "no profiling"; keep it as an
// alias so sinks-by-value call sites read the same as before the
// `ProfilerHooks` -> `EventSink` migration.
pub use event::NoopSink as NoopProfiler;
pub use interp::{default_field_value, Interp, RunResult};
pub use opstats::OpStats;
pub use verify::{verify, VerifyError};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_smoke() {
        let src = r#"
            class Main {
                static int main() {
                    return 2 + 3 * 4;
                }
            }
        "#;
        let program = compile(src).expect("compiles");
        let mut interp = Interp::new(&program);
        let result = interp.run(&mut NoopProfiler).expect("runs");
        assert_eq!(result.return_value.as_int(), Some(14));
    }
}

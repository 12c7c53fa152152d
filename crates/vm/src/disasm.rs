//! Bytecode disassembler: human-readable dumps of compiled programs,
//! with symbolic names for classes, fields, functions, and loops, plus a
//! Graphviz DOT rendering of every function's control-flow graph with
//! dominator-derived back edges annotated.

use std::fmt::Write as _;

use crate::bytecode::{CompiledProgram, FieldId, FuncId, Instr};
use crate::cfg::{Cfg, EdgeKind};
use crate::dominators::Dominators;
use crate::hir::CatchKind;

/// Disassembles one function.
pub fn disassemble_function(program: &CompiledProgram, func: FuncId) -> String {
    let f = program.func(func);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fn {} (params={}, locals={}{}{})",
        f.name,
        f.n_params,
        f.n_locals,
        if f.is_static { ", static" } else { "" },
        if f.track_entry_exit { ", tracked" } else { "" },
    );
    for (pc, instr) in f.code.iter().enumerate() {
        let _ = writeln!(
            out,
            "  {pc:4}  {:<40} ; line {}",
            render_instr(program, instr),
            f.lines[pc]
        );
    }
    for h in &f.handlers {
        let _ = writeln!(
            out,
            "  handler {}..{} -> {} catch {} slot {} (loops {})",
            h.start,
            h.end,
            h.target,
            render_catch(program, h.catch),
            h.catch_slot,
            h.active_loops
        );
    }
    out
}

/// Disassembles the whole program: classes, fields, loops, functions.
pub fn disassemble(program: &CompiledProgram) -> String {
    let mut out = String::new();
    for (i, class) in program.classes.iter().enumerate() {
        let _ = writeln!(
            out,
            "class {} (#{}){}{}",
            class.name,
            i,
            match class.superclass {
                Some(s) => format!(" extends {}", program.class(s).name),
                None => String::new(),
            },
            if class.is_recursive {
                " [recursive]"
            } else {
                ""
            },
        );
        for &fid in &class.field_layout {
            let field = program.field(fid);
            let _ = writeln!(
                out,
                "  .field {} slot {}{}",
                field.name,
                field.slot,
                if field.is_recursive {
                    " [recursive link]"
                } else {
                    ""
                },
            );
        }
    }
    for l in &program.loops {
        let _ = writeln!(out, "loop {} = {}", l.id, l.name);
    }
    for i in 0..program.functions.len() {
        out.push('\n');
        out.push_str(&disassemble_function(program, FuncId(i as u32)));
    }
    out
}

/// Renders the whole program's control-flow graphs as one Graphviz DOT
/// document: a `digraph` with one cluster per function.
///
/// Edges are annotated by kind: natural-loop **back edges** (target
/// dominates source, the same criterion the loop instrumentation uses)
/// are bold with a `back` label, exceptional edges into handlers are
/// dashed with an `exc` label. Pipe into `dot -Tsvg` to render.
pub fn disassemble_cfg(program: &CompiledProgram) -> String {
    let mut out = String::new();
    out.push_str("digraph cfg {\n");
    out.push_str("  node [shape=box, fontname=\"monospace\", fontsize=10];\n");
    for i in 0..program.functions.len() {
        cfg_cluster(program, FuncId(i as u32), &mut out);
    }
    out.push_str("}\n");
    out
}

fn cfg_cluster(program: &CompiledProgram, func: FuncId, out: &mut String) {
    let f = program.func(func);
    let cfg = Cfg::build(f);
    let dom = Dominators::compute(&cfg);
    let fi = func.index();

    let _ = writeln!(out, "  subgraph cluster_{fi} {{");
    let _ = writeln!(out, "    label=\"{}\";", dot_escape(&f.name));
    for (b, block) in cfg.blocks.iter().enumerate() {
        let mut label = format!("b{b} [{}..{}]\\l", block.start, block.end);
        for pc in block.start..block.end {
            let _ = write!(
                label,
                "{pc}: {}\\l",
                dot_escape(&render_instr(program, &f.code[pc]))
            );
        }
        let _ = writeln!(out, "    f{fi}_b{b} [label=\"{label}\"];");
    }
    for (b, block) in cfg.blocks.iter().enumerate() {
        for &(t, kind) in &block.succs {
            let attrs = if kind == EdgeKind::Exceptional {
                " [style=dashed, label=\"exc\"]"
            } else if dom.dominates(t, b) {
                // A natural-loop back edge: the jump target dominates the
                // jumping block.
                " [style=bold, label=\"back\"]"
            } else {
                ""
            };
            let _ = writeln!(out, "    f{fi}_b{b} -> f{fi}_b{t}{attrs};");
        }
    }
    out.push_str("  }\n");
}

fn dot_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\l"),
            c => out.push(c),
        }
    }
    out
}

fn render_catch(program: &CompiledProgram, kind: CatchKind) -> String {
    match kind {
        CatchKind::Int => "int".to_owned(),
        CatchKind::Bool => "boolean".to_owned(),
        CatchKind::AnyRef => "Object".to_owned(),
        CatchKind::Array => "array".to_owned(),
        CatchKind::Class(c) => program.class(c).name.clone(),
    }
}

/// Renders one instruction: a base instruction as its opcode name and
/// symbolic operands, a superinstruction as its mnemonic followed by its
/// constituents, e.g. `load2 load 0; load 1`.
fn render_instr(program: &CompiledProgram, instr: &Instr) -> String {
    let name = instr.mnemonic();
    let operand = match *instr {
        Instr::ConstInt(v) => v.to_string(),
        Instr::ConstBool(v) => v.to_string(),
        Instr::LoadLocal(s) | Instr::StoreLocal(s) => s.to_string(),
        Instr::Jump(t) | Instr::JumpIfFalse(t) | Instr::JumpIfTrue(t) => t.to_string(),
        Instr::New(c) => program.class(c).name.clone(),
        Instr::GetField(f) | Instr::PutField(f) => qualified_field(program, f),
        Instr::NewArray(k) => format!("{k:?}"),
        Instr::CallStatic(m) | Instr::CallVirtual(m) | Instr::CallDirect(m) | Instr::Spawn(m) => {
            program.func(m).name.clone()
        }
        Instr::CheckCast(k) | Instr::InstanceOfOp(k) => render_catch(program, k),
        Instr::ProfLoopEntry(l) | Instr::ProfLoopBack(l) | Instr::ProfLoopExit(l) => l.to_string(),
        _ if instr.opcode().is_none() => instr
            .expand()
            .iter()
            .map(|c| render_instr(program, c))
            .collect::<Vec<_>>()
            .join("; "),
        _ => return name.to_owned(),
    };
    format!("{name} {operand}")
}

fn qualified_field(program: &CompiledProgram, f: FieldId) -> String {
    let field = program.field(f);
    format!("{}.{}", program.class(field.class).name, field.name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::instrument::InstrumentOptions;

    #[test]
    fn disassembly_names_symbols() {
        let p = compile(
            r#"class Main {
                static int main() {
                    Node n = new Node(3);
                    return n.v;
                }
            }
            class Node { Node next; int v; Node(int v) { this.v = v; } }"#,
        )
        .expect("compiles")
        .instrument(&InstrumentOptions::default());
        let text = disassemble(&p);
        assert!(text.contains("class Node"));
        assert!(text.contains("[recursive]"));
        assert!(text.contains(".field next"));
        assert!(text.contains("new Node"));
        assert!(text.contains("getfield Node.v"));
        assert!(text.contains("fn Main.main"));
    }

    #[test]
    fn instrumented_loops_appear() {
        let p = compile(
            "class Main { static int main() { int s = 0; for (int i = 0; i < 4; i = i + 1) { s = s + 1; } return s; } }",
        )
        .expect("compiles")
        .instrument(&InstrumentOptions::default());
        let text = disassemble(&p);
        assert!(text.contains("prof_loop_entry"));
        assert!(text.contains("prof_loop_back"));
        assert!(text.contains("prof_loop_exit"));
        assert!(text.contains("loop LoopId#0"));
    }

    #[test]
    fn cfg_dot_annotates_back_and_exceptional_edges() {
        let p = compile(
            r#"class Main {
                static int main() {
                    int s = 0;
                    try {
                        for (int i = 0; i < 4; i = i + 1) { s = s + i; }
                    } catch (int e) { return e; }
                    return s;
                }
            }"#,
        )
        .expect("compiles");
        let dot = disassemble_cfg(&p);
        assert!(dot.starts_with("digraph cfg {"));
        assert!(dot.contains("label=\"Main.main\""));
        assert!(dot.contains("label=\"back\""), "{dot}");
        assert!(dot.contains("label=\"exc\""), "{dot}");
        // Balanced braces: one digraph plus one cluster per function.
        let open = dot.matches('{').count();
        let close = dot.matches('}').count();
        assert_eq!(open, close);
        assert_eq!(open, 1 + p.functions.len());
    }

    #[test]
    fn straight_line_cfg_has_no_back_edges() {
        let p = compile("class Main { static int main() { return 1 + 2; } }").expect("compiles");
        let dot = disassemble_cfg(&p);
        assert!(!dot.contains("label=\"back\""));
        assert!(dot.contains("f0_b0"));
    }

    #[test]
    fn every_instruction_renders_nonempty() {
        let p = compile(
            r#"class Main {
                static int main() {
                    try {
                        int[] a = new int[2];
                        a[0] = readInput();
                        print(a[0]);
                        Object o = new Main();
                        if (o instanceof Main) { throw a.length; }
                    } catch (int e) { return e; }
                    return 0;
                }
            }"#,
        )
        .expect("compiles");
        let text = disassemble(&p);
        for line in text.lines() {
            assert!(!line.trim().is_empty() || line.is_empty());
        }
        assert!(text.contains("checkcast") || text.contains("instanceof"));
        assert!(text.contains("handler"));
    }
}

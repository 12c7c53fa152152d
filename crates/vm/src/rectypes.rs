//! Recursive-data-type detection (the paper's reference \[22\]: "The
//! essence of structural models").
//!
//! AlgoProf limits reference-field instrumentation to fields
//! *participating in a recursive type cycle* — `Node.next` and
//! `Node.prev`, but not `Node.payload`. We build a type reference graph
//! whose nodes are classes and whose edges are
//!
//! * `C → D` when any field in `C`'s layout (own or inherited) refers to
//!   class `D`, looking through array types (`Node[]` refers to `Node`),
//!   and
//! * `S → C` for every subclass `C` of `S` (a slot declared `S` may hold
//!   a `C`, so recursion can flow through subtyping).
//!
//! Classes in a non-trivial SCC (or with a self edge) are *recursive
//! classes*; a field is a *recursive field* when some class carrying it
//! lies in the same cycle as the field's referent class.

use crate::bytecode::CompiledProgram;
use crate::callgraph::tarjan_scc;

/// Result of the recursive-type analysis.
#[derive(Debug, Clone)]
pub struct RecursiveTypes {
    /// Per class: whether it participates in a recursive type cycle.
    pub recursive_class: Vec<bool>,
    /// Per field: whether it is a link of a recursive structure.
    pub recursive_field: Vec<bool>,
}

impl RecursiveTypes {
    /// Runs the analysis over `program`'s class and field tables.
    pub fn analyze(program: &CompiledProgram) -> RecursiveTypes {
        let n = program.classes.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut has_self_edge = vec![false; n];

        let add_edge =
            |adj: &mut Vec<Vec<usize>>, has_self_edge: &mut Vec<bool>, from: usize, to: usize| {
                if from == to {
                    has_self_edge[from] = true;
                }
                if !adj[from].contains(&to) {
                    adj[from].push(to);
                }
            };

        for (c, class) in program.classes.iter().enumerate() {
            // Field edges from the full layout (inherited fields included,
            // so recursion introduced by inheritance is seen).
            for &fid in &class.field_layout {
                if let Some(d) = program.field(fid).ty.referent_class() {
                    add_edge(&mut adj, &mut has_self_edge, c, d.index());
                }
            }
            // Subtype edge: super → sub.
            if let Some(s) = class.superclass {
                add_edge(&mut adj, &mut has_self_edge, s.index(), c);
            }
        }

        let scc = tarjan_scc(n, &adj);
        let mut comp_size = vec![0usize; n];
        for &comp in &scc {
            comp_size[comp] += 1;
        }
        let in_cycle: Vec<bool> = (0..n)
            .map(|c| comp_size[scc[c]] > 1 || has_self_edge[c])
            .collect();

        // A field is recursive when some class whose layout carries it is
        // in the same cycle as the field's referent.
        let mut recursive_field = vec![false; program.fields.len()];
        for (c, class) in program.classes.iter().enumerate() {
            if !in_cycle[c] {
                continue;
            }
            for &fid in &class.field_layout {
                if let Some(d) = program.field(fid).ty.referent_class() {
                    if scc[c] == scc[d.index()] {
                        recursive_field[fid.index()] = true;
                    }
                }
            }
        }

        RecursiveTypes {
            recursive_class: in_cycle,
            recursive_field,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;

    fn analyze(src: &str) -> (CompiledProgram, RecursiveTypes) {
        let p = compile(src).expect("compiles");
        let r = RecursiveTypes::analyze(&p);
        (p, r)
    }

    fn class_rec(p: &CompiledProgram, r: &RecursiveTypes, name: &str) -> bool {
        r.recursive_class[p.class_by_name(name).expect("class exists").index()]
    }

    fn field_rec(p: &CompiledProgram, r: &RecursiveTypes, class: &str, field: &str) -> bool {
        let cid = p.class_by_name(class).expect("class exists");
        let fid = *p
            .class(cid)
            .field_layout
            .iter()
            .find(|&&f| p.field(f).name == field)
            .expect("field exists");
        r.recursive_field[fid.index()]
    }

    const MAIN: &str = "class Main { static int main() { return 0; } }";

    #[test]
    fn linked_list_node_is_recursive_payload_is_not() {
        let (p, r) = analyze(&format!(
            "{MAIN}
             class Node {{ Node next; Node prev; Payload payload; int value; }}
             class Payload {{ int data; }}"
        ));
        assert!(class_rec(&p, &r, "Node"));
        assert!(!class_rec(&p, &r, "Payload"));
        assert!(field_rec(&p, &r, "Node", "next"));
        assert!(field_rec(&p, &r, "Node", "prev"));
        assert!(!field_rec(&p, &r, "Node", "payload"));
    }

    #[test]
    fn graph_via_vertex_edge_classes() {
        let (p, r) = analyze(&format!(
            "{MAIN}
             class Vertex {{ Edge[] out; int id; }}
             class Edge {{ Vertex from; Vertex to; }}"
        ));
        assert!(class_rec(&p, &r, "Vertex"));
        assert!(class_rec(&p, &r, "Edge"));
        assert!(field_rec(&p, &r, "Vertex", "out"));
        assert!(field_rec(&p, &r, "Edge", "from"));
    }

    #[test]
    fn nary_tree_through_array_field() {
        let (p, r) = analyze(&format!(
            "{MAIN}
             class TreeNode {{ TreeNode[] children; int v; }}"
        ));
        assert!(class_rec(&p, &r, "TreeNode"));
        assert!(field_rec(&p, &r, "TreeNode", "children"));
    }

    #[test]
    fn recursion_through_inheritance() {
        // A declares a field of subtype B; B *inherits* it, giving B a
        // self edge (b.f.f...). A itself only heads the structure and is
        // not part of the cycle.
        let (p, r) = analyze(&format!(
            "{MAIN}
             class A {{ B f; }}
             class B extends A {{ }}"
        ));
        assert!(!class_rec(&p, &r, "A"));
        assert!(class_rec(&p, &r, "B"));
        assert!(field_rec(&p, &r, "A", "f"));
    }

    #[test]
    fn plain_hierarchy_is_not_recursive() {
        let (p, r) = analyze(&format!(
            "{MAIN}
             class Payload {{ int x; }}
             class IntPayload extends Payload {{ int y; }}"
        ));
        assert!(!class_rec(&p, &r, "Payload"));
        assert!(!class_rec(&p, &r, "IntPayload"));
    }

    #[test]
    fn generic_node_recursive_after_erasure() {
        let (p, r) = analyze(&format!(
            "{MAIN}
             class GNode<T> {{ GNode<T> next; T value; }}"
        ));
        assert!(class_rec(&p, &r, "GNode"));
        assert!(field_rec(&p, &r, "GNode", "next"));
        assert!(!field_rec(&p, &r, "GNode", "value"));
    }

    #[test]
    fn subclass_of_recursive_node_is_recursive() {
        let (p, r) = analyze(&format!(
            "{MAIN}
             class Node {{ Node next; }}
             class SpecialNode extends Node {{ int tag; }}"
        ));
        assert!(class_rec(&p, &r, "Node"));
        assert!(class_rec(&p, &r, "SpecialNode"));
    }

    #[test]
    fn array_wrapper_class_not_recursive() {
        let (p, r) = analyze(&format!(
            "{MAIN}
             class ArrayList {{ Object[] array; int size; }}"
        ));
        assert!(!class_rec(&p, &r, "ArrayList"));
    }
}

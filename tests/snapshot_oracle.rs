//! Oracle for the full structure and array walks.
//!
//! `IncrementalMode::Differential` proves cached reuse against a
//! from-scratch walk, so nothing there can notice a wrong walk. This
//! suite checks the walk itself: on seeded random heaps (singly and
//! doubly linked lists, cycles, n-ary nodes holding `Tree[] children`,
//! nested reference arrays, and objects of non-recursive classes stored
//! in recursive slots), every snapshot must equal a naive reachability
//! computed here from the documented membership rules:
//!
//! * a structure walk follows only objects of recursive classes, only
//!   through recursive fields, plus every array such a field reaches
//!   and every element of reference arrays it reaches;
//! * `refs_traversed` counts the non-null elements of member reference
//!   arrays;
//! * an array walk recurses into nested arrays, and sizes by capacity
//!   and by distinct element keys.
//!
//! Heaps are built directly through the `Heap` API, so slots may hold
//! values their declared types would forbid (an `Item` in `Node.next`,
//! an `int[]` in `Tree.children`): the walk must follow the value, not
//! the type.
//!
//! The last tests cover reuse of a cached walk from a root other than
//! the one it was taken from. It is allowed only for a strongly
//! connected structure: a doubly linked list is re-measured from random
//! members under `IncrementalMode::Differential`, which checks every
//! reuse against a fresh walk, and each structure that is not strongly
//! connected must be walked again.

use std::collections::{BTreeMap, BTreeSet};

use algoprof::snapshot::{
    measure_structure, snapshot_array, snapshot_structure, SnapshotKind, SnapshotStats, VisitMarks,
};
use algoprof::{
    ArraySizeStrategy, ElemKey, EquivalenceCriterion, IncrementalMode, InputId, InputRegistry,
    Snapshot,
};
use algoprof_suite::testutil::TestRng;
use algoprof_vm::bytecode::ElemKind;
use algoprof_vm::{
    compile, ArrRef, ClassId, CompiledProgram, Heap, InstrumentOptions, ObjRef, Value,
};

/// `Node` and `Tree` are recursive classes (`Tree.grid` through a
/// two-dimensional array); `Item` is not, and neither are `Node.val`,
/// `Tree.tags` or `Tree.payload`.
const DECLS: &str = r#"
class Main { static int main() { return 0; } }
class Node { Node next; Node prev; int val; }
class Tree { Tree[] children; Tree[][] grid; int[] tags; Item payload; }
class Item { int v; }
"#;

/// The program (instrumented, so recursive classes and fields are
/// marked) and its three classes.
struct Decls {
    program: CompiledProgram,
    node: ClassId,
    tree: ClassId,
    item: ClassId,
}

impl Decls {
    fn new() -> Decls {
        let program = compile(DECLS)
            .expect("compiles")
            .instrument(&InstrumentOptions::default());
        let class = |name| program.class_by_name(name).expect("declared");
        let (node, tree, item) = (class("Node"), class("Tree"), class("Item"));
        let decls = Decls {
            node,
            tree,
            item,
            program,
        };
        assert!(decls.program.class(node).is_recursive);
        assert!(decls.program.class(tree).is_recursive);
        assert!(!decls.program.class(item).is_recursive);
        decls
    }

    /// The layout slot of field `name` in `class`.
    fn slot(&self, class: ClassId, name: &str) -> usize {
        self.program
            .class(class)
            .field_layout
            .iter()
            .position(|&f| self.program.field(f).name == name)
            .expect("field declared")
    }

    fn alloc(&self, heap: &mut Heap, class: ClassId) -> ObjRef {
        heap.alloc_object(class, self.program.class(class).field_layout.len())
    }
}

/// Reachability by the documented rules, with a `BTreeSet` and a DFS
/// stack: the structure snapshot taken from `start`.
fn oracle_structure(program: &CompiledProgram, heap: &Heap, start: ObjRef) -> Snapshot {
    let mut seen = BTreeSet::new();
    let mut classes: BTreeMap<ClassId, usize> = BTreeMap::new();
    let mut refs_traversed = 0;
    let mut stack = vec![Value::Obj(start)];
    while let Some(v) = stack.pop() {
        match v {
            Value::Obj(o) => {
                let class = heap.object(o).class;
                if !program.class(class).is_recursive || !seen.insert(ElemKey::Obj(o)) {
                    continue;
                }
                *classes.entry(class).or_default() += 1;
                for (slot, &fid) in program.class(class).field_layout.iter().enumerate() {
                    if program.field(fid).is_recursive {
                        stack.push(heap.field(o, slot));
                    }
                }
            }
            Value::Arr(a) => {
                if !seen.insert(ElemKey::Arr(a)) {
                    continue;
                }
                let arr = heap.array(a);
                if arr.elem == ElemKind::Ref {
                    refs_traversed += arr.elems.iter().filter(|e| **e != Value::Null).count();
                    stack.extend(arr.elems.iter().copied());
                }
            }
            Value::Int(_) | Value::Bool(_) | Value::Null => {}
        }
    }
    let size = classes.values().sum();
    Snapshot {
        keys: seen,
        kind: SnapshotKind::Structure { classes },
        size,
        unique_size: size,
        refs_traversed,
    }
}

/// The array snapshot taken from `root`: every array reachable through
/// nested array elements, their element values and object elements as
/// keys, capacity summed over all of them, and the distinct element
/// keys (nested arrays included) as the unique size.
fn oracle_array(heap: &Heap, root: ArrRef) -> Snapshot {
    let mut arrays = BTreeSet::new();
    let mut keys = BTreeSet::new();
    let mut unique = BTreeSet::new();
    let (mut capacity, mut refs_traversed) = (0, 0);
    let mut stack = vec![root];
    while let Some(a) = stack.pop() {
        if !arrays.insert(a) {
            continue;
        }
        keys.insert(ElemKey::Arr(a));
        let arr = heap.array(a);
        capacity += arr.elems.len();
        for &e in &arr.elems {
            let key = match e {
                Value::Int(v) => ElemKey::Int(v),
                Value::Bool(b) => ElemKey::Int(b as i64),
                Value::Obj(o) => ElemKey::Obj(o),
                Value::Arr(c) => {
                    stack.push(c);
                    ElemKey::Arr(c)
                }
                Value::Null => continue,
            };
            if e.is_ref() {
                refs_traversed += 1;
            }
            if !matches!(key, ElemKey::Arr(_)) {
                keys.insert(key);
            }
            unique.insert(key);
        }
    }
    Snapshot {
        keys,
        kind: SnapshotKind::Array {
            elem: heap.array(root).elem,
        },
        size: capacity,
        unique_size: unique.len(),
        refs_traversed,
    }
}

/// Checks every object and every array of `heap` as a walk root, both
/// through the one-shot entry points and through `measure_structure`
/// with marks shared across all walks (and across the differently sized
/// heaps of a test). Returns how many roots reached more than
/// themselves, so a test can insist its heaps are not trivial.
fn check_all_roots(program: &CompiledProgram, heap: &Heap, marks: &mut VisitMarks) -> usize {
    let mut nontrivial = 0;
    for i in 0..heap.object_count() {
        let o = ObjRef(i as u32);
        let want = oracle_structure(program, heap, o);
        assert_eq!(
            snapshot_structure(program, heap, o),
            want,
            "structure at {o:?}"
        );

        let mut stats = SnapshotStats::default();
        let m = measure_structure(program, heap, o, marks, &mut stats);
        assert_eq!(m.snapshot, want, "shared-marks structure at {o:?}");
        let arrays: Vec<ArrRef> = want
            .keys
            .iter()
            .filter_map(|k| match k {
                ElemKey::Arr(a) => Some(*a),
                _ => None,
            })
            .collect();
        let scanned: usize = arrays.iter().map(|&a| heap.array(a).elems.len()).sum();
        assert_eq!(
            stats,
            SnapshotStats {
                full_walks: 1,
                objects_traversed: want.size as u64,
                arrays_traversed: arrays.len() as u64,
                elements_scanned: scanned as u64,
                ..SnapshotStats::default()
            },
            "counters of the walk from {o:?}"
        );
        nontrivial += usize::from(want.keys.len() > 1);
    }
    for i in 0..heap.array_count() {
        let a = ArrRef(i as u32);
        let want = oracle_array(heap, a);
        assert_eq!(snapshot_array(heap, a), want, "array at {a:?}");
        nontrivial += usize::from(want.keys.len() > 1);
    }
    nontrivial
}

/// A random value for a recursive slot or a reference-array element:
/// mostly one of `targets`, sometimes null or an object or array of a
/// kind the declared type would not admit.
fn pick(rng: &mut TestRng, targets: &[Value], strays: &[Value]) -> Value {
    match rng.below(10) {
        0 => Value::Null,
        1 if !strays.is_empty() => *rng.pick(strays),
        _ => *rng.pick(targets),
    }
}

#[test]
fn linked_lists_singly_and_doubly() {
    let d = Decls::new();
    let (next, prev, val) = (
        d.slot(d.node, "next"),
        d.slot(d.node, "prev"),
        d.slot(d.node, "val"),
    );
    let mut marks = VisitMarks::default();
    for seed in 0..8 {
        let mut rng = TestRng::new(seed);
        let mut heap = Heap::new();
        for list in 0..4 {
            let doubly = list % 2 == 1;
            let len = rng.range(1, 40);
            let nodes: Vec<ObjRef> = (0..len).map(|_| d.alloc(&mut heap, d.node)).collect();
            for w in nodes.windows(2) {
                heap.set_field(w[0], next, Value::Obj(w[1]));
                if doubly {
                    heap.set_field(w[1], prev, Value::Obj(w[0]));
                }
            }
            for &n in &nodes {
                heap.set_field(n, val, Value::Int(rng.range_i64(0, 9)));
            }
        }
        assert!(check_all_roots(&d.program, &heap, &mut marks) > 0);
    }
}

#[test]
fn cycles_and_random_rewiring() {
    let d = Decls::new();
    let (next, prev) = (d.slot(d.node, "next"), d.slot(d.node, "prev"));
    let mut marks = VisitMarks::default();
    for seed in 0..8 {
        let mut rng = TestRng::new(100 + seed);
        let mut heap = Heap::new();
        // A ring, then random links among all nodes (self-loops and
        // shared tails included).
        let ring: Vec<ObjRef> = (0..rng.range(1, 30))
            .map(|_| d.alloc(&mut heap, d.node))
            .collect();
        for (i, &n) in ring.iter().enumerate() {
            heap.set_field(n, next, Value::Obj(ring[(i + 1) % ring.len()]));
        }
        let extra: Vec<ObjRef> = (0..rng.range(0, 30))
            .map(|_| d.alloc(&mut heap, d.node))
            .collect();
        let all: Vec<Value> = ring.iter().chain(&extra).map(|&o| Value::Obj(o)).collect();
        for _ in 0..rng.range(0, 60) {
            let Value::Obj(o) = *rng.pick(&all) else {
                unreachable!()
            };
            let slot = if rng.chance(1, 2) { next } else { prev };
            let target = pick(&mut rng, &all, &[]);
            heap.set_field(o, slot, target);
        }
        assert!(check_all_roots(&d.program, &heap, &mut marks) > 0);
    }
}

#[test]
fn nary_nodes_with_child_arrays() {
    let d = Decls::new();
    let (children, grid, tags) = (
        d.slot(d.tree, "children"),
        d.slot(d.tree, "grid"),
        d.slot(d.tree, "tags"),
    );
    let mut marks = VisitMarks::default();
    for seed in 0..8 {
        let mut rng = TestRng::new(200 + seed);
        let mut heap = Heap::new();
        let mut trees = vec![d.alloc(&mut heap, d.tree)];
        // Grow a tree breadth-first; every node gets a child array with
        // some null slots, and a few later links point back up.
        let mut next = 0;
        while next < trees.len() && trees.len() < 60 {
            let parent = trees[next];
            next += 1;
            let fan = rng.range(0, 5);
            let arr = heap.alloc_array(ElemKind::Ref, fan);
            heap.set_field(parent, children, Value::Arr(arr));
            for i in 0..fan {
                if rng.chance(1, 5) {
                    continue;
                }
                let kid = d.alloc(&mut heap, d.tree);
                heap.set_elem(arr, i, Value::Obj(kid));
                trees.push(kid);
            }
            let t = heap.alloc_array(ElemKind::Int, rng.range(0, 4));
            heap.set_field(parent, tags, Value::Arr(t));
        }
        let all: Vec<Value> = trees.iter().map(|&o| Value::Obj(o)).collect();
        for _ in 0..rng.range(0, 6) {
            // A back edge through a fresh one-row grid.
            let row = heap.alloc_array(ElemKind::Ref, 2);
            heap.set_elem(row, 0, *rng.pick(&all));
            let g = heap.alloc_array(ElemKind::Ref, 1);
            heap.set_elem(g, 0, Value::Arr(row));
            heap.set_field(*rng.pick(&trees), grid, Value::Arr(g));
        }
        assert!(check_all_roots(&d.program, &heap, &mut marks) > 0);
    }
}

#[test]
fn nested_reference_arrays() {
    let d = Decls::new();
    let children = d.slot(d.tree, "children");
    let mut marks = VisitMarks::default();
    for seed in 0..8 {
        let mut rng = TestRng::new(300 + seed);
        let mut heap = Heap::new();
        let trees: Vec<Value> = (0..rng.range(1, 12))
            .map(|_| Value::Obj(d.alloc(&mut heap, d.tree)))
            .collect();
        let mut arrays = Vec::new();
        for _ in 0..rng.range(1, 20) {
            let kind = match rng.below(4) {
                0 => ElemKind::Int,
                1 => ElemKind::Bool,
                _ => ElemKind::Ref,
            };
            let a = heap.alloc_array(kind, rng.range(0, 6));
            for i in 0..heap.array(a).elems.len() {
                match kind {
                    ElemKind::Int => heap.set_elem(a, i, Value::Int(rng.range_i64(0, 5))),
                    ElemKind::Bool => heap.set_elem(a, i, Value::Bool(rng.chance(1, 2))),
                    ElemKind::Ref => {}
                }
            }
            arrays.push(Value::Arr(a));
        }
        // Fill reference arrays with trees and with other arrays
        // (themselves included), then hang arrays off the trees.
        for &v in &arrays {
            let Value::Arr(a) = v else { unreachable!() };
            if heap.array(a).elem != ElemKind::Ref {
                continue;
            }
            for i in 0..heap.array(a).elems.len() {
                let e = if rng.chance(1, 2) {
                    pick(&mut rng, &arrays, &[])
                } else {
                    pick(&mut rng, &trees, &[])
                };
                heap.set_elem(a, i, e);
            }
        }
        for &t in &trees {
            let Value::Obj(o) = t else { unreachable!() };
            let a = pick(&mut rng, &arrays, &[]);
            heap.set_field(o, children, a);
        }
        assert!(check_all_roots(&d.program, &heap, &mut marks) > 0);
    }
}

#[test]
fn non_recursive_objects_are_skipped_but_counted_as_refs() {
    let d = Decls::new();
    let (next, payload, children) = (
        d.slot(d.node, "next"),
        d.slot(d.tree, "payload"),
        d.slot(d.tree, "children"),
    );
    let mut marks = VisitMarks::default();
    for seed in 0..8 {
        let mut rng = TestRng::new(400 + seed);
        let mut heap = Heap::new();
        let items: Vec<Value> = (0..rng.range(1, 6))
            .map(|_| Value::Obj(d.alloc(&mut heap, d.item)))
            .collect();
        let nodes: Vec<ObjRef> = (0..rng.range(1, 20))
            .map(|_| d.alloc(&mut heap, d.node))
            .collect();
        let node_values: Vec<Value> = nodes.iter().map(|&o| Value::Obj(o)).collect();
        // Items in recursive slots: the walk reaches them but must not
        // count them as members.
        for &n in &nodes {
            let target = pick(&mut rng, &node_values, &items);
            heap.set_field(n, next, target);
        }
        let tree = d.alloc(&mut heap, d.tree);
        heap.set_field(tree, payload, *rng.pick(&items));
        let arr = heap.alloc_array(ElemKind::Ref, 6);
        for i in 0..6 {
            heap.set_elem(arr, i, pick(&mut rng, &node_values, &items));
        }
        heap.set_field(tree, children, Value::Arr(arr));
        check_all_roots(&d.program, &heap, &mut marks);

        // A walk from a non-recursive object sees nothing at all.
        let Value::Obj(item) = items[0] else {
            unreachable!()
        };
        let snap = snapshot_structure(&d.program, &heap, item);
        assert!(snap.keys.is_empty() && snap.size == 0, "{snap:?}");
    }
}

/// Links `order` into a list through `Node.next`, and through
/// `Node.prev` too when `doubly`. Every node's links are written, so
/// every node counts as modified afterwards.
fn link(d: &Decls, heap: &mut Heap, order: &[ObjRef], doubly: bool) {
    let (next, prev) = (d.slot(d.node, "next"), d.slot(d.node, "prev"));
    for (i, &n) in order.iter().enumerate() {
        let after = order.get(i + 1).map_or(Value::Null, |&m| Value::Obj(m));
        heap.set_field(n, next, after);
        let before = match i {
            0 => Value::Null,
            _ if doubly => Value::Obj(order[i - 1]),
            _ => Value::Null,
        };
        heap.set_field(n, prev, before);
    }
}

/// A registry that checks every cached answer against a fresh walk.
fn differential_registry() -> InputRegistry {
    InputRegistry::with_incremental(
        EquivalenceCriterion::SomeElements,
        ArraySizeStrategy::Capacity,
        IncrementalMode::Differential,
    )
}

/// Registers the structure reachable from `root` as a new input.
fn register(d: &Decls, heap: &Heap, reg: &mut InputRegistry, root: Value) -> InputId {
    let m = reg
        .measure_unidentified(&d.program, heap, root)
        .expect("measurable");
    reg.identify(m, &[])
}

/// Re-measures input `id` from `root`, as the profiler does after a
/// write it observed, and returns the size and the counters it moved.
fn remeasure(
    d: &Decls,
    heap: &Heap,
    reg: &mut InputRegistry,
    id: InputId,
    root: Value,
) -> (usize, SnapshotStats) {
    let before = reg.snapshot_stats();
    let size = reg
        .remeasure(&d.program, heap, id, root)
        .expect("measurable");
    let after = reg.snapshot_stats();
    let delta = SnapshotStats {
        full_walks: after.full_walks - before.full_walks,
        cache_hits: after.cache_hits - before.cache_hits,
        partial_redos: after.partial_redos - before.partial_redos,
        objects_traversed: after.objects_traversed - before.objects_traversed,
        arrays_traversed: after.arrays_traversed - before.arrays_traversed,
        elements_scanned: after.elements_scanned - before.elements_scanned,
    };
    (size, delta)
}

fn is_full_walk(delta: SnapshotStats) -> bool {
    delta.full_walks == 1 && delta.cache_hits == 0 && delta.partial_redos == 0
}

fn is_cache_hit(delta: SnapshotStats) -> bool {
    delta
        == SnapshotStats {
            cache_hits: 1,
            ..SnapshotStats::default()
        }
}

#[test]
fn doubly_linked_lists_reuse_walks_from_any_member() {
    let d = Decls::new();
    let val = d.slot(d.node, "val");
    let mut reused_elsewhere = 0;
    for seed in 0..8 {
        let mut rng = TestRng::new(500 + seed);
        let mut heap = Heap::new();
        let mut order: Vec<ObjRef> = (0..rng.range(2, 40))
            .map(|_| d.alloc(&mut heap, d.node))
            .collect();
        link(&d, &mut heap, &order, true);
        let mut reg = differential_registry();
        let id = register(&d, &heap, &mut reg, Value::Obj(order[0]));
        for _ in 0..40 {
            // Swap two nodes' positions (relinking removes edges, so the
            // next measurement walks) or their values (edges kept, so it
            // is a partial redo that keeps the reuse).
            let (i, j) = (rng.range(0, order.len()), rng.range(0, order.len()));
            if rng.chance(1, 2) {
                order.swap(i, j);
                link(&d, &mut heap, &order, true);
            } else {
                let (a, b) = (heap.field(order[i], val), heap.field(order[j], val));
                heap.set_field(order[i], val, b);
                heap.set_field(order[j], val, a);
            }
            reg.mark_dirty(id, heap.epoch());
            let r = Value::Obj(*rng.pick(&order));
            let (size, _) = remeasure(&d, &heap, &mut reg, id, r);
            assert_eq!(size, order.len());

            // Unchanged since: any other member is answered from cache.
            let cached_root = reg
                .input(id)
                .last_measurement
                .as_ref()
                .expect("cached")
                .root;
            let other = *rng.pick(&order);
            reused_elsewhere += usize::from(ElemKey::Obj(other) != cached_root);
            let (size, delta) = remeasure(&d, &heap, &mut reg, id, Value::Obj(other));
            assert_eq!(size, order.len());
            assert!(is_cache_hit(delta), "seed {seed}: {delta:?}");
        }
    }
    assert!(reused_elsewhere > 100, "only {reused_elsewhere} reuses");
}

#[test]
fn singly_linked_list_walks_again_from_a_non_root_member() {
    let d = Decls::new();
    for seed in 0..8 {
        let mut rng = TestRng::new(600 + seed);
        let mut heap = Heap::new();
        let order: Vec<ObjRef> = (0..rng.range(2, 40))
            .map(|_| d.alloc(&mut heap, d.node))
            .collect();
        link(&d, &mut heap, &order, false);
        let mut reg = differential_registry();
        let id = register(&d, &heap, &mut reg, Value::Obj(order[0]));
        let k = rng.range(1, order.len());
        let (size, delta) = remeasure(&d, &heap, &mut reg, id, Value::Obj(order[k]));
        assert!(is_full_walk(delta), "seed {seed}: {delta:?}");
        assert_eq!(size, order.len() - k, "the suffix from {k}");
    }
}

#[test]
fn one_cut_back_link_walks_again() {
    let d = Decls::new();
    let prev = d.slot(d.node, "prev");
    for seed in 0..8 {
        let mut rng = TestRng::new(700 + seed);
        let mut heap = Heap::new();
        let order: Vec<ObjRef> = (0..rng.range(3, 40))
            .map(|_| d.alloc(&mut heap, d.node))
            .collect();
        link(&d, &mut heap, &order, true);
        let cut = rng.range(1, order.len());
        heap.set_field(order[cut], prev, Value::Null);
        let mut reg = differential_registry();
        let id = register(&d, &heap, &mut reg, Value::Obj(order[0]));
        let k = rng.range(1, order.len());
        let (size, delta) = remeasure(&d, &heap, &mut reg, id, Value::Obj(order[k]));
        assert!(is_full_walk(delta), "seed {seed}: {delta:?}");
        let want = if k < cut {
            order.len()
        } else {
            order.len() - cut
        };
        assert_eq!(size, want, "from {k} with the back link of {cut} cut");
    }
}

#[test]
fn node_holding_a_primitive_array_walks_again() {
    let d = Decls::new();
    let prev = d.slot(d.node, "prev");
    for seed in 0..8 {
        let mut rng = TestRng::new(800 + seed);
        let mut heap = Heap::new();
        let order: Vec<ObjRef> = (0..rng.range(2, 40))
            .map(|_| d.alloc(&mut heap, d.node))
            .collect();
        link(&d, &mut heap, &order, true);
        // The head's free back link holds an int[]: a member without
        // edges, so it cannot reach the root.
        let ints = heap.alloc_array(ElemKind::Int, 3);
        heap.set_field(order[0], prev, Value::Arr(ints));
        let mut reg = differential_registry();
        let id = register(&d, &heap, &mut reg, Value::Obj(order[0]));
        let k = rng.range(1, order.len());
        let (size, delta) = remeasure(&d, &heap, &mut reg, id, Value::Obj(order[k]));
        assert!(is_full_walk(delta), "seed {seed}: {delta:?}");
        assert_eq!(size, order.len());
    }
}

#[test]
fn partial_redo_that_adds_members_walks_again_from_another_member() {
    let d = Decls::new();
    for seed in 0..8 {
        let mut rng = TestRng::new(900 + seed);
        let mut heap = Heap::new();
        let mut order: Vec<ObjRef> = (0..rng.range(2, 40))
            .map(|_| d.alloc(&mut heap, d.node))
            .collect();
        link(&d, &mut heap, &order, true);
        let mut reg = differential_registry();
        let head = Value::Obj(order[0]);
        let id = register(&d, &heap, &mut reg, head);

        // Append a node: the tail gains an edge, so the redo from the
        // cached root adds the new member without walking.
        let tail = *order.last().expect("non-empty");
        let fresh = d.alloc(&mut heap, d.node);
        heap.set_field(tail, d.slot(d.node, "next"), Value::Obj(fresh));
        heap.set_field(fresh, d.slot(d.node, "prev"), Value::Obj(tail));
        order.push(fresh);
        reg.mark_dirty(id, heap.epoch());
        let (size, delta) = remeasure(&d, &heap, &mut reg, id, head);
        assert_eq!(delta.partial_redos, 1, "seed {seed}: {delta:?}");
        assert_eq!(delta.full_walks, 0, "seed {seed}: {delta:?}");
        assert_eq!(size, order.len());

        let k = rng.range(1, order.len());
        let (size, delta) = remeasure(&d, &heap, &mut reg, id, Value::Obj(order[k]));
        assert!(is_full_walk(delta), "seed {seed}: {delta:?}");
        assert_eq!(size, order.len());
    }
}

/// A strongly connected structure may hold a reference array, but a
/// walk from that array is an array walk, with a different snapshot:
/// only object members may reuse the structure walk.
#[test]
fn array_member_of_a_strongly_connected_structure_walks_again() {
    let d = Decls::new();
    let children = d.slot(d.tree, "children");
    let mut heap = Heap::new();
    // Both trees hold one array that holds both trees.
    let (parent, kid) = (d.alloc(&mut heap, d.tree), d.alloc(&mut heap, d.tree));
    let both = heap.alloc_array(ElemKind::Ref, 2);
    heap.set_elem(both, 0, Value::Obj(parent));
    heap.set_elem(both, 1, Value::Obj(kid));
    heap.set_field(parent, children, Value::Arr(both));
    heap.set_field(kid, children, Value::Arr(both));
    let mut reg = differential_registry();
    let id = register(&d, &heap, &mut reg, Value::Obj(parent));

    let (size, delta) = remeasure(&d, &heap, &mut reg, id, Value::Obj(kid));
    assert!(is_cache_hit(delta), "{delta:?}");
    assert_eq!(size, 2);
    let (size, delta) = remeasure(&d, &heap, &mut reg, id, Value::Arr(both));
    assert!(is_full_walk(delta), "{delta:?}");
    assert_eq!(size, 2, "the array's capacity");
}

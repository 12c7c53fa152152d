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
//! The last tests cover re-measurement through a cached walk. Reuse
//! of a cached walk as it stands, from a root other than the one it was
//! taken from, is allowed only for a strongly connected structure: a
//! doubly linked list is re-measured from random members under
//! `IncrementalMode::Differential`, which checks every reuse against a
//! fresh walk. Every other re-measurement from an object is a walk over
//! the cached edge lists (`remeasure_structure`), which must never be a
//! full walk and must equal a fresh walk from the requested root:
//! snapshot, root, strongly connected flag and edge lists. It is checked
//! on a singly linked list re-measured from a non-root member, a cut
//! back link, a member `int[]`, a list grown by one node, seeded relinks
//! within the members of singly and doubly linked lists, rings and trees
//! with `Tree[]` children (some keeping every member, some losing a
//! part), and four further cases: a detached segment, a removal plus a
//! new node, an `int[]` member next to a relink, and a root outside the
//! measurement. A root that is an array of the structure is measured by
//! an array walk, so it alone walks in full.

use std::collections::{BTreeMap, BTreeSet};

use algoprof::snapshot::{
    measure_structure, remeasure_structure, snapshot_array, snapshot_structure, Measurement,
    SnapshotKind, SnapshotStats, VisitMarks,
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

/// Re-measures input `id` from `root` after the heap changed, and
/// checks that the registry answered with a walk over the cached edge
/// lists rather than a full walk, and that the measurement it kept equals
/// a fresh walk from `root`. Returns the size.
fn assert_redone(
    d: &Decls,
    heap: &Heap,
    reg: &mut InputRegistry,
    id: InputId,
    root: ObjRef,
) -> usize {
    reg.mark_dirty(id, heap.epoch());
    let (size, delta) = remeasure(d, heap, reg, id, Value::Obj(root));
    assert_eq!(delta.full_walks, 0, "{delta:?}");
    assert_eq!(delta.partial_redos, 1, "{delta:?}");
    let fresh = measure_structure(
        &d.program,
        heap,
        root,
        &mut VisitMarks::default(),
        &mut SnapshotStats::default(),
    );
    assert_eq!(reg.input(id).last_measurement.as_ref(), Some(&fresh));
    size
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
        let size = assert_redone(&d, &heap, &mut reg, id, order[k]);
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
        let size = assert_redone(&d, &heap, &mut reg, id, order[k]);
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
        let size = assert_redone(&d, &heap, &mut reg, id, order[k]);
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
        let id = register(&d, &heap, &mut reg, Value::Obj(order[0]));

        // Append a node: the tail gains an edge, so the redo from the
        // cached root adds the new member without a full walk.
        let tail = *order.last().expect("non-empty");
        let fresh = d.alloc(&mut heap, d.node);
        heap.set_field(tail, d.slot(d.node, "next"), Value::Obj(fresh));
        heap.set_field(fresh, d.slot(d.node, "prev"), Value::Obj(tail));
        order.push(fresh);
        let size = assert_redone(&d, &heap, &mut reg, id, order[0]);
        assert_eq!(size, order.len());

        // The redo found the grown list strongly connected, as a full
        // walk would, so another member is answered from cache.
        let k = rng.range(1, order.len());
        let (size, delta) = remeasure(&d, &heap, &mut reg, id, Value::Obj(order[k]));
        assert!(is_cache_hit(delta), "seed {seed}: {delta:?}");
        assert_eq!(size, order.len());
        assert_eq!(
            reg.input(id).last_snapshot(),
            Some(&snapshot_structure(&d.program, &heap, order[k]))
        );
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

/// Each container's key and sorted outgoing edges.
fn edge_lists(m: &Measurement) -> Vec<(ElemKey, Vec<ElemKey>)> {
    m.containers
        .iter()
        .map(|c| {
            let mut edges = m.edges[c.edges.start as usize..c.edges.end as usize].to_vec();
            edges.sort_unstable();
            (c.key, edges)
        })
        .collect()
}

/// Whether a redo kept the members of the measurement it brought up to
/// date.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Outcome {
    KeptMembers,
    LostMembers,
}

/// Brings `m` up to date for a walk from `root` after relinks within
/// its members, and checks that the answer equals a fresh walk from
/// `root` in every respect that a later reuse depends on. `marks` is
/// shared with the fresh walk and across calls, as the registry shares
/// its own.
fn redo_or_walk(
    d: &Decls,
    heap: &Heap,
    m: &mut Measurement,
    root: ObjRef,
    marks: &mut VisitMarks,
) -> Outcome {
    let fresh = measure_structure(&d.program, heap, root, marks, &mut SnapshotStats::default());
    let members = m.snapshot.keys.clone();
    let mut stats = SnapshotStats::default();
    remeasure_structure(&d.program, heap, m, root, marks, &mut stats);
    assert_eq!(m.snapshot, fresh.snapshot, "snapshot from {root:?}");
    assert_eq!(m.root, fresh.root);
    assert_eq!(
        m.strongly_connected, fresh.strongly_connected,
        "strongly connected flag from {root:?}"
    );
    assert_eq!(edge_lists(m), edge_lists(&fresh), "edges from {root:?}");
    assert_eq!((stats.full_walks, stats.partial_redos), (0, 1));
    // Relinks within the members cannot add any.
    assert!(fresh.snapshot.keys.is_subset(&members), "new members");
    if fresh.snapshot.keys == members {
        Outcome::KeptMembers
    } else {
        Outcome::LostMembers
    }
}

/// How a test links its nodes: through `Node.next`, and `Node.prev`
/// too when `doubly`; the last node back to the first when `ring`.
#[derive(Debug, Clone, Copy)]
struct Shape {
    doubly: bool,
    ring: bool,
}

/// Rewrites the links of the nodes at `positions` of `order`, as
/// `shape` says.
fn relink_at(d: &Decls, heap: &mut Heap, order: &[ObjRef], positions: &[usize], shape: Shape) {
    let (next, prev) = (d.slot(d.node, "next"), d.slot(d.node, "prev"));
    let n = order.len();
    for &p in positions {
        let after = if p + 1 < n {
            Value::Obj(order[p + 1])
        } else if shape.ring {
            Value::Obj(order[0])
        } else {
            Value::Null
        };
        heap.set_field(order[p], next, after);
        if shape.doubly {
            let before = if p > 0 {
                Value::Obj(order[p - 1])
            } else if shape.ring {
                Value::Obj(order[n - 1])
            } else {
                Value::Null
            };
            heap.set_field(order[p], prev, before);
        }
    }
}

/// The object members of `m`.
fn object_members(m: &Measurement) -> Vec<ObjRef> {
    m.snapshot
        .keys
        .iter()
        .filter_map(|k| match k {
            ElemKey::Obj(o) => Some(*o),
            _ => None,
        })
        .collect()
}

#[test]
fn rewire_redo_equals_a_fresh_walk_on_lists_and_rings() {
    let d = Decls::new();
    let (next, prev) = (d.slot(d.node, "next"), d.slot(d.node, "prev"));
    let mut seen = BTreeMap::new();
    let mut marks = VisitMarks::default();
    for seed in 0..16 {
        let mut rng = TestRng::new(1000 + seed);
        let shape = Shape {
            doubly: seed % 2 == 1,
            ring: seed % 4 >= 2,
        };
        let mut heap = Heap::new();
        let mut order: Vec<ObjRef> = (0..rng.range(3, 40))
            .map(|_| d.alloc(&mut heap, d.node))
            .collect();
        let n = order.len();
        let mut m = None;
        let mut intact = false;
        for round in 0..80 {
            if round % 20 == 0 {
                // Start over from a freshly linked shuffle of every node.
                for i in (1..n).rev() {
                    order.swap(i, rng.range(0, i + 1));
                }
                relink_at(&d, &mut heap, &order, &(0..n).collect::<Vec<_>>(), shape);
                let fresh = measure_structure(
                    &d.program,
                    &heap,
                    order[0],
                    &mut marks,
                    &mut SnapshotStats::default(),
                );
                assert_eq!(fresh.snapshot.size, n);
                m = Some(fresh);
                intact = true;
            }
            let m = m.as_mut().expect("measured");
            let members = object_members(m);
            intact &= members.len() == n;
            if intact && rng.chance(2, 3) {
                // Swap two neighbours as an insertion sort does, writing
                // only the links that change.
                let i = rng.range(0, if shape.ring { n } else { n - 1 });
                let j = (i + 1) % n;
                order.swap(i, j);
                let around: Vec<usize> = if shape.ring {
                    vec![(i + n - 1) % n, i, j, (j + 1) % n]
                } else {
                    (i.saturating_sub(1)..(j + 2).min(n)).collect()
                };
                relink_at(&d, &mut heap, &order, &around, shape);
            } else {
                // Point one link of a member at another member, or at
                // nothing.
                let o = *rng.pick(&members);
                let slot = if !shape.doubly || rng.chance(1, 2) {
                    next
                } else {
                    prev
                };
                let target = if rng.chance(1, 5) {
                    Value::Null
                } else {
                    Value::Obj(*rng.pick(&members))
                };
                heap.set_field(o, slot, target);
                intact = false;
            }
            let root = if rng.chance(1, 2) && members.contains(&order[0]) {
                order[0]
            } else {
                *rng.pick(&members)
            };
            *seen
                .entry(redo_or_walk(&d, &heap, m, root, &mut marks))
                .or_insert(0) += 1;
        }
    }
    assert_outcomes(&seen, 300, 50);
}

/// Insists the seeded relinks produced enough redos that kept the
/// members and enough that lost some for the checks to mean something.
fn assert_outcomes(seen: &BTreeMap<Outcome, usize>, kept: usize, lost: usize) {
    let count = |o| seen.get(&o).copied().unwrap_or(0);
    assert!(count(Outcome::KeptMembers) >= kept, "{seen:?}");
    assert!(count(Outcome::LostMembers) >= lost, "{seen:?}");
}

#[test]
fn rewire_redo_equals_a_fresh_walk_on_trees_with_child_arrays() {
    let d = Decls::new();
    let children = d.slot(d.tree, "children");
    let mut seen = BTreeMap::new();
    let mut marks = VisitMarks::default();
    for seed in 0..16 {
        let mut rng = TestRng::new(1100 + seed);
        let mut heap = Heap::new();
        let mut m = None;
        let mut top = ObjRef(0);
        for _ in 0..60 {
            if m.as_ref().is_none_or(|m: &Measurement| m.snapshot.size < 8) {
                // A fresh tree: child arrays with some empty slots.
                let mut trees = vec![d.alloc(&mut heap, d.tree)];
                let mut next = 0;
                while next < trees.len() && trees.len() < 30 {
                    let parent = trees[next];
                    next += 1;
                    let fan = rng.range(0, 5);
                    let arr = heap.alloc_array(ElemKind::Ref, fan);
                    heap.set_field(parent, children, Value::Arr(arr));
                    for i in 0..fan {
                        if rng.chance(1, 4) {
                            continue;
                        }
                        let kid = d.alloc(&mut heap, d.tree);
                        heap.set_elem(arr, i, Value::Obj(kid));
                        trees.push(kid);
                    }
                }
                top = trees[0];
                m = Some(measure_structure(
                    &d.program,
                    &heap,
                    top,
                    &mut marks,
                    &mut SnapshotStats::default(),
                ));
            }
            let m = m.as_mut().expect("measured");
            let trees = object_members(m);
            // Non-empty child slots of member arrays.
            let slots: Vec<(ArrRef, usize)> = m
                .snapshot
                .keys
                .iter()
                .filter_map(|k| match k {
                    ElemKey::Arr(a) => Some(*a),
                    _ => None,
                })
                .flat_map(|a| (0..heap.array(a).elems.len()).map(move |i| (a, i)))
                .collect();
            let full: Vec<(ArrRef, usize)> = slots
                .iter()
                .copied()
                .filter(|&(a, i)| heap.array(a).elems[i] != Value::Null)
                .collect();
            if full.is_empty() {
                continue;
            }
            let (a, i) = *rng.pick(&full);
            match rng.below(3) {
                // Swap a child into another slot: moves a subtree, or
                // exchanges two.
                0 => {
                    let (b, j) = *rng.pick(&slots);
                    let (x, y) = (heap.array(a).elems[i], heap.array(b).elems[j]);
                    heap.set_elem(a, i, y);
                    heap.set_elem(b, j, x);
                }
                // Hand a node the child array of another.
                1 => {
                    let t = *rng.pick(&trees);
                    heap.set_field(t, children, Value::Arr(a));
                }
                // Replace a child by another member (maybe a link back
                // up), or clear the slot.
                _ => {
                    let v = if rng.chance(1, 4) {
                        Value::Null
                    } else {
                        Value::Obj(*rng.pick(&trees))
                    };
                    heap.set_elem(a, i, v);
                }
            }
            let root = if rng.chance(3, 4) && trees.contains(&top) {
                top
            } else {
                *rng.pick(&trees)
            };
            *seen
                .entry(redo_or_walk(&d, &heap, m, root, &mut marks))
                .or_insert(0) += 1;
        }
    }
    assert_outcomes(&seen, 100, 50);
}

/// A doubly linked list registered from its head.
fn registered_list(
    d: &Decls,
    heap: &mut Heap,
    len: usize,
) -> (Vec<ObjRef>, InputRegistry, InputId) {
    let order: Vec<ObjRef> = (0..len).map(|_| d.alloc(heap, d.node)).collect();
    link(d, heap, &order, true);
    let mut reg = differential_registry();
    let id = register(d, heap, &mut reg, Value::Obj(order[0]));
    (order, reg, id)
}

/// Relinks that change the members, or add one that is not a container,
/// or re-measure from outside the members: each is answered by a walk
/// over the cached edge lists that equals a fresh walk.
#[test]
fn rewire_negative_controls_walk_again() {
    let d = Decls::new();
    let (next, prev) = (d.slot(d.node, "next"), d.slot(d.node, "prev"));
    for seed in 0..8 {
        let mut rng = TestRng::new(1200 + seed);
        let len = rng.range(4, 40);
        let k = rng.range(1, len - 1);

        // A detached segment: the list is cut after node k.
        let mut heap = Heap::new();
        let (order, mut reg, id) = registered_list(&d, &mut heap, len);
        heap.set_field(order[k], next, Value::Null);
        heap.set_field(order[k + 1], prev, Value::Null);
        assert_eq!(assert_redone(&d, &heap, &mut reg, id, order[0]), k + 1);

        // A removal plus a new node: node k's back link now leads to a
        // fresh node, while the forward links still reach every member.
        let mut heap = Heap::new();
        let (order, mut reg, id) = registered_list(&d, &mut heap, len);
        let fresh = d.alloc(&mut heap, d.node);
        heap.set_field(order[k], prev, Value::Obj(fresh));
        assert_eq!(assert_redone(&d, &heap, &mut reg, id, order[0]), len + 1);
        assert_eq!(reg.resolve_ref(ElemKey::Obj(fresh)), Some(id));

        // An int[] member: the head's free back link holds one, and two
        // neighbours further on swap places.
        let mut heap = Heap::new();
        let mut order: Vec<ObjRef> = (0..len).map(|_| d.alloc(&mut heap, d.node)).collect();
        link(&d, &mut heap, &order, true);
        let ints = heap.alloc_array(ElemKind::Int, 2);
        heap.set_field(order[0], prev, Value::Arr(ints));
        let mut reg = differential_registry();
        let id = register(&d, &heap, &mut reg, Value::Obj(order[0]));
        order.swap(k, k + 1);
        let shape = Shape {
            doubly: true,
            ring: false,
        };
        relink_at(&d, &mut heap, &order, &[k - 1, k, k + 1], shape);
        if k + 2 < len {
            relink_at(&d, &mut heap, &order, &[k + 2], shape);
        }
        heap.set_field(order[0], prev, Value::Arr(ints));
        assert_eq!(assert_redone(&d, &heap, &mut reg, id, order[0]), len);

        // A root outside the measurement: a new node links to the head
        // of a list whose node j now skips to the tail.
        let mut heap = Heap::new();
        let (order, mut reg, id) = registered_list(&d, &mut heap, len);
        let j = k.min(len - 3);
        heap.set_field(order[j], next, Value::Obj(order[len - 1]));
        let outside = d.alloc(&mut heap, d.node);
        heap.set_field(outside, next, Value::Obj(order[0]));
        let want = snapshot_structure(&d.program, &heap, outside).size;
        assert_eq!(assert_redone(&d, &heap, &mut reg, id, outside), want);
    }

    // An array root, though a container of the measurement that
    // reaches every member: a walk from it is an array walk.
    let children = d.slot(d.tree, "children");
    let mut heap = Heap::new();
    let (parent, kid) = (d.alloc(&mut heap, d.tree), d.alloc(&mut heap, d.tree));
    let both = heap.alloc_array(ElemKind::Ref, 2);
    heap.set_elem(both, 0, Value::Obj(parent));
    heap.set_elem(both, 1, Value::Obj(kid));
    heap.set_field(parent, children, Value::Arr(both));
    heap.set_field(kid, children, Value::Arr(both));
    let mut reg = differential_registry();
    let id = register(&d, &heap, &mut reg, Value::Obj(parent));
    // The kid drops its link; the array still reaches every member.
    heap.set_field(kid, children, Value::Null);
    reg.mark_dirty(id, heap.epoch());
    let (size, delta) = remeasure(&d, &heap, &mut reg, id, Value::Arr(both));
    assert!(is_full_walk(delta), "{delta:?}");
    assert_eq!(size, 2, "the array's capacity");
}

/// A rewire redo of an input another input has claimed keys from must
/// leave the reverse map and the `shared` flags as the full walk it
/// replaces would, so later accesses resolve to the same inputs.
#[test]
fn rewire_redo_of_a_shared_input_reclaims_its_keys() {
    let d = Decls::new();
    let mut runs = Vec::new();
    for incremental in [IncrementalMode::Enabled, IncrementalMode::Disabled] {
        let mut heap = Heap::new();
        let mut order: Vec<ObjRef> = (0..6).map(|_| d.alloc(&mut heap, d.node)).collect();
        link(&d, &mut heap, &order, true);
        // Under AllElements, a snapshot of a sublist is another input,
        // and it claims the keys it shares with the whole list.
        let mut reg = InputRegistry::with_incremental(
            EquivalenceCriterion::AllElements,
            ArraySizeStrategy::Capacity,
            incremental,
        );
        let whole = register(&d, &heap, &mut reg, Value::Obj(order[0]));
        heap.set_field(order[2], d.slot(d.node, "prev"), Value::Null);
        let part = register(&d, &heap, &mut reg, Value::Obj(order[2]));
        assert_ne!(whole, part);
        assert!(reg.input(whole).shared);

        // Restore the back link and swap two neighbours.
        order.swap(3, 4);
        relink_at(
            &d,
            &mut heap,
            &order,
            &[1, 2, 3, 4, 5],
            Shape {
                doubly: true,
                ring: false,
            },
        );
        reg.mark_dirty(whole, heap.epoch());
        let (size, delta) = remeasure(&d, &heap, &mut reg, whole, Value::Obj(order[1]));
        assert_eq!(size, 6);
        match incremental {
            IncrementalMode::Enabled => assert_eq!(delta.partial_redos, 1, "{delta:?}"),
            _ => assert!(is_full_walk(delta), "{delta:?}"),
        }
        let owners: Vec<Option<InputId>> = order
            .iter()
            .map(|&o| reg.resolve_ref(ElemKey::Obj(o)))
            .collect();
        runs.push((owners, reg.input(whole).shared, reg.input(part).shared));
    }
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[0].0, vec![Some(InputId(0)); 6]);
}

//! Randomized mutation-sequence test for the incremental snapshot
//! cache (heap write-versioning).
//!
//! Drives the guest heap directly through long random sequences of
//! allocations, field puts, and array stores — linked `Node` structures
//! and int/ref arrays — while re-measuring random roots through two
//! [`InputRegistry`] instances fed identical observations:
//!
//! * one with caching [`IncrementalMode::Disabled`] (from-scratch
//!   traversal every time, the reference behaviour), and
//! * one in [`IncrementalMode::Differential`], which reuses cached
//!   measurements *and* re-walks from scratch on every reuse, panicking
//!   on any snapshot divergence.
//!
//! Every measured size must agree between the two, under every
//! equivalence criterion and both array sizing strategies, and so must
//! the input count and the input every created object and array
//! resolves to. Mutations are reported to each registry the same way
//! the profiler's hooks do: a write through a reference that resolves
//! to a known input marks that input dirty at the current heap epoch.

use algoprof::{ArraySizeStrategy, ElemKey, EquivalenceCriterion, IncrementalMode, InputRegistry};
use algoprof_suite::testutil::TestRng;
use algoprof_vm::bytecode::ElemKind;
use algoprof_vm::{compile, ArrRef, CompiledProgram, Heap, InstrumentOptions, ObjRef, Value};

/// Class declarations matching the shapes the mutations build. `Main`
/// only exists because the compiler requires an entry point. The
/// program is instrumented, which marks `Node` and its links recursive,
/// so walks from a node measure a real structure.
const DECLS: &str = r#"
class Main { static int main() { return 0; } }
class Node { Node next; Node prev; int val; }
class Item { int v; }
"#;

/// Resolve-then-measure, mirroring the profiler's access path: a known
/// reference key re-resolves through the reverse map; a new one is
/// measured from scratch and identified.
fn touch(
    reg: &mut InputRegistry,
    program: &CompiledProgram,
    heap: &Heap,
    root: Value,
    key: ElemKey,
) -> usize {
    let id = match reg.resolve_ref(key) {
        Some(id) => id,
        None => {
            let m = reg
                .measure_unidentified(program, heap, root)
                .expect("roots are objects or arrays");
            reg.identify(m, &[])
        }
    };
    reg.remeasure(program, heap, id, root)
        .expect("roots are objects or arrays")
}

/// Report a write the way the interpreter hooks would: if the written
/// container currently resolves to an input, it is dirty as of now.
fn mark_write(regs: &mut [&mut InputRegistry], heap: &Heap, key: ElemKey) {
    for reg in regs {
        if let Some(id) = reg.resolve_ref(key) {
            reg.mark_dirty(id, heap.epoch());
        }
    }
}

/// The keys of every object and array the sequence created.
fn created(nodes: &[ObjRef], items: &[ObjRef], ints: &[ArrRef], refs: &[ArrRef]) -> Vec<ElemKey> {
    let objects = nodes.iter().chain(items).map(|&o| ElemKey::Obj(o));
    let arrays = ints.iter().chain(refs).map(|&a| ElemKey::Arr(a));
    objects.chain(arrays).collect()
}

/// The incremental registry must leave input ownership as from-scratch
/// measurement does: the same number of inputs, and every key resolving
/// to the same input, so later accesses are attributed alike.
fn assert_same_owners(full: &InputRegistry, inc: &InputRegistry, keys: &[ElemKey]) {
    assert_eq!(full.inputs().len(), inc.inputs().len(), "input count");
    for &key in keys {
        assert_eq!(
            full.resolve_ref(key),
            inc.resolve_ref(key),
            "owner of {key:?}"
        );
    }
}

fn run_sequence(criterion: EquivalenceCriterion, strategy: ArraySizeStrategy, seed: u64) {
    let program = compile(DECLS)
        .expect("compiles")
        .instrument(&InstrumentOptions::default());
    let node_class = program.class_by_name("Node").expect("Node");
    let item_class = program.class_by_name("Item").expect("Item");
    // Uninstrumented, no class would be recursive and every walk empty.
    assert!(program.class(node_class).is_recursive);
    let node_fields = program.class(node_class).field_layout.len();
    let item_fields = program.class(item_class).field_layout.len();

    let mut rng = TestRng::new(seed);
    let mut heap = Heap::new();
    let mut full = InputRegistry::with_incremental(criterion, strategy, IncrementalMode::Disabled);
    let mut inc =
        InputRegistry::with_incremental(criterion, strategy, IncrementalMode::Differential);

    let mut nodes: Vec<ObjRef> = Vec::new();
    let mut items: Vec<ObjRef> = Vec::new();
    let mut int_arrays: Vec<ArrRef> = Vec::new();
    let mut ref_arrays: Vec<ArrRef> = Vec::new();

    // Seed state so every op has something to act on.
    nodes.push(heap.alloc_object(node_class, node_fields));
    int_arrays.push(heap.alloc_array(ElemKind::Int, 4));
    ref_arrays.push(heap.alloc_array(ElemKind::Ref, 4));

    for _step in 0..300 {
        match rng.below(12) {
            0 => nodes.push(heap.alloc_object(node_class, node_fields)),
            1 => items.push(heap.alloc_object(item_class, item_fields)),
            2 => int_arrays.push(heap.alloc_array(ElemKind::Int, rng.range(1, 8))),
            3 => ref_arrays.push(heap.alloc_array(ElemKind::Ref, rng.range(1, 8))),
            4..=6 => {
                // Field put on a Node: rewire next/prev (shape) or
                // bump val (invisible to structure snapshots).
                let o = nodes[rng.range(0, nodes.len())];
                if rng.chance(1, 4) {
                    heap.set_field(o, 2, Value::Int(rng.range_i64(0, 50)));
                } else {
                    let target = if rng.chance(1, 5) {
                        Value::Null
                    } else {
                        Value::Obj(nodes[rng.range(0, nodes.len())])
                    };
                    heap.set_field(o, rng.range(0, 2), target);
                }
                mark_write(&mut [&mut full, &mut inc], &heap, ElemKey::Obj(o));
            }
            7..=8 => {
                // Int-array store; small value range to create the
                // duplicates that exercise the element-key multiset.
                let a = int_arrays[rng.range(0, int_arrays.len())];
                let idx = rng.range(0, heap.array(a).elems.len());
                heap.set_elem(a, idx, Value::Int(rng.range_i64(0, 6)));
                mark_write(&mut [&mut full, &mut inc], &heap, ElemKey::Arr(a));
            }
            9..=10 => {
                // Ref-array store: an Item, a Node (overlapping a
                // structure input), or null.
                let a = ref_arrays[rng.range(0, ref_arrays.len())];
                let idx = rng.range(0, heap.array(a).elems.len());
                let v = match rng.below(4) {
                    0 => Value::Null,
                    1 if !items.is_empty() => Value::Obj(items[rng.range(0, items.len())]),
                    _ => Value::Obj(nodes[rng.range(0, nodes.len())]),
                };
                heap.set_elem(a, idx, v);
                mark_write(&mut [&mut full, &mut inc], &heap, ElemKey::Arr(a));
            }
            _ => {
                // Raw mutable poke: bypasses the write journal (and
                // truncates it), forcing replays back to full walks.
                let a = int_arrays[rng.range(0, int_arrays.len())];
                let idx = rng.range(0, heap.array(a).elems.len());
                heap.array_mut(a).elems[idx] = Value::Int(rng.range_i64(0, 6));
                mark_write(&mut [&mut full, &mut inc], &heap, ElemKey::Arr(a));
            }
        }

        // Re-measure a random root through both registries. The
        // Differential registry asserts cached == fresh internally;
        // here the observable sizes must agree as well.
        if rng.chance(1, 3) {
            let (root, key) = match rng.below(3) {
                0 => {
                    let o = nodes[rng.range(0, nodes.len())];
                    (Value::Obj(o), ElemKey::Obj(o))
                }
                1 => {
                    let a = int_arrays[rng.range(0, int_arrays.len())];
                    (Value::Arr(a), ElemKey::Arr(a))
                }
                _ => {
                    let a = ref_arrays[rng.range(0, ref_arrays.len())];
                    (Value::Arr(a), ElemKey::Arr(a))
                }
            };
            let want = touch(&mut full, &program, &heap, root, key);
            let got = touch(&mut inc, &program, &heap, root, key);
            assert_eq!(
                want, got,
                "seed {seed}: {criterion:?}/{strategy:?} diverged at {key:?}"
            );
            assert_same_owners(
                &full,
                &inc,
                &created(&nodes, &items, &int_arrays, &ref_arrays),
            );
        }
    }

    // Final sweep: every root the sequence created must still agree.
    let roots = nodes
        .iter()
        .map(|&o| (Value::Obj(o), ElemKey::Obj(o)))
        .chain(
            int_arrays
                .iter()
                .chain(ref_arrays.iter())
                .map(|&a| (Value::Arr(a), ElemKey::Arr(a))),
        )
        .collect::<Vec<_>>();
    for (root, key) in roots {
        let want = touch(&mut full, &program, &heap, root, key);
        let got = touch(&mut inc, &program, &heap, root, key);
        assert_eq!(want, got, "seed {seed}: final sweep diverged at {key:?}");
        assert_same_owners(
            &full,
            &inc,
            &created(&nodes, &items, &int_arrays, &ref_arrays),
        );
    }

    // The incremental registry must actually have exercised the cache,
    // or this test proves nothing.
    let stats = inc.snapshot_stats();
    assert!(
        stats.cache_hits + stats.partial_redos > 0,
        "seed {seed}: no measurement was ever reused"
    );
}

#[test]
fn random_mutation_sequences_agree_under_every_criterion() {
    let criteria = [
        EquivalenceCriterion::SomeElements,
        EquivalenceCriterion::AllElements,
        EquivalenceCriterion::SameArray,
        EquivalenceCriterion::SameType,
    ];
    let strategies = [
        ArraySizeStrategy::Capacity,
        ArraySizeStrategy::UniqueElements,
    ];
    for criterion in criteria {
        for strategy in strategies {
            for seed in 0..4 {
                run_sequence(criterion, strategy, seed);
            }
        }
    }
}

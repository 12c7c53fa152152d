//! Structure snapshots and size measurement (paper §2.4 and §3.4).
//!
//! Each time an algorithm accesses a data structure, AlgoProf takes a
//! *snapshot*: the set of elements reachable from the accessed reference.
//! Snapshots serve two purposes — *identity* (deciding via an equivalence
//! criterion whether two snapshots are views of the same evolving input)
//! and *size* (object counts for recursive structures, capacity or
//! unique-element counts for arrays).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::{AddAssign, Range};

use algoprof_vm::bytecode::ElemKind;
use algoprof_vm::{ArrRef, ClassId, CompiledProgram, Heap, ObjRef, Value};

/// An element key used for snapshot-equivalence tests.
///
/// Heap references are globally unique identities (the guest heap never
/// reuses slots). Primitive array elements are identified by value —
/// exactly the paper's scheme, including its acknowledged weakness for
/// arrays of small primitive types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ElemKey {
    /// An object.
    Obj(ObjRef),
    /// An array (including the snapshot's own root array).
    Arr(ArrRef),
    /// A primitive element value.
    Int(i64),
}

/// A multiply-rotate hasher (FxHash's mixing step) for [`ElemKey`]
/// maps, which the profiler probes on every field and array access.
/// Reference keys are heap indices the VM hands out in sequence, so a
/// keyed, collision-resistant hash buys nothing here.
#[derive(Debug, Default, Clone, Copy)]
pub struct ElemKeyHasher(u64);

impl ElemKeyHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for ElemKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// A hash map keyed by [`ElemKey`] under [`ElemKeyHasher`].
pub type ElemKeyMap<V> = HashMap<ElemKey, V, BuildHasherDefault<ElemKeyHasher>>;

/// Visit marks for structure walks, one generation stamp per heap
/// object and array, indexed by [`ObjRef`] / [`ArrRef`]. A walk starts
/// a new generation instead of clearing, so marking costs one store and
/// membership one load. The tables grow to the heap's size when a walk
/// starts, and are meant to be owned by whoever walks repeatedly (the
/// input registry) so their allocation is reused across walks.
///
/// The same stamps can instead index one measurement's containers
/// ([`VisitMarks::index`]): a marked key then maps to its position in
/// [`Measurement::containers`], kept in a second pair of tables.
#[derive(Debug, Default, Clone)]
pub struct VisitMarks {
    generation: u32,
    objects: Vec<u32>,
    arrays: Vec<u32>,
    object_slots: Vec<u32>,
    array_slots: Vec<u32>,
}

impl VisitMarks {
    /// Starts a walk over `heap`: nothing is marked afterwards.
    fn begin(&mut self, heap: &Heap) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: stamps from 2^32 walks ago would read as marked.
            self.objects.fill(0);
            self.arrays.fill(0);
            self.generation = 1;
        }
        if self.objects.len() < heap.object_count() {
            self.objects.resize(heap.object_count(), 0);
        }
        if self.arrays.len() < heap.array_count() {
            self.arrays.resize(heap.array_count(), 0);
        }
    }

    /// Marks `key`; true when it was not yet marked in this walk.
    fn mark(&mut self, key: ElemKey) -> bool {
        let slot = match key {
            ElemKey::Obj(o) => &mut self.objects[o.0 as usize],
            ElemKey::Arr(a) => &mut self.arrays[a.0 as usize],
            ElemKey::Int(_) => return false,
        };
        let fresh = *slot != self.generation;
        *slot = self.generation;
        fresh
    }

    /// Starts a generation in which exactly the keys of `containers`
    /// are marked, each mapping to its position in the slice.
    fn index(&mut self, heap: &Heap, containers: &[ContainerRecord]) {
        self.begin(heap);
        self.object_slots.resize(self.objects.len(), 0);
        self.array_slots.resize(self.arrays.len(), 0);
        for (i, c) in containers.iter().enumerate() {
            let (stamp, slot) = match c.key {
                ElemKey::Obj(o) => (
                    &mut self.objects[o.0 as usize],
                    &mut self.object_slots[o.0 as usize],
                ),
                ElemKey::Arr(a) => (
                    &mut self.arrays[a.0 as usize],
                    &mut self.array_slots[a.0 as usize],
                ),
                ElemKey::Int(_) => continue,
            };
            *stamp = self.generation;
            *slot = i as u32;
        }
    }

    /// The position of `key` in the containers last passed to
    /// [`VisitMarks::index`], if it is one of them.
    fn slot(&self, key: ElemKey) -> Option<usize> {
        let (stamp, slot) = match key {
            ElemKey::Obj(o) => (self.objects[o.0 as usize], self.object_slots[o.0 as usize]),
            ElemKey::Arr(a) => (self.arrays[a.0 as usize], self.array_slots[a.0 as usize]),
            ElemKey::Int(_) => return None,
        };
        (stamp == self.generation).then_some(slot as usize)
    }
}

/// Marks are scratch state between walks, not part of any result, so
/// two mark sets always compare equal.
impl PartialEq for VisitMarks {
    fn eq(&self, _: &VisitMarks) -> bool {
        true
    }
}

/// How the size of an array input is quantified (paper §3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArraySizeStrategy {
    /// The number of elements the array can store (all levels for
    /// multi-dimensional arrays).
    #[default]
    Capacity,
    /// The number of unique elements (non-null references, or distinct
    /// primitive values) — approximates the used fraction of
    /// over-allocated arrays but cannot see duplicates.
    UniqueElements,
}

/// How two snapshots are judged to be views of the same input
/// (paper §2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EquivalenceCriterion {
    /// Equivalent when the element sets are identical.
    AllElements,
    /// Equivalent when the element sets overlap (AlgoProf's default; it
    /// tolerates structure evolution, partial traversals, and resized
    /// arrays).
    #[default]
    SomeElements,
    /// Arrays only: equivalent when the container array object is
    /// identical.
    SameArray,
    /// Equivalent when the snapshots have the same type.
    SameType,
}

/// What kind of structure a snapshot captured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotKind {
    /// A recursive data structure (set of linked objects).
    Structure {
        /// Classes of the objects seen, with per-class counts.
        classes: BTreeMap<ClassId, usize>,
    },
    /// A (possibly multi-dimensional) array.
    Array {
        /// Element kind of the root array.
        elem: ElemKind,
    },
}

/// A snapshot of one structure or array at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Identity keys (see [`ElemKey`]).
    pub keys: BTreeSet<ElemKey>,
    /// Structure vs array, with type detail.
    pub kind: SnapshotKind,
    /// Object count for structures; capacity for arrays.
    pub size: usize,
    /// Unique-element size for arrays (equals `size` for structures).
    pub unique_size: usize,
    /// Non-null references traversed inside arrays belonging to the
    /// structure (the paper's separate reference count).
    pub refs_traversed: usize,
}

impl Snapshot {
    /// Size under the given array strategy (structures ignore it).
    pub fn size_under(&self, strategy: ArraySizeStrategy) -> usize {
        match (&self.kind, strategy) {
            (SnapshotKind::Array { .. }, ArraySizeStrategy::UniqueElements) => self.unique_size,
            _ => self.size,
        }
    }

    /// The reference keys (objects and arrays) of this snapshot —
    /// globally unique identities usable in reverse maps.
    pub fn ref_keys(&self) -> impl Iterator<Item = ElemKey> + '_ {
        self.keys
            .iter()
            .copied()
            .filter(|k| !matches!(k, ElemKey::Int(_)))
    }

    /// The primitive value keys of this snapshot.
    pub fn int_keys(&self) -> impl Iterator<Item = i64> + '_ {
        self.keys.iter().filter_map(|k| match k {
            ElemKey::Int(v) => Some(*v),
            _ => None,
        })
    }

    /// Whether two snapshots are equivalent under `criterion`.
    pub fn equivalent(&self, other: &Snapshot, criterion: EquivalenceCriterion) -> bool {
        match criterion {
            EquivalenceCriterion::AllElements => self.keys == other.keys,
            EquivalenceCriterion::SomeElements => {
                self.keys.intersection(&other.keys).next().is_some()
            }
            EquivalenceCriterion::SameArray => {
                let root = |s: &Snapshot| {
                    s.keys.iter().find_map(|k| match k {
                        ElemKey::Arr(a) => Some(*a),
                        _ => None,
                    })
                };
                matches!(
                    (&self.kind, &other.kind),
                    (SnapshotKind::Array { .. }, SnapshotKind::Array { .. })
                ) && root(self).is_some()
                    && root(self) == root(other)
            }
            EquivalenceCriterion::SameType => match (&self.kind, &other.kind) {
                (
                    SnapshotKind::Structure { classes: a },
                    SnapshotKind::Structure { classes: b },
                ) => a.keys().next() == b.keys().next() || a.keys().any(|k| b.contains_key(k)),
                (SnapshotKind::Array { elem: a }, SnapshotKind::Array { elem: b }) => a == b,
                _ => false,
            },
        }
    }
}

/// How incremental (write-versioned) snapshot caching behaves.
///
/// The guest heap stamps every object and array with the mutation epoch
/// of its last write (see `algoprof_vm::Heap::epoch`). A cached
/// [`Measurement`] whose traversed containers are all unmodified since
/// it was taken is still exact, so the traversal can be skipped (or
/// partially redone when only a few containers changed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IncrementalMode {
    /// Always re-traverse (the paper's original behaviour).
    Disabled,
    /// Reuse cached measurements validated by heap write-versioning.
    #[default]
    Enabled,
    /// Run the incremental path *and* a from-scratch traversal, and
    /// assert the snapshots are equal. Used by tests and benchmarks to
    /// prove the optimization exact.
    Differential,
}

/// Counters describing how much snapshot work a profiling run did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotStats {
    /// From-scratch traversals performed.
    pub full_walks: u64,
    /// Measurements answered entirely from cache.
    pub cache_hits: u64,
    /// Measurements answered by re-scanning only modified containers.
    pub partial_redos: u64,
    /// Objects visited by traversals (full walks and partial redos).
    pub objects_traversed: u64,
    /// Arrays visited by traversals.
    pub arrays_traversed: u64,
    /// Array elements examined by traversals.
    pub elements_scanned: u64,
}

impl SnapshotStats {
    /// Total traversal effort: containers visited plus elements scanned.
    pub fn traversal_work(&self) -> u64 {
        self.objects_traversed + self.arrays_traversed + self.elements_scanned
    }
}

impl AddAssign for SnapshotStats {
    fn add_assign(&mut self, other: SnapshotStats) {
        // Destructured so a new counter cannot be left out of the sum.
        let SnapshotStats {
            full_walks,
            cache_hits,
            partial_redos,
            objects_traversed,
            arrays_traversed,
            elements_scanned,
        } = other;
        self.full_walks += full_walks;
        self.cache_hits += cache_hits;
        self.partial_redos += partial_redos;
        self.objects_traversed += objects_traversed;
        self.arrays_traversed += arrays_traversed;
        self.elements_scanned += elements_scanned;
    }
}

/// One container (object or array) visited by a traversal, with the
/// outgoing references the traversal followed out of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContainerRecord {
    /// The container itself.
    pub key: ElemKey,
    /// Where, in [`Measurement::edges`], the non-null references the
    /// traversal followed out of this container (recursive fields for
    /// objects, elements for ref arrays) are stored, sorted so a later
    /// re-scan can diff the edge multiset.
    pub edges: Range<u32>,
    /// Non-null references counted inside this container when it is an
    /// array (contributes to [`Snapshot::refs_traversed`]).
    pub array_refs: usize,
}

/// A [`Snapshot`] plus everything needed to decide later whether a
/// traversal can reuse it: the root, the heap epoch it reflects, the
/// containers whose mutation would invalidate it, and whether a walk
/// from any other member would find the same members.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Measurement {
    /// The snapshot taken.
    pub snapshot: Snapshot,
    /// The reference the traversal started from.
    pub root: ElemKey,
    /// Heap epoch this measurement reflects: it is exact as long as no
    /// container was stamped after this epoch.
    pub epoch: u64,
    /// Containers whose mutation invalidates the snapshot, sorted by
    /// key. For structures these are the visited objects and ref-kind
    /// arrays (primitive arrays contribute only their identity, which
    /// element stores cannot change); for arrays, every visited array.
    pub containers: Vec<ContainerRecord>,
    /// The containers' outgoing edges, one range per container (see
    /// [`ContainerRecord::edges`]). A partial redo may leave ranges no
    /// container points at any more.
    pub edges: Vec<ElemKey>,
    /// Position in the heap's array write log when this measurement was
    /// taken (see `Heap::log_pos`). [`try_partial_array`] replays the
    /// entries journalled since then instead of re-scanning elements.
    /// `u64::MAX` marks a measurement with no usable log window.
    pub log_pos: u64,
    /// Multiset of element-derived keys (`Int` values and `Obj`
    /// references) of an array measurement, so the write-log replay can
    /// drop a key exactly when its last occurrence is overwritten.
    /// Empty for structure measurements.
    pub elem_counts: BTreeMap<ElemKey, usize>,
    /// Set by a structure walk when every member reaches the root, so
    /// that, while the measurement is exact, a walk from any of its
    /// objects finds the same members and hence the same snapshot (see
    /// [`Measurement::walks_alike_from`]). Never set for arrays.
    pub strongly_connected: bool,
}

impl Measurement {
    /// Wraps a bare snapshot as a never-reusable measurement (epoch 0
    /// predates every allocation, and the container set is left empty
    /// only when the snapshot has no reference keys). Intended for tests
    /// and for synthetic registry population.
    pub fn detached(snapshot: Snapshot) -> Measurement {
        let root = snapshot.ref_keys().next().unwrap_or(ElemKey::Int(0));
        let containers = snapshot
            .ref_keys()
            .map(|key| ContainerRecord {
                key,
                edges: 0..0,
                array_refs: 0,
            })
            .collect();
        Measurement {
            snapshot,
            root,
            epoch: 0,
            containers,
            edges: Vec::new(),
            log_pos: u64::MAX,
            elem_counts: BTreeMap::new(),
            strongly_connected: false,
        }
    }

    /// Finds the container record for `key`, if the traversal visited it.
    pub fn container(&self, key: ElemKey) -> Option<&ContainerRecord> {
        self.containers
            .binary_search_by(|c| c.key.cmp(&key))
            .ok()
            .map(|i| &self.containers[i])
    }

    /// Whether a walk from `root` finds the members a walk from
    /// `self.root` found: `root` is the same reference, or an object
    /// container of a strongly connected structure. Every member of such
    /// a structure reaches `self.root`, and `self.root` reaches it, so
    /// the walks from either one reach the same set, and every
    /// [`Snapshot`] field is a function of that set.
    pub fn walks_alike_from(&self, root: ElemKey) -> bool {
        self.root == root
            || (self.strongly_connected
                && matches!(root, ElemKey::Obj(_))
                && self.container(root).is_some())
    }

    /// Whether every container is unmodified since `self.epoch` — i.e.
    /// a traversal from `self.root` would reproduce `self.snapshot`
    /// exactly.
    pub fn still_exact(&self, heap: &Heap) -> bool {
        self.containers.iter().all(|c| match c.key {
            ElemKey::Obj(o) => heap.object_stamp(o) <= self.epoch,
            ElemKey::Arr(a) => heap.array_stamp(a) <= self.epoch,
            ElemKey::Int(_) => true,
        })
    }
}

/// Appends the sorted outgoing-edge multiset of one container to
/// `edges`, as the structure traversal sees it: recursive-field
/// references for objects, elements for ref arrays. Returns the number
/// of references counted inside an array (0 for objects), or `None`
/// for a primitive array: it is a member of a structure but not a
/// container of it, since its element stores cannot change a structure
/// snapshot.
fn scan_container(
    program: &CompiledProgram,
    heap: &Heap,
    key: ElemKey,
    edges: &mut Vec<ElemKey>,
) -> Option<usize> {
    let from = edges.len();
    let refs = |v: &Value| match *v {
        Value::Obj(c) => Some(ElemKey::Obj(c)),
        Value::Arr(c) => Some(ElemKey::Arr(c)),
        _ => None,
    };
    let array_refs = match key {
        ElemKey::Obj(o) => {
            let layout = &program.class(heap.object(o).class).field_layout;
            for (v, &fid) in heap.fields(o).iter().zip(layout) {
                if program.field(fid).is_recursive {
                    edges.extend(refs(v));
                }
            }
            0
        }
        ElemKey::Arr(a) => {
            let arr = heap.array(a);
            if arr.elem != ElemKind::Ref {
                return None;
            }
            edges.extend(arr.elems.iter().filter_map(refs));
            edges.len() - from
        }
        ElemKey::Int(_) => return None,
    };
    edges[from..].sort_unstable();
    Some(array_refs)
}

/// Counts one container visited by a structure traversal into `stats`.
fn count_visit(heap: &Heap, key: ElemKey, stats: &mut SnapshotStats) {
    match key {
        ElemKey::Obj(_) => stats.objects_traversed += 1,
        ElemKey::Arr(a) => {
            stats.arrays_traversed += 1;
            stats.elements_scanned += heap.array(a).elems.len() as u64;
        }
        ElemKey::Int(_) => {}
    }
}

/// Whether `key` can be a member of a structure: objects of recursive
/// classes and arrays (the structure membership rule of paper §3.4).
fn joins_structure(program: &CompiledProgram, heap: &Heap, key: ElemKey) -> bool {
    match key {
        ElemKey::Obj(o) => program.class(heap.object(o).class).is_recursive,
        ElemKey::Arr(_) => true,
        ElemKey::Int(_) => false,
    }
}

/// Takes a snapshot of the recursive structure reachable from `start`
/// (an object of a recursive class), following recursive fields and the
/// arrays they hold.
pub fn snapshot_structure(program: &CompiledProgram, heap: &Heap, start: ObjRef) -> Snapshot {
    let mut marks = VisitMarks::default();
    measure_structure(
        program,
        heap,
        start,
        &mut marks,
        &mut SnapshotStats::default(),
    )
    .snapshot
}

/// Like [`snapshot_structure`], but also records the traversal's
/// containers and epoch for later incremental reuse, and counts the
/// work into `stats`. `marks` is scratch space, reused across calls.
///
/// One breadth-first pass: each member is marked when first reached,
/// so the member list doubles as the queue, and each container's
/// references are read once into [`Measurement::edges`].
///
/// The walk also checks that every non-root member has an edge back to
/// the member that discovered it. Following those edges leads from any
/// member to the root, so the structure is then strongly connected
/// ([`Measurement::strongly_connected`]). A primitive array member has
/// no edges, so any structure holding one fails the check.
pub fn measure_structure(
    program: &CompiledProgram,
    heap: &Heap,
    start: ObjRef,
    marks: &mut VisitMarks,
    stats: &mut SnapshotStats,
) -> Measurement {
    marks.begin(heap);
    let mut members = Vec::new();
    // `discoverer[i]` is the member whose edge first reached `members[i]`
    // (the root discovers itself).
    let mut discoverer = Vec::new();
    let root = ElemKey::Obj(start);
    if marks.mark(root) && joins_structure(program, heap, root) {
        members.push(root);
        discoverer.push(root);
    }
    let mut strongly_connected = true;
    let mut containers = Vec::new();
    let mut edges = Vec::new();
    let mut class_counts: Vec<(ClassId, usize)> = Vec::new();
    let mut refs_traversed = 0;
    let mut next = 0;
    while let Some(&key) = members.get(next) {
        next += 1;
        count_visit(heap, key, stats);
        if let ElemKey::Obj(o) = key {
            let class = heap.object(o).class;
            match class_counts.iter_mut().find(|(c, _)| *c == class) {
                Some((_, n)) => *n += 1,
                None => class_counts.push((class, 1)),
            }
        }
        let from = edges.len();
        let Some(array_refs) = scan_container(program, heap, key, &mut edges) else {
            strongly_connected = false;
            continue;
        };
        if strongly_connected && next > 1 {
            strongly_connected = edges[from..].binary_search(&discoverer[next - 1]).is_ok();
        }
        for &child in &edges[from..] {
            if marks.mark(child) && joins_structure(program, heap, child) {
                members.push(child);
                discoverer.push(key);
            }
        }
        refs_traversed += array_refs;
        containers.push(ContainerRecord {
            key,
            edges: from as u32..edges.len() as u32,
            array_refs,
        });
    }
    containers.sort_unstable_by_key(|c| c.key);
    // Members are the containers plus any primitive arrays; without
    // the latter, the sorted containers already give the sorted keys.
    let keys = if members.len() == containers.len() {
        containers.iter().map(|c| c.key).collect()
    } else {
        members.into_iter().collect()
    };
    stats.full_walks += 1;
    let size = class_counts.iter().map(|&(_, n)| n).sum();
    Measurement {
        snapshot: Snapshot {
            keys,
            kind: SnapshotKind::Structure {
                classes: class_counts.into_iter().collect(),
            },
            size,
            unique_size: size,
            refs_traversed,
        },
        root,
        epoch: heap.epoch(),
        containers,
        edges,
        log_pos: heap.log_pos(),
        elem_counts: BTreeMap::new(),
        strongly_connected,
    }
}

/// Takes a snapshot of `arr`, recursing into nested arrays (a
/// 2-dimensional triangular array `{[0],[1],[2]}` has capacity
/// `3 + (0+1+2)`, mirroring the algorithmic-step count of the analogous
/// loop nest — paper §3.4).
pub fn snapshot_array(heap: &Heap, arr: ArrRef) -> Snapshot {
    measure_array(heap, arr, &mut SnapshotStats::default()).snapshot
}

/// Like [`snapshot_array`], but also records the traversal's containers
/// and epoch for later incremental reuse, and counts the work into
/// `stats`.
pub fn measure_array(heap: &Heap, arr: ArrRef, stats: &mut SnapshotStats) -> Measurement {
    let mut keys = BTreeSet::new();
    let mut capacity = 0usize;
    let mut unique = BTreeSet::new();
    let mut refs_traversed = 0usize;
    let root_elem = heap.array(arr).elem;
    let mut containers = Vec::new();
    let mut edges = Vec::new();
    let mut elem_counts: BTreeMap<ElemKey, usize> = BTreeMap::new();

    let mut queue = vec![arr];
    let mut seen = BTreeSet::new();
    while let Some(a) = queue.pop() {
        if !seen.insert(a) {
            continue;
        }
        keys.insert(ElemKey::Arr(a));
        let array = heap.array(a);
        capacity += array.elems.len();
        stats.elements_scanned += array.elems.len() as u64;
        let from = edges.len();
        let mut array_refs = 0usize;
        match array.elem {
            ElemKind::Int | ElemKind::Bool => {
                for &e in &array.elems {
                    let v = match e {
                        Value::Int(v) => v,
                        Value::Bool(b) => b as i64,
                        _ => continue,
                    };
                    keys.insert(ElemKey::Int(v));
                    unique.insert(ElemKey::Int(v));
                    *elem_counts.entry(ElemKey::Int(v)).or_insert(0) += 1;
                }
            }
            ElemKind::Ref => {
                for &e in &array.elems {
                    match e {
                        Value::Obj(o) => {
                            keys.insert(ElemKey::Obj(o));
                            unique.insert(ElemKey::Obj(o));
                            *elem_counts.entry(ElemKey::Obj(o)).or_insert(0) += 1;
                            refs_traversed += 1;
                            stats.objects_traversed += 1;
                            edges.push(ElemKey::Obj(o));
                            array_refs += 1;
                        }
                        Value::Arr(child) => {
                            unique.insert(ElemKey::Arr(child));
                            refs_traversed += 1;
                            edges.push(ElemKey::Arr(child));
                            array_refs += 1;
                            queue.push(child);
                        }
                        _ => {}
                    }
                }
            }
        }
        edges[from..].sort_unstable();
        containers.push(ContainerRecord {
            key: ElemKey::Arr(a),
            edges: from as u32..edges.len() as u32,
            array_refs,
        });
    }
    containers.sort_unstable_by_key(|c| c.key);
    stats.full_walks += 1;
    stats.arrays_traversed += containers.len() as u64;

    Measurement {
        snapshot: Snapshot {
            keys,
            kind: SnapshotKind::Array { elem: root_elem },
            size: capacity,
            unique_size: unique.len(),
            refs_traversed,
        },
        root: ElemKey::Arr(arr),
        epoch: heap.epoch(),
        containers,
        edges,
        log_pos: heap.log_pos(),
        elem_counts,
        strongly_connected: false,
    }
}

/// Multiset difference of two sorted edge lists: appends to `additions`
/// what `new` has beyond `old`, and returns whether `old` has an edge
/// `new` lacks (a removal, so the cached reachable set may have shrunk).
fn diff_edges(old: &[ElemKey], new: &[ElemKey], additions: &mut Vec<ElemKey>) -> bool {
    let (mut i, mut j) = (0, 0);
    let mut removed = false;
    while i < old.len() && j < new.len() {
        match old[i].cmp(&new[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Greater => {
                additions.push(new[j]);
                j += 1;
            }
            std::cmp::Ordering::Less => {
                removed = true;
                i += 1;
            }
        }
    }
    additions.extend_from_slice(&new[j..]);
    removed || i < old.len()
}

/// How [`try_partial_structure`] brought a measurement up to date.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Redo {
    /// No edge was removed: the snapshot grew by the newly linked
    /// region, whose reference keys are listed (for reverse-map
    /// maintenance). The measurement keeps its root.
    Grown(Vec<ElemKey>),
    /// Edges were removed, but the members are unchanged: a walk from
    /// the requested root over the current edge lists reached every one
    /// of them. The measurement is now rooted there.
    Rewired,
}

/// Attempts to bring a stale *structure* measurement up to date by
/// re-scanning only the containers stamped after `m.epoch`, instead of
/// walking the heap again. `root` is the reference the caller would
/// walk from; `marks` is scratch space, as for [`measure_structure`].
///
/// When modified containers gained edges without losing any, unmodified
/// containers keep their edge sets, so nothing can have fallen out of
/// the reachable set, and everything newly reachable is behind an added
/// edge: the newly linked region is traversed ([`Redo::Grown`]). This
/// answers for a walk from `m.root`.
///
/// When an edge was removed, the redo answers for a walk from `root`
/// ([`Redo::Rewired`]), and only if every member is a container (no
/// primitive array), every added edge to a key that can join a
/// structure points at a member, and `root` is an object container.
/// Then the members are closed under the current edges: old edges of
/// unmodified containers, kept edges of modified ones, and the added
/// ones all lead to members or to keys that cannot join. A walk from
/// `root` over the measurement's own edge lists, which the re-scan made
/// current, therefore reaches exactly what a heap walk from `root`
/// reaches. If that is every member, the member set, and with it every
/// [`Snapshot`] field, equals a full walk's; the walk visits in
/// [`measure_structure`]'s order, so its discoverer back-edge rule
/// gives the same [`Measurement::strongly_connected`]. If it reaches
/// fewer, the structure shrank and the caller must walk.
///
/// Returns `None` when the measurement is not a structure or neither
/// case applies — callers must then fall back to a full walk.
pub fn try_partial_structure(
    program: &CompiledProgram,
    heap: &Heap,
    m: &mut Measurement,
    root: ElemKey,
    marks: &mut VisitMarks,
    stats: &mut SnapshotStats,
) -> Option<Redo> {
    if !matches!(m.snapshot.kind, SnapshotKind::Structure { .. }) {
        return None;
    }

    // Re-scan every modified container onto the end of the edge list,
    // diffing its edge multiset. An edge list that fits its old range
    // is moved there; a grown one keeps its new range.
    let mut additions: Vec<ElemKey> = Vec::new();
    let mut removed = false;
    let mut refs_delta = 0isize;
    for c in &mut m.containers {
        let modified = match c.key {
            ElemKey::Obj(o) => heap.object_stamp(o) > m.epoch,
            ElemKey::Arr(a) => heap.array_stamp(a) > m.epoch,
            ElemKey::Int(_) => false,
        };
        if !modified {
            continue;
        }
        let from = m.edges.len();
        let new_refs = scan_container(program, heap, c.key, &mut m.edges)?;
        let old = c.edges.start as usize..c.edges.end as usize;
        removed |= diff_edges(&m.edges[old.clone()], &m.edges[from..], &mut additions);
        count_visit(heap, c.key, stats);
        refs_delta += new_refs as isize - c.array_refs as isize;
        c.array_refs = new_refs;
        let len = m.edges.len() - from;
        if len <= old.len() {
            m.edges.copy_within(from.., old.start);
            m.edges.truncate(from);
            c.edges = c.edges.start..c.edges.start + len as u32;
        } else {
            c.edges = from as u32..m.edges.len() as u32;
        }
    }

    let redo = if removed {
        m.strongly_connected = walk_rewired(program, heap, m, root, &additions, marks)?;
        m.root = root;
        Redo::Rewired
    } else {
        Redo::Grown(grow(program, heap, m, additions, &mut refs_delta, stats))
    };

    // Ranges left behind by grown edge lists are garbage; once they
    // outweigh the live edges, copy the live ones into a fresh list so a
    // structure grown one edge per redo stays linear in memory.
    let live: usize = m.containers.iter().map(|c| c.edges.len()).sum();
    if m.edges.len() > 2 * live {
        let mut edges = Vec::with_capacity(live);
        for c in &mut m.containers {
            let from = edges.len() as u32;
            edges.extend_from_slice(&m.edges[c.edges.start as usize..c.edges.end as usize]);
            c.edges = from..edges.len() as u32;
        }
        m.edges = edges;
    }
    m.snapshot.refs_traversed = (m.snapshot.refs_traversed as isize + refs_delta) as usize;
    m.snapshot.unique_size = m.snapshot.size;
    m.epoch = heap.epoch();
    stats.partial_redos += 1;
    Some(redo)
}

/// The growth case of [`try_partial_structure`]: traverses from the
/// added edges under the membership rules of [`measure_structure`],
/// adding what joins to the snapshot. Returns the keys that joined.
fn grow(
    program: &CompiledProgram,
    heap: &Heap,
    m: &mut Measurement,
    mut frontier: Vec<ElemKey>,
    refs_delta: &mut isize,
    stats: &mut SnapshotStats,
) -> Vec<ElemKey> {
    let mut added_keys = Vec::new();
    let mut new_containers = Vec::new();
    while let Some(key) = frontier.pop() {
        if m.snapshot.keys.contains(&key) || !joins_structure(program, heap, key) {
            continue;
        }
        m.snapshot.keys.insert(key);
        if let ElemKey::Obj(o) = key {
            m.snapshot.size += 1;
            if let SnapshotKind::Structure { classes } = &mut m.snapshot.kind {
                *classes.entry(heap.object(o).class).or_insert(0) += 1;
            }
        }
        count_visit(heap, key, stats);
        added_keys.push(key);
        let from = m.edges.len();
        if let Some(array_refs) = scan_container(program, heap, key, &mut m.edges) {
            *refs_delta += array_refs as isize;
            frontier.extend_from_slice(&m.edges[from..]);
            new_containers.push(ContainerRecord {
                key,
                edges: from as u32..m.edges.len() as u32,
                array_refs,
            });
        }
    }
    if !new_containers.is_empty() {
        m.containers.extend(new_containers);
        m.containers.sort_unstable_by_key(|c| c.key);
    }
    // Kept edges keep every old member reaching the root, but a new
    // member need not reach it.
    if !added_keys.is_empty() {
        m.strongly_connected = false;
    }
    added_keys
}

/// The rewire case of [`try_partial_structure`]: checks its three
/// preconditions, then walks from `root` over `m`'s current edge lists
/// in [`measure_structure`]'s order, finding each target's container
/// through `marks`. Returns the strongly connected flag of that walk
/// when it reaches every member, and `None` otherwise.
fn walk_rewired(
    program: &CompiledProgram,
    heap: &Heap,
    m: &Measurement,
    root: ElemKey,
    additions: &[ElemKey],
    marks: &mut VisitMarks,
) -> Option<bool> {
    let n = m.containers.len();
    if m.snapshot.keys.len() != n || !matches!(root, ElemKey::Obj(_)) {
        return None;
    }
    marks.index(heap, &m.containers);
    let start = marks.slot(root)?;
    if !additions
        .iter()
        .all(|&t| marks.slot(t).is_some() || !joins_structure(program, heap, t))
    {
        return None;
    }
    // `discoverer[i]` is the position of the container whose edge first
    // reached container `i` (the root discovers itself); `order` is the
    // queue.
    let mut discoverer = vec![u32::MAX; n];
    discoverer[start] = start as u32;
    let mut order = Vec::with_capacity(n);
    order.push(start);
    let mut strongly_connected = true;
    let mut next = 0;
    while let Some(&i) = order.get(next) {
        next += 1;
        let edges =
            &m.edges[m.containers[i].edges.start as usize..m.containers[i].edges.end as usize];
        if strongly_connected && next > 1 {
            let back = m.containers[discoverer[i] as usize].key;
            strongly_connected = edges.binary_search(&back).is_ok();
        }
        for &child in edges {
            if let Some(j) = marks.slot(child) {
                if discoverer[j] == u32::MAX {
                    discoverer[j] = i as u32;
                    order.push(j);
                }
            }
        }
    }
    (order.len() == n).then_some(strongly_connected)
}

/// The snapshot key an array element contributes, if any. `Arr` values
/// are deliberately absent: a nested-array store changes the container
/// set and must force a full walk, so the replay bails before asking.
fn elem_key_of(v: Value) -> Option<ElemKey> {
    match v {
        Value::Int(n) => Some(ElemKey::Int(n)),
        Value::Bool(b) => Some(ElemKey::Int(b as i64)),
        Value::Obj(o) => Some(ElemKey::Obj(o)),
        _ => None,
    }
}

/// Attempts to bring a stale *array* measurement up to date by
/// replaying the heap's array write log instead of re-scanning every
/// element.
///
/// Sound because `Heap::set_elem` journals every element store since
/// `m.log_pos` (and raw `array_mut` access truncates the journal,
/// making [`Heap::array_writes_since`] return `None` here), so each
/// logged `(old, new)` pair updates the element-key multiset exactly
/// as a re-scan would observe. Bails with `None` — caller falls back
/// to a full walk — when the log window is gone or when any journalled
/// write on a traversed container stores or removes a nested array
/// (that changes which containers the traversal must visit).
///
/// Container `edges`/`array_refs` records are *not* maintained here:
/// the array path never consults them (replay revalidates via the log
/// and the stamps alone).
pub fn try_partial_array(
    heap: &Heap,
    m: &mut Measurement,
    stats: &mut SnapshotStats,
) -> Option<()> {
    if !matches!(m.snapshot.kind, SnapshotKind::Array { .. }) {
        return None;
    }
    let entries = heap.array_writes_since(m.log_pos)?;
    if entries.iter().any(|w| {
        m.container(ElemKey::Arr(w.arr)).is_some()
            && (matches!(w.old, Value::Arr(_)) || matches!(w.new, Value::Arr(_)))
    }) {
        return None;
    }
    for &w in entries {
        if m.container(ElemKey::Arr(w.arr)).is_none() {
            continue;
        }
        stats.elements_scanned += 1;
        if let Some(k) = elem_key_of(w.old) {
            let count = m
                .elem_counts
                .get_mut(&k)
                .expect("journalled overwrite of an untracked element key");
            *count -= 1;
            if *count == 0 {
                m.elem_counts.remove(&k);
                m.snapshot.keys.remove(&k);
                m.snapshot.unique_size -= 1;
            }
            if matches!(k, ElemKey::Obj(_)) {
                m.snapshot.refs_traversed -= 1;
            }
        }
        if let Some(k) = elem_key_of(w.new) {
            let count = m.elem_counts.entry(k).or_insert(0);
            *count += 1;
            if *count == 1 {
                m.snapshot.keys.insert(k);
                m.snapshot.unique_size += 1;
            }
            if matches!(k, ElemKey::Obj(_)) {
                m.snapshot.refs_traversed += 1;
                stats.objects_traversed += 1;
            }
        }
    }
    m.epoch = heap.epoch();
    m.log_pos = heap.log_pos();
    stats.partial_redos += 1;
    Some(())
}

/// Measures the structure or array behind reference `r` from scratch.
/// `marks` is scratch space for structure walks, reused across calls.
pub fn measure_value(
    program: &CompiledProgram,
    heap: &Heap,
    r: Value,
    marks: &mut VisitMarks,
    stats: &mut SnapshotStats,
) -> Option<Measurement> {
    match r {
        Value::Obj(o) => Some(measure_structure(program, heap, o, marks, stats)),
        Value::Arr(a) => Some(measure_array(heap, a, stats)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algoprof_vm::{compile, InstrumentOptions, Interp, NoopProfiler};

    /// Builds a program, runs it, and returns (program, heap).
    fn run(src: &str) -> (CompiledProgram, Heap) {
        let p = compile(src)
            .expect("compiles")
            .instrument(&InstrumentOptions::default());
        let mut interp = Interp::new(&p);
        interp.run(&mut NoopProfiler).expect("runs");
        let heap = interp.heap().clone();
        (p, heap)
    }

    #[test]
    fn structure_snapshot_counts_linked_list() {
        let (p, heap) = run(r#"class Main { static int main() {
                Node head = null;
                for (int i = 0; i < 6; i = i + 1) {
                    Node n = new Node();
                    n.next = head;
                    head = n;
                }
                return 0;
            } }
            class Node { Node next; }"#);
        // Object 0 is the first Node allocated (the tail).
        let snap = snapshot_structure(&p, &heap, ObjRef(5));
        assert_eq!(snap.size, 6, "head reaches all 6 nodes");
        let tail_snap = snapshot_structure(&p, &heap, ObjRef(0));
        assert_eq!(tail_snap.size, 1, "singly-linked tail reaches only itself");
        assert!(snap.equivalent(&tail_snap, EquivalenceCriterion::SomeElements));
        assert!(!snap.equivalent(&tail_snap, EquivalenceCriterion::AllElements));
    }

    #[test]
    fn bidirectional_list_reaches_all_from_anywhere() {
        let (p, heap) = run(r#"class Main { static int main() {
                Node head = new Node();
                Node cur = head;
                for (int i = 0; i < 4; i = i + 1) {
                    Node n = new Node();
                    cur.next = n;
                    n.prev = cur;
                    cur = n;
                }
                return 0;
            } }
            class Node { Node next; Node prev; }"#);
        for i in 0..5 {
            let snap = snapshot_structure(&p, &heap, ObjRef(i));
            assert_eq!(snap.size, 5, "node {i} reaches the whole chain");
        }
    }

    #[test]
    fn triangular_array_capacity_matches_paper() {
        let (_, heap) = run(r#"class Main { static int main() {
                int[][] tri = new int[][] { new int[0], new int[1], new int[2] };
                return tri.length;
            } }"#);
        // The outer array is allocated first (ArrRef 0), then its rows.
        let snap = snapshot_array(&heap, ArrRef(0));
        #[allow(clippy::identity_op)] // spelled out to mirror the paper's arithmetic
        let expected = 3 + 0 + 1 + 2;
        assert_eq!(snap.size, expected);
    }

    #[test]
    fn unique_elements_sees_used_fraction() {
        let (_, heap) = run(r#"class Main { static int main() {
                int[] values = new int[1000];
                for (int i = 0; i < 10; i = i + 1) { values[i] = i * 2; }
                return 0;
            } }"#);
        let snap = snapshot_array(&heap, ArrRef(0));
        assert_eq!(snap.size_under(ArraySizeStrategy::Capacity), 1000);
        // Distinct values are {0, 2, ..., 18}: ten of them (unused slots
        // hold 0, which collapses into the same key — the paper's noted
        // duplicate weakness works in our favour here).
        assert_eq!(snap.size_under(ArraySizeStrategy::UniqueElements), 10);
    }

    #[test]
    fn resized_ref_arrays_overlap_via_elements() {
        let (_, heap) = run(r#"class Main { static int main() {
                Object[] small = new Object[2];
                small[0] = new Item();
                small[1] = new Item();
                Object[] big = new Object[4];
                for (int i = 0; i < 2; i = i + 1) { big[i] = small[i]; }
                return 0;
            } }
            class Item { }"#);
        let small = snapshot_array(&heap, ArrRef(0));
        let big = snapshot_array(&heap, ArrRef(1));
        assert!(small.equivalent(&big, EquivalenceCriterion::SomeElements));
        assert!(!small.equivalent(&big, EquivalenceCriterion::SameArray));
        assert!(small.equivalent(&small, EquivalenceCriterion::SameArray));
    }

    #[test]
    fn same_type_criterion() {
        let (p, heap) = run(r#"class Main { static int main() {
                Node a = new Node();
                Node b = new Node();
                return 0;
            } }
            class Node { Node next; }"#);
        let a = snapshot_structure(&p, &heap, ObjRef(0));
        let b = snapshot_structure(&p, &heap, ObjRef(1));
        assert!(!a.equivalent(&b, EquivalenceCriterion::SomeElements));
        assert!(a.equivalent(&b, EquivalenceCriterion::SameType));
    }

    #[test]
    fn partial_array_replay_tracks_element_multiset() {
        let mut heap = Heap::new();
        let a = heap.alloc_array(ElemKind::Int, 4);
        heap.set_elem(a, 0, Value::Int(5));
        heap.set_elem(a, 1, Value::Int(5));
        heap.set_elem(a, 2, Value::Int(7));
        let mut stats = SnapshotStats::default();
        let mut m = measure_array(&heap, a, &mut stats);

        // Overwriting one of the two 5s keeps the key alive...
        heap.set_elem(a, 0, Value::Int(9));
        assert!(try_partial_array(&heap, &mut m, &mut stats).is_some());
        assert_eq!(m.snapshot, snapshot_array(&heap, a));
        assert!(m.snapshot.keys.contains(&ElemKey::Int(5)));

        // ...overwriting the last occurrence drops it.
        heap.set_elem(a, 1, Value::Int(9));
        assert!(try_partial_array(&heap, &mut m, &mut stats).is_some());
        assert_eq!(m.snapshot, snapshot_array(&heap, a));
        assert!(!m.snapshot.keys.contains(&ElemKey::Int(5)));
        assert_eq!(stats.partial_redos, 2);
    }

    #[test]
    fn partial_array_replay_handles_ref_elements() {
        let mut heap = Heap::new();
        let o1 = heap.alloc_object(ClassId(0), 0);
        let o2 = heap.alloc_object(ClassId(0), 0);
        let a = heap.alloc_array(ElemKind::Ref, 3);
        heap.set_elem(a, 0, Value::Obj(o1));
        heap.set_elem(a, 1, Value::Obj(o2));
        let mut stats = SnapshotStats::default();
        let mut m = measure_array(&heap, a, &mut stats);
        assert_eq!(m.snapshot.refs_traversed, 2);

        // Clear one slot and duplicate the other object: the replayed
        // snapshot must match a fresh traversal key-for-key.
        heap.set_elem(a, 0, Value::Null);
        heap.set_elem(a, 2, Value::Obj(o2));
        assert!(try_partial_array(&heap, &mut m, &mut stats).is_some());
        assert_eq!(m.snapshot, snapshot_array(&heap, a));
        assert_eq!(m.snapshot.refs_traversed, 2);
        assert!(!m.snapshot.keys.contains(&ElemKey::Obj(o1)));
    }

    #[test]
    fn partial_array_bails_on_nested_array_store() {
        let mut heap = Heap::new();
        let inner = heap.alloc_array(ElemKind::Int, 2);
        let other = heap.alloc_array(ElemKind::Int, 2);
        let outer = heap.alloc_array(ElemKind::Ref, 2);
        heap.set_elem(outer, 0, Value::Arr(inner));
        let mut stats = SnapshotStats::default();
        let mut m = measure_array(&heap, outer, &mut stats);
        assert_eq!(m.snapshot.size, 4, "outer capacity plus nested");

        // Linking another array changes the container set: the replay
        // must refuse so the caller re-walks.
        heap.set_elem(outer, 1, Value::Arr(other));
        assert!(try_partial_array(&heap, &mut m, &mut stats).is_none());
    }

    #[test]
    fn partial_array_bails_after_raw_access() {
        let mut heap = Heap::new();
        let a = heap.alloc_array(ElemKind::Int, 3);
        heap.set_elem(a, 0, Value::Int(1));
        let mut stats = SnapshotStats::default();
        let mut m = measure_array(&heap, a, &mut stats);

        // An unjournalled raw write truncates the log; the stale replay
        // window must not claim the snapshot is current.
        heap.array_mut(a).elems[1] = Value::Int(8);
        assert!(try_partial_array(&heap, &mut m, &mut stats).is_none());
        let fresh = measure_array(&heap, a, &mut stats);
        assert!(fresh.snapshot.keys.contains(&ElemKey::Int(8)));
    }

    #[test]
    fn visit_marks_survive_generation_wrap() {
        let (p, heap) = run(r#"class Main { static int main() {
                Node head = null;
                for (int i = 0; i < 4; i = i + 1) {
                    Node n = new Node();
                    n.next = head;
                    head = n;
                }
                return 0;
            } }
            class Node { Node next; }"#);
        let want = snapshot_structure(&p, &heap, ObjRef(3));
        // Stamps of generation 1 left from 2^32 walks ago must not read
        // as marked once the generation wraps back to 1.
        let mut marks = VisitMarks {
            generation: u32::MAX,
            objects: vec![1; heap.object_count()],
            ..VisitMarks::default()
        };
        for _ in 0..2 {
            let m = measure_structure(
                &p,
                &heap,
                ObjRef(3),
                &mut marks,
                &mut SnapshotStats::default(),
            );
            assert_eq!(m.snapshot, want);
        }
        assert_eq!(marks.generation, 2, "wrapped past zero");
    }

    #[test]
    fn partial_structure_reuses_edge_ranges_that_fit() {
        let (p, mut heap) = run(r#"class Main { static int main() {
                Node a = new Node();
                Node b = new Node();
                Node c = new Node();
                a.next = b;
                return 0;
            } }
            class Node { Node next; }"#);
        let (a, b, c) = (ObjRef(0), ObjRef(1), ObjRef(2));
        let mut stats = SnapshotStats::default();
        let mut marks = VisitMarks::default();
        let mut m = measure_structure(&p, &heap, a, &mut marks, &mut stats);
        assert_eq!(m.snapshot.size, 2);

        // Re-linking `a` to `c` and back stamps it without changing its
        // edges: the re-scan lands in the old range.
        heap.set_field(a, 0, Value::Obj(c));
        heap.set_field(a, 0, Value::Obj(b));
        let edges_before = m.edges.len();
        let root = ElemKey::Obj(a);
        assert_eq!(
            try_partial_structure(&p, &heap, &mut m, root, &mut marks, &mut stats),
            Some(Redo::Grown(vec![]))
        );
        assert_eq!(m.edges.len(), edges_before);

        // Growing `b` by an edge appends a new range and pulls `c` in.
        heap.set_field(b, 0, Value::Obj(c));
        let added = try_partial_structure(&p, &heap, &mut m, root, &mut marks, &mut stats);
        assert_eq!(added, Some(Redo::Grown(vec![ElemKey::Obj(c)])));
        let rec = m.container(ElemKey::Obj(b)).expect("b is a container");
        let range = rec.edges.start as usize..rec.edges.end as usize;
        assert_eq!(m.edges[range], [ElemKey::Obj(c)]);
        assert_eq!(m.snapshot, snapshot_structure(&p, &heap, a));
    }

    #[test]
    fn partial_structure_edge_list_stays_linear() {
        let (p, mut heap) = run(r#"class Main { static int main() {
                Node root = new Node(200);
                return 0;
            } }
            class Node {
                Node[] children;
                Node(int n) { children = new Node[n]; }
            }"#);
        let (root, kids) = (ObjRef(0), ArrRef(0));
        let node = heap.object(root).class;
        let mut stats = SnapshotStats::default();
        let mut marks = VisitMarks::default();
        let mut m = measure_structure(&p, &heap, root, &mut marks, &mut stats);
        // Each store grows the child array's edge list by one, which
        // never fits its old range.
        for i in 0..200 {
            let kid = heap.alloc_object(node, 1);
            heap.set_elem(kids, i, Value::Obj(kid));
            let redo = try_partial_structure(
                &p,
                &heap,
                &mut m,
                ElemKey::Obj(root),
                &mut marks,
                &mut stats,
            );
            assert!(redo.is_some());
            let live: usize = m.containers.iter().map(|c| c.edges.len()).sum();
            assert!(
                m.edges.len() <= 2 * live,
                "{} edges for {live} live",
                m.edges.len()
            );
        }
        assert_eq!(m.snapshot, snapshot_structure(&p, &heap, root));
    }

    #[test]
    fn nary_tree_size_includes_array_children() {
        let (p, heap) = run(r#"class Main { static int main() {
                Node root = new Node(3);
                for (int i = 0; i < 3; i = i + 1) {
                    root.children[i] = new Node(0);
                }
                return 0;
            } }
            class Node {
                Node[] children;
                Node(int n) { children = new Node[n]; }
            }"#);
        let snap = snapshot_structure(&p, &heap, ObjRef(0));
        assert_eq!(snap.size, 4, "root + 3 children");
        assert_eq!(snap.refs_traversed, 3, "three non-null child references");
    }
}

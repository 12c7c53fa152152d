//! Structure snapshots and size measurement (paper §2.4 and §3.4).
//!
//! Each time an algorithm accesses a data structure, AlgoProf takes a
//! *snapshot*: the set of elements reachable from the accessed reference.
//! Snapshots serve two purposes — *identity* (deciding via an equivalence
//! criterion whether two snapshots are views of the same evolving input)
//! and *size* (object counts for recursive structures, capacity or
//! unique-element counts for arrays).

use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::ops::{AddAssign, Range};
use std::sync::OnceLock;

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

/// The multiset of an array measurement's element keys
/// ([`Measurement::elem_counts`]). Its `Int` keys are values the guest
/// chose, and [`ElemKeyHasher`]'s low bits depend only on a key's low
/// bits: a guest storing multiples of 2³² would put every key in one
/// probe chain. So this map hashes under [`SeededState`] instead.
pub type ElemCounts = HashMap<ElemKey, usize, SeededState>;

/// Builds [`SeededHasher`]s from one random seed per process, so a guest
/// cannot choose keys that collide.
#[derive(Debug, Clone, Copy)]
pub struct SeededState(u64);

impl Default for SeededState {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        SeededState(*SEED.get_or_init(|| RandomState::new().build_hasher().finish()))
    }
}

impl BuildHasher for SeededState {
    type Hasher = SeededHasher;

    fn build_hasher(&self) -> SeededHasher {
        SeededHasher(self.0)
    }
}

/// Mixes each word into the seeded state by rotate and xor, then folds
/// the halves of the state's 128-bit product with a constant, so every
/// bit of a key reaches the low bits the table indexes by.
#[derive(Debug, Clone, Copy)]
pub struct SeededHasher(u64);

impl SeededHasher {
    fn add(&mut self, word: u64) {
        self.0 = self.0.rotate_left(5) ^ word;
    }
}

impl Hasher for SeededHasher {
    fn finish(&self) -> u64 {
        let product = u128::from(self.0) * 0x9e37_79b9_7f4a_7c15;
        product as u64 ^ (product >> 64) as u64
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

/// One generation stamp, and a value, per heap object and per array,
/// indexed by [`ObjRef`] / [`ArrRef`]. Starting a new generation
/// forgets every entry at once, so setting an entry costs one store and
/// a lookup one load. The tables grow to the heap's size when a
/// generation starts.
#[derive(Debug, Default, Clone)]
struct Stamped<T> {
    generation: u32,
    objects: Vec<(u32, T)>,
    arrays: Vec<(u32, T)>,
}

impl<T: Copy + Default> Stamped<T> {
    /// Starts a generation over `heap`: no entry is set afterwards.
    fn begin(&mut self, heap: &Heap) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: stamps from 2^32 generations ago would read as set.
            self.objects.fill((0, T::default()));
            self.arrays.fill((0, T::default()));
            self.generation = 1;
        }
        if self.objects.len() < heap.object_count() {
            self.objects.resize(heap.object_count(), (0, T::default()));
        }
        if self.arrays.len() < heap.array_count() {
            self.arrays.resize(heap.array_count(), (0, T::default()));
        }
    }

    /// Sets `key` to `value`; true when it was not yet set in this
    /// generation. Primitive keys are never set.
    fn set(&mut self, key: ElemKey, value: T) -> bool {
        let entry = match key {
            ElemKey::Obj(o) => &mut self.objects[o.0 as usize],
            ElemKey::Arr(a) => &mut self.arrays[a.0 as usize],
            ElemKey::Int(_) => return false,
        };
        let fresh = entry.0 != self.generation;
        *entry = (self.generation, value);
        fresh
    }

    /// The value `key` was set to in this generation, if it was.
    fn get(&self, key: ElemKey) -> Option<T> {
        let (stamp, value) = match key {
            ElemKey::Obj(o) => self.objects[o.0 as usize],
            ElemKey::Arr(a) => self.arrays[a.0 as usize],
            ElemKey::Int(_) => return None,
        };
        (stamp == self.generation).then_some(value)
    }
}

/// Scratch space for structure walks, meant to be owned by whoever walks
/// repeatedly (the input registry) so its allocations are reused.
///
/// It holds the visit marks of the current walk, an index of the cached
/// measurement's containers (each marked key maps to its position in
/// [`Measurement::containers`]), and the walk's member, discoverer,
/// container and edge buffers. The marks and the index have their own
/// generations, so both are live during one walk.
#[derive(Debug, Default, Clone)]
pub struct VisitMarks {
    visited: Stamped<()>,
    index: Stamped<u32>,
    walk: WalkBuffers,
}

/// The buffers one structure walk fills (see [`VisitMarks`]).
#[derive(Debug, Default, Clone)]
struct WalkBuffers {
    /// Members in the order they were reached; also the queue.
    members: Vec<ElemKey>,
    /// `discoverers[i]` is the member whose edge first reached
    /// `members[i]` (the root discovers itself).
    discoverers: Vec<ElemKey>,
    /// Containers in the order they were visited, with ranges into
    /// `edges`.
    containers: Vec<ContainerRecord>,
    edges: Vec<ElemKey>,
    /// Members that are not containers of the cached measurement.
    uncached: Vec<ElemKey>,
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
/// it was taken is still exact, so the traversal can be skipped. When
/// some changed, a structure is walked again over the cached edge lists
/// of the unmodified ones, and an array replays its journalled stores.
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
    /// Measurements answered by a walk over cached edge lists (for
    /// arrays, by a replay of the write log).
    pub partial_redos: u64,
    /// Objects visited by traversals (full walks and partial redos). A
    /// structure walk counts only the members whose edges it reads from
    /// the heap, not those whose cached edge lists it reuses.
    pub objects_traversed: u64,
    /// Arrays visited by traversals, counted like objects.
    pub arrays_traversed: u64,
    /// Array elements read from the heap by traversals.
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
    /// objects, elements for ref arrays) are stored, sorted so the
    /// walk's back-edge check can binary-search them.
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
    /// [`ContainerRecord::edges`]), in the order the walk visited them.
    /// Every edge belongs to exactly one container's range.
    pub edges: Vec<ElemKey>,
    /// Position in the heap's array write log when this measurement was
    /// taken (see `Heap::log_pos`). [`try_partial_array`] replays the
    /// entries journalled since then instead of re-scanning elements.
    /// `u64::MAX` marks a measurement with no usable log window.
    pub log_pos: u64,
    /// Multiset of element-derived keys (`Int` values and `Obj`
    /// references) of an array measurement, so the write-log replay can
    /// drop a key exactly when its last occurrence is overwritten.
    /// Empty for structure measurements. Hashed: it is only probed,
    /// never iterated, so its order cannot reach a report.
    pub elem_counts: ElemCounts,
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
            elem_counts: ElemCounts::default(),
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
        self.containers
            .iter()
            .all(|c| stamp(heap, c.key) <= self.epoch)
    }
}

/// The heap epoch of `key`'s last mutation (0 for a primitive key).
fn stamp(heap: &Heap, key: ElemKey) -> u64 {
    match key {
        ElemKey::Obj(o) => heap.object_stamp(o),
        ElemKey::Arr(a) => heap.array_stamp(a),
        ElemKey::Int(_) => 0,
    }
}

/// Appends the sorted outgoing-edge multiset of one container to
/// `edges`, as the structure traversal sees it: recursive-field
/// references for objects, elements for ref arrays, and counts the
/// heap read into `stats`. Returns the number of references counted
/// inside an array (0 for objects), or `None` for a primitive array: it
/// is a member of a structure but not a container of it, since its
/// element stores cannot change a structure snapshot.
fn scan_container(
    program: &CompiledProgram,
    heap: &Heap,
    key: ElemKey,
    edges: &mut Vec<ElemKey>,
    stats: &mut SnapshotStats,
) -> Option<usize> {
    let from = edges.len();
    let refs = |v: &Value| match *v {
        Value::Obj(c) => Some(ElemKey::Obj(c)),
        Value::Arr(c) => Some(ElemKey::Arr(c)),
        _ => None,
    };
    let array_refs = match key {
        ElemKey::Obj(o) => {
            stats.objects_traversed += 1;
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
            stats.arrays_traversed += 1;
            stats.elements_scanned += arr.elems.len() as u64;
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

/// Like [`snapshot_structure`], but also records the walk's containers,
/// edges and epoch for later incremental reuse, and counts the work into
/// `stats` as a full walk. `marks` is scratch space, reused across calls.
pub fn measure_structure(
    program: &CompiledProgram,
    heap: &Heap,
    start: ObjRef,
    marks: &mut VisitMarks,
    stats: &mut SnapshotStats,
) -> Measurement {
    // The walk sets every field of this placeholder.
    let mut m = Measurement::detached(Snapshot {
        keys: BTreeSet::new(),
        kind: SnapshotKind::Structure {
            classes: BTreeMap::new(),
        },
        size: 0,
        unique_size: 0,
        refs_traversed: 0,
    });
    walk_structure(program, heap, start, &mut m, false, marks, stats);
    stats.full_walks += 1;
    m
}

/// Brings the structure measurement `m` up to date as a walk from
/// `start`, reading from the heap only the edge lists of members that
/// are not unmodified containers of `m`, and counts it into `stats` as a
/// partial redo. Afterwards `m` equals what [`measure_structure`] from
/// `start` returns. Returns the members that were not containers of `m`
/// (new members, and primitive arrays, which are never containers).
///
/// # Panics
///
/// If `m` is not a structure measurement.
pub fn remeasure_structure(
    program: &CompiledProgram,
    heap: &Heap,
    m: &mut Measurement,
    start: ObjRef,
    marks: &mut VisitMarks,
    stats: &mut SnapshotStats,
) -> Vec<ElemKey> {
    assert!(
        matches!(m.snapshot.kind, SnapshotKind::Structure { .. }),
        "remeasure_structure of an array measurement"
    );
    walk_structure(program, heap, start, m, true, marks, stats);
    stats.partial_redos += 1;
    std::mem::take(&mut marks.walk.uncached)
}

/// The structure walk: one breadth-first pass from `start` under the
/// membership rule of paper §3.4, which makes `m` its measurement. Each
/// member is marked when first reached, so the member list doubles as
/// the queue. A member's edge list is its sorted outgoing references.
/// With `reuse`, it is copied from `m` when the member is a container of
/// `m` stamped no later than `m.epoch`; otherwise it is read from the
/// heap (and counted into `stats`). Either way it is the current heap's,
/// so the walk reaches what a walk over the heap reaches, in the same
/// order, and `m` ends up as a full walk from `start` would leave it.
///
/// The walk also checks that every non-root member has an edge back to
/// the member that discovered it. Following those edges leads from any
/// member to the root, so the structure is then strongly connected
/// ([`Measurement::strongly_connected`]). A primitive array member has
/// no edges, so any structure holding one fails the check.
fn walk_structure(
    program: &CompiledProgram,
    heap: &Heap,
    start: ObjRef,
    m: &mut Measurement,
    reuse: bool,
    marks: &mut VisitMarks,
    stats: &mut SnapshotStats,
) {
    marks.visited.begin(heap);
    let cached = reuse.then_some(&*m);
    if let Some(m) = cached {
        marks.index.begin(heap);
        for (i, c) in m.containers.iter().enumerate() {
            marks.index.set(c.key, i as u32);
        }
    }
    let mut b = std::mem::take(&mut marks.walk);
    b.members.clear();
    b.discoverers.clear();
    b.containers.clear();
    b.edges.clear();
    b.uncached.clear();
    let root = ElemKey::Obj(start);
    if marks.visited.set(root, ()) && joins_structure(program, heap, root) {
        b.members.push(root);
        b.discoverers.push(root);
    }
    let mut strongly_connected = true;
    let mut refs_traversed = 0;
    let mut next = 0;
    while let Some(&key) = b.members.get(next) {
        next += 1;
        let from = b.edges.len();
        let record = cached.and_then(|m| Some((m, &m.containers[marks.index.get(key)? as usize])));
        let array_refs = match record {
            Some((m, c)) if stamp(heap, key) <= m.epoch => {
                b.edges
                    .extend_from_slice(&m.edges[c.edges.start as usize..c.edges.end as usize]);
                c.array_refs
            }
            _ => {
                if cached.is_some() && record.is_none() {
                    b.uncached.push(key);
                }
                let Some(array_refs) = scan_container(program, heap, key, &mut b.edges, stats)
                else {
                    strongly_connected = false;
                    continue;
                };
                array_refs
            }
        };
        if strongly_connected && next > 1 {
            strongly_connected = b.edges[from..]
                .binary_search(&b.discoverers[next - 1])
                .is_ok();
        }
        for &child in &b.edges[from..] {
            if marks.visited.set(child, ()) && joins_structure(program, heap, child) {
                b.members.push(child);
                b.discoverers.push(key);
            }
        }
        refs_traversed += array_refs;
        b.containers.push(ContainerRecord {
            key,
            edges: from as u32..b.edges.len() as u32,
            array_refs,
        });
    }

    // Every member but the uncached ones is a container of `cached`, so
    // a key of it; if the uncached ones are keys too, the member set is a
    // subset of the key set, and equal to it when the sizes match.
    let same_members = cached.is_some()
        && b.members.len() == m.snapshot.keys.len()
        && b.uncached.iter().all(|k| m.snapshot.keys.contains(k));
    if same_members {
        // Keep the sorted containers and the snapshot, whose every field
        // but `refs_traversed` is a function of the members; only point
        // each container at its new edge range.
        for c in &b.containers {
            let i = marks.index.get(c.key).expect("a cached container") as usize;
            m.containers[i].edges = c.edges.clone();
            m.containers[i].array_refs = c.array_refs;
        }
    } else {
        b.containers.sort_unstable_by_key(|c| c.key);
        std::mem::swap(&mut m.containers, &mut b.containers);
        // Members are the containers plus any primitive arrays; without
        // the latter, the sorted containers already give the sorted keys.
        m.snapshot.keys = if b.members.len() == m.containers.len() {
            m.containers.iter().map(|c| c.key).collect()
        } else {
            b.members.iter().copied().collect()
        };
        let mut class_counts: Vec<(ClassId, usize)> = Vec::new();
        for &key in &b.members {
            if let ElemKey::Obj(o) = key {
                let class = heap.object(o).class;
                match class_counts.iter_mut().find(|(c, _)| *c == class) {
                    Some((_, n)) => *n += 1,
                    None => class_counts.push((class, 1)),
                }
            }
        }
        let size = class_counts.iter().map(|&(_, n)| n).sum();
        m.snapshot.kind = SnapshotKind::Structure {
            classes: class_counts.into_iter().collect(),
        };
        m.snapshot.size = size;
        m.snapshot.unique_size = size;
    }
    m.snapshot.refs_traversed = refs_traversed;
    std::mem::swap(&mut m.edges, &mut b.edges);
    m.root = root;
    m.epoch = heap.epoch();
    m.log_pos = heap.log_pos();
    m.strongly_connected = strongly_connected;
    marks.walk = b;
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
    let mut self_ref = false;
    let mut refs_traversed = 0usize;
    let root_elem = heap.array(arr).elem;
    let mut containers = Vec::new();
    let mut edges = Vec::new();
    let mut elem_counts = ElemCounts::default();

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
                    *elem_counts.entry(ElemKey::Int(v)).or_insert(0) += 1;
                }
            }
            ElemKind::Ref => {
                for &e in &array.elems {
                    match e {
                        Value::Obj(o) => {
                            keys.insert(ElemKey::Obj(o));
                            *elem_counts.entry(ElemKey::Obj(o)).or_insert(0) += 1;
                            refs_traversed += 1;
                            stats.objects_traversed += 1;
                            edges.push(ElemKey::Obj(o));
                            array_refs += 1;
                        }
                        Value::Arr(child) => {
                            self_ref |= child == arr;
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
            // Distinct elements: the values and objects counted in
            // `elem_counts`, plus every child array. All of those are in
            // `seen`, as is the root, which is a child only when it
            // contains itself.
            unique_size: elem_counts.len() + seen.len() - 1 + usize::from(self_ref),
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

    /// `unique_size` is counted from the walk's own bookkeeping; it must
    /// equal the number of distinct element keys (values, objects and
    /// child arrays) over every array the walk reaches.
    #[test]
    fn unique_size_counts_distinct_elements_and_child_arrays() {
        let naive = |heap: &Heap, root: ArrRef| {
            let (mut elems, mut seen, mut queue) = (BTreeSet::new(), BTreeSet::new(), vec![root]);
            while let Some(a) = queue.pop() {
                if !seen.insert(a) {
                    continue;
                }
                for &e in &heap.array(a).elems {
                    match e {
                        Value::Int(v) => elems.insert(ElemKey::Int(v)),
                        Value::Bool(b) => elems.insert(ElemKey::Int(b as i64)),
                        Value::Obj(o) => elems.insert(ElemKey::Obj(o)),
                        Value::Arr(c) => {
                            queue.push(c);
                            elems.insert(ElemKey::Arr(c))
                        }
                        _ => false,
                    };
                }
            }
            elems.len()
        };
        let mut heap = Heap::new();
        let fill = |heap: &mut Heap, kind: ElemKind, values: &[Value]| {
            let a = heap.alloc_array(kind, values.len());
            for (i, &v) in values.iter().enumerate() {
                heap.set_elem(a, i, v);
            }
            a
        };
        // A nested `int[][]` whose rows repeat and share values.
        let row1 = fill(&mut heap, ElemKind::Int, &[1, 2, 2].map(Value::Int));
        let row2 = fill(&mut heap, ElemKind::Int, &[2, 5].map(Value::Int));
        let (r1, r2) = (Value::Arr(row1), Value::Arr(row2));
        let grid = fill(&mut heap, ElemKind::Ref, &[r1, r2, r1, Value::Null]);
        // An array that contains itself, next to a row and an object.
        let node = Value::Obj(heap.alloc_object(ClassId(0), 1));
        let looped = heap.alloc_array(ElemKind::Ref, 3);
        heap.set_elem(looped, 0, Value::Arr(looped));
        heap.set_elem(looped, 1, r1);
        heap.set_elem(looped, 2, node);
        let flags = [true, false, true, true].map(Value::Bool);
        let flags = fill(&mut heap, ElemKind::Bool, &flags);
        // A `Node[]` holding one object twice.
        let other = Value::Obj(heap.alloc_object(ClassId(0), 1));
        let nodes = fill(&mut heap, ElemKind::Ref, &[node, other, node, Value::Null]);
        for (root, expected) in [(grid, 5), (looped, 5), (flags, 2), (nodes, 2)] {
            let m = measure_array(&heap, root, &mut SnapshotStats::default());
            assert_eq!(m.snapshot.unique_size, naive(&heap, root), "array {root:?}");
            assert_eq!(m.snapshot.unique_size, expected, "array {root:?}");
        }
    }

    #[test]
    fn element_multiset_spreads_keys_that_differ_only_in_high_bits() {
        // Multiples of 2^32 share every low bit, so the unseeded
        // `ElemKeyHasher` gives them one bucket of 64; the seeded hash
        // must spread them like random keys (~40 distinct buckets).
        let buckets = |state: &dyn Fn(ElemKey) -> u64| {
            (0..64i64)
                .map(|k| state(ElemKey::Int(k << 32)) & 63)
                .collect::<BTreeSet<_>>()
                .len()
        };
        let unseeded = BuildHasherDefault::<ElemKeyHasher>::default();
        assert_eq!(buckets(&|k| unseeded.hash_one(k)), 1);
        let seeded = SeededState::default();
        assert!(buckets(&|k| seeded.hash_one(k)) >= 24);
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
            visited: Stamped {
                generation: u32::MAX,
                objects: vec![(1, ()); heap.object_count()],
                arrays: Vec::new(),
            },
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
        assert_eq!(marks.visited.generation, 2, "wrapped past zero");
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
        // Each store grows the child array's edge list by one.
        for i in 0..200 {
            let kid = heap.alloc_object(node, 1);
            heap.set_elem(kids, i, Value::Obj(kid));
            let added = remeasure_structure(&p, &heap, &mut m, root, &mut marks, &mut stats);
            assert_eq!(added, [ElemKey::Obj(kid)]);
            let live: usize = m.containers.iter().map(|c| c.edges.len()).sum();
            assert_eq!(m.edges.len(), live, "every edge belongs to a container");
        }
        let fresh = measure_structure(&p, &heap, root, &mut marks, &mut SnapshotStats::default());
        assert_eq!(m, fresh);
        assert_eq!((stats.full_walks, stats.partial_redos), (1, 200));
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

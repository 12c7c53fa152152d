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
use std::hash::{BuildHasher, Hasher};
use std::ops::AddAssign;
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

/// The multiset of an array measurement's element keys
/// ([`Measurement::elem_counts`]). Its `Int` keys are values the guest
/// chose, so a hash whose low bits depend only on a key's low bits would
/// let a guest storing multiples of 2³² put every key in one probe
/// chain. So this map hashes under [`SeededState`].
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

/// One value per heap object and per array, indexed by [`ObjRef`] /
/// [`ArrRef`] slot. The heap hands slots out densely and never reuses
/// one, so a lookup is one load. A slot never set reads as
/// `T::default()`; the table grows to the largest slot set, so two
/// tables given the same writes are equal.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct RefTable<T> {
    objects: Vec<T>,
    arrays: Vec<T>,
}

impl<T: Copy + Default> RefTable<T> {
    /// The entry of object slot `index`, or of array slot `index` when
    /// `array`; grows the table to hold it.
    fn slot(&mut self, array: bool, index: u32) -> &mut T {
        let (slots, i) = match array {
            false => (&mut self.objects, index as usize),
            true => (&mut self.arrays, index as usize),
        };
        if i >= slots.len() {
            slots.resize(i + 1, T::default());
        }
        &mut slots[i]
    }

    /// The value of `key` (the default for a primitive key).
    pub(crate) fn get(&self, key: ElemKey) -> T {
        let slot = match key {
            ElemKey::Obj(o) => self.objects.get(o.0 as usize),
            ElemKey::Arr(a) => self.arrays.get(a.0 as usize),
            ElemKey::Int(_) => None,
        };
        slot.copied().unwrap_or_default()
    }

    /// Sets `key` to `value` and returns its previous value. Primitive
    /// keys are never set.
    pub(crate) fn set(&mut self, key: ElemKey, value: T) -> T {
        let slot = match key {
            ElemKey::Obj(o) => self.slot(false, o.0),
            ElemKey::Arr(a) => self.slot(true, a.0),
            ElemKey::Int(_) => return T::default(),
        };
        std::mem::replace(slot, value)
    }
}

/// What a walk knew of a key when it first reached it (see [`Stamped`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    /// Reached before in this walk.
    Visited,
    /// Not reached before, and a key of the cached measurement.
    Cached,
    /// Not reached before, and no cached key.
    Unmarked,
}

/// The marks of one walk: a generation stamp per heap object and per
/// array. Each walk takes two stamps, one for the keys of the cached
/// measurement it redoes and one for the keys it visits, so starting a
/// walk forgets every mark at once, marking costs one store and a test
/// one load.
#[derive(Debug, Default, Clone)]
struct Stamped {
    generation: u32,
    stamps: RefTable<u32>,
}

impl Stamped {
    /// Starts a walk: no key is marked afterwards.
    fn begin(&mut self) {
        self.generation = match self.generation.checked_add(2) {
            Some(generation) => generation,
            None => {
                // Wrapped: stamps from 2^31 walks ago would read as set.
                self.stamps = RefTable::default();
                2
            }
        };
    }

    /// Marks `key` as a key of the cached measurement.
    fn mark_cached(&mut self, key: ElemKey) {
        self.stamps.set(key, self.generation - 1);
    }

    /// Marks `key` visited, and says what it was before.
    fn visit(&mut self, key: WalkKey) -> Mark {
        let stamp = self.stamps.slot(key.is_array(), key.index());
        let before = std::mem::replace(stamp, self.generation);
        if before == self.generation {
            Mark::Visited
        } else if before == self.generation - 1 {
            Mark::Cached
        } else {
            Mark::Unmarked
        }
    }
}

/// A reference key in the form a structure walk handles it: the heap
/// slot, with [`WalkKey::ARRAY`] set for an array. It orders as the
/// [`ElemKey`] it stands for (objects before arrays, then by slot), and
/// compares in one instruction, which the sorted edge lists need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct WalkKey(u64);

impl WalkKey {
    const ARRAY: u64 = 1 << 32;

    /// The key of a reference value.
    fn of(v: Value) -> Option<WalkKey> {
        match v {
            Value::Obj(o) => Some(WalkKey(u64::from(o.0))),
            Value::Arr(a) => Some(WalkKey(WalkKey::ARRAY | u64::from(a.0))),
            _ => None,
        }
    }

    fn is_array(self) -> bool {
        self.0 & WalkKey::ARRAY != 0
    }

    fn index(self) -> u32 {
        self.0 as u32
    }

    fn elem_key(self) -> ElemKey {
        match self.is_array() {
            false => ElemKey::Obj(ObjRef(self.index())),
            true => ElemKey::Arr(ArrRef(self.index())),
        }
    }
}

/// Scratch space for structure walks, meant to be owned by whoever walks
/// repeatedly (the input registry) so its allocations are reused: the
/// marks of the current walk, and its member, edge and new-member
/// buffers.
#[derive(Debug, Default, Clone)]
pub struct VisitMarks {
    marks: Stamped,
    walk: WalkBuffers,
}

/// The buffers one structure walk fills (see [`VisitMarks`]).
#[derive(Debug, Default, Clone)]
struct WalkBuffers {
    /// Members in the order they were reached, each with the member
    /// whose edge first reached it (the root discovers itself); also the
    /// queue.
    members: Vec<(WalkKey, WalkKey)>,
    /// The sorted outgoing edges of the member being visited.
    edges: Vec<WalkKey>,
    /// Members that are not keys of the cached measurement.
    added: Vec<WalkKey>,
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
/// some changed, a structure is walked again over the heap, keeping the
/// cached snapshot when the members did not change, and an array
/// replays its journalled stores.
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
    /// Measurements answered by a structure walk that redoes a cached
    /// one (for arrays, by a replay of the write log).
    pub partial_redos: u64,
    /// Objects read from the heap by traversals (full walks and partial
    /// redos).
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
    /// Containers whose mutation invalidates the snapshot, sorted. For
    /// structures these are the visited objects and ref-kind arrays
    /// (primitive arrays contribute only their identity, which element
    /// stores cannot change); for arrays, every visited array.
    pub containers: Vec<ElemKey>,
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
        let containers = snapshot.ref_keys().collect();
        Measurement {
            snapshot,
            root,
            epoch: 0,
            containers,
            log_pos: u64::MAX,
            elem_counts: ElemCounts::default(),
            strongly_connected: false,
        }
    }

    /// Whether the traversal visited `key` as a container.
    pub fn has_container(&self, key: ElemKey) -> bool {
        self.containers.binary_search(&key).is_ok()
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
                && self.has_container(root))
    }

    /// Whether every container is unmodified since `self.epoch` — i.e.
    /// a traversal from `self.root` would reproduce `self.snapshot`
    /// exactly.
    pub fn still_exact(&self, heap: &Heap) -> bool {
        self.containers
            .iter()
            .all(|&key| stamp(heap, key) <= self.epoch)
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

/// Fills `edges` with the sorted outgoing-edge multiset of one
/// container, as the structure traversal sees it: recursive-field
/// references for objects, elements for ref arrays, and counts the heap
/// read into `stats`. Returns the number of references counted inside
/// an array (0 for objects), or `None` for a primitive array: it is a
/// member of a structure but not a container of it, since its element
/// stores cannot change a structure snapshot.
fn scan_container(
    program: &CompiledProgram,
    heap: &Heap,
    key: WalkKey,
    edges: &mut Vec<WalkKey>,
    stats: &mut SnapshotStats,
) -> Option<usize> {
    edges.clear();
    let array_refs = if key.is_array() {
        let arr = heap.array(ArrRef(key.index()));
        stats.arrays_traversed += 1;
        stats.elements_scanned += arr.elems.len() as u64;
        if arr.elem != ElemKind::Ref {
            return None;
        }
        edges.extend(arr.elems.iter().filter_map(|&v| WalkKey::of(v)));
        edges.len()
    } else {
        let o = ObjRef(key.index());
        stats.objects_traversed += 1;
        let layout = &program.class(heap.object(o).class).field_layout;
        for (&v, &fid) in heap.fields(o).iter().zip(layout) {
            match WalkKey::of(v) {
                Some(key) if program.field(fid).is_recursive => edges.push(key),
                _ => {}
            }
        }
        0
    };
    // Two edges (a doubly linked node) are ordered without a branch.
    if let [x, y] = edges[..] {
        edges[0] = x.min(y);
        edges[1] = x.max(y);
    } else {
        edges.sort_unstable();
    }
    Some(array_refs)
}

/// Whether `key` can be a member of a structure: objects of recursive
/// classes and arrays (the structure membership rule of paper §3.4).
fn joins_structure(program: &CompiledProgram, heap: &Heap, key: WalkKey) -> bool {
    key.is_array()
        || program
            .class(heap.object(ObjRef(key.index())).class)
            .is_recursive
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

/// Like [`snapshot_structure`], but also records the walk's containers
/// and epoch for later incremental reuse, and counts the work into
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
/// `start` over the current heap, and counts it into `stats` as a
/// partial redo. Afterwards `m` equals what [`measure_structure`] from
/// `start` returns; when the walk finds exactly `m`'s keys, `m`'s
/// snapshot is kept rather than rebuilt. Returns the members that were
/// not keys of `m`.
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
    marks.walk.added.iter().map(|key| key.elem_key()).collect()
}

/// The structure walk: one breadth-first pass from `start` under the
/// membership rule of paper §3.4, which makes `m` its measurement. Each
/// member is marked when first reached, so the member list doubles as
/// the queue, and its sorted outgoing references, read from the heap,
/// are followed in order.
///
/// With `redo`, `m`'s containers are marked first, so each member is
/// also told apart as one of `m`'s keys or a new one (a primitive
/// array, a key but never a container, is looked up in the key set).
/// When there is no new member
/// and as many members as keys, the members are `m`'s keys, and `m`'s
/// containers and snapshot, every field of which but `refs_traversed`
/// is a function of the members, are kept.
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
    redo: bool,
    marks: &mut VisitMarks,
    stats: &mut SnapshotStats,
) {
    let (marks, b) = (&mut marks.marks, &mut marks.walk);
    marks.begin();
    if redo {
        for &key in &m.containers {
            marks.mark_cached(key);
        }
    }
    b.members.clear();
    b.added.clear();
    let mut reach = |key: WalkKey, discoverer: WalkKey, b: &mut WalkBuffers| {
        let mark = marks.visit(key);
        if mark != Mark::Visited && joins_structure(program, heap, key) {
            b.members.push((key, discoverer));
            if redo && mark == Mark::Unmarked {
                b.added.push(key);
            }
        }
    };
    let root = WalkKey(u64::from(start.0));
    reach(root, root, b);
    let mut edges = std::mem::take(&mut b.edges);
    let mut strongly_connected = true;
    let mut primitive_members = 0;
    let mut refs_traversed = 0;
    let mut next = 0;
    while let Some(&(key, discoverer)) = b.members.get(next) {
        next += 1;
        let Some(array_refs) = scan_container(program, heap, key, &mut edges, stats) else {
            strongly_connected = false;
            primitive_members += 1;
            continue;
        };
        if strongly_connected && next > 1 {
            strongly_connected = edges.binary_search(&discoverer).is_ok();
        }
        for &child in &edges {
            reach(child, key, b);
        }
        refs_traversed += array_refs;
    }
    b.edges = edges;
    if redo && primitive_members > 0 {
        b.added
            .retain(|key| !m.snapshot.keys.contains(&key.elem_key()));
    }

    let same_members = redo && b.added.is_empty() && b.members.len() == m.snapshot.keys.len();
    if !same_members {
        let mut sorted: Vec<WalkKey> = b.members.iter().map(|&(key, _)| key).collect();
        sorted.sort_unstable();
        m.snapshot.keys = sorted.iter().map(|key| key.elem_key()).collect();
        m.containers.clear();
        m.containers.extend(
            sorted
                .iter()
                .filter(|key| {
                    !key.is_array() || heap.array(ArrRef(key.index())).elem == ElemKind::Ref
                })
                .map(|key| key.elem_key()),
        );
        let mut class_counts: Vec<(ClassId, usize)> = Vec::new();
        for &(key, _) in &b.members {
            if !key.is_array() {
                let class = heap.object(ObjRef(key.index())).class;
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
    m.root = root.elem_key();
    m.epoch = heap.epoch();
    m.log_pos = heap.log_pos();
    m.strongly_connected = strongly_connected;
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
                        }
                        Value::Arr(child) => {
                            self_ref |= child == arr;
                            refs_traversed += 1;
                            queue.push(child);
                        }
                        _ => {}
                    }
                }
            }
        }
    }
    stats.full_walks += 1;
    stats.arrays_traversed += seen.len() as u64;

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
        containers: seen.into_iter().map(ElemKey::Arr).collect(),
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
        m.has_container(ElemKey::Arr(w.arr))
            && (matches!(w.old, Value::Arr(_)) || matches!(w.new, Value::Arr(_)))
    }) {
        return None;
    }
    for &w in entries {
        if !m.has_container(ElemKey::Arr(w.arr)) {
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
        // Multiples of 2^32 share every low bit; the seeded hash must
        // spread them over 64 buckets like random keys (~40 distinct).
        let seeded = SeededState::default();
        let buckets = (0..64i64)
            .map(|k| seeded.hash_one(ElemKey::Int(k << 32)) & 63)
            .collect::<BTreeSet<_>>();
        assert!(buckets.len() >= 24);
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
        // Stamps left from 2^31 walks ago must not read as marked once
        // the generation wraps back to 2.
        let mut stamps = RefTable::default();
        for o in 0..heap.object_count() {
            stamps.set(ElemKey::Obj(ObjRef(o as u32)), 2);
        }
        let mut marks = VisitMarks {
            marks: Stamped {
                generation: u32::MAX - 1,
                stamps,
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
        assert_eq!(marks.marks.generation, 4, "wrapped past zero");
    }

    #[test]
    fn partial_structure_redo_returns_each_new_child() {
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
        // Each store adds one child, and the redo returns just it.
        for i in 0..200 {
            let kid = heap.alloc_object(node, 1);
            heap.set_elem(kids, i, Value::Obj(kid));
            let added = remeasure_structure(&p, &heap, &mut m, root, &mut marks, &mut stats);
            assert_eq!(added, [ElemKey::Obj(kid)]);
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

//! Input identification (paper §2.3–§2.4, §3.4).
//!
//! An algorithm's *inputs* are the data structures, arrays, and external
//! streams it accesses. Structures evolve while a program runs, so the
//! registry resolves each new snapshot to an [`InputId`] using an
//! [`EquivalenceCriterion`]:
//!
//! * reference keys (objects, arrays) are globally unique in the guest
//!   heap, so a reverse map resolves re-accesses in O(1);
//! * primitive-value keys (int-array contents) are only matched against
//!   *candidate* inputs supplied by the caller — the inputs observed by
//!   the currently active repetition chain — which keeps the paper's
//!   "Some Elements Identical" behaviour for reallocated arrays without
//!   accidentally merging unrelated arrays that happen to share values.

use std::collections::BTreeMap;
use std::fmt;

use algoprof_vm::bytecode::ElemKind;
use algoprof_vm::{ClassId, CompiledProgram};

use algoprof_vm::{Heap, Value};

use crate::snapshot::{
    measure_value, remeasure_structure, try_partial_array, ArraySizeStrategy, ElemKey, ElemKeyMap,
    EquivalenceCriterion, IncrementalMode, Measurement, Snapshot, SnapshotKind, SnapshotStats,
    VisitMarks,
};

/// Identifies one input of one or more algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InputId(pub u32);

impl InputId {
    /// The id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for InputId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "input#{}", self.0)
    }
}

/// What kind of input this is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InputKind {
    /// A recursive data structure.
    Structure,
    /// An array (element kind of the root array).
    Array(ElemKind),
    /// The external input stream (`readInput()`).
    ExternalInput,
    /// The external output stream (`print()`).
    ExternalOutput,
}

/// Everything known about one input.
#[derive(Debug, Clone, PartialEq)]
pub struct InputInfo {
    /// The input's id.
    pub id: InputId,
    /// Structure / array / external.
    pub kind: InputKind,
    /// Classes of elements ever observed (with the largest per-class
    /// count seen in one snapshot).
    pub classes: BTreeMap<ClassId, usize>,
    /// Largest size ever observed.
    pub max_size: usize,
    /// Size of the most recent snapshot.
    pub last_size: usize,
    /// Most recent measurement: the snapshot (identity keys for
    /// AllElements matching) plus the epoch/container data that lets a
    /// later traversal reuse it.
    pub last_measurement: Option<Measurement>,
    /// Heap epoch of the last write observed to a reference resolving to
    /// this input. When `dirty_epoch <= last_measurement.epoch`, the
    /// cached measurement is current without any per-container check.
    pub dirty_epoch: u64,
    /// Set when another input's measurement claimed one of this input's
    /// reference keys in the reverse map. Writes through such keys no
    /// longer mark this input dirty, so the O(1) clean check is
    /// disabled and validity falls back to per-container stamps.
    pub shared: bool,
}

impl InputInfo {
    /// The most recent snapshot, if any structure snapshot was taken.
    pub fn last_snapshot(&self) -> Option<&Snapshot> {
        self.last_measurement.as_ref().map(|m| &m.snapshot)
    }
}

impl InputInfo {
    /// A human-readable description, e.g. `Node-based recursive
    /// structure` or `int array`.
    pub fn describe(&self, program: &CompiledProgram) -> String {
        match &self.kind {
            InputKind::Structure => {
                let names: Vec<&str> = self
                    .classes
                    .keys()
                    .map(|&c| program.class(c).name.as_str())
                    .collect();
                if names.is_empty() {
                    "recursive structure".to_owned()
                } else {
                    format!("{}-based recursive structure", names.join("/"))
                }
            }
            InputKind::Array(ElemKind::Int) => "int array".to_owned(),
            InputKind::Array(ElemKind::Bool) => "boolean array".to_owned(),
            InputKind::Array(ElemKind::Ref) => "reference array".to_owned(),
            InputKind::ExternalInput => "external input".to_owned(),
            InputKind::ExternalOutput => "external output".to_owned(),
        }
    }
}

/// The global input table plus the reverse map from heap references to
/// inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct InputRegistry {
    inputs: Vec<InputInfo>,
    ref_map: ElemKeyMap<InputId>,
    criterion: EquivalenceCriterion,
    array_strategy: ArraySizeStrategy,
    incremental: IncrementalMode,
    stats: SnapshotStats,
    /// Scratch marks shared by every structure walk this registry makes.
    marks: VisitMarks,
    /// Whether another pipeline writes to the same heap. Its writes never
    /// reach [`InputRegistry::mark_dirty`], so the O(1) dirty check is
    /// not trusted once it does.
    foreign_writes: bool,
}

impl InputRegistry {
    /// Creates an empty registry with the given matching configuration.
    pub fn new(criterion: EquivalenceCriterion, array_strategy: ArraySizeStrategy) -> Self {
        InputRegistry::with_incremental(criterion, array_strategy, IncrementalMode::default())
    }

    /// Creates an empty registry with explicit snapshot-caching
    /// behaviour.
    pub fn with_incremental(
        criterion: EquivalenceCriterion,
        array_strategy: ArraySizeStrategy,
        incremental: IncrementalMode,
    ) -> Self {
        InputRegistry {
            inputs: Vec::new(),
            ref_map: ElemKeyMap::default(),
            criterion,
            array_strategy,
            incremental,
            stats: SnapshotStats::default(),
            marks: VisitMarks::default(),
            foreign_writes: false,
        }
    }

    /// Notes that another pipeline now writes to the heap this registry
    /// measures: from here on, cached measurements are validated by the
    /// heap's stamps, which every thread's writes update.
    pub(crate) fn expect_foreign_writes(&mut self) {
        self.foreign_writes = true;
    }

    /// The configured array sizing strategy.
    pub fn array_strategy(&self) -> ArraySizeStrategy {
        self.array_strategy
    }

    /// Counters of traversal work done (and saved) so far.
    pub fn snapshot_stats(&self) -> SnapshotStats {
        self.stats
    }

    /// All inputs registered so far.
    pub fn inputs(&self) -> &[InputInfo] {
        &self.inputs
    }

    /// The info for `id`.
    pub fn input(&self, id: InputId) -> &InputInfo {
        &self.inputs[id.index()]
    }

    /// Frees the scratch space of structure walks, which a registry
    /// done measuring (one kept in a finished profile) has no use for.
    pub(crate) fn release_scratch(&mut self) {
        self.marks = VisitMarks::default();
    }

    /// Fast path: resolves a heap reference key previously seen in a
    /// snapshot.
    pub fn resolve_ref(&self, key: ElemKey) -> Option<InputId> {
        self.ref_map.get(&key).copied()
    }

    /// Resolves measurement `m` to an existing or fresh input.
    /// `candidates` are the inputs accessed by the active repetition
    /// chain, used for matching that cannot rely on reference identity
    /// (primitive arrays, AllElements, SameType).
    pub fn identify(&mut self, m: Measurement, candidates: &[InputId]) -> InputId {
        let found = self.match_existing(&m.snapshot, candidates);
        match found {
            Some(id) => {
                self.record_measurement(id, m);
                id
            }
            None => self.register(m),
        }
    }

    fn match_existing(&self, snap: &Snapshot, candidates: &[InputId]) -> Option<InputId> {
        match self.criterion {
            EquivalenceCriterion::SomeElements => {
                // Reference identity first.
                for key in snap.ref_keys() {
                    if let Some(&id) = self.ref_map.get(&key) {
                        return Some(id);
                    }
                }
                // Value overlap against the active candidates only.
                for &cand in candidates {
                    if let Some(last) = self.inputs[cand.index()].last_snapshot() {
                        if snap.equivalent(last, EquivalenceCriterion::SomeElements) {
                            return Some(cand);
                        }
                    }
                }
                None
            }
            EquivalenceCriterion::AllElements => {
                let mut seen: Vec<InputId> = candidates.to_vec();
                for key in snap.ref_keys() {
                    if let Some(&id) = self.ref_map.get(&key) {
                        seen.push(id);
                    }
                }
                seen.sort_unstable();
                seen.dedup();
                seen.into_iter().find(|&id| {
                    self.inputs[id.index()].last_snapshot().is_some_and(|last| {
                        snap.equivalent(last, EquivalenceCriterion::AllElements)
                    })
                })
            }
            EquivalenceCriterion::SameArray => match &snap.kind {
                SnapshotKind::Array { .. } => {
                    let root = snap.keys.iter().find_map(|k| match k {
                        ElemKey::Arr(a) => Some(ElemKey::Arr(*a)),
                        _ => None,
                    })?;
                    self.ref_map.get(&root).copied()
                }
                // The paper notes SameArray only works for arrays;
                // structures fall back to reference overlap.
                SnapshotKind::Structure { .. } => snap
                    .ref_keys()
                    .find_map(|key| self.ref_map.get(&key).copied()),
            },
            EquivalenceCriterion::SameType => self
                .inputs
                .iter()
                .find(|i| {
                    i.last_snapshot()
                        .is_some_and(|last| snap.equivalent(last, EquivalenceCriterion::SameType))
                })
                .map(|i| i.id),
        }
    }

    fn register(&mut self, m: Measurement) -> InputId {
        let id = InputId(self.inputs.len() as u32);
        let kind = match &m.snapshot.kind {
            SnapshotKind::Structure { .. } => InputKind::Structure,
            SnapshotKind::Array { elem } => InputKind::Array(*elem),
        };
        self.inputs.push(InputInfo {
            id,
            kind,
            classes: BTreeMap::new(),
            max_size: 0,
            last_size: 0,
            last_measurement: None,
            dirty_epoch: 0,
            shared: false,
        });
        self.record_measurement(id, m);
        id
    }

    /// Records a fresh measurement of input `id`: updates sizes, class
    /// info, and the reverse reference map, and resets the dirty state so
    /// the cached snapshot counts as current.
    ///
    /// Structure snapshots claim all their reference keys in the map;
    /// array snapshots claim only array keys. Objects stored *in* an
    /// array are elements, not parts of it — a field access on such an
    /// object must resolve to the object's own structure, so arrays may
    /// not shadow object keys (element overlap for arrays is still
    /// matched through the candidate path, which compares full
    /// snapshots).
    pub fn record_measurement(&mut self, id: InputId, m: Measurement) {
        let arrays_only = matches!(m.snapshot.kind, SnapshotKind::Array { .. });
        for key in m.snapshot.ref_keys() {
            if arrays_only && !matches!(key, ElemKey::Arr(_)) {
                continue;
            }
            self.claim_key(key, id);
        }
        self.store_measurement(id, m);
        self.inputs[id.index()].shared = false;
    }

    /// Makes `m` the current measurement of input `id`: folds its
    /// classes and size into the input's, and marks the input clean as
    /// of `m.epoch`.
    fn store_measurement(&mut self, id: InputId, m: Measurement) {
        let size = m.snapshot.size_under(self.array_strategy);
        let info = &mut self.inputs[id.index()];
        if let SnapshotKind::Structure { classes } = &m.snapshot.kind {
            for (&c, &n) in classes {
                let e = info.classes.entry(c).or_insert(0);
                *e = (*e).max(n);
            }
        }
        info.last_size = size;
        info.max_size = info.max_size.max(size);
        info.dirty_epoch = m.epoch;
        info.last_measurement = Some(m);
    }

    /// Inserts `key -> id` into the reverse map. If the key previously
    /// resolved to a *different* input, that input loses its O(1) dirty
    /// tracking: writes through the key now mark `id` dirty, not the old
    /// owner, so the old owner is flagged `shared` and must validate its
    /// cache against per-container heap stamps instead.
    fn claim_key(&mut self, key: ElemKey, id: InputId) {
        if let Some(prev) = self.ref_map.insert(key, id) {
            if prev != id {
                self.inputs[prev.index()].shared = true;
            }
        }
    }

    /// Notes a write observed through a reference resolving to input
    /// `id`, at heap epoch `epoch`.
    pub fn mark_dirty(&mut self, id: InputId, epoch: u64) {
        let info = &mut self.inputs[id.index()];
        info.dirty_epoch = info.dirty_epoch.max(epoch);
    }

    /// Takes a full (non-incremental) measurement of the value at `r`,
    /// for snapshots that have not yet been resolved to an input.
    pub fn measure_unidentified(
        &mut self,
        program: &CompiledProgram,
        heap: &Heap,
        r: Value,
    ) -> Option<Measurement> {
        measure_value(program, heap, r, &mut self.marks, &mut self.stats)
    }

    /// Re-measures input `id`, currently rooted at `r`, reusing the
    /// cached measurement when the heap write stamps prove it is still
    /// exact. Returns the input's size under the configured array
    /// strategy, or `None` if `r` is not measurable (null / int).
    ///
    /// The cached measurement is reused as it stands when a walk from
    /// `r` would find the same members as the cached walk: `r` is its
    /// root, or any object container of a strongly connected structure
    /// ([`Measurement::walks_alike_from`]). Validation is layered,
    /// cheapest first:
    ///
    /// 1. *O(1) dirty check* — reusable root, input not `shared`, and no
    ///    write observed through its references since the cached epoch.
    ///    Skipped once another pipeline writes to the heap
    ///    ([`InputRegistry::expect_foreign_writes`]).
    /// 2. *Stamp scan* — reusable root, and every container recorded by
    ///    the cached walk is unmodified since the cached epoch (heals
    ///    false-dirties from writes that resolved here but hit another
    ///    overlapping structure).
    /// 3. *Redo* — for an object `r` and a cached structure, from any
    ///    root: walk from `r`, reading from the heap only the edge lists
    ///    of new members and modified containers, and the cached lists of
    ///    the rest (see [`remeasure_structure`]). For the cached array's
    ///    own root: replay the heap's element-store journal (see
    ///    [`try_partial_array`]).
    /// 4. *Full walk* — an array that the replay cannot bring up to
    ///    date, or no cached measurement of the right kind.
    ///
    /// Under [`IncrementalMode::Differential`] every reuse is checked
    /// against a from-scratch traversal and must match exactly.
    pub fn remeasure(
        &mut self,
        program: &CompiledProgram,
        heap: &Heap,
        id: InputId,
        r: Value,
    ) -> Option<usize> {
        let enabled = self.incremental != IncrementalMode::Disabled;
        let root = match r {
            Value::Obj(o) if enabled => ElemKey::Obj(o),
            Value::Arr(a) if enabled => ElemKey::Arr(a),
            _ => return self.measure_afresh(program, heap, id, r),
        };
        let Some(mut m) = self.inputs[id.index()].last_measurement.take() else {
            return self.measure_afresh(program, heap, id, r);
        };
        let info = &self.inputs[id.index()];
        let reusable = m.walks_alike_from(root);
        let clean = !self.foreign_writes && !info.shared && info.dirty_epoch <= m.epoch;
        let uncached = match r {
            // Layer 1: nothing resolving to this input was written.
            _ if reusable && clean => {
                self.stats.cache_hits += 1;
                Vec::new()
            }
            // Layer 2: stamps prove the traversed containers untouched.
            // Refresh the epoch so the O(1) check works next time, and
            // advance the replay window: untouched containers mean none
            // of the journalled stores were ours.
            _ if reusable && m.still_exact(heap) => {
                self.stats.cache_hits += 1;
                m.epoch = heap.epoch();
                if m.log_pos != u64::MAX {
                    m.log_pos = heap.log_pos();
                }
                Vec::new()
            }
            // Layer 3: structures walk from `r` over the cached edge
            // lists; arrays replay the heap's element-store journal.
            Value::Obj(start) if matches!(m.snapshot.kind, SnapshotKind::Structure { .. }) => {
                remeasure_structure(
                    program,
                    heap,
                    &mut m,
                    start,
                    &mut self.marks,
                    &mut self.stats,
                )
            }
            Value::Arr(_)
                if reusable && try_partial_array(heap, &mut m, &mut self.stats).is_some() =>
            {
                Vec::new()
            }
            // Layer 4: full walk.
            _ => return self.measure_afresh(program, heap, id, r),
        };
        // Leave the reverse map as a full walk's record would: unless
        // another input claimed some of its keys (`shared`), every key of
        // the cached measurement already maps here, and only the members
        // it did not have are new.
        if self.inputs[id.index()].shared {
            self.record_measurement(id, m);
        } else {
            self.store_measurement(id, m);
            for key in uncached {
                self.claim_key(key, id);
            }
        }
        if self.incremental == IncrementalMode::Differential {
            self.verify_cached(program, heap, id, r);
        }
        Some(self.inputs[id.index()].last_size)
    }

    /// Measures `r` from scratch and records it as input `id`'s
    /// measurement; returns the input's size.
    fn measure_afresh(
        &mut self,
        program: &CompiledProgram,
        heap: &Heap,
        id: InputId,
        r: Value,
    ) -> Option<usize> {
        let m = measure_value(program, heap, r, &mut self.marks, &mut self.stats)?;
        self.record_measurement(id, m);
        Some(self.inputs[id.index()].last_size)
    }

    /// Differential-mode check: the cached snapshot for `id` must equal a
    /// from-scratch traversal of `r`. The verification traversal uses a
    /// scratch stats block so it does not pollute the reuse counters.
    fn verify_cached(&mut self, program: &CompiledProgram, heap: &Heap, id: InputId, r: Value) {
        let mut scratch = SnapshotStats::default();
        let fresh = measure_value(program, heap, r, &mut self.marks, &mut scratch)
            .expect("differential check: root became unmeasurable");
        let cached = self.inputs[id.index()]
            .last_measurement
            .as_ref()
            .expect("differential check: no cached measurement");
        assert_eq!(
            cached.snapshot, fresh.snapshot,
            "incremental snapshot diverged from full traversal for {id}"
        );
    }

    /// Registers (or returns) the singleton external-input stream.
    pub fn external_input(&mut self) -> InputId {
        self.external(InputKind::ExternalInput)
    }

    /// Registers (or returns) the singleton external-output stream.
    pub fn external_output(&mut self) -> InputId {
        self.external(InputKind::ExternalOutput)
    }

    fn external(&mut self, kind: InputKind) -> InputId {
        if let Some(i) = self.inputs.iter().find(|i| i.kind == kind) {
            return i.id;
        }
        let id = InputId(self.inputs.len() as u32);
        self.inputs.push(InputInfo {
            id,
            kind,
            classes: BTreeMap::new(),
            max_size: 0,
            last_size: 0,
            last_measurement: None,
            dirty_epoch: 0,
            shared: false,
        });
        id
    }

    /// Bumps the observed size of an external stream (1 per read/write).
    pub fn bump_external(&mut self, id: InputId) {
        let info = &mut self.inputs[id.index()];
        info.last_size += 1;
        info.max_size = info.max_size.max(info.last_size);
    }
}

impl Default for InputRegistry {
    fn default() -> Self {
        InputRegistry::new(
            EquivalenceCriterion::default(),
            ArraySizeStrategy::default(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use algoprof_vm::heap::{ArrRef, ObjRef};

    fn struct_snap(objs: &[u32], class: u32) -> Snapshot {
        let mut keys = BTreeSet::new();
        let mut classes = BTreeMap::new();
        for &o in objs {
            keys.insert(ElemKey::Obj(ObjRef(o)));
        }
        classes.insert(ClassId(class), objs.len());
        Snapshot {
            keys,
            kind: SnapshotKind::Structure { classes },
            size: objs.len(),
            unique_size: objs.len(),
            refs_traversed: 0,
        }
    }

    fn int_array_snap(arr: u32, values: &[i64]) -> Snapshot {
        let mut keys = BTreeSet::new();
        keys.insert(ElemKey::Arr(ArrRef(arr)));
        for &v in values {
            keys.insert(ElemKey::Int(v));
        }
        Snapshot {
            keys,
            kind: SnapshotKind::Array {
                elem: ElemKind::Int,
            },
            size: values.len(),
            unique_size: values.iter().collect::<BTreeSet<_>>().len(),
            refs_traversed: 0,
        }
    }

    #[test]
    fn overlapping_structure_snapshots_are_one_input() {
        let mut reg = InputRegistry::default();
        let a = reg.identify(Measurement::detached(struct_snap(&[1, 2, 3], 0)), &[]);
        let b = reg.identify(Measurement::detached(struct_snap(&[3, 4], 0)), &[]);
        assert_eq!(a, b);
        assert_eq!(reg.input(a).max_size, 3);
    }

    #[test]
    fn disjoint_structures_are_distinct_inputs() {
        let mut reg = InputRegistry::default();
        let a = reg.identify(Measurement::detached(struct_snap(&[1, 2], 0)), &[]);
        let b = reg.identify(Measurement::detached(struct_snap(&[5, 6], 0)), &[]);
        assert_ne!(a, b);
        assert_eq!(reg.inputs().len(), 2);
    }

    #[test]
    fn growing_structure_updates_max_size() {
        let mut reg = InputRegistry::default();
        let a = reg.identify(Measurement::detached(struct_snap(&[1], 0)), &[]);
        reg.identify(Measurement::detached(struct_snap(&[1, 2, 3, 4], 0)), &[]);
        reg.identify(Measurement::detached(struct_snap(&[4], 0)), &[]);
        assert_eq!(reg.input(a).max_size, 4);
        assert_eq!(reg.input(a).last_size, 1);
    }

    #[test]
    fn int_arrays_merge_only_via_candidates() {
        let mut reg = InputRegistry::default();
        let a = reg.identify(Measurement::detached(int_array_snap(0, &[1, 2, 3])), &[]);
        // Overlapping values but NOT a candidate: new input.
        let b = reg.identify(Measurement::detached(int_array_snap(1, &[2, 3, 4])), &[]);
        assert_ne!(a, b);
        // Overlapping values and a candidate (the reallocation case):
        // same input.
        let c = reg.identify(
            Measurement::detached(int_array_snap(2, &[2, 3, 4, 5])),
            &[b],
        );
        assert_eq!(b, c);
    }

    #[test]
    fn ref_identity_survives_without_candidates() {
        let mut reg = InputRegistry::default();
        let a = reg.identify(Measurement::detached(int_array_snap(7, &[9])), &[]);
        // Re-access of the same array is a ref-map hit even with no
        // candidates.
        let b = reg.identify(Measurement::detached(int_array_snap(7, &[9, 10])), &[]);
        assert_eq!(a, b);
    }

    #[test]
    fn all_elements_criterion_requires_exact_match() {
        let mut reg = InputRegistry::new(
            EquivalenceCriterion::AllElements,
            ArraySizeStrategy::Capacity,
        );
        let a = reg.identify(Measurement::detached(struct_snap(&[1, 2], 0)), &[]);
        // Overlap but not equality: a fresh input under AllElements.
        let b = reg.identify(Measurement::detached(struct_snap(&[1, 2, 3], 0)), &[]);
        assert_ne!(a, b);
        let c = reg.identify(Measurement::detached(struct_snap(&[1, 2, 3], 0)), &[]);
        assert_eq!(b, c);
    }

    #[test]
    fn same_type_criterion_merges_disconnected_instances() {
        let mut reg =
            InputRegistry::new(EquivalenceCriterion::SameType, ArraySizeStrategy::Capacity);
        let a = reg.identify(Measurement::detached(struct_snap(&[1], 0)), &[]);
        let b = reg.identify(Measurement::detached(struct_snap(&[9], 0)), &[]);
        assert_eq!(a, b);
    }

    #[test]
    fn external_streams_are_singletons() {
        let mut reg = InputRegistry::default();
        let i1 = reg.external_input();
        let i2 = reg.external_input();
        let o = reg.external_output();
        assert_eq!(i1, i2);
        assert_ne!(i1, o);
        reg.bump_external(i1);
        reg.bump_external(i1);
        assert_eq!(reg.input(i1).max_size, 2);
    }

    #[test]
    fn input_id_display() {
        assert_eq!(InputId(3).to_string(), "input#3");
    }
}

//! Input-attribution stage: the data-flow half of AlgoProf.
//!
//! [`AttributionStage`] owns the input registry and reacts to the *data*
//! events — field/array accesses and external I/O. For each access it
//! identifies the input behind the reference (reverse reference map
//! first, then snapshot + equivalence criterion), counts the access on
//! the current invocation, and tracks per-invocation sizes with the
//! paper's first-access / exit-remeasurement snapshot optimization
//! (§3.4). It navigates the repetition tree only through the
//! [`RepetitionStage`] handed to each call. A reference attributed since
//! the last boundary costs one `RefTable` load (DESIGN.md §7, "The hit table").

use algoprof_vm::{CompiledProgram, Heap, Value};

use crate::cost::{AccessOp, AccessTarget, CostKey};
use crate::inputs::{InputId, InputRegistry};
use crate::snapshot::{ElemKey, RefTable, SnapshotStats};

use super::repetition::RepetitionStage;
use super::{AlgoProfOptions, SnapshotPolicy};

/// Identifies inputs and records access/size observations.
#[derive(Debug)]
pub struct AttributionStage {
    registry: InputRegistry,
    snapshot_policy: SnapshotPolicy,
    /// The hit table: `serial << 32 | slot in hot` per reference given
    /// a slot since the last boundary, live while its serial is `serial`.
    hits: RefTable<u64>,
    serial: u32,
    hot: Vec<Hot>,
    /// By record position, what hits changed of the record: the latest
    /// reference hit (unless a slow-path access came later) and the heap
    /// epoch of the latest write hit (0 for none).
    pending: Vec<(Option<Value>, u64)>,
    /// The open input, when it changed since the last boundary.
    open_input: Option<InputId>,
}

/// A hot slot: `[reads, writes]` counted on one count entry of one
/// input's record (both by position) and not yet added to it.
#[derive(Debug, Clone, Copy)]
struct Hot {
    record: usize,
    entry: usize,
    input: InputId,
    counts: [u64; 2],
}

impl AttributionStage {
    /// A fresh stage configured from the profiler options.
    pub fn new(opts: &AlgoProfOptions) -> Self {
        AttributionStage {
            registry: InputRegistry::with_incremental(
                opts.criterion,
                opts.array_strategy,
                opts.incremental,
            ),
            snapshot_policy: opts.snapshot_policy,
            hits: RefTable::default(),
            serial: 1,
            hot: Vec::new(),
            pending: Vec::new(),
            open_input: None,
        }
    }

    /// The input registry built so far.
    pub fn registry(&self) -> &InputRegistry {
        &self.registry
    }

    /// Notes that another thread's pipeline now writes to the heap (see
    /// [`InputRegistry::expect_foreign_writes`]).
    pub(crate) fn expect_foreign_writes(&mut self) {
        self.registry.expect_foreign_writes();
    }

    /// Consumes the stage, yielding the registry for profile building.
    pub fn into_registry(mut self) -> InputRegistry {
        self.registry.release_scratch();
        self.registry
    }

    /// Counters of snapshot-traversal work done (and saved) so far.
    pub fn snapshot_stats(&self) -> SnapshotStats {
        self.registry.snapshot_stats()
    }

    /// Resolves the input accessed through reference `r`, taking a
    /// snapshot only when needed. Returns the input and the size if one
    /// was measured.
    fn resolve_input(
        &mut self,
        rep: &RepetitionStage,
        program: &CompiledProgram,
        heap: &Heap,
        r: Value,
    ) -> Option<(InputId, Option<usize>)> {
        let key = match r {
            Value::Obj(o) => ElemKey::Obj(o),
            Value::Arr(a) => ElemKey::Arr(a),
            _ => return None,
        };
        if let Some(id) = self.registry.resolve_ref(key) {
            return Some((id, None));
        }
        // Unknown reference. Under the first/last policy, attribute
        // mid-construction references to the invocation's open input
        // without traversing (the paper's "memorize the one accessed
        // reference" trick) — but only for structures; arrays are always
        // identified.
        if self.snapshot_policy == SnapshotPolicy::FirstAndLast && matches!(r, Value::Obj(_)) {
            if let Some(open) = self.open_input.or(rep.current().and_then(|c| c.open_input)) {
                return Some((open, None));
            }
        }
        let m = self.registry.measure_unidentified(program, heap, r)?;
        let size = m.snapshot.size_under(self.registry.array_strategy());
        let candidates = if self.registry.reads_candidates() {
            rep.chain_candidates()
        } else {
            Vec::new()
        };
        self.invalidate(); // identifying may re-claim reverse-map keys
        let id = self.registry.identify(m, &candidates);
        Some((id, Some(size)))
    }

    /// Records an observation of `input` through `r` on the current
    /// node's active invocation, counting it as an `access` of its
    /// target when the access is this thread's own. One record lookup
    /// serves both. Returns the record's position and the index of the
    /// access's count entry.
    fn observe(
        &mut self,
        rep: &mut RepetitionStage,
        program: &CompiledProgram,
        heap: &Heap,
        r: Value,
        (input, measured): (InputId, Option<usize>),
        access: Option<(AccessTarget, AccessOp)>,
    ) -> (usize, usize) {
        let every_access = self.snapshot_policy == SnapshotPolicy::EveryAccess;
        let cur = rep
            .current_mut()
            .expect("the current node has an active invocation");
        let (at, opened) = cur.inputs.find_or_insert(input);
        let record = cur.inputs.at_mut(at);
        let entry = access.map_or(0, |(target, op)| record.count(target, op));

        // First access in this invocation (or every access, under that
        // policy): measure from the accessed reference and refresh the
        // registry, which may re-claim reverse-map keys.
        let size = if opened || every_access {
            self.invalidate();
            measured.or_else(|| self.registry.remeasure(program, heap, input, r))
        } else {
            None
        };
        if opened {
            let s = size.unwrap_or(0);
            record.first_size = s;
            record.exit_size = s;
            record.max_size = s;
        }
        record.last_ref = Some(r);
        if let Some((last_ref, _)) = self.pending.get_mut(at) {
            *last_ref = None; // newer than any hit's
        }
        if let Some(s) = size {
            record.max_size = record.max_size.max(s);
            record.exit_size = s;
        }
        // Only *structure* accesses set the open input: unresolved object
        // references fall back to it mid-construction. Array accesses must
        // not capture it, or freshly allocated helper arrays would swallow
        // subsequent unknown objects.
        if matches!(r, Value::Obj(_)) {
            self.open_input = Some(input);
        }
        (at, entry)
    }

    /// The paper's `remeasureInputs`: re-snapshot every input of the
    /// terminating invocation from the last reference accessed. Called
    /// *before* the repetition stage finalizes the invocation.
    pub fn remeasure_inputs(
        &mut self,
        rep: &mut RepetitionStage,
        program: &CompiledProgram,
        heap: &Heap,
    ) {
        self.flush(rep);
        let Some(cur) = rep.current_mut() else {
            return;
        };
        // A re-measure updates the registry (snapshot cache, key
        // ownership), so the visiting order is part of the result: it is
        // `InputId` order, not the records' first-access order.
        for record in cur.inputs.by_input_mut() {
            let Some(r) = record.last_ref else {
                continue;
            };
            if let Some(size) = self.registry.remeasure(program, heap, record.input, r) {
                record.exit_size = size;
                record.max_size = record.max_size.max(size);
            }
        }
    }

    /// Handles one field (`field`) or array access event end to end:
    /// resolve the input, count the access, observe the size. When the
    /// reference has a live slot, it does what the slow path would
    /// (count, last reference, dirty mark, open input), deferred to the
    /// next flush.
    #[inline]
    pub fn on_access(
        &mut self,
        rep: &mut RepetitionStage,
        r: Value,
        op: AccessOp,
        field: bool,
        program: &CompiledProgram,
        heap: &Heap,
    ) {
        let key = match r {
            Value::Obj(o) if field => Some(ElemKey::Obj(o)),
            Value::Arr(a) if !field => Some(ElemKey::Arr(a)),
            _ => None,
        };
        let entry = key.map_or(0, |key| self.hits.get(key));
        if (entry >> 32) as u32 == self.serial {
            let hot = &mut self.hot[entry as u32 as usize];
            hot.counts[usize::from(op == AccessOp::Write)] += 1;
            let (last_ref, write_epoch) = &mut self.pending[hot.record];
            *last_ref = Some(r);
            if op == AccessOp::Write {
                *write_epoch = heap.epoch();
            }
            if matches!(r, Value::Obj(_)) {
                self.open_input = Some(hot.input);
            }
            return;
        }
        let target = match r {
            Value::Obj(o) if field => AccessTarget::Field(Some(heap.object(o).class)),
            _ if field => AccessTarget::Field(None),
            _ => AccessTarget::Array,
        };
        self.attribute(rep, (key, r), op, target, program, heap);
    }

    /// The slow path of an access: resolves, observes and counts it,
    /// then gives the reference a hot slot if the reverse map resolves
    /// its `key` to the same input. A reference attributed to the open
    /// input gets none: the open input moves.
    #[inline(never)]
    fn attribute(
        &mut self,
        rep: &mut RepetitionStage,
        (key, r): (Option<ElemKey>, Value),
        op: AccessOp,
        target: AccessTarget,
        program: &CompiledProgram,
        heap: &Heap,
    ) {
        let Some(resolved @ (input, _)) = self.resolve_input(rep, program, heap, r) else {
            return;
        };
        // Events fire after the mutation, so the current heap epoch covers
        // this write.
        if op == AccessOp::Write {
            self.registry.mark_dirty(input, heap.epoch());
        }
        let (at, entry) = self.observe(rep, program, heap, r, resolved, Some((target, op)));
        let cached = self.snapshot_policy == SnapshotPolicy::FirstAndLast;
        let Some(key) = key.filter(|&k| cached && self.registry.resolve_ref(k) == Some(input))
        else {
            return;
        };
        if self.pending.len() <= at {
            self.pending.resize(at + 1, (None, 0));
        }
        let slot = u64::from(self.serial) << 32 | self.hot.len() as u64;
        self.hits.set(key, slot);
        self.hot.push(Hot {
            record: at,
            entry,
            input,
            counts: [0, 0],
        });
    }

    /// Forgets every hit (not the hot slots' counts): the registry may
    /// have re-claimed reverse-map keys, or the invocation changes.
    fn invalidate(&mut self) {
        self.serial = self.serial.wrapping_add(1);
        if self.serial == 0 {
            // Wrapped: entries from 2^32 serials ago would read as live.
            (self.hits, self.serial) = (RefTable::default(), 1);
        }
    }

    /// Writes what the hits changed into the current invocation, then
    /// forgets every hit. Called at each boundary of the invocation, and
    /// before anything else reads its records.
    pub fn flush(&mut self, rep: &mut RepetitionStage) {
        if self.hot.is_empty() && self.open_input.is_none() {
            return;
        }
        let cur = rep
            .current_mut()
            .expect("the current node has an active invocation");
        cur.open_input = self.open_input.take().or(cur.open_input);
        for hot in self.hot.drain(..) {
            let record = cur.inputs.at_mut(hot.record);
            let counts = &mut record.counts[hot.entry].1;
            counts[0] += hot.counts[0];
            counts[1] += hot.counts[1];
            let (last_ref, write_epoch) = std::mem::take(&mut self.pending[hot.record]);
            record.last_ref = last_ref.or(record.last_ref);
            self.registry.mark_dirty(hot.input, write_epoch);
        }
        self.invalidate();
    }

    /// A cross-thread read of data this thread wrote last (Coppa et
    /// al.): the consuming thread's read attributes the input identity
    /// and *size* to the writing thread's current invocation, without
    /// counting any access cost here — the reading thread's own pipeline
    /// already counts the access.
    pub fn on_remote_read(
        &mut self,
        rep: &mut RepetitionStage,
        r: Value,
        program: &CompiledProgram,
        heap: &Heap,
    ) {
        let Some(resolved) = self.resolve_input(rep, program, heap, r) else {
            return;
        };
        self.observe(rep, program, heap, r, resolved, None);
    }

    /// External I/O: both streams are inputs whose "size" is the number
    /// of values transferred so far in the current invocation.
    pub fn on_external_io(&mut self, rep: &mut RepetitionStage, op: AccessOp) {
        let (id, key) = match op {
            AccessOp::Read => (self.registry.external_input(), CostKey::InputRead),
            AccessOp::Write => (self.registry.external_output(), CostKey::OutputWrite),
        };
        rep.bump(key);
        self.registry.bump_external(id);
        if let Some(cur) = rep.current_mut() {
            let (at, _) = cur.inputs.find_or_insert(id);
            let record = cur.inputs.at_mut(at);
            record.max_size += 1;
            record.exit_size = record.max_size;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algoprof_vm::{compile, InstrumentOptions};

    #[test]
    fn a_wrapped_serial_forgets_every_hit() {
        let program =
            compile("class Main { static int main() { return 0; } } class Node { Node next; }")
                .expect("compiles")
                .instrument(&InstrumentOptions::default());
        let node = program.class_by_name("Node").expect("declared");
        let mut heap = Heap::new();
        let r = Value::Obj(heap.alloc_object(node, 1));
        let mut rep = RepetitionStage::new();
        let mut stage = AttributionStage::new(&AlgoProfOptions::default());
        let mut read = |stage: &mut AttributionStage| {
            stage.on_access(&mut rep, r, AccessOp::Read, true, &program, &heap);
        };
        // The first read identifies the node and gives it a hot slot; the
        // second hits it.
        read(&mut stage);
        read(&mut stage);
        assert_eq!(stage.hot[0].counts, [1, 0]);
        // Wrap the serial round to the one the slot was filled under.
        let filled = stage.serial;
        stage.serial = u32::MAX;
        stage.invalidate();
        while stage.serial != filled {
            stage.invalidate();
        }
        read(&mut stage);
        assert_eq!(
            stage.hot[0].counts,
            [1, 0],
            "a slot from 2^32 serials ago hit"
        );
        // Every read reaches the record.
        stage.flush(&mut rep);
        let cur = rep.current().expect("the root is active");
        let record = cur.inputs.iter().next().expect("the node's record");
        assert_eq!(record.counts, [(AccessTarget::Field(Some(node)), [3, 0])]);
    }
}

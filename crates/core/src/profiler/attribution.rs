//! Input-attribution stage: the data-flow half of AlgoProf.
//!
//! [`AttributionStage`] owns the input registry and reacts to the *data*
//! events — field/array accesses and external I/O. For each access it
//! identifies the input behind the reference (reverse reference map
//! first, then snapshot + equivalence criterion), counts the access on
//! the current invocation, and tracks per-invocation sizes with the
//! paper's first-access / exit-remeasurement snapshot optimization
//! (§3.4). It navigates the repetition tree only through the
//! [`RepetitionStage`] handed to each call.

use algoprof_vm::{ClassId, CompiledProgram, Heap, Value};

use crate::cost::{AccessOp, CostKey};
use crate::inputs::{InputId, InputRegistry};
use crate::snapshot::{ElemKey, SnapshotStats};

use super::repetition::RepetitionStage;
use super::{AlgoProfOptions, SnapshotPolicy};

/// What kind of heap location an access event touched: an array slot,
/// or an object field (with the object's class when known).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessTarget {
    Array,
    Field(Option<ClassId>),
}

/// Identifies inputs and records access/size observations.
#[derive(Debug)]
pub struct AttributionStage {
    registry: InputRegistry,
    snapshot_policy: SnapshotPolicy,
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
            if let Some(open) = rep.current().and_then(|c| c.open_input) {
                return Some((open, None));
            }
        }
        let m = self.registry.measure_unidentified(program, heap, r)?;
        let size = m.snapshot.size_under(self.registry.array_strategy());
        let candidates = rep.chain_candidates();
        let id = self.registry.identify(m, &candidates);
        Some((id, Some(size)))
    }

    /// Records an access observation of `input` through `r` on the
    /// current node's active invocation, counting it under `access` when
    /// the access is this thread's own. One record lookup serves both.
    #[allow(clippy::too_many_arguments)]
    fn observe(
        &mut self,
        rep: &mut RepetitionStage,
        program: &CompiledProgram,
        heap: &Heap,
        input: InputId,
        r: Value,
        measured: Option<usize>,
        access: Option<CostKey>,
    ) {
        let every_access = self.snapshot_policy == SnapshotPolicy::EveryAccess;
        let cur = rep
            .current_mut()
            .expect("the current node has an active invocation");
        let (record, opened) = cur.inputs.find_or_insert(input);
        if let Some(key) = access {
            record.count(key);
        }

        // First access in this invocation (or every access, under that
        // policy): measure from the accessed reference and refresh the
        // registry.
        let size = if opened || every_access {
            match measured {
                Some(s) => Some(s),
                None => self.registry.remeasure(program, heap, input, r),
            }
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
        if let Some(s) = size {
            record.max_size = record.max_size.max(s);
            record.exit_size = s;
        }
        // Only *structure* accesses set the open input: unresolved object
        // references fall back to it mid-construction. Array accesses must
        // not capture it, or freshly allocated helper arrays would swallow
        // subsequent unknown objects.
        if matches!(r, Value::Obj(_)) {
            cur.open_input = Some(input);
        }
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

    /// Handles one field or array access event end-to-end: resolve the
    /// input, count the access, observe the size.
    pub fn on_access(
        &mut self,
        rep: &mut RepetitionStage,
        r: Value,
        op: AccessOp,
        target: AccessTarget,
        program: &CompiledProgram,
        heap: &Heap,
    ) {
        let Some((input, measured)) = self.resolve_input(rep, program, heap, r) else {
            return;
        };
        // Events fire after the mutation, so the current heap epoch covers
        // this write.
        if op == AccessOp::Write {
            self.registry.mark_dirty(input, heap.epoch());
        }
        // One count per access: a field access of known class counts
        // only by type, and finalizing the invocation folds those counts
        // into its `StructAccess` totals (`CostMap::fold_by_type`).
        let key = match target {
            AccessTarget::Array => CostKey::ArrayAccess { input, op },
            AccessTarget::Field(Some(class)) => CostKey::StructAccessByType { input, class, op },
            AccessTarget::Field(None) => CostKey::StructAccess { input, op },
        };
        self.observe(rep, program, heap, input, r, measured, Some(key));
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
        let Some((input, measured)) = self.resolve_input(rep, program, heap, r) else {
            return;
        };
        self.observe(rep, program, heap, input, r, measured, None);
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
            let (record, _) = cur.inputs.find_or_insert(id);
            record.max_size += 1;
            record.exit_size = record.max_size;
        }
    }
}

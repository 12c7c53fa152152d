//! The repetition tree (paper §2.1 and §3.2).
//!
//! A repetition tree records the dynamic nesting of repetitions — loops
//! and (folded) recursions — across a run. Each node keeps the complete
//! per-invocation history of costs and input observations, which is what
//! allows cost functions to be inferred afterwards.
//!
//! Because recursion folding can re-enter a node that is already active
//! (a loop inside a recursive method runs again in the nested call, but
//! maps to the *same* tree node), every node carries a **stack** of
//! active invocations; accesses and steps attribute to the innermost
//! activation. Invocation ordinals are assigned at start, so parent
//! links remain exact even when nested activations finish first.

use std::collections::BTreeMap;
use std::fmt;

use algoprof_vm::{FuncId, LoopId, Value};

use crate::cost::{AccessOp, AccessTarget, CostKey, CostMap};
use crate::inputs::InputId;

/// Index of a node within its [`RepTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

/// What repetition a tree node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RepKind {
    /// The synthetic root covering the whole program.
    Root,
    /// A natural loop.
    Loop(LoopId),
    /// A recursion, represented by its header method.
    Recursion(FuncId),
}

/// Sizes observed for one input during one invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InputObservation {
    /// Size measured at the repetition's first access.
    pub first_size: usize,
    /// Size measured when the repetition exited.
    pub exit_size: usize,
    /// Maximum size observed (the paper's representative input size).
    pub max_size: usize,
}

/// One invocation of a repetition (placeholder until finalized).
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    /// The parent node and the ordinal of the parent invocation that was
    /// active when this invocation started (`None` for the root).
    pub parent: Option<(NodeId, usize)>,
    /// Primitive-operation counts attributed directly to this invocation.
    pub costs: CostMap,
    /// Inputs accessed directly, with observed sizes.
    pub inputs: BTreeMap<InputId, InputObservation>,
    /// Whether the repetition has terminated (false only for invocations
    /// still in flight or left open by an aborted run).
    pub finished: bool,
}

/// Mutable bookkeeping for an invocation in flight.
///
/// Costs are kept flat rather than in a [`CostMap`]: steps in one
/// counter, creations, external I/O and lock waits in a short tally,
/// and every access count in the record of the input it touched. An
/// access then costs one record lookup, which also serves its size
/// observation. [`RepTree::finalize_invocation`] rebuilds the ordered
/// [`CostMap`] and observation map from them.
#[derive(Debug, Clone, PartialEq)]
pub struct ActiveInvocation {
    /// The pre-assigned index in [`RepNode::invocations`].
    pub ordinal: usize,
    /// Algorithmic steps so far.
    pub steps: u64,
    /// Counts of the other operations counted through
    /// [`ActiveInvocation::bump`] (creations, external I/O, lock waits),
    /// one entry per key.
    pub tally: Vec<(CostKey, u64)>,
    /// One record per input accessed or observed so far.
    pub inputs: InputRecords,
    /// The input of the most recent resolved access; unresolved
    /// references (mid-construction) are attributed here.
    pub open_input: Option<InputId>,
}

impl ActiveInvocation {
    fn new(ordinal: usize) -> Self {
        ActiveInvocation {
            ordinal,
            steps: 0,
            tally: Vec::new(),
            inputs: InputRecords::default(),
            open_input: None,
        }
    }

    /// Counts one occurrence of `key`. The profiler counts accesses on
    /// their input's record ([`InputRecord::count`]) instead.
    pub fn bump(&mut self, key: CostKey) {
        match key {
            CostKey::Step => self.steps += 1,
            _ => bump_in(&mut self.tally, key),
        }
    }

    /// The ordered cost map of everything counted so far, with per-type
    /// structure access counts folded into their totals
    /// ([`CostMap::fold_by_type`]).
    fn costs(&self) -> CostMap {
        let mut costs = CostMap::new();
        costs.add(CostKey::Step, self.steps);
        for &(key, n) in &self.tally {
            costs.add(key, n);
        }
        for record in self.inputs.iter() {
            for &(target, [reads, writes]) in &record.counts {
                costs.add(target.key(record.input, AccessOp::Read), reads);
                costs.add(target.key(record.input, AccessOp::Write), writes);
            }
        }
        costs.fold_by_type();
        costs
    }
}

/// Adds one to `key`'s entry of a short count list.
fn bump_in(counts: &mut Vec<(CostKey, u64)>, key: CostKey) {
    match counts.iter_mut().find(|(k, _)| *k == key) {
        Some((_, n)) => *n += 1,
        None => counts.push((key, 1)),
    }
}

/// In-flight record of one input within one invocation: its sizes, the
/// last reference accessed, and the accesses counted on it.
#[derive(Debug, Clone, PartialEq)]
pub struct InputRecord {
    /// The input.
    pub input: InputId,
    /// Size at the first access.
    pub first_size: usize,
    /// Size at the exit re-measurement (set by `remeasureInputs`).
    pub exit_size: usize,
    /// Running maximum.
    pub max_size: usize,
    /// Last reference accessed (the exit re-measurement starts here).
    pub last_ref: Option<Value>,
    /// Access counts on this input: `[reads, writes]` per access
    /// target, so the reads and writes of one class share an entry.
    /// Finalizing the invocation turns each into its [`CostKey`]s
    /// ([`AccessTarget::key`]).
    pub counts: Vec<(AccessTarget, [u64; 2])>,
}

impl InputRecord {
    fn new(input: InputId) -> Self {
        InputRecord {
            input,
            first_size: 0,
            exit_size: 0,
            max_size: 0,
            last_ref: None,
            counts: Vec::new(),
        }
    }

    /// Counts one `op` access of `target`.
    pub fn count(&mut self, target: AccessTarget, op: AccessOp) {
        let at = match self.counts.iter().position(|&(t, _)| t == target) {
            Some(at) => at,
            None => {
                self.counts.push((target, [0, 0]));
                self.counts.len() - 1
            }
        };
        self.counts[at].1[usize::from(op == AccessOp::Write)] += 1;
    }

    fn observation(&self) -> InputObservation {
        InputObservation {
            first_size: self.first_size,
            exit_size: self.exit_size,
            max_size: self.max_size,
        }
    }
}

/// The input records of an invocation in flight, in first-access order
/// until the exit re-measurement sorts them.
/// Most invocations touch one or two inputs, and consecutive accesses
/// mostly touch the same one, so lookup tries the most recently used
/// record first and then scans.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InputRecords {
    records: Vec<InputRecord>,
    recent: usize,
}

impl InputRecords {
    /// The record of `input`, opened (all sizes 0) if there is none yet;
    /// the flag is `true` when it was just opened.
    pub fn find_or_insert(&mut self, input: InputId) -> (&mut InputRecord, bool) {
        let found = match self.records.get(self.recent) {
            Some(r) if r.input == input => Some(self.recent),
            _ => self.records.iter().position(|r| r.input == input),
        };
        let (at, opened) = match found {
            Some(at) => (at, false),
            None => {
                self.records.push(InputRecord::new(input));
                (self.records.len() - 1, true)
            }
        };
        self.recent = at;
        (&mut self.records[at], opened)
    }

    /// Every record, mutably, after sorting them into `InputId` order.
    pub fn by_input_mut(&mut self) -> impl Iterator<Item = &mut InputRecord> + '_ {
        self.records.sort_unstable_by_key(|r| r.input);
        self.records.iter_mut()
    }

    /// Every record, in first-access order (until
    /// [`InputRecords::by_input_mut`] sorts them).
    pub fn iter(&self) -> impl Iterator<Item = &InputRecord> + '_ {
        self.records.iter()
    }
}

/// One node of the repetition tree.
#[derive(Debug, Clone, PartialEq)]
pub struct RepNode {
    /// This node's id.
    pub id: NodeId,
    /// What repetition it represents.
    pub kind: RepKind,
    /// Parent node (`None` for the root).
    pub parent: Option<NodeId>,
    /// Children in creation order.
    pub children: Vec<NodeId>,
    /// Invocation history, ordered by start time.
    pub invocations: Vec<Invocation>,
    /// Stack of activations in flight (innermost last).
    pub active: Vec<ActiveInvocation>,
    /// Recursion nesting depth (for [`RepKind::Recursion`] folding).
    pub recursion_depth: u32,
}

impl RepNode {
    /// Total algorithmic steps across all invocations.
    pub fn total_steps(&self) -> u64 {
        self.invocations.iter().map(|i| i.costs.steps()).sum()
    }

    /// Inputs accessed directly by any invocation.
    pub fn accessed_inputs(&self) -> Vec<InputId> {
        let mut out: Vec<InputId> = self
            .invocations
            .iter()
            .flat_map(|i| i.inputs.keys().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The innermost activation, if the repetition is running.
    pub fn current(&self) -> Option<&ActiveInvocation> {
        self.active.last()
    }

    /// Mutable innermost activation.
    pub fn current_mut(&mut self) -> Option<&mut ActiveInvocation> {
        self.active.last_mut()
    }
}

/// The repetition tree for one guest thread (jay is single-threaded, so
/// one per run).
#[derive(Debug, Clone, PartialEq)]
pub struct RepTree {
    nodes: Vec<RepNode>,
}

impl RepTree {
    /// Creates a tree containing only the root node, with an active root
    /// invocation covering the whole run.
    pub fn new() -> Self {
        let mut tree = RepTree {
            nodes: vec![RepNode {
                id: NodeId(0),
                kind: RepKind::Root,
                parent: None,
                children: Vec::new(),
                invocations: Vec::new(),
                active: Vec::new(),
                recursion_depth: 0,
            }],
        };
        tree.start_invocation(NodeId(0), None);
        tree
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// All nodes, indexable by [`NodeId`].
    pub fn nodes(&self) -> &[RepNode] {
        &self.nodes
    }

    /// Immutable access to a node.
    pub fn node(&self, id: NodeId) -> &RepNode {
        &self.nodes[id.index()]
    }

    /// Mutable access to a node.
    pub fn node_mut(&mut self, id: NodeId) -> &mut RepNode {
        &mut self.nodes[id.index()]
    }

    /// Number of nodes (including the root).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree holds only the root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Finds or creates the child of `parent` representing `kind`.
    pub fn get_or_create_child(&mut self, parent: NodeId, kind: RepKind) -> NodeId {
        if let Some(&c) = self.nodes[parent.index()]
            .children
            .iter()
            .find(|&&c| self.nodes[c.index()].kind == kind)
        {
            return c;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(RepNode {
            id,
            kind,
            parent: Some(parent),
            children: Vec::new(),
            invocations: Vec::new(),
            active: Vec::new(),
            recursion_depth: 0,
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Walks from `from` to the root looking for a recursion node for
    /// `method` (the paper's `tree.findOnPathToRoot`).
    pub fn find_on_path_to_root(&self, from: NodeId, method: FuncId) -> Option<NodeId> {
        let mut cur = Some(from);
        while let Some(id) = cur {
            let node = &self.nodes[id.index()];
            if node.kind == RepKind::Recursion(method) {
                return Some(id);
            }
            cur = node.parent;
        }
        None
    }

    /// The chain of node ids from `from` up to and including the root.
    pub fn path_to_root(&self, from: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = Some(from);
        while let Some(id) = cur {
            out.push(id);
            cur = self.nodes[id.index()].parent;
        }
        out
    }

    /// The ordinal of `node`'s innermost active invocation (used for
    /// parent links).
    pub fn current_ordinal(&self, node: NodeId) -> Option<usize> {
        self.nodes[node.index()].active.last().map(|a| a.ordinal)
    }

    /// Starts an invocation of `node`, reserving its ordinal immediately.
    /// Returns the ordinal.
    pub fn start_invocation(&mut self, node: NodeId, parent: Option<(NodeId, usize)>) -> usize {
        let n = &mut self.nodes[node.index()];
        let ordinal = n.invocations.len();
        n.invocations.push(Invocation {
            parent,
            costs: CostMap::new(),
            inputs: BTreeMap::new(),
            finished: false,
        });
        n.active.push(ActiveInvocation::new(ordinal));
        ordinal
    }

    /// Finalizes the innermost activation of `node`, writing it into the
    /// history slot reserved at start, with its per-type structure
    /// access counts folded into their totals
    /// ([`CostMap::fold_by_type`]). Returns its ordinal.
    ///
    /// # Panics
    ///
    /// Panics when the node has no activation in flight (the VM
    /// guarantees balanced entry/exit events).
    pub fn finalize_invocation(&mut self, node: NodeId) -> usize {
        let n = &mut self.nodes[node.index()];
        let active = n.active.pop().expect("an invocation is active");
        let slot = &mut n.invocations[active.ordinal];
        slot.costs = active.costs();
        slot.inputs = active
            .inputs
            .iter()
            .map(|r| (r.input, r.observation()))
            .collect();
        slot.finished = true;
        active.ordinal
    }

    /// Finalizes every activation still in flight anywhere in the tree
    /// (used at end of run and after aborted runs).
    pub fn finalize_all(&mut self) {
        for i in 0..self.nodes.len() {
            while !self.nodes[i].active.is_empty() {
                self.finalize_invocation(NodeId(i as u32));
            }
        }
    }
}

impl Default for RepTree {
    fn default() -> Self {
        RepTree::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostKey;

    #[test]
    fn new_tree_has_active_root() {
        let tree = RepTree::new();
        assert_eq!(tree.len(), 1);
        assert!(tree.node(tree.root()).current().is_some());
        assert!(tree.is_empty());
    }

    #[test]
    fn get_or_create_child_is_idempotent() {
        let mut tree = RepTree::new();
        let a = tree.get_or_create_child(tree.root(), RepKind::Loop(LoopId(0)));
        let b = tree.get_or_create_child(tree.root(), RepKind::Loop(LoopId(0)));
        let c = tree.get_or_create_child(tree.root(), RepKind::Loop(LoopId(1)));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(tree.node(tree.root()).children.len(), 2);
    }

    #[test]
    fn find_on_path_to_root_sees_ancestors_only() {
        let mut tree = RepTree::new();
        let rec = tree.get_or_create_child(tree.root(), RepKind::Recursion(FuncId(7)));
        let inner = tree.get_or_create_child(rec, RepKind::Loop(LoopId(0)));
        let sibling = tree.get_or_create_child(tree.root(), RepKind::Loop(LoopId(1)));
        assert_eq!(tree.find_on_path_to_root(inner, FuncId(7)), Some(rec));
        assert_eq!(tree.find_on_path_to_root(sibling, FuncId(7)), None);
    }

    #[test]
    fn invocation_lifecycle_records_history() {
        let mut tree = RepTree::new();
        let l = tree.get_or_create_child(tree.root(), RepKind::Loop(LoopId(0)));
        let ord = tree.start_invocation(l, Some((tree.root(), 0)));
        assert_eq!(ord, 0);
        tree.node_mut(l)
            .current_mut()
            .expect("active")
            .bump(CostKey::Step);
        let ordinal = tree.finalize_invocation(l);
        assert_eq!(ordinal, 0);
        assert_eq!(tree.node(l).invocations.len(), 1);
        assert_eq!(tree.node(l).total_steps(), 1);
        assert_eq!(tree.node(l).invocations[0].parent, Some((tree.root(), 0)));
        assert!(tree.node(l).invocations[0].finished);
    }

    #[test]
    fn reentrant_activations_stack_and_keep_ordinals() {
        // Simulates a loop inside a recursive method: the same node is
        // re-entered while still active.
        let mut tree = RepTree::new();
        let l = tree.get_or_create_child(tree.root(), RepKind::Loop(LoopId(0)));
        let outer = tree.start_invocation(l, Some((tree.root(), 0)));
        tree.node_mut(l).current_mut().expect("outer active").steps += 10;
        let inner = tree.start_invocation(l, Some((tree.root(), 0)));
        assert_ne!(outer, inner);
        tree.node_mut(l).current_mut().expect("inner active").steps += 3;
        // Inner finishes first but keeps its own ordinal.
        assert_eq!(tree.finalize_invocation(l), inner);
        assert_eq!(tree.finalize_invocation(l), outer);
        assert_eq!(tree.node(l).invocations[outer].costs.steps(), 10);
        assert_eq!(tree.node(l).invocations[inner].costs.steps(), 3);
    }

    #[test]
    fn finalize_all_closes_everything() {
        let mut tree = RepTree::new();
        let l = tree.get_or_create_child(tree.root(), RepKind::Loop(LoopId(0)));
        tree.start_invocation(l, None);
        tree.start_invocation(l, None);
        tree.finalize_all();
        assert!(tree.node(l).active.is_empty());
        assert!(tree.node(tree.root()).active.is_empty());
        assert!(tree.node(l).invocations.iter().all(|i| i.finished));
    }

    #[test]
    fn path_to_root_orders_innermost_first() {
        let mut tree = RepTree::new();
        let a = tree.get_or_create_child(tree.root(), RepKind::Loop(LoopId(0)));
        let b = tree.get_or_create_child(a, RepKind::Loop(LoopId(1)));
        let path = tree.path_to_root(b);
        assert_eq!(path, vec![b, a, tree.root()]);
    }

    #[test]
    fn current_ordinal_tracks_innermost() {
        let mut tree = RepTree::new();
        let l = tree.get_or_create_child(tree.root(), RepKind::Loop(LoopId(0)));
        assert_eq!(tree.current_ordinal(l), None);
        tree.start_invocation(l, None);
        assert_eq!(tree.current_ordinal(l), Some(0));
        tree.start_invocation(l, None);
        assert_eq!(tree.current_ordinal(l), Some(1));
        tree.finalize_invocation(l);
        assert_eq!(tree.current_ordinal(l), Some(0));
    }
}

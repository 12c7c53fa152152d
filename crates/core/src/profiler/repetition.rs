//! Repetition-structure stage: the tree-navigation half of AlgoProf.
//!
//! [`RepetitionStage`] owns the repetition tree and the profiler's
//! position in it (`tn` plus the shadow stack of the paper's pseudocode).
//! It reacts to the *control-flow* events — loop entry/back-edge/exit,
//! method entry/exit with recursion folding — and exposes the current
//! active invocation so the attribution stage can attach input
//! observations to it. It knows nothing about snapshots or input
//! identity.

use algoprof_vm::{FuncId, LoopId};

use crate::cost::CostKey;
use crate::inputs::InputId;
use crate::reptree::{ActiveInvocation, NodeId, RepKind, RepTree};

/// Tracks the repetition tree and the active position within it.
#[derive(Debug)]
pub struct RepetitionStage {
    tree: RepTree,
    tn: NodeId,
    shadow: Vec<NodeId>,
}

impl RepetitionStage {
    /// A fresh stage positioned at the tree root.
    pub fn new() -> Self {
        let tree = RepTree::new();
        let tn = tree.root();
        RepetitionStage {
            tree,
            tn,
            shadow: Vec::new(),
        }
    }

    /// The repetition tree built so far.
    pub fn tree(&self) -> &RepTree {
        &self.tree
    }

    /// Consumes the stage, finalizing every open invocation (the root
    /// always is; more remain only after an aborted run).
    pub fn into_finalized_tree(mut self) -> RepTree {
        self.tree.finalize_all();
        self.tree
    }

    /// The current node's active invocation, if any.
    pub fn current(&self) -> Option<&ActiveInvocation> {
        self.tree.node(self.tn).current()
    }

    /// Mutable access to the current node's active invocation.
    pub fn current_mut(&mut self) -> Option<&mut ActiveInvocation> {
        self.tree.node_mut(self.tn).current_mut()
    }

    /// Counts one `key` on the current invocation.
    pub fn bump(&mut self, key: CostKey) {
        if let Some(cur) = self.current_mut() {
            cur.bump(key);
        }
    }

    /// Inputs observed by any invocation active on the current chain —
    /// the candidate set for value-based snapshot matching.
    pub fn chain_candidates(&self) -> Vec<InputId> {
        let mut out = Vec::new();
        for node in self.tree.path_to_root(self.tn) {
            for activation in &self.tree.node(node).active {
                out.extend(activation.inputs.iter().map(|r| r.input));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn parent_link(&self) -> (NodeId, usize) {
        let ordinal = self
            .tree
            .current_ordinal(self.tn)
            .expect("the current node has an active invocation");
        (self.tn, ordinal)
    }

    /// Loop entry: `tn = tn.getOrCreateChild(loop)`, push shadow, start
    /// an invocation linked to the parent.
    pub fn enter_loop(&mut self, l: LoopId) {
        let link = self.parent_link();
        let child = self.tree.get_or_create_child(self.tn, RepKind::Loop(l));
        self.shadow.push(self.tn);
        self.tn = child;
        self.tree.start_invocation(child, Some(link));
    }

    /// Loop exit: finalize the loop's invocation and pop back to the
    /// parent. The caller remeasures inputs *before* calling this.
    pub fn exit_loop(&mut self) {
        self.tree.finalize_invocation(self.tn);
        self.tn = self.shadow.pop().expect("loop exit balances a loop entry");
    }

    /// Method entry with recursion folding: jump to a header already on
    /// the path to the root (counting a step) or create a recursion
    /// child, starting an invocation only at recursion depth zero.
    pub fn enter_method(&mut self, m: FuncId) {
        if let Some(header) = self.tree.find_on_path_to_root(self.tn, m) {
            self.shadow.push(self.tn);
            self.tn = header;
            self.bump(CostKey::Step);
            self.tree.node_mut(header).recursion_depth += 1;
        } else {
            let link = self.parent_link();
            let child = self
                .tree
                .get_or_create_child(self.tn, RepKind::Recursion(m));
            self.shadow.push(self.tn);
            self.tn = child;
            if self.tree.node(child).recursion_depth == 0 {
                self.tree.start_invocation(child, Some(link));
            }
            self.tree.node_mut(child).recursion_depth += 1;
        }
    }

    /// Method exit, first half: drop one recursion level and report
    /// whether the outermost activation just ended — in which case the
    /// caller remeasures inputs, then calls [`finalize_current`] and
    /// [`pop_method`].
    ///
    /// [`finalize_current`]: RepetitionStage::finalize_current
    /// [`pop_method`]: RepetitionStage::pop_method
    pub fn leave_method_frame(&mut self) -> bool {
        let node = self.tree.node_mut(self.tn);
        node.recursion_depth = node.recursion_depth.saturating_sub(1);
        node.recursion_depth == 0
    }

    /// Finalizes the current node's invocation (method exit at recursion
    /// depth zero).
    pub fn finalize_current(&mut self) {
        self.tree.finalize_invocation(self.tn);
    }

    /// Method exit, second half: return to the caller's node.
    pub fn pop_method(&mut self) {
        self.tn = self
            .shadow
            .pop()
            .expect("method exit balances a method entry");
    }
}

impl Default for RepetitionStage {
    fn default() -> Self {
        RepetitionStage::new()
    }
}

//! Grouping repetition nodes into algorithms (paper §2.5) and combining
//! costs (paper §2.6).
//!
//! An *algorithm* is a connected subtree of the repetition tree. Parent
//! and child repetitions are grouped when they directly access at least
//! one common input — the heuristic that correctly fuses the two loops of
//! the insertion sort but (deliberately, as the paper reports in Table 1)
//! fails to fuse 2-d array loop nests whose outer loop performs no array
//! access itself.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

use algoprof_vm::{CompiledProgram, LoopId};

use crate::cost::CostMap;
use crate::inputs::InputId;
use crate::reptree::{NodeId, RepKind, RepTree};

/// How repetition nodes are grouped into algorithms (paper §2.5 defines
/// the input-sharing heuristic and envisions alternatives; §4.1 sketches
/// the index-dataflow refinement implemented in
/// [`algoprof_vm::indexflow`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GroupingStrategy {
    /// Group parent and child when they directly access a common input —
    /// AlgoProf's default.
    #[default]
    SharedInput,
    /// [`GroupingStrategy::SharedInput`] plus the §4.1 fix: also group a
    /// loop nest when the outer loop drives an index used by the inner
    /// loop's array accesses (repairs the two `-` rows of Table 1).
    SharedInputOrIndexFlow,
    /// Group loops declared in the same method (the alternative §2.5
    /// mentions). Coarser: fuses unrelated sibling loops.
    SameMethod,
}

/// Index of an algorithm within a profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AlgorithmId(pub u32);

impl AlgorithmId {
    /// The id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AlgorithmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "algorithm#{}", self.0)
    }
}

/// One ⟨input sizes, combined cost⟩ observation: a single invocation of
/// the algorithm's root repetition with all member costs folded in.
#[derive(Debug, Clone, PartialEq)]
pub struct DataPoint {
    /// Ordinal of the root repetition's invocation.
    pub root_invocation: usize,
    /// Combined costs: the root invocation's own costs plus the costs of
    /// every member invocation nested (transitively) inside it.
    pub costs: CostMap,
    /// Largest size observed for each input during this invocation.
    pub input_sizes: BTreeMap<InputId, usize>,
}

/// A group of repetition-tree nodes forming one algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct Algorithm {
    /// The algorithm's id.
    pub id: AlgorithmId,
    /// The shallowest member (cost and input sizes attribute here).
    pub root: NodeId,
    /// All members, root first, in tree preorder.
    pub members: Vec<NodeId>,
    /// Inputs directly accessed by any member.
    pub inputs: Vec<InputId>,
    /// One combined data point per root invocation.
    pub points: Vec<DataPoint>,
    /// Combined costs across all invocations.
    pub total_costs: CostMap,
}

impl Algorithm {
    /// Number of times the algorithm ran.
    pub fn invocation_count(&self) -> usize {
        self.points.len()
    }
}

/// Partitions the repetition tree into algorithms: a node joins its
/// parent's algorithm when the chosen [`GroupingStrategy`] says so.
/// `program` supplies loop metadata for the non-default strategies (pass
/// `None` with [`GroupingStrategy::SharedInput`]).
pub fn group_algorithms_with(
    tree: &RepTree,
    program: Option<&CompiledProgram>,
    strategy: GroupingStrategy,
) -> Vec<Algorithm> {
    let n = tree.len();
    let mut accessed: Vec<Vec<InputId>> = Vec::with_capacity(n);
    for node in tree.nodes() {
        accessed.push(node.accessed_inputs());
    }

    let hints: HashSet<(LoopId, LoopId)> = match (strategy, program) {
        (GroupingStrategy::SharedInputOrIndexFlow, Some(p)) => {
            p.loop_hints.iter().copied().collect()
        }
        _ => HashSet::new(),
    };
    let loop_func = |l: LoopId| program.map(|p| p.loop_info(l).func);

    let joins_parent = |parent: NodeId, child: NodeId| -> bool {
        let shares = accessed[child.index()]
            .iter()
            .any(|i| accessed[parent.index()].contains(i));
        if shares {
            return true;
        }
        let (pk, ck) = (tree.node(parent).kind, tree.node(child).kind);
        match strategy {
            GroupingStrategy::SharedInput => false,
            GroupingStrategy::SharedInputOrIndexFlow => match (pk, ck) {
                (RepKind::Loop(a), RepKind::Loop(b)) => {
                    // The outer loop may drive an index used deeper than
                    // the immediate child (e.g. the middle loop of a
                    // matrix-multiply nest performs no access itself);
                    // a hint into any loop nested within `b` fuses the
                    // chain link.
                    hints.iter().any(|&(outer, inner)| {
                        outer == a
                            && program.is_some_and(|p| {
                                let mut cur = Some(inner);
                                while let Some(l) = cur {
                                    if l == b {
                                        return true;
                                    }
                                    cur = p.loop_info(l).parent;
                                }
                                false
                            })
                    })
                }
                _ => false,
            },
            GroupingStrategy::SameMethod => match (pk, ck) {
                (RepKind::Loop(a), RepKind::Loop(b)) => {
                    loop_func(a).is_some() && loop_func(a) == loop_func(b)
                }
                _ => false,
            },
        }
    };

    let mut algo_of: Vec<usize> = vec![usize::MAX; n];
    let mut algos: Vec<Vec<NodeId>> = Vec::new();

    // Preorder walk from the root; parents are visited before children.
    let mut stack = vec![tree.root()];
    while let Some(id) = stack.pop() {
        let idx = id.index();
        match tree.node(id).parent {
            None => {
                algo_of[idx] = algos.len();
                algos.push(vec![id]);
            }
            #[allow(clippy::collapsible_match)] // reads better as a guard
            Some(p) => {
                if joins_parent(p, id) {
                    let a = algo_of[p.index()];
                    algo_of[idx] = a;
                    algos[a].push(id);
                } else {
                    algo_of[idx] = algos.len();
                    algos.push(vec![id]);
                }
            }
        }
        // Push children in reverse so preorder matches creation order.
        for &c in tree.node(id).children.iter().rev() {
            stack.push(c);
        }
    }

    algos
        .into_iter()
        .enumerate()
        .map(|(i, members)| build_algorithm(tree, AlgorithmId(i as u32), members, &accessed))
        .collect()
}

/// Combines member invocation costs into per-root-invocation data points
/// (paper §2.6: "the child's cost is added to the parent's cost").
fn build_algorithm(
    tree: &RepTree,
    id: AlgorithmId,
    members: Vec<NodeId>,
    accessed: &[Vec<InputId>],
) -> Algorithm {
    let root = members[0];
    let mut inputs: Vec<InputId> = members
        .iter()
        .flat_map(|m| accessed[m.index()].iter().copied())
        .collect();
    inputs.sort_unstable();
    inputs.dedup();

    let root_invocations = tree.node(root).invocations.len();
    let mut points: Vec<DataPoint> = (0..root_invocations)
        .map(|i| DataPoint {
            root_invocation: i,
            costs: CostMap::new(),
            input_sizes: BTreeMap::new(),
        })
        .collect();

    let member_set: Vec<bool> = {
        let mut v = vec![false; tree.len()];
        for &m in &members {
            v[m.index()] = true;
        }
        v
    };

    // Maps a member invocation to the root invocation containing it.
    let mut memo: HashMap<(NodeId, usize), Option<usize>> = HashMap::new();
    fn resolve(
        tree: &RepTree,
        root: NodeId,
        member_set: &[bool],
        memo: &mut HashMap<(NodeId, usize), Option<usize>>,
        node: NodeId,
        ord: usize,
    ) -> Option<usize> {
        if node == root {
            return Some(ord);
        }
        if let Some(&r) = memo.get(&(node, ord)) {
            return r;
        }
        let inv = tree.node(node).invocations.get(ord)?;
        let result = match inv.parent {
            Some((p, po)) if member_set[p.index()] => resolve(tree, root, member_set, memo, p, po),
            _ => None,
        };
        memo.insert((node, ord), result);
        result
    }

    for &m in &members {
        for (ord, inv) in tree.node(m).invocations.iter().enumerate() {
            let Some(ri) = resolve(tree, root, &member_set, &mut memo, m, ord) else {
                continue;
            };
            let point = &mut points[ri];
            point.costs.merge(&inv.costs);
            for (&input, obs) in &inv.inputs {
                let e = point.input_sizes.entry(input).or_insert(0);
                *e = (*e).max(obs.max_size);
            }
        }
    }

    let mut total_costs = CostMap::new();
    for p in &points {
        total_costs.merge(&p.costs);
    }

    Algorithm {
        id,
        root,
        members,
        inputs,
        points,
        total_costs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostKey;
    use crate::reptree::RepKind;
    use algoprof_vm::LoopId;

    /// Records an observation of `input` at `size` on `node`'s innermost
    /// activation.
    fn observe(tree: &mut RepTree, node: NodeId, input: InputId, size: usize) {
        let cur = tree.node_mut(node).current_mut().expect("node active");
        let (at, _) = cur.inputs.find_or_insert(input);
        let record = cur.inputs.at_mut(at);
        record.first_size = size;
        record.exit_size = size;
        record.max_size = size;
    }

    /// Builds the Listing-3 shape: an outer loop with 3 iterations whose
    /// inner loop runs 0+1+2 times, both touching input#0.
    fn listing3_tree() -> RepTree {
        let mut tree = RepTree::new();
        let outer = tree.get_or_create_child(tree.root(), RepKind::Loop(LoopId(0)));
        let inner = tree.get_or_create_child(outer, RepKind::Loop(LoopId(1)));

        tree.start_invocation(outer, Some((tree.root(), 0)));
        for o in 0..3u64 {
            // Outer iteration (one step per back edge).
            tree.node_mut(outer)
                .current_mut()
                .expect("outer active")
                .bump(CostKey::Step);
            // Inner invocation with `o` steps.
            tree.start_invocation(inner, Some((outer, 0)));
            tree.node_mut(inner)
                .current_mut()
                .expect("inner active")
                .steps += o;
            observe(&mut tree, inner, InputId(0), 5);
            tree.finalize_invocation(inner);
        }
        // Mark the outer loop as accessing the same input so grouping
        // fuses the nest.
        observe(&mut tree, outer, InputId(0), 5);
        tree.finalize_invocation(outer);
        tree.finalize_invocation(tree.root());
        tree
    }

    #[test]
    fn listing3_combined_cost_is_six_steps() {
        let tree = listing3_tree();
        let algos = group_algorithms_with(&tree, None, GroupingStrategy::SharedInput);
        // Root (no inputs) and the fused nest.
        assert_eq!(algos.len(), 2);
        let nest = algos
            .iter()
            .find(|a| a.members.len() == 2)
            .expect("fused loop nest");
        assert_eq!(nest.points.len(), 1);
        // 3 outer + (0+1+2) inner = 6 algorithmic steps (paper §2.6).
        assert_eq!(nest.points[0].costs.steps(), 6);
        assert_eq!(nest.points[0].input_sizes.get(&InputId(0)), Some(&5));
        assert_eq!(nest.invocation_count(), 1);
    }

    #[test]
    fn nodes_without_shared_input_stay_separate() {
        let mut tree = RepTree::new();
        let outer = tree.get_or_create_child(tree.root(), RepKind::Loop(LoopId(0)));
        let inner = tree.get_or_create_child(outer, RepKind::Loop(LoopId(1)));
        tree.start_invocation(outer, Some((tree.root(), 0)));
        tree.start_invocation(inner, Some((outer, 0)));
        // Only the inner loop touches the input (the Listing-5 situation).
        observe(&mut tree, inner, InputId(0), 9);
        tree.finalize_invocation(inner);
        tree.finalize_invocation(outer);
        tree.finalize_invocation(tree.root());

        let algos = group_algorithms_with(&tree, None, GroupingStrategy::SharedInput);
        assert_eq!(algos.len(), 3, "root, outer, inner all separate");
    }
}

//! The final algorithmic profile: repetition tree + inputs + algorithms
//! + classifications + cost-function fitting.

use algoprof_fit::{best_fit, Fit, PowerFit};
use algoprof_vm::CompiledProgram;

use crate::algorithms::{group_algorithms_with, Algorithm, AlgorithmId, GroupingStrategy};
use crate::classify::{classify, AlgorithmClass, Classification};
use crate::cost::CostKey;
use crate::inputs::{InputId, InputKind, InputRegistry};
use crate::reptree::{NodeId, RepKind, RepTree};

/// Which combined cost is plotted against input size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostMetric {
    /// Algorithmic steps (loop iterations + recursive calls).
    Steps,
    /// Structure/array reads of the plotted input.
    Reads,
    /// Structure/array writes of the plotted input.
    Writes,
    /// Element creations (all classes).
    Creations,
    /// External input reads.
    InputReads,
    /// External output writes.
    OutputWrites,
}

/// A complete algorithmic profile of one run.
///
/// Self-contained: names are resolved against the program at build time,
/// so the profile can outlive the `CompiledProgram`.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgorithmicProfile {
    tree: RepTree,
    registry: InputRegistry,
    algorithms: Vec<Algorithm>,
    classifications: Vec<Vec<Classification>>,
    node_names: Vec<String>,
    input_names: Vec<String>,
    class_names: Vec<String>,
}

impl AlgorithmicProfile {
    /// Groups, classifies, and names everything. Called by
    /// [`AlgoProf::finish`](crate::AlgoProf::finish).
    pub fn build(tree: RepTree, registry: InputRegistry, program: &CompiledProgram) -> Self {
        Self::build_with(tree, registry, program, GroupingStrategy::default())
    }

    /// Like [`AlgorithmicProfile::build`] with an explicit grouping
    /// strategy.
    pub fn build_with(
        tree: RepTree,
        registry: InputRegistry,
        program: &CompiledProgram,
        strategy: GroupingStrategy,
    ) -> Self {
        let algorithms = group_algorithms_with(&tree, Some(program), strategy);
        let classifications = algorithms.iter().map(|a| classify(a, &registry)).collect();
        let node_names = tree
            .nodes()
            .iter()
            .map(|n| match n.kind {
                RepKind::Root => "Program".to_owned(),
                RepKind::Loop(l) => program.loop_info(l).name.clone(),
                RepKind::Recursion(f) => format!("{} (recursion)", program.func(f).name),
            })
            .collect();
        let input_names = registry
            .inputs()
            .iter()
            .map(|i| i.describe(program))
            .collect();
        let class_names = program.classes.iter().map(|c| c.name.clone()).collect();
        AlgorithmicProfile {
            tree,
            registry,
            algorithms,
            classifications,
            node_names,
            input_names,
            class_names,
        }
    }

    /// The repetition tree.
    pub fn tree(&self) -> &RepTree {
        &self.tree
    }

    /// The input registry.
    pub fn registry(&self) -> &InputRegistry {
        &self.registry
    }

    /// All algorithms found in the run (the root's data-structure-less
    /// algorithm included).
    pub fn algorithms(&self) -> &[Algorithm] {
        &self.algorithms
    }

    /// One algorithm by id.
    pub fn algorithm(&self, id: AlgorithmId) -> &Algorithm {
        &self.algorithms[id.index()]
    }

    /// The per-input classifications of one algorithm.
    pub fn classifications(&self, id: AlgorithmId) -> &[Classification] {
        &self.classifications[id.index()]
    }

    /// The display name of a repetition-tree node.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id.index()]
    }

    /// The description of an input, e.g. `Node-based recursive structure`.
    pub fn input_description(&self, id: InputId) -> &str {
        &self.input_names[id.index()]
    }

    /// Finds the algorithm whose root node's name contains `needle`
    /// (loops are named `Class.method:loopN@Lline`).
    pub fn algorithm_by_root_name(&self, needle: &str) -> Option<&Algorithm> {
        self.algorithms
            .iter()
            .find(|a| self.node_name(a.root).contains(needle))
    }

    /// All algorithms whose member names contain `needle`.
    pub fn algorithms_touching(&self, needle: &str) -> Vec<&Algorithm> {
        self.algorithms
            .iter()
            .filter(|a| {
                a.members
                    .iter()
                    .any(|&m| self.node_name(m).contains(needle))
            })
            .collect()
    }

    /// The ⟨input size, cost⟩ series of one algorithm for one input and
    /// metric, ready for fitting or plotting.
    pub fn series(&self, algo: AlgorithmId, input: InputId, metric: CostMetric) -> Vec<(f64, f64)> {
        let a = self.algorithm(algo);
        a.points
            .iter()
            .filter_map(|p| {
                let size = *p.input_sizes.get(&input)?;
                let cost = match metric {
                    CostMetric::Steps => p.costs.steps(),
                    CostMetric::Reads => p.costs.reads_of(input),
                    CostMetric::Writes => p.costs.writes_of(input),
                    CostMetric::Creations => p.costs.creations(),
                    CostMetric::InputReads => p.costs.get(CostKey::InputRead),
                    CostMetric::OutputWrites => p.costs.get(CostKey::OutputWrite),
                };
                Some((size as f64, cost as f64))
            })
            .collect()
    }

    /// The ⟨size, cost⟩ series across *all invocations* of an algorithm,
    /// where each point's size is the largest structure/array input the
    /// invocation accessed. This is the Figure-1 view: a harness that
    /// sweeps input sizes creates a fresh structure per run, so each data
    /// point involves a different [`InputId`] playing the same role.
    pub fn invocation_series(&self, algo: AlgorithmId, metric: CostMetric) -> Vec<(f64, f64)> {
        let a = self.algorithm(algo);
        a.points
            .iter()
            .filter_map(|p| {
                let size = p
                    .input_sizes
                    .iter()
                    .filter(|(&i, _)| {
                        matches!(
                            self.registry.input(i).kind,
                            InputKind::Structure | InputKind::Array(_)
                        )
                    })
                    .map(|(_, &s)| s)
                    .max()?;
                let cost = match metric {
                    CostMetric::Steps => p.costs.steps(),
                    CostMetric::Reads => p.costs.total_reads(),
                    CostMetric::Writes => p.costs.total_writes(),
                    CostMetric::Creations => p.costs.creations(),
                    CostMetric::InputReads => p.costs.get(CostKey::InputRead),
                    CostMetric::OutputWrites => p.costs.get(CostKey::OutputWrite),
                };
                Some((size as f64, cost as f64))
            })
            .collect()
    }

    /// Fits the best cost function for steps against per-invocation input
    /// size (see [`AlgorithmicProfile::invocation_series`]).
    pub fn fit_invocation_steps(&self, algo: AlgorithmId) -> Option<Fit> {
        best_fit(&self.invocation_series(algo, CostMetric::Steps))
    }

    /// Power-law fit over the per-invocation series (see
    /// [`AlgorithmicProfile::invocation_series`]).
    pub fn fit_invocation_power_law(&self, algo: AlgorithmId) -> Option<PowerFit> {
        algoprof_fit::fit_power_law(&self.invocation_series(algo, CostMetric::Steps))
    }

    /// The primary (structure or array) input of an algorithm, if any:
    /// the one with the largest observed size.
    pub fn primary_input(&self, algo: AlgorithmId) -> Option<InputId> {
        self.algorithm(algo)
            .inputs
            .iter()
            .copied()
            .filter(|&i| {
                matches!(
                    self.registry.input(i).kind,
                    InputKind::Structure | InputKind::Array(_)
                )
            })
            .max_by_key(|&i| self.registry.input(i).max_size)
    }

    /// A human summary like
    /// `Modification of a Node-based recursive structure`.
    ///
    /// A size-sweeping harness gives an algorithm many same-shaped inputs
    /// (one per run); identical descriptions are deduplicated.
    pub fn describe_algorithm(&self, id: AlgorithmId) -> String {
        let mut parts: Vec<String> = self
            .classifications(id)
            .iter()
            .map(|c| match (c.input, c.class) {
                (Some(i), class) => format!("{} of a {}", class, self.input_description(i)),
                (None, class) => format!("{class} algorithm"),
            })
            .collect();
        parts.sort();
        parts.dedup();
        parts.join("; ")
    }

    /// Structure accesses broken down by element type (paper §3.3's
    /// `cost{input#3, Vertex, PUT}` view): for each class touched through
    /// `input`, the total reads and writes.
    pub fn accesses_by_type(&self, algo: AlgorithmId, input: InputId) -> Vec<(String, u64, u64)> {
        let a = self.algorithm(algo);
        let mut by_class: std::collections::BTreeMap<algoprof_vm::ClassId, (u64, u64)> =
            Default::default();
        for (key, count) in a.total_costs.iter() {
            if let CostKey::StructAccessByType {
                input: i,
                class,
                op,
            } = key
            {
                if i == input {
                    let entry = by_class.entry(class).or_insert((0, 0));
                    match op {
                        crate::cost::AccessOp::Read => entry.0 += count,
                        crate::cost::AccessOp::Write => entry.1 += count,
                    }
                }
            }
        }
        by_class
            .into_iter()
            .map(|(class, (reads, writes))| {
                (
                    self.class_names
                        .get(class.index())
                        .cloned()
                        .unwrap_or_else(|| class.to_string()),
                    reads,
                    writes,
                )
            })
            .collect()
    }

    /// Graphviz DOT rendering of the repetition tree with algorithm
    /// clusters (open with `dot -Tsvg`).
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph repetition_tree {\n  node [shape=box];\n");
        for node in self.tree.nodes() {
            let algo = self
                .algorithms
                .iter()
                .find(|a| a.members.contains(&node.id))
                .map(|a| a.id.0)
                .unwrap_or(u32::MAX);
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    "  n{} [label=\"{}\\ninvocations={} steps={}\\nalgorithm#{}\"];\n",
                    node.id.0,
                    self.node_name(node.id).replace('"', "'"),
                    node.invocations.len(),
                    node.total_steps(),
                    algo,
                ),
            );
            if let Some(p) = node.parent {
                let _ = std::fmt::Write::write_fmt(
                    &mut out,
                    format_args!("  n{} -> n{};\n", p.0, node.id.0),
                );
            }
        }
        out.push_str("}\n");
        out
    }

    /// Whether the algorithm is data-structure-less.
    pub fn is_data_structure_less(&self, id: AlgorithmId) -> bool {
        self.classifications(id)
            .iter()
            .all(|c| c.class == AlgorithmClass::DataStructureLess)
    }

    /// Renders the Figure-3-style textual repetition tree with algorithm
    /// annotations.
    pub fn render_text(&self) -> String {
        crate::report::render(self)
    }

    /// Writes a `size,cost` CSV for one series.
    pub fn series_csv(&self, algo: AlgorithmId, input: InputId, metric: CostMetric) -> String {
        let mut out = String::from("size,cost\n");
        for (s, c) in self.series(algo, input, metric) {
            out.push_str(&format!("{s},{c}\n"));
        }
        out
    }

    /// Total structure/array reads+writes per algorithm invocation data
    /// point, summed over the given input — used by Figure 5, where the
    /// plotted cost is element copies + appends.
    pub fn access_series(&self, algo: AlgorithmId, input: InputId) -> Vec<(f64, f64)> {
        let a = self.algorithm(algo);
        a.points
            .iter()
            .filter_map(|p| {
                let size = *p.input_sizes.get(&input)?;
                let cost = p.costs.reads_of(input) + p.costs.writes_of(input);
                Some((size as f64, cost as f64))
            })
            .collect()
    }
}

/// Memory-footprint summary of a profile (paper §3.3 notes that keeping
/// per-invocation history "can lead to large memory requirements"; this
/// quantifies it, and [`algoprof_fit::StreamingFit`] is the online
/// alternative the paper sketches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileStats {
    /// Repetition-tree nodes.
    pub nodes: usize,
    /// Stored invocations across all nodes.
    pub invocations: usize,
    /// Distinct cost-map entries across all invocations.
    pub cost_entries: usize,
    /// Input observations across all invocations.
    pub observations: usize,
    /// Registered inputs.
    pub inputs: usize,
}

impl AlgorithmicProfile {
    /// Counts the history this profile retains.
    pub fn stats(&self) -> ProfileStats {
        let mut invocations = 0;
        let mut cost_entries = 0;
        let mut observations = 0;
        for node in self.tree.nodes() {
            invocations += node.invocations.len();
            for inv in &node.invocations {
                cost_entries += inv.costs.iter().count();
                observations += inv.inputs.len();
            }
        }
        ProfileStats {
            nodes: self.tree.len(),
            invocations,
            cost_entries,
            observations,
            inputs: self.registry.inputs().len(),
        }
    }
}

/// One algorithmic profile per guest thread, produced by
/// [`AlgoProf::finish_set`](crate::AlgoProf::finish_set).
///
/// Index 0 is always the main thread. Single-threaded runs yield a set
/// with exactly one profile, so every single-threaded code path keeps
/// its old behaviour by looking at [`ProfileSet::main`].
#[derive(Debug, PartialEq)]
pub struct ProfileSet {
    threads: Vec<AlgorithmicProfile>,
}

impl ProfileSet {
    /// Wraps per-thread profiles; `threads[0]` must be the main thread.
    pub fn new(threads: Vec<AlgorithmicProfile>) -> Self {
        assert!(
            !threads.is_empty(),
            "a profile set has at least the main thread"
        );
        ProfileSet { threads }
    }

    /// The main thread's profile.
    pub fn main(&self) -> &AlgorithmicProfile {
        &self.threads[0]
    }

    /// Consumes the set, keeping only the main thread's profile.
    pub fn into_main(self) -> AlgorithmicProfile {
        self.threads
            .into_iter()
            .next()
            .expect("a profile set has at least the main thread")
    }

    /// Profile of thread `t` (`t0` = main) when it exists.
    pub fn thread(&self, t: usize) -> Option<&AlgorithmicProfile> {
        self.threads.get(t)
    }

    /// All per-thread profiles, main thread first.
    pub fn threads(&self) -> &[AlgorithmicProfile] {
        &self.threads
    }

    /// Number of guest threads.
    pub fn len(&self) -> usize {
        self.threads.len()
    }

    /// Always false — the main thread is always present.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether the run spawned any thread beyond main.
    pub fn is_threaded(&self) -> bool {
        self.threads.len() > 1
    }

    /// Merged ⟨size, cost⟩ view across all threads for the algorithm
    /// rooted at `root_name` (exact node-name match) — every thread that
    /// ran the algorithm contributes its invocations.
    pub fn merged_series(&self, root_name: &str, metric: CostMetric) -> Vec<(f64, f64)> {
        let refs: Vec<&AlgorithmicProfile> = self.threads.iter().collect();
        merge_invocation_series(&refs, root_name, metric)
    }

    /// Union of algorithm root names across all threads, deduplicated,
    /// in deterministic (sorted) order.
    pub fn algorithm_names(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for p in &self.threads {
            for a in p.algorithms() {
                let n = p.node_name(a.root).to_string();
                if !names.contains(&n) {
                    names.push(n);
                }
            }
        }
        names.sort();
        names
    }
}

/// Merges ⟨size, steps⟩ series for the same algorithm (matched by root
/// node name) across several profiles — the paper's "set of program
/// runs" usage, where each run contributes data points.
pub fn merge_series(
    profiles: &[&AlgorithmicProfile],
    root_name_needle: &str,
    metric: CostMetric,
) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    for p in profiles {
        if let Some(a) = p.algorithm_by_root_name(root_name_needle) {
            out.extend(p.invocation_series(a.id, metric));
        }
    }
    out.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    out
}

/// Like [`merge_series`] but matching the root node name *exactly* — the
/// sweep engine's merge, where every profile comes from the same source
/// text and names are identical, so substring matching could only
/// introduce ambiguity (`loop1` is a substring of `loop10`'s name
/// prefix).
pub fn merge_invocation_series(
    profiles: &[&AlgorithmicProfile],
    root_name: &str,
    metric: CostMetric,
) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    for p in profiles {
        for a in p.algorithms() {
            if p.node_name(a.root) == root_name {
                out.extend(p.invocation_series(a.id, metric));
            }
        }
    }
    out.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    out
}

/// Like [`merge_invocation_series`], but each profile's points take the
/// *nominal* input size paired with that profile as their x value — the
/// sweep engine's merge. A sweep controls the requested size exactly,
/// while the measured per-invocation structure size can overshoot it: a
/// doubling array list asked for 48 elements grows its backing array to
/// capacity 64, so its run used to land on x = 64 — colliding with the
/// n = 64 job's point and leaving the requested size 48 with no point at
/// all. The job's requested size is the independent variable the sweep
/// varies, so it is the correct x.
pub fn merge_invocation_series_nominal(
    profiles: &[(&AlgorithmicProfile, u64)],
    root_name: &str,
    metric: CostMetric,
) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    for &(p, size) in profiles {
        for a in p.algorithms() {
            if p.node_name(a.root) == root_name {
                out.extend(
                    p.invocation_series(a.id, metric)
                        .into_iter()
                        .map(|(_, cost)| (size as f64, cost)),
                );
            }
        }
    }
    out.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    out
}

//! The AlgoProf dynamic analysis (paper §3.2–§3.4).
//!
//! `AlgoProf` is an [`EventSink`]: it consumes the VM's unified
//! [`Event`] stream (live from the interpreter, or replayed from a
//! recording — same code path either way) and incrementally builds an
//! algorithmic profile. Internally it is a two-stage pipeline:
//!
//! * [`RepetitionStage`] handles the control-flow events, following the
//!   paper's pseudocode — **loop entry** `tn = tn.getOrCreateChild(loop)`
//!   plus a shadow push; **loop back edge** `tn.cost{STEP}++`; **loop
//!   exit** finalize and pop; **method entry** folds recursion by
//!   jumping to a header on the path to the root (counting a step) or
//!   creating a recursion child; **method exit** finalizes when the
//!   recursion depth returns to zero;
//! * [`AttributionStage`] handles the data events — field/array accesses
//!   identify the input (reverse reference map, then snapshot +
//!   equivalence criterion), count the access, and track per-invocation
//!   sizes with the paper's first-access / exit-remeasurement snapshot
//!   optimization.
//!
//! The [`EventSink`] impl on [`AlgoProf`] is the pipeline driver: it
//! routes each event to the right stage and sequences the one cross-stage
//! interaction (inputs are remeasured *before* a repetition finalizes).
//!
//! # Threads
//!
//! The profiler keeps **one pipeline pair per guest thread** and follows
//! the stream's current-thread protocol ([`Event::ThreadSwitch`]): each
//! event is charged to the thread it occurred on, yielding one repetition
//! tree — and ultimately one [`AlgorithmicProfile`] — per thread (see
//! [`ProfileSet`]). Two cross-thread rules, following Coppa, Demetrescu
//! and Finocchi's input-sensitive profiling of multithreaded programs:
//!
//! * **contention is cost to the waiter** — a [`Event::LockWait`] bumps
//!   [`CostKey::LockContention`] on the *blocked* thread's current
//!   invocation;
//! * **cross-thread reads attribute size to the writer** — when a thread
//!   reads a location last written by another thread, the input's
//!   identity and size are also observed on the writing thread's current
//!   invocation (without double-counting the access itself).
//!
//! Single-threaded streams carry no thread events, so everything lands on
//! the one main-thread pipeline exactly as before. The last-writer table
//! behind the second rule is kept only once a second pipeline exists;
//! until then every location was last written by the main thread.

pub mod attribution;
pub mod repetition;

use algoprof_vm::{CompiledProgram, Event, EventCx, EventSink, ThreadId, Value};

use crate::cost::{AccessOp, CostKey};
use crate::inputs::InputRegistry;
use crate::profile::{AlgorithmicProfile, ProfileSet};
use crate::reptree::RepTree;
use crate::snapshot::{
    ArraySizeStrategy, ElemKey, EquivalenceCriterion, IncrementalMode, RefTable, SnapshotStats,
};

pub use attribution::AttributionStage;
pub use repetition::RepetitionStage;

/// When structure snapshots are taken (paper §3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotPolicy {
    /// Snapshot at a repetition's first access of each input and once
    /// more at repetition exit (`remeasureInputs`) — AlgoProf's
    /// optimization.
    #[default]
    FirstAndLast,
    /// Snapshot at every access (precise but expensive; kept for the
    /// ablation benchmarks).
    EveryAccess,
}

/// Configuration of the algorithmic profiler.
#[derive(Debug, Clone, Copy, Default)]
pub struct AlgoProfOptions {
    /// Snapshot-equivalence criterion for input identity.
    pub criterion: EquivalenceCriterion,
    /// Array sizing strategy.
    pub array_strategy: ArraySizeStrategy,
    /// Snapshot frequency.
    pub snapshot_policy: SnapshotPolicy,
    /// How repetitions group into algorithms.
    pub grouping: crate::algorithms::GroupingStrategy,
    /// Snapshot-cache behaviour for re-measured inputs.
    pub incremental: IncrementalMode,
}

/// The algorithmic profiler. Feed it to
/// [`Interp::run`](algoprof_vm::Interp::run) against an *instrumented*
/// program — or compose it with other sinks via
/// [`Tee`](algoprof_vm::Tee) / [`Fanout`](algoprof_vm::Fanout) — then
/// call [`AlgoProf::finish`] to obtain the profile.
///
/// # Example
///
/// ```
/// use algoprof_vm::{compile, InstrumentOptions, Interp};
/// use algoprof::AlgoProf;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let src = r#"
///     class Main {
///         static int main() {
///             int s = 0;
///             for (int i = 0; i < 10; i = i + 1) { s = s + i; }
///             return s;
///         }
///     }
/// "#;
/// let program = compile(src)?.instrument(&InstrumentOptions::default());
/// let mut prof = AlgoProf::new();
/// Interp::new(&program).run(&mut prof)?;
/// let profile = prof.finish(&program);
/// // Two algorithms: the program root and the loop.
/// assert_eq!(profile.algorithms().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AlgoProf {
    opts: AlgoProfOptions,
    /// One (repetition, attribution) pipeline per guest thread, indexed
    /// by [`ThreadId::index`]. Slot 0 is the main thread and always
    /// exists.
    threads: Vec<(RepetitionStage, AttributionStage)>,
    /// Index of the thread currently executing (the stream starts
    /// implicitly in the main thread).
    cur: usize,
    /// Last thread to write each heap location (allocation counts as a
    /// write), recorded only once a second pipeline exists. Drives the
    /// cross-thread read rule; a location never recorded reads as 0, the
    /// main thread.
    last_writer: RefTable<usize>,
}

impl AlgoProf {
    /// Creates a profiler with default options (SomeElements equivalence,
    /// capacity array sizing, first/last snapshots).
    pub fn new() -> Self {
        AlgoProf::with_options(AlgoProfOptions::default())
    }

    /// Creates a profiler with explicit options.
    pub fn with_options(opts: AlgoProfOptions) -> Self {
        AlgoProf {
            opts,
            threads: vec![(RepetitionStage::new(), AttributionStage::new(&opts))],
            cur: 0,
            last_writer: RefTable::default(),
        }
    }

    /// The current thread's pipeline pair, split-borrowed.
    fn pipeline(&mut self) -> (&mut RepetitionStage, &mut AttributionStage) {
        let t = &mut self.threads[self.cur];
        (&mut t.0, &mut t.1)
    }

    /// The current thread's repetition stage, its hit table flushed:
    /// the current invocation is about to change.
    fn flushed(&mut self) -> &mut RepetitionStage {
        let (rep, attr) = self.pipeline();
        attr.flush(rep);
        rep
    }

    /// Makes sure a pipeline slot exists for `thread`.
    fn ensure_thread(&mut self, thread: ThreadId) {
        while self.threads.len() <= thread.index() {
            self.threads
                .push((RepetitionStage::new(), AttributionStage::new(&self.opts)));
            // A registry's dirty marks only see its own pipeline's
            // writes; with a second writer, every one revalidates.
            for (_, attribution) in &mut self.threads {
                attribution.expect_foreign_writes();
            }
        }
    }

    /// Records the current thread as the last writer of `key`. While
    /// the main pipeline is the only one, every write is the main
    /// thread's, so nothing is recorded: every location is allocated
    /// through an `ObjectAlloc` / `ArrayAlloc` event, so any location
    /// never recorded was last written by the main thread.
    fn note_write(&mut self, key: ElemKey) {
        if self.threads.len() > 1 {
            self.last_writer.set(key, self.cur);
        }
    }

    /// Applies the cross-thread read rule for a read through `r`: when
    /// another thread wrote this location last, the read also observes
    /// the input (identity and size) on *that* thread's current
    /// invocation. With one pipeline the writer is always the reader.
    fn credit_remote_writer(
        &mut self,
        r: Value,
        program: &CompiledProgram,
        heap: &algoprof_vm::Heap,
    ) {
        if self.threads.len() == 1 {
            return;
        }
        let key = match r {
            Value::Obj(o) => ElemKey::Obj(o),
            Value::Arr(a) => ElemKey::Arr(a),
            _ => return,
        };
        let w = self.last_writer.get(key);
        if w == self.cur || w >= self.threads.len() {
            return;
        }
        let (rep, attr) = &mut self.threads[w];
        attr.on_remote_read(rep, r, program, heap);
    }

    /// The main thread's repetition tree built so far. The access counts
    /// of an invocation in flight lag until its next loop or method entry
    /// or exit; finished invocations are complete.
    pub fn tree(&self) -> &RepTree {
        self.threads[0].0.tree()
    }

    /// The main thread's input registry built so far.
    pub fn registry(&self) -> &InputRegistry {
        self.threads[0].1.registry()
    }

    /// Counters of snapshot-traversal work done (and saved) so far,
    /// summed across all threads.
    pub fn snapshot_stats(&self) -> SnapshotStats {
        let mut total = SnapshotStats::default();
        for (_, attr) in &self.threads {
            total += attr.snapshot_stats();
        }
        total
    }

    /// Finalizes all open invocations and produces the *main thread's*
    /// profile. For threaded programs, use [`AlgoProf::finish_set`] to
    /// keep every thread's profile.
    ///
    /// Call this after the interpreter run completed successfully; a
    /// failed run leaves partially-attributed data.
    pub fn finish(self, program: &CompiledProgram) -> AlgorithmicProfile {
        self.finish_set(program).into_main()
    }

    /// Finalizes all open invocations and produces one profile per guest
    /// thread (index 0 is the main thread).
    pub fn finish_set(self, program: &CompiledProgram) -> ProfileSet {
        let AlgoProf { opts, threads, .. } = self;
        ProfileSet::new(
            threads
                .into_iter()
                .map(|(mut rep, mut attr)| {
                    attr.flush(&mut rep);
                    AlgorithmicProfile::build_with(
                        rep.into_finalized_tree(),
                        attr.into_registry(),
                        program,
                        opts.grouping,
                    )
                })
                .collect(),
        )
    }
}

impl Default for AlgoProf {
    fn default() -> Self {
        AlgoProf::new()
    }
}

impl EventSink for AlgoProf {
    const READS_INSTRUCTIONS: bool = false;

    fn event(&mut self, ev: &Event, cx: &EventCx<'_>) {
        let (program, heap) = (cx.program, cx.heap);
        match *ev {
            Event::LoopEntry { l } => self.flushed().enter_loop(l),
            Event::LoopBackEdge { .. } => self.pipeline().0.bump(CostKey::Step),
            Event::LoopExit { .. } => {
                let (rep, attr) = self.pipeline();
                attr.remeasure_inputs(rep, program, heap);
                rep.exit_loop();
            }
            Event::MethodEntry { func } => self.flushed().enter_method(func),
            Event::MethodExit { .. } => {
                let (rep, attr) = self.pipeline();
                attr.flush(rep);
                if rep.leave_method_frame() {
                    attr.remeasure_inputs(rep, program, heap);
                    rep.finalize_current();
                }
                rep.pop_method();
            }
            Event::FieldRead { obj, .. } => {
                self.credit_remote_writer(obj, program, heap);
                let (rep, attr) = self.pipeline();
                attr.on_access(rep, obj, AccessOp::Read, true, program, heap);
            }
            Event::FieldWrite { obj, tracked, .. } => {
                self.note_write(ElemKey::Obj(obj));
                if tracked {
                    let (rep, attr) = self.pipeline();
                    attr.on_access(rep, Value::Obj(obj), AccessOp::Write, true, program, heap);
                }
            }
            Event::ArrayRead { arr } => {
                self.credit_remote_writer(arr, program, heap);
                let (rep, attr) = self.pipeline();
                attr.on_access(rep, arr, AccessOp::Read, false, program, heap);
            }
            Event::ArrayWrite { arr, tracked, .. } => {
                self.note_write(ElemKey::Arr(arr));
                if tracked {
                    let (rep, attr) = self.pipeline();
                    attr.on_access(rep, Value::Arr(arr), AccessOp::Write, false, program, heap);
                }
            }
            Event::ObjectAlloc {
                obj,
                class,
                tracked,
            } => {
                self.note_write(ElemKey::Obj(obj));
                if tracked {
                    self.pipeline().0.bump(CostKey::Creation { class });
                }
            }
            Event::ArrayAlloc { arr, .. } => {
                self.note_write(ElemKey::Arr(arr));
            }
            Event::InputRead => {
                let (rep, attr) = self.pipeline();
                attr.on_external_io(rep, AccessOp::Read);
            }
            Event::OutputWrite => {
                let (rep, attr) = self.pipeline();
                attr.on_external_io(rep, AccessOp::Write);
            }
            Event::ThreadSpawn { thread, .. } => self.ensure_thread(thread),
            Event::ThreadSwitch { thread } => {
                self.ensure_thread(thread);
                self.cur = thread.index();
            }
            // A thread's frames were already unwound through MethodExit
            // events; finalization of anything still open happens in
            // `finish_set`.
            Event::ThreadEnd { .. } => {}
            // Contention is cost charged to the *blocked* thread (the
            // current one — LockWait is delivered before the scheduler
            // switches away).
            Event::LockWait { .. } => self.pipeline().0.bump(CostKey::LockContention),
            // Uncontended lock traffic and instruction ticks carry no
            // algorithmic cost.
            Event::LockAcquire { .. } | Event::LockRelease { .. } | Event::Instruction { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::CostMetric;
    use crate::report::{render, render_set};
    use algoprof_vm::{compile, InstrumentOptions, Interp};

    /// Two workers hammer one lock-guarded counter; the cooperative
    /// scheduler preempts inside critical sections, so some acquisitions
    /// block.
    const CONTENDED_SRC: &str = "class Main { static int main() {
        Counter c = new Counter();
        int t1 = spawn bump(c, 100);
        int t2 = spawn bump(c, 100);
        int a = join t1;
        int b = join t2;
        return c.total;
    }
    static int bump(Counter c, int n) {
        for (int i = 0; i < n; i = i + 1) {
            lock c;
            c.total = c.total + 1;
            unlock c;
        }
        return n;
    } }
    class Counter { int total; }";

    /// Main builds a 20-node list, a worker thread traverses it: every
    /// node the worker reads was last written by main.
    const PRODUCER_CONSUMER_SRC: &str = "class Main { static int main() {
        Node head = null;
        for (int i = 0; i < 20; i = i + 1) {
            Node n = new Node();
            n.next = head;
            head = n;
        }
        int t = spawn count(head);
        return join t;
    }
    static int count(Node head) {
        int c = 0;
        Node cur = head;
        while (cur != null) { c = c + 1; cur = cur.next; }
        return c;
    } }
    class Node { Node next; }";

    fn run_set(src: &str) -> crate::profile::ProfileSet {
        let program = compile(src)
            .expect("compiles")
            .instrument(&InstrumentOptions::default());
        let mut prof = AlgoProf::new();
        Interp::new(&program).run(&mut prof).expect("runs");
        prof.finish_set(&program)
    }

    #[test]
    fn single_threaded_run_yields_one_profile() {
        let set = run_set(
            "class Main { static int main() {
                int s = 0;
                for (int i = 0; i < 5; i = i + 1) { s = s + i; }
                return s;
            } }",
        );
        assert_eq!(set.len(), 1);
        assert!(!set.is_threaded());
        assert_eq!(render_set(&set), render(set.main()));
    }

    #[test]
    fn threaded_run_builds_one_tree_per_thread() {
        let set = run_set(CONTENDED_SRC);
        assert_eq!(set.len(), 3, "main + two workers");
        assert!(set.is_threaded());
        // Each worker ran the bump loop: 100 back edges on its own tree.
        for t in 1..=2 {
            let p = set.thread(t).expect("worker profile");
            let algo = p
                .algorithm_by_root_name("Main.bump:loop0")
                .expect("worker loop algorithm");
            assert_eq!(algo.total_costs.steps(), 100);
        }
        // Main never ran bump's loop.
        assert!(set
            .main()
            .algorithm_by_root_name("Main.bump:loop0")
            .is_none());
    }

    #[test]
    fn contention_is_charged_to_blocked_threads() {
        let set = run_set(CONTENDED_SRC);
        let waits = |p: &crate::profile::AlgorithmicProfile| -> u64 {
            p.algorithms()
                .iter()
                .map(|a| a.total_costs.contention())
                .sum()
        };
        let w1 = waits(set.thread(1).expect("t1"));
        let w2 = waits(set.thread(2).expect("t2"));
        assert!(
            w1 + w2 > 0,
            "quantum preemption inside critical sections must produce contention"
        );
        // Main only joins; it never touches the lock.
        assert_eq!(waits(set.main()), 0);
    }

    #[test]
    fn merged_view_spans_threads() {
        // Each worker builds its own list, so the same algorithm
        // (`build`'s construction loop) runs on two threads with
        // different input sizes.
        let set = run_set(
            "class Main { static int main() {
                int t1 = spawn build(10);
                int t2 = spawn build(15);
                int a = join t1;
                int b = join t2;
                return a + b;
            }
            static int build(int n) {
                Node head = null;
                for (int i = 0; i < n; i = i + 1) {
                    Node x = new Node();
                    x.next = head;
                    head = x;
                }
                return n;
            } }
            class Node { Node next; }",
        );
        assert_eq!(set.len(), 3);
        let points_of = |t: usize| -> usize {
            let p = set.thread(t).expect("worker profile");
            p.algorithm_by_root_name("Main.build:loop0")
                .map(|a| p.invocation_series(a.id, CostMetric::Steps).len())
                .unwrap_or(0)
        };
        let (s1, s2) = (points_of(1), points_of(2));
        assert!(s1 > 0 && s2 > 0, "both workers have data points");
        // Loops are named `Class.method:loopN@Lline`; the merged view
        // matches the full name exactly.
        let p1 = set.thread(1).expect("worker profile");
        let a1 = p1
            .algorithm_by_root_name("Main.build:loop0")
            .expect("worker loop");
        let full_name = p1.node_name(a1.root).to_string();
        let merged = set.merged_series(&full_name, CostMetric::Steps);
        assert_eq!(merged.len(), s1 + s2, "merged view spans both threads");
        assert!(merged.iter().any(|&(size, _)| size == 10.0));
        assert!(merged.iter().any(|&(size, _)| size == 15.0));
        assert!(set.algorithm_names().contains(&full_name));
    }

    #[test]
    fn cross_thread_reads_attribute_size_to_the_writer() {
        let set = run_set(PRODUCER_CONSUMER_SRC);
        assert_eq!(set.len(), 2);
        // The worker's traversal identifies the list in its own registry.
        let worker = set.thread(1).expect("worker profile");
        let traversal = worker
            .algorithm_by_root_name("Main.count:loop0")
            .expect("traversal loop");
        let input = worker.primary_input(traversal.id).expect("list input");
        assert_eq!(worker.registry().input(input).max_size, 20);
        // Coppa et al.'s rule: the worker's reads also observe the list on
        // the *writing* thread (main). All of main's accesses happened
        // inside its construction loop, so the only way its root
        // invocation can carry an input observation is the remote-read
        // credit.
        let main = set.main();
        let root = main
            .algorithm_by_root_name("Program")
            .expect("root algorithm");
        let series = main.invocation_series(root.id, CostMetric::Steps);
        assert!(
            !series.is_empty(),
            "remote reads must observe the list on main's root invocation"
        );
        assert!(
            series.iter().any(|&(size, _)| size == 20.0),
            "the observed size is the full 20-node list, got {series:?}"
        );
    }

    /// Profiles `src` live and from its recording, asserts the two sets
    /// are equal, and returns the live one.
    fn live_and_replayed(src: &str) -> crate::profile::ProfileSet {
        use crate::run::{profile, record_source_with, Guest, RunConfig};
        let config = RunConfig::default();
        let live = profile(Guest::Source(src), &config).expect("profiles live");
        let trace = record_source_with(src, &config.instrument, &[]).expect("records");
        let replayed = profile(Guest::Trace(&trace), &config).expect("replays");
        assert_eq!(live, replayed, "live and replayed profiles differ");
        live
    }

    /// The maximum sizes of the inputs observed directly by the root
    /// invocation of `profile`'s thread.
    fn root_observations(profile: &crate::profile::AlgorithmicProfile) -> Vec<usize> {
        let tree = profile.tree();
        tree.node(tree.root()).invocations[0]
            .inputs
            .values()
            .map(|obs| obs.max_size)
            .collect()
    }

    /// `build` links `n` nodes behind main's sentinel without reading
    /// the sentinel; `sum` traverses the list. Both touch data only
    /// inside their loops, so their threads' root invocations observe
    /// an input only through a cross-thread read credit.
    const WORKER_BUILDS_SRC: &str = "
        static int build(Node head, int n) {
            Node first = null;
            for (int i = 0; i < n; i = i + 1) {
                Node x = new Node();
                x.next = first;
                first = x;
                head.next = x;
            }
            return n;
        }
        static int sum(Node head) {
            int s = 0;
            Node cur = head;
            while (cur != null) { s = s + cur.value; cur = cur.next; }
            return s;
        } }
        class Node { Node next; int value; }";

    #[test]
    fn reads_after_join_attribute_size_to_the_worker_that_built_the_list() {
        // The worker builds the list after the spawn; main traverses it
        // after the join. Every node main reads was last written by the
        // worker, so the worker's root invocation (where it sits once its
        // frames are gone) observes the whole list, and main's own root
        // is credited nothing.
        let set = live_and_replayed(&format!(
            "class Main {{ static int main() {{
                Node head = new Node();
                int t = spawn build(head, 20);
                int k = join t;
                return sum(head);
            }} {WORKER_BUILDS_SRC}"
        ));
        assert_eq!(set.len(), 2);
        assert_eq!(root_observations(set.thread(1).expect("worker")), [21]);
        assert!(root_observations(set.main()).is_empty());
    }

    #[test]
    fn main_overwriting_worker_data_takes_the_credit_back() {
        // After joining worker 1, main writes every node before reading
        // its link, so main is the last writer of every node without
        // reading worker 1's data. Worker 2's traversal then credits
        // main's root invocation, and worker 1 gets nothing.
        let set = live_and_replayed(&format!(
            "class Main {{ static int main() {{
                Node head = new Node();
                int t1 = spawn build(head, 20);
                int a = join t1;
                Node cur = head;
                while (cur != null) {{ cur.value = 7; cur = cur.next; }}
                int t2 = spawn sum(head);
                return join t2;
            }} {WORKER_BUILDS_SRC}"
        ));
        assert_eq!(set.len(), 3);
        assert_eq!(root_observations(set.main()), [21]);
        assert!(root_observations(set.thread(1).expect("worker 1")).is_empty());
        assert!(root_observations(set.thread(2).expect("worker 2")).is_empty());
    }

    /// A trace may carry a `FieldRead` on a non-object value (the wire
    /// format keeps it a `Value`). It has no class, so it is counted as
    /// a `StructAccess` directly, once, with no per-type count to fold.
    #[test]
    fn class_less_field_read_counts_one_struct_access() {
        let program =
            compile("class Main { static int main() { return 0; } } class Node { Node next; }")
                .expect("compiles")
                .instrument(&InstrumentOptions::default());
        let node = program.class_by_name("Node").expect("declared");
        let field = program.class(node).field_layout[0];
        let mut heap = algoprof_vm::Heap::new();
        let arr = heap.alloc_array(algoprof_vm::bytecode::ElemKind::Int, 3);
        let mut prof = AlgoProf::new();
        let cx = EventCx {
            program: &program,
            heap: &heap,
        };
        prof.event(
            &Event::FieldRead {
                obj: Value::Arr(arr),
                field,
            },
            &cx,
        );
        let profile = prof.finish(&program);
        let tree = profile.tree();
        let costs = &tree.node(tree.root()).invocations[0].costs;
        let counts: Vec<(CostKey, u64)> = costs.iter().collect();
        assert_eq!(
            counts,
            [(
                CostKey::StructAccess {
                    input: crate::inputs::InputId(0),
                    op: AccessOp::Read,
                },
                1
            )]
        );
    }

    #[test]
    fn threaded_render_set_has_thread_sections_and_merged_view() {
        let set = run_set(CONTENDED_SRC);
        let text = render_set(&set);
        assert!(text.contains("=== t0 (main) ==="));
        assert!(text.contains("=== t1 ==="));
        assert!(text.contains("=== t2 ==="));
        assert!(text.contains("=== merged (all threads) ==="));
        assert!(
            text.contains("lock-waits="),
            "merged view reports contention"
        );
    }
}

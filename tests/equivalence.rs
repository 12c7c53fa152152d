//! Integration tests for the §2.4 equivalence criteria and §3.4 sizing
//! strategies, exercised end-to-end through the profiler options.

use algoprof::{
    render_set, AlgoProfOptions, AlgorithmicProfile, ArraySizeStrategy, EquivalenceCriterion,
    IncrementalMode, SnapshotPolicy,
};

fn profile_with(src: &str, opts: AlgoProfOptions) -> AlgorithmicProfile {
    algoprof::profile(
        algoprof::Guest::Source(src),
        &algoprof::RunConfig {
            options: opts,
            ..algoprof::RunConfig::default()
        },
    )
    .expect("profiles")
    .into_main()
}

/// Two disconnected lists, traversed by the same loop.
const TWO_LISTS: &str = r#"
class Main {
    static int main() {
        Node a = build(10);
        Node b = build(20);
        int s = traverse(a) + traverse(b);
        return s;
    }
    static Node build(int n) {
        Node head = null;
        for (int i = 0; i < n; i = i + 1) {
            Node x = new Node();
            x.next = head;
            head = x;
        }
        return head;
    }
    static int traverse(Node n) {
        int s = 0;
        Node cur = n;
        while (cur != null) { s = s + 1; cur = cur.next; }
        return s;
    }
}
class Node { Node next; }
"#;

#[test]
fn some_elements_keeps_disconnected_lists_apart() {
    let p = profile_with(TWO_LISTS, AlgoProfOptions::default());
    let traverse = p
        .algorithm_by_root_name("Main.traverse:loop0")
        .expect("traversal loop");
    assert_eq!(traverse.inputs.len(), 2, "two distinct list inputs");
}

#[test]
fn same_type_merges_disconnected_lists() {
    let p = profile_with(
        TWO_LISTS,
        AlgoProfOptions {
            criterion: EquivalenceCriterion::SameType,
            ..AlgoProfOptions::default()
        },
    );
    let traverse = p
        .algorithm_by_root_name("Main.traverse:loop0")
        .expect("traversal loop");
    assert_eq!(traverse.inputs.len(), 1, "one merged Node input");
    let input = p.primary_input(traverse.id).expect("input");
    assert_eq!(p.registry().input(input).max_size, 20, "max of both lists");
}

/// An over-allocated array (Listing 4's third case).
const PARTIAL_ARRAY: &str = r#"
class Main {
    static int main() {
        int[] values = new int[500];
        int s = 0;
        for (int i = 0; i < 10; i = i + 1) {
            values[i] = i * 2 + 1;
            s = s + values[i];
        }
        return s;
    }
}
"#;

#[test]
fn capacity_vs_unique_element_sizing() {
    let cap = profile_with(PARTIAL_ARRAY, AlgoProfOptions::default());
    let uniq = profile_with(
        PARTIAL_ARRAY,
        AlgoProfOptions {
            array_strategy: ArraySizeStrategy::UniqueElements,
            ..AlgoProfOptions::default()
        },
    );
    let size_of = |p: &AlgorithmicProfile| {
        let a = p
            .algorithm_by_root_name("Main.main:loop0")
            .expect("fill loop");
        let input = p.primary_input(a.id).expect("array input");
        p.registry().input(input).max_size
    };
    assert_eq!(size_of(&cap), 500, "capacity counts all slots");
    // Ten written odd values plus the zero in the untouched slots.
    assert_eq!(size_of(&uniq), 11, "unique elements approximate usage");
}

#[test]
fn snapshot_policies_agree_on_results() {
    // EveryAccess is the slow reference implementation; FirstAndLast must
    // agree with it on the profile's shape for the running example.
    let src = algoprof_programs::insertion_sort_program(
        algoprof_programs::SortWorkload::Random,
        33,
        8,
        1,
    );
    let fast = profile_with(&src, AlgoProfOptions::default());
    let slow = profile_with(
        &src,
        AlgoProfOptions {
            snapshot_policy: SnapshotPolicy::EveryAccess,
            ..AlgoProfOptions::default()
        },
    );
    assert_eq!(fast.algorithms().len(), slow.algorithms().len());
    for needle in ["List.sort:loop0", "Main.constructList:loop0"] {
        let fa = fast.algorithm_by_root_name(needle).expect("fast algo");
        let sa = slow.algorithm_by_root_name(needle).expect("slow algo");
        assert_eq!(
            fa.members.len(),
            sa.members.len(),
            "{needle}: same grouping"
        );
        assert_eq!(
            fa.total_costs.steps(),
            sa.total_costs.steps(),
            "{needle}: identical step counts"
        );
        assert_eq!(
            fast.describe_algorithm(fa.id),
            slow.describe_algorithm(sa.id),
            "{needle}: identical classification"
        );
    }
}

#[test]
fn all_elements_is_stricter_than_some_elements() {
    // A structure that evolves (append-only list accessed repeatedly):
    // under AllElements each intermediate snapshot differs, creating more
    // inputs than SomeElements' single evolving input.
    let src = r#"
    class Main {
        static int main() {
            Node head = null;
            for (int i = 0; i < 10; i = i + 1) {
                Node x = new Node();
                x.next = head;
                head = x;
                int c = count(head);
            }
            return 0;
        }
        static int count(Node n) {
            int s = 0;
            Node cur = n;
            while (cur != null) { s = s + 1; cur = cur.next; }
            return s;
        }
    }
    class Node { Node next; }
    "#;
    let some = profile_with(src, AlgoProfOptions::default());
    let all = profile_with(
        src,
        AlgoProfOptions {
            criterion: EquivalenceCriterion::AllElements,
            ..AlgoProfOptions::default()
        },
    );
    let count_inputs = |p: &AlgorithmicProfile| p.registry().inputs().len();
    assert!(
        count_inputs(&all) > count_inputs(&some),
        "AllElements ({}) must fragment more than SomeElements ({})",
        count_inputs(&all),
        count_inputs(&some)
    );
    assert_eq!(
        count_inputs(&some),
        1,
        "SomeElements tracks one evolving list"
    );
}

/// The programs whose reports must not depend on the incremental mode:
/// the paper's Table 1, the sized corpus at two sizes, and the threaded
/// examples. Each is a name, a source and the guest input.
fn incremental_corpus() -> Vec<(String, String, Vec<i64>)> {
    use algoprof_programs::{
        sized_array_list_program, sized_insertion_sort_array_program, sized_insertion_sort_program,
        GrowthPolicy, SortWorkload,
    };
    let mut corpus: Vec<(String, String, Vec<i64>)> = algoprof_programs::table1_programs()
        .into_iter()
        .map(|p| (p.name.to_owned(), p.source, Vec::new()))
        .collect();
    let sized = [
        (
            "list sort random",
            sized_insertion_sort_program(SortWorkload::Random),
        ),
        (
            "list sort reversed",
            sized_insertion_sort_program(SortWorkload::Reversed),
        ),
        (
            "array sort reversed",
            sized_insertion_sort_array_program(SortWorkload::Reversed),
        ),
        (
            "arraylist by one",
            sized_array_list_program(GrowthPolicy::ByOne),
        ),
        (
            "arraylist doubling",
            sized_array_list_program(GrowthPolicy::Doubling),
        ),
    ];
    for (name, src) in sized {
        for n in [8, 24] {
            corpus.push((format!("{name} n={n}"), src.clone(), vec![n]));
        }
    }
    let examples = [
        (
            "locked_counter",
            include_str!("../examples/locked_counter.jay"),
        ),
        ("parallel_sum", include_str!("../examples/parallel_sum.jay")),
        (
            "producer_consumer",
            include_str!("../examples/producer_consumer.jay"),
        ),
    ];
    for (name, src) in examples {
        corpus.push((name.to_owned(), src.to_owned(), vec![8]));
    }
    corpus
}

/// A worker links 20 nodes behind the sentinel main allocated, reading
/// `head.next` as it goes; main traverses the list after the join. The
/// worker's first read credits main (cross-thread read rule), so main's
/// registry caches the one-node list before the worker's writes.
const SENTINEL: &str = r#"
class Main {
    static int main() {
        Node head = new Node();
        int t = spawn link(head, 20);
        int linked = join t;
        return traverse(head) - linked;
    }
    static int link(Node head, int n) {
        for (int i = 0; i < n; i = i + 1) {
            Node x = new Node();
            x.next = head.next;
            head.next = x;
        }
        return n;
    }
    static int traverse(Node n) {
        int s = 0;
        Node cur = n;
        while (cur != null) { s = s + 1; cur = cur.next; }
        return s;
    }
}
class Node { Node next; }
"#;

#[test]
fn incremental_snapshots_match_full_traversals() {
    // Differential mode re-runs a from-scratch traversal whenever the
    // profiler reuses a cached snapshot and panics on any divergence, so
    // simply completing these runs proves the incremental path exact.
    // On top of that the resulting profiles must equal the ones produced
    // with caching disabled.
    let sort = algoprof_programs::insertion_sort_program(
        algoprof_programs::SortWorkload::Random,
        33,
        12,
        1,
    );
    let sources: Vec<&str> = vec![TWO_LISTS, PARTIAL_ARRAY, &sort, SENTINEL];
    let criteria = [
        EquivalenceCriterion::SomeElements,
        EquivalenceCriterion::AllElements,
        EquivalenceCriterion::SameArray,
        EquivalenceCriterion::SameType,
    ];
    for src in sources {
        for criterion in criteria {
            let run = |incremental| {
                profile_with(
                    src,
                    AlgoProfOptions {
                        criterion,
                        incremental,
                        ..AlgoProfOptions::default()
                    },
                )
            };
            let diff = run(IncrementalMode::Differential);
            let full = run(IncrementalMode::Disabled);
            assert_eq!(
                diff.algorithms().len(),
                full.algorithms().len(),
                "{criterion:?}: same number of algorithms"
            );
            for (d, f) in diff
                .registry()
                .inputs()
                .iter()
                .zip(full.registry().inputs().iter())
            {
                assert_eq!(d.kind, f.kind, "{criterion:?}: input kinds agree");
                assert_eq!(d.max_size, f.max_size, "{criterion:?}: max sizes agree");
                assert_eq!(d.last_size, f.last_size, "{criterion:?}: last sizes agree");
            }
        }
    }

    // Main's traversal sees the whole list the worker built: the
    // sentinel plus 20 nodes, under every criterion.
    for criterion in criteria {
        let p = profile_with(
            SENTINEL,
            AlgoProfOptions {
                criterion,
                ..AlgoProfOptions::default()
            },
        );
        let [traverse] = p.algorithms_touching("Main.traverse:loop0")[..] else {
            panic!("{criterion:?}: one algorithm holds the traversal loop");
        };
        let sizes: Vec<_> = traverse
            .points
            .iter()
            .flat_map(|point| point.input_sizes.values().copied())
            .collect();
        assert_eq!(sizes, [21], "{criterion:?}: main's traversal sizes");
    }

    // The default mode's reports are byte-identical to from-scratch
    // measurement, for every thread, criterion and snapshot policy.
    let mut configurations = 0;
    for (name, src, input) in incremental_corpus() {
        for criterion in criteria {
            for snapshot_policy in [SnapshotPolicy::FirstAndLast, SnapshotPolicy::EveryAccess] {
                let report = |incremental| {
                    let options = AlgoProfOptions {
                        criterion,
                        snapshot_policy,
                        incremental,
                        ..AlgoProfOptions::default()
                    };
                    let config = algoprof::RunConfig {
                        input: input.clone(),
                        options,
                        ..algoprof::RunConfig::default()
                    };
                    let set = algoprof::profile(algoprof::Guest::Source(&src), &config)
                        .expect("profiles");
                    render_set(&set)
                };
                assert!(
                    report(IncrementalMode::Enabled) == report(IncrementalMode::Disabled),
                    "{name}, {criterion:?}, {snapshot_policy:?}: reports differ"
                );
                configurations += 1;
            }
        }
    }
    assert_eq!(configurations, 31 * 8);
}

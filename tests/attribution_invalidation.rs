//! Attribution cases where one access changes how a later access of the
//! same invocation must be attributed. Each program isolates one case:
//!
//! * a reverse-map key re-claimed by another input after it was already
//!   accessed: under `all` by a new array snapshot, which claims the
//!   keys of the arrays it holds, and under `type` by an existing input
//!   that a new array snapshot matches;
//! * an unresolved mid-construction object attributed to the open input,
//!   accessed again after the open input moved;
//! * one input touched through two targets (`Node` and `Link` fields),
//!   where the last access decides the reference the exit re-measure
//!   starts from;
//! * a reverse-map key re-claimed by the re-measure of an input's first
//!   access in the invocation;
//! * recursion folding that re-enters a header between accesses;
//! * a cross-thread read that credits the writer mid-invocation, moving
//!   its open input or its last reference.
//!
//! Each test pins the SHA-256 of the whole profile set's `Debug` form
//! (taken from the profiler as it stood before attribution cached
//! anything per invocation), plus the invocation lines its case decides,
//! and checks that fused, unfused and replayed runs agree.

use algoprof::{
    profile, record_source_with, sha256_hex, AlgoProfOptions, EquivalenceCriterion, Guest,
    ProfileSet, RunConfig,
};

/// Profiles `src` under `criterion` fused, unfused and replayed from a
/// recording, asserts the three sets are equal, and returns the fused
/// one.
fn profile_all_ways(src: &str, criterion: EquivalenceCriterion) -> ProfileSet {
    let config = RunConfig {
        options: AlgoProfOptions {
            criterion,
            ..AlgoProfOptions::default()
        },
        ..RunConfig::default()
    };
    let fused = profile(Guest::Source(src), &config).expect("profiles fused");
    let unfused = profile(
        Guest::Source(src),
        &RunConfig {
            fuse: false,
            ..config.clone()
        },
    )
    .expect("profiles unfused");
    assert_eq!(fused, unfused, "fused and unfused profiles differ");
    let trace = record_source_with(src, &config.instrument, &[]).expect("records");
    let replayed = profile(Guest::Trace(&trace), &config).expect("replays");
    assert_eq!(fused, replayed, "live and replayed profiles differ");
    fused
}

/// One line per invocation of every node of every thread: its costs and
/// the sizes (first/exit/max) of the inputs it observed.
fn invocation_lines(set: &ProfileSet) -> Vec<String> {
    let mut out = Vec::new();
    for (t, p) in set.threads().iter().enumerate() {
        for node in p.tree().nodes() {
            for (ord, inv) in node.invocations.iter().enumerate() {
                let costs: Vec<String> = inv
                    .costs
                    .iter()
                    .map(|(k, n)| format!("{k:?}={n}"))
                    .collect();
                let inputs: Vec<String> = inv
                    .inputs
                    .iter()
                    .map(|(i, o)| {
                        format!("{}:{}/{}/{}", i.0, o.first_size, o.exit_size, o.max_size)
                    })
                    .collect();
                out.push(format!(
                    "t{t} {}#{ord} [{}] inputs [{}]",
                    p.node_name(node.id),
                    costs.join(", "),
                    inputs.join(" ")
                ));
            }
        }
    }
    out
}

/// `set`'s `Debug` form with the entries of every `elem_counts` map in
/// sorted order: that map is hashed with a per-process seed, so its
/// entries print in a different order from run to run.
fn canonical_debug(set: &ProfileSet) -> String {
    const MAP: &str = "elem_counts: {";
    let text = format!("{set:?}");
    let mut out = String::new();
    let mut rest = text.as_str();
    while let Some(at) = rest.find(MAP) {
        let (head, tail) = rest.split_at(at + MAP.len());
        out.push_str(head);
        let end = tail.find('}').expect("the map is closed");
        let mut entries: Vec<&str> = tail[..end].split(", ").collect();
        entries.sort_unstable();
        out.push_str(&entries.join(", "));
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// Asserts the pinned digest of `set`'s canonical `Debug` form and that every
/// `expected` line is one of its invocation lines; prints the lines on
/// failure.
fn assert_pinned(set: &ProfileSet, digest: &str, expected: &[&str]) {
    let lines = invocation_lines(set);
    let dump = lines.join("\n");
    for want in expected {
        assert!(
            lines.iter().any(|l| l == want),
            "missing line {want:?} in\n{dump}"
        );
    }
    assert_eq!(
        sha256_hex(canonical_debug(set).as_bytes()),
        digest,
        "profile set differs from the pinned one:\n{dump}"
    );
}

/// `Node`-based singly linked lists, built in their own loop invocation
/// each, so each is measured and identified as an input of its own.
/// Only the recursive `next` field is an instrumented access.
const NODES: &str = "
    static Node build(int n) {
        Node h = null;
        for (int i = 0; i < n; i = i + 1) {
            Node x = new Node();
            x.next = h;
            h = x;
        }
        return h;
    } }
    class Node { Node next; }";

#[test]
fn a_key_reclaimed_by_a_new_array_snapshot_counts_on_the_new_input() {
    // `x` is accessed three times, then `o`'s snapshot (under `all`, a
    // new input) claims `x`'s key, so the next reads of `x` count on
    // `o`'s input, not on the input they counted on before.
    let src = "class Main { static int main() {
        int s = 0;
        for (int i = 0; i < 3; i = i + 1) {
            int[] x = new int[2];
            x[1] = i;
            s = s + x[0];
            s = s + x[1];
            int[][] o = new int[][] { x };
            s = s + o[0][1];
            s = s + x[0];
        }
        return s;
    } }";
    let set = profile_all_ways(src, EquivalenceCriterion::AllElements);
    assert_pinned(
        &set,
        "677b1395f60daed766141e29476a106153983d6f6dbbd7dd8b727c8d96b21ebd",
        &[
            "t0 Main.main:loop0@L3#0 [Step=3, ArrayAccess { input: InputId(0), op: Read }=2, ArrayAccess { input: InputId(0), op: Write }=1, ArrayAccess { input: InputId(1), op: Read }=3, ArrayAccess { input: InputId(1), op: Write }=1, ArrayAccess { input: InputId(2), op: Read }=2, ArrayAccess { input: InputId(2), op: Write }=1, ArrayAccess { input: InputId(3), op: Read }=3, ArrayAccess { input: InputId(3), op: Write }=1, ArrayAccess { input: InputId(4), op: Read }=2, ArrayAccess { input: InputId(4), op: Write }=1, ArrayAccess { input: InputId(5), op: Read }=3, ArrayAccess { input: InputId(5), op: Write }=1] inputs [0:2/2/2 1:3/2/3 2:2/2/2 3:3/2/3 4:2/2/2 5:3/2/3]",
        ],
    );
}

#[test]
fn a_key_reclaimed_by_a_matched_input_counts_on_it() {
    // Under `type` every `int[]` is one input and every `int[][]`
    // another, so from the second iteration on, `x` and `o` match inputs
    // that already have records in this invocation. Matching `o` claims
    // `x`'s key for the `int[][]` input, so the read of `x` after it
    // counts there, not on the `int[]` input its write counted on.
    let src = "class Main { static int main() {
        int s = 0;
        for (int i = 0; i < 3; i = i + 1) {
            int[] x = new int[2];
            x[0] = i;
            int[][] o = new int[][] { x };
            s = s + x[0];
        }
        return s;
    } }";
    let set = profile_all_ways(src, EquivalenceCriterion::SameType);
    assert_pinned(
        &set,
        "7763b22c774b7673702d72114f18c6e847c362950eafbc88435654858318d2ba",
        &[
            "t0 Main.main:loop0@L3#0 [Step=3, ArrayAccess { input: InputId(0), op: Write }=3, ArrayAccess { input: InputId(1), op: Read }=3, ArrayAccess { input: InputId(1), op: Write }=3] inputs [0:2/2/2 1:3/2/3]",
        ],
    );
}

#[test]
fn an_object_attributed_to_the_open_input_follows_it_when_it_moves() {
    // `u` is never identified: each write attributes it to the open
    // input, which is `a`'s list for its first write and `b`'s for its
    // second.
    let src = format!(
        "class Main {{ static int main() {{
            Node a = build(2);
            Node b = build(3);
            for (int i = 0; i < 4; i = i + 1) {{
                Node t = a.next;
                Node u = new Node();
                u.next = t;
                Node w = b.next;
                u.next = w;
            }}
            return 0;
        }} {NODES}"
    );
    let set = profile_all_ways(&src, EquivalenceCriterion::SomeElements);
    assert_pinned(
        &set,
        "6f1cb1ae1474715077223c984bfca16649f48d8acaa96b9e17f0c097e70d169c",
        &[
            "t0 Main.main:loop0@L4#0 [Step=4, StructAccess { input: InputId(0), op: Read }=4, StructAccess { input: InputId(0), op: Write }=4, StructAccess { input: InputId(1), op: Read }=4, StructAccess { input: InputId(1), op: Write }=4, StructAccessByType { input: InputId(0), class: ClassId(1), op: Read }=4, StructAccessByType { input: InputId(0), class: ClassId(1), op: Write }=4, StructAccessByType { input: InputId(1), class: ClassId(1), op: Read }=4, StructAccessByType { input: InputId(1), class: ClassId(1), op: Write }=4, Creation { class: ClassId(1) }=4] inputs [0:2/3/3 1:3/3/3]",
        ],
    );
}

#[test]
fn the_last_access_of_an_input_decides_its_exit_size() {
    // One input, a chain alternating `Node` and `Link`, is read through
    // both classes' fields. The first loop ends each iteration on the
    // chain's head, so its exit re-measure walks the whole chain; the
    // second ends on the second node, reached for the first time in its
    // last iteration, so its exit re-measure sees only the chain from
    // there.
    let src = "class Main { static int main() {
        Node h = null;
        for (int i = 0; i < 4; i = i + 1) {
            Link l = new Link();
            l.to = h;
            Node x = new Node();
            x.out = l;
            h = x;
        }
        for (int k = 0; k < 3; k = k + 1) {
            Link l = h.out;
            Node m = l.to;
            Link again = h.out;
        }
        for (int k = 0; k < 3; k = k + 1) {
            Link l = h.out;
            if (k == 2) {
                Node m = h.out.to;
                Link deeper = m.out;
            }
        }
        return 0;
    } }
    class Node { Link out; }
    class Link { Node to; }";
    let set = profile_all_ways(src, EquivalenceCriterion::SomeElements);
    assert_pinned(
        &set,
        "074019df2db655545886eda60d2a4a54c38cc8438ff5759388887f51d1e3bfb6",
        &[
            "t0 Main.main:loop1@L10#0 [Step=3, StructAccess { input: InputId(0), op: Read }=9, StructAccessByType { input: InputId(0), class: ClassId(1), op: Read }=6, StructAccessByType { input: InputId(0), class: ClassId(2), op: Read }=3] inputs [0:8/8/8]",
            "t0 Main.main:loop2@L15#0 [Step=3, StructAccess { input: InputId(0), op: Read }=6, StructAccessByType { input: InputId(0), class: ClassId(1), op: Read }=5, StructAccessByType { input: InputId(0), class: ClassId(2), op: Read }=1] inputs [0:8/6/8]",
        ],
    );
}

#[test]
fn recursion_folding_moves_accesses_to_the_header_invocation() {
    // The recursive call in the loop's second iteration folds onto
    // `walk`'s header, so the nested call's reads before and after its
    // own loop count on the header's invocation (where `w`'s list comes
    // first), and the outer loop's reads on the outer loop's.
    let src = format!(
        "class Main {{ static int main() {{
            Node h = build(6);
            Node w = build(2);
            return walk(h, w, 3);
        }}
        static int walk(Node n, Node w, int d) {{
            Node k = w.next;
            Node m = n.next;
            int s = 0;
            for (int i = 0; i < 2; i = i + 1) {{
                Node p = n.next;
                if (i == 1 && d > 0) {{ s = s + walk(n, w, d - 1); }}
                Node q = n.next;
            }}
            Node z = n.next;
            return s + 1;
        }} {NODES}"
    );
    let set = profile_all_ways(&src, EquivalenceCriterion::SomeElements);
    assert_pinned(&set, "ccf193e3c846199dd7be47d050401308f62c7aa2b3448b9186eabe29c0677a59", &[
"t0 Main.walk (recursion)#0 [Step=3, StructAccess { input: InputId(0), op: Read }=8, StructAccess { input: InputId(1), op: Read }=4, StructAccessByType { input: InputId(0), class: ClassId(1), op: Read }=8, StructAccessByType { input: InputId(1), class: ClassId(1), op: Read }=4] inputs [0:6/6/6 1:2/2/2]",
"t0 Main.walk:loop0@L10#0 [Step=2, StructAccess { input: InputId(0), op: Read }=4, StructAccessByType { input: InputId(0), class: ClassId(1), op: Read }=4] inputs [0:6/6/6]",
"t0 Main.walk:loop0@L10#1 [Step=2, StructAccess { input: InputId(0), op: Read }=4, StructAccessByType { input: InputId(0), class: ClassId(1), op: Read }=4] inputs [0:6/6/6]",
"t0 Main.walk:loop0@L10#2 [Step=2, StructAccess { input: InputId(0), op: Read }=4, StructAccessByType { input: InputId(0), class: ClassId(1), op: Read }=4] inputs [0:6/6/6]",
"t0 Main.walk:loop0@L10#3 [Step=2, StructAccess { input: InputId(0), op: Read }=4, StructAccessByType { input: InputId(0), class: ClassId(1), op: Read }=4] inputs [0:6/6/6]",
]);
}

#[test]
fn a_cross_thread_read_moves_the_writers_open_input() {
    // The reader's reads of `b` credit main's loop invocation whenever
    // the scheduler preempts main there, which makes `b` main's open
    // input; main's next write to a fresh `u` then counts on `b`.
    let src = format!(
        "class Main {{ static int main() {{
            Node a = build(3);
            Node b = build(4);
            int t = spawn reader(b, 300);
            for (int i = 0; i < 300; i = i + 1) {{
                Node u = new Node();
                u.next = a;
                Node v = a.next;
            }}
            return join t;
        }}
        static int reader(Node b, int n) {{
            int s = 0;
            for (int i = 0; i < n; i = i + 1) {{
                Node c = b.next;
                s = s + 1;
            }}
            return s;
        }} {NODES}"
    );
    let set = profile_all_ways(&src, EquivalenceCriterion::SomeElements);
    assert_pinned(
        &set,
        "5a6a6e1e039840819a7f3f7adf7ce695e7809e8fd651e8a0e1d796e0a405a7ef",
        &[
            "t0 Main.main:loop0@L5#0 [Step=300, StructAccess { input: InputId(0), op: Read }=300, StructAccess { input: InputId(0), op: Write }=296, StructAccess { input: InputId(1), op: Write }=4, StructAccessByType { input: InputId(0), class: ClassId(1), op: Read }=300, StructAccessByType { input: InputId(0), class: ClassId(1), op: Write }=296, StructAccessByType { input: InputId(1), class: ClassId(1), op: Write }=4, Creation { class: ClassId(1) }=300] inputs [0:4/3/4 1:4/4/4]",
        ],
    );
}

#[test]
fn a_cross_thread_read_moves_the_writers_last_reference() {
    // Main reads `a` only in the first 100 of its 300 iterations. The
    // reader's reads of `a`'s second node, last written by main, credit
    // main's loop invocation whenever the scheduler preempts main there,
    // so the exit re-measure starts from that node, not from `a`.
    let src = format!(
        "class Main {{ static int main() {{
            Node a = build(3);
            int t = spawn reader(a, 400);
            for (int i = 0; i < 300; i = i + 1) {{
                if (i < 100) {{
                    Node v = a.next;
                }} else {{
                    Node u = new Node();
                }}
            }}
            return join t;
        }}
        static int reader(Node a, int n) {{
            int s = 0;
            for (int i = 0; i < n; i = i + 1) {{
                Node c = a.next.next;
                s = s + 1;
            }}
            return s;
        }} {NODES}"
    );
    let set = profile_all_ways(&src, EquivalenceCriterion::SomeElements);
    assert_pinned(&set, "39f73273f9d3a325d5320d54b92b7954dec0f2ff19aa4701403ba93e67363a0a", &[
"t0 Main.main:loop0@L4#0 [Step=300, StructAccess { input: InputId(0), op: Read }=100, StructAccessByType { input: InputId(0), class: ClassId(1), op: Read }=100, Creation { class: ClassId(1) }=200] inputs [0:3/2/3]",
]);
}

#[test]
fn a_key_reclaimed_by_a_remeasured_input_counts_on_it() {
    // Linking `t` behind `b` re-measures `b`'s list, the first access of
    // it in this invocation, which claims `t`'s key: the next read of
    // `t` counts on `b`'s list. The root's two reads of `a` after the
    // loop count on the root's invocation.
    let src = format!(
        "class Main {{ static int main() {{
            Node a = build(2);
            Node b = build(1);
            for (int i = 0; i < 1; i = i + 1) {{
                Node t = a.next;
                Node u = t.next;
                b.next = t;
                Node v = t.next;
            }}
            Node x = a.next;
            Node y = a.next;
            return 0;
        }} {NODES}"
    );
    let set = profile_all_ways(&src, EquivalenceCriterion::SomeElements);
    assert_pinned(&set, "30c483b1c69f13c6829a71c26b8560adf480cc2b83974ce003f8258ea17b7eae", &[
"t0 Program#0 [StructAccess { input: InputId(0), op: Read }=2, StructAccessByType { input: InputId(0), class: ClassId(1), op: Read }=2] inputs [0:2/2/2]",
"t0 Main.main:loop0@L4#0 [Step=1, StructAccess { input: InputId(0), op: Read }=2, StructAccess { input: InputId(1), op: Read }=1, StructAccess { input: InputId(1), op: Write }=1, StructAccessByType { input: InputId(0), class: ClassId(1), op: Read }=2, StructAccessByType { input: InputId(1), class: ClassId(1), op: Read }=1, StructAccessByType { input: InputId(1), class: ClassId(1), op: Write }=1] inputs [0:2/1/2 1:2/1/2]",
]);
}

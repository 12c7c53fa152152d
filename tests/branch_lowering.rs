//! Short-circuit operators in every position the compiler lowers them:
//! `&&`, `||` and `!` nested in `if`, `while` and `for` conditions and in
//! value context, a second operand that would fault if it ran, operands
//! with side effects, and a two-thread guest whose loop conditions use
//! `&&`.
//!
//! Each program's result, its profile set and the schedule of its
//! threads are pinned. The profile set is pinned by the SHA-256 of its
//! canonical `Debug` form. The schedule is pinned by the SHA-256 of every
//! thread switch together with its position among the run's
//! non-instruction events. Instruction events are left out of both pins
//! on purpose: how many logical instructions a condition costs depends
//! on how it is lowered, and nothing else may move. Fused and unfused
//! runs must emit the same full event stream, instruction events
//! included.

use algoprof::{profile, sha256_hex, Guest, RunConfig};
use algoprof_suite::testutil::canonical_profile_debug;
use algoprof_vm::{compile, CompiledProgram, Event, EventCx, EventSink, InstrumentOptions, Interp};

/// Every event as rendered text, instruction events included.
#[derive(Default)]
struct TextStream(Vec<String>);

impl EventSink for TextStream {
    fn event(&mut self, ev: &Event, cx: &EventCx<'_>) {
        self.0.push(ev.render_text(cx.program));
    }
}

/// Each thread switch, prefixed by the number of non-instruction events
/// before it.
#[derive(Default)]
struct Schedule {
    events: u64,
    switches: Vec<String>,
}

impl EventSink for Schedule {
    const READS_INSTRUCTIONS: bool = false;

    fn event(&mut self, ev: &Event, cx: &EventCx<'_>) {
        if matches!(ev, Event::ThreadSwitch { .. }) {
            self.switches
                .push(format!("{} {}", self.events, ev.render_text(cx.program)));
        }
        self.events += 1;
    }
}

/// What a program is pinned to.
struct Pinned {
    /// The return value and printed output of the run.
    result: &'static str,
    /// SHA-256 of the profile set's canonical `Debug` form.
    profile: &'static str,
    /// SHA-256 of the thread-switch schedule.
    schedule: &'static str,
    /// Thread switches in the run.
    switches: usize,
}

fn program(src: &str, fuse: bool) -> CompiledProgram {
    let program = compile(src)
        .expect("compiles")
        .instrument(&InstrumentOptions::default());
    if fuse {
        program.fused()
    } else {
        program
    }
}

/// Runs `src` on `input` fused and unfused, checks that both emit the
/// same events and profiles, and checks the pins.
fn check(name: &str, src: &str, input: &[i64], pinned: &Pinned) {
    let run = |fuse: bool| {
        let program = program(src, fuse);
        let mut events = TextStream::default();
        let result = Interp::new(&program)
            .with_input(input.to_vec())
            .run(&mut events)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut schedule = Schedule::default();
        Interp::new(&program)
            .with_input(input.to_vec())
            .run(&mut schedule)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let result = format!("{} {:?}", result.return_value, result.output);
        (result, events.0, schedule.switches)
    };
    let (result, events, switches) = run(true);
    let (unfused_result, unfused_events, unfused_switches) = run(false);
    assert_eq!(result, unfused_result, "{name}: results differ");
    assert!(
        events == unfused_events,
        "{name}: fused and unfused events differ"
    );
    assert_eq!(switches, unfused_switches, "{name}: schedules differ");

    let profiles = |fuse: bool| {
        let config = RunConfig {
            input: input.to_vec(),
            fuse,
            ..RunConfig::default()
        };
        profile(Guest::Source(src), &config).unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    let set = profiles(true);
    assert_eq!(
        set,
        profiles(false),
        "{name}: fused and unfused profiles differ"
    );

    assert_eq!(result, pinned.result, "{name}: result");
    assert_eq!(switches.len(), pinned.switches, "{name}: thread switches");
    assert_eq!(
        sha256_hex(switches.join("\n").as_bytes()),
        pinned.schedule,
        "{name}: schedule\n{}",
        switches.join("\n")
    );
    assert_eq!(
        sha256_hex(canonical_profile_debug(&set).as_bytes()),
        pinned.profile,
        "{name}: profile set"
    );
}

/// The SHA-256 of no thread switches (a single-threaded run).
const NO_SWITCHES: &str = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";

/// Conditions of `if`, `while` and `for` with `&&`, `||` and `!` nested
/// in each other, over an array.
const CONDITIONS: &str = "class Main {
    static int main() {
        int n = readInput();
        int[] a = new int[n];
        int s = 0;
        for (int i = 0; i < n && s < 100000; i = i + 1) {
            a[i] = (i * 7) % 11;
            if (a[i] > 3 && a[i] < 9 || i == 0) { s = s + a[i]; }
            if (!(a[i] == 5) && !(i > n - 2 || a[i] < 1)) { s = s + 1; } else { s = s - 1; }
            if (!(a[i] > 2 && a[i] < 6)) { s = s + 2; }
        }
        int j = n - 1;
        while (j > 0 && a[j - 1] >= a[j] || j > n - 3 && j > 0) { j = j - 1; }
        for (int k = 0; !(k >= n) && (a[k] != 10 || k < 2); k = k + 1) {
            while (!(s % 3 == 0) && s > 0) { s = s - 1; }
            s = s + k;
        }
        return s * 1000 + j;
    }
}";

/// `&&`, `||` and `!` in value context: stored, passed, returned and
/// compared.
const VALUES: &str = "class Main {
    static int main() {
        int n = readInput();
        int c = 0;
        for (int i = 0; i < n; i = i + 1) {
            boolean p = i % 2 == 0;
            boolean q = i % 3 == 0;
            boolean b = p && q;
            boolean e = p || !q;
            if (pick(b, e)) { c = c + 1; }
            if (b == (p && q) && e != !(p || !q)) { c = c + 100; }
            boolean f = !(b || e) && (p || q);
            if (f) { c = c + 10000; }
        }
        return c;
    }
    static boolean pick(boolean a, boolean b) {
        boolean x = a && !b;
        return a || b && !x;
    }
}";

/// Null guards whose second operand would dereference null if it ran.
const NULL_GUARDS: &str = "class Main {
    static int main() {
        int n = readInput();
        Node head = null;
        for (int i = 0; i < n; i = i + 1) {
            Node x = new Node();
            x.v = i - 2;
            x.next = head;
            head = x;
        }
        int c = 0;
        Node x = head;
        while (x != null && x.v > 0) { c = c + 1; x = x.next; }
        Node z = head;
        while (z != null && z.v > -100) { c = c + 10; z = z.next; }
        Node y = null;
        if (y != null && y.v > 0) { c = c + 1000; }
        if (y == null || y.v > 0) { c = c + 100000; }
        if (!(y != null && y.next.v > 0)) { c = c + 1000000; }
        Node w = head;
        while (w != null && (w.next == null || w.v > w.next.v)) { w = w.next; }
        if (w == null) { c = c + 7; }
        return c;
    }
}
class Node { Node next; int v; }";

/// Operands with side effects: every `tick` call links a node into a
/// log and counts itself, so an operand that ran when it should not
/// have (or did not run when it should have) changes the result and
/// the profile.
const SIDE_EFFECTS: &str = "class Main {
    static int main() {
        int n = readInput();
        Counter c = new Counter();
        int hits = 0;
        for (int i = 0; i < n; i = i + 1) {
            if (c.tick(i % 2 == 0) && c.tick(i % 3 == 0)) { hits = hits + 1; }
            if (c.tick(i % 5 == 0) || c.tick(i % 7 == 0)) { hits = hits + 10; }
            if (!c.tick(i % 4 == 0) && !(c.tick(false) || c.tick(i > 3))) { hits = hits + 100; }
        }
        int k = 0;
        while (c.tick(k < n) && c.tick(k % 9 != 8)) { k = k + 1; }
        return hits * 100000 + c.calls * 100 + k;
    }
}
class Counter {
    Node log;
    int calls;
    boolean tick(boolean b) {
        Node x = new Node();
        x.next = log;
        log = x;
        calls = calls + 1;
        return b;
    }
}
class Node { Node next; }";

/// Two threads over one array, each loop condition a `&&`: one fills
/// the array, marking time between two elements, while the other
/// rescans it until it sees every element filled. How often the scanner rescans depends on where the
/// scheduler switches, so the result pins the schedule too.
const THREADS: &str = "class Main {
    static int main() {
        int n = readInput();
        int[] a = new int[n];
        int t1 = spawn fill(a, n);
        int t2 = spawn scan(a, n);
        return join t1 * 100000 + join t2;
    }
    static int fill(int[] a, int n) {
        int i = 0;
        while (i < n && !(i > 0 && a[i - 1] == 0)) {
            int w = 0;
            while (w < 3 && i >= 0) { w = w + 1; }
            a[i] = i + 1;
            i = i + 1;
        }
        return i;
    }
    static int scan(int[] a, int n) {
        int seen = 0;
        int rounds = 0;
        while (seen < n && rounds < 100000) {
            int j = 0;
            while (j < n && a[j] > 0) { j = j + 1; }
            if (j > seen || j == n && seen < n) { seen = j; }
            rounds = rounds + 1;
        }
        return seen * 1000 + rounds;
    }
}";

#[test]
fn conditions_of_if_while_and_for() {
    check(
        "conditions",
        CONDITIONS,
        &[40],
        &Pinned {
            result: "188036 []",
            profile: "fbeba32d8dd783020750cfbd8c769d7377b122b3f94834a6f15c2f9f2765772e",
            schedule: NO_SWITCHES,
            switches: 0,
        },
    );
}

#[test]
fn short_circuits_in_value_context() {
    check(
        "values",
        VALUES,
        &[30],
        &Pinned {
            result: "53025 []",
            profile: "2a882a86549344e7b5765d03e9f0dcd0b785489e80ca369c12db652b5effd2ab",
            schedule: NO_SWITCHES,
            switches: 0,
        },
    );
}

#[test]
fn a_null_guard_keeps_its_second_operand_from_running() {
    check(
        "null guards",
        NULL_GUARDS,
        &[25],
        &Pinned {
            result: "1100279 []",
            profile: "e4dee12a1d95b357c430d6a6168f8a493321c79cfc2066a330733b0a6946a0f1",
            schedule: NO_SWITCHES,
            switches: 0,
        },
    );
}

#[test]
fn operands_with_side_effects_run_exactly_when_they_should() {
    check(
        "side effects",
        SIDE_EFFECTS,
        &[30],
        &Pinned {
            result: "40519108 []",
            profile: "a50f59d99fd0e28255f96e3332a03215821e8f8c87df0207f5ef08a3d62f8491",
            schedule: NO_SWITCHES,
            switches: 0,
        },
    );
}

#[test]
fn loop_conditions_with_and_keep_the_schedule_of_two_threads() {
    check(
        "threads",
        THREADS,
        &[300],
        &Pinned {
            result: "30300013 []",
            profile: "2b22414be96c30731c38baacd6950b1733c2836a19f0d6a3c9fed75957208c6a",
            schedule: "f5ae4f6c15ee5a775f1d01220c285bbad9cac104f2a6aeafa3527ca05157150a",
            switches: 52,
        },
    );
}

#[test]
fn the_compare_and_branch_and_latch_forms_fire_on_the_corpus() {
    // Jumping-code conditions expose `load_cmp_jump` and
    // `null_cmp_jump`, and inline back edges `inc_loop_back`; each must
    // be fused somewhere in the corpus or in the shipped array sort,
    // whose `a[j - 1] > key` is the `load_cmp_jump` of the benchmark.
    let array_sort = include_str!("../examples/sized_insertion_sort_array.jay");
    let mut fired = std::collections::BTreeMap::new();
    for src in [
        CONDITIONS,
        VALUES,
        NULL_GUARDS,
        SIDE_EFFECTS,
        THREADS,
        array_sort,
    ] {
        for instr in program(src, true).functions.iter().flat_map(|f| &f.code) {
            *fired.entry(instr.mnemonic()).or_insert(0) += 1;
        }
    }
    for (form, floor) in [
        ("inc_loop_back", 5),
        ("load_cmp_jump", 1),
        ("null_cmp_jump", 4),
    ] {
        let n = fired.get(form).copied().unwrap_or(0);
        assert!(
            n >= floor,
            "{form} fused {n} times, under {floor}: {fired:?}"
        );
    }
}

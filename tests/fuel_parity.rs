//! Fuel parity: a fuel limit stops a fused run at exactly the logical
//! instruction where the unfused run stops.
//!
//! For every program of the fusion corpus (`tests/fusion_safety.rs`)
//! and of `tests/branch_lowering.rs`, and for every fuel limit from 1 to
//! the whole run plus one, the fused and the unfused run must end the
//! same way, after the same events, under two sinks: one that reads
//! instruction events (the full event prefix) and one that does not
//! (the prefix without them). The expected prefix at limit `L` is every
//! event of the whole unfused run before its `L + 1`-th instruction
//! event; the expected outcome is `OutOfFuel` below the run's length
//! and the run's own outcome from there on.
//!
//! Every limit means one run per limit, so the cost grows with the
//! square of a run's length. Inputs and sizes are therefore small: the
//! sized programs run at a few elements, the Table-1 harness at its
//! smallest size only, and a random program joins when its whole run
//! is at most [`RANDOM_RUN_CAP`] logical instructions.

use algoprof_programs::{
    array_list_program, functional_sort_program, insertion_sort_program, table1_programs,
    GrowthPolicy, SortWorkload, LISTING3, LISTING4, LISTING5,
};
use algoprof_suite::genprog::random_program;
use algoprof_suite::testutil::TestRng;
use algoprof_vm::{
    compile, CompiledProgram, Event, EventCx, EventSink, InstrumentOptions, Interp, NoopSink,
    RunResult, RuntimeError,
};

/// The longest whole run, in logical instructions, of a random program
/// the limits are tried on.
const RANDOM_RUN_CAP: u64 = 800;

/// Records every event; it reads instruction events.
#[derive(Default)]
struct Stream(Vec<Event>);

impl EventSink for Stream {
    fn event(&mut self, ev: &Event, _cx: &EventCx<'_>) {
        self.0.push(*ev);
    }
}

/// Checks each event against the expected prefix as it arrives;
/// `READS` says whether it reads instruction events.
struct Prefix<'a, const READS: bool> {
    expected: &'a [Event],
    seen: usize,
    /// The index of the first event that did not match.
    diverged: Option<usize>,
}

impl<const READS: bool> EventSink for Prefix<'_, READS> {
    const READS_INSTRUCTIONS: bool = READS;

    fn event(&mut self, ev: &Event, _cx: &EventCx<'_>) {
        if self.diverged.is_none() && self.expected.get(self.seen) != Some(ev) {
            self.diverged = Some(self.seen);
        }
        self.seen += 1;
    }
}

/// A run's outcome: its return value, output and instruction count, or
/// its error.
fn outcome(run: &Result<RunResult, RuntimeError>) -> String {
    match run {
        Ok(r) => format!("{} {:?} {}", r.return_value, r.output, r.instructions),
        Err(e) => format!("{e:?}"),
    }
}

/// What a run at one fuel limit must produce.
struct Expected<'a> {
    fuel: u64,
    events: &'a [Event],
    outcome: &'a str,
}

/// Runs `program` on `input` at `want.fuel` under a `Prefix<READS>` and
/// checks its events and outcome.
fn check_run<const READS: bool>(
    name: &str,
    (kind, program): (&str, &CompiledProgram),
    input: &[i64],
    want: &Expected<'_>,
) {
    let mut sink = Prefix::<READS> {
        expected: want.events,
        seen: 0,
        diverged: None,
    };
    let run = Interp::new(program)
        .with_input(input.to_vec())
        .with_fuel(want.fuel)
        .run(&mut sink);
    let what = format!(
        "{name}: {kind} run under a {} sink at fuel {}",
        if READS { "reading" } else { "non-reading" },
        want.fuel
    );
    let short = (sink.seen != want.events.len()).then_some(sink.seen);
    if let Some(i) = sink.diverged.or(short) {
        let at = want
            .events
            .get(i)
            .map_or("<end>".into(), |e| e.render_text(program));
        panic!(
            "{what}: event {i} of {} differs (expected {at})",
            want.events.len()
        );
    }
    assert_eq!(outcome(&run), want.outcome, "{what}");
}

/// Checks fuel parity of `src` on `input` at every limit from 1 to the
/// whole run plus one.
fn assert_fuel_parity(name: &str, src: &str, input: &[i64]) {
    let plain = compile(src)
        .unwrap_or_else(|e| panic!("{name}: compile failed: {e}"))
        .instrument(&InstrumentOptions::default());
    let fused = plain.fuse();
    let mut whole = Stream::default();
    let run = Interp::new(&plain)
        .with_input(input.to_vec())
        .run(&mut whole);
    let events = whole.0;
    let others: Vec<Event> = events
        .iter()
        .filter(|e| !matches!(e, Event::Instruction { .. }))
        .copied()
        .collect();
    // Where each logical instruction starts: its index in the full
    // stream and in the stream without instruction events.
    let starts: Vec<(usize, usize)> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, Event::Instruction { .. }))
        .enumerate()
        .map(|(n, (i, _))| (i, i - n))
        .collect();
    let whole_outcome = outcome(&run);
    let out_of_fuel = format!("{:?}", RuntimeError::OutOfFuel);
    for fuel in 1..=starts.len() as u64 + 1 {
        let (full, rest, outcome) = match starts.get(fuel as usize) {
            Some(&(i, j)) => (&events[..i], &others[..j], &out_of_fuel),
            None => (&events[..], &others[..], &whole_outcome),
        };
        for program in [("unfused", &plain), ("fused", &fused)] {
            let reading = Expected {
                fuel,
                events: full,
                outcome,
            };
            check_run::<true>(name, program, input, &reading);
            let non_reading = Expected {
                events: rest,
                ..reading
            };
            check_run::<false>(name, program, input, &non_reading);
        }
    }
}

#[test]
fn listings_stop_where_unfused_runs_stop() {
    for (name, src) in [
        ("listing3", LISTING3.to_string()),
        ("listing4", LISTING4.to_string()),
        ("listing5", LISTING5.to_string()),
        (
            "insertion_sort_random",
            insertion_sort_program(SortWorkload::Random, 6, 3, 1),
        ),
        (
            "insertion_sort_sorted",
            insertion_sort_program(SortWorkload::Sorted, 6, 3, 1),
        ),
        (
            "functional_sort",
            functional_sort_program(SortWorkload::Random, 6, 3, 1),
        ),
        (
            "array_list_by_one",
            array_list_program(GrowthPolicy::ByOne, 6, 3, 1),
        ),
        (
            "array_list_doubling",
            array_list_program(GrowthPolicy::Doubling, 6, 3, 1),
        ),
    ] {
        assert_fuel_parity(name, &src, &[]);
    }
}

#[test]
fn table1_programs_stop_where_unfused_runs_stop() {
    // The harness runs each structure at sizes 8, 16 and 24; here at 2.
    const SIZES: &str = "size = 8; size <= 24;";
    for p in table1_programs() {
        assert!(p.source.contains(SIZES), "{}: harness changed", p.name);
        let src = p.source.replace(SIZES, "size = 2; size <= 2;");
        assert_fuel_parity(p.name, &src, &[]);
    }
}

#[test]
fn examples_stop_where_unfused_runs_stop() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples");
    let mut examples: Vec<_> = std::fs::read_dir(dir)
        .expect("examples directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "jay"))
        .collect();
    examples.sort();
    assert!(examples.len() >= 6, "examples: {examples:?}");
    for path in examples {
        let src = std::fs::read_to_string(&path).expect("readable example");
        assert_fuel_parity(&path.display().to_string(), &src, &[4]);
    }
}

#[test]
fn random_programs_stop_where_unfused_runs_stop() {
    let mut tried = 0;
    for seed in 0..100 {
        let src = random_program(&mut TestRng::new(11_000 + seed));
        let program = compile(&src)
            .expect("compiles")
            .instrument(&InstrumentOptions::default());
        let length = Interp::new(&program)
            .run(&mut NoopSink)
            .expect("random programs terminate")
            .instructions;
        if length <= RANDOM_RUN_CAP {
            assert_fuel_parity(&format!("seed {seed}"), &src, &[]);
            tried += 1;
        }
    }
    assert!(tried >= 80, "only {tried} random programs fit the cap");
}

/// The programs of `tests/branch_lowering.rs`, read from its source:
/// each top-level `const NAME: &str = "class Main ...";`.
fn branch_lowering_programs() -> Vec<(&'static str, &'static str)> {
    include_str!("branch_lowering.rs")
        .split("\nconst ")
        .skip(1)
        .filter_map(|item| {
            let (name, rest) = item.split_once(": &str = \"")?;
            let body = &rest[..rest.find("\";")?];
            body.starts_with("class Main").then_some((name, body))
        })
        .collect()
}

#[test]
fn branch_lowering_programs_stop_where_unfused_runs_stop() {
    let programs = branch_lowering_programs();
    let names: Vec<&str> = programs.iter().map(|&(name, _)| name).collect();
    assert_eq!(
        names,
        [
            "CONDITIONS",
            "VALUES",
            "NULL_GUARDS",
            "SIDE_EFFECTS",
            "THREADS"
        ]
    );
    for (name, src) in programs {
        // At 20 elements the scheduler switches threads five times.
        let input = if name == "THREADS" { 20 } else { 5 };
        assert_fuel_parity(name, src, &[input]);
    }
}

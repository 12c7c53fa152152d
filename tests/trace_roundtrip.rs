//! Record→replay fidelity: for a corpus of guest programs, the profile
//! computed from a recorded trace must *equal* the profile of the live
//! run — under every equivalence criterion, from one recording per
//! program. This is the differential suite backing `algoprof-trace`'s
//! central claim: execute once, analyze many.

use algoprof::{
    profile, record_source_with, AlgoProfOptions, EquivalenceCriterion, Guest, RunConfig,
};
use algoprof_programs::{
    array_list_program, functional_sort_program, insertion_sort_program, GrowthPolicy,
    SortWorkload, LISTING3, LISTING4, LISTING5,
};
use algoprof_suite::genprog::random_program;
use algoprof_suite::testutil::TestRng;
use algoprof_trace::{read_header, ReplayStats, TraceReplayer};
use algoprof_vm::{compile, InstrumentOptions, NoopProfiler};

const CRITERIA: [EquivalenceCriterion; 4] = [
    EquivalenceCriterion::SomeElements,
    EquivalenceCriterion::AllElements,
    EquivalenceCriterion::SameArray,
    EquivalenceCriterion::SameType,
];

/// Records `src` once and checks replay == live for all four criteria.
fn assert_roundtrip(name: &str, src: &str) {
    let instrument = InstrumentOptions::default();
    let trace = record_source_with(src, &instrument, &[])
        .unwrap_or_else(|e| panic!("{name}: recording failed: {e}"));
    for criterion in CRITERIA {
        let config = RunConfig {
            options: AlgoProfOptions {
                criterion,
                ..AlgoProfOptions::default()
            },
            ..RunConfig::default()
        };
        let live = profile(Guest::Source(src), &config)
            .unwrap_or_else(|e| panic!("{name}: live profiling failed: {e}"));
        let replayed = profile(Guest::Trace(&trace), &config)
            .unwrap_or_else(|e| panic!("{name}: replay failed: {e}"));
        assert_eq!(
            live, replayed,
            "{name}: replayed profile diverges under {criterion:?}"
        );
    }
}

#[test]
fn listings_corpus_roundtrips_under_all_criteria() {
    let corpus: Vec<(&str, String)> = vec![
        ("listing3", LISTING3.to_string()),
        ("listing4", LISTING4.to_string()),
        ("listing5", LISTING5.to_string()),
        (
            "insertion_sort_random",
            insertion_sort_program(SortWorkload::Random, 60, 10, 2),
        ),
        (
            "insertion_sort_sorted",
            insertion_sort_program(SortWorkload::Sorted, 60, 10, 2),
        ),
        (
            "functional_sort",
            functional_sort_program(SortWorkload::Random, 40, 10, 2),
        ),
        (
            "array_list_by_one",
            array_list_program(GrowthPolicy::ByOne, 60, 10, 2),
        ),
        (
            "array_list_doubling",
            array_list_program(GrowthPolicy::Doubling, 60, 10, 2),
        ),
    ];
    for (name, src) in &corpus {
        assert_roundtrip(name, src);
    }
}

#[test]
fn random_programs_roundtrip_under_all_criteria() {
    for seed in 0..100 {
        let mut rng = TestRng::new(9000 + seed);
        let src = random_program(&mut rng);
        assert_roundtrip(&format!("seed {seed}"), &src);
    }
}

#[test]
fn fig5_ablation_runs_from_a_single_recording() {
    // The acceptance scenario: one guest execution of the fig5
    // ArrayList-growth workload (n = 10^3), then the full 4-criteria
    // ablation served from that single trace.
    let src = array_list_program(GrowthPolicy::Doubling, 1000, 100, 1);
    let instrument = InstrumentOptions::default();
    let trace = record_source_with(&src, &instrument, &[]).expect("records");
    let mut node_counts = Vec::new();
    for criterion in CRITERIA {
        let config = RunConfig {
            options: AlgoProfOptions {
                criterion,
                ..AlgoProfOptions::default()
            },
            ..RunConfig::default()
        };
        let profile = profile(Guest::Trace(&trace), &config)
            .expect("replays")
            .into_main();
        assert!(
            !profile.algorithms().is_empty(),
            "{criterion:?}: no algorithms recovered from the trace"
        );
        node_counts.push(profile.stats().nodes);
    }
    // The repetition tree is built from the event stream alone, so its
    // shape cannot depend on the equivalence criterion.
    assert!(node_counts.iter().all(|&n| n == node_counts[0]));
}

/// Regression bound on encoding size: the reference workload must stay
/// within a conservative bytes/event budget, so a codec regression
/// (e.g. dropping delta or varint encoding) fails loudly.
#[test]
fn trace_encoding_stays_compact() {
    let src = array_list_program(GrowthPolicy::Doubling, 300, 50, 2);
    let trace = record_source_with(&src, &InstrumentOptions::default(), &[]).expect("records");
    let (_, events) = read_header(&trace).expect("header");
    let stats: ReplayStats = {
        let program = compile(&src)
            .expect("compiles")
            .instrument(&InstrumentOptions::default());
        TraceReplayer::new()
            .replay(&program, events, &mut NoopProfiler)
            .expect("replays")
    };
    assert!(stats.events > 1000, "reference run is non-trivial");
    // Event bytes exclude the header and the 1-byte End tag.
    let mean = (events.len() - 1) as f64 / stats.events as f64;
    assert!(
        mean <= 6.0,
        "mean trace size regressed to {mean:.2} bytes/event over {} events",
        stats.events
    );
}

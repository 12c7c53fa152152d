//! Event-pipeline equivalence: the unified `Event`/`EventSink` path must
//! be observationally identical no matter how sinks are composed. A
//! [`Fanout`] of N differently-configured `AlgoProf`s over *one* live
//! execution must produce exactly the profiles of N separate live runs
//! (this is what lets `sweep` profile every ablation in a single pass),
//! and teeing a recorder in must not perturb any of them.

use std::collections::BTreeMap;

use algoprof::{
    profile, record_source_with, render_set, AlgoProf, AlgoProfOptions, AlgorithmicProfile,
    CostKey, EquivalenceCriterion, Guest, RunConfig,
};
use algoprof_programs::{
    array_list_program, functional_sort_program, insertion_sort_program, GrowthPolicy,
    SortWorkload, LISTING3, LISTING4, LISTING5,
};
use algoprof_suite::genprog::random_program;
use algoprof_suite::testutil::TestRng;
use algoprof_trace::{TraceHeader, TraceRecorder};
use algoprof_vm::{
    compile, Fanout, InstrumentOptions, Interp, NoopSink, OpStats, RuntimeError, Tee,
};

const CRITERIA: [EquivalenceCriterion; 4] = [
    EquivalenceCriterion::SomeElements,
    EquivalenceCriterion::AllElements,
    EquivalenceCriterion::SameArray,
    EquivalenceCriterion::SameType,
];

fn ablation_options() -> Vec<AlgoProfOptions> {
    CRITERIA
        .iter()
        .map(|&criterion| AlgoProfOptions {
            criterion,
            ..AlgoProfOptions::default()
        })
        .collect()
}

/// Runs `src` once with all four criteria fanned out (recorder teed in,
/// as `sweep` composes it), returning the trace and the four profiles.
fn fanout_run(name: &str, src: &str) -> (Vec<u8>, Vec<AlgorithmicProfile>) {
    let instrument = InstrumentOptions::default();
    let program = compile(src)
        .unwrap_or_else(|e| panic!("{name}: compile failed: {e}"))
        .instrument(&instrument);
    let mut bytes = Vec::new();
    let mut sink = Tee::new(
        TraceRecorder::new(&TraceHeader::new(src, &instrument, &[]), &mut bytes),
        Fanout::new(
            ablation_options()
                .into_iter()
                .map(AlgoProf::with_options)
                .collect(),
        ),
    );
    Interp::new(&program)
        .run(&mut sink)
        .unwrap_or_else(|e| panic!("{name}: execution failed: {e}"));
    let Tee {
        a: recorder,
        b: fanout,
    } = sink;
    recorder.finish().expect("writes to a Vec<u8> cannot fail");
    let profiles = fanout
        .into_sinks()
        .into_iter()
        .map(|p| p.finish(&program))
        .collect();
    (bytes, profiles)
}

/// One fanned-out execution must equal four separate live runs, and the
/// teed recording must equal a pure recording run.
fn assert_fanout_equals_separate_runs(name: &str, src: &str) {
    let instrument = InstrumentOptions::default();
    let (trace, fanned) = fanout_run(name, src);
    assert_eq!(
        trace,
        record_source_with(src, &instrument, &[])
            .unwrap_or_else(|e| panic!("{name}: recording failed: {e}")),
        "{name}: teed recording diverges from a pure recording"
    );
    for (options, fanned_profile) in ablation_options().into_iter().zip(&fanned) {
        let config = RunConfig {
            options,
            ..RunConfig::default()
        };
        let solo = profile(Guest::Source(src), &config)
            .unwrap_or_else(|e| panic!("{name}: live profiling failed: {e}"))
            .into_main();
        assert_eq!(
            *fanned_profile, solo,
            "{name}: fanned-out profile diverges under {:?}",
            options.criterion
        );
    }
}

/// The paper's listings and the small sort and ArrayList studies.
fn listings_corpus() -> Vec<(&'static str, String)> {
    vec![
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
    ]
}

#[test]
fn listings_corpus_fanout_equals_separate_runs() {
    for (name, src) in &listings_corpus() {
        assert_fanout_equals_separate_runs(name, src);
    }
}

/// `AlgoProf` declares that it ignores instruction ticks, so the
/// interpreter does not deliver them to it alone, but does when it is
/// teed with `OpStats`, which reads them. Neither sink may notice the
/// difference, and neither may the run's instruction count or fuel.
#[test]
fn instruction_elision_is_invisible() {
    for (name, src) in &listings_corpus() {
        let program = compile(src)
            .unwrap_or_else(|e| panic!("{name}: compile failed: {e}"))
            .instrument(&InstrumentOptions::default())
            .fused();

        let mut alone = AlgoProf::new();
        let run = Interp::new(&program).run(&mut alone).expect("runs");
        let mut ops = OpStats::new();
        let ops_run = Interp::new(&program).run(&mut ops).expect("runs");
        let mut teed = Tee::new(OpStats::new(), AlgoProf::new());
        let teed_run = Interp::new(&program).run(&mut teed).expect("runs");
        let noop_run = Interp::new(&program).run(&mut NoopSink).expect("runs");

        assert_eq!(
            render_set(&teed.b.finish_set(&program)),
            render_set(&alone.finish_set(&program)),
            "{name}: teeing OpStats in changed the report"
        );
        let all = usize::MAX;
        assert_eq!(
            teed.a.render_json(all),
            ops.render_json(all),
            "{name}: teeing AlgoProf in changed the opcode counts"
        );
        assert_eq!(ops.total(), ops_run.instructions, "{name}");
        for r in [&run, &teed_run, &noop_run] {
            assert_eq!(r.instructions, ops_run.instructions, "{name}");
            assert_eq!(r.dispatches, ops_run.dispatches, "{name}");
        }

        // Fuel runs out at the same instruction whether or not the
        // ticks are delivered.
        let fuel = run.instructions;
        assert!(Interp::new(&program)
            .with_fuel(fuel)
            .run(&mut AlgoProf::new())
            .is_ok());
        assert!(Interp::new(&program)
            .with_fuel(fuel)
            .run(&mut NoopSink)
            .is_ok());
        for out_of_fuel in [
            Interp::new(&program)
                .with_fuel(fuel - 1)
                .run(&mut AlgoProf::new()),
            Interp::new(&program).with_fuel(fuel - 1).run(&mut NoopSink),
            Interp::new(&program).with_fuel(fuel - 1).run(&mut ops),
        ] {
            assert!(
                matches!(out_of_fuel, Err(RuntimeError::OutOfFuel)),
                "{name}: {out_of_fuel:?}"
            );
        }
    }
}

/// The profiler counts a field access of known class only by type and
/// folds the per-type counts into the `StructAccess` totals when an
/// invocation finishes. Live runs only read fields of objects, so in
/// every finalized invocation each total must equal the sum of its
/// per-type counts.
#[test]
fn struct_access_totals_equal_their_per_type_sums() {
    let mut by_type_seen = 0;
    for (name, src) in &listings_corpus() {
        let program = compile(src)
            .unwrap_or_else(|e| panic!("{name}: compile failed: {e}"))
            .instrument(&InstrumentOptions::default())
            .fused();
        let mut prof = AlgoProf::new();
        Interp::new(&program).run(&mut prof).expect("runs");
        let profile = prof.finish(&program);
        for node in profile.tree().nodes() {
            for inv in &node.invocations {
                let mut sums: BTreeMap<CostKey, u64> = BTreeMap::new();
                for (key, n) in inv.costs.iter() {
                    match key {
                        CostKey::StructAccess { .. } => {
                            sums.entry(key).or_insert(0);
                        }
                        CostKey::StructAccessByType { input, op, .. } => {
                            *sums.entry(CostKey::StructAccess { input, op }).or_insert(0) += n;
                            by_type_seen += 1;
                        }
                        _ => {}
                    }
                }
                for (total, sum) in sums {
                    assert_eq!(
                        inv.costs.get(total),
                        sum,
                        "{name}: {total:?} in {}",
                        node.id
                    );
                }
            }
        }
    }
    assert!(by_type_seen > 0, "the corpus reads no fields");
}

#[test]
fn random_programs_fanout_equals_separate_runs() {
    for seed in 0..100 {
        let mut rng = TestRng::new(9000 + seed);
        let src = random_program(&mut rng);
        assert_fanout_equals_separate_runs(&format!("seed {seed}"), &src);
    }
}

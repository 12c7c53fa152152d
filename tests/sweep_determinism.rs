//! Sweep determinism over the listings corpus: the same sweep must
//! produce **byte-identical** text, JSON, and HTML reports for every
//! worker count. The engine guarantees this by construction — results
//! land in index-assigned slots and the merge is serial in job order —
//! and this suite pins the guarantee against the paper's Listing 1
//! (insertion sort) and Listing 6 (array list) programs.

use algoprof::{run_sweep, SweepAblation, SweepConfig, SweepJob};
use algoprof_programs::{
    sized_array_list_program, sized_insertion_sort_program, GrowthPolicy, SortWorkload,
};

/// Renders the sweep of `source` over `sizes` at the given worker count.
fn render_all(source: &str, sizes: &[u64], ablations: &[&str], workers: usize) -> [String; 3] {
    let jobs: Vec<SweepJob> = sizes
        .iter()
        .map(|&n| SweepJob::for_size(source, n))
        .collect();
    let mut config = SweepConfig {
        workers,
        program: "corpus".to_string(),
        ..SweepConfig::default()
    };
    if !ablations.is_empty() {
        config.ablations = ablations
            .iter()
            .map(|&name| {
                let mut a = SweepAblation {
                    name: name.to_string(),
                    ..SweepAblation::default()
                };
                a.options.criterion = match name {
                    "some" => algoprof::EquivalenceCriterion::SomeElements,
                    "all" => algoprof::EquivalenceCriterion::AllElements,
                    "array" => algoprof::EquivalenceCriterion::SameArray,
                    "type" => algoprof::EquivalenceCriterion::SameType,
                    other => panic!("unknown test criterion {other}"),
                };
                a
            })
            .collect();
    }
    let report = run_sweep(&jobs, &config).expect("sweep succeeds");
    [
        report.render_text(),
        report.render_json(),
        report.render_html(),
    ]
}

/// Asserts the three rendered reports are byte-identical at -j 1/2/8.
fn assert_deterministic(source: &str, sizes: &[u64], ablations: &[&str]) {
    let baseline = render_all(source, sizes, ablations, 1);
    for workers in [2, 8] {
        let other = render_all(source, sizes, ablations, workers);
        for (kind, (a, b)) in ["text", "json", "html"]
            .iter()
            .zip(baseline.iter().zip(&other))
        {
            assert_eq!(a, b, "{kind} report differs between -j 1 and -j {workers}");
        }
    }
}

#[test]
fn array_list_sweep_is_deterministic_across_worker_counts() {
    for policy in [GrowthPolicy::ByOne, GrowthPolicy::Doubling] {
        let src = sized_array_list_program(policy);
        assert_deterministic(&src, &[4, 8, 16, 32, 64], &[]);
    }
}

#[test]
fn insertion_sort_sweep_is_deterministic_across_worker_counts() {
    let src = sized_insertion_sort_program(SortWorkload::Random);
    assert_deterministic(&src, &[5, 10, 20, 40], &[]);
}

#[test]
fn multi_ablation_sweep_is_deterministic_across_worker_counts() {
    // Four analysis ablations per recording exercises the replay fan-out
    // path (job × ablation pairs racing across workers).
    let src = sized_array_list_program(GrowthPolicy::Doubling);
    assert_deterministic(&src, &[8, 16, 32], &["some", "all", "array", "type"]);
}

#[test]
fn sweep_fits_recover_listing_complexities() {
    // Beyond byte-equality: the merged series must carry the paper's
    // asymptotic story. ByOne growth copies quadratically; the random
    // insertion sort is quadratic in comparisons.
    let src = sized_array_list_program(GrowthPolicy::ByOne);
    let jobs: Vec<SweepJob> = [8u64, 16, 32, 64, 128]
        .iter()
        .map(|&n| SweepJob::for_size(&src, n))
        .collect();
    let report = run_sweep(&jobs, &SweepConfig::default()).expect("sweep succeeds");
    let quadratic = report.series.iter().any(|s| {
        s.fit
            .as_ref()
            .is_some_and(|f| f.model.big_o().contains("n^2") || f.model.big_o().contains("n²"))
    });
    let power_quadratic = report.series.iter().any(|s| {
        s.power_law
            .as_ref()
            .is_some_and(|p| (p.exponent - 2.0).abs() < 0.35)
    });
    assert!(
        quadratic || power_quadratic,
        "ByOne growth should fit a quadratic somewhere in the sweep:\n{}",
        report.render_text()
    );
}

/// The tagged jobs of `programs`, one per size, in program-major order.
fn tagged_jobs(programs: &[(&str, &str)], sizes: &[u64]) -> Vec<SweepJob> {
    programs
        .iter()
        .flat_map(|&(tag, source)| {
            sizes
                .iter()
                .map(move |&n| SweepJob::for_program_size(tag, source, n))
        })
        .collect()
}

#[test]
fn shared_front_end_never_mixes_programs() {
    // The two array lists share loop names (`Main.main:loop0@...`) but
    // not sources; `by1_again` reuses by1's source under its own tag, so
    // it shares by1's compiled program. Swept together, every program's
    // job rows and series must equal its own sweep's.
    let by1 = sized_array_list_program(GrowthPolicy::ByOne);
    let dbl = sized_array_list_program(GrowthPolicy::Doubling);
    let programs = [
        ("by1", by1.as_str()),
        ("dbl", dbl.as_str()),
        ("by1_again", by1.as_str()),
    ];
    let sizes = [4u64, 8, 16, 32];
    for workers in [1, 2] {
        let config = SweepConfig {
            workers,
            ..SweepConfig::default()
        };
        let together = run_sweep(&tagged_jobs(&programs, &sizes), &config).expect("sweep succeeds");
        for &program in &programs {
            let alone =
                run_sweep(&tagged_jobs(&[program], &sizes), &config).expect("sweep succeeds");
            let (tag, _) = program;
            let jobs: Vec<_> = together
                .jobs
                .iter()
                .filter(|j| j.label.starts_with(&format!("{tag}:")))
                .collect();
            assert_eq!(jobs, alone.jobs.iter().collect::<Vec<_>>(), "{tag} jobs");
            let series: Vec<_> = together
                .series
                .iter()
                .filter(|s| s.program == tag)
                .collect();
            assert!(!series.is_empty(), "{tag} has series");
            assert_eq!(
                series,
                alone.series.iter().collect::<Vec<_>>(),
                "{tag} series at -j {workers}"
            );
        }
    }
}

#[test]
fn shared_failing_source_names_its_first_job() {
    // Jobs 1 and 2 share one source that does not compile: it is
    // compiled once, fails both, and the error names job 1.
    let ok = sized_array_list_program(GrowthPolicy::ByOne);
    let bad = "class Main {";
    let jobs = vec![
        SweepJob::for_program_size("ok", &ok, 4),
        SweepJob::for_program_size("bad", bad, 8),
        SweepJob::for_program_size("bad", bad, 16),
    ];
    for workers in [1, 2] {
        let config = SweepConfig {
            workers,
            ..SweepConfig::default()
        };
        let err = run_sweep(&jobs, &config).expect_err("sweep fails");
        assert_eq!(err.job, jobs[1].label);
        assert!(matches!(err.error, algoprof::ProfileError::Compile(_)));
    }
}

//! Static analyzer end-to-end suite: lint corpus + cross-validation.
//!
//! Three pillars:
//!
//! 1. **Shipped programs lint clean** — every listing, classic
//!    algorithm, Table-1 row, case study, and `examples/*.jay` file
//!    produces zero *error*-level diagnostics (warnings are allowed:
//!    e.g. the array-list example deliberately carries a write-only
//!    payload field).
//! 2. **Seeded bugs fire, near-misses don't** — each corpus fixture
//!    fires exactly its lint at the expected source line; the repaired
//!    siblings lint completely clean.
//! 3. **Predictions cross-validate against dynamic fits** — sweeping
//!    the sized corpus yields `agrees` verdicts that are all positive,
//!    and the deliberately mis-predicted fixture is flagged `DISAGREES`
//!    in the text, JSON, and HTML reports.

use algoprof::{run_sweep, SweepConfig, SweepJob};
use algoprof_analysis::{analyze_source, Level};
use algoprof_programs::{
    binary_search_program, bubble_sort_program, catalog_program, crossval_disagreement_program,
    functional_sort_program, insertion_sort_program, matmul_program, merge_sort_program,
    near_misses, seeded_bugs, sized_array_list_program, sized_insertion_sort_program,
    table1_programs, GrowthPolicy, SortWorkload, LISTING3, LISTING4, LISTING5,
};
use algoprof_vm::parser::parse;

/// Every complete shipped guest program, labeled for error messages.
fn shipped_programs() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = vec![
        ("LISTING3".into(), LISTING3.to_string()),
        ("LISTING4".into(), LISTING4.to_string()),
        ("LISTING5".into(), LISTING5.to_string()),
        (
            "insertion_sort(random)".into(),
            insertion_sort_program(SortWorkload::Random, 20, 5, 2),
        ),
        (
            "insertion_sort(sorted)".into(),
            insertion_sort_program(SortWorkload::Sorted, 20, 5, 2),
        ),
        (
            "functional_sort(random)".into(),
            functional_sort_program(SortWorkload::Random, 20, 5, 2),
        ),
        (
            "array_list(by_one)".into(),
            algoprof_programs::array_list_program(GrowthPolicy::ByOne, 20, 5, 2),
        ),
        (
            "array_list(doubling)".into(),
            algoprof_programs::array_list_program(GrowthPolicy::Doubling, 20, 5, 2),
        ),
        (
            "sized_array_list(by_one)".into(),
            sized_array_list_program(GrowthPolicy::ByOne),
        ),
        (
            "sized_array_list(doubling)".into(),
            sized_array_list_program(GrowthPolicy::Doubling),
        ),
        (
            "sized_insertion_sort(random)".into(),
            sized_insertion_sort_program(SortWorkload::Random),
        ),
        ("binary_search".into(), binary_search_program(64, 4)),
        ("merge_sort".into(), merge_sort_program(32, 8, 1)),
        ("bubble_sort".into(), bubble_sort_program(24, 8, 1)),
        ("matmul".into(), matmul_program(6, 2)),
        ("catalog".into(), catalog_program(49, 16, 4)),
    ];
    for row in table1_programs() {
        out.push((format!("table1:{}", row.name), row.source));
    }
    // The shipped example files lint as files, same sources.
    let examples = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    for entry in std::fs::read_dir(examples).expect("examples dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "jay") {
            let src = std::fs::read_to_string(&path).expect("readable example");
            out.push((format!("example:{}", path.display()), src));
        }
    }
    out
}

#[test]
fn shipped_programs_have_no_error_level_diagnostics() {
    let mut checked = 0;
    for (name, source) in shipped_programs() {
        let analysis = analyze_source(&source)
            .unwrap_or_else(|e| panic!("{name} must compile for analysis: {e}"));
        let errors: Vec<_> = analysis
            .diagnostics
            .iter()
            .filter(|d| d.level == Level::Error)
            .collect();
        assert!(
            errors.is_empty(),
            "{name} has error-level diagnostics: {errors:?}"
        );
        assert!(!analysis.has_errors, "{name} flagged has_errors");
        checked += 1;
    }
    // Non-vacuous: listings + algorithms + table1 rows + example files.
    assert!(checked > 20, "only {checked} shipped programs checked");
}

#[test]
fn one_parse_analysis_equals_separate_check_and_compile() {
    // `analyze_source_with_features` parses and type-checks once and
    // analyzes the bodies it lowered. It must equal the construction
    // that type-checked the source for the bodies and compiled it again
    // for the instrumented program: predictions, diagnostics and
    // per-feature costs alike.
    use algoprof_analysis::{analyze_program_with_features, analyze_source_with_features};
    use algoprof_vm::{compile, typeck::check, InstrumentOptions};
    let mut checked = 0;
    for (name, source) in shipped_programs() {
        let one_parse = analyze_source_with_features(&source)
            .unwrap_or_else(|e| panic!("{name} must compile for analysis: {e}"));
        let typed = check(&parse(&source).expect("parses")).expect("checks");
        let instrumented = compile(&source)
            .expect("compiles")
            .instrument(&InstrumentOptions::default());
        let separate = analyze_program_with_features(&typed.bodies, &instrumented);
        assert!(
            !one_parse.0.predictions.is_empty(),
            "{name}: no predictions to compare"
        );
        assert_eq!(
            format!("{one_parse:?}"),
            format!("{separate:?}"),
            "{name}: one-parse analysis differs"
        );
        checked += 1;
    }
    assert!(checked > 20, "only {checked} shipped programs checked");
}

#[test]
fn seeded_bugs_fire_with_expected_code_and_span() {
    let bugs = seeded_bugs();
    assert!(bugs.len() >= 8, "corpus must hold at least 8 seeded bugs");
    let codes: std::collections::BTreeSet<_> = bugs.iter().map(|b| b.code).collect();
    for code in [
        "AP001", "AP002", "AP003", "AP004", "AP005", "AP006", "AP007",
    ] {
        assert!(codes.contains(code), "no seeded bug covers {code}");
    }
    for bug in bugs {
        let analysis =
            analyze_source(bug.source).unwrap_or_else(|e| panic!("{} must compile: {e}", bug.name));
        let hit = analysis
            .diagnostics
            .iter()
            .find(|d| d.code.as_str() == bug.code)
            .unwrap_or_else(|| {
                panic!(
                    "{}: {} did not fire; got {:?}",
                    bug.name, bug.code, analysis.diagnostics
                )
            });
        assert_eq!(
            hit.span.line, bug.line,
            "{}: {} fired at line {} instead of {}",
            bug.name, bug.code, hit.span.line, bug.line
        );
        assert_eq!(
            hit.level == Level::Error,
            bug.error,
            "{}: unexpected level {:?}",
            bug.name,
            hit.level
        );
        assert_eq!(
            analysis.has_errors, bug.error,
            "{}: has_errors should track the seeded level",
            bug.name
        );
    }
}

#[test]
fn near_misses_lint_completely_clean() {
    let misses = near_misses();
    assert!(misses.len() >= 5, "need a meaningful near-miss guard set");
    for miss in misses {
        let analysis = analyze_source(miss.source)
            .unwrap_or_else(|e| panic!("{} must compile: {e}", miss.name));
        assert!(
            analysis.diagnostics.is_empty(),
            "{} (guards {}) should lint clean, got {:?}",
            miss.name,
            miss.guards,
            analysis.diagnostics
        );
    }
}

/// Sweeps `source` over `sizes` and returns the report.
fn sweep(source: &str, sizes: &[u64]) -> algoprof::SweepReport {
    let jobs: Vec<SweepJob> = sizes
        .iter()
        .map(|&n| SweepJob::for_size(source, n))
        .collect();
    run_sweep(&jobs, &SweepConfig::default()).expect("sweep succeeds")
}

#[test]
fn sized_corpus_predictions_match_dynamic_fits() {
    let corpus = [
        (
            "sized_array_list(by_one)",
            sized_array_list_program(GrowthPolicy::ByOne),
            vec![8u64, 16, 32, 64, 128],
        ),
        (
            "sized_insertion_sort(random)",
            sized_insertion_sort_program(SortWorkload::Random),
            vec![5, 10, 20, 40, 80],
        ),
    ];
    for (name, source, sizes) in corpus {
        let report = sweep(&source, &sizes);
        let mut verdicts = 0;
        for s in &report.series {
            if let Some(agrees) = s.agrees {
                assert!(
                    agrees,
                    "{name}: series {} predicted {:?} but fitted {:?}",
                    s.algorithm,
                    s.predicted,
                    s.fit.as_ref().map(|f| f.model.big_o())
                );
                verdicts += 1;
            }
        }
        assert!(
            verdicts > 0,
            "{name}: no series produced a cross-validation verdict:\n{}",
            report.render_text()
        );
    }
}

#[test]
fn mispredicted_fixture_disagrees_in_every_report_format() {
    let report = sweep(crossval_disagreement_program(), &[8, 16, 32, 64, 128]);
    let disagreeing: Vec<_> = report
        .series
        .iter()
        .filter(|s| s.agrees == Some(false))
        .collect();
    assert!(
        !disagreeing.is_empty(),
        "no series disagreed:\n{}",
        report.render_text()
    );
    // The traversal is the mis-predicted repetition; the construction
    // loop must still agree so the report shows the contrast.
    assert!(
        disagreeing.iter().any(|s| s.algorithm.contains("loop1")),
        "traversal loop should be the disagreeing series: {:?}",
        disagreeing.iter().map(|s| &s.algorithm).collect::<Vec<_>>()
    );
    assert!(
        report.series.iter().any(|s| s.agrees == Some(true)),
        "construction loop should still agree:\n{}",
        report.render_text()
    );

    let text = report.render_text();
    assert!(text.contains("[DISAGREES"), "text misses flag:\n{text}");
    let json = report.render_json();
    assert!(
        json.contains("\"agrees\": false"),
        "json misses flag:\n{json}"
    );
    let html = report.render_html();
    assert!(html.contains("disagree"), "html misses flag");
}

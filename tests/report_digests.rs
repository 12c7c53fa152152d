//! Golden report digests: the SHA-256 of every shipped program's
//! rendered report under every equivalence criterion and both snapshot
//! policies, pinned in `tests/golden/report_digests.txt`.
//!
//! A profile job's report is a pure function of its spec, so a change
//! to the profiler's internals that keeps every report byte-identical
//! leaves this file untouched. The corpus is every paper listing, the
//! 18 Table-1 programs, the algorithm and case-study generators, and
//! every `examples/*.jay` program (threaded ones included), each at a
//! fixed small input. The sized examples are also swept, so the sweep's
//! text and JSON reports are pinned too.
//!
//! Fusion must not show in a report, so every job runs twice, fused (as
//! the daemon runs it) and unfused, and both runs must match the same
//! golden line.
//!
//! On a mismatch the test prints the entries that differ and the whole
//! regenerated file. There is no switch that rewrites the golden file:
//! replacing it is a deliberate edit, reviewed like any other.

use algoprof::{
    sha256_hex, AlgoProfOptions, EquivalenceCriterion, JobSpec, SnapshotPolicy, SweepAblation,
};
use algoprof_programs::{
    array_list_program, binary_search_program, bubble_sort_program, catalog_program,
    functional_sort_program, insertion_sort_program, matmul_program, merge_sort_program,
    sized_array_list_program, sized_insertion_sort_array_program, sized_insertion_sort_program,
    table1_programs, GrowthPolicy, SortWorkload, LISTING3, LISTING4, LISTING5,
};

const GOLDEN: &str = include_str!("golden/report_digests.txt");

const CRITERIA: [(&str, EquivalenceCriterion); 4] = [
    ("some", EquivalenceCriterion::SomeElements),
    ("all", EquivalenceCriterion::AllElements),
    ("array", EquivalenceCriterion::SameArray),
    ("type", EquivalenceCriterion::SameType),
];

const POLICIES: [(&str, SnapshotPolicy); 2] = [
    ("firstlast", SnapshotPolicy::FirstAndLast),
    ("every", SnapshotPolicy::EveryAccess),
];

/// Input handed to every `examples/*.jay` program's `readInput()`.
const EXAMPLE_INPUT: i64 = 12;

/// Sizes the `examples/*.jay` sweeps run at.
const SWEEP_SIZES: [u64; 3] = [4, 8, 12];

/// Every shipped program as `(name, source, input)`.
fn corpus() -> Vec<(String, String, Vec<i64>)> {
    let workloads = [
        SortWorkload::Random,
        SortWorkload::Sorted,
        SortWorkload::Reversed,
    ];
    let policies = [GrowthPolicy::ByOne, GrowthPolicy::Doubling];
    let mut out: Vec<(String, String, Vec<i64>)> = Vec::new();
    for w in workloads {
        out.push((
            format!("listing1_insertion_sort_{w}"),
            insertion_sort_program(w, 12, 4, 1),
            vec![],
        ));
        out.push((
            format!("functional_sort_{w}"),
            functional_sort_program(w, 12, 4, 1),
            vec![],
        ));
        out.push((
            format!("sized_insertion_sort_{w}"),
            sized_insertion_sort_program(w),
            vec![10],
        ));
        out.push((
            format!("sized_insertion_sort_array_{w}"),
            sized_insertion_sort_array_program(w),
            vec![10],
        ));
    }
    for p in policies {
        out.push((
            format!("listing6_array_list_{p}"),
            array_list_program(p, 12, 4, 1),
            vec![],
        ));
        out.push((
            format!("sized_array_list_{p}"),
            sized_array_list_program(p),
            vec![10],
        ));
    }
    out.push(("listing3".into(), LISTING3.into(), vec![]));
    out.push(("listing4".into(), LISTING4.into(), vec![]));
    out.push(("listing5".into(), LISTING5.into(), vec![]));
    out.push(("binary_search".into(), binary_search_program(12, 3), vec![]));
    out.push(("merge_sort".into(), merge_sort_program(12, 4, 1), vec![]));
    out.push(("bubble_sort".into(), bubble_sort_program(12, 4, 1), vec![]));
    out.push(("matmul".into(), matmul_program(4, 2), vec![]));
    out.push(("catalog".into(), catalog_program(12, 4, 3), vec![]));
    for (row, program) in table1_programs().into_iter().enumerate() {
        out.push((
            format!("table1_{:02}_{}", row + 1, program.name.replace(' ', "_")),
            program.source,
            vec![],
        ));
    }
    for (name, source) in examples() {
        out.push((format!("example_{name}"), source, vec![EXAMPLE_INPUT]));
    }
    out
}

/// `examples/*.jay` as `(file stem, source)`, sorted by name.
fn examples() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples");
    let mut out: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("examples directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "jay"))
        .map(|p| {
            let stem = p
                .file_stem()
                .and_then(|s| s.to_str())
                .expect("utf-8 file name")
                .to_string();
            let source = std::fs::read_to_string(&p).expect("readable example");
            (stem, source)
        })
        .collect();
    out.sort();
    out
}

/// The SHA-256 of a job's text report, a NUL, and its JSON report (empty
/// for profile jobs). Fused, the job runs as a daemon worker executes it.
fn digest(job: &JobSpec, fuse: bool) -> String {
    let output = if fuse {
        job.execute()
    } else {
        job.run(1, false, false).map(|result| result.render())
    }
    .unwrap_or_else(|e| panic!("job fails: {e}"));
    let mut bytes = output.text.into_bytes();
    bytes.push(0);
    bytes.extend_from_slice(output.json.unwrap_or_default().as_bytes());
    sha256_hex(&bytes)
}

/// The digest file's lines: `<program> <criterion>/<policy> <sha256>`
/// for every profile job, then `<program> sweep/<policy> <sha256>` for
/// each example swept under all four criteria.
fn digest_lines(fuse: bool) -> Vec<String> {
    let mut lines = Vec::new();
    for (name, source, input) in corpus() {
        for (policy_name, policy) in POLICIES {
            for (criterion_name, criterion) in CRITERIA {
                let job = JobSpec::Profile {
                    program: name.clone(),
                    source: source.clone(),
                    input: input.clone(),
                    options: AlgoProfOptions {
                        criterion,
                        snapshot_policy: policy,
                        ..AlgoProfOptions::default()
                    },
                };
                lines.push(format!(
                    "{name} {criterion_name}/{policy_name} {}",
                    digest(&job, fuse)
                ));
            }
        }
    }
    for (name, source) in examples() {
        for (policy_name, policy) in POLICIES {
            let ablations = CRITERIA
                .iter()
                .map(|&(criterion_name, criterion)| SweepAblation {
                    name: criterion_name.to_string(),
                    options: AlgoProfOptions {
                        criterion,
                        snapshot_policy: policy,
                        ..AlgoProfOptions::default()
                    },
                })
                .collect();
            let job = JobSpec::Sweep {
                program: format!("examples/{name}.jay"),
                source: source.clone(),
                sizes: SWEEP_SIZES.to_vec(),
                ablations,
            };
            lines.push(format!(
                "example_{name} sweep/{policy_name} {}",
                digest(&job, fuse)
            ));
        }
    }
    lines
}

#[test]
fn every_report_matches_its_golden_digest() {
    for fuse in [true, false] {
        check_against_golden(&digest_lines(fuse), fuse);
    }
}

fn check_against_golden(lines: &[String], fuse: bool) {
    let golden: Vec<&str> = GOLDEN.lines().collect();
    let differing: Vec<String> = lines
        .iter()
        .filter(|l| !golden.contains(&l.as_str()))
        .cloned()
        .collect();
    let stale: Vec<&str> = golden
        .iter()
        .filter(|g| !lines.iter().any(|l| l == *g))
        .copied()
        .collect();
    if !differing.is_empty() || !stale.is_empty() {
        panic!(
            "{} report digest(s) differ from tests/golden/report_digests.txt \
             with fusion {}\n\
             new or changed:\n{}\n\
             no longer produced:\n{}\n\
             full regenerated file:\n{}\n",
            differing.len().max(stale.len()),
            if fuse { "on" } else { "off" },
            differing.join("\n"),
            stale.join("\n"),
            lines.join("\n"),
        );
    }
    assert_eq!(lines.len(), golden.len(), "one line per job");
}

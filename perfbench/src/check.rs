//! Output checks. Each one compares an answer against a reference that
//! does not come from the code under test: a closed form, a count made
//! by an independent model of the guest program, or the output of the
//! in-process path that the daemon and the parallel sweep must match
//! byte for byte.

use algoprof::SweepReport;
use algoprof_fit::ComplexityClass;

/// The `steps=` count of the repetition-tree node whose name starts with
/// `node` (e.g. `Main.fill:loop0`) in a text profile report.
pub fn steps_of(report: &str, node: &str) -> Option<u64> {
    let tag = format!("{node}@L");
    let line = report.lines().find(|l| l.contains(&tag))?;
    line.split_whitespace()
        .find_map(|w| w.strip_prefix("steps="))?
        .parse()
        .ok()
}

fn expect_steps(report: &str, node: &str, want: u64) -> Result<(), String> {
    match steps_of(report, node) {
        Some(got) if got == want => Ok(()),
        Some(got) => Err(format!("{node}: {got} steps, expected {want}")),
        None => Err(format!("{node}: no such repetition in the report")),
    }
}

/// The reversed-input array insertion sort at size `n`: the fill loop
/// runs `n` times, the outer sort loop `n-1` times and the inner loop
/// moves every pair once, `n(n-1)/2` times.
pub fn array_sort_report(report: &str, n: u64) -> Result<(), String> {
    expect_steps(report, "Main.fill:loop0", n)?;
    expect_steps(report, "Main.sort:loop0", n.saturating_sub(1))?;
    expect_steps(report, "Main.sort:loop1", n * n.saturating_sub(1) / 2)
}

/// The values the guest's `Random(n + 7)` hands the list construction,
/// computed here with the same linear congruential recurrence.
pub fn guest_random_values(n: u64) -> Vec<i64> {
    let n = n as i64;
    let mut seed = (n + 7) * 2 + 1;
    (0..n)
        .map(|_| {
            seed = (seed * 1_103_515_245 + 12_345) % 2_147_483_648;
            seed % n
        })
        .collect()
}

/// Inversions of `values`: the moves an insertion sort makes.
pub fn inversions(values: &[i64]) -> u64 {
    let mut count = 0;
    for (i, a) in values.iter().enumerate() {
        count += values[i + 1..].iter().filter(|b| a > b).count() as u64;
    }
    count
}

/// The random-input linked-list insertion sort at size `n`: list
/// construction and the outer sort loop run `n` times, the inner loop
/// once per inversion of the generated values.
pub fn list_sort_report(report: &str, n: u64) -> Result<(), String> {
    expect_steps(report, "Main.constructList:loop0", n)?;
    expect_steps(report, "List.sort:loop0", n)?;
    expect_steps(
        report,
        "List.sort:loop1",
        inversions(&guest_random_values(n)),
    )
}

/// `got` must equal `want` byte for byte.
pub fn same_bytes(what: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let at = got
        .bytes()
        .zip(want.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(want.len()));
    Err(format!(
        "{what}: differs from the reference at byte {at} ({} vs {} bytes)",
        got.len(),
        want.len()
    ))
}

/// Every `(program, algorithm prefix, class)` in `expected` must name a
/// merged series of `report` under each ablation, whose best fit has
/// that complexity class.
pub fn sweep_fits(
    report: &SweepReport,
    expected: &[(&str, &str, ComplexityClass)],
) -> Result<(), String> {
    for &(program, algorithm, class) in expected {
        let series: Vec<_> = report
            .series
            .iter()
            .filter(|s| {
                s.program == program && s.thread.is_none() && s.algorithm.starts_with(algorithm)
            })
            .collect();
        if series.len() != report.ablations.len() {
            return Err(format!(
                "{program} {algorithm}: {} series for {} ablations",
                series.len(),
                report.ablations.len()
            ));
        }
        for s in series {
            let got = s.fit.as_ref().map(|f| f.model.complexity_class());
            if got != Some(class) {
                return Err(format!(
                    "{program} {algorithm} [{}]: fitted {got:?}, expected {class:?}",
                    s.ablation
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const ARRAY_N10: &str = "Repetition tree
Program [algorithm#0] invocations=1 steps=0
  |- Main.fill:loop0@L20 [algorithm#1] invocations=1 steps=10
  `- Main.sort:loop0@L24 [algorithm#2] invocations=1 steps=9
     `- Main.sort:loop1@L27 [algorithm#2] invocations=9 steps=45
";

    #[test]
    fn array_sort_closed_forms_at_n10() {
        assert_eq!(steps_of(ARRAY_N10, "Main.sort:loop1"), Some(45));
        assert_eq!(array_sort_report(ARRAY_N10, 10), Ok(()));
    }

    #[test]
    fn array_sort_check_rejects_corrupted_reports() {
        let wrong_inner = ARRAY_N10.replace("steps=45", "steps=44");
        assert!(array_sort_report(&wrong_inner, 10).is_err());
        let missing_fill = ARRAY_N10.replace("Main.fill", "Main.fil");
        assert!(array_sort_report(&missing_fill, 10).is_err());
        assert!(array_sort_report(ARRAY_N10, 11).is_err());
    }

    #[test]
    fn list_sort_reference_matches_a_hand_count() {
        // Random(10 + 7) yields these values; 22 inversions, as the
        // profiler reports for the list sort at n=10.
        let values = guest_random_values(10);
        assert_eq!(inversions(&values), 22);
        assert_eq!(inversions(&[3, 2, 1]), 3);
        let report = "  |- Main.constructList:loop0@L12 [algorithm#1] invocations=1 steps=10
  `- List.sort:loop0@L35 [algorithm#2] invocations=1 steps=10
     `- List.sort:loop1@L38 [algorithm#2] invocations=10 steps=22
";
        assert_eq!(list_sort_report(report, 10), Ok(()));
        let corrupted = report.replace("steps=22", "steps=23");
        assert!(list_sort_report(&corrupted, 10).is_err());
        let short_list = report.replacen("steps=10", "steps=9", 1);
        assert!(list_sort_report(&short_list, 10).is_err());
    }

    #[test]
    fn byte_check_rejects_a_mismatched_answer() {
        assert_eq!(same_bytes("x", "abc", "abc"), Ok(()));
        let err = same_bytes("daemon", "abd", "abc").unwrap_err();
        assert!(err.contains("byte 2"), "{err}");
        assert!(same_bytes("daemon", "ab", "abc").is_err());
    }
}

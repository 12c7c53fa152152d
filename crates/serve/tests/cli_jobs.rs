//! The CLI's job-shaped subcommands share one parser per job kind and one
//! table of option names with the wire protocol. Shells the real binary
//! via `CARGO_BIN_EXE_algoprof`.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use algoprof_serve::api::{OptionTable, CRITERIA, GROUPINGS, SIZINGS, SNAPSHOT_POLICIES};

fn algoprof(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_algoprof"))
        .args(args)
        .output()
        .expect("spawns the algoprof binary")
}

/// Runs `algoprof args` with `stdin` piped in.
fn algoprof_with_stdin(args: &[&str], stdin: &[u8]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_algoprof"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns the algoprof binary");
    child
        .stdin
        .take()
        .expect("stdin handle")
        .write_all(stdin)
        .expect("pipes stdin");
    child.wait_with_output().expect("algoprof finishes")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A per-test scratch directory (tests run in parallel).
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("algoprof-cli-jobs-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn example(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples")
        .join(name)
        .to_str()
        .expect("utf-8 path")
        .to_owned()
}

/// `-j`, `--quiet` and `--html` shape a local sweep only: `submit sweep`
/// rejects them as a usage mistake before it connects anywhere.
#[test]
fn submit_sweep_rejects_local_only_flags() {
    for local in [&["-j", "2"][..], &["--quiet"], &["--html", "r.html"]] {
        let mut args = vec!["submit", "--addr", "127.0.0.1:1", "sweep", "p.jay"];
        args.extend(["--sizes", "4"]);
        args.extend(local);
        let out = algoprof(&args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("not valid for submit"), "{args:?}: {err}");
        assert!(err.contains("--help"), "{args:?}: {err}");
    }
}

/// Every name in the wire protocol's option tables is accepted by the
/// matching CLI flag, live and in a sweep.
#[test]
fn every_option_table_name_is_accepted_by_its_flag() {
    let dir = temp_dir("names");
    let prog = dir.join("sized.jay");
    std::fs::write(
        &prog,
        "class Main { static int main() {
            int n = readInput();
            int[] a = new int[n];
            for (int i = 0; i < n; i = i + 1) { a[i] = i; }
            return a.length;
        } }",
    )
    .expect("writes");
    let prog = prog.to_str().expect("utf-8 path");
    fn names<T>(table: &OptionTable<T>) -> Vec<&'static str> {
        table.names.iter().map(|&(n, _)| n).collect()
    }
    let flags = [
        ("--criterion", names(&CRITERIA)),
        ("--sizing", names(&SIZINGS)),
        ("--snapshots", names(&SNAPSHOT_POLICIES)),
        ("--grouping", names(&GROUPINGS)),
    ];
    for (flag, names) in &flags {
        for name in names {
            let out = algoprof(&[flag, name, "--input", "4", prog]);
            assert!(out.status.success(), "{flag} {name}: {}", stderr(&out));
            if *flag == "--criterion" {
                continue;
            }
            let sweep = ["sweep", prog, "--sizes", "2,4", "--quiet", flag, name];
            let out = algoprof(&sweep);
            assert!(
                out.status.success(),
                "sweep {flag} {name}: {}",
                stderr(&out)
            );
        }
    }
    let criteria = names(&CRITERIA).join(",");
    let sweep = [
        "sweep",
        prog,
        "--sizes",
        "2,4",
        "--quiet",
        "--criteria",
        &criteria,
    ];
    let out = algoprof(&sweep);
    assert!(
        out.status.success(),
        "--criteria {criteria}: {}",
        stderr(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `analyze <file>` runs an analyze job and `analyze -` streams stdin into
/// the same analysis: on a threaded recording, their `--check` reports
/// (per-thread profiles plus the verdicts against the embedded source)
/// are byte-identical.
#[test]
fn analyze_file_and_stdin_check_reports_match_on_a_threaded_recording() {
    let dir = temp_dir("check");
    let trace = dir.join("locked_counter.aptr");
    let trace = trace.to_str().expect("utf-8 path");
    let prog = example("locked_counter.jay");
    let rec = algoprof(&["record", &prog, "--input", "16", "-o", trace]);
    assert!(rec.status.success(), "record: {}", stderr(&rec));

    let from_file = algoprof(&["analyze", trace, "--check"]);
    assert!(from_file.status.success(), "{}", stderr(&from_file));
    let bytes = std::fs::read(trace).expect("reads trace");
    let from_stdin = algoprof_with_stdin(&["analyze", "-", "--check"], &bytes);
    assert!(from_stdin.status.success(), "{}", stderr(&from_stdin));

    let report = String::from_utf8_lossy(&from_file.stdout);
    assert!(report.contains("=== t1 ==="), "threaded report: {report}");
    assert!(
        report.contains("cross-validation"),
        "checked report: {report}"
    );
    assert_eq!(from_file.stdout, from_stdin.stdout);
    std::fs::remove_dir_all(&dir).ok();
}

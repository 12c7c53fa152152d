//! CLI robustness: every malformed invocation must exit non-zero with a
//! one-line diagnostic (usage mistakes add a usage hint and exit 2) —
//! and never panic. Shells the real binary via `CARGO_BIN_EXE_algoprof`.

use std::path::Path;
use std::process::{Command, Output};

fn algoprof(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_algoprof"))
        .args(args)
        .output()
        .expect("spawns the algoprof binary")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Asserts a usage mistake: exit code 2, a diagnostic naming the problem,
/// the usage hint, and no panic backtrace.
fn assert_usage_error(args: &[&str], needle: &str) {
    let out = algoprof(args);
    let err = stderr(&out);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} should exit 2, stderr: {err}"
    );
    assert!(
        err.contains(needle),
        "{args:?} stderr should mention {needle:?}, got: {err}"
    );
    assert!(
        err.contains("--help"),
        "{args:?} stderr should carry the usage hint, got: {err}"
    );
    assert!(!err.contains("panicked"), "{args:?} panicked: {err}");
}

/// Asserts a run failure: exit code 1, a diagnostic, no panic.
fn assert_run_error(args: &[&str], needle: &str) {
    let out = algoprof(args);
    let err = stderr(&out);
    assert_eq!(
        out.status.code(),
        Some(1),
        "{args:?} should exit 1, stderr: {err}"
    );
    assert!(
        err.contains(needle),
        "{args:?} stderr should mention {needle:?}, got: {err}"
    );
    assert!(!err.contains("panicked"), "{args:?} panicked: {err}");
}

#[test]
fn help_exits_zero() {
    let out = algoprof(&["--help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: algoprof"));
}

#[test]
fn malformed_invocations_fail_cleanly() {
    // No arguments at all.
    assert_usage_error(&[], "missing subcommand");
    // Unknown flag in each mode.
    assert_usage_error(&["--frobnicate", "p.jay"], "--frobnicate");
    assert_usage_error(&["record", "--frobnicate"], "--frobnicate");
    assert_usage_error(&["sweep", "--frobnicate"], "--frobnicate");
    // Value-taking flags with the value missing.
    assert_usage_error(&["--criterion"], "--criterion requires a value");
    assert_usage_error(&["--csv"], "--csv requires a value");
    assert_usage_error(&["--html"], "--html requires a value");
    assert_usage_error(&["p.jay", "--input"], "--input requires a value");
    assert_usage_error(&["record", "p.jay", "-o"], "-o requires a value");
    assert_usage_error(&["sweep", "p.jay", "--sizes"], "--sizes requires a value");
    assert_usage_error(
        &["sweep", "p.jay", "--sizes", "4", "-j"],
        "-j requires a value",
    );
    // Bad enum / numeric values.
    assert_usage_error(&["--criterion", "bogus", "p.jay"], "unknown criterion");
    assert_usage_error(&["--grouping", "bogus", "p.jay"], "unknown grouping");
    assert_usage_error(&["p.jay", "--input", "1,x,3"], "invalid value");
    assert_usage_error(&["sweep", "p.jay", "--sizes", "4,-1"], "invalid value");
    assert_usage_error(
        &["sweep", "p.jay", "--sizes", "4", "-j", "two"],
        "invalid worker count",
    );
    assert_usage_error(
        &["sweep", "p.jay", "--sizes", "4", "--criteria", "bogus"],
        "unknown criterion",
    );
    // Missing required pieces.
    assert_usage_error(&["record", "p.jay"], "-o");
    assert_usage_error(&["sweep", "p.jay"], "--sizes");
    assert_usage_error(&["analyze"], "trace file");
    assert_usage_error(&["analyze", "t.aptr", "--input", "3"], "--input");
    // Two positionals where one is expected.
    assert_usage_error(&["a.jay", "b.jay"], "exactly one program file");
}

#[test]
fn unreadable_paths_fail_cleanly() {
    assert_run_error(&["/no/such/file.jay"], "cannot read /no/such/file.jay");
    assert_run_error(
        &["record", "/no/such.jay", "-o", "/tmp/t.aptr"],
        "cannot read",
    );
    assert_run_error(&["analyze", "/no/such.aptr"], "cannot read");
    assert_run_error(
        &["sweep", "/no/such.jay", "--sizes", "4,8"],
        "cannot read /no/such.jay",
    );
}

#[test]
fn guest_and_trace_failures_exit_one() {
    let dir = std::env::temp_dir().join(format!("algoprof-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    // A program that does not compile.
    let bad = dir.join("bad.jay");
    std::fs::write(&bad, "class Main {").expect("writes");
    assert_run_error(&[bad.to_str().unwrap()], "compilation");

    // A file that is not an APTR trace.
    let junk = dir.join("junk.aptr");
    std::fs::write(&junk, b"definitely not a trace").expect("writes");
    assert_run_error(&["analyze", junk.to_str().unwrap()], "trace");

    // Unwritable output path for a report.
    let good = dir.join("good.jay");
    std::fs::write(&good, "class Main { static int main() { return 0; } }").expect("writes");
    assert_run_error(
        &[good.to_str().unwrap(), "--html", "/no/such/dir/report.html"],
        "cannot write",
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_failures_are_attributed_to_a_job() {
    let dir = std::env::temp_dir().join(format!("algoprof-cli-sweep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    // A guest that throws for sizes above 8: the sweep must report the
    // failing job by label, not panic or deadlock.
    let src = dir.join("throws.jay");
    std::fs::write(
        &src,
        "class Main { static int main() {
            int size = readInput();
            if (size > 8) { throw size; }
            return size;
        } }",
    )
    .expect("writes");
    assert_run_error(
        &[
            "sweep",
            src.to_str().unwrap(),
            "--sizes",
            "4,8,16",
            "--quiet",
        ],
        "job n=16",
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn events_usage_and_run_errors() {
    assert_usage_error(&["events"], "exactly one trace file");
    assert_usage_error(&["events", "a.aptr", "b.aptr"], "exactly one trace file");
    assert_usage_error(&["events", "a.aptr", "--frobnicate"], "--frobnicate");
    assert_usage_error(&["events", "a.aptr", "--limit"], "--limit requires a value");
    assert_usage_error(
        &["events", "a.aptr", "--limit", "many"],
        "invalid event limit",
    );
    assert_run_error(&["events", "/no/such.aptr"], "cannot read");

    // A file that is not an APTR trace.
    let dir = std::env::temp_dir().join(format!("algoprof-cli-events-err-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let junk = dir.join("junk.aptr");
    std::fs::write(&junk, b"definitely not a trace").expect("writes");
    assert_run_error(&["events", junk.to_str().unwrap()], "trace");
    std::fs::remove_dir_all(&dir).ok();
}

/// `events` replays through the same prelude as `analyze`, so a bad
/// recording fails with the same prefixed diagnostic and exit code 1.
#[test]
fn events_and_analyze_report_replay_failures_alike() {
    let dir =
        std::env::temp_dir().join(format!("algoprof-cli-events-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let src = dir.join("count.jay");
    std::fs::write(
        &src,
        "class Main { static int main() {
            int s = 0;
            for (int i = 0; i < 4; i = i + 1) { s = s + i; }
            return s;
        } }",
    )
    .expect("writes");
    let trace = dir.join("count.aptr");
    let out = algoprof(&[
        "record",
        src.to_str().unwrap(),
        "-o",
        trace.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    // A recording cut short before its end tag.
    let bytes = std::fs::read(&trace).expect("reads the recording");
    let truncated = dir.join("truncated.aptr");
    std::fs::write(&truncated, &bytes[..bytes.len() - 1]).expect("writes");
    // A well-formed recording whose embedded source does not compile.
    let mut uncompilable = Vec::new();
    let header = algoprof_trace::TraceHeader::new(
        "class Main {",
        &algoprof_vm::InstrumentOptions::default(),
        &[],
    );
    algoprof_trace::TraceRecorder::new(&header, &mut uncompilable)
        .finish()
        .expect("writes to a Vec");
    let bad_source = dir.join("bad_source.aptr");
    std::fs::write(&bad_source, &uncompilable).expect("writes");

    for (file, prefix) in [
        (&truncated, "algoprof: trace replay failed: "),
        (&bad_source, "algoprof: guest compilation failed: "),
    ] {
        let file = file.to_str().unwrap();
        for cmd in ["events", "analyze"] {
            assert_run_error(&[cmd, file], prefix);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `algoprof analyze -` with `bytes` on stdin.
fn analyze_stdin(bytes: &[u8]) -> Output {
    use std::io::Write as _;
    use std::process::Stdio;

    let mut child = Command::new(env!("CARGO_BIN_EXE_algoprof"))
        .args(["analyze", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns analyze -");
    // A child that rejects the stream early may close the pipe first.
    let _ = child.stdin.take().expect("stdin handle").write_all(bytes);
    child.wait_with_output().expect("analyze - finishes")
}

/// One replay driver: a corrupt recording fails with one and the same
/// `trace replay failed: …` line, and exit code 1, whether it is
/// analyzed from a file, streamed through `analyze -`, or dumped by
/// `events`.
#[test]
fn one_error_line_per_corrupt_file() {
    use algoprof_trace::format::{TAG_END, TAG_FIELD_WRITTEN, TAG_METHOD_ENTRY};

    let dir = std::env::temp_dir().join(format!("algoprof-cli-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let source = "class Main { static int main() { Node n = new Node(); n.v = 1; return n.v; } }
        class Node { int v; }";
    let mut header = Vec::new();
    algoprof_trace::TraceHeader::new(source, &algoprof_vm::InstrumentOptions::default(), &[])
        .encode(&mut header);
    let corruptions: [(&str, &[u8], &str); 2] = [
        // An End tag inside a method, followed by the stream's remainder.
        (
            "premature_end",
            &[TAG_METHOD_ENTRY, 0, TAG_END, TAG_METHOD_ENTRY, 0],
            "End tag with 1 repetitions still open",
        ),
        // A field write to object delta 3 before anything was allocated.
        (
            "ref_before_alloc",
            &[TAG_FIELD_WRITTEN, 6, 0],
            "object ref 2 outside the 0 allocated",
        ),
    ];
    for (name, events, needle) in corruptions {
        let mut bytes = header.clone();
        bytes.extend_from_slice(events);
        let file = dir.join(format!("{name}.aptr"));
        std::fs::write(&file, &bytes).expect("writes");
        let file = file.to_str().unwrap();
        let want = format!("algoprof: trace replay failed: trace is corrupt: {needle}\n");
        for (how, out) in [
            ("analyze <file>", algoprof(&["analyze", file])),
            ("analyze -", analyze_stdin(&bytes)),
            ("events <file>", algoprof(&["events", file])),
        ] {
            assert_eq!(
                out.status.code(),
                Some(1),
                "{name}, {how}: {}",
                stderr(&out)
            );
            assert_eq!(stderr(&out), want, "{name}, {how}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn events_dumps_a_recording() {
    let dir = std::env::temp_dir().join(format!("algoprof-cli-events-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let src = dir.join("list.jay");
    std::fs::write(
        &src,
        "class Main { static int main() {
            Node head = null;
            for (int i = 0; i < 3; i = i + 1) {
                Node n = new Node();
                n.next = head;
                head = n;
            }
            return 0;
        } }
        class Node { Node next; }",
    )
    .expect("writes");
    let trace = dir.join("list.aptr");
    let out = algoprof(&[
        "record",
        src.to_str().unwrap(),
        "-o",
        trace.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    // Plain text: names resolved, one line per event.
    let out = algoprof(&["events", trace.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("object_alloc obj@0 : Node"), "stdout: {text}");
    assert!(text.contains("loop_entry Main.main:loop"), "stdout: {text}");
    assert!(
        text.contains("field_write obj@0.Node.next"),
        "stdout: {text}"
    );

    // JSON lines.
    let out = algoprof(&["events", trace.to_str().unwrap(), "--json"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let json = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(json.lines().count() > 0);
    for line in json.lines() {
        assert!(
            line.starts_with("{\"thread\": 0, \"event\": \""),
            "line: {line}"
        );
        assert!(line.ends_with('}'), "line: {line}");
    }

    // --limit caps the output line count.
    let out = algoprof(&["events", trace.to_str().unwrap(), "--limit", "2"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert_eq!(String::from_utf8_lossy(&out.stdout).lines().count(), 2);

    // This guest never spawns: every text line is on the main thread,
    // so --thread 0 is the whole dump and --thread 1 is empty.
    let all = algoprof(&["events", trace.to_str().unwrap()]);
    let t0 = algoprof(&["events", trace.to_str().unwrap(), "--thread", "0"]);
    assert!(t0.status.success(), "stderr: {}", stderr(&t0));
    assert_eq!(t0.stdout, all.stdout);
    let t1 = algoprof(&["events", trace.to_str().unwrap(), "--thread", "1"]);
    assert!(t1.status.success(), "stderr: {}", stderr(&t1));
    assert!(t1.stdout.is_empty());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn events_thread_column_and_filter_on_a_threaded_recording() {
    let dir = std::env::temp_dir().join(format!(
        "algoprof-cli-events-threaded-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let src = dir.join("spawny.jay");
    std::fs::write(
        &src,
        "class Main { static int main() {
            int t1 = spawn work(3);
            int t2 = spawn work(5);
            return join t1 + join t2;
        }
        static int work(int n) {
            int s = 0;
            for (int i = 0; i < n; i = i + 1) { s = s + i; }
            return s;
        } }",
    )
    .expect("writes");
    let trace = dir.join("spawny.aptr");
    let out = algoprof(&[
        "record",
        src.to_str().unwrap(),
        "-o",
        trace.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    let out = algoprof(&["events", trace.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("thread_spawn t1"), "stdout: {text}");
    for t in ["t0 ", "t1 ", "t2 "] {
        assert!(
            text.lines().any(|l| l.starts_with(t)),
            "no {t} lines in: {text}"
        );
    }

    // --thread keeps exactly the matching column's lines (t2 is
    // accepted in the column's own spelling too).
    let out = algoprof(&["events", trace.to_str().unwrap(), "--thread", "t2"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let t2 = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(!t2.is_empty());
    assert!(t2.lines().all(|l| l.starts_with("t2 ")), "stdout: {t2}");
    let expected: Vec<&str> = text.lines().filter(|l| l.starts_with("t2 ")).collect();
    assert_eq!(t2.lines().collect::<Vec<_>>(), expected);

    // JSON filtering keys on the same delivery thread.
    let out = algoprof(&["events", trace.to_str().unwrap(), "--json", "--thread", "1"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let json = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(!json.is_empty());
    for line in json.lines() {
        assert!(
            line.starts_with("{\"thread\": 1, \"event\": \""),
            "line: {line}"
        );
    }

    // Malformed --thread values are usage errors (exit 2).
    assert_usage_error(
        &["events", trace.to_str().unwrap(), "--thread", "banana"],
        "invalid thread id",
    );
    assert_usage_error(
        &["events", trace.to_str().unwrap(), "--thread", "-1"],
        "invalid thread id",
    );
    assert_usage_error(
        &["events", trace.to_str().unwrap(), "--thread"],
        "--thread requires a value",
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lint_and_disasm_usage_errors() {
    assert_usage_error(&["lint"], "at least one program file");
    assert_usage_error(&["lint", "a.jay", "--frobnicate"], "--frobnicate");
    assert_usage_error(&["disasm"], "exactly one program file");
    assert_usage_error(&["disasm", "a.jay", "--frobnicate"], "--frobnicate");
    assert_run_error(&["lint", "/no/such/file.jay"], "cannot read");
    assert_run_error(&["disasm", "/no/such/file.jay"], "cannot read");
    assert_usage_error(&["costfn"], "exactly one program file");
    assert_usage_error(&["costfn", "a.jay", "--frobnicate"], "--frobnicate");
    assert_run_error(&["costfn", "/no/such/file.jay"], "cannot read");
}

#[test]
fn lint_exit_codes_track_diagnostic_levels() {
    let dir = std::env::temp_dir().join(format!("algoprof-cli-lint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    // Error-level defect (frozen loop): plain lint fails.
    let hang = dir.join("hang.jay");
    std::fs::write(
        &hang,
        "class Main { static int main() {
            int i = 0;
            int s = 0;
            while (i < 10) { s = s + 1; }
            return s;
        } }",
    )
    .expect("writes");
    let out = algoprof(&["lint", hang.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("error[AP001]"), "stdout: {text}");
    assert!(stderr(&out).contains("lint failed"), "{}", stderr(&out));

    // Warning-level defect (write-only local): plain lint passes,
    // --strict fails.
    let sloppy = dir.join("sloppy.jay");
    std::fs::write(
        &sloppy,
        "class Main { static int main() {
            int unused = 40 + 2;
            return 0;
        } }",
    )
    .expect("writes");
    let out = algoprof(&["lint", sloppy.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("warning[AP004]"), "stdout: {text}");
    let out = algoprof(&["lint", sloppy.to_str().unwrap(), "--strict"]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));

    // Clean program: exit 0, predictions printed.
    let clean = dir.join("clean.jay");
    std::fs::write(
        &clean,
        "class Main { static int main() {
            int s = 0;
            for (int i = 0; i < 8; i = i + 1) { s = s + i; }
            return s;
        } }",
    )
    .expect("writes");
    let out = algoprof(&["lint", clean.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("no findings"), "stdout: {text}");
    assert!(text.contains("predicted complexity"), "stdout: {text}");

    // --json: machine-readable diagnostics and predictions.
    let out = algoprof(&["lint", hang.to_str().unwrap(), "--json"]);
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(json.contains("\"code\": \"AP001\""), "stdout: {json}");
    assert!(json.contains("\"level\": \"error\""), "stdout: {json}");

    // Multiple files: both reports print, the worst status wins, and
    // every failing file is named.
    let out = algoprof(&["lint", clean.to_str().unwrap(), hang.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("no findings"), "stdout: {text}");
    assert!(text.contains("error[AP001]"), "stdout: {text}");
    assert!(stderr(&out).contains("hang.jay"), "{}", stderr(&out));
    let out = algoprof(&["lint", clean.to_str().unwrap(), sloppy.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn costfn_reports_symbolic_costs_and_features() {
    let dir = std::env::temp_dir().join(format!("algoprof-cli-costfn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let prog = dir.join("sort.jay");
    std::fs::write(
        &prog,
        "class Main {
            static int main() {
                int n = readInput();
                int[] a = new int[n];
                for (int i = 0; i < a.length; i = i + 1) { a[i] = a.length - i; }
                for (int i = 1; i < a.length; i = i + 1) {
                    int key = a[i];
                    int j = i;
                    while (j > 0 && a[j - 1] > key) {
                        a[j] = a[j - 1];
                        j = j - 1;
                    }
                    a[j] = key;
                }
                return 0;
            }
        }",
    )
    .expect("writes");

    let out = algoprof(&["costfn", prog.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("cost functions"), "stdout: {text}");
    assert!(text.contains("0.5*n^2"), "stdout: {text}");
    assert!(text.contains("derivation:"), "stdout: {text}");
    assert!(text.contains("array-access:"), "stdout: {text}");

    let out = algoprof(&["costfn", prog.to_str().unwrap(), "--json"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let json = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(json.contains("\"repetitions\""), "stdout: {json}");
    assert!(json.contains("\"coeff\": 0.5"), "stdout: {json}");
    assert!(json.contains("\"array-access\""), "stdout: {json}");
    assert_eq!(json.matches('{').count(), json.matches('}').count());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn opstats_usage_and_run_errors() {
    assert_usage_error(&["opstats"], "at least one program file");
    assert_usage_error(&["opstats", "a.jay", "--frobnicate"], "--frobnicate");
    assert_usage_error(&["opstats", "a.jay", "--top"], "--top requires a value");
    assert_usage_error(&["opstats", "a.jay", "--top", "many"], "--top expects");
    assert_usage_error(&["opstats", "a.jay", "--input", "1,x"], "invalid value");
    assert_run_error(&["opstats", "/no/such/file.jay"], "cannot read");
}

#[test]
fn opstats_reports_frequencies_and_pairs() {
    let dir = std::env::temp_dir().join(format!("algoprof-cli-opstats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let prog = dir.join("loop.jay");
    std::fs::write(
        &prog,
        "class Main { static int main() {
            int n = readInput();
            int s = 0;
            for (int i = 0; i < n; i = i + 1) { s = s + i; }
            return s;
        } }",
    )
    .expect("writes");
    let path = prog.to_str().unwrap();

    let out = algoprof(&["opstats", path, "--input", "25"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("instructions:"), "stdout: {text}");
    assert!(text.contains("top opcodes:"), "stdout: {text}");
    assert!(text.contains("top pairs:"), "stdout: {text}");
    assert!(text.contains("load"), "stdout: {text}");

    let json = algoprof(&["opstats", path, "--input", "25", "--json", "--top", "4"]);
    assert!(json.status.success(), "stderr: {}", stderr(&json));
    let jtext = String::from_utf8_lossy(&json.stdout).into_owned();
    assert!(jtext.contains("\"instructions\""), "stdout: {jtext}");
    assert!(jtext.contains("\"pairs\""), "stdout: {jtext}");

    // The report counts the logical opcode stream, which fusion does not
    // change: byte-identical with the peephole pass disabled.
    let unfused = Command::new(env!("CARGO_BIN_EXE_algoprof"))
        .args(["opstats", path, "--input", "25"])
        .env("ALGOPROF_NO_FUSE", "1")
        .output()
        .expect("spawns the algoprof binary");
    assert!(unfused.status.success(), "stderr: {}", stderr(&unfused));
    assert_eq!(
        out.stdout, unfused.stdout,
        "opstats must be fusion-invariant"
    );

    // Aggregating a program with itself doubles the instruction count.
    let twice = algoprof(&["opstats", path, path, "--input", "25"]);
    assert!(twice.status.success(), "stderr: {}", stderr(&twice));
    let count_of = |s: &[u8]| -> u64 {
        String::from_utf8_lossy(s)
            .lines()
            .find_map(|l| l.strip_prefix("instructions: ").map(|n| n.parse().unwrap()))
            .expect("instructions line")
    };
    assert_eq!(count_of(&twice.stdout), 2 * count_of(&out.stdout));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn disasm_fused_shows_superinstructions() {
    let dir = std::env::temp_dir().join(format!("algoprof-cli-fused-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let prog = dir.join("loop.jay");
    std::fs::write(
        &prog,
        "class Main { static int main() {
            int s = 0;
            for (int i = 0; i < 10; i = i + 1) { s = s + i; }
            return s;
        } }",
    )
    .expect("writes");
    let path = prog.to_str().unwrap();

    let plain = algoprof(&["disasm", path]);
    assert!(plain.status.success(), "stderr: {}", stderr(&plain));
    let plain_text = String::from_utf8_lossy(&plain.stdout).into_owned();
    assert!(
        !plain_text.contains("inc_local") && !plain_text.contains("inc_jump"),
        "stdout: {plain_text}"
    );

    let fused = algoprof(&["disasm", path, "--fused"]);
    assert!(fused.status.success(), "stderr: {}", stderr(&fused));
    let fused_text = String::from_utf8_lossy(&fused.stdout).into_owned();
    assert!(
        fused_text.contains("inc_local") || fused_text.contains("inc_jump"),
        "fused disasm should show the loop-increment superinstruction: {fused_text}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn disasm_cfg_matches_golden_dot() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_cfg.jay");
    let out = algoprof(&["disasm", fixture.to_str().unwrap(), "--cfg"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let dot = String::from_utf8_lossy(&out.stdout).into_owned();
    let golden = include_str!("fixtures/golden_cfg.dot");
    assert_eq!(
        dot, golden,
        "disasm --cfg drifted from tests/fixtures/golden_cfg.dot; \
         regenerate it if the change is intended"
    );

    // Plain disasm on the same fixture is linear bytecode, not DOT.
    let out = algoprof(&["disasm", fixture.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(!text.contains("digraph"), "stdout: {text}");
    assert!(text.contains("prof_loop_entry"), "stdout: {text}");
}

/// `disasm --fused` of `program` (relative to this crate) must equal the
/// fixture `golden` (under tests/fixtures) byte for byte.
fn assert_disasm_fused_golden(program: &str, golden: &str, expected: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(program);
    let out = algoprof(&["disasm", path.to_str().unwrap(), "--fused"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(
        text, expected,
        "disasm --fused of {program} drifted from tests/fixtures/{golden}; \
         regenerate it if the change is intended"
    );
}

#[test]
fn disasm_fused_matches_golden() {
    // One line per dispatched instruction: a superinstruction prints its
    // mnemonic, then its constituents.
    assert_disasm_fused_golden(
        "tests/fixtures/golden_cfg.jay",
        "golden_fused.txt",
        include_str!("fixtures/golden_fused.txt"),
    );
}

#[test]
fn disasm_fused_array_sort_matches_golden() {
    // The array insertion sort's inner loop: both `a[j - 1]` reads are
    // `load2_off_aload` and the `j = j - 1` latch is a subtracting
    // `inc_jump`, 12 dispatches per iteration.
    assert_disasm_fused_golden(
        "../../examples/sized_insertion_sort_array.jay",
        "golden_fused_array_sort.txt",
        include_str!("fixtures/golden_fused_array_sort.txt"),
    );
}

#[test]
fn sweep_smoke_produces_report_files() {
    let dir = std::env::temp_dir().join(format!("algoprof-cli-ok-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let src = dir.join("loop.jay");
    std::fs::write(
        &src,
        "class Main { static int main() {
            int size = readInput();
            Node head = null;
            for (int i = 0; i < size; i = i + 1) {
                Node n = new Node();
                n.next = head;
                head = n;
            }
            return 0;
        } }
        class Node { Node next; }",
    )
    .expect("writes");
    let json = dir.join("sweep.json");
    let html = dir.join("sweep.html");
    let out = algoprof(&[
        "sweep",
        src.to_str().unwrap(),
        "--sizes",
        "4,8,16,32",
        "-j",
        "2",
        "--quiet",
        "--json",
        json.to_str().unwrap(),
        "--html",
        html.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("sweep report"), "stdout: {text}");
    assert!(text.contains("best fit"), "stdout: {text}");
    assert!(Path::new(&json).exists() && Path::new(&html).exists());
    let json_text = std::fs::read_to_string(&json).expect("reads json");
    assert!(json_text.contains("\"sizes\": [4, 8, 16, 32]"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_and_submit_usage_errors() {
    // Malformed listen/connect addresses (bad port, not HOST:PORT).
    assert_usage_error(&["serve", "--addr", "127.0.0.1:99999"], "invalid address");
    assert_usage_error(&["serve", "--addr", "nonsense"], "invalid address");
    assert_usage_error(&["serve", "--addr"], "--addr requires a value");
    assert_usage_error(&["serve", "--workers", "x"], "invalid worker count");
    assert_usage_error(&["serve", "--queue", "0"], "invalid queue capacity");
    assert_usage_error(&["serve", "--frobnicate"], "--frobnicate");
    assert_usage_error(
        &["serve", "--addr", "127.0.0.1:0", "--socket", "/tmp/s.sock"],
        "mutually exclusive",
    );

    // submit invocation mistakes.
    assert_usage_error(&["submit"], "missing job kind");
    assert_usage_error(&["submit", "--wait"], "--wait requires a job");
    assert_usage_error(&["submit", "frobnicate"], "unknown job kind");
    assert_usage_error(&["submit", "--frobnicate", "sweep"], "--frobnicate");
    assert_usage_error(
        &[
            "submit",
            "--addr",
            "1.2.3.4:1",
            "--socket",
            "/tmp/s",
            "sweep",
        ],
        "mutually exclusive",
    );
    assert_usage_error(
        &["submit", "--addr", "1.2.3.4:99999", "sweep"],
        "invalid address",
    );
    assert_usage_error(
        &["submit", "cache-stats", "--wait"],
        "--wait requires a job",
    );
    assert_usage_error(&["submit", "shutdown", "--wait"], "--wait requires a job");
    assert_usage_error(&["submit", "cache-stats", "extra"], "unexpected argument");
    assert_usage_error(&["submit", "sweep", "p.jay"], "--sizes");
    assert_usage_error(
        &[
            "submit", "sweep", "p.jay", "--sizes", "4", "--json", "r.json",
        ],
        "--json requires --wait",
    );
    assert_usage_error(
        &["submit", "sweep", "--sizes", "4"],
        "exactly one program file",
    );
    assert_usage_error(
        &["submit", "profile", "p.jay", "--csv", "out.csv"],
        "not valid for submit",
    );
    assert_usage_error(
        &["submit", "analyze", "t.aptr", "--input", "3"],
        "--input is not valid for analyze",
    );

    // Nothing listens on this port: connecting is a run error, not a panic.
    assert_run_error(
        &["submit", "--addr", "127.0.0.1:1", "cache-stats"],
        "cannot connect",
    );
}

#[test]
fn analyze_reads_a_trace_from_stdin() {
    use std::io::Write as _;
    use std::process::Stdio;

    let dir = std::env::temp_dir().join(format!("algoprof-cli-stdin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let src = dir.join("loop.jay");
    std::fs::write(
        &src,
        "class Main { static int main() {
            int size = readInput();
            int acc = 0;
            for (int i = 0; i < size; i = i + 1) { acc = acc + i; }
            return acc;
        } }",
    )
    .expect("writes");
    let trace = dir.join("loop.aptr");
    let rec = algoprof(&[
        "record",
        src.to_str().unwrap(),
        "--input",
        "24",
        "-o",
        trace.to_str().unwrap(),
    ]);
    assert!(rec.status.success(), "record stderr: {}", stderr(&rec));

    let from_file = algoprof(&["analyze", trace.to_str().unwrap()]);
    assert!(
        from_file.status.success(),
        "analyze stderr: {}",
        stderr(&from_file)
    );

    let mut child = Command::new(env!("CARGO_BIN_EXE_algoprof"))
        .args(["analyze", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns analyze -");
    let bytes = std::fs::read(&trace).expect("reads trace");
    child
        .stdin
        .take()
        .expect("stdin handle")
        .write_all(&bytes)
        .expect("pipes trace");
    let from_stdin = child.wait_with_output().expect("analyze - finishes");
    assert!(
        from_stdin.status.success(),
        "analyze - stderr: {}",
        stderr(&from_stdin)
    );

    // The incremental (stdin) and batch (file) paths must agree byte
    // for byte.
    assert_eq!(
        String::from_utf8_lossy(&from_stdin.stdout),
        String::from_utf8_lossy(&from_file.stdout)
    );

    // `--check` still works without a file path: the guest source rides
    // in the trace header.
    let mut child = Command::new(env!("CARGO_BIN_EXE_algoprof"))
        .args(["analyze", "-", "--check"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns analyze - --check");
    child
        .stdin
        .take()
        .expect("stdin handle")
        .write_all(&bytes)
        .expect("pipes trace");
    let checked = child
        .wait_with_output()
        .expect("analyze - --check finishes");
    assert!(
        checked.status.success(),
        "analyze - --check stderr: {}",
        stderr(&checked)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn threaded_event_stream_is_fusion_invariant() {
    // Superinstruction fusion rewrites the dispatch loop, not the
    // logical event stream: a threaded recording (spawn/join/lock with
    // deterministic scheduling) must be byte-identical with the
    // peephole pass disabled, and so must everything derived from it.
    let dir = std::env::temp_dir().join(format!("algoprof-cli-nofuse-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let src = dir.join("contended.jay");
    std::fs::write(
        &src,
        "class Main {
            static int main() {
                int n = readInput();
                Counter c = new Counter();
                int t1 = spawn bump(c, n);
                int t2 = spawn bump(c, n + 2);
                return join t1 + join t2 + c.value;
            }
            static int bump(Counter c, int n) {
                for (int i = 0; i < n; i = i + 1) {
                    lock c;
                    c.value = c.value + 1;
                    unlock c;
                }
                return n;
            }
        }
        class Counter { int value; }",
    )
    .expect("writes");
    let path = src.to_str().unwrap();

    let fused_trace = dir.join("fused.aptr");
    let unfused_trace = dir.join("unfused.aptr");
    let record = |trace: &std::path::Path, no_fuse: bool| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_algoprof"));
        cmd.args([
            "record",
            path,
            "--input",
            "6",
            "-o",
            trace.to_str().unwrap(),
        ]);
        if no_fuse {
            cmd.env("ALGOPROF_NO_FUSE", "1");
        }
        let out = cmd.output().expect("spawns the algoprof binary");
        assert!(out.status.success(), "stderr: {}", stderr(&out));
    };
    record(&fused_trace, false);
    record(&unfused_trace, true);
    let fused = std::fs::read(&fused_trace).expect("fused trace");
    let unfused = std::fs::read(&unfused_trace).expect("unfused trace");
    assert_eq!(fused, unfused, "trace bytes must be fusion-invariant");

    // The decoded event stream (with thread attribution) agrees too,
    // and carries all three threads.
    let events = algoprof(&["events", fused_trace.to_str().unwrap()]);
    assert!(events.status.success(), "stderr: {}", stderr(&events));
    let text = String::from_utf8_lossy(&events.stdout).into_owned();
    for t in ["t0 ", "t1 ", "t2 "] {
        assert!(
            text.lines().any(|l| l.starts_with(t)),
            "no {t} lines in: {text}"
        );
    }
    let events_unfused = algoprof(&["events", unfused_trace.to_str().unwrap()]);
    assert_eq!(events.stdout, events_unfused.stdout);

    // Live per-thread profiles are fusion-invariant as well.
    let live = |no_fuse: bool| -> Vec<u8> {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_algoprof"));
        cmd.args([path, "--input", "6"]);
        if no_fuse {
            cmd.env("ALGOPROF_NO_FUSE", "1");
        }
        let out = cmd.output().expect("spawns the algoprof binary");
        assert!(out.status.success(), "stderr: {}", stderr(&out));
        out.stdout
    };
    let report = live(false);
    assert_eq!(report, live(true), "profile text must be fusion-invariant");
    let report = String::from_utf8_lossy(&report).into_owned();
    assert!(report.contains("=== t1 ==="), "stdout: {report}");
    assert!(
        report.contains("=== merged (all threads) ==="),
        "stdout: {report}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

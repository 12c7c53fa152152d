//! `algoprof` — command-line algorithmic profiler for jay programs.
//!
//! ```text
//! algoprof [OPTIONS] <program.jay>          profile a program live
//! algoprof record <program.jay> -o <trace>  execute once, save the event trace
//! algoprof analyze <trace|-> [OPTIONS]      profile a recording (no re-execution);
//!                                           `-` streams the trace from stdin
//! algoprof events <trace> [--json] [--limit N] [--thread N]   dump a recording's events
//! algoprof sweep <program.jay> --sizes n,.. profile a whole input-size sweep
//! algoprof lint <program.jay>... [--json] [--strict]   static analysis + lints
//! algoprof costfn <program.jay> [--json]    symbolic cost functions + feature attribution
//! algoprof opstats <program.jay>... [--json] [--top N]   opcode frequency/pair stats
//! algoprof disasm <program.jay> [--cfg] [--fused]   disassemble (CFG / post-fusion)
//! algoprof serve [--addr H:P|--socket PATH] run the persistent profiling daemon
//! algoprof submit ... <kind> ... [--wait]   send a job to a running daemon
//!
//! OPTIONS:
//!   --criterion <some|all|array|type>   snapshot equivalence criterion
//!   --sizing <capacity|unique>          array sizing strategy
//!   --snapshots <firstlast|every>       snapshot policy
//!   --grouping <input|indexflow|method> algorithm grouping strategy
//!   --input <v1,v2,...>                 values for readInput() (live/record only)
//!   --csv <root-name-needle>            print the steps CSV for one algorithm
//!   --html <file.html>                  write a self-contained HTML report
//!   --check                             cross-validate static predictions
//!                                       against the dynamic fits
//!
//! SWEEP OPTIONS (in addition to --sizing/--snapshots/--grouping/--html):
//!   --sizes <n1,n2,...>                 input sizes to sweep (required)
//!   -j, --jobs <N>                      worker threads (default: all cores)
//!   --criteria <some,all,array,type>    analyze each run under several
//!                                       equivalence-criterion ablations
//!   --json <file.json>                  write the machine-readable report
//!   --quiet                             suppress progress lines on stderr
//! ```
//!
//! `record` + repeated `analyze` decouple execution from analysis: one
//! guest run supports any number of option ablations, and `events`
//! renders the raw recording for inspection. `sweep` goes one better: it
//! executes the program once per size on a worker pool with every
//! ablation fanned out over the same live event stream, and merges the
//! results into one deterministic report (byte-identical for every `-j`).
//!
//! Each job-shaped subcommand (live, `analyze`, `sweep`) parses its flags
//! once into a `JobSpec` and calls `JobSpec::run`, as a `serve` daemon
//! worker does (`analyze -` streams stdin into the same analysis); only
//! the rendering (`--csv`, `--html`, `--check`, `--json`) is local.
//! `submit` sends the same spec to the daemon, so a round-trip is
//! byte-identical to the one-shot CLI (see `docs/SERVE.md`).
//!
//! Every failure — unknown flag, missing argument, unreadable path,
//! guest or trace error — exits non-zero with a one-line message on
//! stderr; usage mistakes add a usage hint and exit 2.

use std::io::{Read, Write};
use std::process::ExitCode;

use algoprof::{
    AlgoProfOptions, CostMetric, Guest, JobError, JobResult, JobSpec, ProfileError, RunConfig,
    StreamingAnalysis, StreamingReport, SweepAblation,
};
use algoprof_serve::api::{OptionTable, CRITERIA, GROUPINGS, SIZINGS, SNAPSHOT_POLICIES};
use algoprof_serve::{client, Server, ServerAddr, ServerConfig};
use algoprof_vm::json_str;

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes to stdout: every report, listing and status line the CLI
/// prints goes through here (see [`stdout_failed`] for a failed write).
fn write_stdout(args: std::fmt::Arguments<'_>) {
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        stdout_failed(e);
    }
}

/// Ends the process after a failed write to stdout. A reader that has
/// gone away (`BrokenPipe`, as under `algoprof ... | head -1` or
/// `| grep -q`) ends it quietly with exit code 0, as other Unix filters
/// do; any other error ends it with a one-line diagnostic and exit code 1.
fn stdout_failed(e: std::io::Error) -> ! {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    eprintln!("algoprof: cannot write to stdout: {e}");
    std::process::exit(1);
}

const USAGE: &str = "usage: algoprof [--criterion some|all|array|type] [--sizing capacity|unique] \
     [--snapshots firstlast|every] [--grouping input|indexflow|method] \
     [--input v1,v2,...] [--csv <needle>] [--html <file.html>] [--check] <program.jay>\n\
       algoprof record <program.jay> -o <trace.aptr> [--input v1,v2,...]\n\
       algoprof analyze <trace.aptr|-> [analysis options as above, plus --check]\n\
       algoprof events <trace.aptr> [--json] [--limit N] [--thread N]\n\
       algoprof sweep <program.jay> --sizes n1,n2,... [-j N] \
     [--criteria some,all,array,type] [--sizing ...] [--snapshots ...] [--grouping ...] \
     [--json <file.json>] [--html <file.html>] [--quiet]\n\
       algoprof lint <program.jay>... [--json] [--strict]\n\
       algoprof costfn <program.jay> [--json]\n\
       algoprof opstats <program.jay>... [--input v1,v2,...] [--json] [--top N]\n\
       algoprof disasm <program.jay> [--cfg] [--fused]\n\
       algoprof serve [--addr HOST:PORT | --socket PATH] [--workers N] \
     [--cache-dir DIR] [--queue N]\n\
       algoprof submit [--addr HOST:PORT | --socket PATH] [--wait] profile <program.jay> \
     [analysis options]\n\
       algoprof submit ... [--wait] sweep <program.jay> --sizes n1,n2,... \
     [--criteria ...] [--sizing ...] [--snapshots ...] [--grouping ...] [--json <file.json>]\n\
       algoprof submit ... [--wait] analyze <trace.aptr|-> [analysis options]\n\
       algoprof submit ... cache-stats | shutdown";

/// Where `serve` listens and `submit` connects when neither `--addr` nor
/// `--socket` is given.
const DEFAULT_ADDR: &str = "127.0.0.1:7421";

const USAGE_HINT: &str = "run `algoprof --help` for usage";

/// Every way an invocation can fail. `Usage` is an invocation mistake
/// (unknown flag, missing argument): the message plus a usage hint go to
/// stderr and the exit code is 2. `Run` is a failure while doing the work
/// (unreadable file, guest error, corrupt trace): exit code 1.
enum CliError {
    Usage(String),
    Run(String),
}

impl From<ProfileError> for CliError {
    fn from(e: ProfileError) -> Self {
        CliError::Run(e.to_string())
    }
}

impl From<JobError> for CliError {
    fn from(e: JobError) -> Self {
        CliError::Run(e.0)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        // Asking for help is not an error: print to stdout, exit 0.
        outln!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let result = match args.first().map(String::as_str) {
        None => Err(CliError::Usage("missing subcommand or program file".into())),
        Some("record") => record_main(&args[1..]),
        Some("analyze") => analyze_main(&args[1..]),
        Some("events") => events_main(&args[1..]),
        Some("sweep") => sweep_main(&args[1..]),
        Some("lint") => lint_main(&args[1..]),
        Some("costfn") => costfn_main(&args[1..]),
        Some("opstats") => opstats_main(&args[1..]),
        Some("disasm") => disasm_main(&args[1..]),
        Some("serve") => serve_main(&args[1..]),
        Some("submit") => submit_main(&args[1..]),
        Some(_) => live_main(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("algoprof: {msg}\n{USAGE_HINT}");
            ExitCode::from(2)
        }
        Err(CliError::Run(msg)) => {
            eprintln!("algoprof: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The [`RunConfig`] one-shot commands start from: fused unless
/// `ALGOPROF_NO_FUSE=1`, the switch the fusion-on-vs-off comparison
/// sets. Reports are the same either way; a daemon always fuses.
fn run_config() -> RunConfig {
    RunConfig {
        fuse: !algoprof_vm::fuse::fusion_disabled(),
        ..RunConfig::default()
    }
}

/// Returns the value following flag `args[i]`, or a usage error naming
/// the flag. Callers advance `i` past the value themselves.
fn flag_value(args: &[String], i: usize) -> Result<&str, CliError> {
    match args.get(i + 1) {
        Some(v) => Ok(v),
        None => Err(CliError::Usage(format!("{} requires a value", args[i]))),
    }
}

/// Looks `name` up in one of the wire protocol's option tables; an
/// unknown name is a usage error listing the table's names.
fn parse_named<T: Copy + PartialEq>(table: &OptionTable<T>, name: &str) -> Result<T, CliError> {
    table.parse(name).ok_or_else(|| {
        let names: Vec<&str> = table.names.iter().map(|&(n, _)| n).collect();
        CliError::Usage(format!(
            "unknown {} {name:?} (expected {})",
            table.what,
            names.join("|")
        ))
    })
}

/// Sets the profiler option `flag` names to `value`.
fn set_option(opts: &mut AlgoProfOptions, flag: &str, value: &str) -> Result<(), CliError> {
    match flag {
        "--criterion" => opts.criterion = parse_named(&CRITERIA, value)?,
        "--sizing" => opts.array_strategy = parse_named(&SIZINGS, value)?,
        "--grouping" => opts.grouping = parse_named(&GROUPINGS, value)?,
        "--snapshots" => opts.snapshot_policy = parse_named(&SNAPSHOT_POLICIES, value)?,
        other => unreachable!("{other} is not a profiler option flag"),
    }
    Ok(())
}

/// Parses a comma-separated integer list for `flag`.
fn parse_int_list<T: std::str::FromStr>(flag: &str, list: &str) -> Result<Vec<T>, CliError> {
    let mut out = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        match part.trim().parse() {
            Ok(v) => out.push(v),
            Err(_) => {
                return Err(CliError::Usage(format!(
                    "invalid value {part:?} in {flag} list"
                )))
            }
        }
    }
    Ok(out)
}

/// Reads a file, reporting failures through [`ProfileError::io`] so path
/// and OS error reach the user.
fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| ProfileError::io("read", path, &e).into())
}

fn read_trace(path: &str) -> Result<Vec<u8>, CliError> {
    std::fs::read(path).map_err(|e| ProfileError::io("read", path, &e).into())
}

fn write_file(path: &str, bytes: &[u8]) -> Result<(), CliError> {
    std::fs::write(path, bytes).map_err(|e| ProfileError::io("write", path, &e).into())
}

/// `submit` sends a job, not a rendering: it rejects the flags that only
/// shape a local run.
fn reject_local(given: bool, flags: &str) -> Result<(), CliError> {
    if given {
        return Err(CliError::Usage(format!(
            "{flags} are not valid for submit (render locally instead)"
        )));
    }
    Ok(())
}

/// Options of a profile or analyze job (live, `analyze` and their
/// `submit` forms), plus the flags that render its result locally.
#[derive(Default)]
struct AnalysisArgs {
    opts: AlgoProfOptions,
    input: Vec<i64>,
    csv: Option<String>,
    html: Option<String>,
    check: bool,
    positional: Vec<String>,
}

impl AnalysisArgs {
    /// The one positional argument, a `what` ("program file" or "trace
    /// file").
    fn path(&self, what: &str) -> Result<&str, CliError> {
        match self.positional.as_slice() {
            [path] => Ok(path),
            _ => Err(CliError::Usage(format!("expected exactly one {what}"))),
        }
    }

    fn reject_local(&self) -> Result<(), CliError> {
        reject_local(
            self.csv.is_some() || self.html.is_some() || self.check,
            "--csv/--html/--check",
        )
    }

    /// The profile job of `algoprof <prog>` and `submit profile`.
    fn profile_job(&self) -> Result<JobSpec, CliError> {
        let path = self.path("program file")?;
        Ok(JobSpec::Profile {
            program: path.to_owned(),
            source: read_file(path)?,
            input: self.input.clone(),
            options: self.opts,
        })
    }

    /// Renders a profile or analyze job's result per the `--csv`/`--html`
    /// selection. Single-threaded sets keep the exact pre-thread output;
    /// threaded sets get per-thread sections plus the merged view
    /// (text/HTML) or the cross-thread merged series (CSV). `--check` then
    /// cross-validates the static predictions for `source()` against the
    /// main thread's dynamic fits and prints the verdicts (informational —
    /// disagreement does not change the exit code; use `lint` for gating).
    fn emit(
        &self,
        result: JobResult,
        source: impl FnOnce() -> Result<String, ProfileError>,
    ) -> Result<(), CliError> {
        let JobResult::Profiles(set) = result else {
            unreachable!("profile and analyze jobs yield profiles");
        };
        if let Some(html_path) = &self.html {
            write_file(html_path, algoprof::render_html_set(&set).as_bytes())?;
            outln!("wrote {html_path}");
        } else if let Some(needle) = &self.csv {
            // Resolve the substring needle against any thread, then merge
            // that algorithm's points across all of them. A one-thread
            // set emits its profile's series verbatim (unsorted).
            let Some((p, algo)) = set
                .threads()
                .iter()
                .find_map(|p| p.algorithm_by_root_name(needle).map(|a| (p, a)))
            else {
                return Err(CliError::Run(format!(
                    "no algorithm whose root matches {needle:?}"
                )));
            };
            outln!("size,steps");
            let series = if set.is_threaded() {
                set.merged_series(p.node_name(algo.root), CostMetric::Steps)
            } else {
                p.invocation_series(algo.id, CostMetric::Steps)
            };
            for (s, c) in series {
                outln!("{s},{c}");
            }
        } else {
            out!("{}", algoprof::render_set(&set));
        }
        if self.check {
            let checks = algoprof::cross_validate(set.main(), &source()?)
                .map_err(|e| CliError::Run(e.to_string()))?;
            out!("{}", algoprof::render_cross_checks(&checks));
        }
        Ok(())
    }
}

/// Parses live/`analyze` arguments. Every value-taking flag rejects a
/// missing value and every unknown flag is an error.
fn parse_args(args: &[String]) -> Result<AnalysisArgs, CliError> {
    let mut out = AnalysisArgs::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            flag @ ("--criterion" | "--sizing" | "--grouping" | "--snapshots") => {
                set_option(&mut out.opts, flag, flag_value(args, i)?)?;
                i += 1;
            }
            "--input" => {
                out.input = parse_int_list("--input", flag_value(args, i)?)?;
                i += 1;
            }
            "--csv" => {
                out.csv = Some(flag_value(args, i)?.to_owned());
                i += 1;
            }
            "--html" => {
                out.html = Some(flag_value(args, i)?.to_owned());
                i += 1;
            }
            "--check" => out.check = true,
            // Bare "-" is the stdin pseudo-path (`analyze -`), not a flag.
            other if other != "-" && other.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown option {other:?}")));
            }
            other => out.positional.push(other.to_owned()),
        }
        i += 1;
    }
    Ok(out)
}

/// The classic mode: compile, execute, and profile in one go.
fn live_main(args: &[String]) -> Result<(), CliError> {
    let parsed = parse_args(args)?;
    let spec = parsed.profile_job()?;
    parsed.emit(spec.run(1, false, run_config().fuse)?, || spec.source())
}

/// `algoprof record <prog.jay> -o <trace>`: execute once, save the trace.
fn record_main(args: &[String]) -> Result<(), CliError> {
    let mut path: Option<String> = None;
    let mut out: Option<String> = None;
    let mut input: Vec<i64> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-o" | "--output" => {
                out = Some(flag_value(args, i)?.to_owned());
                i += 1;
            }
            "--input" => {
                input = parse_int_list("--input", flag_value(args, i)?)?;
                i += 1;
            }
            other if other.starts_with('-') => {
                return Err(CliError::Usage(format!(
                    "unknown option {other:?} for record"
                )));
            }
            other => {
                if path.is_some() {
                    return Err(CliError::Usage(format!("unexpected argument {other:?}")));
                }
                path = Some(other.to_owned());
            }
        }
        i += 1;
    }
    let (Some(path), Some(out)) = (path, out) else {
        return Err(CliError::Usage(
            "record needs a program file and -o <trace.aptr>".into(),
        ));
    };
    let source = read_file(&path)?;
    // Fused or not, the recording is the same.
    let trace = algoprof::record_source_with(&source, &Default::default(), &input)?;
    write_file(&out, &trace)?;
    outln!("wrote {out} ({} bytes)", trace.len());
    Ok(())
}

/// Parses `analyze` / `submit analyze` arguments: a recording carries
/// its own inputs.
fn parse_analyze_args(args: &[String]) -> Result<AnalysisArgs, CliError> {
    let parsed = parse_args(args)?;
    if !parsed.input.is_empty() {
        return Err(CliError::Usage(
            "--input is not valid for analyze: inputs are embedded in the trace".into(),
        ));
    }
    Ok(parsed)
}

/// `algoprof analyze <trace|->`: profile a recording without
/// re-executing. `-` streams the trace from stdin through the same
/// [`StreamingAnalysis`] an analyze job runs, so analysis overlaps the
/// pipe — and produces the same bytes as a file.
fn analyze_main(args: &[String]) -> Result<(), CliError> {
    let parsed = parse_analyze_args(args)?;
    let path = parsed.path("trace file")?;
    if path == "-" {
        let report = analyze_stdin(parsed.opts)?;
        return parsed.emit(JobResult::Profiles(report.profiles), || Ok(report.source));
    }
    let spec = JobSpec::Analyze {
        trace: read_trace(path)?,
        options: parsed.opts,
    };
    parsed.emit(spec.run(1, false, run_config().fuse)?, || spec.source())
}

/// Streams stdin into a [`StreamingAnalysis`] chunk by chunk.
fn analyze_stdin(opts: AlgoProfOptions) -> Result<StreamingReport, CliError> {
    let mut analysis = StreamingAnalysis::new(opts);
    let mut stdin = std::io::stdin().lock();
    let mut buf = [0u8; 64 * 1024];
    loop {
        let n = stdin
            .read(&mut buf)
            .map_err(|e| CliError::Run(format!("cannot read stdin: {e}")))?;
        if n == 0 {
            break;
        }
        analysis.feed(&buf[..n])?;
    }
    Ok(analysis.finish()?)
}

/// `algoprof events <trace.aptr>`: decode a recording into one line per
/// event, human-readable by default or JSON lines with `--json`. Every
/// line carries its delivery thread (`tN` column / `"thread"` key);
/// `--thread N` keeps only one thread's lines. `--limit N` caps the
/// printed lines; the replay still validates the whole stream either
/// way.
fn events_main(args: &[String]) -> Result<(), CliError> {
    let mut json = false;
    let mut limit: Option<u64> = None;
    let mut thread: Option<u32> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--limit" => {
                let v = flag_value(args, i)?;
                limit = Some(v.parse().map_err(|_| {
                    CliError::Usage(format!("invalid event limit {v:?} for --limit"))
                })?);
                i += 1;
            }
            "--thread" => {
                let v = flag_value(args, i)?;
                // Accept both `1` and the dump column's own `t1` form.
                let digits = v.strip_prefix('t').unwrap_or(v);
                thread = Some(digits.parse().map_err(|_| {
                    CliError::Usage(format!("invalid thread id {v:?} for --thread"))
                })?);
                i += 1;
            }
            other if other.starts_with('-') => {
                return Err(CliError::Usage(format!(
                    "unknown option {other:?} for events"
                )));
            }
            other => positional.push(other.to_owned()),
        }
        i += 1;
    }
    let [path] = positional.as_slice() else {
        return Err(CliError::Usage(
            "events expects exactly one trace file".into(),
        ));
    };
    let trace = read_trace(path)?;
    let stdout = std::io::stdout().lock();
    let mut sink = algoprof_trace::DumpSink::new(std::io::BufWriter::new(stdout), json, limit);
    if let Some(id) = thread {
        sink = sink.with_thread_filter(id);
    }
    // The same replay as `analyze`: ids resolve to names against the
    // recompiled embedded source.
    algoprof::run(Guest::Trace(&trace), &run_config(), &mut sink)?;
    sink.finish().unwrap_or_else(|e| stdout_failed(e));
    Ok(())
}

/// `algoprof lint <prog.jay>...`: static complexity analysis + lint
/// catalog over one or more files, reported per file in argument order.
/// Exits 1 when any file has an error-level diagnostic (`--strict`
/// promotes warnings to the same fate) or cannot be read or compiled;
/// every file is still processed so one bad file does not hide the
/// others' findings.
fn lint_main(args: &[String]) -> Result<(), CliError> {
    let mut json = false;
    let mut strict = false;
    let mut positional: Vec<String> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            "--strict" => strict = true,
            other if other.starts_with('-') => {
                return Err(CliError::Usage(format!(
                    "unknown option {other:?} for lint"
                )));
            }
            other => positional.push(other.to_owned()),
        }
    }
    if positional.is_empty() {
        return Err(CliError::Usage(
            "lint expects at least one program file".into(),
        ));
    }
    let mut failures: Vec<String> = Vec::new();
    for path in &positional {
        let source = match read_file(path) {
            Ok(s) => s,
            Err(CliError::Run(msg) | CliError::Usage(msg)) => {
                failures.push(msg);
                continue;
            }
        };
        let analysis = match algoprof_analysis::analyze_source(&source) {
            Ok(a) => a,
            Err(e) => {
                failures.push(format!("{path}: {e}"));
                continue;
            }
        };
        if json {
            out!("{}", algoprof_analysis::render_json(&analysis, path));
        } else {
            out!("{}", algoprof_analysis::render_text(&analysis, path));
        }
        if analysis.has_errors || (strict && !analysis.diagnostics.is_empty()) {
            let errors = analysis
                .diagnostics
                .iter()
                .filter(|d| d.level == algoprof_analysis::Level::Error)
                .count();
            let warnings = analysis.diagnostics.len() - errors;
            failures.push(format!(
                "{errors} error(s), {warnings} warning(s) in {path}"
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(CliError::Run(format!(
            "lint failed: {}",
            failures.join("; ")
        )))
    }
}

/// `algoprof costfn <prog.jay> [--json]`: symbolic per-repetition cost
/// functions — the parametric side of the static analysis. For every
/// loop and recursion the profiler can report, prints the predicted
/// class, the cost polynomial with coefficients (widened to `O(class)`
/// where a recurrence was unsolvable), its derivation, and the cost
/// attributed to each language feature (virtual dispatch, field access,
/// array access, allocation).
fn costfn_main(args: &[String]) -> Result<(), CliError> {
    let mut json = false;
    let mut positional: Vec<String> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            other if other.starts_with('-') => {
                return Err(CliError::Usage(format!(
                    "unknown option {other:?} for costfn"
                )));
            }
            other => positional.push(other.to_owned()),
        }
    }
    let [path] = positional.as_slice() else {
        return Err(CliError::Usage(
            "costfn expects exactly one program file".into(),
        ));
    };
    let source = read_file(path)?;
    let (analysis, features) = algoprof_analysis::analyze_source_with_features(&source)
        .map_err(|e| CliError::Run(e.to_string()))?;
    let by_name: std::collections::HashMap<&str, &algoprof_analysis::FeatureCost> =
        features.iter().map(|f| (f.name.as_str(), f)).collect();
    if json {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"program\": {},\n  \"repetitions\": [\n",
            json_str(path)
        ));
        for (i, p) in analysis.predictions.iter().enumerate() {
            let kind = match p.kind {
                algoprof_analysis::PredictionKind::Loop => "loop",
                algoprof_analysis::PredictionKind::Recursion => "recursion",
            };
            let leading = match p.cost.leading() {
                Some(l) => format!(
                    "{{\"degree\": {}, \"log\": {}, \"coeff\": {}}}",
                    l.degree, l.log, l.coeff
                ),
                None => "null".to_owned(),
            };
            let feats = by_name
                .get(p.name.as_str())
                .map(|fc| {
                    fc.features
                        .iter()
                        .map(|(ft, c)| {
                            format!("{}: {}", json_str(ft.name()), json_str(&c.to_string()))
                        })
                        .collect::<Vec<_>>()
                        .join(", ")
                })
                .unwrap_or_default();
            out.push_str(&format!(
                "    {{\"name\": {}, \"kind\": \"{kind}\", \"class\": {}, \"cost\": {}, \"leading\": {leading}, \"detail\": {}, \"features\": {{{feats}}}}}{}\n",
                json_str(&p.name),
                json_str(p.class.big_o()),
                json_str(&p.cost.to_string()),
                json_str(&p.detail),
                if i + 1 < analysis.predictions.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out!("{out}");
    } else {
        outln!("cost functions ({path}):");
        for p in &analysis.predictions {
            outln!("  {}  {}  cost {}", p.name, p.class.big_o(), p.cost);
            outln!("    derivation: {}", p.detail);
            if let Some(fc) = by_name.get(p.name.as_str()) {
                for (ft, c) in &fc.features {
                    outln!("    {}: {}", ft.name(), c);
                }
            }
        }
    }
    Ok(())
}

/// `algoprof opstats <prog.jay>... [--input ...] [--json] [--top N]`:
/// executes each program once and aggregates opcode-frequency and
/// adjacent-pair statistics over all of them — the measurement behind
/// the VM's profile-guided superinstruction set (`--input` feeds every
/// program's `readInput()` calls). The logical opcode stream is
/// fusion-invariant, so the report is identical with fusion on or off.
fn opstats_main(args: &[String]) -> Result<(), CliError> {
    let mut json = false;
    let mut top = 16usize;
    let mut input: Vec<i64> = Vec::new();
    let mut paths: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--top" => {
                top = flag_value(args, i)?
                    .parse()
                    .map_err(|_| CliError::Usage("--top expects a positive integer".into()))?;
                i += 1;
            }
            "--input" => {
                input = parse_int_list("--input", flag_value(args, i)?)?;
                i += 1;
            }
            other if other.starts_with('-') => {
                return Err(CliError::Usage(format!(
                    "unknown option {other:?} for opstats"
                )));
            }
            other => paths.push(other.to_owned()),
        }
        i += 1;
    }
    if paths.is_empty() {
        return Err(CliError::Usage(
            "opstats needs at least one program file".into(),
        ));
    }
    let config = RunConfig {
        input,
        ..run_config()
    };
    let mut total = algoprof_vm::OpStats::new();
    for path in &paths {
        let source = read_file(path)?;
        let mut stats = algoprof_vm::OpStats::new();
        algoprof::run(Guest::Source(&source), &config, &mut stats)
            .map_err(|e| CliError::Run(format!("{path}: {e}")))?;
        total.merge(&stats);
    }
    if json {
        out!("{}", total.render_json(top));
    } else {
        out!("{}", total.render_text(top));
    }
    Ok(())
}

/// `algoprof disasm <prog.jay>`: instrumented-bytecode disassembly, or
/// with `--cfg` a Graphviz DOT dump of every function's control-flow
/// graph with natural-loop back edges annotated. `--fused` shows the
/// bytecode after the superinstruction peephole pass — what the
/// interpreter actually dispatches.
fn disasm_main(args: &[String]) -> Result<(), CliError> {
    let mut cfg = false;
    let mut fused = false;
    let mut positional: Vec<String> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--cfg" => cfg = true,
            "--fused" => fused = true,
            other if other.starts_with('-') => {
                return Err(CliError::Usage(format!(
                    "unknown option {other:?} for disasm"
                )));
            }
            other => positional.push(other.to_owned()),
        }
    }
    let [path] = positional.as_slice() else {
        return Err(CliError::Usage(
            "disasm expects exactly one program file".into(),
        ));
    };
    let source = read_file(path)?;
    let program = algoprof::prepare(&source, &algoprof_vm::InstrumentOptions::default(), fused)
        .map_err(|e| CliError::Run(e.to_string()))?;
    if cfg {
        out!("{}", algoprof_vm::disassemble_cfg(&program));
    } else {
        out!("{}", algoprof_vm::disassemble(&program));
    }
    Ok(())
}

/// `sweep` / `submit sweep` arguments: the job's flags, `--json`
/// (written from the job's result in both modes), and the flags only a
/// local run has (`-j`, `--quiet`, `--html`).
#[derive(Default)]
struct SweepArgs {
    path: String,
    sizes: Vec<u64>,
    criteria: Vec<String>,
    base: AlgoProfOptions,
    json: Option<String>,
    workers: Option<usize>,
    quiet: bool,
    html: Option<String>,
}

/// Parses the arguments of `cmd` (`sweep` or `submit sweep`).
fn parse_sweep_args(args: &[String], cmd: &str) -> Result<SweepArgs, CliError> {
    let mut out = SweepArgs::default();
    let mut positional: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sizes" => {
                out.sizes = parse_int_list("--sizes", flag_value(args, i)?)?;
                i += 1;
            }
            "-j" | "--jobs" => {
                let v = flag_value(args, i)?;
                out.workers = Some(v.parse().map_err(|_| {
                    CliError::Usage(format!("invalid worker count {v:?} for {}", args[i]))
                })?);
                i += 1;
            }
            "--criteria" => {
                out.criteria = flag_value(args, i)?
                    .split(',')
                    .filter(|p| !p.is_empty())
                    .map(|p| p.trim().to_owned())
                    .collect();
                i += 1;
            }
            flag @ ("--sizing" | "--grouping" | "--snapshots") => {
                set_option(&mut out.base, flag, flag_value(args, i)?)?;
                i += 1;
            }
            "--json" => {
                out.json = Some(flag_value(args, i)?.to_owned());
                i += 1;
            }
            "--html" => {
                out.html = Some(flag_value(args, i)?.to_owned());
                i += 1;
            }
            "--quiet" => out.quiet = true,
            other if other.starts_with('-') => {
                return Err(CliError::Usage(format!(
                    "unknown option {other:?} for {cmd}"
                )));
            }
            other => positional.push(other.to_owned()),
        }
        i += 1;
    }
    let [path] = positional.as_slice() else {
        return Err(CliError::Usage(
            "sweep expects exactly one program file".into(),
        ));
    };
    if out.sizes.is_empty() {
        return Err(CliError::Usage("sweep requires --sizes n1,n2,...".into()));
    }
    out.path = path.clone();
    Ok(out)
}

impl SweepArgs {
    /// The sweep job. `--criteria a,b` fans each run's live event stream
    /// out to one profiler per criterion; without it the sweep runs the
    /// single base configuration.
    fn job(&self) -> Result<JobSpec, CliError> {
        let ablations = if self.criteria.is_empty() {
            vec![SweepAblation {
                name: "default".to_owned(),
                options: self.base,
            }]
        } else {
            self.criteria
                .iter()
                .map(|name| {
                    let mut options = self.base;
                    options.criterion = parse_named(&CRITERIA, name)?;
                    Ok(SweepAblation {
                        name: name.clone(),
                        options,
                    })
                })
                .collect::<Result<_, CliError>>()?
        };
        Ok(JobSpec::Sweep {
            program: self.path.clone(),
            source: read_file(&self.path)?,
            sizes: self.sizes.clone(),
            ablations,
        })
    }
}

/// `algoprof sweep <prog.jay> --sizes n1,n2,...`: execute the program
/// once per size on a worker pool, profiling every requested ablation
/// from the same live event stream, and emit one merged report.
fn sweep_main(args: &[String]) -> Result<(), CliError> {
    let args = parse_sweep_args(args, "sweep")?;
    let result = args
        .job()?
        .run(args.workers.unwrap_or(0), !args.quiet, run_config().fuse)?;
    let JobResult::Sweep(report) = result else {
        unreachable!("a sweep job yields a sweep report");
    };
    if let Some(json_path) = &args.json {
        write_file(json_path, report.render_json().as_bytes())?;
    }
    if let Some(html_path) = &args.html {
        write_file(html_path, report.render_html().as_bytes())?;
    }
    out!("{}", report.render_text());
    for out in args.json.iter().chain(args.html.iter()) {
        eprintln!("wrote {out}");
    }
    Ok(())
}

/// `algoprof serve`: run the persistent profiling daemon until a client
/// asks it to shut down. Prints the bound address on stdout (so scripts
/// can bind an ephemeral port with `--addr 127.0.0.1:0` and read back
/// which port they got).
fn serve_main(args: &[String]) -> Result<(), CliError> {
    let mut addr: Option<String> = None;
    let mut socket: Option<String> = None;
    let mut config = ServerConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                addr = Some(flag_value(args, i)?.to_owned());
                i += 1;
            }
            "--socket" => {
                socket = Some(flag_value(args, i)?.to_owned());
                i += 1;
            }
            "--workers" => {
                let v = flag_value(args, i)?;
                config.workers = v.parse().map_err(|_| {
                    CliError::Usage(format!("invalid worker count {v:?} for --workers"))
                })?;
                i += 1;
            }
            "--queue" => {
                let v = flag_value(args, i)?;
                config.queue_capacity = v.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                    CliError::Usage(format!("invalid queue capacity {v:?} for --queue"))
                })?;
                i += 1;
            }
            "--cache-dir" => {
                config.cache_dir = Some(std::path::PathBuf::from(flag_value(args, i)?));
                i += 1;
            }
            other => {
                return Err(CliError::Usage(format!(
                    "unknown option {other:?} for serve"
                )));
            }
        }
        i += 1;
    }
    if addr.is_some() && socket.is_some() {
        return Err(CliError::Usage(
            "--addr and --socket are mutually exclusive".into(),
        ));
    }
    if let Some(path) = socket {
        let server = serve_bind_unix(&path, config)?;
        outln!("algoprof serve: listening on {path}");
        let _ = std::io::stdout().flush();
        server.join();
    } else {
        let addr = addr.unwrap_or_else(|| DEFAULT_ADDR.to_owned());
        validate_addr(&addr)?;
        let server = Server::start(&addr, config)
            .map_err(|e| CliError::Run(format!("cannot bind {addr}: {e}")))?;
        let bound = server.addr().expect("TCP server has an address");
        outln!("algoprof serve: listening on {bound}");
        let _ = std::io::stdout().flush();
        server.join();
    }
    Ok(())
}

#[cfg(unix)]
fn serve_bind_unix(path: &str, config: ServerConfig) -> Result<Server, CliError> {
    Server::start_unix(std::path::Path::new(path), config)
        .map_err(|e| CliError::Run(format!("cannot bind {path}: {e}")))
}

#[cfg(not(unix))]
fn serve_bind_unix(path: &str, _config: ServerConfig) -> Result<Server, CliError> {
    Err(CliError::Run(format!(
        "unix sockets are unsupported on this platform ({path})"
    )))
}

/// A listen/connect address must be `IP:PORT`; a bad port (or anything
/// else unparseable) is an invocation mistake, caught before binding.
fn validate_addr(addr: &str) -> Result<(), CliError> {
    addr.parse::<std::net::SocketAddr>()
        .map(|_| ())
        .map_err(|_| {
            CliError::Usage(format!(
                "invalid address {addr:?} (expected IP:PORT, e.g. 127.0.0.1:7421)"
            ))
        })
}

/// `algoprof submit`: send one job to a running daemon and (with
/// `--wait`) print its result — byte-identical to the one-shot CLI.
fn submit_main(args: &[String]) -> Result<(), CliError> {
    let mut addr: Option<String> = None;
    let mut socket: Option<String> = None;
    let mut wait = false;
    let mut action: Option<String> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                addr = Some(flag_value(args, i)?.to_owned());
                i += 1;
            }
            "--socket" => {
                socket = Some(flag_value(args, i)?.to_owned());
                i += 1;
            }
            "--wait" => wait = true,
            other if action.is_none() && other.starts_with('-') => {
                return Err(CliError::Usage(format!(
                    "unknown option {other:?} for submit"
                )));
            }
            other => {
                if action.is_none() {
                    action = Some(other.to_owned());
                } else {
                    rest.push(other.to_owned());
                }
            }
        }
        i += 1;
    }
    if addr.is_some() && socket.is_some() {
        return Err(CliError::Usage(
            "--addr and --socket are mutually exclusive".into(),
        ));
    }
    let server = match (addr, socket) {
        (Some(a), _) => {
            validate_addr(&a)?;
            ServerAddr::Tcp(a)
        }
        (None, Some(p)) => ServerAddr::Unix(std::path::PathBuf::from(p)),
        (None, None) => ServerAddr::Tcp(DEFAULT_ADDR.to_owned()),
    };
    let Some(action) = action else {
        if wait {
            return Err(CliError::Usage(
                "--wait requires a job to submit (missing job kind)".into(),
            ));
        }
        return Err(CliError::Usage(
            "missing job kind (expected profile|sweep|analyze|cache-stats|shutdown)".into(),
        ));
    };
    match action.as_str() {
        "profile" => submit_profile(&server, &rest, wait),
        "sweep" => submit_sweep(&server, &rest, wait),
        "analyze" => submit_analyze(&server, &rest, wait),
        "cache-stats" => {
            if wait {
                return Err(CliError::Usage(
                    "--wait requires a job to submit (cache-stats answers immediately)".into(),
                ));
            }
            reject_extra_args(&rest, "cache-stats")?;
            let (stats, programs) =
                client::all_cache_stats(&server).map_err(|e| CliError::Run(e.to_string()))?;
            outln!(
                "cache entries {} hits {} misses {} stores {}",
                stats.entries,
                stats.hits,
                stats.misses,
                stats.stores
            );
            outln!(
                "program cache entries {} hits {} misses {} evictions {}",
                programs.entries,
                programs.hits,
                programs.misses,
                programs.evictions
            );
            Ok(())
        }
        "shutdown" => {
            if wait {
                return Err(CliError::Usage(
                    "--wait requires a job to submit (shutdown answers immediately)".into(),
                ));
            }
            reject_extra_args(&rest, "shutdown")?;
            client::shutdown(&server).map_err(|e| CliError::Run(e.to_string()))?;
            outln!("shutdown requested");
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown job kind {other:?} (expected profile|sweep|analyze|cache-stats|shutdown)"
        ))),
    }
}

fn reject_extra_args(rest: &[String], action: &str) -> Result<(), CliError> {
    match rest.first() {
        None => Ok(()),
        Some(extra) => Err(CliError::Usage(format!(
            "unexpected argument {extra:?} for {action}"
        ))),
    }
}

/// Submits `spec`; with `wait` polls to completion, prints the text
/// report to stdout, and optionally writes the JSON report to
/// `json_path` — exactly the one-shot CLI's output contract.
fn submit_and_report(
    server: &ServerAddr,
    spec: &JobSpec,
    wait: bool,
    json_path: Option<String>,
) -> Result<(), CliError> {
    let submitted = client::submit(server, spec).map_err(|e| CliError::Run(e.to_string()))?;
    if !wait {
        outln!(
            "job {} {} (cache {})",
            submitted.id,
            submitted.status,
            submitted.cache
        );
        return Ok(());
    }
    let done = client::wait(server, &submitted.id).map_err(|e| CliError::Run(e.to_string()))?;
    if done.status == "failed" {
        return Err(CliError::Run(format!(
            "job {} failed: {}",
            done.id,
            done.error.unwrap_or_else(|| "unknown error".into())
        )));
    }
    let output = done
        .output
        .ok_or_else(|| CliError::Run("server reported done without output".into()))?;
    if let Some(path) = json_path {
        let json = output
            .json
            .ok_or_else(|| CliError::Run("job produced no JSON report".into()))?;
        write_file(&path, json.as_bytes())?;
        eprintln!("wrote {path}");
    }
    out!("{}", output.text);
    Ok(())
}

fn submit_profile(server: &ServerAddr, rest: &[String], wait: bool) -> Result<(), CliError> {
    let parsed = parse_args(rest)?;
    parsed.reject_local()?;
    submit_and_report(server, &parsed.profile_job()?, wait, None)
}

fn submit_sweep(server: &ServerAddr, rest: &[String], wait: bool) -> Result<(), CliError> {
    let args = parse_sweep_args(rest, "submit sweep")?;
    reject_local(
        args.workers.is_some() || args.quiet || args.html.is_some(),
        "-j/--quiet/--html",
    )?;
    if args.json.is_some() && !wait {
        return Err(CliError::Usage(
            "--json requires --wait (the report is part of the result)".into(),
        ));
    }
    submit_and_report(server, &args.job()?, wait, args.json)
}

fn submit_analyze(server: &ServerAddr, rest: &[String], wait: bool) -> Result<(), CliError> {
    let parsed = parse_analyze_args(rest)?;
    parsed.reject_local()?;
    let path = parsed.path("trace file")?;
    let trace = if path == "-" {
        let mut bytes = Vec::new();
        std::io::stdin()
            .lock()
            .read_to_end(&mut bytes)
            .map_err(|e| CliError::Run(format!("cannot read stdin: {e}")))?;
        bytes
    } else {
        read_trace(path)?
    };
    let spec = JobSpec::Analyze {
        trace,
        options: parsed.opts,
    };
    submit_and_report(server, &spec, wait, None)
}

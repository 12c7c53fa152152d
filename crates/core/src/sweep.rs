//! `algoprof sweep` — deterministic parallel batch profiling.
//!
//! The paper's headline artifact is the ⟨input size, cost⟩ scatter plot
//! (Figures 1 and 5), which needs the *same* program profiled at many
//! input sizes. A sweep turns that into an explicit job list — one
//! [`SweepJob`] per input size, crossed with any number of
//! analysis-option ablations — and runs it on a pool of worker threads.
//!
//! The front end runs once per **distinct source**, before any job
//! executes: one parse and type-check, one lowering and instrumentation,
//! the source's static predictions computed from those typed bodies and
//! that instrumented program, and one fusion. Only the fused program
//! and the predictions are kept; every job of that source then borrows
//! the same program. The jobs run in a **single parallel pass**: each
//! executes its guest exactly once, with the interpreter driving a
//! [`Tee`] of the trace recorder (for reproducibility stats) and a
//! [`Fanout`] of one [`AlgoProf`] per ablation. All ablations observe
//! the identical live event stream, so their profiles equal what a
//! record-then-replay pipeline would have produced — without
//! re-decoding the recording N times.
//!
//! The merged report is **deterministic**: results land in
//! pre-assigned slots indexed by job (see [`crate::pool`]), the merge
//! walks them in job order, and no timing or scheduling information
//! enters the report — so the text, JSON, and HTML renderings are
//! byte-identical for every worker count.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

use algoprof_analysis::{json_str, CostFn};
use algoprof_fit::{
    best_fit, check_coefficient, fit_power_law, CoeffCheck, CoeffVerdict, ComplexityClass, Fit,
    PowerFit,
};
use algoprof_trace::{TraceHeader, TraceRecorder};
use algoprof_vm::{
    compile_with_bodies, CompileError, CompiledProgram, Fanout, InstrumentOptions, Interp, Tee,
};

use crate::pool::{default_workers, run_indexed};
use crate::profile::{AlgorithmicProfile, CostMetric, ProfileSet};
use crate::profiler::{AlgoProf, AlgoProfOptions};
use crate::run::ProfileError;

// The whole pipeline fans profiles out across threads; keep that
// guaranteed at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AlgorithmicProfile>();
    assert_send_sync::<SweepReport>();
};

/// One unit of work: execute `source` once with `input` and profile it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepJob {
    /// Display label, e.g. `n=64`.
    pub label: String,
    /// Program tag for multi-program sweeps. Series are merged only
    /// across jobs sharing a tag — two *different* programs can use
    /// identical loop names (`Main.main:loop0@L4`), and merging those
    /// points would fit a meaningless curve. Empty for the common
    /// single-program sweep.
    pub program: String,
    /// The nominal input size this job probes.
    pub size: u64,
    /// Guest source text.
    pub source: String,
    /// Values served to the guest's `readInput()` calls.
    pub input: Vec<i64>,
}

impl SweepJob {
    /// The standard per-size job: the swept size is served as the
    /// guest's first `readInput()` value.
    pub fn for_size(source: &str, size: u64) -> SweepJob {
        SweepJob {
            label: format!("n={size}"),
            program: String::new(),
            size,
            source: source.to_string(),
            input: vec![size as i64],
        }
    }

    /// Like [`SweepJob::for_size`] with a program tag, for sweeps that
    /// batch several distinct programs.
    pub fn for_program_size(program: &str, source: &str, size: u64) -> SweepJob {
        SweepJob {
            label: format!("{program}:n={size}"),
            program: program.to_string(),
            ..SweepJob::for_size(source, size)
        }
    }
}

/// One named analysis configuration to replay every recording under.
#[derive(Debug, Clone, Default)]
pub struct SweepAblation {
    /// Name used in reports, e.g. `some` or `default`.
    pub name: String,
    /// Profiler options for this ablation.
    pub options: AlgoProfOptions,
}

/// Sweep execution parameters.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Ablations to analyze each recording under (at least one; the
    /// default is a single `default`-named [`AlgoProfOptions`]).
    pub ablations: Vec<SweepAblation>,
    /// Worker threads; `0` means [`default_workers`].
    pub workers: usize,
    /// Emit progress lines to stderr as jobs complete (progress goes to
    /// stderr only — the report itself stays deterministic).
    pub progress: bool,
    /// Display name of the swept program, echoed in the report.
    pub program: String,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            ablations: vec![SweepAblation {
                name: "default".to_string(),
                options: AlgoProfOptions::default(),
            }],
            workers: 0,
            progress: false,
            program: String::new(),
        }
    }
}

/// A sweep failure, attributed to the job that caused it. When several
/// jobs fail, the one with the lowest index is reported — deterministic
/// for every worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError {
    /// Label of the failing job.
    pub job: String,
    /// Ablation name, when the failure is specific to one analysis
    /// configuration. In the single-pass pipeline all ablations observe
    /// one execution, so compile/runtime failures carry `None`.
    pub ablation: Option<String>,
    /// The underlying failure.
    pub error: ProfileError,
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.ablation {
            Some(a) => write!(f, "job {} [{a}]: {}", self.job, self.error),
            None => write!(f, "job {}: {}", self.job, self.error),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Per-ablation outcome of one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepRunReport {
    /// Ablation name.
    pub ablation: String,
    /// Algorithms found by this analysis, summed over all guest threads.
    pub algorithms: u64,
    /// Total algorithmic steps across all algorithms and threads.
    pub total_steps: u64,
    /// Guest threads the run produced a profile for (1 for a program
    /// that never spawns).
    pub threads: u64,
}

/// Outcome of one job (shared trace, one run row per ablation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepJobReport {
    /// Job label.
    pub label: String,
    /// Nominal input size.
    pub size: u64,
    /// Recording size in bytes.
    pub trace_bytes: u64,
    /// Events replayed from the recording.
    pub events: u64,
    /// One row per ablation, in configuration order.
    pub runs: Vec<SweepRunReport>,
}

/// One merged ⟨size, cost⟩ series: an algorithm observed across the
/// whole sweep under one ablation, with its fitted cost functions.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSeries {
    /// Ablation name.
    pub ablation: String,
    /// Program tag of the jobs this series merges (empty for a
    /// single-program sweep).
    pub program: String,
    /// The algorithm's root repetition name (e.g.
    /// `Main.testForSize:loop0@L9`) — identical sources give identical
    /// names, which is what lets runs merge.
    pub algorithm: String,
    /// `None` for the merged-across-threads series (the only kind a
    /// single-threaded sweep produces, and byte-identical to the
    /// pre-thread report). `Some(t)` rows are emitted in addition when
    /// any job in the group spawned: the same algorithm restricted to
    /// guest thread `t`, with its own fit — so per-thread scaling
    /// verdicts fall out of the ordinary fit machinery.
    pub thread: Option<usize>,
    /// Human classification, e.g. `Construction of a ... structure`.
    pub kind: String,
    /// Merged ⟨size, steps⟩ points, sorted by size then cost.
    pub points: Vec<(f64, f64)>,
    /// Best complexity-model fit over the merged series.
    pub fit: Option<Fit>,
    /// Log–log power-law fit over the merged series.
    pub power_law: Option<PowerFit>,
    /// Statically predicted asymptotic class for this repetition, from
    /// the `algoprof-analysis` abstract interpretation of the same
    /// source. `None` when the analysis has no prediction under this
    /// name (e.g. synthetic grouped roots).
    pub predicted: Option<ComplexityClass>,
    /// The symbolic cost function behind the prediction, with
    /// coefficients where the recurrence solver proved them.
    pub predicted_cost: Option<CostFn>,
    /// Whether the static prediction agrees with the empirical best fit
    /// at polynomial-degree granularity. `None` when either side makes
    /// no claim (no fit, no prediction, or an `Unknown` class).
    pub agrees: Option<bool>,
    /// The coefficient-level comparison of `predicted_cost`'s leading
    /// term against the best fit.
    pub coeff: CoeffCheck,
}

/// The merged result of a whole sweep. All renderings of a report are
/// byte-identical for every worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Display name of the swept program.
    pub program: String,
    /// The nominal sizes, in job order.
    pub sizes: Vec<u64>,
    /// Ablation names, in configuration order.
    pub ablations: Vec<String>,
    /// Per-job outcomes, in job order.
    pub jobs: Vec<SweepJobReport>,
    /// Merged per-algorithm series with fits, ordered by ablation then
    /// algorithm name.
    pub series: Vec<SweepSeries>,
}

/// Records and analyzes every job of a sweep on a worker pool, merging
/// the results into a deterministic [`SweepReport`].
///
/// # Errors
///
/// Returns the lowest-indexed failing job's [`SweepError`] — the same
/// error for every worker count. Already-completed work is discarded.
///
/// # Example
///
/// ```
/// use algoprof::sweep::{run_sweep, SweepConfig, SweepJob};
///
/// let src = "class Main { static int main() {
///     int n = readInput();
///     Node head = null;
///     for (int i = 0; i < n; i = i + 1) {
///         Node x = new Node(); x.next = head; head = x;
///     }
///     return 0;
/// } }
/// class Node { Node next; }";
/// let jobs: Vec<SweepJob> = [4u64, 8, 16]
///     .iter()
///     .map(|&n| SweepJob::for_size(src, n))
///     .collect();
/// let report = run_sweep(&jobs, &SweepConfig::default())?;
/// assert_eq!(report.jobs.len(), 3);
/// let series = &report.series[0];
/// assert_eq!(series.points.len(), 3);
/// # Ok::<(), algoprof::sweep::SweepError>(())
/// ```
pub fn run_sweep(jobs: &[SweepJob], config: &SweepConfig) -> Result<SweepReport, SweepError> {
    sweep(jobs, config, true)
}

/// [`run_sweep`] with fusion as a value ([`RunConfig::fuse`]): the CLI
/// passes its default, the daemon always fuses, and the report is the
/// same either way.
///
/// [`RunConfig::fuse`]: crate::RunConfig::fuse
pub(crate) fn sweep(
    jobs: &[SweepJob],
    config: &SweepConfig,
    fuse: bool,
) -> Result<SweepReport, SweepError> {
    let ablations: Vec<SweepAblation> = if config.ablations.is_empty() {
        SweepConfig::default().ablations
    } else {
        config.ablations.clone()
    };
    let workers = if config.workers == 0 {
        default_workers()
    } else {
        config.workers
    };

    // Front end once per distinct source, on this thread: running it on
    // the pool too bought no throughput and measured ~2 MiB more peak
    // RSS on the benchmark corpus. A source that fails to compile fails
    // each of its jobs below, so the reported error is still the
    // lowest-indexed failing job's.
    let instrument = InstrumentOptions::default();
    let mut sources: Vec<&str> = Vec::new();
    let source_of: Vec<usize> = jobs
        .iter()
        .map(|job| match sources.iter().position(|s| *s == job.source) {
            Some(s) => s,
            None => {
                sources.push(&job.source);
                sources.len() - 1
            }
        })
        .collect();
    let prepared: Vec<Result<PreparedSource, CompileError>> = sources
        .iter()
        .map(|s| prepare_source(s, &instrument, fuse))
        .collect();

    // Single pass: execute every job once, in parallel, with all
    // ablations fanned out over the live event stream.
    let done = AtomicUsize::new(0);
    let outcomes: Vec<Result<JobOutcome, ProfileError>> = run_indexed(jobs.len(), workers, |i| {
        let job = &jobs[i];
        let out = match &prepared[source_of[i]] {
            Ok(p) => profile_job(&p.program, &job.source, &job.input, &instrument, &ablations),
            Err(e) => Err(ProfileError::Compile(e.clone())),
        };
        if config.progress {
            let k = done.fetch_add(1, Ordering::Relaxed) + 1;
            match &out {
                Ok(o) => eprintln!(
                    "sweep: [{k}/{}] profiled {} ({} bytes, {} ablations)",
                    jobs.len(),
                    job.label,
                    o.trace_bytes,
                    o.profiles.len()
                ),
                Err(e) => eprintln!("sweep: [{k}/{}] {} FAILED: {e}", jobs.len(), job.label),
            }
        }
        out
    });
    let mut results: Vec<JobOutcome> = Vec::with_capacity(jobs.len());
    for (job, outcome) in jobs.iter().zip(outcomes) {
        match outcome {
            Ok(o) => results.push(o),
            Err(error) => {
                return Err(SweepError {
                    job: job.label.clone(),
                    ablation: None,
                    error,
                })
            }
        }
    }

    // Serial merge, in job order: scheduling can no longer influence
    // anything below this line.
    let mut report = SweepReport {
        program: config.program.clone(),
        sizes: jobs.iter().map(|j| j.size).collect(),
        ablations: ablations.iter().map(|a| a.name.clone()).collect(),
        jobs: Vec::with_capacity(jobs.len()),
        series: Vec::new(),
    };
    for (j, job) in jobs.iter().enumerate() {
        report.jobs.push(SweepJobReport {
            label: job.label.clone(),
            size: job.size,
            trace_bytes: results[j].trace_bytes,
            events: results[j].events,
            runs: ablations
                .iter()
                .zip(&results[j].profiles)
                .map(|(ab, set)| SweepRunReport {
                    ablation: ab.name.clone(),
                    algorithms: set
                        .threads()
                        .iter()
                        .map(|p| p.algorithms().len() as u64)
                        .sum(),
                    total_steps: set
                        .threads()
                        .iter()
                        .flat_map(|p| p.algorithms())
                        .map(|al| al.total_costs.steps())
                        .sum(),
                    threads: set.len() as u64,
                })
                .collect(),
        });
    }
    // Program groups in first-appearance job order: series merge only
    // across jobs sharing a tag, so same-named algorithms of different
    // programs never pollute one curve.
    let mut groups: Vec<(&str, Vec<usize>)> = Vec::new();
    for (j, job) in jobs.iter().enumerate() {
        match groups.iter_mut().find(|(tag, _)| *tag == job.program) {
            Some((_, members)) => members.push(j),
            None => groups.push((&job.program, vec![j])),
        }
    }
    // Static cross-validation: one prediction map per program group, that
    // of its first member's source (the predictions depend only on the
    // source, not the ablation).
    let group_predictions: Vec<&Predictions> = groups
        .iter()
        .map(|(_, members)| {
            &prepared[source_of[members[0]]]
                .as_ref()
                .expect("every job succeeded, so every source compiled")
                .predictions
        })
        .collect();
    for (a, ablation) in ablations.iter().enumerate() {
        for ((tag, members), predictions) in groups.iter().zip(&group_predictions) {
            // Pair each profile with its job's *requested* size: the
            // sweep's independent variable. Measured structure sizes can
            // overshoot the request (a doubling array list at n=48 has
            // capacity 64), which used to duplicate x-values across jobs.
            // The merged slice spans every guest thread of every member
            // job — for a single-threaded sweep that is exactly the old
            // one-profile-per-job slice.
            let slice: Vec<(&AlgorithmicProfile, u64)> = members
                .iter()
                .flat_map(|&j| {
                    results[j].profiles[a]
                        .threads()
                        .iter()
                        .map(move |p| (p, jobs[j].size))
                })
                .collect();
            let group_threads = members
                .iter()
                .map(|&j| results[j].profiles[a].len())
                .max()
                .unwrap_or(1);
            // Every algorithm root name seen anywhere in this group, in
            // sorted order so the report layout is stable.
            let mut names: Vec<String> = Vec::new();
            for (p, _) in &slice {
                for algo in p.algorithms() {
                    let name = p.node_name(algo.root).to_string();
                    if !names.contains(&name) {
                        names.push(name);
                    }
                }
            }
            names.sort();
            for name in names {
                if let Some(s) = build_series(&ablation.name, tag, &name, None, &slice, predictions)
                {
                    report.series.push(s);
                }
                // Threaded groups additionally get one series per guest
                // thread, right under the merged one, so each thread's
                // scaling is judged on its own points.
                if group_threads > 1 {
                    for t in 0..group_threads {
                        let tslice: Vec<(&AlgorithmicProfile, u64)> = members
                            .iter()
                            .filter_map(|&j| {
                                results[j].profiles[a].thread(t).map(|p| (p, jobs[j].size))
                            })
                            .collect();
                        if let Some(s) =
                            build_series(&ablation.name, tag, &name, Some(t), &tslice, predictions)
                        {
                            report.series.push(s);
                        }
                    }
                }
            }
        }
    }
    Ok(report)
}

/// Builds one merged series row (merged across `slice`'s profiles) with
/// its fits and static cross-validation verdicts, or `None` when the
/// algorithm contributed no sized points in this slice.
fn build_series(
    ablation: &str,
    program: &str,
    name: &str,
    thread: Option<usize>,
    slice: &[(&AlgorithmicProfile, u64)],
    predictions: &Predictions,
) -> Option<SweepSeries> {
    let points = crate::profile::merge_invocation_series_nominal(slice, name, CostMetric::Steps);
    if points.is_empty() {
        return None;
    }
    let kind = slice
        .iter()
        .find_map(|(p, _)| {
            p.algorithms()
                .iter()
                .find(|al| p.node_name(al.root) == name)
                .map(|al| p.describe_algorithm(al.id))
        })
        .unwrap_or_default();
    let fit = best_fit(&points);
    let (predicted, predicted_cost) = match predictions.get(name) {
        Some((class, cost)) => (Some(*class), Some(cost.clone())),
        None => (None, None),
    };
    let agrees = match (predicted, &fit) {
        (Some(p), Some(f)) => p.agrees_with(f.model.complexity_class()),
        _ => None,
    };
    let coeff = check_coefficient(
        predicted,
        predicted_cost.as_ref().and_then(|c| c.leading()),
        fit.as_ref(),
    );
    Some(SweepSeries {
        ablation: ablation.to_string(),
        program: program.to_string(),
        algorithm: name.to_string(),
        thread,
        kind,
        fit,
        power_law: fit_power_law(&points),
        points,
        predicted,
        predicted_cost,
        agrees,
        coeff,
    })
}

/// Static predictions of one source: asymptotic class and cost function
/// per repetition name.
type Predictions = HashMap<String, (ComplexityClass, CostFn)>;

/// The front end's products for one distinct source, shared by every job
/// that runs it.
struct PreparedSource {
    /// The instrumented program, fused if the sweep fuses.
    program: CompiledProgram,
    /// The source's static predictions.
    predictions: Predictions,
}

/// Runs the front end once for `source`: one parse and type-check, one
/// lowering and instrumentation, the static analysis of those typed
/// bodies against that instrumented program, then fusion if `fuse`. The
/// HIR is dropped here.
fn prepare_source(
    source: &str,
    instrument: &InstrumentOptions,
    fuse: bool,
) -> Result<PreparedSource, CompileError> {
    let (bodies, program) = compile_with_bodies(source)?;
    let program = program.instrument(instrument);
    let analysis = algoprof_analysis::analyze_program(&bodies, &program);
    Ok(PreparedSource {
        program: if fuse { program.fused() } else { program },
        predictions: algoprof_analysis::cost_map(&analysis.predictions),
    })
}

/// What one single-pass job execution yields.
struct JobOutcome {
    /// Recording size in bytes (header + events + terminator).
    trace_bytes: u64,
    /// Events encoded into the recording.
    events: u64,
    /// One finished per-thread profile set per ablation, in
    /// configuration order.
    profiles: Vec<ProfileSet>,
}

/// Executes one job's guest exactly once, producing its recording stats
/// and one profile per ablation from the same live event stream: the
/// interpreter drives `Tee(recorder, Fanout(profilers))`, so the
/// recorder observes each event first and the profilers observe it in
/// ablation order. `program` is `source` compiled and instrumented with
/// `instrument` (see [`prepare_source`]); `source` and `instrument` also
/// go into the recording's header.
fn profile_job(
    program: &CompiledProgram,
    source: &str,
    input: &[i64],
    instrument: &InstrumentOptions,
    ablations: &[SweepAblation],
) -> Result<JobOutcome, ProfileError> {
    let mut bytes = Vec::new();
    let mut sink = Tee::new(
        TraceRecorder::new(&TraceHeader::new(source, instrument, input), &mut bytes),
        Fanout::new(
            ablations
                .iter()
                .map(|a| AlgoProf::with_options(a.options))
                .collect(),
        ),
    );
    Interp::new(program)
        .with_input(input.to_vec())
        .run(&mut sink)?;
    let Tee {
        a: recorder,
        b: fanout,
    } = sink;
    let stats = recorder.finish().expect("writes to a Vec<u8> cannot fail");
    Ok(JobOutcome {
        trace_bytes: stats.total_bytes,
        events: stats.events,
        profiles: fanout
            .into_sinks()
            .into_iter()
            .map(|p| p.finish_set(program))
            .collect(),
    })
}

// ------------------------------------------------------------ rendering

impl SweepReport {
    /// Renders the report as aligned text.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "sweep report: {}", self.program);
        let _ = writeln!(
            out,
            "sizes: {}",
            self.sizes
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(" ")
        );
        let _ = writeln!(out, "ablations: {}", self.ablations.join(" "));
        let _ = writeln!(
            out,
            "jobs: {} ({} analyses)\n",
            self.jobs.len(),
            self.jobs.len() * self.ablations.len()
        );
        for job in &self.jobs {
            let _ = writeln!(
                out,
                "job {} [trace {} bytes, {} events]",
                job.label, job.trace_bytes, job.events
            );
            for run in &job.runs {
                let _ = write!(
                    out,
                    "  {}: algorithms={} steps={}",
                    run.ablation, run.algorithms, run.total_steps
                );
                if run.threads > 1 {
                    let _ = write!(out, " threads={}", run.threads);
                }
                out.push('\n');
            }
        }
        out.push('\n');
        for s in &self.series {
            let prefix = if s.program.is_empty() {
                String::new()
            } else {
                format!("{} ", s.program)
            };
            let tsuffix = match s.thread {
                Some(t) => format!(" [t{t}]"),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "algorithm {prefix}{}{tsuffix} [{}]",
                s.algorithm, s.ablation
            );
            if !s.kind.is_empty() {
                let _ = writeln!(out, "  kind: {}", s.kind);
            }
            let pts = s
                .points
                .iter()
                .map(|&(n, c)| format!("({n}, {c})"))
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(out, "  points ({}): {pts}", s.points.len());
            match &s.fit {
                Some(f) => {
                    let _ = writeln!(out, "  best fit: {f}  [{}]", f.model.big_o());
                }
                None => out.push_str("  best fit: (degenerate series)\n"),
            }
            if let Some(p) = &s.power_law {
                let _ = writeln!(out, "  power law: {p}");
            }
            if let Some(pred) = s.predicted {
                let verdict = match s.coeff.verdict {
                    CoeffVerdict::Agrees => match (s.coeff.predicted, s.coeff.fitted) {
                        (Some(p), Some(f)) => {
                            format!("[agrees]  (coeff {p} vs fitted {f:.4})")
                        }
                        _ => "[agrees]".to_string(),
                    },
                    CoeffVerdict::ClassOnly => format!("[class-only: {}]", s.coeff.reason),
                    CoeffVerdict::Disagrees => match &s.fit {
                        Some(f) => format!("[DISAGREES with best fit {}]", f.model.big_o()),
                        None => "[DISAGREES]".to_string(),
                    },
                    CoeffVerdict::Unverified => "[unverified]".to_string(),
                };
                let cost = match &s.predicted_cost {
                    Some(c) => format!("  =  {c}"),
                    None => String::new(),
                };
                let _ = writeln!(out, "  predicted: {}{cost}  {verdict}", pred.big_o());
            }
            out.push('\n');
        }
        out
    }

    /// Renders the report as machine-readable JSON (the `BENCH_sweep`
    /// schema). No timing data is included, so the bytes are identical
    /// for every worker count.
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"program\": {},", json_str(&self.program));
        let _ = writeln!(out, "  \"sizes\": {},", json_u64s(&self.sizes));
        let _ = writeln!(
            out,
            "  \"ablations\": [{}],",
            self.ablations
                .iter()
                .map(|a| json_str(a))
                .collect::<Vec<_>>()
                .join(", ")
        );
        out.push_str("  \"jobs\": [\n");
        for (i, job) in self.jobs.iter().enumerate() {
            let runs = job
                .runs
                .iter()
                .map(|r| {
                    format!(
                        "{{\"ablation\": {}, \"algorithms\": {}, \"total_steps\": {}, \"threads\": {}}}",
                        json_str(&r.ablation),
                        r.algorithms,
                        r.total_steps,
                        r.threads
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            let _ = write!(
                out,
                "    {{\"label\": {}, \"size\": {}, \"trace_bytes\": {}, \"events\": {}, \"runs\": [{}]}}",
                json_str(&job.label),
                job.size,
                job.trace_bytes,
                job.events,
                runs
            );
            out.push_str(if i + 1 < self.jobs.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n");
        out.push_str("  \"series\": [\n");
        for (i, s) in self.series.iter().enumerate() {
            let points = s
                .points
                .iter()
                .map(|&(n, c)| format!("[{}, {}]", json_f64(n), json_f64(c)))
                .collect::<Vec<_>>()
                .join(", ");
            let fit = match &s.fit {
                Some(f) => format!(
                    "{{\"model\": {}, \"coeff\": {}, \"intercept\": {}, \"r2\": {}, \"rmse\": {}, \"n_points\": {}}}",
                    json_str(f.model.big_o()),
                    json_f64(f.coeff),
                    json_f64(f.intercept),
                    json_f64(f.r2),
                    json_f64(f.rmse),
                    f.n_points
                ),
                None => "null".to_string(),
            };
            let power = match &s.power_law {
                Some(p) => format!(
                    "{{\"coeff\": {}, \"exponent\": {}, \"r2\": {}, \"n_points\": {}}}",
                    json_f64(p.coeff),
                    json_f64(p.exponent),
                    json_f64(p.r2),
                    p.n_points
                ),
                None => "null".to_string(),
            };
            let predicted = match s.predicted {
                Some(p) => json_str(p.big_o()),
                None => "null".to_string(),
            };
            let agrees = match s.agrees {
                Some(b) => b.to_string(),
                None => "null".to_string(),
            };
            let predicted_cost = match &s.predicted_cost {
                Some(c) => json_str(&c.to_string()),
                None => "null".to_string(),
            };
            let opt_f64 = |v: Option<f64>| match v {
                Some(x) => json_f64(x),
                None => "null".to_string(),
            };
            let coeff = format!(
                "{{\"verdict\": {}, \"predicted\": {}, \"fitted\": {}, \"rel_err\": {}, \"reason\": {}}}",
                json_str(s.coeff.verdict.label()),
                opt_f64(s.coeff.predicted),
                opt_f64(s.coeff.fitted),
                opt_f64(s.coeff.rel_err),
                json_str(s.coeff.reason)
            );
            let thread = match s.thread {
                Some(t) => t.to_string(),
                None => "null".to_string(),
            };
            let _ = write!(
                out,
                "    {{\"ablation\": {}, \"program\": {}, \"algorithm\": {}, \"thread\": {}, \"kind\": {}, \"points\": [{}], \"best_fit\": {}, \"power_law\": {}, \"predicted\": {}, \"predicted_cost\": {}, \"agrees\": {}, \"coeff\": {}}}",
                json_str(&s.ablation),
                json_str(&s.program),
                json_str(&s.algorithm),
                thread,
                json_str(&s.kind),
                points,
                fit,
                power,
                predicted,
                predicted_cost,
                agrees,
                coeff
            );
            out.push_str(if i + 1 < self.series.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders the report as a self-contained HTML page with SVG plots.
    pub fn render_html(&self) -> String {
        crate::html::render_sweep_html(self)
    }
}

/// A finite `f64` as a JSON number (Rust's shortest-roundtrip `Display`
/// is deterministic and always valid JSON for finite values).
fn json_f64(v: f64) -> String {
    debug_assert!(v.is_finite(), "non-finite value in sweep report");
    format!("{v}")
}

fn json_u64s(vs: &[u64]) -> String {
    format!(
        "[{}]",
        vs.iter().map(u64::to_string).collect::<Vec<_>>().join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIZED_LIST: &str = "class Main { static int main() {
        int n = readInput();
        Node head = null;
        for (int i = 0; i < n; i = i + 1) {
            Node x = new Node(); x.next = head; head = x;
        }
        return 0;
    } }
    class Node { Node next; }";

    fn jobs() -> Vec<SweepJob> {
        [3u64, 6, 12, 24]
            .iter()
            .map(|&n| SweepJob::for_size(SIZED_LIST, n))
            .collect()
    }

    #[test]
    fn sweep_finds_linear_construction() {
        let report = run_sweep(&jobs(), &SweepConfig::default()).expect("sweeps");
        assert_eq!(report.jobs.len(), 4);
        let s = report
            .series
            .iter()
            .find(|s| s.algorithm.contains("loop"))
            .expect("construction series");
        assert_eq!(s.points.len(), 4);
        let fit = s.fit.expect("fits");
        assert_eq!(fit.model, algoprof_fit::Model::Linear);
    }

    #[test]
    fn sweep_points_land_on_the_requested_sizes() {
        // Regression: a doubling array list asked for 48 elements grows
        // its backing array to capacity 64, and the series merge used to
        // take that *measured* size as x — so the n=48 job collided with
        // the n=64 job (two points at x=64) and no point sat at x=48.
        // The sweep's x-axis is the requested size.
        const DOUBLING_LIST: &str = "class Main { static int main() {
            int n = readInput();
            ArrayList list = new ArrayList();
            for (int i = 0; i < n; i = i + 1) { list.append(i); }
            return list.size;
        } }
        class ArrayList {
            int[] array;
            int size;
            ArrayList() { array = new int[1]; size = 0; }
            void append(int v) {
                if (size == array.length) {
                    int[] bigger = new int[array.length * 2];
                    for (int i = 0; i < array.length; i = i + 1) { bigger[i] = array[i]; }
                    array = bigger;
                }
                array[size] = v;
                size = size + 1;
            }
        }";
        let sizes = [16u64, 32, 48, 64];
        let jobs: Vec<SweepJob> = sizes
            .iter()
            .map(|&n| SweepJob::for_size(DOUBLING_LIST, n))
            .collect();
        let report = run_sweep(&jobs, &SweepConfig::default()).expect("sweeps");
        let main_loop = report
            .series
            .iter()
            .find(|s| s.algorithm.starts_with("Main.main:loop"))
            .expect("main append loop series");
        let xs: Vec<f64> = main_loop.points.iter().map(|&(x, _)| x).collect();
        assert_eq!(
            xs,
            sizes.iter().map(|&n| n as f64).collect::<Vec<_>>(),
            "exactly one point per requested size, in order"
        );
        // Costs must still differ between n=48 and n=64 even though both
        // runs end at capacity 64.
        let cost_of = |n: f64| {
            main_loop
                .points
                .iter()
                .find(|&&(x, _)| x == n)
                .expect("point")
                .1
        };
        assert!(cost_of(48.0) < cost_of(64.0));
        // And no series anywhere may invent an x outside the swept sizes.
        for s in &report.series {
            for &(x, _) in &s.points {
                assert!(
                    sizes.iter().any(|&n| n as f64 == x),
                    "series {} has x={x} not among the requested sizes",
                    s.algorithm
                );
            }
        }
    }

    #[test]
    fn report_is_identical_for_every_worker_count() {
        let jobs = jobs();
        let mut renders = Vec::new();
        for workers in [1usize, 2, 3, 8] {
            let config = SweepConfig {
                workers,
                ..SweepConfig::default()
            };
            let report = run_sweep(&jobs, &config).expect("sweeps");
            renders.push((report.render_text(), report.render_json()));
        }
        for r in &renders[1..] {
            assert_eq!(r.0, renders[0].0, "text differs across worker counts");
            assert_eq!(r.1, renders[0].1, "json differs across worker counts");
        }
    }

    #[test]
    fn failing_job_is_attributed_deterministically() {
        let mut jobs = jobs();
        jobs[2].source = "class Main {".to_string(); // compile error
        for workers in [1usize, 4] {
            let config = SweepConfig {
                workers,
                ..SweepConfig::default()
            };
            let err = run_sweep(&jobs, &config).expect_err("fails");
            assert_eq!(err.job, "n=12");
            assert!(matches!(err.error, ProfileError::Compile(_)));
        }
    }

    #[test]
    fn json_is_structurally_sane() {
        let report = run_sweep(&jobs()[..3], &SweepConfig::default()).expect("sweeps");
        let json = report.render_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"best_fit\""));
    }

    #[test]
    fn empty_job_list_gives_empty_report() {
        let report = run_sweep(&[], &SweepConfig::default()).expect("sweeps");
        assert!(report.jobs.is_empty());
        assert!(report.series.is_empty());
        assert!(!report.render_text().is_empty());
        assert!(report.render_json().contains("\"jobs\": [\n  ],"));
    }

    #[test]
    fn multiple_ablations_share_recordings() {
        use crate::snapshot::EquivalenceCriterion;
        let config = SweepConfig {
            ablations: vec![
                SweepAblation {
                    name: "some".into(),
                    options: AlgoProfOptions {
                        criterion: EquivalenceCriterion::SomeElements,
                        ..Default::default()
                    },
                },
                SweepAblation {
                    name: "type".into(),
                    options: AlgoProfOptions {
                        criterion: EquivalenceCriterion::SameType,
                        ..Default::default()
                    },
                },
            ],
            ..SweepConfig::default()
        };
        let report = run_sweep(&jobs(), &config).expect("sweeps");
        assert_eq!(report.ablations, vec!["some", "type"]);
        for job in &report.jobs {
            assert_eq!(job.runs.len(), 2);
        }
        // Both ablations produced a merged series.
        assert!(report.series.iter().any(|s| s.ablation == "some"));
        assert!(report.series.iter().any(|s| s.ablation == "type"));
    }

    #[test]
    fn single_pass_profiles_equal_replayed() {
        // The Fanout'd live profiles must be indistinguishable from the
        // old record-then-replay pipeline, and the teed recording must
        // be byte-identical to a pure recording run.
        use crate::run::{profile, record_source_with, Guest, RunConfig};
        use crate::snapshot::EquivalenceCriterion;
        let ablations = vec![
            SweepAblation {
                name: "some".into(),
                options: AlgoProfOptions {
                    criterion: EquivalenceCriterion::SomeElements,
                    ..Default::default()
                },
            },
            SweepAblation {
                name: "type".into(),
                options: AlgoProfOptions {
                    criterion: EquivalenceCriterion::SameType,
                    ..Default::default()
                },
            },
        ];
        let instrument = InstrumentOptions::default();
        let program = prepare_source(SIZED_LIST, &instrument, true)
            .expect("compiles")
            .program;
        for &n in &[4u64, 9] {
            let job = SweepJob::for_size(SIZED_LIST, n);
            let outcome = profile_job(&program, &job.source, &job.input, &instrument, &ablations)
                .expect("profiles");
            let recording =
                record_source_with(&job.source, &instrument, &job.input).expect("records");
            assert_eq!(outcome.trace_bytes, recording.len() as u64);
            assert!(outcome.events > 0);
            for (ablation, live) in ablations.iter().zip(&outcome.profiles) {
                let config = RunConfig {
                    options: ablation.options,
                    ..RunConfig::default()
                };
                let replayed = profile(Guest::Trace(&recording), &config).expect("replays");
                assert_eq!(
                    *live, replayed,
                    "single-pass [{}] diverged from replay",
                    ablation.name
                );
            }
        }
    }

    #[test]
    fn threaded_sweep_adds_per_thread_series_and_stays_deterministic() {
        // Two workers build lists of n and 2n nodes: the merged series
        // mixes both, while the per-thread rows separate a slope-1 from
        // a slope-2 linear fit.
        const THREADED: &str = "class Main { static int main() {
            int n = readInput();
            int t1 = spawn work(n);
            int t2 = spawn work(n * 2);
            int a = join t1;
            int b = join t2;
            return a + b;
        }
        static int work(int n) {
            Node head = null;
            for (int i = 0; i < n; i = i + 1) {
                Node x = new Node(); x.next = head; head = x;
            }
            return n;
        } }
        class Node { Node next; }";
        let jobs: Vec<SweepJob> = [4u64, 8, 16, 32]
            .iter()
            .map(|&n| SweepJob::for_size(THREADED, n))
            .collect();
        let mut renders = Vec::new();
        for workers in [1usize, 2] {
            let config = SweepConfig {
                workers,
                ..SweepConfig::default()
            };
            let report = run_sweep(&jobs, &config).expect("sweeps");
            for job in &report.jobs {
                assert_eq!(job.runs[0].threads, 3, "main + two workers");
            }
            let loop_rows: Vec<&SweepSeries> = report
                .series
                .iter()
                .filter(|s| s.algorithm.contains("Main.work:loop"))
                .collect();
            let merged = loop_rows
                .iter()
                .find(|s| s.thread.is_none())
                .expect("merged series");
            assert_eq!(merged.points.len(), 8, "two worker points per size");
            let fit_of = |t: usize| {
                loop_rows
                    .iter()
                    .find(|s| s.thread == Some(t))
                    .unwrap_or_else(|| panic!("per-thread series for t{t}"))
                    .fit
                    .expect("per-thread fit")
            };
            // Thread 0 (main) never runs the loop; t1 and t2 each get
            // their own verdict: both linear, t2 twice as steep.
            assert!(!loop_rows.iter().any(|s| s.thread == Some(0)));
            let (f1, f2) = (fit_of(1), fit_of(2));
            assert_eq!(f1.model, algoprof_fit::Model::Linear);
            assert_eq!(f2.model, algoprof_fit::Model::Linear);
            assert!(
                (f2.coeff / f1.coeff - 2.0).abs() < 0.2,
                "t2 builds twice the list: coeffs {} vs {}",
                f1.coeff,
                f2.coeff
            );
            let text = report.render_text();
            assert!(text.contains(" threads=3"));
            assert!(text.contains(" [t1] [default]"));
            let json = report.render_json();
            assert!(json.contains("\"threads\": 3"));
            assert!(json.contains("\"thread\": 1"));
            assert!(json.contains("\"thread\": null"));
            let html = report.render_html();
            assert!(html.contains(" [t2] "));
            renders.push((text, json, html));
        }
        assert_eq!(renders[0], renders[1], "renders differ across -j");
    }

    #[test]
    fn program_tags_keep_same_named_algorithms_apart() {
        // Two different programs whose main loop has the *same* root
        // name (same method, same line): linear construction vs. a
        // quadratic variant that re-walks the list each iteration.
        // Without program tags their points would merge into one bogus
        // curve; with tags each keeps its own complexity.
        const QUADRATIC_LIST: &str = "class Main { static int main() {
        int n = readInput();
        Node head = null;
        for (int i = 0; i < n; i = i + 1) {
            Node x = new Node(); x.next = head; head = x;
            Node c = head; while (c != null) { c = c.next; }
        }
        return 0;
    } }
    class Node { Node next; }";
        let mut jobs = Vec::new();
        for &n in &[4u64, 8, 16, 32] {
            jobs.push(SweepJob::for_program_size("lin", SIZED_LIST, n));
            jobs.push(SweepJob::for_program_size("quad", QUADRATIC_LIST, n));
        }
        let report = run_sweep(&jobs, &SweepConfig::default()).expect("sweeps");
        let fit_of = |tag: &str| {
            report
                .series
                .iter()
                .find(|s| s.program == tag && s.algorithm.contains("loop0"))
                .and_then(|s| s.fit)
                .expect("tagged series fits")
        };
        assert_eq!(fit_of("lin").model, algoprof_fit::Model::Linear);
        assert_eq!(fit_of("quad").model, algoprof_fit::Model::Quadratic);
        // The two programs share root names, so merging them would have
        // been possible only by ignoring the tag.
        let lin_names: Vec<_> = report
            .series
            .iter()
            .filter(|s| s.program == "lin")
            .map(|s| s.algorithm.clone())
            .collect();
        assert!(report
            .series
            .iter()
            .filter(|s| s.program == "quad")
            .any(|s| lin_names.contains(&s.algorithm)));
        // The text report carries the tag so the series stay readable.
        assert!(report.render_text().contains("algorithm lin "));
        assert!(report.render_json().contains("\"program\": \"quad\""));
    }
}

//! Daemon-side job plumbing: a self-contained job specification, its
//! deterministic execution, and a content-addressed cache key.
//!
//! The serve subsystem (crate `algoprof-serve`) accepts profiling work
//! over the wire and must answer two questions this module owns:
//!
//! 1. **What is a job?** [`JobSpec`] carries everything needed to run
//!    one unit of work — the guest source itself (not a path: the daemon
//!    may run on another machine), sizes, inputs, and the full
//!    [`AlgoProfOptions`] ablation set — so execution is a pure function
//!    of the spec.
//! 2. **When are two jobs the same?** [`JobSpec::cache_key`] hashes a
//!    canonical encoding of the spec (plus the trace-format and
//!    cache-schema versions) with SHA-256; equal keys ⇒ byte-identical
//!    [`JobOutput`]s, which is what lets the daemon serve a resubmission
//!    from cache without re-executing and still honour the sweep
//!    determinism contract.
//!
//! Both front doors run a job the same way: the one-shot CLI builds a
//! [`JobSpec`] for every job-shaped subcommand and calls
//! [`JobSpec::run`], exactly as a daemon worker does (through
//! [`JobSpec::execute`]). Only rendering differs: the daemon renders the
//! [`JobResult`] into a [`JobOutput`], the CLI renders it locally
//! (`--csv`, `--html`, `--check`, `--json`). So a daemon round-trip is
//! byte-identical to `algoprof sweep --json` / `algoprof <prog>` output
//! for the same spec.

use std::fmt;

use crate::hash::Sha256;
use crate::profile::ProfileSet;
use crate::profiler::AlgoProfOptions;
use crate::run::{profile, Guest, ProfileError, RunConfig};
use crate::sweep::{sweep, SweepAblation, SweepConfig, SweepError, SweepJob, SweepReport};

/// Bump when the canonical encoding hashed by [`JobSpec::cache_key`] or
/// the meaning of [`JobOutput`] changes, so stale cache dirs can never
/// serve results computed under different semantics. (3: per-thread
/// profiles — threaded guests render one section per thread plus a
/// merged view, and sweep reports carry thread columns.)
pub const CACHE_SCHEMA_VERSION: u32 = 3;

/// One unit of daemon work, self-contained (sources and traces ride in
/// the spec, never paths to them).
#[derive(Debug, Clone)]
pub enum JobSpec {
    /// `algoprof <program>`: compile, execute, profile, render text.
    Profile {
        /// Display name for reports (the CLI passes the program path).
        program: String,
        /// Guest source text.
        source: String,
        /// Values for `readInput()`.
        input: Vec<i64>,
        /// Profiler configuration.
        options: AlgoProfOptions,
    },
    /// `algoprof sweep`: one execution per size, every ablation fanned
    /// out over the same event stream, one merged deterministic report.
    Sweep {
        /// Display name for reports (the CLI passes the program path).
        program: String,
        /// Guest source text.
        source: String,
        /// Input sizes to sweep.
        sizes: Vec<u64>,
        /// Equivalence-criterion (or other option) ablations.
        ablations: Vec<SweepAblation>,
    },
    /// `algoprof analyze`: profile a recorded APTR trace.
    Analyze {
        /// The complete trace bytes.
        trace: Vec<u8>,
        /// Profiler configuration.
        options: AlgoProfOptions,
    },
}

/// What a job computed, before rendering.
#[derive(Debug)]
pub enum JobResult {
    /// A profile or analyze job: one profile per guest thread, and the
    /// guest source they came from (an analyze job takes it from the
    /// trace header), which `--check` cross-validates against.
    Profiles {
        /// The per-thread profiles.
        set: ProfileSet,
        /// The guest source text.
        source: String,
    },
    /// A sweep job's merged report.
    Sweep(SweepReport),
}

impl JobResult {
    /// Renders the result as the daemon returns it: the text report every
    /// kind has, plus the JSON report for sweeps.
    pub fn render(&self) -> JobOutput {
        match self {
            JobResult::Profiles { set, .. } => JobOutput {
                text: crate::report::render_set(set),
                json: None,
            },
            JobResult::Sweep(report) => JobOutput {
                text: report.render_text(),
                json: Some(report.render_json()),
            },
        }
    }
}

/// What a job produced: the text report every kind renders, plus the
/// machine-readable JSON report for sweeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOutput {
    /// The report exactly as the one-shot CLI prints it to stdout.
    pub text: String,
    /// `render_json()` of the sweep report (sweep jobs only).
    pub json: Option<String>,
}

/// Why a job failed (stringly typed for transport; the daemon relays it
/// verbatim to the submitting client).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError(pub String);

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for JobError {}

impl From<ProfileError> for JobError {
    fn from(e: ProfileError) -> Self {
        JobError(e.to_string())
    }
}

impl From<SweepError> for JobError {
    fn from(e: SweepError) -> Self {
        JobError(e.to_string())
    }
}

impl JobSpec {
    /// The job kind as a wire-protocol tag.
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Profile { .. } => "profile",
            JobSpec::Sweep { .. } => "sweep",
            JobSpec::Analyze { .. } => "analyze",
        }
    }

    /// Runs the job. `workers` and `progress` apply to sweeps only: the
    /// sweep's pool size (`0` means one per core) and whether it reports
    /// progress on stderr. `fuse` is [`RunConfig::fuse`] for every guest
    /// the job executes. The result is the same at any worker count and
    /// with fusion on or off.
    ///
    /// # Errors
    ///
    /// Returns [`JobError`] when the guest fails to compile or run, or a
    /// trace is malformed.
    pub fn run(&self, workers: usize, progress: bool, fuse: bool) -> Result<JobResult, JobError> {
        match self {
            JobSpec::Profile {
                source,
                input,
                options,
                ..
            } => {
                let config = RunConfig {
                    input: input.clone(),
                    options: *options,
                    fuse,
                    ..RunConfig::default()
                };
                Ok(JobResult::Profiles {
                    set: profile(Guest::Source(source), &config)?,
                    source: source.clone(),
                })
            }
            JobSpec::Sweep {
                program,
                source,
                sizes,
                ablations,
            } => {
                let jobs: Vec<SweepJob> = sizes
                    .iter()
                    .map(|&n| SweepJob::for_size(source, n))
                    .collect();
                let config = SweepConfig {
                    ablations: ablations.clone(),
                    workers,
                    progress,
                    program: program.clone(),
                };
                Ok(JobResult::Sweep(sweep(&jobs, &config, fuse)?))
            }
            JobSpec::Analyze { trace, options } => {
                let config = RunConfig {
                    options: *options,
                    ..RunConfig::default()
                };
                let set = profile(Guest::Trace(trace), &config)?;
                let (header, _) =
                    algoprof_trace::read_header(trace).expect("the replay decoded this header");
                Ok(JobResult::Profiles {
                    set,
                    source: header.source,
                })
            }
        }
    }

    /// Runs and renders the job as a daemon worker does, producing output
    /// byte-identical to the one-shot CLI for the same inputs.
    /// Deterministic: the same spec always yields the same [`JobOutput`],
    /// which is the property the content cache relies on.
    ///
    /// # Errors
    ///
    /// Same as [`JobSpec::run`].
    pub fn execute(&self) -> Result<JobOutput, JobError> {
        // One pool worker runs the whole job; an inner sweep stays serial
        // (nesting pools would oversubscribe). The daemon always fuses:
        // reports are the same either way.
        Ok(self.run(1, false, true)?.render())
    }

    /// The content-address of this job: a SHA-256 over a canonical
    /// encoding of everything execution depends on — kind, source or
    /// trace bytes, sizes, inputs, the full option set, the ablation
    /// list, the display name (it appears in rendered reports), and the
    /// trace-format + cache-schema versions. Equal keys imply
    /// byte-identical [`JobOutput`]s, so the daemon may serve any cached
    /// result under the same key to any client.
    pub fn cache_key(&self) -> String {
        let mut h = Sha256::new();
        let mut field = |tag: &str, bytes: &[u8]| {
            h.update(tag.as_bytes());
            h.update(&(bytes.len() as u64).to_le_bytes());
            h.update(bytes);
        };
        field("algoprof-cache", &CACHE_SCHEMA_VERSION.to_le_bytes());
        field("trace-version", &algoprof_trace::VERSION.to_le_bytes());
        field("kind", self.kind().as_bytes());
        match self {
            JobSpec::Profile {
                program,
                source,
                input,
                options,
            } => {
                field("program", program.as_bytes());
                field("source", source.as_bytes());
                let input: Vec<u8> = input.iter().flat_map(|v| v.to_le_bytes()).collect();
                field("input", &input);
                field("options", format!("{options:?}").as_bytes());
            }
            JobSpec::Sweep {
                program,
                source,
                sizes,
                ablations,
            } => {
                field("program", program.as_bytes());
                field("source", source.as_bytes());
                let sizes: Vec<u8> = sizes.iter().flat_map(|n| n.to_le_bytes()).collect();
                field("sizes", &sizes);
                for a in ablations {
                    field("ablation-name", a.name.as_bytes());
                    field("ablation-options", format!("{:?}", a.options).as_bytes());
                }
            }
            JobSpec::Analyze { trace, options } => {
                field("trace", trace);
                field("options", format!("{options:?}").as_bytes());
            }
        }
        h.finish_hex()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::EquivalenceCriterion;
    use algoprof_vm::InstrumentOptions;

    fn record(src: &str) -> Vec<u8> {
        crate::run::record_source_with(src, &InstrumentOptions::default(), &[]).expect("records")
    }

    const SRC: &str = "class Main { static int main() {
        int s = 0;
        for (int i = 0; i < 8; i = i + 1) { s = s + i; }
        return s;
    } }";

    /// A sized guest: builds then traverses an `n`-node list, where `n`
    /// is the swept size served through `readInput()`.
    const SIZED_SRC: &str = "class Main { static int main() {
        int n = readInput();
        Node head = null;
        for (int i = 0; i < n; i = i + 1) {
            Node x = new Node();
            x.next = head;
            head = x;
        }
        int c = 0;
        while (head != null) { c = c + 1; head = head.next; }
        return c;
    } }
    class Node { Node next; }";

    fn sweep_spec(sizes: &[u64]) -> JobSpec {
        JobSpec::Sweep {
            program: "prog.jay".into(),
            source: SIZED_SRC.into(),
            sizes: sizes.to_vec(),
            ablations: vec![SweepAblation::default()],
        }
    }

    #[test]
    fn cache_key_is_stable_and_sensitive() {
        let a = sweep_spec(&[4, 8]);
        assert_eq!(a.cache_key(), a.cache_key(), "same spec, same key");
        assert_eq!(a.cache_key().len(), 64, "sha-256 hex");
        let b = sweep_spec(&[4, 8, 16]);
        assert_ne!(a.cache_key(), b.cache_key(), "sizes are part of the key");
        let mut c = sweep_spec(&[4, 8]);
        if let JobSpec::Sweep { ablations, .. } = &mut c {
            ablations[0].options.criterion = EquivalenceCriterion::SameType;
        }
        assert_ne!(a.cache_key(), c.cache_key(), "options are part of the key");
        let mut d = sweep_spec(&[4, 8]);
        if let JobSpec::Sweep { program, .. } = &mut d {
            *program = "other.jay".into();
        }
        assert_ne!(
            a.cache_key(),
            d.cache_key(),
            "display name appears in reports, so it is part of the key"
        );
    }

    /// Field framing must prevent ambiguity: moving a byte between
    /// adjacent fields changes the key.
    #[test]
    fn cache_key_framing_is_unambiguous() {
        let a = JobSpec::Profile {
            program: "ab".into(),
            source: "c".into(),
            input: vec![],
            options: AlgoProfOptions::default(),
        };
        let b = JobSpec::Profile {
            program: "a".into(),
            source: "bc".into(),
            input: vec![],
            options: AlgoProfOptions::default(),
        };
        assert_ne!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn profile_execute_matches_direct_call() {
        let spec = JobSpec::Profile {
            program: "prog.jay".into(),
            source: SRC.into(),
            input: vec![],
            options: AlgoProfOptions::default(),
        };
        let out = spec.execute().expect("runs");
        let direct = crate::run::profile_source(SRC).expect("runs");
        // Single-threaded guests keep the exact pre-thread rendering.
        assert_eq!(out.text, direct.render_text());
        assert!(out.json.is_none());
    }

    #[test]
    fn sweep_execute_matches_run_sweep() {
        let spec = sweep_spec(&[4, 8]);
        let out = spec.execute().expect("runs");
        let JobSpec::Sweep {
            program,
            source,
            sizes,
            ablations,
        } = &spec
        else {
            unreachable!()
        };
        let jobs: Vec<SweepJob> = sizes
            .iter()
            .map(|&n| SweepJob::for_size(source, n))
            .collect();
        let report = crate::sweep::run_sweep(
            &jobs,
            &SweepConfig {
                ablations: ablations.clone(),
                workers: 4,
                progress: false,
                program: program.clone(),
            },
        )
        .expect("sweeps");
        assert_eq!(out.text, report.render_text());
        assert_eq!(out.json.as_deref(), Some(report.render_json().as_str()));
    }

    #[test]
    fn analyze_execute_matches_profile_trace() {
        let trace = record(SRC);
        let spec = JobSpec::Analyze {
            trace: trace.clone(),
            options: AlgoProfOptions::default(),
        };
        let out = spec.execute().expect("analyzes");
        let direct = profile(Guest::Trace(&trace), &RunConfig::default()).expect("replays");
        assert_eq!(out.text, direct.main().render_text());
    }

    /// The CLI renders `run`'s result itself and the daemon calls
    /// `execute`: both must see the same result for every kind, and a
    /// sweep's must not depend on its worker count.
    #[test]
    fn rendered_run_equals_execute_for_every_kind() {
        let specs = [
            JobSpec::Profile {
                program: "prog.jay".into(),
                source: SIZED_SRC.into(),
                input: vec![6],
                options: AlgoProfOptions::default(),
            },
            sweep_spec(&[4, 8, 16]),
            JobSpec::Analyze {
                trace: record(SRC),
                options: AlgoProfOptions::default(),
            },
        ];
        for spec in &specs {
            let executed = spec.execute().expect("executes");
            for (workers, fuse) in [(1, true), (2, true), (1, false)] {
                let result = spec.run(workers, false, fuse).expect("runs");
                assert_eq!(
                    result.render(),
                    executed,
                    "{} job at {workers} worker(s), fuse {fuse}",
                    spec.kind()
                );
            }
        }
        // An analyze job hands back the source embedded in its trace.
        let Ok(JobResult::Profiles { source, .. }) = specs[2].run(1, false, true) else {
            panic!("an analyze job yields profiles");
        };
        assert_eq!(source, SRC);
    }

    #[test]
    fn execute_reports_guest_errors() {
        let spec = JobSpec::Profile {
            program: "bad.jay".into(),
            source: "class Main {".into(),
            input: vec![],
            options: AlgoProfOptions::default(),
        };
        let err = spec.execute().unwrap_err();
        assert!(err.to_string().contains("compilation"));
    }
}

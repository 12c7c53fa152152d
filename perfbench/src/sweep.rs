//! `sweep_corpus`: one request is `run_sweep` over the committed sized
//! corpus under all four criteria ablations at `workers = nproc`, then
//! `render_text` and `render_json`. Both renderings must equal, byte for
//! byte, the same sweep at `workers = 1`, computed once per request
//! variant during set-up, where its fits are also checked.

use algoprof::{
    run_sweep, EquivalenceCriterion, JobSpec, SweepAblation, SweepConfig, SweepJob, SweepReport,
};
use algoprof_fit::ComplexityClass;
use algoprof_fit::ComplexityClass::{Linear, Quadratic};
use algoprof_programs::{
    sized_array_list_program, sized_insertion_sort_array_program, sized_insertion_sort_program,
    GrowthPolicy, SortWorkload,
};

use crate::spans::Spans;
use crate::stats::Rng;
use crate::Workload;
use crate::{affinity, check};

/// Distinct seeded size sets; request `i` runs variant `i % VARIANTS`.
const VARIANTS: usize = 4;

/// The corpus series whose complexity class is known independently of
/// the profiler: the sorts are quadratic, building their input is
/// linear, and growing an array list by one element is quadratic.
const EXPECTED_FITS: [(&str, &str, ComplexityClass); 5] = [
    ("insertion_sort_list", "List.sort:loop0", Quadratic),
    ("insertion_sort_list", "Main.constructList:loop0", Linear),
    ("insertion_sort_array", "Main.sort:loop0", Quadratic),
    ("insertion_sort_array", "Main.fill:loop0", Linear),
    ("arraylist_by1", "Main.main:loop0", Quadratic),
];

/// The corpus: name, source, and the smallest of its three size bands.
/// Profiling the list sort costs about n³ (a structure walk per access),
/// so its sizes are smaller, which keeps its largest job from being the
/// whole critical path of a parallel sweep.
fn corpus() -> Vec<(&'static str, String, u64)> {
    vec![
        (
            "arraylist_by1",
            sized_array_list_program(GrowthPolicy::ByOne),
            12,
        ),
        (
            "arraylist_dbl",
            sized_array_list_program(GrowthPolicy::Doubling),
            12,
        ),
        (
            "insertion_sort_list",
            sized_insertion_sort_program(SortWorkload::Reversed),
            8,
        ),
        (
            "insertion_sort_array",
            sized_insertion_sort_array_program(SortWorkload::Reversed),
            12,
        ),
        (
            "parallel_sum",
            include_str!("../../examples/parallel_sum.jay").to_string(),
            12,
        ),
        (
            "producer_consumer",
            include_str!("../../examples/producer_consumer.jay").to_string(),
            12,
        ),
    ]
}

fn ablations() -> Vec<SweepAblation> {
    [
        ("some", EquivalenceCriterion::SomeElements),
        ("all", EquivalenceCriterion::AllElements),
        ("array", EquivalenceCriterion::SameArray),
        ("type", EquivalenceCriterion::SameType),
    ]
    .into_iter()
    .map(|(name, criterion)| {
        let mut ablation = SweepAblation {
            name: name.to_string(),
            ..SweepAblation::default()
        };
        ablation.options.criterion = criterion;
        ablation
    })
    .collect()
}

/// Per variant and corpus program, three seeded sizes, one from each
/// octave band `[b, 4b/3)` for `b` = lo, 2·lo and 4·lo.
fn plan(seed: u64) -> Vec<Vec<Vec<u64>>> {
    let mut rng = Rng::new(seed);
    (0..VARIANTS)
        .map(|_| {
            corpus()
                .iter()
                .map(|&(_, _, lo)| {
                    [lo, 2 * lo, 4 * lo]
                        .iter()
                        .map(|&b| b + rng.below(b / 3))
                        .collect()
                })
                .collect()
        })
        .collect()
}

pub fn sweep(jobs: &[SweepJob], workers: usize) -> Result<SweepReport, String> {
    let config = SweepConfig {
        ablations: ablations(),
        workers,
        progress: false,
        program: "corpus".to_string(),
    };
    run_sweep(jobs, &config).map_err(|e| e.to_string())
}

pub struct Corpus {
    /// Per variant: the sizes of each corpus program.
    sizes: Vec<Vec<Vec<u64>>>,
    jobs: Vec<Vec<SweepJob>>,
    /// Per variant: text and JSON of the `workers = 1` sweep.
    reference: Vec<(String, String)>,
}

pub struct Rendered {
    text: String,
    json: String,
}

impl Corpus {
    pub fn setup(seed: u64) -> Result<Corpus, String> {
        let programs = corpus();
        let sizes = plan(seed);
        let jobs: Vec<Vec<SweepJob>> = sizes
            .iter()
            .map(|per_program| {
                programs
                    .iter()
                    .zip(per_program)
                    .flat_map(|((name, source, _), sizes)| {
                        sizes
                            .iter()
                            .map(|&n| SweepJob::for_program_size(name, source, n))
                    })
                    .collect()
            })
            .collect();
        let mut reference = Vec::new();
        for (k, variant) in jobs.iter().enumerate() {
            let report = sweep(variant, 1)?;
            check::sweep_fits(&report, &EXPECTED_FITS).map_err(|e| format!("variant {k}: {e}"))?;
            reference.push((report.render_text(), report.render_json()));
        }
        let mut corpus = Corpus {
            sizes,
            jobs,
            reference,
        };
        let reply = corpus.serve(0, &mut Spans::new(false))?;
        corpus
            .check(0, &reply)
            .map_err(|e| format!("warm-up: {e}"))?;
        Ok(corpus)
    }
}

impl Workload for Corpus {
    type Reply = Rendered;

    fn serve(&mut self, i: usize, spans: &mut Spans) -> Result<Rendered, String> {
        let jobs = &self.jobs[i % VARIANTS];
        let report = spans.time("sweep.run", || sweep(jobs, affinity::nproc()))?;
        let text = spans.time("render.sweep_text", || report.render_text());
        let json = spans.time("render.json", || report.render_json());
        Ok(Rendered { text, json })
    }

    fn check(&self, i: usize, reply: &Rendered) -> Result<(), String> {
        let (text, json) = &self.reference[i % VARIANTS];
        check::same_bytes("sweep text at workers=nproc", &reply.text, text)?;
        check::same_bytes("sweep JSON at workers=nproc", &reply.json, json)
    }

    fn probe_jobs(&self) -> Vec<SweepJob> {
        self.jobs[0].clone()
    }

    fn probe_specs(&self) -> Vec<JobSpec> {
        corpus()
            .into_iter()
            .zip(&self.sizes[0])
            .map(|((name, source, _), sizes)| JobSpec::Sweep {
                program: name.to_string(),
                source,
                sizes: sizes.clone(),
                ablations: ablations(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_sets_are_seeded() {
        assert_eq!(plan(5), plan(5));
        assert_ne!(plan(5), plan(6));
    }

    #[test]
    fn fit_check_rejects_a_wrong_class() {
        let source = sized_insertion_sort_array_program(SortWorkload::Reversed);
        let jobs: Vec<SweepJob> = [8, 16, 32]
            .iter()
            .map(|&n| SweepJob::for_program_size("a", &source, n))
            .collect();
        let mut report = sweep(&jobs, 1).expect("sweeps");
        let sort = [("a", "Main.sort:loop0", Quadratic)];
        assert_eq!(check::sweep_fits(&report, &sort), Ok(()));
        assert!(check::sweep_fits(&report, &[("a", "Main.sort:loop0", Linear)]).is_err());
        assert!(check::sweep_fits(&report, &[("a", "Main.nosuch", Linear)]).is_err());
        for series in &mut report.series {
            if let Some(fit) = &mut series.fit {
                fit.model = algoprof_fit::Model::Linear;
            }
        }
        assert!(check::sweep_fits(&report, &sort).is_err());
    }
}

//! `live_list_sort` and `live_array_sort`: one request is
//! `JobSpec::Profile { .. }.execute()`, the code `algoprof <prog>` and
//! the daemon's workers run, on a sized insertion sort at a seeded size.
//! Traced requests make the same calls one layer at a time.

use algoprof::{render_set, AlgoProf, AlgoProfOptions, JobSpec, SweepJob};
use algoprof_programs::{
    sized_insertion_sort_array_program, sized_insertion_sort_program, SortWorkload,
};
use algoprof_vm::{compile, InstrumentOptions, Interp};

use crate::check;
use crate::spans::Spans;
use crate::stats::{stratified_sizes, Rng};
use crate::Workload;

/// Requests in the seeded list; the loop wraps around it.
const REQUESTS: usize = 4096;
/// Size strata per block of the request list. Set-up serves the first
/// block, one request per stratum, before any request is timed.
const STRATA: u64 = 16;

pub struct Live {
    program: &'static str,
    source: String,
    sizes: Vec<u64>,
    check: fn(&str, u64) -> Result<(), String>,
}

impl Live {
    /// The linked-list sort on random values, sizes 100..164: mostly
    /// attribution and input sizing (structure walks).
    pub fn list(seed: u64) -> Result<Live, String> {
        Live::setup(
            "sized_insertion_sort.jay",
            sized_insertion_sort_program(SortWorkload::Random),
            100,
            check::list_sort_report,
            seed,
        )
    }

    /// The array sort on reversed values, sizes 160..224: the most
    /// dispatch-heavy user path, sized through the array write log.
    pub fn array(seed: u64) -> Result<Live, String> {
        Live::setup(
            "sized_insertion_sort_array.jay",
            sized_insertion_sort_array_program(SortWorkload::Reversed),
            160,
            check::array_sort_report,
            seed,
        )
    }

    fn setup(
        program: &'static str,
        source: String,
        lo: u64,
        check: fn(&str, u64) -> Result<(), String>,
        seed: u64,
    ) -> Result<Live, String> {
        let sizes = stratified_sizes(&mut Rng::new(seed), lo, 4, STRATA, REQUESTS);
        let mut live = Live {
            program,
            source,
            sizes,
            check,
        };
        let mut off = Spans::new(false);
        for i in 0..STRATA as usize {
            let reply = live.serve(i, &mut off)?;
            live.check(i, &reply).map_err(|e| format!("warm-up: {e}"))?;
        }
        Ok(live)
    }

    fn size(&self, i: usize) -> u64 {
        self.sizes[i % self.sizes.len()]
    }

    fn spec(&self, i: usize) -> JobSpec {
        JobSpec::Profile {
            program: self.program.to_string(),
            source: self.source.clone(),
            input: vec![self.size(i) as i64],
            options: AlgoProfOptions::default(),
        }
    }
}

impl Workload for Live {
    type Reply = String;

    fn serve(&mut self, i: usize, spans: &mut Spans) -> Result<String, String> {
        if !spans.is_on() {
            return self
                .spec(i)
                .execute()
                .map(|out| out.text)
                .map_err(|e| e.to_string());
        }
        // The steps of `JobSpec::execute` for a profile job, one span each.
        let input = vec![self.size(i) as i64];
        let program = spans
            .time("vm.compile", || {
                compile(&self.source)
                    .map(|p| p.instrument(&InstrumentOptions::default()).fuse_default())
            })
            .map_err(|e| e.to_string())?;
        let mut profiler = AlgoProf::with_options(AlgoProfOptions::default());
        spans
            .time("vm+profiler.run", || {
                Interp::new(&program).with_input(input).run(&mut profiler)
            })
            .map_err(|e| e.to_string())?;
        let set = spans.time("finish", || profiler.finish_set(&program));
        Ok(spans.time("render.text", || render_set(&set)))
    }

    fn check(&self, i: usize, reply: &String) -> Result<(), String> {
        (self.check)(reply, self.size(i))
    }

    fn probe_jobs(&self) -> Vec<SweepJob> {
        (0..3)
            .map(|i| SweepJob::for_program_size(self.program, &self.source, self.size(i)))
            .collect()
    }

    fn probe_specs(&self) -> Vec<JobSpec> {
        (0..3).map(|i| self.spec(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Traced requests make `JobSpec::execute`'s steps one at a time; if
    /// `execute` changes, their answer stops matching it here.
    #[test]
    fn traced_steps_answer_like_execute() {
        let workloads = [
            (
                "sized_insertion_sort.jay",
                sized_insertion_sort_program(SortWorkload::Random),
            ),
            (
                "sized_insertion_sort_array.jay",
                sized_insertion_sort_array_program(SortWorkload::Reversed),
            ),
        ];
        for (program, source) in workloads {
            let mut live = Live {
                program,
                source,
                sizes: vec![12, 13],
                check: check::array_sort_report,
            };
            for i in 0..2 {
                let traced = live.serve(i, &mut Spans::new(true)).expect("serves");
                let execute = live.spec(i).execute().expect("executes").text;
                assert_eq!(traced, execute, "{program} at n={}", live.size(i));
            }
        }
    }
}

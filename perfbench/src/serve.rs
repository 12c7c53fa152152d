//! `serve_mixed`: an in-process daemon on an ephemeral port, driven by
//! one closed-loop client over HTTP. Each block of ten requests holds
//! four cold profile jobs, four resubmissions of jobs the cache already
//! holds, and two synchronous trace uploads, in a seeded order.
//!
//! Jobs are polled with `client::status` every [`POLL`], a quarter of a
//! cold job's run time, so latency is not quantized by the 15 ms sleep
//! of `client::wait`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use algoprof::{record_source_with, AlgoProfOptions, JobSpec, SweepJob};
use algoprof_programs::{sized_insertion_sort_program, SortWorkload};
use algoprof_serve::{client, JobStatus, Server, ServerAddr, ServerConfig};
use algoprof_vm::InstrumentOptions;

use crate::spans::Spans;
use crate::stats::{stratified_sizes, Rng};
use crate::Workload;
use crate::{affinity, check};

pub const POLL: Duration = Duration::from_millis(2);
const REQUESTS: usize = 4000;
/// Every job and trace is of the random list sort at one of the sizes
/// `N_LO..N_LO + SIZES`: cold jobs, the hot jobs that set-up submits and
/// hit requests resubmit (hot job `k` has size `N_LO + k`), and the
/// traces that set-up records and upload requests stream (likewise).
/// Each kind walks through all sizes in every block of `SIZES` of its
/// requests, so the latency distribution has no gaps that would let a
/// percentile jump with the seed.
const N_LO: u64 = 32;
const SIZES: u64 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Cold(u64),
    Hit(usize),
    Stream(usize),
}

pub enum Reply {
    Job {
        size: u64,
        hit: bool,
        status: JobStatus,
    },
    Stream {
        trace: usize,
        text: String,
    },
}

pub struct Mixed {
    server: Option<Server>,
    addr: ServerAddr,
    source: String,
    requests: Vec<Kind>,
    traces: Vec<Vec<u8>>,
    /// `JobSpec::execute()` text of a profile job, by input size.
    profile_ref: BTreeMap<u64, String>,
    /// `JobSpec::execute()` text of an analyze job, by trace.
    stream_ref: Vec<String>,
}

/// Starts a daemon whose workers plus the client fit the host's cores.
pub fn start_daemon() -> Result<(Server, ServerAddr), String> {
    let config = ServerConfig {
        workers: affinity::nproc().saturating_sub(1).max(1),
        queue_capacity: 64,
        cache_dir: None,
    };
    let server = Server::start("127.0.0.1:0", config).map_err(|e| format!("daemon: {e}"))?;
    let addr = ServerAddr::Tcp(
        server
            .addr()
            .expect("a TCP daemon has an address")
            .to_string(),
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while let Err(e) = client::health(&addr) {
        if Instant::now() > deadline {
            return Err(format!("daemon never answered /api/v1/health: {e}"));
        }
        std::thread::sleep(POLL);
    }
    Ok((server, addr))
}

/// What polling one submitted job saw.
pub struct Polled {
    pub status: JobStatus,
    pub polls: u64,
    /// Until the first answer that was no longer `queued`.
    pub queued: Duration,
}

/// Polls job `id` every [`POLL`] until it is done or failed, each
/// status request inside a span named `span`.
pub fn poll(
    addr: &ServerAddr,
    id: &str,
    spans: &mut Spans,
    span: &'static str,
) -> Result<Polled, String> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs(60);
    let (mut polls, mut queued) = (0, None);
    loop {
        let status = spans
            .time(span, || client::status(addr, id))
            .map_err(|e| e.to_string())?;
        polls += 1;
        if status.status != "queued" {
            queued.get_or_insert(start.elapsed());
        }
        if matches!(status.status.as_str(), "done" | "failed") {
            let queued = queued.expect("set on a done answer");
            return Ok(Polled {
                status,
                polls,
                queued,
            });
        }
        if Instant::now() > deadline {
            return Err(format!("job {id} still {} after 60 s", status.status));
        }
        spans.time("serve.poll_wait", || std::thread::sleep(POLL));
    }
}

impl Mixed {
    pub fn setup(seed: u64) -> Result<Mixed, String> {
        let requests = plan(seed);
        let source = sized_insertion_sort_program(SortWorkload::Random);
        let mut traces = Vec::new();
        for n in N_LO..N_LO + SIZES {
            let trace = record_source_with(&source, &InstrumentOptions::default(), &[n as i64])
                .map_err(|e| format!("recording a trace at n={n}: {e}"))?;
            traces.push(trace);
        }

        let mut profile_ref = BTreeMap::new();
        for n in N_LO..N_LO + SIZES {
            let out = profile_spec(&source, "reference.jay", n)
                .execute()
                .map_err(|e| e.to_string())?;
            profile_ref.insert(n, out.text);
        }
        let mut stream_ref = Vec::new();
        for trace in &traces {
            let spec = JobSpec::Analyze {
                trace: trace.clone(),
                options: AlgoProfOptions::default(),
            };
            stream_ref.push(spec.execute().map_err(|e| e.to_string())?.text);
        }

        let (server, addr) = start_daemon()?;
        let mixed = Mixed {
            server: Some(server),
            addr,
            source,
            requests,
            traces,
            profile_ref,
            stream_ref,
        };
        // Warm-up: fill the cache with the hot set, upload every trace.
        let mut off = Spans::new(false);
        for k in 0..SIZES as usize {
            let reply = mixed.submit(&hot_spec(&mixed.source, k), N_LO + k as u64, &mut off)?;
            mixed
                .check_reply(&reply)
                .map_err(|e| format!("warm-up: {e}"))?;
        }
        for k in 0..SIZES as usize {
            let reply = mixed.stream(k, &mut off)?;
            mixed
                .check_reply(&reply)
                .map_err(|e| format!("warm-up: {e}"))?;
        }
        Ok(mixed)
    }

    fn submit(&self, spec: &JobSpec, size: u64, spans: &mut Spans) -> Result<Reply, String> {
        let submitted = spans
            .time("serve.submit", || client::submit(&self.addr, spec))
            .map_err(|e| e.to_string())?;
        let hit = submitted.cache == "hit";
        let polled = poll(&self.addr, &submitted.id, spans, "serve.status")?;
        Ok(Reply::Job {
            size,
            hit,
            status: polled.status,
        })
    }

    fn stream(&self, k: usize, spans: &mut Spans) -> Result<Reply, String> {
        let report = spans
            .time("serve.stream", || {
                client::stream_trace(&self.addr, &mut &self.traces[k][..], "")
            })
            .map_err(|e| e.to_string())?;
        Ok(Reply::Stream {
            trace: k,
            text: report.text,
        })
    }

    fn check_reply(&self, reply: &Reply) -> Result<(), String> {
        match reply {
            Reply::Job { size, status, .. } => {
                if status.status != "done" {
                    return Err(format!(
                        "job {} {}: {:?}",
                        status.id, status.status, status.error
                    ));
                }
                let text = status.output.as_ref().map_or("", |o| o.text.as_str());
                check::same_bytes("daemon profile answer", text, &self.profile_ref[size])
            }
            Reply::Stream { trace, text } => {
                check::same_bytes("daemon stream answer", text, &self.stream_ref[*trace])
            }
        }
    }
}

/// The seeded request list. The 4 / 4 / 2 shares are an assumption, not
/// measured traffic; WORKLOADS.md says why they were chosen.
fn plan(seed: u64) -> Vec<Kind> {
    let mut rng = Rng::new(seed);
    let mut order = || stratified_sizes(&mut rng, 0, 1, SIZES, REQUESTS).into_iter();
    let (mut cold, mut hit, mut stream) = (order(), order(), order());
    let mut requests = Vec::with_capacity(REQUESTS);
    while requests.len() < REQUESTS {
        let mut block = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2];
        rng.shuffle(&mut block);
        requests.extend(block.iter().map(|kind| match kind {
            0 => Kind::Cold(N_LO + cold.next().expect("one per request")),
            1 => Kind::Hit(hit.next().expect("one per request") as usize),
            _ => Kind::Stream(stream.next().expect("one per request") as usize),
        }));
    }
    requests
}

/// Hot job `k`: submitted during set-up, resubmitted by hit requests.
fn hot_spec(source: &str, k: usize) -> JobSpec {
    profile_spec(source, &format!("hot-{k}.jay"), N_LO + k as u64)
}

fn profile_spec(source: &str, program: &str, n: u64) -> JobSpec {
    JobSpec::Profile {
        program: program.to_string(),
        source: source.to_string(),
        input: vec![n as i64],
        options: AlgoProfOptions::default(),
    }
}

impl Drop for Mixed {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Workload for Mixed {
    type Reply = (Kind, Reply);

    fn serve(&mut self, i: usize, spans: &mut Spans) -> Result<(Kind, Reply), String> {
        let kind = self.requests[i % REQUESTS];
        let reply = match kind {
            // The request index names the program, so every cold job has
            // its own cache key and misses.
            Kind::Cold(n) => self.submit(
                &profile_spec(&self.source, &format!("cold-{i}.jay"), n),
                n,
                spans,
            )?,
            Kind::Hit(k) => self.submit(&hot_spec(&self.source, k), N_LO + k as u64, spans)?,
            Kind::Stream(k) => self.stream(k, spans)?,
        };
        Ok((kind, reply))
    }

    fn check(&self, _i: usize, (kind, reply): &(Kind, Reply)) -> Result<(), String> {
        if let (Kind::Cold(_) | Kind::Hit(_), Reply::Job { hit, .. }) = (kind, reply) {
            let want_hit = matches!(kind, Kind::Hit(_));
            if *hit != want_hit {
                return Err(format!(
                    "{kind:?}: cache {}",
                    if *hit { "hit" } else { "miss" }
                ));
            }
        }
        self.check_reply(reply)
    }

    fn probe_jobs(&self) -> Vec<SweepJob> {
        (0..3)
            .map(|k| SweepJob::for_program_size("serve_mixed", &self.source, N_LO + k))
            .collect()
    }

    fn probe_specs(&self) -> Vec<JobSpec> {
        (0..4)
            .map(|k| profile_spec(&self.source, &format!("probe-{k}.jay"), N_LO + k))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_list_is_seeded_with_fixed_shares() {
        let a = plan(3);
        assert_eq!(a, plan(3));
        assert_ne!(a, plan(4));
        for block in a.chunks(10) {
            let cold = block.iter().filter(|k| matches!(k, Kind::Cold(_))).count();
            let hit = block.iter().filter(|k| matches!(k, Kind::Hit(_))).count();
            assert_eq!((cold, hit, block.len() - cold - hit), (4, 4, 2));
        }
    }

    #[test]
    fn daemon_answers_are_checked_against_execute() {
        let mut mixed = Mixed::setup(1).expect("sets up");
        let mut spans = Spans::new(false);
        let i = (0..REQUESTS)
            .find(|&i| matches!(mixed.requests[i], Kind::Hit(_)))
            .expect("a hit");
        let mut reply = mixed.serve(i, &mut spans).expect("serves");
        assert_eq!(mixed.check(i, &reply), Ok(()));
        // A cold job answered from the cache is a failed check.
        let cold = (Kind::Cold(N_LO), reply.1);
        assert!(mixed.check(i, &cold).is_err());
        reply = (cold.0, cold.1);
        if let Reply::Job { hit, status, .. } = &mut reply.1 {
            *hit = false;
            let output = status.output.as_mut().expect("a done job has output");
            output.text.push(' ');
        }
        assert!(mixed.check(i, &reply).unwrap_err().contains("differs"));
        let stream = Reply::Stream {
            trace: 0,
            text: "Repetition tree\n".into(),
        };
        assert!(mixed.check_reply(&stream).is_err());
    }
}

//! The serve daemon: an accept loop feeding a bounded job queue on a
//! persistent worker pool, with a content-addressed result cache in
//! front of execution.
//!
//! # Endpoints
//!
//! | method | path                  | purpose                               |
//! |--------|-----------------------|---------------------------------------|
//! | POST   | `/api/v1/jobs`        | submit a job (JSON [`JobSpec`])       |
//! | GET    | `/api/v1/jobs/<id>`   | poll status / fetch the result        |
//! | POST   | `/api/v1/stream`      | upload an APTR trace, analyzed as it arrives |
//! | GET    | `/api/v1/cache/stats` | result- and program-cache counters    |
//! | GET    | `/api/v1/health`      | liveness probe                        |
//! | POST   | `/api/v1/shutdown`    | graceful stop (drains accepted jobs)  |
//!
//! Submission consults the cache first: a hit creates an
//! already-`done` job with `"cache":"hit"` and never touches the
//! queue. A miss enqueues execution on the pool; a full queue is a 503
//! (backpressure, not buffering). Results are stored back under the
//! job's content address, so identical resubmissions — from any client,
//! at any `--workers` — return byte-identical output without
//! re-execution.
//!
//! Execution takes each program from the daemon's [`ProgramCache`]:
//! profile jobs, analyze jobs and trace uploads of a source the daemon
//! has already compiled (under the same instrumentation and fusion) run
//! the kept program instead of compiling it again.
//!
//! [`JobSpec`]: algoprof::JobSpec

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use algoprof::{default_workers, JobOutput, ProgramCache, StreamingAnalysis, WorkerPool};

use crate::api::{job_from_json, options_from_json};
use crate::cache::ResultCache;
use crate::http;
use crate::json::{self, Json};

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing jobs; 0 means all cores.
    pub workers: usize,
    /// Jobs the queue holds before submissions bounce with 503.
    pub queue_capacity: usize,
    /// Persist cached results under this directory.
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            queue_capacity: 64,
            cache_dir: None,
        }
    }
}

#[derive(Debug)]
enum JobState {
    Queued,
    Running,
    Done(Arc<JobOutput>),
    Failed(String),
}

#[derive(Debug)]
struct JobRecord {
    kind: &'static str,
    cache_key: String,
    cache_hit: bool,
    state: JobState,
}

struct ServerState {
    jobs: Mutex<HashMap<u64, JobRecord>>,
    next_id: AtomicU64,
    cache: ResultCache,
    programs: ProgramCache,
    pool: WorkerPool,
    stop: AtomicBool,
    /// Wakes the (blocking) accept loop so it observes `stop`.
    wake: Box<dyn Fn() + Send + Sync>,
}

/// A running daemon. [`Server::start`] returns immediately; callers
/// embed it (tests, benchmarks) or [`Server::join`] it (the CLI).
pub struct Server {
    addr: Option<SocketAddr>,
    state: Arc<ServerState>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts accepting.
    pub fn start(addr: &str, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        Server::launch(
            Some(local),
            &config,
            Box::new(move || drop(TcpStream::connect(local))),
            move || listener.accept().map(|(stream, _)| stream),
            None,
        )
    }

    /// Binds a Unix domain socket at `path` (replacing a stale one) and
    /// starts accepting.
    #[cfg(unix)]
    pub fn start_unix(path: &std::path::Path, config: ServerConfig) -> io::Result<Server> {
        // A previous daemon that died uncleanly leaves the socket file
        // behind; binding would fail with AddrInUse.
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        let wake_path = path.to_path_buf();
        Server::launch(
            None,
            &config,
            Box::new(move || drop(UnixStream::connect(&wake_path))),
            move || listener.accept().map(|(stream, _)| stream),
            Some(path.to_path_buf()),
        )
    }

    /// Starts the accept loop of either transport: one thread per
    /// connection until a stop request and the `wake` connection that
    /// follows it. `socket_file` is removed once every connection has
    /// finished.
    fn launch<S: Read + Write + Send + 'static>(
        addr: Option<SocketAddr>,
        config: &ServerConfig,
        wake: Box<dyn Fn() + Send + Sync>,
        mut accept: impl FnMut() -> io::Result<S> + Send + 'static,
        socket_file: Option<PathBuf>,
    ) -> io::Result<Server> {
        let workers = if config.workers == 0 {
            default_workers()
        } else {
            config.workers
        };
        let state = Arc::new(ServerState {
            jobs: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            cache: ResultCache::new(config.cache_dir.clone())?,
            programs: ProgramCache::new(),
            pool: WorkerPool::new(workers, config.queue_capacity),
            stop: AtomicBool::new(false),
            wake,
        });
        let accept_state = Arc::clone(&state);
        let accept = std::thread::spawn(move || {
            let mut conns = Vec::new();
            loop {
                let stream = accept();
                if accept_state.stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let conn_state = Arc::clone(&accept_state);
                conns.push(std::thread::spawn(move || {
                    handle_connection(stream, &conn_state)
                }));
                reap_finished(&mut conns);
            }
            // Every accepted connection finishes its response before the
            // accept thread (and with it the daemon) exits — otherwise
            // the shutdown acknowledgement itself can be cut off
            // mid-write when the process dies.
            for handle in conns {
                let _ = handle.join();
            }
            if let Some(path) = socket_file {
                let _ = std::fs::remove_file(path);
            }
        });
        Ok(Server {
            addr,
            state,
            accept: Some(accept),
        })
    }

    /// The bound TCP address (None for Unix-socket servers).
    pub fn addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// Blocks until a shutdown request stops the accept loop, then
    /// drains the worker pool (jobs already accepted still finish).
    pub fn join(mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }

    /// Asks the daemon to stop (same effect as the shutdown endpoint)
    /// and waits for it.
    pub fn shutdown(self) {
        self.state.stop.store(true, Ordering::SeqCst);
        (self.state.wake)();
        self.join();
    }
}

/// Keeps the live-connection handle list from growing without bound on
/// a long-lived daemon (polling clients open thousands of short
/// connections).
fn reap_finished(conns: &mut Vec<std::thread::JoinHandle<()>>) {
    if conns.len() >= 64 {
        conns.retain(|h| !h.is_finished());
    }
}

/// One request/response exchange per connection (`Connection: close`).
fn handle_connection<T: Read + Write>(stream: T, state: &Arc<ServerState>) {
    let mut reader = BufReader::new(stream);
    let (status, body) = match route(&mut reader, state) {
        Ok(response) => response,
        // Peer closed without sending a request (e.g. the shutdown
        // self-wake): nothing to answer.
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return,
        Err(e) => (400, error_json(&e.to_string())),
    };
    let _ = http::write_response(
        reader.get_mut(),
        status,
        "application/json",
        body.to_string_compact().as_bytes(),
    );
    if state.stop.load(Ordering::SeqCst) {
        // Shutdown was requested on this connection: wake the accept
        // loop now that the acknowledgement is on the wire.
        (state.wake)();
    }
}

fn error_json(message: &str) -> Json {
    Json::obj(vec![("error", Json::Str(message.into()))])
}

fn route<R: BufRead>(reader: &mut R, state: &Arc<ServerState>) -> io::Result<(u16, Json)> {
    let Some(request) = http::read_request(reader)? else {
        // Peer connected and closed without a request (e.g. the
        // shutdown self-wake); nothing to answer.
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "no request"));
    };
    let (path, query) = match request.path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (request.path.as_str(), ""),
    };
    match (request.method.as_str(), path) {
        ("POST", "/api/v1/jobs") => {
            let kind = http::body_kind(&request)?;
            let body = http::read_body(reader, kind)?;
            Ok(submit(state, &body))
        }
        ("GET", _) if path.starts_with("/api/v1/jobs/") => {
            let id = &path["/api/v1/jobs/".len()..];
            Ok(job_status(state, id))
        }
        ("POST", "/api/v1/stream") => {
            let kind = http::body_kind(&request)?;
            Ok(stream_analyze(state, reader, kind, query))
        }
        ("GET", "/api/v1/cache/stats") => {
            let stats = state.cache.stats();
            let programs = state.programs.stats();
            Ok((
                200,
                Json::obj(vec![
                    ("entries", Json::Num(stats.entries as f64)),
                    ("hits", Json::Num(stats.hits as f64)),
                    ("misses", Json::Num(stats.misses as f64)),
                    ("stores", Json::Num(stats.stores as f64)),
                    (
                        "programs",
                        Json::obj(vec![
                            ("entries", Json::Num(programs.entries as f64)),
                            ("hits", Json::Num(programs.hits as f64)),
                            ("misses", Json::Num(programs.misses as f64)),
                            ("evictions", Json::Num(programs.evictions as f64)),
                        ]),
                    ),
                ]),
            ))
        }
        ("GET", "/api/v1/health") => Ok((200, Json::obj(vec![("ok", Json::Bool(true))]))),
        ("POST", "/api/v1/shutdown") => {
            state.stop.store(true, Ordering::SeqCst);
            Ok((200, Json::obj(vec![("ok", Json::Bool(true))])))
        }
        ("POST" | "GET", _) => Ok((404, error_json(&format!("no such endpoint {path:?}")))),
        (method, _) => Ok((405, error_json(&format!("unsupported method {method:?}")))),
    }
}

fn submit(state: &Arc<ServerState>, body: &[u8]) -> (u16, Json) {
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(_) => return (400, error_json("body is not UTF-8")),
    };
    let value = match json::parse(text) {
        Ok(value) => value,
        Err(e) => return (400, error_json(&format!("bad JSON: {e}"))),
    };
    let spec = match job_from_json(&value) {
        Ok(spec) => spec,
        Err(e) => return (400, error_json(&e)),
    };
    let cache_key = spec.cache_key();
    let kind = spec.kind();
    let id = state.next_id.fetch_add(1, Ordering::SeqCst) + 1;
    let id_text = format!("j{id}");

    if let Some(output) = state.cache.get(&cache_key) {
        state.jobs.lock().expect("job table").insert(
            id,
            JobRecord {
                kind,
                cache_key,
                cache_hit: true,
                state: JobState::Done(output),
            },
        );
        return (
            200,
            Json::obj(vec![
                ("id", Json::Str(id_text)),
                ("status", Json::Str("done".into())),
                ("cache", Json::Str("hit".into())),
            ]),
        );
    }

    state.jobs.lock().expect("job table").insert(
        id,
        JobRecord {
            kind,
            cache_key: cache_key.clone(),
            cache_hit: false,
            state: JobState::Queued,
        },
    );
    let job_state = Arc::clone(state);
    let submitted = state.pool.try_submit(move || {
        set_state(&job_state, id, JobState::Running);
        match spec.execute_in(&job_state.programs) {
            Ok(output) => {
                let output = Arc::new(output);
                job_state.cache.put(&cache_key, Arc::clone(&output));
                set_state(&job_state, id, JobState::Done(output));
            }
            Err(e) => set_state(&job_state, id, JobState::Failed(e.to_string())),
        }
    });
    if submitted.is_err() {
        state.jobs.lock().expect("job table").remove(&id);
        return (503, error_json("job queue is full, try again"));
    }
    (
        202,
        Json::obj(vec![
            ("id", Json::Str(id_text)),
            ("status", Json::Str("queued".into())),
            ("cache", Json::Str("miss".into())),
        ]),
    )
}

fn set_state(state: &ServerState, id: u64, new: JobState) {
    if let Some(record) = state.jobs.lock().expect("job table").get_mut(&id) {
        record.state = new;
    }
}

fn job_status(state: &Arc<ServerState>, id: &str) -> (u16, Json) {
    let Some(number) = id.strip_prefix('j').and_then(|n| n.parse::<u64>().ok()) else {
        return (404, error_json(&format!("malformed job id {id:?}")));
    };
    let jobs = state.jobs.lock().expect("job table");
    let Some(record) = jobs.get(&number) else {
        return (404, error_json(&format!("no such job {id:?}")));
    };
    let mut members = vec![
        ("id", Json::Str(id.to_owned())),
        ("kind", Json::Str(record.kind.into())),
        ("cache_key", Json::Str(record.cache_key.clone())),
        (
            "cache",
            Json::Str(if record.cache_hit { "hit" } else { "miss" }.into()),
        ),
    ];
    match &record.state {
        JobState::Queued => members.push(("status", Json::Str("queued".into()))),
        JobState::Running => members.push(("status", Json::Str("running".into()))),
        JobState::Done(output) => {
            members.push(("status", Json::Str("done".into())));
            members.push((
                "output",
                Json::obj(vec![
                    ("text", Json::Str(output.text.clone())),
                    (
                        "json",
                        output
                            .json
                            .as_ref()
                            .map(|j| Json::Str(j.clone()))
                            .unwrap_or(Json::Null),
                    ),
                ]),
            ));
        }
        JobState::Failed(message) => {
            members.push(("status", Json::Str("failed".into())));
            members.push(("error", Json::Str(message.clone())));
        }
    }
    (200, Json::obj(members))
}

/// The streaming path: the APTR body is fed into [`StreamingAnalysis`]
/// chunk by chunk as it is read off the socket, so replay and online
/// fitting overlap the upload instead of waiting for it. The trace's
/// program comes from the daemon's program cache; the result is not
/// cached (an upload has no job spec to key it by).
fn stream_analyze<R: BufRead>(
    state: &Arc<ServerState>,
    reader: &mut R,
    kind: http::BodyKind,
    query: &str,
) -> (u16, Json) {
    let options = match options_from_query(query) {
        Ok(options) => options,
        Err(e) => return (400, error_json(&e)),
    };
    let mut analysis = StreamingAnalysis::with_programs(options, &state.programs);
    let mut trace_error: Option<String> = None;
    let streamed = http::read_body_streaming(reader, kind, |chunk| {
        if trace_error.is_none() {
            if let Err(e) = analysis.feed(chunk) {
                // Remember the analysis failure but keep draining the
                // body so the client can read our response.
                trace_error = Some(e.to_string());
            }
        }
        Ok(())
    });
    if let Err(e) = streamed {
        return (400, error_json(&e.to_string()));
    }
    if let Some(e) = trace_error {
        return (400, error_json(&e));
    }
    let report = match analysis.finish() {
        Ok(report) => report,
        Err(e) => return (400, error_json(&e.to_string())),
    };
    (
        200,
        Json::obj(vec![
            ("text", Json::Str(algoprof::render_set(&report.profiles))),
            (
                "stream_fits",
                Json::Str(algoprof::render_stream_fits(&report)),
            ),
            ("events", Json::Num(report.events as f64)),
            ("bytes", Json::Num(report.bytes as f64)),
        ]),
    )
}

/// Parses `criterion=...&sizing=...&snapshots=...&grouping=...` query
/// options (same names and values as the CLI flags).
fn options_from_query(query: &str) -> Result<algoprof::AlgoProfOptions, String> {
    let mut members = Vec::new();
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair
            .split_once('=')
            .ok_or_else(|| format!("malformed query parameter {pair:?}"))?;
        members.push((k.to_owned(), Json::Str(v.to_owned())));
    }
    options_from_json(Some(&Json::Obj(members)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{self, ServerAddr};
    use algoprof::{record_source_with, Guest, JobSpec, RunConfig};

    const SRC: &str = "class Main { static int main() {
        int size = readInput();
        Node head = null;
        for (int i = 0; i < size; i = i + 1) {
            Node n = new Node();
            n.next = head;
            head = n;
        }
        return 0;
    } }
    class Node { Node next; }";

    fn sweep_spec() -> JobSpec {
        JobSpec::Sweep {
            program: "unit.jay".into(),
            source: SRC.into(),
            sizes: vec![4, 8],
            ablations: vec![algoprof::SweepAblation {
                name: "default".into(),
                options: Default::default(),
            }],
        }
    }

    #[test]
    fn submit_poll_resubmit_and_shutdown() {
        let server = Server::start("127.0.0.1:0", ServerConfig::default()).expect("starts");
        let addr = ServerAddr::Tcp(server.addr().expect("tcp").to_string());

        let first = client::submit(&addr, &sweep_spec()).expect("submits");
        assert_eq!(first.cache, "miss");
        let done = client::wait(&addr, &first.id).expect("finishes");
        let output = done.output.expect("has output");
        assert!(output.text.contains("sweep report"));
        assert!(output
            .json
            .expect("sweep json")
            .contains("\"sizes\": [4, 8]"));

        // Identical resubmission: answered from cache, already done.
        let second = client::submit(&addr, &sweep_spec()).expect("resubmits");
        assert_eq!(second.cache, "hit");
        assert_eq!(second.status, "done");
        let cached = client::wait(&addr, &second.id).expect("fetches");
        assert_eq!(cached.output.expect("output").text, output.text);

        let stats = client::cache_stats(&addr).expect("stats");
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.stores, 1);

        client::shutdown(&addr).expect("shutdown acknowledged");
        server.join();
    }

    #[test]
    fn streaming_upload_matches_batch_analysis() {
        let server = Server::start("127.0.0.1:0", ServerConfig::default()).expect("starts");
        let addr = ServerAddr::Tcp(server.addr().expect("tcp").to_string());
        let trace = record_source_with(
            "class Main { static int main() {
                Node head = null;
                for (int i = 0; i < 6; i = i + 1) {
                    Node n = new Node(); n.next = head; head = n;
                }
                return 0;
            } }
            class Node { Node next; }",
            &Default::default(),
            &[],
        )
        .expect("records");
        let report = client::stream_trace(&addr, &mut &trace[..], "").expect("streams");
        let batch = algoprof::profile(Guest::Trace(&trace), &RunConfig::default()).expect("batch");
        assert_eq!(report.text, algoprof::render_set(&batch));
        assert!(report.stream_fits.contains("streaming fits"));
        assert_eq!(report.bytes, trace.len() as u64);

        // Garbage upload: a 400 with a trace diagnostic, not a hang.
        let err = client::stream_trace(&addr, &mut &b"junk bytes"[..], "").expect_err("rejected");
        assert!(err.to_string().contains("trace"), "{err}");
        server.shutdown();
    }

    #[test]
    fn bad_submissions_and_unknown_routes_are_client_errors() {
        let server = Server::start("127.0.0.1:0", ServerConfig::default()).expect("starts");
        let addr = ServerAddr::Tcp(server.addr().expect("tcp").to_string());
        let err = client::submit_raw(&addr, b"{\"kind\":\"frobnicate\"}").expect_err("rejected");
        assert!(err.to_string().contains("unknown job kind"), "{err}");
        let err = client::submit_raw(&addr, b"not json").expect_err("rejected");
        assert!(err.to_string().contains("bad JSON"), "{err}");
        let err = client::status(&addr, "j999").expect_err("rejected");
        assert!(err.to_string().contains("no such job"), "{err}");
        server.shutdown();
    }

    #[test]
    fn a_deeply_nested_body_is_a_400_and_the_daemon_survives() {
        let server = Server::start("127.0.0.1:0", ServerConfig::default()).expect("starts");
        let addr = ServerAddr::Tcp(server.addr().expect("tcp").to_string());
        let body = "[".repeat(20_000);
        let err = client::submit_raw(&addr, body.as_bytes()).expect_err("rejected");
        assert!(err.to_string().contains("server answered 400"), "{err}");
        assert!(err.to_string().contains("nesting deeper than"), "{err}");
        client::health(&addr).expect("still answers");
        server.shutdown();
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_round_trip() {
        let path = std::env::temp_dir().join(format!("algoprof-unit-{}.sock", std::process::id()));
        let server = Server::start_unix(&path, ServerConfig::default()).expect("starts");
        let addr = ServerAddr::Unix(path.clone());
        let submitted = client::submit(&addr, &sweep_spec()).expect("submits");
        let done = client::wait(&addr, &submitted.id).expect("finishes");
        assert!(done.output.expect("output").text.contains("sweep report"));
        client::shutdown(&addr).expect("shutdown acknowledged");
        server.join();
        assert!(!path.exists(), "socket file is removed on shutdown");
    }
}

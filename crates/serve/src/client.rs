//! Blocking client for the serve protocol, used by `algoprof submit`,
//! the end-to-end tests, and the throughput benchmark.
//!
//! One connection per request ([`crate::http`] framing); results come
//! back as plain structs so callers never touch JSON.

use std::fmt;
use std::io::{self, BufReader, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use algoprof::{JobOutput, JobSpec, ProgramCacheStats};

use crate::api::job_to_json;
use crate::cache::CacheStats;
use crate::http;
use crate::json::{self, Json};

/// Where the daemon listens.
#[derive(Debug, Clone)]
pub enum ServerAddr {
    /// `host:port`.
    Tcp(String),
    /// Unix domain socket path.
    Unix(PathBuf),
}

impl fmt::Display for ServerAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerAddr::Tcp(addr) => write!(f, "{addr}"),
            ServerAddr::Unix(path) => write!(f, "{}", path.display()),
        }
    }
}

/// Client-side failure: transport trouble or a non-2xx protocol answer.
#[derive(Debug)]
pub struct ClientError(pub String);

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError(format!("connection failed: {e}"))
    }
}

/// What `POST /api/v1/jobs` answered.
#[derive(Debug, Clone)]
pub struct SubmitResponse {
    pub id: String,
    /// `queued` (miss) or `done` (cache hit).
    pub status: String,
    /// `hit` or `miss`.
    pub cache: String,
}

/// One `GET /api/v1/jobs/<id>` answer.
#[derive(Debug, Clone)]
pub struct JobStatus {
    pub id: String,
    pub status: String,
    pub cache: String,
    pub output: Option<JobOutput>,
    pub error: Option<String>,
}

/// What the streaming endpoint answered.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// The profile report, byte-identical to `algoprof analyze` output.
    pub text: String,
    /// The online per-node fits section.
    pub stream_fits: String,
    pub events: u64,
    pub bytes: u64,
}

/// A connected transport: TCP or a Unix socket.
trait Conn: Read + Write {}

impl<T: Read + Write> Conn for T {}

fn connect(addr: &ServerAddr) -> Result<Box<dyn Conn>, ClientError> {
    match addr {
        ServerAddr::Tcp(spec) => match TcpStream::connect(spec) {
            Ok(stream) => Ok(Box::new(stream)),
            Err(e) => Err(ClientError(format!("cannot connect to {spec}: {e}"))),
        },
        #[cfg(unix)]
        ServerAddr::Unix(path) => match UnixStream::connect(path) {
            Ok(stream) => Ok(Box::new(stream)),
            Err(e) => Err(ClientError(format!(
                "cannot connect to {}: {e}",
                path.display()
            ))),
        },
        #[cfg(not(unix))]
        ServerAddr::Unix(path) => Err(ClientError(format!(
            "unix sockets are unsupported on this platform ({})",
            path.display()
        ))),
    }
}

/// Sends one request and parses the JSON answer; non-2xx statuses carry
/// their `error` member back as the failure message.
fn exchange(addr: &ServerAddr, method: &str, path: &str, body: &[u8]) -> Result<Json, ClientError> {
    let mut conn = connect(addr)?;
    http::write_request(&mut conn, method, path, body)?;
    let response = http::read_response(&mut BufReader::new(conn))?;
    parse_answer(&response)
}

fn parse_answer(response: &http::Response) -> Result<Json, ClientError> {
    let text = std::str::from_utf8(&response.body)
        .map_err(|_| ClientError("server sent a non-UTF-8 body".into()))?;
    let value = json::parse(text).map_err(|e| ClientError(format!("server sent bad JSON: {e}")))?;
    if response.status >= 300 {
        let message = value
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("unknown server error");
        return Err(ClientError(format!(
            "server answered {}: {message}",
            response.status
        )));
    }
    Ok(value)
}

fn required_str(value: &Json, key: &str) -> Result<String, ClientError> {
    value
        .get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| ClientError(format!("server answer lacks {key:?}")))
}

/// Submits a job, returning its id and whether the cache answered.
pub fn submit(addr: &ServerAddr, spec: &JobSpec) -> Result<SubmitResponse, ClientError> {
    submit_raw(addr, job_to_json(spec).to_string_compact().as_bytes())
}

/// Submits a pre-encoded body (tests use this to exercise daemon-side
/// validation).
pub fn submit_raw(addr: &ServerAddr, body: &[u8]) -> Result<SubmitResponse, ClientError> {
    let value = exchange(addr, "POST", "/api/v1/jobs", body)?;
    Ok(SubmitResponse {
        id: required_str(&value, "id")?,
        status: required_str(&value, "status")?,
        cache: required_str(&value, "cache")?,
    })
}

/// Fetches one job's status.
pub fn status(addr: &ServerAddr, id: &str) -> Result<JobStatus, ClientError> {
    let value = exchange(addr, "GET", &format!("/api/v1/jobs/{id}"), b"")?;
    let output = value.get("output").map(|o| {
        Ok::<JobOutput, ClientError>(JobOutput {
            text: required_str(o, "text")?,
            json: o.get("json").and_then(Json::as_str).map(str::to_owned),
        })
    });
    Ok(JobStatus {
        id: required_str(&value, "id")?,
        status: required_str(&value, "status")?,
        cache: required_str(&value, "cache")?,
        output: output.transpose()?,
        error: value.get("error").and_then(Json::as_str).map(str::to_owned),
    })
}

/// Polls until the job leaves the queue (done or failed). Jobs are
/// short; 10 minutes of polling means something is wedged.
pub fn wait(addr: &ServerAddr, id: &str) -> Result<JobStatus, ClientError> {
    let deadline = Instant::now() + Duration::from_secs(600);
    loop {
        let current = status(addr, id)?;
        match current.status.as_str() {
            "done" | "failed" => return Ok(current),
            _ if Instant::now() > deadline => {
                return Err(ClientError(format!("timed out waiting for job {id}")));
            }
            _ => std::thread::sleep(Duration::from_millis(15)),
        }
    }
}

/// Uploads an APTR trace with chunked framing, so the daemon analyzes
/// while the upload is in flight. `query` carries option overrides
/// (`criterion=all&sizing=unique`...), empty for defaults.
pub fn stream_trace(
    addr: &ServerAddr,
    trace: &mut impl Read,
    query: &str,
) -> Result<StreamReport, ClientError> {
    let mut conn = connect(addr)?;
    let path = if query.is_empty() {
        "/api/v1/stream".to_owned()
    } else {
        format!("/api/v1/stream?{query}")
    };
    http::write_chunked_request_head(&mut conn, "POST", &path)?;
    let mut buf = [0u8; 32 * 1024];
    loop {
        let n = trace
            .read(&mut buf)
            .map_err(|e| ClientError(format!("cannot read trace: {e}")))?;
        if n == 0 {
            break;
        }
        http::write_chunk(&mut conn, &buf[..n])?;
    }
    http::finish_chunks(&mut conn)?;
    let response = http::read_response(&mut BufReader::new(conn))?;
    let value = parse_answer(&response)?;
    Ok(StreamReport {
        text: required_str(&value, "text")?,
        stream_fits: required_str(&value, "stream_fits")?,
        events: value.get("events").and_then(Json::as_u64).unwrap_or(0),
        bytes: value.get("bytes").and_then(Json::as_u64).unwrap_or(0),
    })
}

/// Fetches the result-cache counters.
pub fn cache_stats(addr: &ServerAddr) -> Result<CacheStats, ClientError> {
    all_cache_stats(addr).map(|(results, _)| results)
}

/// Fetches the result-cache and the program-cache counters in one
/// request.
pub fn all_cache_stats(addr: &ServerAddr) -> Result<(CacheStats, ProgramCacheStats), ClientError> {
    let value = exchange(addr, "GET", "/api/v1/cache/stats", b"")?;
    let lacks = |key: &str| ClientError(format!("server answer lacks {key:?}"));
    let num = |value: &Json, key: &str| {
        value
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| lacks(key))
    };
    let programs = value.get("programs").ok_or_else(|| lacks("programs"))?;
    Ok((
        CacheStats {
            entries: num(&value, "entries")?,
            hits: num(&value, "hits")?,
            misses: num(&value, "misses")?,
            stores: num(&value, "stores")?,
        },
        ProgramCacheStats {
            entries: num(programs, "entries")?,
            hits: num(programs, "hits")?,
            misses: num(programs, "misses")?,
            evictions: num(programs, "evictions")?,
        },
    ))
}

/// Asks the daemon whether it is alive.
pub fn health(addr: &ServerAddr) -> Result<(), ClientError> {
    exchange(addr, "GET", "/api/v1/health", b"").map(|_| ())
}

/// Asks the daemon to stop accepting and drain.
pub fn shutdown(addr: &ServerAddr) -> Result<(), ClientError> {
    exchange(addr, "POST", "/api/v1/shutdown", b"").map(|_| ())
}

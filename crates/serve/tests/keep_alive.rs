//! Persistent connections between the client and the daemon: one
//! thread's requests share one connection, the client opens a fresh one
//! (sending a request again at most once) whenever the daemon has ended
//! the old one, the daemon caps its connections, and shutdown does not
//! wait on connections that sit idle or stall mid-body.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use algoprof::{record_source_with, AlgoProfOptions, JobSpec};
use algoprof_serve::server::{BODY_TIMEOUT, IDLE_TIMEOUT, MAX_CONNECTIONS};
use algoprof_serve::{client, http, ResultCache, Server, ServerAddr, ServerConfig};

const LIST: &str = "class Main { static int main() {
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

const SORT: &str = include_str!("../../../examples/sized_insertion_sort.jay");

/// How long a stop may take with an idle connection held.
const STOP_BOUND: Duration = Duration::from_secs(2);

#[derive(Clone, Copy, Debug)]
enum Transport {
    Tcp,
    Unix,
}

fn socket_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("algoprof-ka-{}-{name}.sock", std::process::id()))
}

fn start(transport: Transport, name: &str, config: ServerConfig) -> (Server, ServerAddr) {
    match transport {
        Transport::Tcp => {
            let server = Server::start("127.0.0.1:0", config).expect("starts");
            let addr = ServerAddr::Tcp(server.addr().expect("tcp").to_string());
            (server, addr)
        }
        Transport::Unix => {
            let path = socket_path(name);
            let server = Server::start_unix(&path, config).expect("starts");
            (server, ServerAddr::Unix(path))
        }
    }
}

fn profile_spec(source: &str, n: i64) -> JobSpec {
    JobSpec::Profile {
        program: "keep_alive.jay".into(),
        source: source.into(),
        input: vec![n],
        options: AlgoProfOptions::default(),
    }
}

fn list_trace() -> Vec<u8> {
    record_source_with(LIST, &Default::default(), &[12]).expect("records")
}

#[test]
fn one_threads_requests_go_over_one_connection() {
    for transport in [Transport::Tcp, Transport::Unix] {
        let (server, addr) = start(transport, "one", ServerConfig::default());
        let submitted = client::submit(&addr, &profile_spec(LIST, 20)).expect("submits");
        let done = client::wait(&addr, &submitted.id).expect("finishes");
        assert_eq!(done.status, "done", "{transport:?}: {:?}", done.error);
        let trace = list_trace();
        let report = client::stream_trace(&addr, &mut &trace[..], "").expect("streams");
        assert_eq!(report.bytes, trace.len() as u64);
        let resubmitted = client::submit(&addr, &profile_spec(LIST, 20)).expect("resubmits");
        assert_eq!(resubmitted.cache, "hit");
        client::cache_stats(&addr).expect("stats");
        assert_eq!(server.connections_accepted(), 1, "{transport:?}");
        assert_eq!(server.open_connections(), 1, "{transport:?}");
        server.shutdown();
    }
}

#[test]
fn a_400_ends_the_connection_and_the_next_call_opens_a_fresh_one() {
    let (server, addr) = start(Transport::Tcp, "400", ServerConfig::default());
    client::health(&addr).expect("answers");
    let err = client::submit_raw(&addr, b"not json").expect_err("rejected");
    assert!(err.to_string().contains("server answered 400"), "{err}");
    assert_eq!(server.connections_accepted(), 1);
    client::health(&addr).expect("answers on a fresh connection");
    client::health(&addr).expect("and keeps it");
    assert_eq!(server.connections_accepted(), 2);
    server.shutdown();
}

#[test]
fn a_connection_idle_past_the_deadline_is_closed_and_replaced() {
    let (server, addr) = start(Transport::Tcp, "idle", ServerConfig::default());
    client::health(&addr).expect("answers");
    std::thread::sleep(IDLE_TIMEOUT + Duration::from_millis(500));
    assert_eq!(
        server.open_connections(),
        0,
        "the daemon closed the idle connection"
    );
    client::health(&addr).expect("answers on a fresh connection");
    assert_eq!(server.connections_accepted(), 2);
    server.shutdown();
}

#[cfg(unix)]
#[test]
fn a_daemon_restarted_on_the_same_unix_socket_is_reached_on_a_fresh_connection() {
    let (first, addr) = start(Transport::Unix, "restart", ServerConfig::default());
    client::health(&addr).expect("answers");
    first.shutdown();
    let (second, again) = start(Transport::Unix, "restart", ServerConfig::default());
    assert_eq!(addr, again);
    // An upload cannot be sent again once it has begun, so it must not
    // begin on the connection the first daemon closed.
    let trace = list_trace();
    client::stream_trace(&addr, &mut &trace[..], "").expect("the new daemon answers");
    client::health(&addr).expect("on the same connection");
    assert_eq!(second.connections_accepted(), 1);
    second.shutdown();
}

/// What the stand-in daemons below answer in full.
const OK: &[u8] = b"HTTP/1.1 200 OK\r\ncontent-length: 11\r\n\r\n{\"ok\":true}";

/// Reads one request head (the client's bodiless requests end there).
fn read_head(conn: &mut BufReader<TcpStream>) {
    let mut line = String::new();
    while conn.read_line(&mut line).expect("reads") > 2 {
        line.clear();
    }
}

/// Accepts a connection within 10 s (a client that never connects must
/// fail the test, not hang it).
fn accept(listener: &TcpListener) -> TcpStream {
    listener.set_nonblocking(true).expect("nonblocking");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match listener.accept() {
            Ok((conn, _)) => {
                conn.set_nonblocking(false).expect("blocking");
                conn.set_read_timeout(Some(Duration::from_secs(10)))
                    .expect("read timeout");
                return conn;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock && Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => panic!("no connection to accept: {e}"),
        }
    }
}

/// Accepts one connection, answers its first `answered` requests, reads
/// one more request head, and closes the connection after writing
/// `last` (possibly nothing).
fn stand_in(listener: &TcpListener, answered: usize, last: &[u8]) {
    let mut conn = BufReader::new(accept(listener));
    for _ in 0..answered {
        read_head(&mut conn);
        conn.get_mut().write_all(OK).expect("answers");
    }
    read_head(&mut conn);
    conn.get_mut().write_all(last).expect("writes");
}

/// No connection waits to be accepted on `listener`.
fn nothing_pending(listener: &TcpListener) -> bool {
    matches!(listener.accept(), Err(e) if e.kind() == io::ErrorKind::WouldBlock)
}

/// Runs `calls` against a stand-in daemon on a thread of its own, while
/// `daemon` plays the stand-in on this one; returns what `calls`
/// returned and whether any connection was left unaccepted. A client
/// that hangs fails the test: dropping the listener resets its
/// connection.
fn against_stand_in<T: Send + 'static>(
    calls: impl FnOnce(ServerAddr) -> T + Send + 'static,
    daemon: impl FnOnce(&TcpListener),
) -> (T, bool) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = ServerAddr::Tcp(listener.local_addr().expect("addr").to_string());
    let (done, result) = mpsc::channel();
    std::thread::spawn(move || done.send(calls(addr)));
    daemon(&listener);
    let result = result
        .recv_timeout(Duration::from_secs(10))
        .expect("the client returns");
    (result, !nothing_pending(&listener))
}

#[test]
fn a_kept_connection_closed_before_the_answer_is_sent_again_once() {
    let (calls, left_over) = against_stand_in(
        |addr| [(); 3].map(|_| client::health(&addr).map_err(|e| e.to_string())),
        |listener| {
            // The first call, then the second on the kept connection,
            // which is closed unanswered; the second is sent again on a
            // fresh connection and answered there. The third call fails
            // the same way on the kept connection and on its fresh one.
            stand_in(listener, 1, b"");
            stand_in(listener, 1, b"");
            stand_in(listener, 0, b"");
        },
    );
    let [first, second, third] = calls;
    first.expect("first call");
    second.expect("second call, sent again");
    let err = third.expect_err("third call fails twice");
    assert!(err.contains("connection"), "{err}");
    assert!(!left_over, "the third call was sent only twice");
}

#[test]
fn a_request_that_received_part_of_an_answer_is_not_sent_again() {
    let (calls, left_over) = against_stand_in(
        |addr| [(); 2].map(|_| client::health(&addr).map_err(|e| e.to_string())),
        |listener| {
            let cut = b"HTTP/1.1 200 OK\r\ncontent-length: 11\r\n\r\n{\"ok\"";
            stand_in(listener, 1, cut);
        },
    );
    let [first, second] = calls;
    first.expect("first call");
    second.expect_err("a cut answer is an error");
    assert!(!left_over, "the cut call was not sent again");
}

fn health_on(conn: &mut BufReader<TcpStream>) -> http::Response {
    http::write_request(conn.get_mut(), "GET", "/api/v1/health", b"").expect("sends");
    http::read_response(conn).expect("answered")
}

#[test]
fn connections_beyond_the_cap_get_a_503_and_held_ones_keep_answering() {
    let (server, addr) = start(Transport::Tcp, "cap", ServerConfig::default());
    let ServerAddr::Tcp(addr) = addr else {
        unreachable!()
    };
    let connect = || BufReader::new(TcpStream::connect(&addr).expect("connects"));
    let mut held: Vec<_> = (0..MAX_CONNECTIONS).map(|_| connect()).collect();
    for conn in &mut held {
        let answer = health_on(conn);
        assert_eq!((answer.status, answer.close), (200, false));
    }
    assert_eq!(server.open_connections(), MAX_CONNECTIONS);

    let refused = http::read_response(&mut connect()).expect("answered");
    assert_eq!((refused.status, refused.close), (503, true));
    assert!(String::from_utf8_lossy(&refused.body).contains("too many connections"));
    assert_eq!(
        health_on(&mut held[0]).status,
        200,
        "a held connection still answers"
    );

    drop(held);
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.open_connections() > 0 {
        assert!(Instant::now() < deadline, "held connections never closed");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(health_on(&mut connect()).status, 200, "accepts again");
    assert_eq!(server.connections_accepted() as usize, MAX_CONNECTIONS + 2);
    server.shutdown();
}

/// A trace source that hands its bytes out in small pieces, pausing
/// before each, so that an upload of it stays in flight for a while.
/// It says on `started` when the upload begins to read it.
struct Slow<'a> {
    rest: &'a [u8],
    piece: usize,
    started: Option<mpsc::Sender<()>>,
}

impl Read for Slow<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(started) = self.started.take() {
            let _ = started.send(());
        }
        std::thread::sleep(Duration::from_millis(10));
        let n = self.piece.min(self.rest.len()).min(buf.len());
        buf[..n].copy_from_slice(&self.rest[..n]);
        self.rest = &self.rest[n..];
        Ok(n)
    }
}

/// Stops a daemon while this thread holds an idle connection to it, a
/// job is queued or running, and an upload is in flight: the stop
/// returns within [`STOP_BOUND`], the upload ends (answered or failed)
/// without hanging, and the job still finishes.
fn stop_with_an_idle_connection_held(transport: Transport, by_endpoint: bool) {
    let name = format!("stop-{transport:?}-{by_endpoint}");
    let cache_dir = std::env::temp_dir().join(format!("algoprof-ka-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 8,
        cache_dir: Some(cache_dir.clone()),
    };
    let (server, addr) = start(transport, &name, config);
    let job = profile_spec(SORT, 300);
    let submitted = client::submit(&addr, &job).expect("submits");
    assert_eq!(submitted.cache, "miss");
    assert_eq!(
        server.open_connections(),
        1,
        "this thread's connection is kept"
    );

    let trace = list_trace();
    let expected = JobSpec::Analyze {
        trace: trace.clone(),
        options: AlgoProfOptions::default(),
    }
    .execute()
    .expect("analyzes")
    .text;
    let (started, upload_started) = mpsc::channel();
    let (done, upload_done) = mpsc::channel();
    let upload_addr = addr.clone();
    std::thread::spawn(move || {
        let mut slow = Slow {
            rest: &trace,
            piece: (trace.len() / 30).max(1),
            started: Some(started),
        };
        let _ = done.send(client::stream_trace(&upload_addr, &mut slow, ""));
    });
    upload_started.recv().expect("the upload starts");

    let stopping = Instant::now();
    if by_endpoint {
        let stop_addr = addr.clone();
        std::thread::spawn(move || client::shutdown(&stop_addr))
            .join()
            .expect("stop thread")
            .expect("shutdown acknowledged");
        server.join();
    } else {
        server.shutdown();
    }
    let took = stopping.elapsed();
    assert!(took < STOP_BOUND, "{name}: the stop took {took:?}");

    match upload_done.recv_timeout(STOP_BOUND) {
        Ok(Ok(report)) => assert_eq!(report.text, expected, "{name}"),
        Ok(Err(_)) => {}
        Err(_) => panic!("{name}: the upload hangs after the stop"),
    }

    let key = job.cache_key();
    let deadline = Instant::now() + Duration::from_secs(60);
    while ResultCache::new(Some(cache_dir.clone()))
        .expect("opens the cache")
        .get(&key)
        .is_none()
    {
        assert!(Instant::now() < deadline, "{name}: the job never finished");
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn stopping_a_tcp_daemon_does_not_wait_on_idle_connections() {
    stop_with_an_idle_connection_held(Transport::Tcp, false);
    stop_with_an_idle_connection_held(Transport::Tcp, true);
}

#[cfg(unix)]
#[test]
fn stopping_a_unix_socket_daemon_does_not_wait_on_idle_connections() {
    stop_with_an_idle_connection_held(Transport::Unix, false);
    stop_with_an_idle_connection_held(Transport::Unix, true);
}

#[test]
fn a_client_stalled_mid_body_holds_up_neither_health_nor_the_stop() {
    let (server, addr) = start(Transport::Tcp, "stalled", ServerConfig::default());
    let ServerAddr::Tcp(tcp) = &addr else {
        unreachable!("a TCP daemon")
    };
    // A submission that announces 10 body bytes and sends 2.
    let mut stalled = TcpStream::connect(tcp).expect("connects");
    stalled
        .write_all(
            b"POST /api/v1/jobs HTTP/1.1\r\nhost: localhost\r\ncontent-length: 10\r\n\r\n{\"",
        )
        .expect("sends a head and 2 of 10 body bytes");
    // Gives the daemon time to start reading the body. The checks below
    // hold whether or not it has; at the parent, the stop hangs once it
    // has.
    std::thread::sleep(Duration::from_millis(200));
    client::health(&addr).expect("health answers while a body stalls");

    let stopping = Instant::now();
    client::shutdown(&addr).expect("shutdown acknowledged");
    let (done, stopped) = mpsc::channel();
    let joining = std::thread::spawn(move || {
        server.join();
        let _ = done.send(());
    });
    stopped
        .recv_timeout(STOP_BOUND)
        .expect("the daemon exits while a client stalls mid-body");
    assert!(stopping.elapsed() < STOP_BOUND);
    joining.join().expect("the joining thread");

    // The stalled request is refused or the connection simply ends.
    stalled
        .set_read_timeout(Some(STOP_BOUND))
        .expect("read timeout");
    let mut answer = Vec::new();
    stalled
        .read_to_end(&mut answer)
        .expect("the daemon closed the stalled connection");
    assert!(
        answer.is_empty() || answer.starts_with(b"HTTP/1.1 400"),
        "{}",
        String::from_utf8_lossy(&answer)
    );
}

/// A trace source that hands out its first half, then pauses once for
/// `pause` before the rest.
struct Paused<'a> {
    rest: &'a [u8],
    half: usize,
    pause: Option<Duration>,
}

impl Read for Paused<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.half == 0 {
            if let Some(pause) = self.pause.take() {
                std::thread::sleep(pause);
            }
        }
        let piece = if self.half > 0 {
            self.half
        } else {
            self.rest.len()
        };
        let n = piece.min(buf.len());
        buf[..n].copy_from_slice(&self.rest[..n]);
        self.rest = &self.rest[n..];
        self.half = self.half.saturating_sub(n);
        Ok(n)
    }
}

#[test]
fn an_upload_pausing_past_the_idle_deadline_within_the_body_deadline_succeeds() {
    let pause = IDLE_TIMEOUT + Duration::from_secs(1);
    assert!(pause < BODY_TIMEOUT);
    let (server, addr) = start(Transport::Tcp, "paused", ServerConfig::default());
    let trace = list_trace();
    let expected = JobSpec::Analyze {
        trace: trace.clone(),
        options: AlgoProfOptions::default(),
    }
    .execute()
    .expect("analyzes")
    .text;
    let mut paused = Paused {
        rest: &trace,
        half: trace.len() / 2,
        pause: Some(pause),
    };
    let report = client::stream_trace(&addr, &mut paused, "").expect("the upload is answered");
    assert_eq!(report.bytes, trace.len() as u64);
    assert_eq!(report.text, expected);
    server.shutdown();
}

//! Seeded, std-only fuzzing of the daemon's HTTP framer over persistent
//! connections: each case sends a random run of requests down one
//! connection and must get exactly one answer per request, in order,
//! and no more once the connection is to close.
//!
//! Requests vary their framing (no body, `Content-Length`, chunked in
//! random pieces with extensions and trailers) and the case of their
//! header names. A case ends in one of four ways:
//! - cleanly, with every answer keeping the connection open;
//! - with a request after which the daemon closes: one saying
//!   `connection: close`, an HTTP/1.0 one, or one whose body the daemon
//!   does not read;
//! - with a malformed request, answered 400;
//! - with a request cut short, answered 400.
//!
//! Requests written after the last one the daemon answers must go
//! unanswered: after a 400 the daemon closes the connection rather
//! than look for the next request in what follows. The client closes
//! its write side at the end of every case, so no case waits on the
//! idle deadline.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use algoprof::record_source_with;
use algoprof_serve::{http, Server, ServerConfig};

/// xorshift64*, seeded per check so every failure replays.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % bound
    }

    fn below_usize(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below_usize(items.len())]
    }
}

/// `name` in lower, upper or title case: header names are
/// case-insensitive.
fn any_case(rng: &mut Rng, name: &str) -> String {
    match rng.below(3) {
        0 => name.to_owned(),
        1 => name.to_ascii_uppercase(),
        _ => name
            .split('-')
            .map(|word| word[..1].to_ascii_uppercase() + &word[1..])
            .collect::<Vec<_>>()
            .join("-"),
    }
}

/// A request head: the request line, `headers` with their names in any
/// case, and perhaps a header the daemon ignores.
fn head(rng: &mut Rng, line: &str, headers: &[(&str, &str)]) -> Vec<u8> {
    let mut out = format!("{line}\r\n");
    for (name, value) in headers {
        out += &format!("{}: {value}\r\n", any_case(rng, name));
    }
    if rng.below(3) == 0 {
        out += &format!("{}: {}\r\n", any_case(rng, "x-fuzz"), rng.below(1000));
    }
    out += "\r\n";
    out.into_bytes()
}

/// `body` in chunks of random sizes, with a chunk extension now and
/// then and perhaps a trailer.
fn chunked(rng: &mut Rng, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let n = 1 + rng.below_usize(rest.len().min(4096));
        let size = if rng.below(2) == 0 {
            format!("{n:x}")
        } else {
            format!("{n:X}")
        };
        let ext = if rng.below(4) == 0 { ";x=1" } else { "" };
        out.extend_from_slice(format!("{size}{ext}\r\n").as_bytes());
        out.extend_from_slice(&rest[..n]);
        out.extend_from_slice(b"\r\n");
        rest = &rest[n..];
    }
    out.extend_from_slice(b"0\r\n");
    if rng.below(3) == 0 {
        out.extend_from_slice(b"x-trailer: 1\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out
}

/// A request with `body`, framed by `Content-Length` or chunked.
fn with_body(rng: &mut Rng, line: &str, extra: &[(&str, &str)], body: &[u8]) -> Vec<u8> {
    let mut headers = extra.to_vec();
    let length = body.len().to_string();
    let chunks = rng.below(2) == 0;
    if chunks {
        headers.push(("transfer-encoding", "chunked"));
    } else {
        headers.push(("content-length", &length));
    }
    let mut out = head(rng, line, &headers);
    if chunks {
        out.extend(chunked(rng, body));
    } else {
        out.extend_from_slice(body);
    }
    out
}

/// A request the daemon answers and keeps the connection open after,
/// with that answer's status. `extra` headers ride along.
fn request(rng: &mut Rng, trace: &[u8], extra: &[(&str, &str)]) -> (Vec<u8>, u16) {
    let get = |rng: &mut Rng, line: &str| head(rng, line, extra);
    match rng.below(6) {
        0 => (get(rng, "GET /api/v1/health HTTP/1.1"), 200),
        1 => (get(rng, "GET /api/v1/cache/stats HTTP/1.1"), 200),
        2 => (get(rng, "GET /api/v1/jobs/j999999 HTTP/1.1"), 404),
        3 => (get(rng, "GET /nowhere HTTP/1.1"), 404),
        4 => (get(rng, "DELETE /api/v1/health HTTP/1.1"), 405),
        _ => (
            with_body(rng, "POST /api/v1/stream HTTP/1.1", extra, trace),
            200,
        ),
    }
}

/// A request after which the daemon closes the connection, with its
/// answer's status.
fn closing_request(rng: &mut Rng, trace: &[u8]) -> (Vec<u8>, u16) {
    match rng.below(4) {
        0 => {
            let close = *rng.pick(&["close", "Close", "keep-alive, close"]);
            request(rng, trace, &[("connection", close)])
        }
        1 => (head(rng, "GET /api/v1/health HTTP/1.0", &[]), 200),
        // Bodies the health check leaves unread.
        _ => (
            with_body(rng, "GET /api/v1/health HTTP/1.1", &[], b"unread"),
            200,
        ),
    }
}

/// A request the daemon answers with a 400 and then closes.
fn malformed_request(rng: &mut Rng) -> Vec<u8> {
    let stream = "POST /api/v1/stream HTTP/1.1";
    match rng.below(11) {
        0 => b"GET\r\n\r\n".to_vec(),
        1 => b"GET /api/v1/health SPDY/3\r\n\r\n".to_vec(),
        2 => b"GET /api/v1/health HTTP/1.1\r\nno colon here\r\n\r\n".to_vec(),
        3 => b"GET /api/v1/health HTTP/1.1\r\nx-bytes: \xff\xfe\r\n\r\n".to_vec(),
        4 => head(
            rng,
            "GET /api/v1/health HTTP/1.1",
            &[("content-length", "nope")],
        ),
        5 => head(rng, stream, &[("transfer-encoding", "gzip")]),
        6 => head(rng, stream, &[("content-length", "999999999999")]),
        7 => [
            head(rng, stream, &[("transfer-encoding", "chunked")]),
            b"zz\r\n".to_vec(),
        ]
        .concat(),
        8 => [
            head(rng, stream, &[("transfer-encoding", "chunked")]),
            b"3\r\nabcdef\r\n0\r\n\r\n".to_vec(),
        ]
        .concat(),
        // Well framed, but not a trace.
        9 => with_body(rng, stream, &[], b"not a trace"),
        _ => {
            let long = "a".repeat(70 * 1024);
            head(rng, "GET /api/v1/health HTTP/1.1", &[("x-long", &long)])
        }
    }
}

/// How a case ends.
#[derive(Clone, Copy, Debug)]
enum Ending {
    Clean,
    Closing,
    Malformed,
    Truncated,
}

/// One case: the bytes to send and the answers expected, in order,
/// each a status and whether it closes the connection.
fn case(rng: &mut Rng, trace: &[u8]) -> (Ending, Vec<u8>, Vec<(u16, bool)>) {
    let ending = *rng.pick(&[
        Ending::Clean,
        Ending::Closing,
        Ending::Malformed,
        Ending::Truncated,
    ]);
    let mut bytes = Vec::new();
    let mut answers = Vec::new();
    for _ in 0..rng.below(4) {
        let (request, status) = request(rng, trace, &[]);
        bytes.extend(request);
        answers.push((status, false));
    }
    match ending {
        Ending::Clean => return (ending, bytes, answers),
        Ending::Closing => {
            let (request, status) = closing_request(rng, trace);
            bytes.extend(request);
            answers.push((status, true));
        }
        Ending::Malformed => {
            bytes.extend(malformed_request(rng));
            answers.push((400, true));
        }
        Ending::Truncated => {
            let (request, _) = request(rng, trace, &[]);
            let cut = 1 + rng.below_usize(request.len() - 1);
            bytes.extend_from_slice(&request[..cut]);
            answers.push((400, true));
            return (ending, bytes, answers);
        }
    }
    // Requests after the connection's last answer go unanswered.
    for _ in 0..rng.below(3) {
        bytes.extend(request(rng, trace, &[]).0);
    }
    (ending, bytes, answers)
}

/// Sends `bytes` down a fresh connection in a few writes, then closes
/// the write side; returns the answers read until the daemon closed.
fn run(addr: &str, rng: &mut Rng, bytes: &[u8]) -> Vec<(u16, bool)> {
    let stream = TcpStream::connect(addr).expect("connects");
    let mut writer = stream.try_clone().expect("clones");
    let cuts = {
        let mut cuts: Vec<usize> = (0..rng.below(3))
            .map(|_| rng.below_usize(bytes.len() + 1))
            .collect();
        cuts.sort_unstable();
        cuts
    };
    std::thread::scope(|s| {
        s.spawn(move || {
            // The daemon may close before reading everything; what it
            // left unread is not its to answer.
            let mut from = 0;
            for to in cuts.into_iter().chain([bytes.len()]) {
                if writer.write_all(&bytes[from..to]).is_err() {
                    break;
                }
                from = to;
            }
            let _ = writer.shutdown(Shutdown::Write);
        });
        let mut reader = BufReader::new(stream);
        let mut answers = Vec::new();
        loop {
            match reader.fill_buf() {
                Ok([]) => break,
                Err(e) if e.kind() == ErrorKind::ConnectionReset => break,
                Err(e) => panic!("reading an answer: {e}"),
                Ok(_) => {}
            }
            let answer = http::read_response(&mut reader).expect("a whole answer");
            answers.push((answer.status, answer.close));
        }
        answers
    })
}

#[test]
fn every_request_on_a_connection_gets_one_answer_in_order() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("starts");
    let addr = server.addr().expect("tcp").to_string();
    let trace = record_source_with(
        "class Main { static int main() {
            Node head = null;
            for (int i = 0; i < 4; i = i + 1) { Node n = new Node(); n.next = head; head = n; }
            return 0;
        } } class Node { Node next; }",
        &Default::default(),
        &[],
    )
    .expect("records");

    let mut rng = Rng::new(29);
    let mut endings = [0usize; 4];
    for n in 0..300 {
        let (ending, bytes, expected) = case(&mut rng, &trace);
        endings[ending as usize] += 1;
        let answers = run(&addr, &mut rng, &bytes);
        assert_eq!(
            answers,
            expected,
            "case {n} ({ending:?}), sent {:?}",
            String::from_utf8_lossy(&bytes[..bytes.len().min(600)])
        );
    }
    assert!(endings.iter().all(|&n| n > 30), "{endings:?}");

    // No case left a connection thread behind (a panic would have).
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.open_connections() > 0 {
        assert!(Instant::now() < deadline, "connections left open");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.connections_accepted(), 300);
    server.shutdown();
}

//! Hand-rolled HTTP/1.1 framing: just enough of RFC 7230 for the serve
//! protocol — request/response lines, headers, `Content-Length` bodies,
//! and `Transfer-Encoding: chunked` (the streaming-upload path), over
//! any `Read + Write` transport (TCP or Unix socket).
//!
//! The repo is offline, so like the JSON codec next door this is a
//! from-scratch implementation rather than a dependency. Every
//! connection carries exactly one request/response exchange
//! (`Connection: close` semantics): the daemon is a job queue, not a
//! web server, and one-shot connections keep the framing trivial to
//! reason about.

use std::io::{self, BufRead, Write};

/// Longest accepted request/status/header line.
const MAX_LINE: usize = 64 * 1024;
/// Largest accepted body (a trace upload can be big, but bounded).
pub const MAX_BODY: u64 = 256 * 1024 * 1024;
/// Streaming reads hand the consumer chunks of at most this size.
const STREAM_CHUNK: usize = 64 * 1024;

/// A parsed request head (the body is read separately so handlers can
/// stream it).
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path including any query string, exactly as sent.
    pub path: String,
    /// Header name/value pairs; names lowercased.
    pub headers: Vec<(String, String)>,
}

impl Request {
    /// First header with `name` (lowercase), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed response (client side).
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// How a message body is framed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyKind {
    Empty,
    Length(u64),
    Chunked,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reads one CRLF- (or bare-LF-) terminated line, without the
/// terminator. `Ok(None)` means EOF before any byte.
fn read_line(r: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut buf = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte)? {
            0 => {
                if buf.is_empty() {
                    return Ok(None);
                }
                return Err(bad("connection closed mid-line"));
            }
            _ => {
                if byte[0] == b'\n' {
                    if buf.last() == Some(&b'\r') {
                        buf.pop();
                    }
                    let line = String::from_utf8(buf)
                        .map_err(|_| bad("non-UTF-8 bytes in header line"))?;
                    return Ok(Some(line));
                }
                if buf.len() >= MAX_LINE {
                    return Err(bad("header line too long"));
                }
                buf.push(byte[0]);
            }
        }
    }
}

fn read_headers(r: &mut impl BufRead) -> io::Result<Vec<(String, String)>> {
    let mut headers = Vec::new();
    loop {
        let line = read_line(r)?.ok_or_else(|| bad("connection closed in headers"))?;
        if line.is_empty() {
            return Ok(headers);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad(format!("malformed header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
}

/// Reads a request head. `Ok(None)` when the peer closed the connection
/// without sending anything (a clean no-request close).
pub fn read_request(r: &mut impl BufRead) -> io::Result<Option<Request>> {
    let Some(line) = read_line(r)? else {
        return Ok(None);
    };
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(bad(format!("malformed request line {line:?}")));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(bad(format!("unsupported protocol {version:?}")));
    }
    let headers = read_headers(r)?;
    Ok(Some(Request {
        method: method.to_owned(),
        path: path.to_owned(),
        headers,
    }))
}

/// Determines how the request body is framed from its headers.
pub fn body_kind(req: &Request) -> io::Result<BodyKind> {
    if let Some(te) = req.header("transfer-encoding") {
        if te.eq_ignore_ascii_case("chunked") {
            return Ok(BodyKind::Chunked);
        }
        return Err(bad(format!("unsupported transfer-encoding {te:?}")));
    }
    match req.header("content-length") {
        Some(v) => {
            let n: u64 = v
                .parse()
                .map_err(|_| bad(format!("bad content-length {v:?}")))?;
            Ok(if n == 0 {
                BodyKind::Empty
            } else {
                BodyKind::Length(n)
            })
        }
        None => Ok(BodyKind::Empty),
    }
}

/// Streams the body to `consume` in bounded chunks, returning the total
/// byte count. This is what lets the trace-upload endpoint analyze while
/// the upload is still arriving.
pub fn read_body_streaming(
    r: &mut impl BufRead,
    kind: BodyKind,
    mut consume: impl FnMut(&[u8]) -> io::Result<()>,
) -> io::Result<u64> {
    let mut total: u64 = 0;
    let mut buf = [0u8; STREAM_CHUNK];
    match kind {
        BodyKind::Empty => {}
        BodyKind::Length(mut remaining) => {
            if remaining > MAX_BODY {
                return Err(bad("body exceeds the size limit"));
            }
            while remaining > 0 {
                let want = remaining.min(buf.len() as u64) as usize;
                let n = r.read(&mut buf[..want])?;
                if n == 0 {
                    return Err(bad("connection closed mid-body"));
                }
                consume(&buf[..n])?;
                total += n as u64;
                remaining -= n as u64;
            }
        }
        BodyKind::Chunked => loop {
            let line = read_line(r)?.ok_or_else(|| bad("connection closed before chunk size"))?;
            // Per RFC 7230 a chunk size may carry extensions after ';'.
            let size_text = line.split(';').next().unwrap_or("").trim();
            let mut size = u64::from_str_radix(size_text, 16)
                .map_err(|_| bad(format!("bad chunk size {line:?}")))?;
            if size == 0 {
                // Trailer section: lines until the empty one.
                while !read_line(r)?
                    .ok_or_else(|| bad("connection closed in trailers"))?
                    .is_empty()
                {}
                break;
            }
            if total.saturating_add(size) > MAX_BODY {
                return Err(bad("body exceeds the size limit"));
            }
            while size > 0 {
                let want = size.min(buf.len() as u64) as usize;
                let n = r.read(&mut buf[..want])?;
                if n == 0 {
                    return Err(bad("connection closed mid-chunk"));
                }
                consume(&buf[..n])?;
                total += n as u64;
                size -= n as u64;
            }
            let sep = read_line(r)?.ok_or_else(|| bad("connection closed after chunk"))?;
            if !sep.is_empty() {
                return Err(bad("missing CRLF after chunk data"));
            }
        },
    }
    Ok(total)
}

/// Reads the whole body into memory.
pub fn read_body(r: &mut impl BufRead, kind: BodyKind) -> io::Result<Vec<u8>> {
    let mut body = Vec::new();
    read_body_streaming(r, kind, |chunk| {
        body.extend_from_slice(chunk);
        Ok(())
    })?;
    Ok(body)
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Sends `head` followed by `body` with a single `write_all`, then
/// flushes. The transports are unbuffered sockets, where every separate
/// write goes out as its own segment and wakes the peer.
fn send(w: &mut impl Write, head: std::fmt::Arguments, body: &[&[u8]]) -> io::Result<()> {
    let mut message = Vec::with_capacity(160 + body.iter().map(|b| b.len()).sum::<usize>());
    message.write_fmt(head)?;
    for part in body {
        message.extend_from_slice(part);
    }
    w.write_all(&message)?;
    w.flush()
}

/// Writes a complete response (Content-Length framing, connection
/// closing after it).
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    send(
        w,
        format_args!(
            "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
            reason(status),
            body.len()
        ),
        &[body],
    )
}

/// Writes a complete request with a Content-Length body.
pub fn write_request(w: &mut impl Write, method: &str, path: &str, body: &[u8]) -> io::Result<()> {
    send(
        w,
        format_args!(
            "{method} {path} HTTP/1.1\r\nhost: algoprof\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
            body.len()
        ),
        &[body],
    )
}

/// Starts a chunked-body request; follow with [`write_chunk`] calls and
/// one [`finish_chunks`].
pub fn write_chunked_request_head(w: &mut impl Write, method: &str, path: &str) -> io::Result<()> {
    send(
        w,
        format_args!(
            "{method} {path} HTTP/1.1\r\nhost: algoprof\r\ncontent-type: application/octet-stream\r\ntransfer-encoding: chunked\r\nconnection: close\r\n\r\n"
        ),
        &[],
    )
}

/// Writes one non-empty chunk.
pub fn write_chunk(w: &mut impl Write, data: &[u8]) -> io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    send(w, format_args!("{:x}\r\n", data.len()), &[data, b"\r\n"])
}

/// Terminates a chunked body.
pub fn finish_chunks(w: &mut impl Write) -> io::Result<()> {
    w.write_all(b"0\r\n\r\n")?;
    w.flush()
}

/// Reads a response (client side). The body is framed by Content-Length
/// or, absent that, runs to connection close.
pub fn read_response(r: &mut impl BufRead) -> io::Result<Response> {
    let line = read_line(r)?.ok_or_else(|| bad("connection closed before status line"))?;
    let mut parts = line.split_whitespace();
    let (Some(version), Some(code)) = (parts.next(), parts.next()) else {
        return Err(bad(format!("malformed status line {line:?}")));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(bad(format!("unsupported protocol {version:?}")));
    }
    let status: u16 = code
        .parse()
        .map_err(|_| bad(format!("bad status code {code:?}")))?;
    let headers = read_headers(r)?;
    let length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse::<u64>())
        .transpose()
        .map_err(|_| bad("bad content-length"))?;
    let mut body = Vec::new();
    match length {
        Some(n) => {
            if n > MAX_BODY {
                return Err(bad("body exceeds the size limit"));
            }
            body.resize(n as usize, 0);
            r.read_exact(&mut body)?;
        }
        None => {
            r.read_to_end(&mut body)?;
        }
    }
    Ok(Response { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse_request(raw: &[u8]) -> (Request, Vec<u8>) {
        let mut r = BufReader::new(raw);
        let req = read_request(&mut r).expect("reads").expect("a request");
        let kind = body_kind(&req).expect("framed");
        let body = read_body(&mut r, kind).expect("body");
        (req, body)
    }

    #[test]
    fn parses_a_content_length_request() {
        let (req, body) = parse_request(
            b"POST /api/v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
        );
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/api/v1/jobs");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(body, b"hello");
    }

    #[test]
    fn parses_a_chunked_request_incrementally() {
        let raw =
            b"POST /s HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nwiki\r\n5\r\npedia\r\n0\r\n\r\n";
        let mut r = BufReader::new(&raw[..]);
        let req = read_request(&mut r).expect("reads").expect("a request");
        let kind = body_kind(&req).expect("framed");
        let mut pieces: Vec<Vec<u8>> = Vec::new();
        let total = read_body_streaming(&mut r, kind, |c| {
            pieces.push(c.to_vec());
            Ok(())
        })
        .expect("streams");
        assert_eq!(total, 9);
        assert_eq!(pieces.concat(), b"wikipedia");
        // The consumer saw the chunks as framed, not one buffered blob.
        assert_eq!(pieces.len(), 2);
    }

    #[test]
    fn empty_connection_is_none() {
        let mut r = BufReader::new(&b""[..]);
        assert!(read_request(&mut r).expect("ok").is_none());
    }

    #[test]
    fn malformed_heads_are_errors() {
        for raw in [
            &b"GET\r\n\r\n"[..],
            b"GET / SPDY/3\r\n\r\n",
            b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        ] {
            let mut r = BufReader::new(raw);
            let result = read_request(&mut r).and_then(|req| {
                body_kind(&req.ok_or_else(|| bad("eof"))?)?;
                Ok(())
            });
            assert!(result.is_err(), "{raw:?} should fail");
        }
    }

    #[test]
    fn truncated_bodies_are_errors() {
        let mut r = BufReader::new(&b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"[..]);
        let req = read_request(&mut r).expect("reads").expect("req");
        let kind = body_kind(&req).expect("framed");
        assert!(read_body(&mut r, kind).is_err());

        let mut r =
            BufReader::new(&b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nff\r\nx"[..]);
        let req = read_request(&mut r).expect("reads").expect("req");
        let kind = body_kind(&req).expect("framed");
        assert!(read_body(&mut r, kind).is_err());
    }

    #[test]
    fn response_round_trip() {
        let mut wire = Vec::new();
        write_response(&mut wire, 202, "application/json", b"{\"ok\":true}").expect("writes");
        let resp = read_response(&mut BufReader::new(&wire[..])).expect("reads");
        assert_eq!(resp.status, 202);
        assert_eq!(resp.body, b"{\"ok\":true}");
    }

    #[test]
    fn chunked_writer_matches_reader() {
        let mut wire = Vec::new();
        write_chunked_request_head(&mut wire, "POST", "/api/v1/stream").expect("head");
        write_chunk(&mut wire, b"abc").expect("chunk");
        write_chunk(&mut wire, b"").expect("empty chunk is a no-op");
        write_chunk(&mut wire, b"defg").expect("chunk");
        finish_chunks(&mut wire).expect("finish");
        let (_, body) = parse_request(&wire);
        assert_eq!(body, b"abcdefg");
    }
}

//! Minimal HTTP/1.1 framing over `std::io` streams.
//!
//! Just enough of RFC 9112 for this service's API: request-line + headers +
//! `Content-Length` bodies inbound; fixed-length JSON responses and
//! `Transfer-Encoding: chunked` report streams outbound.  No TLS — the
//! daemon is a loopback/trusted-network tool, like the spool directory it
//! fronts.
//!
//! Connections close after one response (`Connection: close`), with one
//! exception: a `POST /shards` request that sends `Connection: keep-alive`
//! gets a `Connection: keep-alive` answer, and the daemon then reads the
//! next request off the same socket (see `crate::server`).  A response head
//! says `keep-alive` only where the socket really stays open.  Both ends
//! of such a connection set `TCP_NODELAY`: a head, chunk frame or request
//! written in several small writes must never wait on the peer's delayed
//! ACK.

use ld_runner::json::Json;
use std::io::{BufRead, Write};

/// The largest accepted request body (a job spec is well under 1 KiB; the
/// cap only bounds memory against malformed peers).
pub const MAX_BODY: usize = 1 << 20;

/// The largest accepted header count.
const MAX_HEADERS: usize = 64;

/// A parse/framing failure while reading a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The peer sent something that is not HTTP/1.1.
    Malformed(String),
    /// The declared body exceeds [`MAX_BODY`].
    TooLarge(usize),
    /// The underlying stream failed.
    Io(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
            HttpError::TooLarge(n) => write!(f, "request body of {n} bytes exceeds {MAX_BODY}"),
            HttpError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// The method verb, uppercased as received (`GET`, `POST`, `DELETE`).
    pub method: String,
    /// The request target (path plus optional query), as received.
    pub target: String,
    /// Header name/value pairs, in receive order.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of `name`, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open for another
    /// request (`Connection: keep-alive`, any case).
    pub fn wants_keep_alive(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"))
    }

    /// The target's path segments, query stripped, empties dropped
    /// (`"/jobs/3/report?x=1"` → `["jobs", "3", "report"]`).
    pub fn path_segments(&self) -> Vec<&str> {
        self.target
            .split('?')
            .next()
            .unwrap_or("")
            .split('/')
            .filter(|s| !s.is_empty())
            .collect()
    }
}

/// Reads one request off `reader`.  Returns `Ok(None)` on a clean EOF
/// before any bytes (the peer connected and left).
///
/// # Errors
///
/// [`HttpError`] on framing violations, an oversized body, or I/O failure.
pub fn read_request(reader: &mut impl BufRead) -> Result<Option<Request>, HttpError> {
    let mut line = String::new();
    let n = reader
        .read_line(&mut line)
        .map_err(|e| HttpError::Io(e.to_string()))?;
    if n == 0 {
        return Ok(None);
    }
    let line = line.trim_end_matches(['\r', '\n']);
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpError::Malformed(format!("bad request line '{line}'"))),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Malformed(format!("bad version '{version}'")));
    }
    let mut request = Request {
        method: method.to_string(),
        target: target.to_string(),
        headers: Vec::new(),
        body: Vec::new(),
    };
    loop {
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| HttpError::Io(e.to_string()))?;
        if n == 0 {
            return Err(HttpError::Malformed("eof inside headers".to_string()));
        }
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break;
        }
        if request.headers.len() >= MAX_HEADERS {
            return Err(HttpError::Malformed("too many headers".to_string()));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header '{line}'")));
        };
        request
            .headers
            .push((name.trim().to_string(), value.trim().to_string()));
    }
    if let Some(length) = request.header("content-length") {
        let length: usize = length
            .parse()
            .map_err(|_| HttpError::Malformed(format!("bad content-length '{length}'")))?;
        if length > MAX_BODY {
            return Err(HttpError::TooLarge(length));
        }
        let mut body = vec![0u8; length];
        reader
            .read_exact(&mut body)
            .map_err(|e| HttpError::Io(e.to_string()))?;
        request.body = body;
    }
    Ok(Some(request))
}

/// The reason phrase for the statuses this service emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes a complete fixed-length JSON response (rendered with the repo's
/// 2-space pretty renderer, like every report artifact).  The connection
/// closes after it.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_json(sink: &mut impl Write, status: u16, body: &Json) -> std::io::Result<()> {
    let text = body.render();
    write!(
        sink,
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status_reason(status),
        text.len()
    )?;
    sink.write_all(text.as_bytes())?;
    sink.flush()
}

/// Writes the head of a chunked response; follow with a [`ChunkedWriter`].
/// `keep_alive` says whether the socket stays open for another request
/// once the body ends.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_chunked_head(
    sink: &mut impl Write,
    content_type: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(
        sink,
        "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: {connection}\r\n\r\n"
    )?;
    sink.flush()
}

/// Emits `Transfer-Encoding: chunked` body frames.
pub struct ChunkedWriter<'a, W: Write> {
    sink: &'a mut W,
}

impl<'a, W: Write> ChunkedWriter<'a, W> {
    /// Wraps `sink` (the head must already be written).
    pub fn new(sink: &'a mut W) -> Self {
        ChunkedWriter { sink }
    }

    /// Writes one chunk (empty slices are skipped — an empty chunk would
    /// terminate the stream).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn chunk(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        write!(self.sink, "{:x}\r\n", bytes.len())?;
        self.sink.write_all(bytes)?;
        self.sink.write_all(b"\r\n")?;
        self.sink.flush()
    }

    /// Writes the terminating zero chunk.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn finish(self) -> std::io::Result<()> {
        self.sink.write_all(b"0\r\n\r\n")?;
        self.sink.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let request = read_request(&mut BufReader::new(&raw[..]))
            .expect("parse")
            .expect("non-empty");
        assert_eq!(request.method, "POST");
        assert_eq!(request.target, "/jobs");
        assert_eq!(request.header("content-length"), Some("4"));
        assert_eq!(request.header("HOST"), Some("x"));
        assert_eq!(request.body, b"abcd");
        assert_eq!(request.path_segments(), vec!["jobs"]);
    }

    #[test]
    fn path_segments_strip_query_and_empties() {
        let raw = b"GET /jobs/3/report?tail=1 HTTP/1.1\r\n\r\n";
        let request = read_request(&mut BufReader::new(&raw[..]))
            .expect("parse")
            .expect("non-empty");
        assert_eq!(request.path_segments(), vec!["jobs", "3", "report"]);
    }

    #[test]
    fn eof_before_bytes_is_a_clean_none() {
        let raw: &[u8] = b"";
        assert!(read_request(&mut BufReader::new(raw))
            .expect("ok")
            .is_none());
    }

    #[test]
    fn framing_violations_are_typed() {
        let cases: [(&[u8], &str); 4] = [
            (b"GARBAGE\r\n\r\n", "request line"),
            (b"GET /x HTTP/9.9\r\n\r\n", "version"),
            (b"GET /x HTTP/1.1\r\nno-colon\r\n\r\n", "header"),
            (
                b"GET /x HTTP/1.1\r\nContent-Length: wat\r\n\r\n",
                "content-length",
            ),
        ];
        for (raw, needle) in cases {
            let err = read_request(&mut BufReader::new(raw)).expect_err("must fail");
            assert!(
                err.to_string().contains(needle),
                "{err} should mention {needle}"
            );
        }
        let big = format!(
            "GET /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let err = read_request(&mut BufReader::new(big.as_bytes())).expect_err("too large");
        assert!(matches!(err, HttpError::TooLarge(_)));
    }

    #[test]
    fn chunked_writer_frames_and_terminates() {
        let mut out: Vec<u8> = Vec::new();
        let mut writer = ChunkedWriter::new(&mut out);
        writer.chunk(b"hello ").expect("chunk");
        writer.chunk(b"").expect("empty chunk skipped");
        writer.chunk(b"world").expect("chunk");
        writer.finish().expect("finish");
        assert_eq!(out, b"6\r\nhello \r\n5\r\nworld\r\n0\r\n\r\n");
    }

    #[test]
    fn json_response_has_exact_framing() {
        let mut out: Vec<u8> = Vec::new();
        write_json(&mut out, 404, &Json::object().set("error", "not-found")).expect("write");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        let body = text.split("\r\n\r\n").nth(1).expect("body");
        assert!(body.contains("\"error\": \"not-found\""));
        let declared: usize = text
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("content-length")
            .trim()
            .parse()
            .expect("number");
        assert_eq!(declared, body.len());
    }
}

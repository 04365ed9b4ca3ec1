//! A minimal HTTP/1.1 client for `ldx submit`/`ldx shutdown`, the
//! dispatch coordinator, and the integration tests.
//!
//! [`request`] and [`open_stream`] send one request per connection with
//! `Connection: close`.  The dispatch coordinator instead keeps one
//! connection per worker open across its `POST /shards` leases: it opens
//! it with [`connect`], sends each request with [`exchange`] and reuses
//! the socket while the worker answers `Connection: keep-alive`
//! ([`keeps_alive`]).  Sockets are `TCP_NODELAY` and every request goes
//! out in one write, so a reused connection never waits on delayed ACKs.
//! Responses are decoded by `Content-Length`, chunked transfer coding (the
//! report stream), or read-to-EOF.  Transport failures are retried under a
//! typed [`RetryPolicy`] with capped exponential backoff — the same policy
//! object the coordinator uses to decide when a worker is dead.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Default connect and per-read socket timeout.  A report stream of a
/// running job keeps delivering chunks, so a healthy server never lets a
/// read starve this long.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// How transport failures are retried: `attempts` tries separated by
/// capped exponential backoff starting at `base` and clamped to `cap`.
/// Deterministic (no jitter) so tests and reports can assert on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (the first try counts as one).
    pub attempts: u32,
    /// Delay before the second attempt; doubles each retry.
    pub base: Duration,
    /// Upper bound on any single delay.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 5,
            base: Duration::from_millis(100),
            cap: Duration::from_secs(5),
        }
    }
}

impl RetryPolicy {
    /// An infinite iterator of successive backoff delays:
    /// `base, 2*base, 4*base, …` clamped to `cap`.
    pub fn backoff(&self) -> Backoff {
        Backoff {
            next: self.base,
            cap: self.cap,
        }
    }
}

/// The delay sequence of a [`RetryPolicy`]; see [`RetryPolicy::backoff`].
#[derive(Debug, Clone)]
pub struct Backoff {
    next: Duration,
    cap: Duration,
}

impl Iterator for Backoff {
    type Item = Duration;

    fn next(&mut self) -> Option<Duration> {
        let current = self.next.min(self.cap);
        self.next = self.next.saturating_mul(2).min(self.cap);
        Some(current)
    }
}

/// A decoded response.
#[derive(Debug)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// Header name/value pairs, in receive order.
    pub headers: Vec<(String, String)>,
    /// The decoded body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// The first value of `name`, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy — error bodies are always UTF-8 JSON).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Sends one `method path` request to `addr` with an optional JSON body
/// and decodes the response, under [`DEFAULT_READ_TIMEOUT`].
///
/// # Errors
///
/// Returns a message on connection, framing or I/O failures.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<Response, String> {
    request_with(addr, method, path, body, DEFAULT_READ_TIMEOUT)
}

/// [`request`] with an explicit per-read socket timeout — the coordinator
/// sets this to the worker lease duration so a stalled socket surfaces as
/// a transport error before the lease expires twice over.
///
/// # Errors
///
/// Returns a message on connection, framing or I/O failures.
pub fn request_with(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    read_timeout: Duration,
) -> Result<Response, String> {
    let (status, headers, mut reader) = open_stream(addr, method, path, body, read_timeout)?;
    let body = read_body(&headers, &mut reader)?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// [`request_with`], retried under `policy` on transport or framing
/// failures.  HTTP error statuses are *not* retried — a decoded response
/// is a success at this layer, whatever its status code.
///
/// # Errors
///
/// Returns the final attempt's message once `policy.attempts` tries have
/// all failed.
pub fn request_retry(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    policy: &RetryPolicy,
    read_timeout: Duration,
) -> Result<Response, String> {
    let mut backoff = policy.backoff();
    let mut last = String::new();
    for attempt in 0..policy.attempts.max(1) {
        if attempt > 0 {
            if let Some(delay) = backoff.next() {
                std::thread::sleep(delay);
            }
        }
        match request_with(addr, method, path, body, read_timeout) {
            Ok(response) => return Ok(response),
            Err(e) => last = e,
        }
    }
    Err(format!(
        "{addr}: {last} (after {} attempts)",
        policy.attempts.max(1)
    ))
}

/// Sends one request and returns the status, headers, and a reader
/// positioned at the first body byte — for callers that consume a
/// streaming (chunked) body incrementally instead of buffering it.
/// Wrap the reader in [`ChunkedReader`] when the response is chunked.
///
/// # Errors
///
/// Returns a message on connection, framing or I/O failures.
#[allow(clippy::type_complexity)]
pub fn open_stream(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    read_timeout: Duration,
) -> Result<(u16, Vec<(String, String)>, BufReader<TcpStream>), String> {
    let mut reader = connect(addr, read_timeout)?;
    let (status, headers) =
        exchange(&mut reader, addr, method, path, body, false).map_err(|e| e.to_string())?;
    Ok((status, headers, reader))
}

/// Opens a `TCP_NODELAY` connection to `addr` with `read_timeout` on every
/// read, ready for [`exchange`].
///
/// # Errors
///
/// Returns a message when the connection or a socket option fails.
pub fn connect(addr: &str, read_timeout: Duration) -> Result<BufReader<TcpStream>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(read_timeout))
        .map_err(|e| format!("socket timeout: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("socket nodelay: {e}"))?;
    Ok(BufReader::new(stream))
}

/// Why [`exchange`] got no usable response head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExchangeError {
    /// The request could not be sent, or the connection ended or was reset
    /// before the first response byte.  On a reused keep-alive connection
    /// this is what a peer that closed the idle socket looks like, so the
    /// request may be sent again on a fresh connection.
    Unanswered(String),
    /// The peer held the connection without answering within the read
    /// timeout, or its response head is malformed or cut short.
    Failed(String),
}

impl std::fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExchangeError::Unanswered(e) | ExchangeError::Failed(e) => f.write_str(e),
        }
    }
}

impl std::error::Error for ExchangeError {}

/// Sends one request on the open connection `reader` (from [`connect`]),
/// in one write, and reads the response head; the reader is left at the
/// first body byte.  `keep_alive` asks the server to keep the socket open
/// for another request; [`keeps_alive`] on the returned headers says
/// whether it will.  Read the body to its end before the next exchange.
///
/// # Errors
///
/// [`ExchangeError::Unanswered`] when the request could not be sent or the
/// connection ended before any response byte, [`ExchangeError::Failed`] on
/// a read timeout or a malformed or truncated head.
pub fn exchange(
    reader: &mut BufReader<TcpStream>,
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    keep_alive: bool,
) -> Result<(u16, Vec<(String, String)>), ExchangeError> {
    let body = body.unwrap_or("");
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
        body.len()
    );
    let unanswered = |e: std::io::Error| ExchangeError::Unanswered(format!("sending request: {e}"));
    reader
        .get_mut()
        .write_all(request.as_bytes())
        .map_err(unanswered)?;
    reader.get_mut().flush().map_err(unanswered)?;
    match reader.fill_buf() {
        Ok([]) => {
            return Err(ExchangeError::Unanswered(
                "connection closed before the response".to_string(),
            ))
        }
        Ok(_) => {}
        Err(e) => {
            let message = format!("awaiting the response: {e}");
            return Err(match e.kind() {
                ErrorKind::WouldBlock | ErrorKind::TimedOut => ExchangeError::Failed(message),
                _ => ExchangeError::Unanswered(message),
            });
        }
    }
    read_head(reader).map_err(ExchangeError::Failed)
}

/// Whether `headers` say the server keeps the connection open
/// (`Connection: keep-alive`).
pub fn keeps_alive(headers: &[(String, String)]) -> bool {
    headers
        .iter()
        .any(|(k, v)| k.eq_ignore_ascii_case("connection") && v.eq_ignore_ascii_case("keep-alive"))
}

/// Decodes one response off `reader`.
///
/// # Errors
///
/// Returns a message on framing or I/O failures.
pub fn read_response(reader: &mut impl BufRead) -> Result<Response, String> {
    let (status, headers) = read_head(reader)?;
    let body = read_body(&headers, reader)?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

fn read_head(reader: &mut impl BufRead) -> Result<(u16, Vec<(String, String)>), String> {
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("reading status line: {e}"))?;
    let status = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line '{}'", line.trim_end()))?;
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("reading headers: {e}"))?;
        if n == 0 {
            return Err("eof inside response headers".to_string());
        }
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_string(), value.trim().to_string()));
        }
    }
    Ok((status, headers))
}

/// Whether `headers` declare a chunked transfer coding.
pub fn is_chunked(headers: &[(String, String)]) -> bool {
    headers.iter().any(|(k, v)| {
        k.eq_ignore_ascii_case("transfer-encoding") && v.eq_ignore_ascii_case("chunked")
    })
}

fn read_body(headers: &[(String, String)], reader: &mut impl BufRead) -> Result<Vec<u8>, String> {
    let length = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.parse::<usize>().ok());
    let mut body = Vec::new();
    if is_chunked(headers) {
        ChunkedReader::new(reader)
            .read_to_end(&mut body)
            .map_err(|e| format!("reading chunked body: {e}"))?;
    } else if let Some(length) = length {
        let mut exact = vec![0u8; length];
        reader
            .read_exact(&mut exact)
            .map_err(|e| format!("reading body: {e}"))?;
        body = exact;
    } else {
        reader
            .read_to_end(&mut body)
            .map_err(|e| format!("reading body: {e}"))?;
    }
    Ok(body)
}

/// An incremental decoder for HTTP/1.1 chunked transfer coding over any
/// [`BufRead`].
///
/// Tolerances, matching what real peers emit: chunk-size lines may arrive
/// split across reads (buffered reading reassembles them), chunk
/// extensions (`;name=value`) are stripped, blank lines between chunks
/// are skipped (so a missing or doubled inter-chunk CRLF does not
/// desynchronise the framing), a `0`-sized chunk terminates the body even
/// mid-stream, and EOF right after the terminal chunk — before the final
/// CRLF or trailer section — still yields a complete body.  A truncated
/// chunk *payload*, by contrast, is a hard [`ErrorKind::UnexpectedEof`]:
/// the declared size promised bytes that never arrived.
#[derive(Debug)]
pub struct ChunkedReader<R> {
    inner: R,
    remaining: usize,
    done: bool,
}

impl<R: BufRead> ChunkedReader<R> {
    /// Wraps `inner`, positioned at the first chunk-size line.
    pub fn new(inner: R) -> Self {
        ChunkedReader {
            inner,
            remaining: 0,
            done: false,
        }
    }

    /// Unwraps the inner reader (any trailer bytes remain unread unless
    /// the body was consumed to completion).
    pub fn into_inner(self) -> R {
        self.inner
    }

    /// Reads the next chunk-size line, skipping blank separator lines.
    fn next_size(&mut self) -> std::io::Result<usize> {
        loop {
            let mut line = Vec::new();
            let n = self.inner.read_until(b'\n', &mut line)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "eof before chunk size",
                ));
            }
            let text = String::from_utf8_lossy(&line);
            let text = text.trim();
            if text.is_empty() {
                continue;
            }
            let size = text.split(';').next().unwrap_or("").trim();
            return usize::from_str_radix(size, 16).map_err(|_| {
                std::io::Error::new(ErrorKind::InvalidData, format!("bad chunk size '{text}'"))
            });
        }
    }

    /// Consumes the optional trailer section after the terminal chunk.
    /// EOF anywhere in here is fine — the body is already complete.
    fn skip_trailers(&mut self) -> std::io::Result<()> {
        loop {
            let mut line = Vec::new();
            let n = self.inner.read_until(b'\n', &mut line)?;
            if n == 0 || line.iter().all(|&b| b == b'\r' || b == b'\n') {
                return Ok(());
            }
        }
    }
}

impl<R: BufRead> Read for ChunkedReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.done || buf.is_empty() {
            return Ok(0);
        }
        if self.remaining == 0 {
            let size = self.next_size()?;
            if size == 0 {
                self.skip_trailers()?;
                self.done = true;
                return Ok(0);
            }
            self.remaining = size;
        }
        let take = buf.len().min(self.remaining);
        let n = self.inner.read(&mut buf[..take])?;
        if n == 0 {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "eof inside chunk payload",
            ));
        }
        self.remaining -= n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn decodes_fixed_length_bodies() {
        let raw = b"HTTP/1.1 201 Created\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}";
        let response = read_response(&mut BufReader::new(&raw[..])).expect("decode");
        assert_eq!(response.status, 201);
        assert_eq!(response.body, b"{}");
        assert_eq!(response.header("content-type"), Some("application/json"));
    }

    #[test]
    fn decodes_chunked_bodies() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n6\r\nhello \r\n5\r\nworld\r\n0\r\n\r\n";
        let response = read_response(&mut BufReader::new(&raw[..])).expect("decode");
        assert_eq!(response.status, 200);
        assert_eq!(response.text(), "hello world");
    }

    #[test]
    fn decodes_to_eof_without_framing_headers() {
        let raw = b"HTTP/1.1 200 OK\r\n\r\nrest";
        let response = read_response(&mut BufReader::new(&raw[..])).expect("decode");
        assert_eq!(response.body, b"rest");
    }

    #[test]
    fn rejects_garbage_status_lines() {
        let raw = b"NOPE\r\n\r\n";
        assert!(read_response(&mut BufReader::new(&raw[..])).is_err());
    }

    #[test]
    fn chunked_reader_strips_extensions_and_tolerates_missing_final_crlf() {
        let raw = b"5;ext=1\r\nhello\r\n0\r\n";
        let mut body = Vec::new();
        ChunkedReader::new(BufReader::new(&raw[..]))
            .read_to_end(&mut body)
            .expect("decode");
        assert_eq!(body, b"hello");
    }

    #[test]
    fn chunked_reader_rejects_truncated_payload() {
        let raw = b"a\r\nhel";
        let mut body = Vec::new();
        let err = ChunkedReader::new(BufReader::new(&raw[..]))
            .read_to_end(&mut body)
            .expect_err("truncated");
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            attempts: 5,
            base: Duration::from_millis(100),
            cap: Duration::from_millis(350),
        };
        let delays: Vec<Duration> = policy.backoff().take(4).collect();
        assert_eq!(
            delays,
            vec![
                Duration::from_millis(100),
                Duration::from_millis(200),
                Duration::from_millis(350),
                Duration::from_millis(350),
            ]
        );
    }
}

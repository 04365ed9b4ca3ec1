//! The `POST /shards` keep-alive contract, both ends.
//!
//! Daemon side: successive `POST /shards` requests that send
//! `Connection: keep-alive` are answered in order on one socket, with the
//! same bytes a fresh connection gets, whatever config each request names.
//! Every other request (another route, `Connection: close`, an error
//! status) gets one response and a closed socket, and a response head says
//! `Connection: keep-alive` exactly when the socket stays open.
//!
//! Coordinator side: a worker that closes its socket after every response —
//! as an idle-timed-out daemon does — costs a reconnect, not a worker
//! failure: the dispatch finishes byte-identical to `stream::run` with no
//! shard reassigned.

use ld_runner::stream::{self, StreamOptions};
use ld_runner::{scenarios, SweepConfig};
use ld_serve::client::{self, is_chunked, keeps_alive, ChunkedReader};
use ld_serve::server::SHARDS_SCHEMA;
use ld_serve::{http, DispatchOptions, JobSpec, ServeOptions, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(30);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ld-serve-ka-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// An in-process daemon with one job worker.
struct Daemon {
    addr: String,
    thread: thread::JoinHandle<Result<(), String>>,
    dir: PathBuf,
}

impl Daemon {
    fn start(tag: &str) -> Daemon {
        let dir = temp_dir(tag);
        let server = Server::bind(&ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            spool: dir.join("spool"),
            workers: 1,
        })
        .expect("bind");
        let addr = server.local_addr().to_string();
        let thread = thread::spawn(move || server.run());
        Daemon { addr, thread, dir }
    }

    fn stop(self) {
        let drain = client::request(&self.addr, "POST", "/shutdown", None).expect("POST shutdown");
        assert_eq!(drain.status, 200);
        self.thread
            .join()
            .expect("daemon thread")
            .expect("daemon drained cleanly");
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn config(max_n: usize) -> SweepConfig {
    SweepConfig {
        max_n,
        shard_size: 4,
        ..SweepConfig::default()
    }
}

/// A `POST /shards` body for shards `first..stop` of `section2-sweep-xl`.
fn shards_body(config: &SweepConfig, epoch: u64, first: usize, stop: usize) -> String {
    JobSpec {
        config: config.clone(),
        ..JobSpec::new("section2-sweep-xl")
    }
    .to_json()
    .set("schema", SHARDS_SCHEMA)
    .set("epoch", epoch)
    .set("first_shard", first)
    .set("stop_shard", stop)
    .render_compact()
}

/// Sends one request on `reader`'s connection and reads the whole
/// response: `(status, says keep-alive, body)`.
fn exchange(
    reader: &mut BufReader<TcpStream>,
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    keep_alive: bool,
) -> (u16, bool, Vec<u8>) {
    let (status, headers) =
        client::exchange(reader, addr, method, path, body, keep_alive).expect("response head");
    let mut bytes = Vec::new();
    if is_chunked(&headers) {
        ChunkedReader::new(&mut *reader)
            .read_to_end(&mut bytes)
            .expect("chunked body");
    } else {
        let length: usize = headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.parse().ok())
            .expect("content-length");
        bytes.resize(length, 0);
        reader.read_exact(&mut bytes).expect("fixed-length body");
    }
    (status, keeps_alive(&headers), bytes)
}

/// The body a fresh `Connection: close` request gets.
fn fresh(addr: &str, body: &str) -> Vec<u8> {
    let mut reader = client::connect(addr, TIMEOUT).expect("connect");
    let (status, kept, bytes) = exchange(&mut reader, addr, "POST", "/shards", Some(body), false);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&bytes));
    assert!(!kept, "a Connection: close request is answered close");
    assert_closed(&mut reader);
    bytes
}

/// A shards response's lines with each line's `wall_micros` timings cut
/// out: everything else in a line is deterministic.
fn without_timings(body: &[u8]) -> Vec<String> {
    let text = String::from_utf8(body.to_vec()).expect("utf-8 shard lines");
    text.lines()
        .map(|line| {
            let start = line.find("\"wall_micros\":[").expect("wall_micros");
            let end = start + line[start..].find(']').expect("closing bracket");
            format!("{}{}", &line[..start], &line[end + 1..])
        })
        .collect()
}

/// The daemon closed the socket: the next read sees EOF.
fn assert_closed(reader: &mut BufReader<TcpStream>) {
    let buffered = reader.fill_buf().expect("read after the response");
    assert!(buffered.is_empty(), "the socket must be closed");
}

#[test]
fn shards_requests_on_one_connection_match_fresh_connections() {
    let daemon = Daemon::start("shards");
    let addr = daemon.addr.as_str();
    let (small, large) = (config(128), config(256));
    let requests = [
        shards_body(&small, 1, 0, 2),
        shards_body(&small, 2, 2, 5),
        // Another config on the same connection plans afresh.
        shards_body(&large, 3, 1, 3),
        // And back: the held plan was dropped, the answer is the same.
        shards_body(&small, 4, 0, 2),
    ];
    let mut reader = client::connect(addr, TIMEOUT).expect("connect");
    for body in &requests {
        let (status, kept, bytes) =
            exchange(&mut reader, addr, "POST", "/shards", Some(body), true);
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&bytes));
        assert!(kept, "a keep-alive shards request is answered keep-alive");
        assert_eq!(
            without_timings(&bytes),
            without_timings(&fresh(addr, body)),
            "kept-alive answer differs"
        );
    }
    // The two configs really produce different fragments for one range.
    assert_ne!(
        without_timings(&fresh(addr, &shards_body(&small, 5, 1, 3))),
        without_timings(&fresh(addr, &shards_body(&large, 5, 1, 3)))
    );
    // A final Connection: close request on the kept-alive socket closes it.
    let (status, kept, _) = exchange(
        &mut reader,
        addr,
        "POST",
        "/shards",
        Some(&requests[0]),
        false,
    );
    assert_eq!((status, kept), (200, false));
    assert_closed(&mut reader);
    daemon.stop();
}

#[test]
fn every_other_request_closes_after_one_response() {
    let daemon = Daemon::start("close");
    let addr = daemon.addr.as_str();
    let cases: [(&str, &str, Option<String>, u16); 4] = [
        ("GET", "/scenarios", None, 200),
        ("GET", "/jobs", None, 200),
        // An error status from the shards route closes too.
        (
            "POST",
            "/shards",
            Some(shards_body(&config(128), 1, 0, 999)),
            400,
        ),
        ("POST", "/shards", Some("{".to_string()), 400),
    ];
    for (method, path, body, want) in cases {
        let mut reader = client::connect(addr, TIMEOUT).expect("connect");
        let (status, kept, bytes) =
            exchange(&mut reader, addr, method, path, body.as_deref(), true);
        assert_eq!(
            status,
            want,
            "{method} {path}: {}",
            String::from_utf8_lossy(&bytes)
        );
        assert!(!kept, "{method} {path} must not promise keep-alive");
        assert_closed(&mut reader);
    }
    daemon.stop();
}

/// What a worker that closes after every response says about it.
#[derive(Clone, Copy)]
enum CloseHead {
    /// `Connection: close`, as a daemon without keep-alive answers.
    Honest,
    /// `Connection: keep-alive`, as a daemon that then hits its idle read
    /// timeout before the next request looks to the coordinator.
    KeepAlive,
}

/// Serves `POST /shards` on `listener` by forwarding each request to
/// `upstream` over a fresh connection and relaying the chunked answer
/// under `head`, then closing the socket.  Returns once `stop` is set and
/// a connection wakes the accept loop.
fn closing_worker(listener: TcpListener, upstream: String, head: CloseHead, stop: Arc<AtomicBool>) {
    for connection in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(mut socket) = connection else { continue };
        let mut reader = BufReader::new(socket.try_clone().expect("clone socket"));
        let Ok(Some(request)) = http::read_request(&mut reader) else {
            continue;
        };
        let body = String::from_utf8(request.body).expect("utf-8 body");
        let (status, headers, mut answer) =
            client::open_stream(&upstream, "POST", "/shards", Some(&body), TIMEOUT)
                .expect("forward to the real worker");
        assert!(
            status == 200 && is_chunked(&headers),
            "upstream answered {status}"
        );
        let connection = match head {
            CloseHead::Honest => "close",
            CloseHead::KeepAlive => "keep-alive",
        };
        let _ = write!(
            socket,
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nConnection: {connection}\r\n\r\n"
        );
        // The upstream daemon closes after the chunked body, so this copies
        // exactly one response.
        let _ = std::io::copy(&mut answer, &mut socket);
    }
}

#[test]
fn dispatch_over_a_worker_that_closes_every_connection_is_clean() {
    let config = SweepConfig {
        threads: 1,
        ..config(512)
    };
    let dir = temp_dir("dispatch");
    let reference = dir.join("reference.json");
    let scenario = scenarios::find("section2-sweep-xl").expect("scenario");
    let options = StreamOptions {
        deterministic: true,
        max_shards: None,
        csv: None,
    };
    stream::run(scenario.as_ref(), &config, &reference, &options).expect("reference run");
    let reference = std::fs::read(&reference).expect("reference bytes");

    let daemon = Daemon::start("upstream");
    for (index, head) in [CloseHead::Honest, CloseHead::KeepAlive]
        .into_iter()
        .enumerate()
    {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind worker");
        let worker = listener.local_addr().expect("worker addr").to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let relay = {
            let (upstream, stop) = (daemon.addr.clone(), Arc::clone(&stop));
            thread::spawn(move || closing_worker(listener, upstream, head, stop))
        };

        let out = dir.join(format!("dispatched-{index}.json"));
        let mut dispatch = DispatchOptions::new("section2-sweep-xl", &out);
        dispatch.config = config.clone();
        dispatch.workers = vec![worker.clone()];
        let result = ld_serve::dispatch(&dispatch);
        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(&worker);
        relay.join().expect("relay thread");

        let (summary, stats) = result.expect("dispatch");
        assert!(summary.completed);
        assert_eq!(stats.worker_failures, 0, "{stats:?}");
        assert_eq!(stats.reassigned, 0, "{stats:?}");
        assert_eq!(
            std::fs::read(&out).expect("dispatched bytes"),
            reference,
            "the dispatched report must byte-match stream::run"
        );
    }
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

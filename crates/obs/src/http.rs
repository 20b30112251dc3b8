//! A tiny blocking HTTP responder for metrics exposition, plus a one-shot
//! client for `ctc obs dump --addr`.
//!
//! This is deliberately not a web framework: one listener thread, one
//! request per connection, `GET /metrics` (and `/`) answered with the
//! registry rendered as Prometheus text, anything else a 404. That is all
//! a scraper needs, and it keeps the dependency count at zero.
//!
//! Connections are served one at a time, so each gets one deadline for
//! its whole request head (one second) and a cap on its length (4 KiB):
//! a client that trickles its request, or never ends it, is dropped, and
//! the next scrape is served.

use crate::registry::Registry;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a connection has to send its whole request head.
const HEAD_DEADLINE: Duration = Duration::from_secs(1);

/// The longest request head served; a longer one is dropped unanswered.
const MAX_HEAD_BYTES: usize = 4096;

/// A running metrics endpoint. The listener thread is detached and serves
/// until the process exits or [`shutdown`](MetricsServer::shutdown) is
/// called; dropping the handle does *not* stop it (the monitor serves for
/// its whole lifetime).
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

impl MetricsServer {
    /// The bound address — useful when serving on port `0`.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the listener thread to exit after its next accepted (or
    /// self-made) connection.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }
}

/// Binds `addr` (e.g. `127.0.0.1:9100`; port `0` picks a free port) and
/// serves `registry` from a detached thread.
pub fn serve(addr: &str, registry: Arc<Registry>) -> std::io::Result<MetricsServer> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    std::thread::Builder::new()
        .name("ctc-obs-http".into())
        .spawn(move || {
            for conn in listener.incoming() {
                if thread_stop.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                // One slow scraper must not wedge the endpoint forever.
                let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
                let _ = handle(stream, &registry);
            }
        })
        .expect("spawn metrics listener");
    Ok(MetricsServer { addr: bound, stop })
}

fn handle(mut stream: TcpStream, registry: &Registry) -> io::Result<()> {
    let head = read_head(&mut stream)?;
    let head = String::from_utf8_lossy(&head);
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" {
        return respond(
            &mut stream,
            "405 Method Not Allowed",
            "method not allowed\n",
        );
    }
    let path = path.split('?').next().unwrap_or("");
    if path == "/metrics" || path == "/" {
        respond(&mut stream, "200 OK", &registry.render())
    } else {
        respond(&mut stream, "404 Not Found", "try /metrics\n")
    }
}

/// Reads a request head up to its blank line (or the client's EOF), so
/// the client sees a clean close. Fails once [`HEAD_DEADLINE`] has passed
/// since the first read, or once more than [`MAX_HEAD_BYTES`] arrived.
fn read_head(stream: &mut TcpStream) -> io::Result<Vec<u8>> {
    let deadline = Instant::now() + HEAD_DEADLINE;
    let mut head = Vec::new();
    let mut buf = [0u8; 512];
    while !(head.windows(4).any(|w| w == b"\r\n\r\n") || head.windows(2).any(|w| w == b"\n\n")) {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::other("request head too slow"));
        }
        stream.set_read_timeout(Some(left))?;
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.len() > MAX_HEAD_BYTES {
            return Err(io::Error::other("request head too long"));
        }
    }
    Ok(head)
}

fn respond(stream: &mut TcpStream, status: &str, body: &str) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Fetches `/metrics` from a running endpoint and returns the body
/// (one-shot HTTP/1.0-style client for `ctc obs dump --addr`).
pub fn fetch_text(addr: &str) -> std::io::Result<String> {
    let target = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "unresolvable address"))?;
    let mut stream = TcpStream::connect_timeout(&target, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response.split_once("\r\n\r\n").ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response")
    })?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains("200") {
        return Err(std::io::Error::other(format!("endpoint returned {status}")));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    #[test]
    fn serves_metrics_and_404s_elsewhere() {
        let registry = Arc::new(Registry::new());
        let count = Arc::new(AtomicU64::new(42));
        let owned = Arc::clone(&count);
        registry.counter_fn(
            "ctc_http_test_total",
            "Exercised by the HTTP test.",
            &[],
            move || owned.load(Relaxed),
        );
        let server = serve("127.0.0.1:0", Arc::clone(&registry)).expect("bind");
        let addr = server.addr().to_string();

        let body = fetch_text(&addr).expect("fetch");
        assert!(body.contains("ctc_http_test_total 42"), "{body}");
        assert!(body.contains("# TYPE ctc_http_test_total counter"));

        // A scrape sees updated values, not a snapshot from serve() time.
        count.fetch_add(1, Relaxed);
        assert!(fetch_text(&addr)
            .unwrap()
            .contains("ctc_http_test_total 43"));

        // Non-/metrics paths 404 but keep the connection protocol intact.
        let mut stream = TcpStream::connect(&addr).unwrap();
        write!(stream, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 404"), "{response}");

        server.shutdown();
    }

    /// A client that sends its request a byte at a time, never ending it,
    /// holds the endpoint for one head deadline at most: a scrape behind
    /// it is served within two seconds. An over-long head is dropped
    /// unanswered.
    #[test]
    fn a_trickling_client_does_not_stall_a_scrape() {
        let server = serve("127.0.0.1:0", Arc::new(Registry::new())).expect("bind");
        let addr = server.addr();
        let stop = Arc::new(AtomicBool::new(false));
        let trickle = {
            let stop = Arc::clone(&stop);
            let mut slow = TcpStream::connect(addr).unwrap();
            std::thread::spawn(move || {
                while !stop.load(Relaxed) && slow.write_all(b"G").is_ok() {
                    std::thread::sleep(Duration::from_millis(100));
                }
            })
        };
        let started = Instant::now();
        let scraped = fetch_text(&addr.to_string());
        let took = started.elapsed();
        stop.store(true, Relaxed);
        trickle.join().unwrap();
        scraped.expect("a scrape behind a trickling client");
        assert!(took < Duration::from_secs(2), "the scrape took {took:?}");

        let mut long = TcpStream::connect(addr).unwrap();
        long.write_all(&[b'A'; 2 * MAX_HEAD_BYTES]).unwrap();
        let mut response = Vec::new();
        let _ = long.read_to_end(&mut response);
        assert!(response.is_empty(), "{response:?}");
        assert!(fetch_text(&addr.to_string()).is_ok());
        server.shutdown();
    }
}

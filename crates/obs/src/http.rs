//! A tiny blocking HTTP responder for metrics exposition, plus a one-shot
//! client for `ctc obs dump --addr`.
//!
//! This is deliberately not a web framework: one listener thread, one
//! request per connection, `GET /metrics` (and `/`) answered with the
//! registry rendered as Prometheus text, anything else a 404. That is all
//! a scraper needs, and it keeps the dependency count at zero.

use crate::registry::Registry;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
                let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
                let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
                let _ = handle(stream, &registry);
            }
        })
        .expect("spawn metrics listener");
    Ok(MetricsServer { addr: bound, stop })
}

fn handle(stream: TcpStream, registry: &Registry) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers so the client sees a clean close.
    let mut header = String::new();
    loop {
        header.clear();
        if reader.read_line(&mut header)? == 0 || header == "\r\n" || header == "\n" {
            break;
        }
    }
    let mut stream = reader.into_inner();
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

fn respond(stream: &mut TcpStream, status: &str, body: &str) -> std::io::Result<()> {
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
}

//! Where the IQ stream comes from: a cf32 file, standard input, a TCP
//! socket, or a Unix-domain socket — the transports a deployed gateway
//! actually sees (replay capture, shell pipeline, networked SDR, local
//! SDR daemon).
//!
//! [`Input`] parses CLI-style specs (it implements [`FromStr`], so
//! `"tcp://…".parse()` works) and opens them either as a one-shot byte
//! stream ([`Input::open`], the legacy single-stream path) or as a
//! reusable [`Listener`] that a [`GatewayServer`] accepts many concurrent
//! sessions from.
//!
//! [`GatewayServer`]: crate::server::GatewayServer

use crate::error::GatewayError;
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

/// An IQ byte-stream source, parsed from a CLI-style spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Input {
    /// A cf32 file on disk.
    File(PathBuf),
    /// Standard input (`-`).
    Stdin,
    /// Listen on `addr` and stream from clients that connect
    /// (`tcp://addr`); e.g. GNURadio's TCP sink pointed at the gateway.
    TcpListen(String),
    /// Listen on a Unix-domain socket (`unix://path`); the zero-copy
    /// local transport for an SDR daemon on the same host.
    UnixListen(PathBuf),
}

impl FromStr for Input {
    type Err = GatewayError;

    fn from_str(spec: &str) -> Result<Input, GatewayError> {
        let bad = |reason: &str| {
            Err(GatewayError::BadAddress {
                spec: spec.to_string(),
                reason: reason.to_string(),
            })
        };
        if spec.is_empty() {
            return bad("empty input spec");
        }
        if spec == "-" {
            return Ok(Input::Stdin);
        }
        if let Some(addr) = spec.strip_prefix("tcp://") {
            if addr.is_empty() {
                return bad("missing host:port after tcp://");
            }
            if !addr.contains(':') {
                return bad("tcp address must be host:port");
            }
            return Ok(Input::TcpListen(addr.to_string()));
        }
        if let Some(path) = spec.strip_prefix("unix://") {
            if path.is_empty() {
                return bad("missing socket path after unix://");
            }
            return Ok(Input::UnixListen(PathBuf::from(path)));
        }
        if let Some((scheme, _)) = spec.split_once("://") {
            return bad(&format!("unsupported scheme {scheme}://"));
        }
        Ok(Input::File(PathBuf::from(spec)))
    }
}

impl Input {
    /// Parses an input spec: `-` is stdin, `tcp://HOST:PORT` and
    /// `unix://PATH` bind listeners, anything else is a file path.
    ///
    /// # Errors
    ///
    /// [`GatewayError::BadAddress`] on an empty spec, a listener spec
    /// with no address, or an unknown `scheme://`.
    pub fn parse(spec: &str) -> Result<Input, GatewayError> {
        spec.parse()
    }

    /// Opens the byte stream. For the listener flavours this blocks until
    /// one client connects, then streams from that connection (the legacy
    /// single-stream path; a server calls [`Listener::bind`] instead).
    ///
    /// # Errors
    ///
    /// File-open, bind, or accept errors, as [`GatewayError`].
    pub fn open(&self) -> Result<Box<dyn Read + Send>, GatewayError> {
        match self {
            Input::File(path) => Ok(Box::new(std::fs::File::open(path).map_err(|source| {
                GatewayError::Open {
                    input: path.display().to_string(),
                    source,
                }
            })?)),
            Input::Stdin => Ok(Box::new(io::stdin())),
            Input::TcpListen(_) | Input::UnixListen(_) => {
                let listener = Listener::bind(self)?;
                let (conn, _peer) = listener.accept().map_err(GatewayError::Accept)?;
                Ok(Box::new(conn))
            }
        }
    }
}

impl std::fmt::Display for Input {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Input::File(p) => write!(f, "{}", p.display()),
            Input::Stdin => write!(f, "stdin"),
            Input::TcpListen(a) => write!(f, "tcp://{a}"),
            Input::UnixListen(p) => write!(f, "unix://{}", p.display()),
        }
    }
}

/// A bound accept socket: TCP or Unix-domain, one interface.
///
/// Wraps the two OS listener types so the server's accept loop is
/// transport-agnostic. [`Listener::accept`] is non-blocking once
/// [`set_nonblocking`](Listener::set_nonblocking) is on; accepted
/// connections are returned as boxed readers with a short read timeout
/// already applied, so a stalled client polls instead of wedging its
/// ingest thread (see [`SessionStream`]).
#[derive(Debug)]
pub enum Listener {
    /// A bound TCP listener.
    Tcp(TcpListener),
    /// A bound Unix-domain listener (the socket file is removed on drop).
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

/// How long an accepted connection's reads wait before re-checking the
/// server's shutdown flag.
const READ_POLL: Duration = Duration::from_millis(100);

impl Listener {
    /// Binds the listener described by `input`.
    ///
    /// # Errors
    ///
    /// [`GatewayError::BadAddress`] when `input` is not a listener spec;
    /// [`GatewayError::Bind`] when the OS refuses the bind. A `unix://`
    /// bind removes a pre-existing socket file first (the standard
    /// daemon-restart idiom).
    pub fn bind(input: &Input) -> Result<Listener, GatewayError> {
        match input {
            Input::TcpListen(addr) => {
                let listener =
                    TcpListener::bind(addr.as_str()).map_err(|source| GatewayError::Bind {
                        addr: input.to_string(),
                        source,
                    })?;
                Ok(Listener::Tcp(listener))
            }
            #[cfg(unix)]
            Input::UnixListen(path) => {
                if path.exists() {
                    let _ = std::fs::remove_file(path);
                }
                let listener = UnixListener::bind(path).map_err(|source| GatewayError::Bind {
                    addr: input.to_string(),
                    source,
                })?;
                Ok(Listener::Unix(listener, path.clone()))
            }
            #[cfg(not(unix))]
            Input::UnixListen(_) => Err(GatewayError::BadAddress {
                spec: input.to_string(),
                reason: "unix:// sockets are not supported on this platform".to_string(),
            }),
            other => Err(GatewayError::BadAddress {
                spec: other.to_string(),
                reason: "not a listener spec (want tcp:// or unix://)".to_string(),
            }),
        }
    }

    /// The bound address as a connectable spec (`tcp://ip:port` with the
    /// OS-assigned port resolved, or `unix://path`).
    pub fn local_display(&self) -> String {
        match self {
            Listener::Tcp(l) => match l.local_addr() {
                Ok(addr) => format!("tcp://{addr}"),
                Err(_) => "tcp://?".to_string(),
            },
            #[cfg(unix)]
            Listener::Unix(_, path) => format!("unix://{}", path.display()),
        }
    }

    /// Switches the accept socket between blocking and non-blocking.
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nonblocking),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.set_nonblocking(nonblocking),
        }
    }

    /// Accepts one connection, returning its reader and a peer label.
    /// In non-blocking mode, `WouldBlock` means "no client waiting".
    pub fn accept(&self) -> io::Result<(SessionStream, String)> {
        match self {
            Listener::Tcp(l) => {
                let (conn, peer) = l.accept()?;
                // The per-connection socket must block (with a timeout)
                // even when the accept socket does not.
                conn.set_nonblocking(false)?;
                conn.set_read_timeout(Some(READ_POLL))?;
                Ok((SessionStream::new(StreamKind::Tcp(conn)), peer.to_string()))
            }
            #[cfg(unix)]
            Listener::Unix(l, path) => {
                let (conn, _peer) = l.accept()?;
                conn.set_nonblocking(false)?;
                conn.set_read_timeout(Some(READ_POLL))?;
                Ok((
                    SessionStream::new(StreamKind::Unix(conn)),
                    format!("unix://{}", path.display()),
                ))
            }
        }
    }
}

#[cfg(unix)]
impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// An accepted connection with timeout-aware reads: a read that times out
/// silently retries, re-checking an optional shutdown flag each poll —
/// when the flag is raised the stream reports end-of-file, so a stalled
/// client can never wedge its ingest thread past a server shutdown.
#[derive(Debug)]
pub struct SessionStream {
    inner: StreamKind,
    shutdown: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

#[derive(Debug)]
enum StreamKind {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl SessionStream {
    fn new(inner: StreamKind) -> Self {
        SessionStream {
            inner,
            shutdown: None,
        }
    }

    /// Ends the stream (as EOF) once `flag` is set: checked before every
    /// read and on every read-timeout poll.
    pub fn with_shutdown(mut self, flag: std::sync::Arc<std::sync::atomic::AtomicBool>) -> Self {
        self.shutdown = Some(flag);
        self
    }
}

impl Read for SessionStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            if let Some(flag) = &self.shutdown {
                if flag.load(std::sync::atomic::Ordering::Relaxed) {
                    return Ok(0);
                }
            }
            let result = match &mut self.inner {
                StreamKind::Tcp(s) => s.read(buf),
                #[cfg(unix)]
                StreamKind::Unix(s) => s.read(buf),
            };
            match result {
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                other => return other,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn parses_specs() {
        assert_eq!(Input::parse("-").unwrap(), Input::Stdin);
        assert_eq!(
            Input::parse("tcp://127.0.0.1:4000").unwrap(),
            Input::TcpListen("127.0.0.1:4000".into())
        );
        assert_eq!(
            Input::parse("unix:///tmp/ctc.sock").unwrap(),
            Input::UnixListen(PathBuf::from("/tmp/ctc.sock"))
        );
        assert_eq!(
            Input::parse("x.cf32").unwrap(),
            Input::File(PathBuf::from("x.cf32"))
        );
        assert_eq!(Input::parse("x.cf32").unwrap().to_string(), "x.cf32");
        assert_eq!(Input::parse("-").unwrap().to_string(), "stdin");
        assert_eq!(
            Input::parse("unix:///tmp/ctc.sock").unwrap().to_string(),
            "unix:///tmp/ctc.sock"
        );
    }

    #[test]
    fn from_str_is_the_parse_path() {
        let input: Input = "tcp://0.0.0.0:9000".parse().unwrap();
        assert_eq!(input, Input::TcpListen("0.0.0.0:9000".into()));
        assert!("tcp://".parse::<Input>().is_err());
    }

    #[test]
    fn malformed_specs_are_typed_errors() {
        for (spec, needle) in [
            ("", "empty"),
            ("tcp://", "missing host:port"),
            ("tcp://nohost", "host:port"),
            ("unix://", "missing socket path"),
            ("quic://x:1", "unsupported scheme"),
        ] {
            match Input::parse(spec) {
                Err(GatewayError::BadAddress { spec: s, reason }) => {
                    assert_eq!(s, spec);
                    assert!(reason.contains(needle), "{spec}: {reason}");
                }
                other => panic!("{spec}: expected BadAddress, got {other:?}"),
            }
        }
    }

    #[test]
    fn file_source_round_trips() {
        let dir = std::env::temp_dir().join("ctc_gateway_source_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("in.bin");
        std::fs::write(&path, b"hello").unwrap();
        let mut out = Vec::new();
        Input::parse(path.to_str().unwrap())
            .unwrap()
            .open()
            .unwrap()
            .read_to_end(&mut out)
            .unwrap();
        assert_eq!(out, b"hello");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn missing_file_is_a_typed_open_error() {
        let err = match Input::File(PathBuf::from("/no/such/capture.cf32")).open() {
            Ok(_) => panic!("open of a missing file must fail"),
            Err(err) => err,
        };
        assert!(matches!(err, GatewayError::Open { .. }), "{err:?}");
        assert!(err.exit_code() > 3);
    }

    #[test]
    fn tcp_source_streams_from_first_client() {
        let listener = Listener::bind(&Input::TcpListen("127.0.0.1:0".into())).unwrap();
        let addr = listener
            .local_display()
            .strip_prefix("tcp://")
            .unwrap()
            .to_string();
        let writer = std::thread::spawn(move || {
            let mut conn = std::net::TcpStream::connect(addr.as_str()).unwrap();
            conn.write_all(b"iq-bytes").unwrap();
        });
        let (mut conn, peer) = listener.accept().unwrap();
        assert!(peer.starts_with("127.0.0.1:"), "peer label: {peer}");
        let mut out = Vec::new();
        conn.read_to_end(&mut out).unwrap();
        writer.join().unwrap();
        assert_eq!(out, b"iq-bytes");
    }

    #[cfg(unix)]
    #[test]
    fn unix_listener_accepts_and_cleans_up() {
        let dir = std::env::temp_dir().join("ctc_gateway_uds_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gw.sock");
        let input = Input::parse(&format!("unix://{}", path.display())).unwrap();
        let listener = Listener::bind(&input).unwrap();
        assert_eq!(listener.local_display(), input.to_string());
        let sock = path.clone();
        let writer = std::thread::spawn(move || {
            let mut conn = std::os::unix::net::UnixStream::connect(&sock).unwrap();
            conn.write_all(b"uds-bytes").unwrap();
        });
        let (mut conn, _peer) = listener.accept().unwrap();
        let mut out = Vec::new();
        conn.read_to_end(&mut out).unwrap();
        writer.join().unwrap();
        assert_eq!(out, b"uds-bytes");
        drop(listener);
        assert!(!path.exists(), "socket file removed on drop");
        // Re-binding over a stale socket file also works.
        std::fs::write(&path, b"").unwrap();
        let relisten = Listener::bind(&input).unwrap();
        drop(relisten);
        let _ = std::fs::remove_dir_all(dir);
    }
}

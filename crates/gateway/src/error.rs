//! The gateway's typed error surface.
//!
//! Every public fallible operation in this crate returns [`GatewayError`]
//! instead of a bare `std::io::Error`, so callers (and the `ctc monitor`
//! process) can tell a malformed address apart from a refused bind, a
//! dying client socket, or a broken event sink — each maps to its own
//! process exit code via [`GatewayError::exit_code`].

use std::fmt;
use std::io;

/// Everything that can go wrong running the gateway.
#[derive(Debug)]
pub enum GatewayError {
    /// An input/listen spec that does not parse (`tcp://` with no
    /// address, empty `unix://` path, …).
    BadAddress {
        /// The spec as given.
        spec: String,
        /// Why it was rejected.
        reason: String,
    },
    /// Binding a listener failed.
    Bind {
        /// The address that refused to bind.
        addr: String,
        /// The underlying OS error.
        source: io::Error,
    },
    /// Accepting a connection failed (transient `WouldBlock` is handled
    /// internally; this is a real accept failure).
    Accept(io::Error),
    /// Opening an input byte stream failed (file open, for instance).
    Open {
        /// The input spec that failed to open.
        input: String,
        /// The underlying OS error.
        source: io::Error,
    },
    /// Reading a session's IQ stream failed mid-run.
    Read {
        /// Label of the session whose input died.
        stream: String,
        /// The underlying read error.
        source: io::Error,
    },
    /// Writing the JSONL event sink (or the stats sink) failed.
    SinkWrite(io::Error),
    /// A configuration rejected by [`GatewayConfigBuilder::build`]
    /// (workers or chunk size out of range, zero queue depth, …).
    ///
    /// [`GatewayConfigBuilder::build`]: crate::pipeline::GatewayConfigBuilder::build
    Config(String),
}

impl GatewayError {
    /// The process exit code `ctc monitor` maps this error to. Distinct
    /// per variant so shell pipelines can branch; `3` stays reserved for
    /// "forgery detected" (which is a verdict, not an error).
    pub fn exit_code(&self) -> u8 {
        match self {
            GatewayError::BadAddress { .. } => 4,
            GatewayError::Bind { .. } | GatewayError::Accept(_) => 5,
            GatewayError::SinkWrite(_) => 7,
            GatewayError::Open { .. } | GatewayError::Read { .. } => 9,
            GatewayError::Config(_) => 10,
        }
    }

    /// Wraps a sink write error.
    pub(crate) fn sink(source: io::Error) -> Self {
        GatewayError::SinkWrite(source)
    }
}

impl fmt::Display for GatewayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GatewayError::BadAddress { spec, reason } => {
                write!(f, "bad address {spec:?}: {reason}")
            }
            GatewayError::Bind { addr, source } => write!(f, "bind {addr}: {source}"),
            GatewayError::Accept(e) => write!(f, "accept: {e}"),
            GatewayError::Open { input, source } => write!(f, "open {input}: {source}"),
            GatewayError::Read { stream, source } => {
                write!(f, "stream {stream}: read: {source}")
            }
            GatewayError::SinkWrite(e) => write!(f, "event sink: {e}"),
            GatewayError::Config(reason) => write!(f, "invalid configuration: {reason}"),
        }
    }
}

impl std::error::Error for GatewayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GatewayError::Bind { source, .. }
            | GatewayError::Open { source, .. }
            | GatewayError::Read { source, .. } => Some(source),
            GatewayError::Accept(e) | GatewayError::SinkWrite(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_and_avoid_reserved_values() {
        let errs = [
            GatewayError::BadAddress {
                spec: "x".into(),
                reason: "y".into(),
            },
            GatewayError::Bind {
                addr: "a".into(),
                source: io::Error::other("e"),
            },
            GatewayError::SinkWrite(io::Error::other("e")),
            GatewayError::Read {
                stream: "s1".into(),
                source: io::Error::other("e"),
            },
            GatewayError::Config("zero workers".into()),
        ];
        let mut codes: Vec<u8> = errs.iter().map(GatewayError::exit_code).collect();
        // Accept shares the bind code (both are "listener broken").
        codes.push(GatewayError::Accept(io::Error::other("e")).exit_code());
        for code in &codes {
            // 0 = clean, 1 = generic CLI error, 2 = usage, 3 = forgery.
            assert!(*code > 3, "exit code {code} collides with a reserved one");
        }
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), errs.len(), "variant exit codes overlap");
    }

    #[test]
    fn displays_are_actionable() {
        let e = GatewayError::BadAddress {
            spec: "tcp://".into(),
            reason: "missing host:port".into(),
        };
        assert_eq!(e.to_string(), "bad address \"tcp://\": missing host:port");
        let chained = GatewayError::Bind {
            addr: "tcp://127.0.0.1:1".into(),
            source: io::Error::other("denied"),
        };
        assert!(std::error::Error::source(&chained).is_some());
    }
}

//! # hide-and-seek
//!
//! Facade crate for the reproduction of *Hide and Seek: Waveform Emulation
//! Attack and Defense in Cross-Technology Communication* (ICDCS 2019).
//!
//! Re-exports the workspace crates under one roof so examples and
//! integration tests can use a single dependency:
//!
//! - [`dsp`] — FFT, filters, resampling, cumulants, k-means
//! - [`channel`] — AWGN, CFO/phase offset, fading, path loss, RSSI
//! - [`zigbee`] — IEEE 802.15.4 O-QPSK/DSSS PHY + MAC
//! - [`wifi`] — IEEE 802.11g 64-QAM OFDM PHY
//! - [`core`] — the paper's contribution: the waveform-emulation attack and
//!   the cumulant-based defense
//! - [`gateway`] — the defense as a long-running service: a multi-stream
//!   server (sessions sharing one drop-budgeted work queue into one
//!   decode/classify pool), `stream`-tagged JSONL events and per-stream
//!   metrics
//! - [`loadgen`] — fleet-scale traffic generation and SLO-asserting soak
//!   testing against the gateway: seeded mixed authentic/forged/noise
//!   streams with generator-side ground truth
//! - [`vectors`] — the golden-vector regression corpus: deterministic
//!   per-stage artifacts with tolerance-aware comparison
//! - [`obs`] — the unified telemetry layer: lock-free metrics registry,
//!   Prometheus-style exposition, structured pipeline tracing
//!
//! Fallible operations across the workspace converge on the single
//! [`Error`] enum (re-exported from `ctc_core`), so cross-crate pipelines
//! propagate with `?` instead of juggling per-crate error types.

#![warn(missing_docs)]

pub use ctc_channel as channel;
pub use ctc_core as core;
pub use ctc_core::{Error, WaveformPair};
pub use ctc_dsp as dsp;
pub use ctc_dsp::{BufferPool, Complex, SampleBuf};
pub use ctc_gateway as gateway;
pub use ctc_loadgen as loadgen;
pub use ctc_obs as obs;
pub use ctc_vectors as vectors;
pub use ctc_wifi as wifi;
pub use ctc_zigbee as zigbee;

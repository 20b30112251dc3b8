//! Process-level collectors: memory footprint of the *process itself*,
//! scraped alongside the pipeline's own counters.
//!
//! The soak harness asserts "no monotonic memory growth over minutes of
//! sustained load" — which is only checkable if the gateway exposes its
//! resident set size on the same `/metrics` endpoint the harness already
//! scrapes. [`register_process_metrics`] wires a `gauge_fn` that reads
//! `/proc/self/status` on each scrape (cold path; a scrape every few
//! seconds costs one small file read).

use crate::registry::Registry;
use std::sync::OnceLock;

/// Gauge name under which the resident set size is exposed, in bytes
/// (the conventional Prometheus process-metric name).
pub const RSS_GAUGE: &str = "process_resident_memory_bytes";

/// Registers process-level gauges (currently [`RSS_GAUGE`]) into
/// `registry`. Returns `true` when the platform supports them; on
/// non-Linux targets nothing is registered and the soak harness reports
/// its memory check as skipped rather than failing. Whether `/proc` is
/// there is probed once per process, on the first call.
pub fn register_process_metrics(registry: &Registry) -> bool {
    static SUPPORTED: OnceLock<bool> = OnceLock::new();
    if !*SUPPORTED.get_or_init(|| resident_bytes().is_some()) {
        return false;
    }
    registry.gauge_fn(
        RSS_GAUGE,
        "Resident set size of this process in bytes.",
        &[],
        || resident_bytes().unwrap_or(0) as f64,
    );
    true
}

/// Current resident set size in bytes, or `None` where `/proc` is
/// unavailable.
pub fn resident_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    // "VmRSS:      1234 kB" — kB regardless of page size.
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn exposes_a_positive_rss() {
        let registry = Registry::new();
        assert!(register_process_metrics(&registry));
        let text = registry.render();
        let value: f64 = text
            .lines()
            .find(|l| l.starts_with(RSS_GAUGE))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .expect("RSS gauge rendered");
        assert!(value > 0.0, "{text}");
    }
}

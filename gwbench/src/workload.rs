//! The named workloads (see README.md for why each exists).

/// One named traffic mix driven through the gateway.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Concurrent streams, each its own labelled gateway session.
    pub streams: usize,
    /// Quiet samples before every burst.
    pub gap_samples: usize,
    /// Per-stream paced rate in samples/s.
    pub rate_sps: f64,
    /// `--detector features` (the five-extractor ensemble) instead of
    /// the default cumulant detector.
    pub features: bool,
}

impl Workload {
    /// The offered rate over all streams.
    pub fn offered_sps(&self) -> f64 {
        self.rate_sps * self.streams as f64
    }
}

/// One real ZigBee channel in real time.
const REAL_TIME_SPS: f64 = 4e6;

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "busy-rt-cumulant",
        streams: 2,
        gap_samples: 4096,
        rate_sps: REAL_TIME_SPS,
        features: false,
    },
    Workload {
        name: "busy-rt-features",
        streams: 2,
        gap_samples: 4096,
        rate_sps: REAL_TIME_SPS,
        features: true,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

//! Per-stream pipeline configuration: the chunking, worker, queue and
//! detection-stage knobs every [`GatewayServer`](crate::server::GatewayServer)
//! session runs with, and its validating builder.
//!
//! The pipeline itself (ingest, then decode and classify inline or
//! through the work queue and its worker pool, then the ordered event
//! output) lives in [`crate::server`].

use crate::error::GatewayError;
use ctc_core::defense::{DetectionPipeline, Detector, EnergyDetector};
use ctc_dsp::io::DEFAULT_CHUNK_SAMPLES;
use ctc_zigbee::Receiver;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// The most decode/classify workers [`GatewayConfigBuilder::build`]
/// accepts: each is a thread, and far more than cores only adds
/// switching.
pub const MAX_WORKERS: usize = 256;

/// The largest ingest chunk [`GatewayConfigBuilder::build`] accepts, in
/// samples: each session's reader holds a buffer of `8 × chunk_samples`
/// bytes (32 MiB at this bound).
pub const MAX_CHUNK_SAMPLES: usize = 1 << 22;

/// Gateway configuration: transport-independent pipeline knobs plus the
/// three detection stages: energy gate, receiver and one classifying
/// [`DetectionPipeline`].
///
/// Construct via [`GatewayConfig::builder`] (validates at build time) or
/// [`GatewayConfig::default`]; the fields stay public for
/// record-update syntax over a known-good base.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// The largest ingest chunk in samples: each read of a session's
    /// stream goes to the splitter as it arrives, capped at this size.
    /// A read is scanned in blocks of
    /// [`INGEST_BLOCK_SAMPLES`](crate::INGEST_BLOCK_SAMPLES), each block's
    /// bursts handed on before the next is scanned, so a larger cap does
    /// not delay a verdict.
    pub chunk_samples: usize,
    /// The most decode/classify worker threads a run starts, and the
    /// inline limit: a session decodes a burst on its own thread only
    /// while nothing is queued and fewer than `workers` bursts are being
    /// processed, inline or by a worker. Workers start on demand, one per
    /// queued burst until `workers` have started, so a run whose bursts
    /// all run inline starts none. The two bounds are separate: workers
    /// pop whatever is queued, so up to `2 × workers` bursts can be
    /// processed at once.
    pub workers: usize,
    /// Bounded work-queue depth per worker, in bursts: the run's one
    /// queue holds `queue_depth × workers` bursts across all sessions.
    pub queue_depth: usize,
    /// Burst-length cap in samples (continuous transmissions are split),
    /// bounding per-burst memory.
    pub max_burst: usize,
    /// Emit a stats line this often (`None`: only the final one).
    pub stats_interval: Option<Duration>,
    /// Energy/burst detection stage.
    pub energy: EnergyDetector,
    /// Frame decoding stage.
    pub receiver: Receiver,
    /// Classification stage. The default is the paper's test
    /// ([`DetectionPipeline::legacy`]: ideal-channel DE² against
    /// `Q = 0.5`), whose events carry no scores; a pipeline with
    /// extractors adds per-feature scores to every event.
    pub pipeline: Arc<DetectionPipeline>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            chunk_samples: DEFAULT_CHUNK_SAMPLES,
            workers: default_workers(),
            queue_depth: 64,
            max_burst: 1 << 20,
            stats_interval: Some(Duration::from_secs(5)),
            energy: EnergyDetector::default(),
            receiver: Receiver::usrp().with_sync_search(96),
            pipeline: Detector::default().into(),
        }
    }
}

impl GatewayConfig {
    /// A validating builder starting from [`GatewayConfig::default`].
    pub fn builder() -> GatewayConfigBuilder {
        GatewayConfigBuilder {
            config: GatewayConfig::default(),
        }
    }
}

/// Builder for [`GatewayConfig`] that rejects nonsense at
/// [`build`](GatewayConfigBuilder::build) time instead of panicking (or
/// hanging) deep inside a run.
#[derive(Debug, Clone)]
pub struct GatewayConfigBuilder {
    config: GatewayConfig,
}

impl GatewayConfigBuilder {
    /// The largest ingest chunk in samples (each read is handed over as
    /// it arrives, up to this size).
    pub fn chunk_samples(mut self, samples: usize) -> Self {
        self.config.chunk_samples = samples;
        self
    }

    /// The most decode/classify worker threads, and the inline limit (see
    /// [`GatewayConfig::workers`]).
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Bounded work-queue depth per worker, in bursts.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.config.queue_depth = depth;
        self
    }

    /// Burst-length cap in samples.
    pub fn max_burst(mut self, max: usize) -> Self {
        self.config.max_burst = max;
        self
    }

    /// Stats-line cadence (`None`: only the final line).
    pub fn stats_interval(mut self, interval: Option<Duration>) -> Self {
        self.config.stats_interval = interval;
        self
    }

    /// Frame decoding stage.
    pub fn receiver(mut self, receiver: Receiver) -> Self {
        self.config.receiver = receiver;
        self
    }

    /// Classification stage: the paper's test with this detector's
    /// assumption and `Q`. Replaces any earlier
    /// [`detection_pipeline`](Self::detection_pipeline).
    pub fn detector(mut self, detector: Detector) -> Self {
        self.config.pipeline = detector.into();
        self
    }

    /// Classification stage (see [`GatewayConfig::pipeline`]). Replaces
    /// any earlier [`detector`](Self::detector).
    pub fn detection_pipeline(mut self, pipeline: Arc<DetectionPipeline>) -> Self {
        self.config.pipeline = pipeline;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Config`] when any of these hold:
    /// `workers` is 0 (no one would ever decode) or above
    /// [`MAX_WORKERS`] (each is a thread, started when a burst queues),
    /// `queue_depth == 0` (every burst would be shed), `chunk_samples` is
    /// 0 (ingest could not make progress) or above [`MAX_CHUNK_SAMPLES`]
    /// (each session's read buffer would not allocate), or `max_burst <
    /// energy.min_len` (the splitter would reject it).
    pub fn build(self) -> Result<GatewayConfig, GatewayError> {
        let c = &self.config;
        if !(1..=MAX_WORKERS).contains(&c.workers) {
            return Err(GatewayError::Config(format!(
                "workers must be 1 to {MAX_WORKERS}, got {}",
                c.workers
            )));
        }
        if c.queue_depth == 0 {
            return Err(GatewayError::Config("queue depth must be > 0".into()));
        }
        if !(1..=MAX_CHUNK_SAMPLES).contains(&c.chunk_samples) {
            return Err(GatewayError::Config(format!(
                "chunk size must be 1 to {MAX_CHUNK_SAMPLES} samples, got {}",
                c.chunk_samples
            )));
        }
        if c.max_burst < c.energy.min_len {
            return Err(GatewayError::Config(format!(
                "max burst ({}) below the energy detector's min_len ({})",
                c.max_burst, c.energy.min_len
            )));
        }
        Ok(self.config)
    }
}

/// Default worker count: leave a core for ingest, cap the fan-out.
///
/// The core count is read once per process, on the first call: every
/// [`GatewayConfig::default`] (and so every builder) calls this, and
/// reading it means reading the cgroup's CPU quota files.
pub fn default_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get().saturating_sub(1))
            .unwrap_or(2)
            .clamp(1, 8)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accepts_the_default_shape() {
        let config = GatewayConfig::builder()
            .chunk_samples(1000)
            .workers(2)
            .queue_depth(8)
            .stats_interval(None)
            .build()
            .unwrap();
        assert_eq!(config.chunk_samples, 1000);
        assert_eq!(config.workers, 2);
        assert_eq!(config.queue_depth, 8);
        assert_eq!(config.stats_interval, None);
    }

    #[test]
    fn the_last_classification_call_wins() {
        use ctc_core::defense::Classifier;
        let threshold = |q: f64| Classifier::Threshold {
            feature: "de2_ideal".into(),
            threshold: q,
        };
        let default = GatewayConfig::default().pipeline;
        assert!(default.feature_names().is_empty());
        assert_eq!(default.classifier(), &threshold(0.5));

        let detector = Detector::default().with_threshold(0.25);
        let ensemble = GatewayConfig::builder()
            .detector(detector)
            .detection_pipeline(DetectionPipeline::standard(detector).shared())
            .build()
            .unwrap();
        assert_eq!(ensemble.pipeline.feature_names().len(), 16);
        let paper = GatewayConfig::builder()
            .detection_pipeline(DetectionPipeline::standard(detector).shared())
            .detector(detector)
            .build()
            .unwrap();
        assert!(paper.pipeline.feature_names().is_empty());
        assert_eq!(paper.pipeline.classifier(), &threshold(0.25));
    }

    #[test]
    fn builder_rejects_degenerate_configs() {
        let at_limits = GatewayConfig::builder()
            .workers(MAX_WORKERS)
            .chunk_samples(MAX_CHUNK_SAMPLES);
        assert!(at_limits.build().is_ok());
        for (builder, needle) in [
            (GatewayConfig::builder().workers(0), "workers"),
            (GatewayConfig::builder().workers(MAX_WORKERS + 1), "workers"),
            (GatewayConfig::builder().queue_depth(0), "queue depth"),
            (GatewayConfig::builder().chunk_samples(0), "chunk size"),
            (
                GatewayConfig::builder().chunk_samples(MAX_CHUNK_SAMPLES + 1),
                "chunk size",
            ),
            (GatewayConfig::builder().max_burst(1), "min_len"),
        ] {
            match builder.build() {
                Err(GatewayError::Config(reason)) => {
                    assert!(reason.contains(needle), "{reason}");
                }
                other => panic!("expected Config error about {needle}, got {other:?}"),
            }
        }
    }

    #[test]
    fn builder_errors_map_to_the_config_exit_code() {
        let err = GatewayConfig::builder().workers(0).build().unwrap_err();
        assert_eq!(err.exit_code(), 10);
    }
}

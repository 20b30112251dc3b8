//! Per-stream pipeline configuration: the chunking, worker, queue and
//! detection-stage knobs every [`GatewayServer`](crate::server::GatewayServer)
//! session runs with, and its validating builder.
//!
//! The pipeline itself (ingest → shard queues → worker pool → ordering
//! sink) lives in [`crate::server`].

use crate::error::GatewayError;
use ctc_core::attack::EnergyDetector;
use ctc_core::defense::{DetectionPipeline, Detector};
use ctc_dsp::io::DEFAULT_CHUNK_SAMPLES;
use ctc_zigbee::Receiver;
use std::sync::Arc;
use std::time::Duration;

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
    pub chunk_samples: usize,
    /// Decode/classify worker threads.
    pub workers: usize,
    /// Bounded work-queue depth per shard, in bursts.
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

    /// Decode/classify worker threads.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Bounded work-queue depth per shard, in bursts.
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

    /// Energy/burst detection stage.
    pub fn energy(mut self, energy: EnergyDetector) -> Self {
        self.config.energy = energy;
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
    /// `workers == 0` (no one would ever decode), `queue_depth == 0`
    /// (every burst would be shed), `chunk_samples == 0` (ingest could
    /// not make progress), `energy.window == 0` (the splitter would
    /// panic), or `max_burst < energy.min_len` (the splitter would
    /// reject it).
    pub fn build(self) -> Result<GatewayConfig, GatewayError> {
        let c = &self.config;
        if c.workers == 0 {
            return Err(GatewayError::Config("workers must be > 0".into()));
        }
        if c.queue_depth == 0 {
            return Err(GatewayError::Config("queue depth must be > 0".into()));
        }
        if c.chunk_samples == 0 {
            return Err(GatewayError::Config("chunk size must be > 0".into()));
        }
        if c.energy.window == 0 {
            return Err(GatewayError::Config(
                "energy detection window must be > 0".into(),
            ));
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
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1))
        .unwrap_or(2)
        .clamp(1, 8)
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
        for (builder, needle) in [
            (GatewayConfig::builder().workers(0), "workers"),
            (GatewayConfig::builder().queue_depth(0), "queue depth"),
            (GatewayConfig::builder().chunk_samples(0), "chunk size"),
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

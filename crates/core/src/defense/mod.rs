//! The constellation higher-order-statistics defense (paper Sec. VI).
//!
//! [`detector`] is the paper's hypothesis test and [`pipeline`] its
//! pluggable form. [`gate`] is the energy gate that finds frames in a
//! continuous stream, and [`stream`] runs the test on each frame it finds,
//! as a gateway would. The attacker's listener
//! ([`crate::attack::listener`]) runs the same gate.

pub mod alternatives;
pub mod detector;
pub mod features;
pub mod gate;
pub mod naive;
pub mod pipeline;
pub mod stream;

pub use alternatives::{clustered_evm, EvmDetector, EvmVerdict};
pub use detector::{ChannelAssumption, DetectError, Detector, Verdict};
pub use features::{
    constellation_from_reception, cumulant_features_from_reception, features_from_reception,
    CumulantFeatures, Features,
};
pub use gate::{Burst, BurstEnd, EnergyDetector, EnergyStream, StreamedBurst};
pub use pipeline::{
    standard_extractors, train_logistic, train_stumps, Classifier, DetectionPipeline,
    FeatureExtractor, FeatureInput, FeatureVector, LabelledSample, PipelineScores, PipelineVerdict,
    Roc,
};
pub use stream::{
    BurstCapture, BurstSplitter, FrameProcessor, MonitorFactory, StreamEvent, StreamMonitor,
};

//! The constellation higher-order-statistics defense (paper Sec. VI).

pub mod alternatives;
pub mod detector;
pub mod features;
pub mod naive;
pub mod pipeline;
pub mod stream;

pub use alternatives::{clustered_evm, EvmDetector, EvmVerdict};
pub use detector::{ChannelAssumption, DetectError, Detector, Verdict};
pub use features::{
    constellation_from_reception, cumulant_features_from_reception, features_from_reception,
    CumulantFeatures, Features,
};
pub use pipeline::{
    standard_extractors, train_logistic, train_stumps, Classifier, DetectionPipeline,
    FeatureExtractor, FeatureInput, FeatureVector, LabelledSample, PipelineScores, PipelineVerdict,
    Roc,
};
pub use stream::{
    BurstCapture, BurstSplitter, FrameProcessor, MonitorFactory, StreamEvent, StreamMonitor,
};

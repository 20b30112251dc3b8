//! The CTC waveform-emulation attack (paper Sec. V).

pub mod emulator;
pub mod evasion;
pub mod fullframe;
pub mod listener;
pub mod quantizer;
pub mod spectrum;

pub use emulator::{kept_subcarrier_indices, Emulation, Emulator, SpectralMode, SynthesisMode};
pub use evasion::{LeastSquaresEmulation, LeastSquaresEmulator};
pub use fullframe::{FullFrameAttack, FullFrameEmulation};
pub use listener::clear_channel_assessment;
pub use quantizer::{quantize_points, quantize_points_fixed, QuantizedPoints};

// The listener's configuration. The gate and its other types live on the
// defense side, in `crate::defense::gate`.
pub use crate::defense::EnergyDetector;

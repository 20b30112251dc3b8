//! # ctc-dsp
//!
//! Signal-processing substrate for the *Hide and Seek* (ICDCS 2019)
//! reproduction: complex IQ samples, radix-2 FFT/IFFT, FIR filtering,
//! integer-factor resampling, higher-order cumulants, waveform metrics and
//! k-means clustering.
//!
//! Everything operates on complex baseband sample vectors (`Vec<Complex>`)
//! and is deterministic; randomness only enters through caller-supplied
//! [`rand::Rng`] instances.
//!
//! ## Example: the paper's Parseval argument (eq. (2))
//!
//! Quantization error energy in the frequency domain equals waveform
//! distortion energy in the time domain:
//!
//! ```
//! use ctc_dsp::{fft, Complex};
//!
//! let x: Vec<Complex> = (0..64)
//!     .map(|i| Complex::new((i as f64 * 0.2).sin(), (i as f64 * 0.11).cos()))
//!     .collect();
//! let spec = fft::fft(&x)?;
//! let e_time = fft::energy(&x);
//! let e_freq = fft::energy(&spec) / 64.0;
//! assert!((e_time - e_freq).abs() < 1e-9);
//! # Ok::<(), ctc_dsp::fft::FftLenError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod buffer;
pub mod complex;
pub mod cumulants;
pub mod fft;
pub mod filter;
pub mod fractional;
pub mod io;
pub mod kmeans;
pub mod linalg;
pub mod metrics;
pub mod psd;
pub mod resample;
pub mod simd;
pub mod spectrogram;

pub use buffer::{BufferPool, SampleBuf};
pub use complex::Complex;
pub use cumulants::{Cumulants, Modulation};
pub use fft::{fft64, ifft64};
pub use io::Cf32Reader;
pub use kmeans::{kmeans, Clustering};

//! # adc-spectral
//!
//! Spectral analysis and data-converter metrology, written from scratch:
//! the software half of the measurement bench used to characterise the
//! DATE 2004 "97 mW 110 MS/s 12b Pipeline ADC".
//!
//! * [`fft`] — iterative radix-2 FFT/IFFT and one-sided power spectra;
//! * [`plan`](mod@plan) — cached FFT execution plans (precomputed bit-reversal
//!   and twiddle tables) and the [`SpectralScratch`] buffer set behind
//!   the allocation-free `_into` APIs;
//! * [`window`] — rectangular/Hann/Blackman/Blackman–Harris windows and
//!   coherent-frequency selection;
//! * [`metrics`] — IEEE-1241-style single-tone SNR/SNDR/SFDR/THD/ENOB;
//! * [`interleave`] — time-interleaving spur forensics: predicted
//!   offset/image bin families and measured attribution;
//! * [`linearity`] — sine-wave code-density INL/DNL extraction;
//! * [`sinefit`] — IEEE-1057 three-parameter sine fits;
//! * [`complex`] — the minimal complex type underpinning the FFT.
//!
//! ```
//! use adc_spectral::metrics::{analyze_tone, ToneAnalysisConfig};
//! use adc_spectral::window::coherent_frequency;
//!
//! # fn main() -> Result<(), adc_spectral::fft::FftError> {
//! // Pick a coherent tone near 10 MHz for an 8192-point capture at
//! // 110 MS/s, then measure it.
//! let n = 8192;
//! let (f, bin) = coherent_frequency(110e6, n, 10e6);
//! let record: Vec<f64> = (0..n)
//!     .map(|i| (2.0 * std::f64::consts::PI * f / 110e6 * i as f64).sin())
//!     .collect();
//! let analysis = analyze_tone(&record, &ToneAnalysisConfig::coherent())?;
//! assert_eq!(analysis.fundamental_bin, bin);
//! # Ok(())
//! # }
//! ```

pub mod complex;
pub mod fft;
pub mod goertzel;
pub mod interleave;
pub mod linearity;
pub mod metrics;
pub mod plan;
pub mod sinefit;
pub mod window;

pub use complex::Complex64;
pub use fft::{
    fft_in_place, fft_real, fft_real_into, ifft_in_place, power_spectrum_one_sided,
    power_spectrum_one_sided_into, FftError,
};
pub use goertzel::goertzel_bin;
pub use interleave::{
    attribute_record, attribute_spurs, spur_families, InterleaveForensicsError,
    InterleaveSpurReport, SpurFamilies,
};
pub use linearity::{
    predict_tone_from_inl, ramp_histogram, sine_histogram, LinearityError, LinearityResult,
};
pub use metrics::{analyze_tone, HarmonicReading, SingleToneAnalysis, ToneAnalysisConfig};
pub use plan::{plan, FftPlan, SpectralScratch};
pub use sinefit::{fit_known_frequency, SineFit, SineFitError};
pub use window::{alias_bin, coherent_frequency, coherent_frequency_clear, Window};

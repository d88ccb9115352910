//! # adc-pipeline
//!
//! Behavioral model of the DATE 2004 "97 mW 110 MS/s 12b Pipeline ADC in
//! 0.18 µm Digital CMOS" — the core crate of this reproduction.
//!
//! The converter is the paper's Fig. 1 chain: ten 1.5-bit stages (each a
//! sampling network, a two-comparator ADSC, and a ×2 MDAC around a
//! two-stage Miller opamp) followed by a 2-bit flash, with delay-aligned
//! digital error correction. The stage operating points are derived from
//! the switched-capacitor bias network of `adc-bias`, which is what gives
//! the design its signature properties: power that scales linearly with
//! conversion rate and full performance from 20 to 140 MS/s.
//!
//! * [`config`] — the design-parameter tree with the calibrated
//!   [`config::AdcConfig::nominal_110ms`] preset and the stripped
//!   [`config::AdcConfig::ideal`] preset;
//! * [`converter`] — [`converter::PipelineAdc`]: fabrication from a seed,
//!   waveform conversion, power introspection;
//! * [`systolic`] — the record kernel: stages advance as a wavefront,
//!   as in the silicon pipeline;
//! * [`stage`], [`mdac`], [`subconverter`] — the per-stage blocks;
//! * [`correction`] — redundancy-exploiting digital error correction;
//! * [`clocking`] — local vs non-overlap clock timing budgets;
//! * [`electrical`] — operating-point derivation helpers;
//! * [`error`] — build-time error type.
//!
//! ```
//! use adc_pipeline::config::AdcConfig;
//! use adc_pipeline::converter::PipelineAdc;
//!
//! # fn main() -> Result<(), adc_pipeline::error::BuildAdcError> {
//! // Fabricate the paper's nominal die and convert a 10 MHz sine.
//! let mut adc = PipelineAdc::build(AdcConfig::nominal_110ms(), 42)?;
//! let tone = |t: f64| 0.999 * (2.0 * std::f64::consts::PI * 10.07e6 * t).sin();
//! let codes = adc.convert_waveform(&tone, 512);
//! assert_eq!(codes.len(), 512);
//! // 97 mW at 110 MS/s, as published.
//! assert!((adc.power_w() - 97e-3).abs() < 10e-3);
//! # Ok(())
//! # }
//! ```

pub mod calibration;
pub mod clocking;
pub mod config;
pub mod converter;
pub mod correction;
pub mod design;
pub mod diagnostics;
pub mod electrical;
pub mod error;
pub mod interleave;
pub mod mdac;
pub mod stage;
pub mod subconverter;
pub mod systolic;

pub use calibration::{calibrate_foreground, CalibrateError, CalibrationWeights};
pub use clocking::{ClockScheme, TimingBudget};
pub use config::{AdcConfig, BiasKind, FrontEndKind, ReferenceQuality, ScalingProfile};
pub use converter::{PipelineAdc, RawConversion, Waveform};
pub use correction::assemble_code;
pub use diagnostics::Diagnostics;
pub use error::BuildAdcError;
pub use interleave::{InterleaveMismatch, InterleavedAdc};
pub use mdac::Mdac;
pub use stage::PipelineStage;
pub use subconverter::{Adsc, FlashBackend, StageDecision};

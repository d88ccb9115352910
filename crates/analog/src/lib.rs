//! # adc-analog
//!
//! Behavioral analog circuit component models for data-converter
//! simulation: the substrate layer of the DATE 2004 "97 mW 110 MS/s 12b
//! Pipeline ADC" reproduction.
//!
//! The paper's converter is silicon; this crate provides the *model zoo*
//! that lets the rest of the workspace re-create its measured behaviour
//! without a fab:
//!
//! * [`opamp`] — the two-stage Miller residue amplifier: finite gain,
//!   bias-dependent bandwidth, slew limiting, swing clipping, noise;
//! * [`switch`] — transmission gates with bulk switching (the paper's
//!   low-voltage trick), NMOS-only sampling switches, and bootstrapped
//!   switches for comparison, all with signal-dependent on-resistance;
//! * [`capacitor`] — parasitic-metal capacitors with absolute spread and
//!   local mismatch, plus kT/C noise;
//! * [`comparator`] — latched comparators with offset/noise/hysteresis;
//! * [`bandgap`] — the band-gap reference and the buffered reference
//!   distribution;
//! * [`noise`] — deterministic seeded Gaussian noise and aperture jitter;
//! * [`stripe`] — the SplitMix64 + polynomial Box–Muller per-sample
//!   noise engine the conversion hot path draws from, laid out for
//!   lane-striped (vectorizable) generation;
//! * [`process`] — corners and operating conditions;
//! * [`units`] — constants and dB helpers shared by the whole workspace.
//!
//! Everything is deterministic given a seed, so full-converter measurements
//! regress exactly.
//!
//! ```
//! use adc_analog::noise::NoiseSource;
//! use adc_analog::opamp::{OpAmp, OpAmpSpec};
//!
//! // An opamp biased at 1 mA driving 4 pF settles a 0.5 V step:
//! let amp = OpAmp::new(OpAmpSpec::miller_two_stage(), 1e-3, 4e-12);
//! let out = amp.settle(0.5, 0.0, 6e-9, 0.5);
//! assert!((out - 0.5).abs() < 1e-3);
//!
//! // Noise is reproducible:
//! let mut n = NoiseSource::from_seed(1);
//! let a = n.gaussian(0.0, 1e-3);
//! let mut m = NoiseSource::from_seed(1);
//! assert_eq!(a, m.gaussian(0.0, 1e-3));
//! ```

pub mod bandgap;
pub mod capacitor;
pub mod comparator;
pub mod noise;
pub mod opamp;
pub mod process;
pub mod stripe;
pub mod switch;
pub mod twopole;
pub mod units;

pub use bandgap::{Bandgap, ReferenceBuffer};
pub use capacitor::{Capacitor, CapacitorSpec};
pub use comparator::{Comparator, ComparatorSpec};
pub use noise::{ApertureJitter, NoiseSource};
pub use opamp::{OpAmp, OpAmpSpec};
pub use process::{OperatingConditions, ProcessCorner};
pub use stripe::{standard_normal_fill, SampleNoise};
pub use switch::{SamplingNetwork, SwitchModel, SwitchTopology};
pub use twopole::TwoPoleAmp;

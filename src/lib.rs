//! # pipeline-adc
//!
//! Umbrella crate for the behavioral reproduction of the DATE 2004 paper
//! *"A 97mW 110MS/s 12b Pipeline ADC Implemented in 0.18µm Digital CMOS"*
//! (Andersen et al., Nordic Semiconductor).
//!
//! Re-exports the workspace crates under one namespace:
//!
//! * [`analog`] — behavioral analog components (opamps, switches,
//!   capacitors, comparators, references, noise);
//! * [`spectral`] — FFT, windows, SNR/SNDR/SFDR/ENOB, INL/DNL, sine fits;
//! * [`bias`] — the switched-capacitor bias generator (paper Eq. 1),
//!   current mirrors, and the power model (Fig. 4);
//! * [`pipeline`] — the 10×1.5-bit + 2-bit-flash converter itself;
//! * [`calib`] — background calibration for time-interleaved arrays:
//!   live-data offset/gain/timing estimation, fractional-delay
//!   correction, and the ganged-capture scenario;
//! * [`testbench`] — signal sources, band-pass filters, measurement
//!   sessions, sweeps, the Table I datasheet, and the Fig. 8 FoM survey;
//! * [`runtime`] — the deterministic parallel campaign engine the
//!   sweeps and Monte-Carlo runs execute on;
//! * [`server`] — the streaming digitization service: the converter
//!   behind a length-prefixed TCP protocol, bit-identical to direct
//!   library calls at the same seed;
//! * [`cluster`] — distributed campaign execution: job batches farmed
//!   to remote `adc-server` hosts from one shared queue, with shared
//!   content-addressed caches, assembled bit-identically to an
//!   in-process run;
//! * [`trace`] — deterministic tracing & profiling: span guards and
//!   counters threaded through the runtime, server, and pipeline, with
//!   Chrome trace-event and human-summary exporters.
//!
//! ```
//! use pipeline_adc::pipeline::{AdcConfig, PipelineAdc};
//! use pipeline_adc::testbench::MeasurementSession;
//!
//! # fn main() -> Result<(), pipeline_adc::pipeline::BuildAdcError> {
//! // The paper's die on the bench, measured at fin = 10 MHz:
//! let mut bench = MeasurementSession::nominal()?;
//! let m = bench.measure_tone(10e6);
//! assert!(m.analysis.enob > 10.0);
//!
//! // Or drive the converter directly:
//! let mut adc = PipelineAdc::build(AdcConfig::nominal_110ms(), 7)?;
//! assert!((adc.power_w() - 0.097).abs() < 0.01);
//! # Ok(())
//! # }
//! ```

pub use adc_analog as analog;
pub use adc_bias as bias;
pub use adc_calib as calib;
pub use adc_cluster as cluster;
pub use adc_digital as digital;
pub use adc_pipeline as pipeline;
pub use adc_runtime as runtime;
pub use adc_server as server;
pub use adc_spectral as spectral;
pub use adc_testbench as testbench;
pub use adc_trace as trace;

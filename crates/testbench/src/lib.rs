//! # adc-testbench
//!
//! The measurement laboratory of the DATE 2004 pipeline-ADC reproduction:
//! everything the paper's §4 bench did, in software.
//!
//! * [`signal`] — RF generator models (tone + residual harmonics + phase
//!   wobble), ramps, DC;
//! * [`filter`] — the high-order passive band-pass filters the authors
//!   used to clean their sources, plus discrete-time biquads;
//! * [`session`] — a die on the bench: coherent captures, single-tone
//!   dynamic metrics, histogram linearity ([`session::GOLDEN_SEED`] is
//!   the reproduction's "measured die");
//! * [`sweep`] — the campaigns behind Figs. 4, 5 and 6;
//! * [`experiments`] — every published result (Table I, Figs. 4, 5, 6
//!   and 8, the five ablations, the six extension experiments): one run
//!   function and one claim-checking, self-rendering result type each;
//! * [`policy`] — execution policy (thread count, observers) routing
//!   every campaign through the `adc-runtime` engine;
//! * [`datasheet`] — Table I as a measurement procedure;
//! * [`survey`] — Eq. 2 and the fifteen-converter Fig. 8 FoM survey;
//! * [`report`] — text tables / CSV for the regeneration binaries.
//!
//! ```
//! # fn main() -> Result<(), adc_pipeline::error::BuildAdcError> {
//! use adc_testbench::session::MeasurementSession;
//!
//! let mut bench = MeasurementSession::nominal()?;
//! let m = bench.measure_tone(10e6);
//! // Table I territory:
//! assert!(m.analysis.snr_db > 65.0 && m.analysis.snr_db < 69.0);
//! # Ok(())
//! # }
//! ```

pub mod datasheet;
pub mod experiments;
pub mod filter;
pub mod montecarlo;
pub mod policy;
pub mod report;
pub mod session;
pub mod signal;
pub mod survey;
pub mod sweep;

pub use datasheet::{Datasheet, DatasheetError, PAPER_AREA_MM2};
pub use filter::{BandpassFilter, Biquad};
pub use montecarlo::{
    measure_die, monte_carlo_plan, run_monte_carlo_with, summarize_dies, DieResult, MetricStats,
    MonteCarloPlan, MonteCarloResult, YieldSpec,
};
pub use policy::RunPolicy;
pub use report::CampaignReporter;
pub use session::{clear_tone_hz, LaneBench, MeasurementSession, ToneMeasurement, GOLDEN_SEED};
pub use signal::{DcSource, Harmonic, RampSource, SineSource};
pub use survey::{
    fig8_survey, schreier_fom_db, walden_adjusted_fm, walden_pj_per_step, SurveyEntry,
};
pub use sweep::{DynamicPoint, SweepRunner};

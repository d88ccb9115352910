//! The ganged-capture scenario: one descriptor, one code path, shared by
//! the forensics tests, campaign sweeps and benchmarks — so two runs of
//! an equal scenario capture bit-identical records wherever they run.

use adc_pipeline::interleave::{InterleaveMismatch, InterleavedAdc};
use adc_pipeline::{AdcConfig, BuildAdcError};

use crate::engine::{BackgroundCalibrator, CalState, CalibConfig, CalibError};

/// How the array's channels are aligned before the capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alignment {
    /// No alignment at all: the raw mismatch spurs on display.
    Raw,
    /// Foreground DC alignment ([`InterleavedAdc::align_channels`]) —
    /// cures offset and gain, blind to timing and bandwidth.
    Foreground {
        /// Conversions averaged per DC measurement point.
        averages: u32,
    },
    /// Background calibration from live conversion data: the loop runs
    /// until it reaches [`CalState::Hold`] or the epoch budget is spent,
    /// then the record is captured with the converged corrections.
    Background {
        /// Maximum calibration epochs before capturing regardless.
        epochs: u32,
        /// Samples converted per calibration epoch.
        epoch_len: u32,
    },
}

/// A complete ganged-capture description: everything needed to rebuild
/// the same array and record anywhere. Two equal scenarios produce
/// bit-identical [`GangedCapture::values`], whichever process runs them.
#[derive(Debug, Clone, PartialEq)]
pub struct GangedScenario {
    /// Per-channel converter configuration; each channel runs at
    /// `config.f_cr_hz`, so the aggregate rate is `channels ×` that.
    pub config: AdcConfig,
    /// Channel count (M).
    pub channels: u32,
    /// Array fabrication seed (channel `k` is die `seed + k`; skew and
    /// bandwidth draws derive from it too).
    pub seed: u64,
    /// Array-level mismatch magnitudes.
    pub mismatch: InterleaveMismatch,
    /// Requested stimulus frequency; snapped to coherent sampling for
    /// the capture record.
    pub f_target_hz: f64,
    /// Capture record length.
    pub n_samples: u32,
    /// Channel alignment performed before the capture.
    pub alignment: Alignment,
}

/// What a ganged capture produced.
#[derive(Debug, Clone, PartialEq)]
pub struct GangedCapture {
    /// The interleaved, corrected record (reconstructed volts).
    pub values: Vec<f64>,
    /// The coherently snapped stimulus frequency, hertz.
    pub f_in_hz: f64,
    /// Calibration epochs actually run (zero unless
    /// [`Alignment::Background`]).
    pub epochs_run: u32,
    /// Whether the background loop reached [`CalState::Hold`] within its
    /// epoch budget (true for the non-background alignments, which have
    /// nothing to converge).
    pub converged: bool,
}

/// Typed failure of a ganged capture.
#[derive(Debug, Clone, PartialEq)]
pub enum GangedError {
    /// The per-channel converter failed to build.
    Build(BuildAdcError),
    /// The calibration engine rejected an epoch record.
    Calib(CalibError),
    /// The scenario itself is malformed (zero channels or samples,
    /// non-finite frequency).
    InvalidScenario(&'static str),
}

impl std::fmt::Display for GangedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Build(e) => write!(f, "array build failed: {e}"),
            Self::Calib(e) => write!(f, "background calibration failed: {e}"),
            Self::InvalidScenario(why) => write!(f, "invalid scenario: {why}"),
        }
    }
}

impl std::error::Error for GangedError {}

impl From<BuildAdcError> for GangedError {
    fn from(e: BuildAdcError) -> Self {
        Self::Build(e)
    }
}

impl From<CalibError> for GangedError {
    fn from(e: CalibError) -> Self {
        Self::Calib(e)
    }
}

impl GangedScenario {
    /// Aggregate sample rate of the described array, hertz.
    pub fn aggregate_rate_hz(&self) -> f64 {
        self.config.f_cr_hz * self.channels as f64
    }

    /// Builds the array, aligns it as requested, and captures one
    /// coherent tone record. Deterministic in the scenario alone.
    ///
    /// # Errors
    ///
    /// [`GangedError::InvalidScenario`] for nonsense parameters,
    /// [`GangedError::Build`] if the dies cannot be fabricated,
    /// [`GangedError::Calib`] if a background epoch record is unusable.
    pub fn capture_tone(&self) -> Result<GangedCapture, GangedError> {
        if self.channels == 0 {
            return Err(GangedError::InvalidScenario("zero channels"));
        }
        if self.n_samples == 0 {
            return Err(GangedError::InvalidScenario("zero samples"));
        }
        if !self.f_target_hz.is_finite() || self.f_target_hz <= 0.0 {
            return Err(GangedError::InvalidScenario("stimulus frequency"));
        }
        let _span = adc_trace::span_with("ganged-capture", self.seed);
        let m = self.channels as usize;
        let rate = self.aggregate_rate_hz();
        let mut ilv =
            InterleavedAdc::build_with_mismatch(&self.config, m, rate, self.seed, &self.mismatch)?;
        let amplitude = 0.9 * self.config.v_ref_v;
        let mut epochs_run = 0_u32;
        let mut converged = true;
        match self.alignment {
            Alignment::Raw => {}
            Alignment::Foreground { averages } => {
                let _s = adc_trace::span("ganged-foreground");
                ilv.align_channels(averages as usize);
            }
            Alignment::Background { epochs, epoch_len } => {
                let _s = adc_trace::span("ganged-background");
                converged = false;
                let mut cal = BackgroundCalibrator::new(m, rate, CalibConfig::default());
                let epoch_len = epoch_len as usize;
                let (f_cal, _) =
                    adc_spectral::window::coherent_frequency(rate, epoch_len, self.f_target_hz);
                let wave = move |t: f64| amplitude * (2.0 * std::f64::consts::PI * f_cal * t).sin();
                for _ in 0..epochs {
                    let record = ilv.convert_waveform(&wave, epoch_len);
                    let report = cal.observe(&record)?;
                    cal.apply_to(&mut ilv);
                    epochs_run += 1;
                    if report.state == CalState::Hold {
                        converged = true;
                        break;
                    }
                }
            }
        }
        let n = self.n_samples as usize;
        let (f_in, _) = adc_spectral::window::coherent_frequency(rate, n, self.f_target_hz);
        let wave = move |t: f64| amplitude * (2.0 * std::f64::consts::PI * f_in * t).sin();
        let values = {
            let _s = adc_trace::span("ganged-record");
            ilv.convert_waveform(&wave, n)
        };
        Ok(GangedCapture {
            values,
            f_in_hz: f_in,
            epochs_run,
            converged,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(alignment: Alignment) -> GangedScenario {
        GangedScenario {
            config: AdcConfig::nominal_110ms(),
            channels: 2,
            seed: 7,
            mismatch: InterleaveMismatch::typical(),
            f_target_hz: 20e6,
            n_samples: 2048,
            alignment,
        }
    }

    #[test]
    fn equal_scenarios_capture_bit_identical_records() {
        let s = scenario(Alignment::Background {
            epochs: 12,
            epoch_len: 2048,
        });
        let a = s.capture_tone().unwrap();
        let b = s.clone().capture_tone().unwrap();
        let bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.values), bits(&b.values));
        assert_eq!(a.f_in_hz.to_bits(), b.f_in_hz.to_bits());
        assert_eq!(a.epochs_run, b.epochs_run);
    }

    #[test]
    fn background_beats_raw_on_a_mismatched_array() {
        use adc_spectral::metrics::{analyze_tone, ToneAnalysisConfig};
        let raw = scenario(Alignment::Raw).capture_tone().unwrap();
        let cal = scenario(Alignment::Background {
            epochs: 16,
            epoch_len: 4096,
        })
        .capture_tone()
        .unwrap();
        assert!(cal.converged, "ran {} epochs", cal.epochs_run);
        let sndr = |r: &[f64]| {
            analyze_tone(r, &ToneAnalysisConfig::coherent())
                .unwrap()
                .sndr_db
        };
        assert!(
            sndr(&cal.values) > sndr(&raw.values) + 3.0,
            "background cal should clearly beat raw: {} vs {}",
            sndr(&cal.values),
            sndr(&raw.values)
        );
    }

    #[test]
    fn invalid_scenarios_are_typed_errors() {
        let mut s = scenario(Alignment::Raw);
        s.channels = 0;
        assert!(matches!(
            s.capture_tone(),
            Err(GangedError::InvalidScenario("zero channels"))
        ));
        let mut s = scenario(Alignment::Raw);
        s.n_samples = 0;
        assert!(matches!(
            s.capture_tone(),
            Err(GangedError::InvalidScenario("zero samples"))
        ));
        let mut s = scenario(Alignment::Raw);
        s.f_target_hz = f64::NAN;
        assert!(matches!(
            s.capture_tone(),
            Err(GangedError::InvalidScenario(_))
        ));
    }
}

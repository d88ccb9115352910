//! A measurement session: one fabricated die on the bench.
//!
//! Wires together the pieces the paper's §4 describes: an RF generator,
//! a high-order band-pass filter, the ADC under test, and the FFT
//! post-processing — with coherent-frequency selection handled
//! automatically (including deliberate undersampling for inputs beyond
//! Nyquist, as in Fig. 6).

use adc_pipeline::config::AdcConfig;
use adc_pipeline::converter::PipelineAdc;
use adc_pipeline::error::BuildAdcError;
use adc_spectral::linearity::{sine_histogram, LinearityError, LinearityResult};
use adc_spectral::metrics::{analyze_tone_with, SingleToneAnalysis, ToneAnalysisConfig};
use adc_spectral::plan::SpectralScratch;
use adc_spectral::window::coherent_frequency_clear;

use crate::filter::BandpassFilter;
use crate::signal::SineSource;

/// The fabrication seed of the reproduction's "measured die": chosen (see
/// `EXPERIMENTS.md`) so that this die's Table I metrics land closest to
/// the paper's published numbers. All figure regeneration binaries use it.
pub const GOLDEN_SEED: u64 = 7;

/// A dynamic measurement at one stimulus point.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ToneMeasurement {
    /// The exact (coherent) stimulus frequency used, hertz.
    pub f_in_hz: f64,
    /// Stimulus amplitude, volts peak.
    pub amplitude_v: f64,
    /// Conversion rate, hertz.
    pub f_cr_hz: f64,
    /// The spectral analysis of the captured record.
    pub analysis: SingleToneAnalysis,
}

/// Reusable capture/analysis buffers — measurement plumbing, not part
/// of the die's identity. A warm session performs a full `measure_tone`
/// without heap allocation.
#[derive(Debug, Clone, Default)]
struct SessionScratch {
    /// Captured code record.
    codes: Vec<u16>,
    /// Reconstructed analog record.
    record: Vec<f64>,
    /// Histogram-test code record.
    codes_u32: Vec<u32>,
    /// Spectral-analysis intermediates.
    spectral: SpectralScratch,
}

/// The coherent tone frequency a capture of `n` samples places near
/// `f_target_hz` (the rule every bench capture uses), or `None` when
/// `n` has no odd bin clear of DC and Nyquist (fewer than 64 samples).
/// Servers check this before admitting a tone request.
pub fn clear_tone_hz(f_cr_hz: f64, n: usize, f_target_hz: f64) -> Option<f64> {
    coherent_frequency_clear(f_cr_hz, n, f_target_hz, 8).map(|(f_in, _)| f_in)
}

/// [`clear_tone_hz`] for a capture that is about to run.
///
/// # Panics
///
/// Panics when the record is too short to place a clear tone.
fn placed_tone_hz(f_cr_hz: f64, n: usize, f_target_hz: f64) -> f64 {
    clear_tone_hz(f_cr_hz, n, f_target_hz)
        .expect("tone records need at least 64 samples to place a clear bin")
}

/// One die on the measurement bench.
#[derive(Debug, Clone)]
pub struct MeasurementSession {
    adc: PipelineAdc,
    /// FFT record length (power of two).
    pub record_len: usize,
    /// Stimulus amplitude for dynamic tests, volts peak — defaults to
    /// 0.995·V_REF (the paper used "signal amplitude near full scale
    /// (2 V_P-P)").
    pub amplitude_v: f64,
    scratch: SessionScratch,
}

impl MeasurementSession {
    /// Puts a die on the bench.
    ///
    /// # Errors
    ///
    /// Propagates converter build errors.
    pub fn new(config: AdcConfig, seed: u64) -> Result<Self, BuildAdcError> {
        let amplitude_v = 0.995 * config.v_ref_v;
        Ok(Self {
            adc: PipelineAdc::build(config, seed)?,
            record_len: 8192,
            amplitude_v,
            scratch: SessionScratch::default(),
        })
    }

    /// The golden die (seed [`GOLDEN_SEED`]) for a configuration.
    ///
    /// # Errors
    ///
    /// Propagates converter build errors.
    pub fn golden(config: AdcConfig) -> Result<Self, BuildAdcError> {
        Self::new(config, GOLDEN_SEED)
    }

    /// The paper's nominal 110 MS/s design on the golden die.
    ///
    /// # Errors
    ///
    /// Propagates converter build errors.
    pub fn nominal() -> Result<Self, BuildAdcError> {
        Self::golden(AdcConfig::nominal_110ms())
    }

    /// The device under test.
    pub fn adc(&self) -> &PipelineAdc {
        &self.adc
    }

    /// Mutable access to the device under test (fault injection).
    pub fn adc_mut(&mut self) -> &mut PipelineAdc {
        &mut self.adc
    }

    /// Reconstructs a code record into analog values.
    pub fn reconstruct(&self, codes: &[u16]) -> Vec<f64> {
        codes.iter().map(|&c| self.adc.reconstruct_v(c)).collect()
    }

    /// Captures one coherent record near `f_target_hz`: RF generator →
    /// band-pass filter → ADC. Returns the codes and the exact stimulus
    /// frequency.
    pub fn capture_tone(&mut self, f_target_hz: f64) -> (Vec<u16>, f64) {
        let mut codes = Vec::new();
        let f_in = self.capture_tone_into(f_target_hz, &mut codes);
        (codes, f_in)
    }

    /// Like [`Self::capture_tone`], capturing into a caller-owned buffer
    /// (cleared first) and returning the exact stimulus frequency.
    ///
    /// # Panics
    ///
    /// Panics when `record_len` is too short to place a coherent tone
    /// clear of DC and Nyquist (fewer than 64 samples); see
    /// [`coherent_frequency_clear`].
    pub fn capture_tone_into(&mut self, f_target_hz: f64, out: &mut Vec<u16>) -> f64 {
        let _trace = adc_trace::span_with("capture_tone", self.record_len as u64);
        let f_cr = self.adc.config().f_cr_hz;
        let f_in = placed_tone_hz(f_cr, self.record_len, f_target_hz);
        let generator = SineSource::rf_generator(self.amplitude_v, f_in);
        let filtered = BandpassFilter::passive_high_order(f_in).clean(&generator);
        self.adc.reset();
        self.adc
            .convert_waveform_into(&filtered, self.record_len, out);
        f_in
    }

    /// Runs the full single-tone dynamic measurement at `f_target_hz`.
    ///
    /// Capture, reconstruction, and spectral analysis all reuse the
    /// session's scratch buffers; a warm session allocates nothing here.
    pub fn measure_tone(&mut self, f_target_hz: f64) -> ToneMeasurement {
        let _trace = adc_trace::span("measure_tone");
        let mut codes = std::mem::take(&mut self.scratch.codes);
        let mut record = std::mem::take(&mut self.scratch.record);
        let f_in = self.capture_tone_into(f_target_hz, &mut codes);
        record.clear();
        record.extend(codes.iter().map(|&c| self.adc.reconstruct_v(c)));
        let cfg = ToneAnalysisConfig::coherent().with_full_scale(self.adc.config().v_ref_v);
        let analysis = analyze_tone_with(&record, &cfg, &mut self.scratch.spectral)
            .expect("record length is a power of two by construction");
        self.scratch.codes = codes;
        self.scratch.record = record;
        ToneMeasurement {
            f_in_hz: f_in,
            amplitude_v: self.amplitude_v,
            f_cr_hz: self.adc.config().f_cr_hz,
            analysis,
        }
    }

    /// Runs the sine-histogram linearity test with `samples` conversions
    /// (use ≥ 2²⁰ for stable 12-bit DNL).
    ///
    /// # Errors
    ///
    /// Propagates histogram-test errors.
    pub fn measure_linearity(&mut self, samples: usize) -> Result<LinearityResult, LinearityError> {
        let f_cr = self.adc.config().f_cr_hz;
        let n_pow2 = samples.next_power_of_two();
        let Some((f_in, _)) = coherent_frequency_clear(f_cr, n_pow2, f_cr / 11.3, 8) else {
            return Err(LinearityError::EmptyRecord);
        };
        // Slight overdrive so the rail codes populate.
        let source = SineSource::clean(self.adc.config().v_ref_v * 1.02, f_in);
        self.adc.reset();
        let mut codes = std::mem::take(&mut self.scratch.codes);
        let mut codes_u32 = std::mem::take(&mut self.scratch.codes_u32);
        self.adc.convert_waveform_into(&source, samples, &mut codes);
        codes_u32.clear();
        codes_u32.extend(codes.iter().map(|&c| u32::from(c)));
        let result = sine_histogram(&codes_u32, self.adc.config().code_count());
        self.scratch.codes = codes;
        self.scratch.codes_u32 = codes_u32;
        result
    }
}

/// N dies on the bench at once, sharing one stimulus.
///
/// The bench semantics are [`MeasurementSession`]'s exactly — same
/// coherent-frequency selection, same RF generator and band-pass
/// filter, same default record length and near-full-scale amplitude.
/// The dies share no state: each converts its own record in turn, so
/// each lane's captured record and tone analysis are bit-identical to a
/// scalar session on that die at the same seed. What the bench shares
/// is the stimulus, the spectral scratch and the analysis setup.
#[derive(Debug, Clone)]
pub struct LaneBench {
    dies: Vec<PipelineAdc>,
    /// FFT record length (power of two), shared by every lane.
    pub record_len: usize,
    /// Stimulus amplitude for dynamic tests, volts peak — defaults to
    /// 0.995·V_REF like [`MeasurementSession`].
    pub amplitude_v: f64,
    /// Spectral-analysis intermediates, reused across lanes and tones.
    spectral: SpectralScratch,
    /// Reconstructed analog record, reused across lanes.
    record: Vec<f64>,
}

impl LaneBench {
    /// Puts one die per seed on the bench (the Monte-Carlo shape: a
    /// shared design, different process draws).
    ///
    /// # Errors
    ///
    /// Propagates converter build errors (lowest seed first).
    ///
    /// # Panics
    ///
    /// Panics when `seeds` is empty.
    pub fn new(config: AdcConfig, seeds: &[u64]) -> Result<Self, BuildAdcError> {
        assert!(!seeds.is_empty(), "need at least one die seed");
        let amplitude_v = 0.995 * config.v_ref_v;
        Ok(Self {
            dies: seeds
                .iter()
                .map(|&seed| PipelineAdc::build(config.clone(), seed))
                .collect::<Result<_, _>>()?,
            record_len: 8192,
            amplitude_v,
            spectral: SpectralScratch::default(),
            record: Vec::new(),
        })
    }

    /// The dies under test, in lane order.
    pub fn lanes(&self) -> &[PipelineAdc] {
        &self.dies
    }

    /// Captures one coherent record near `f_target_hz` on every die —
    /// one shared stimulus (RF generator → band-pass filter), N
    /// independent converters — into caller-owned buffers (cleared
    /// first, one per die). Returns the exact stimulus frequency.
    ///
    /// # Panics
    ///
    /// Panics when `outs.len()` differs from the die count, or when
    /// the dies disagree on conversion rate (one coherent grid must
    /// serve every die).
    pub fn capture_tone_into(&mut self, f_target_hz: f64, outs: &mut [Vec<u16>]) -> f64 {
        assert_eq!(outs.len(), self.dies.len(), "one output record per die");
        let _trace = adc_trace::span_with(
            "capture_tone_lanes",
            (self.record_len * self.dies.len()) as u64,
        );
        let f_cr = self.dies[0].config().f_cr_hz;
        assert!(
            self.dies
                .iter()
                .all(|d| d.config().f_cr_hz.to_bits() == f_cr.to_bits()),
            "dies must share a conversion rate for one coherent capture grid"
        );
        let f_in = placed_tone_hz(f_cr, self.record_len, f_target_hz);
        let generator = SineSource::rf_generator(self.amplitude_v, f_in);
        let filtered = BandpassFilter::passive_high_order(f_in).clean(&generator);
        for (adc, out) in self.dies.iter_mut().zip(outs) {
            adc.reset();
            adc.convert_waveform_into(&filtered, self.record_len, out);
        }
        f_in
    }

    /// Runs the full single-tone dynamic measurement at `f_target_hz`
    /// on every die, returning one [`ToneMeasurement`] per die — each
    /// bit-identical to [`MeasurementSession::measure_tone`] on that
    /// die alone.
    pub fn measure_tone(&mut self, f_target_hz: f64) -> Vec<ToneMeasurement> {
        let _trace = adc_trace::span("measure_tone_lanes");
        let mut codes = vec![Vec::new(); self.dies.len()];
        let f_in = self.capture_tone_into(f_target_hz, &mut codes);
        codes
            .iter()
            .zip(&self.dies)
            .map(|(die_codes, adc)| {
                self.record.clear();
                self.record
                    .extend(die_codes.iter().map(|&c| adc.reconstruct_v(c)));
                let cfg = ToneAnalysisConfig::coherent().with_full_scale(adc.config().v_ref_v);
                let analysis = analyze_tone_with(&self.record, &cfg, &mut self.spectral)
                    .expect("record length is a power of two by construction");
                ToneMeasurement {
                    f_in_hz: f_in,
                    amplitude_v: self.amplitude_v,
                    f_cr_hz: adc.config().f_cr_hz,
                    analysis,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_session_reproduces_table1_band() {
        let mut s = MeasurementSession::nominal().unwrap();
        let m = s.measure_tone(10e6);
        // Paper Table I: SNR 67.1, SNDR 64.2, SFDR 69.4, ENOB 10.4.
        // The golden die must land within a tight band.
        assert!(
            (m.analysis.snr_db - 67.1).abs() < 1.5,
            "snr {}",
            m.analysis.snr_db
        );
        assert!(
            (m.analysis.sndr_db - 64.2).abs() < 1.5,
            "sndr {}",
            m.analysis.sndr_db
        );
        assert!(
            (m.analysis.sfdr_db - 69.4).abs() < 2.0,
            "sfdr {}",
            m.analysis.sfdr_db
        );
        assert!(
            (m.analysis.enob - 10.4).abs() < 0.25,
            "enob {}",
            m.analysis.enob
        );
    }

    #[test]
    fn capture_uses_coherent_frequency_near_target() {
        let mut s = MeasurementSession::nominal().unwrap();
        let (_, f_in) = s.capture_tone(10e6);
        assert!((f_in - 10e6).abs() < 2.0 * 110e6 / 8192.0);
    }

    #[test]
    fn ideal_config_measures_as_ideal_quantizer() {
        let mut s = MeasurementSession::golden(AdcConfig::ideal(110e6)).unwrap();
        let m = s.measure_tone(10e6);
        // Ideal 12-bit quantizer: SNDR ≈ 74 dB (slightly above the 6.02N
        // formula at amplitudes just below FS is fine: allow a band).
        assert!(m.analysis.sndr_db > 72.0, "sndr {}", m.analysis.sndr_db);
        assert!((m.analysis.enob - 12.0).abs() < 0.3);
    }

    #[test]
    fn linearity_of_ideal_converter_is_flat() {
        let mut s = MeasurementSession::golden(AdcConfig::ideal(110e6)).unwrap();
        let lin = s.measure_linearity(1 << 18).unwrap();
        // With a finite record the arcsine inversion has statistical
        // noise; an ideal converter still reads well under 0.3 LSB.
        assert!(lin.dnl_max.abs() < 0.3, "dnl {}", lin.dnl_max);
        assert!(lin.dnl_min.abs() < 0.3, "dnl {}", lin.dnl_min);
    }

    #[test]
    fn lane_bench_matches_scalar_sessions_bit_for_bit() {
        let config = AdcConfig::nominal_110ms();
        let seeds = [1u64, 2, 3, 4];
        let mut bench = LaneBench::new(config.clone(), &seeds).unwrap();
        bench.record_len = 2048;
        let measurements = bench.measure_tone(10e6);
        for (&seed, m) in seeds.iter().zip(&measurements) {
            let mut session = MeasurementSession::new(config.clone(), seed).unwrap();
            session.record_len = 2048;
            assert_eq!(
                *m,
                session.measure_tone(10e6),
                "lane for seed {seed} diverged from its scalar session"
            );
        }
    }

    #[test]
    fn sessions_are_reproducible() {
        let mut a = MeasurementSession::nominal().unwrap();
        let mut b = MeasurementSession::nominal().unwrap();
        assert_eq!(a.capture_tone(10e6).0, b.capture_tone(10e6).0);
    }
}

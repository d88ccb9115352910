//! One 1.5-bit pipeline stage: sampling, sub-conversion, residue
//! amplification.
//!
//! Mirrors the paper's Fig. 2: in φ1 the stage input is tracked onto
//! C1‖C2 (and simultaneously sampled by the ADSC); in φ2 the ADSC decision
//! selects the reference polarity through the DSB and the opamp settles
//! the residue toward `2·V_in − d·V_REF`, which the next stage samples at
//! the end of the phase.

use adc_analog::bandgap::ReferenceBuffer;
use adc_analog::capacitor::Capacitor;
use adc_analog::noise::NoiseSource;

use crate::mdac::Mdac;
use crate::subconverter::{Adsc, StageDecision};

/// A fabricated pipeline stage.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PipelineStage {
    /// Stage position, 0-based.
    pub index: usize,
    /// Total sampling capacitance (C1 + C2) as fabricated.
    pub c_sample: Capacitor,
    /// The stage's 1.5-bit sub-converter.
    pub adsc: Adsc,
    /// The residue amplifier.
    pub mdac: Mdac,
    /// Whether this stage adds its own kT/C sampling noise in
    /// [`PipelineStage::process`]. Stage 1's sampling noise is produced by
    /// the front-end [`adc_analog::switch::SamplingNetwork`] instead, so
    /// it sets this to `false` to avoid double counting.
    pub samples_own_input: bool,
    /// Cubic hold-phase leakage coefficient, A/V³ (distortion that grows
    /// with hold time, i.e. at low conversion rates).
    pub leak_cubic_a_per_v3: f64,
}

impl PipelineStage {
    /// Processes one held input sample through the stage.
    ///
    /// * `v_in` — the stage input as delivered by the previous stage (or
    ///   the front-end sampling network for stage 1);
    /// * `reference` — the buffered reference distribution;
    /// * `settle_time_s` — MDAC settling time from the timing budget;
    /// * `hold_time_s` — how long the sample sat on the capacitors
    ///   (leakage droop);
    /// * `noise` — runtime noise source for the sampled, reference, and
    ///   opamp noise (comparators draw from their own streams).
    ///
    /// Returns the ADSC decision and the residue for the next stage.
    pub fn process(
        &mut self,
        v_in: f64,
        reference: &ReferenceBuffer,
        settle_time_s: f64,
        hold_time_s: f64,
        noise: &mut NoiseSource,
    ) -> (StageDecision, f64) {
        self.process_with_adsc_error(v_in, 0.0, reference, settle_time_s, hold_time_s, noise)
    }

    /// Like [`PipelineStage::process`], with an explicit error on the
    /// ADSC's sampled copy of the input — the SHA-less front end's
    /// aperture-skew term (`skew·dV/dt`) for stage 1. The redundancy
    /// absorbs it as long as it stays below ±V_REF/4.
    pub fn process_with_adsc_error(
        &mut self,
        v_in: f64,
        adsc_error_v: f64,
        reference: &ReferenceBuffer,
        settle_time_s: f64,
        hold_time_s: f64,
        noise: &mut NoiseSource,
    ) -> (StageDecision, f64) {
        // Sampling noise for the stage's own track phase.
        let mut v = v_in;
        if self.samples_own_input {
            v += self.c_sample.sample_ktc_noise(noise);
        }
        // Hold-phase leakage droop (cubic => distortion at low rates).
        let droop = self.leak_cubic_a_per_v3 * v * v * v * hold_time_s / self.c_sample.value_f;
        v -= droop;

        // The ADSC samples the input through its own (noisy, possibly
        // skewed) path.
        let decision = self.adsc.decide(v + adsc_error_v);
        // The DSB selects the reference; droop depends on the DAC level.
        let v_ref_eff = reference.effective_v(decision.dac_level, noise);
        let residue = self
            .mdac
            .amplify(v, decision.dac_level, v_ref_eff, settle_time_s, noise);
        (decision, residue)
    }

    /// Clears inter-sample state (settling memory).
    pub fn reset(&mut self) {
        self.mdac.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adc_analog::opamp::{OpAmp, OpAmpSpec};

    fn ideal_stage() -> PipelineStage {
        let amp = OpAmp::new(OpAmpSpec::ideal(), 1e-3, 1e-12);
        PipelineStage {
            index: 0,
            c_sample: Capacitor::ideal(4e-12),
            adsc: Adsc::ideal(1.0),
            mdac: Mdac::new(2e-12, 2e-12, 0.5, amp),
            samples_own_input: false,
            leak_cubic_a_per_v3: 0.0,
        }
    }

    fn quiet() -> NoiseSource {
        NoiseSource::from_seed(0)
    }

    #[test]
    fn ideal_stage_implements_the_textbook_transfer() {
        let mut s = ideal_stage();
        let r = ReferenceBuffer::ideal(1.0);
        let mut n = quiet();
        // Below -Vref/4: d = -1, residue = 2v + Vref.
        let (d, res) = s.process(-0.5, &r, 1e-6, 1e-8, &mut n);
        assert_eq!(d.dac_level, -1);
        assert!((res - 0.0).abs() < 1e-12);
        // Mid-range: d = 0, residue = 2v.
        let (d, res) = s.process(0.1, &r, 1e-6, 1e-8, &mut n);
        assert_eq!(d.dac_level, 0);
        assert!((res - 0.2).abs() < 1e-12);
        // Above +Vref/4: d = +1, residue = 2v − Vref.
        let (d, res) = s.process(0.6, &r, 1e-6, 1e-8, &mut n);
        assert_eq!(d.dac_level, 1);
        assert!((res - 0.2).abs() < 1e-12);
    }

    #[test]
    fn residue_stays_within_half_range_for_in_range_input() {
        // The redundancy property: for |v| ≤ Vref, the ideal residue stays
        // within ±Vref, so the next stage cannot be driven out of range.
        let mut s = ideal_stage();
        let r = ReferenceBuffer::ideal(1.0);
        let mut n = quiet();
        for i in -100..=100 {
            let v = i as f64 / 100.0;
            let (_, res) = s.process(v, &r, 1e-6, 1e-8, &mut n);
            assert!(
                res.abs() <= 1.0 + 1e-9,
                "residue {res} out of range for input {v}"
            );
        }
    }

    #[test]
    fn own_sampling_noise_has_ktc_magnitude() {
        let mut s = PipelineStage {
            samples_own_input: true,
            ..ideal_stage()
        };
        let r = ReferenceBuffer::ideal(1.0);
        let mut n = NoiseSource::from_seed(5);
        let count = 20_000;
        let mut sum2 = 0.0;
        for _ in 0..count {
            s.reset();
            let (_, res) = s.process(0.0, &r, 1e-6, 1e-8, &mut n);
            // residue = 2·(v + noise) => input-referred noise = res/2.
            sum2 += (res / 2.0) * (res / 2.0);
        }
        let sigma = (sum2 / count as f64).sqrt();
        let expected = s.c_sample.ktc_rms_v();
        assert!(
            (sigma - expected).abs() / expected < 0.05,
            "sigma {sigma} vs {expected}"
        );
    }

    #[test]
    fn cubic_leakage_droops_large_signals_more() {
        let mut s = PipelineStage {
            leak_cubic_a_per_v3: 1e-6,
            ..ideal_stage()
        };
        let r = ReferenceBuffer::ideal(1.0);
        let mut n = quiet();
        let hold = 100e-9; // long hold (low rate)
        let (_, res_small) = s.process(0.1, &r, 1e-6, hold, &mut n);
        s.reset();
        let (_, res_big) = s.process(0.2, &r, 1e-6, hold, &mut n);
        // droop = k·v³·t/C: relative droop at 0.2 is 4× that at 0.1.
        let droop_small = 0.2 - res_small;
        let droop_big = 0.4 - res_big - 0.0;
        assert!(
            droop_big > 3.9 * droop_small,
            "{droop_big} vs {droop_small}"
        );
    }

    #[test]
    fn comparator_offset_within_quarter_ref_is_harmless_after_correction() {
        // The redundancy argument, checked at stage level: an offset
        // shifts which decision fires, but the residue still lands inside
        // the next stage's correctable range.
        let mut s = ideal_stage();
        s.adsc.set_high_offset_v(0.2); // large but < Vref/4
        let r = ReferenceBuffer::ideal(1.0);
        let mut n = quiet();
        for i in -100..=100 {
            let v = i as f64 / 100.0;
            s.reset();
            let (_, res) = s.process(v, &r, 1e-6, 1e-8, &mut n);
            assert!(res.abs() <= 1.0 + 1e-9, "residue {res} for input {v}");
        }
    }
}

//! Band-gap voltage reference and reference buffer models.
//!
//! The pipeline chain receives its reference voltages, common-mode voltage,
//! and the bias-generator reference `V_BIAS` from on-chip circuitry derived
//! from a band-gap (paper §2). The paper highlights that `V_BIAS` is "near
//! independent of variations in process parameters, temperature and supply
//! voltage" — which is exactly what makes Eq. 1 a *current* that tracks only
//! `C_B · f_CR`.

use crate::noise::NoiseSource;

/// A curvature-compensated band-gap voltage generator.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Bandgap {
    /// Output voltage at the nominal temperature and supply, volts.
    pub v_nominal_v: f64,
    /// Residual linear temperature coefficient, volts per kelvin.
    pub temp_coeff_v_per_k: f64,
    /// Residual curvature, volts per kelvin².
    pub curvature_v_per_k2: f64,
    /// Supply sensitivity (line regulation), volts per volt of supply.
    pub supply_sensitivity: f64,
    /// Untrimmed process offset (drawn at fabrication), volts.
    pub process_offset_v: f64,
}

impl Bandgap {
    /// Nominal reference temperature, °C.
    pub const T_REF_C: f64 = 27.0;
    /// Nominal supply for the paper's design, volts.
    pub const VDD_NOMINAL_V: f64 = 1.8;

    /// An ideal band-gap with the given output.
    pub fn ideal(v_nominal_v: f64) -> Self {
        assert!(v_nominal_v > 0.0);
        Self {
            v_nominal_v,
            temp_coeff_v_per_k: 0.0,
            curvature_v_per_k2: 0.0,
            supply_sensitivity: 0.0,
            process_offset_v: 0.0,
        }
    }

    /// A realistic 0.18 µm band-gap: ±30 ppm/K linear residue, small
    /// curvature, 60 dB line regulation, fabricated with `noise`.
    pub fn fabricate(v_nominal_v: f64, noise: &mut NoiseSource) -> Self {
        assert!(v_nominal_v > 0.0);
        Self {
            v_nominal_v,
            temp_coeff_v_per_k: noise.gaussian(0.0, 30e-6 * v_nominal_v),
            curvature_v_per_k2: -1e-6 * v_nominal_v,
            supply_sensitivity: 1e-3,
            process_offset_v: noise.gaussian(0.0, 3e-3),
        }
    }

    /// Output voltage at an operating condition.
    pub fn output_v(&self, temp_c: f64, vdd_v: f64) -> f64 {
        let dt = temp_c - Self::T_REF_C;
        self.v_nominal_v
            + self.process_offset_v
            + self.temp_coeff_v_per_k * dt
            + self.curvature_v_per_k2 * dt * dt
            + self.supply_sensitivity * (vdd_v - Self::VDD_NOMINAL_V)
    }
}

/// Buffered reference voltage distribution to the pipeline stages.
///
/// The references are "decoupled by off-chip capacitors" (§2); what remains
/// visible to the stages is a small static gain error, a code-dependent
/// droop due to the buffer's output impedance, and reference noise.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ReferenceBuffer {
    /// Nominal differential reference (V_REFP − V_REFN), volts.
    pub v_ref_v: f64,
    /// Static gain error of the buffered reference, relative.
    pub static_error_rel: f64,
    /// Peak code-dependent droop (fraction of V_REF) when a stage draws
    /// maximum charge; the instantaneous droop scales with the DAC level.
    pub droop_rel: f64,
    /// RMS reference noise per sampling event, volts.
    pub noise_rms_v: f64,
}

impl ReferenceBuffer {
    /// An ideal reference of the given value.
    pub fn ideal(v_ref_v: f64) -> Self {
        assert!(v_ref_v > 0.0);
        Self {
            v_ref_v,
            static_error_rel: 0.0,
            droop_rel: 0.0,
            noise_rms_v: 0.0,
        }
    }

    /// A realistic buffered, off-chip-decoupled reference.
    pub fn decoupled(v_ref_v: f64, noise: &mut NoiseSource) -> Self {
        assert!(v_ref_v > 0.0);
        Self {
            v_ref_v,
            static_error_rel: noise.gaussian(0.0, 1e-3),
            droop_rel: 5e-5,
            noise_rms_v: 30e-6,
        }
    }

    /// The effective reference seen by a stage whose DAC level is
    /// `dac_level` ∈ {−1, 0, +1} (the 1.5-bit DSB selection), for one event.
    pub fn effective_v(&self, dac_level: i8, noise: &mut NoiseSource) -> f64 {
        let droop = self.droop_rel * f64::from(dac_level.abs());
        self.v_ref_v * (1.0 + self.static_error_rel - droop) + noise.gaussian(0.0, self.noise_rms_v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_bandgap_is_flat() {
        let bg = Bandgap::ideal(0.9);
        assert_eq!(bg.output_v(-40.0, 1.6), 0.9);
        assert_eq!(bg.output_v(125.0, 2.0), 0.9);
    }

    #[test]
    fn fabricated_bandgap_stays_within_spec_band() {
        let mut n = NoiseSource::from_seed(17);
        for _ in 0..100 {
            let bg = Bandgap::fabricate(0.9, &mut n);
            // Across -40..125 °C and ±10 % supply the output stays within
            // ~3 % of nominal — "near independent" as the paper puts it.
            for &t in &[-40.0, 27.0, 125.0] {
                for &vdd in &[1.62, 1.8, 1.98] {
                    let v = bg.output_v(t, vdd);
                    assert!((v - 0.9).abs() < 0.03, "v {v} at t={t} vdd={vdd}");
                }
            }
        }
    }

    #[test]
    fn supply_sensitivity_acts_linearly() {
        let bg = Bandgap {
            supply_sensitivity: 1e-3,
            ..Bandgap::ideal(0.9)
        };
        let dv = bg.output_v(27.0, 1.9) - bg.output_v(27.0, 1.8);
        assert!((dv - 1e-4).abs() < 1e-12);
    }

    #[test]
    fn ideal_reference_is_exact() {
        let r = ReferenceBuffer::ideal(1.0);
        let mut n = NoiseSource::from_seed(1);
        assert_eq!(r.effective_v(0, &mut n), 1.0);
        assert_eq!(r.effective_v(1, &mut n), 1.0);
    }

    #[test]
    fn droop_depends_on_dac_level() {
        let r = ReferenceBuffer {
            droop_rel: 1e-3,
            ..ReferenceBuffer::ideal(1.0)
        };
        let mut n = NoiseSource::from_seed(2);
        let v0 = r.effective_v(0, &mut n);
        let v1 = r.effective_v(1, &mut n);
        let vm = r.effective_v(-1, &mut n);
        assert_eq!(v0, 1.0);
        assert!((v1 - 0.999).abs() < 1e-12);
        assert_eq!(v1, vm);
    }

    #[test]
    fn reference_noise_has_requested_rms() {
        let r = ReferenceBuffer {
            noise_rms_v: 100e-6,
            ..ReferenceBuffer::ideal(1.0)
        };
        let mut n = NoiseSource::from_seed(3);
        let count = 50_000;
        let var: f64 = (0..count)
            .map(|_| (r.effective_v(0, &mut n) - 1.0).powi(2))
            .sum::<f64>()
            / count as f64;
        assert!((var.sqrt() - 100e-6).abs() < 2e-6);
    }
}

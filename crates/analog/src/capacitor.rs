//! Capacitor models: absolute process spread, local matching, and kT/C noise.
//!
//! The paper's process is *pure digital* 0.18 µm CMOS, so the sampling
//! capacitors C1/C2 are **parasitic metal capacitors** rather than precision
//! MiM/poly caps. Two statistical effects follow and both are modelled here:
//!
//! * **Absolute spread** — the absolute value of a metal finger capacitor
//!   varies by ±10–20 % die to die. The paper's SC bias generator exists
//!   precisely to track this spread (Eq. 1 makes the bias current
//!   proportional to an on-chip capacitor, so `GBW ∝ C/C` cancels).
//! * **Local mismatch** — two nominally identical capacitors on one die
//!   differ by a small random amount (σ fractions of a percent), which sets
//!   the MDAC gain/DAC errors and ultimately the converter's INL/DNL.

use crate::noise::NoiseSource;
use crate::units::ktc_noise_rms;

/// Statistical description of a capacitor before fabrication.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CapacitorSpec {
    /// Nominal (drawn) capacitance in farads.
    pub nominal_f: f64,
    /// One-sigma *absolute* process spread, relative (e.g. 0.07 = 7 %).
    /// Fully correlated across one die.
    pub absolute_sigma_rel: f64,
    /// One-sigma *local* mismatch, relative (e.g. 0.0005 = 0.05 %).
    /// Independent per device.
    pub matching_sigma_rel: f64,
}

impl CapacitorSpec {
    /// Creates a spec with the given nominal value and spread parameters.
    ///
    /// # Panics
    ///
    /// Panics if `nominal_f` is not strictly positive or a sigma is negative.
    pub fn new(nominal_f: f64, absolute_sigma_rel: f64, matching_sigma_rel: f64) -> Self {
        assert!(nominal_f > 0.0, "nominal capacitance must be positive");
        assert!(absolute_sigma_rel >= 0.0 && matching_sigma_rel >= 0.0);
        Self {
            nominal_f,
            absolute_sigma_rel,
            matching_sigma_rel,
        }
    }

    /// An ideal capacitor: exact value, no spread, no mismatch.
    pub fn ideal(nominal_f: f64) -> Self {
        Self::new(nominal_f, 0.0, 0.0)
    }

    /// Typical metal-finger capacitor in a pure digital process: 15 %
    /// absolute spread, 0.05 % matching.
    pub fn digital_metal(nominal_f: f64) -> Self {
        Self::new(nominal_f, 0.15, 0.0005)
    }

    /// Fabricates one die's instance of this capacitor.
    ///
    /// `die_factor` is the shared absolute-spread multiplier for the whole
    /// die (draw it once per die with [`CapacitorSpec::draw_die_factor`]);
    /// the local mismatch is drawn per device from `noise`.
    pub fn fabricate(&self, die_factor: f64, noise: &mut NoiseSource) -> Capacitor {
        let local = noise.mismatch_factor(self.matching_sigma_rel);
        Capacitor {
            value_f: self.nominal_f * die_factor * local,
            nominal_f: self.nominal_f,
        }
    }

    /// Draws the die-wide absolute spread factor for this spec's technology.
    pub fn draw_die_factor(&self, noise: &mut NoiseSource) -> f64 {
        noise.mismatch_factor(self.absolute_sigma_rel)
    }
}

/// A fabricated capacitor with a concrete value.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Capacitor {
    /// Actual fabricated value in farads.
    pub value_f: f64,
    /// The drawn (nominal) value in farads.
    pub nominal_f: f64,
}

impl Capacitor {
    /// An exactly-nominal capacitor.
    pub fn ideal(value_f: f64) -> Self {
        assert!(value_f > 0.0, "capacitance must be positive");
        Self {
            value_f,
            nominal_f: value_f,
        }
    }

    /// RMS kT/C noise frozen on this capacitor at each sampling event, volts.
    pub fn ktc_rms_v(&self) -> f64 {
        ktc_noise_rms(self.value_f)
    }

    /// Draws one sampled-noise voltage for a sampling event on this cap.
    pub fn sample_ktc_noise(&self, noise: &mut NoiseSource) -> f64 {
        noise.gaussian(0.0, self.ktc_rms_v())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_cap_has_no_error() {
        let c = Capacitor::ideal(1e-12);
        assert_eq!(c.value_f, c.nominal_f);
    }

    #[test]
    fn ideal_spec_fabricates_exact() {
        let spec = CapacitorSpec::ideal(2e-12);
        let mut n = NoiseSource::from_seed(1);
        let die = spec.draw_die_factor(&mut n);
        assert_eq!(die, 1.0);
        let c = spec.fabricate(die, &mut n);
        assert_eq!(c.value_f, 2e-12);
    }

    #[test]
    fn absolute_spread_is_shared_matching_is_not() {
        let spec = CapacitorSpec::new(1e-12, 0.15, 0.0005);
        let mut n = NoiseSource::from_seed(42);
        let die = spec.draw_die_factor(&mut n);
        let c1 = spec.fabricate(die, &mut n);
        let c2 = spec.fabricate(die, &mut n);
        // Both see the same die factor...
        let shared1 = c1.value_f / (1e-12);
        let shared2 = c2.value_f / (1e-12);
        // ...and differ only by the (small) local term.
        assert!((shared1 / shared2 - 1.0).abs() < 0.01);
        assert_ne!(c1.value_f, c2.value_f);
    }

    #[test]
    fn matching_statistics() {
        let spec = CapacitorSpec::new(1e-12, 0.0, 0.001);
        let mut n = NoiseSource::from_seed(5);
        let count = 50_000;
        let var: f64 = (0..count)
            .map(|_| {
                let c = spec.fabricate(1.0, &mut n);
                (c.value_f / c.nominal_f - 1.0).powi(2)
            })
            .sum::<f64>()
            / count as f64;
        assert!((var.sqrt() - 0.001).abs() < 5e-5, "sigma {}", var.sqrt());
    }

    #[test]
    fn ktc_noise_matches_formula() {
        let c = Capacitor::ideal(4e-12);
        assert!((c.ktc_rms_v() - ktc_noise_rms(4e-12)).abs() < 1e-18);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive() {
        let _ = Capacitor::ideal(-1e-12);
    }
}

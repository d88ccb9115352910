//! The band-pass filter model: the paper's measurement-hygiene step.
//!
//! "Both [the input signal and the clock] were filtered using high order
//! passive band-pass filters around the applied frequency to remove
//! harmonics and white noise produced by the sources" (§4).
//!
//! [`BandpassFilter::clean`] acts on a [`SineSource`] *specification*:
//! each residual harmonic is attenuated by the filter's skirt at its
//! frequency. This is how the bench wires a generator to the ADC.

use crate::signal::{Harmonic, SineSource};

/// An n-th order analog band-pass filter centred on a tone.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BandpassFilter {
    /// Centre frequency, hertz.
    pub center_hz: f64,
    /// −3 dB bandwidth, hertz.
    pub bandwidth_hz: f64,
    /// Filter order (poles); the skirt falls at 20·order dB/decade.
    pub order: u32,
}

impl BandpassFilter {
    /// A high-order passive filter like the paper's: 5 % fractional
    /// bandwidth, 7th order.
    pub fn passive_high_order(center_hz: f64) -> Self {
        assert!(center_hz > 0.0);
        Self {
            center_hz,
            bandwidth_hz: center_hz * 0.05,
            order: 7,
        }
    }

    /// Magnitude response at a frequency (linear, ≤ 1).
    pub fn magnitude_at(&self, f_hz: f64) -> f64 {
        if f_hz <= 0.0 {
            return 0.0;
        }
        // Standard band-pass prototype: |H| = 1/sqrt(1 + Q^(2n)·(f/f0 − f0/f)^(2n))
        let q = self.center_hz / self.bandwidth_hz;
        let x = q * (f_hz / self.center_hz - self.center_hz / f_hz);
        1.0 / (1.0 + x.powi(2 * self.order as i32)).sqrt()
    }

    /// Applies the filter to a generator specification: harmonics are
    /// attenuated by the skirt, the fundamental by its (≈1) in-band
    /// response, and the phase wobble passes (it is close-in).
    pub fn clean(&self, source: &SineSource) -> SineSource {
        let fundamental_gain = self.magnitude_at(source.frequency_hz);
        let harmonics = source
            .harmonics
            .iter()
            .map(|h| {
                let f_h = f64::from(h.order) * source.frequency_hz;
                let gain = self.magnitude_at(f_h) / fundamental_gain.max(1e-12);
                Harmonic {
                    order: h.order,
                    relative_amplitude: h.relative_amplitude * gain,
                }
            })
            .filter(|h| h.relative_amplitude > 1e-12)
            .collect();
        SineSource {
            amplitude_v: source.amplitude_v * fundamental_gain,
            harmonics,
            ..source.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passband_is_unity_and_skirt_is_steep() {
        let f = BandpassFilter::passive_high_order(10e6);
        assert!((f.magnitude_at(10e6) - 1.0).abs() < 1e-9);
        // Second harmonic (20 MHz) attenuated enormously by a 7th-order
        // 5 %-BW filter.
        let hd2_gain = f.magnitude_at(20e6);
        assert!(hd2_gain < 1e-8, "gain {hd2_gain}");
    }

    #[test]
    fn clean_removes_generator_harmonics() {
        let raw = SineSource::rf_generator(1.0, 10e6);
        let filter = BandpassFilter::passive_high_order(10e6);
        let clean = filter.clean(&raw);
        assert!(clean.harmonics.is_empty(), "{:?}", clean.harmonics);
        assert!((clean.amplitude_v - 1.0).abs() < 1e-6);
    }

    #[test]
    fn magnitude_is_symmetric_in_log_frequency() {
        let f = BandpassFilter::passive_high_order(10e6);
        let above = f.magnitude_at(20e6);
        let below = f.magnitude_at(5e6);
        assert!((above / below - 1.0).abs() < 1e-9);
    }
}

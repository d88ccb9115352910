//! Signal sources for the measurement bench.
//!
//! The paper's dynamic measurements were "done by using RF-sources for the
//! input signal and the clocking of the ADC", filtered by "high order
//! passive band-pass filters ... to remove harmonics and white noise
//! produced by the sources" (§4). [`SineSource`] models the RF generator —
//! a tone plus its residual harmonics, wideband noise floor, and close-in
//! phase noise — and `crate::filter` models the band-pass cleanup.
//!
//! All sources implement [`adc_pipeline::Waveform`] with analytic slopes,
//! so tracking-distortion and jitter models in the converter see exact
//! derivatives.

use adc_pipeline::Waveform;
use std::f64::consts::TAU;

/// One residual harmonic of a generator.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Harmonic {
    /// Harmonic order (2 = second harmonic, ...).
    pub order: u32,
    /// Amplitude relative to the fundamental (linear, e.g. 10^(-60/20)).
    pub relative_amplitude: f64,
}

/// A laboratory RF sine generator.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SineSource {
    /// Peak amplitude of the fundamental, volts.
    pub amplitude_v: f64,
    /// Frequency, hertz.
    pub frequency_hz: f64,
    /// Initial phase, radians.
    pub phase_rad: f64,
    /// DC offset, volts.
    pub dc_v: f64,
    /// Residual harmonics (after any filtering).
    pub harmonics: Vec<Harmonic>,
    /// Deterministic close-in phase modulation depth, radians (a simple
    /// stand-in for generator phase noise; 0 = clean).
    pub phase_wobble_rad: f64,
    /// Phase-wobble rate, hertz.
    pub phase_wobble_hz: f64,
}

impl SineSource {
    /// An ideally clean tone.
    pub fn clean(amplitude_v: f64, frequency_hz: f64) -> Self {
        assert!(frequency_hz > 0.0, "frequency must be positive");
        Self {
            amplitude_v,
            frequency_hz,
            phase_rad: 0.0,
            dc_v: 0.0,
            harmonics: Vec::new(),
            phase_wobble_rad: 0.0,
            phase_wobble_hz: 0.0,
        }
    }

    /// A realistic bench RF generator *before* band-pass filtering:
    /// −55 dBc HD2, −60 dBc HD3, and mild close-in phase wobble. Feed it
    /// through [`crate::filter::BandpassFilter::clean`] to reproduce the
    /// paper's measurement hygiene.
    pub fn rf_generator(amplitude_v: f64, frequency_hz: f64) -> Self {
        Self {
            harmonics: vec![
                Harmonic {
                    order: 2,
                    relative_amplitude: 10f64.powf(-55.0 / 20.0),
                },
                Harmonic {
                    order: 3,
                    relative_amplitude: 10f64.powf(-60.0 / 20.0),
                },
            ],
            phase_wobble_rad: 1e-4,
            phase_wobble_hz: frequency_hz / 1e4,
            ..Self::clean(amplitude_v, frequency_hz)
        }
    }

    /// Sets the initial phase.
    pub fn with_phase(mut self, phase_rad: f64) -> Self {
        self.phase_rad = phase_rad;
        self
    }

    /// The instantaneous phase argument at time `t`.
    fn theta(&self, t_s: f64) -> f64 {
        let wobble = if self.phase_wobble_rad > 0.0 {
            self.phase_wobble_rad * (TAU * self.phase_wobble_hz * t_s).sin()
        } else {
            0.0
        };
        TAU * self.frequency_hz * t_s + self.phase_rad + wobble
    }
}

/// Samples between exact re-anchorings of the phase recurrence in
/// [`SineSource::fill_with_slope`]: rounding drift over one block stays
/// below ~1e-13 relative, far under every modelled noise floor.
const RECURRENCE_BLOCK: usize = 1024;

impl Waveform for SineSource {
    fn value(&self, t_s: f64) -> f64 {
        let theta = self.theta(t_s);
        let mut v = self.dc_v + self.amplitude_v * theta.sin();
        for h in &self.harmonics {
            v += self.amplitude_v * h.relative_amplitude * (f64::from(h.order) * theta).sin();
        }
        v
    }

    fn slope(&self, t_s: f64) -> f64 {
        let theta = self.theta(t_s);
        let dtheta = TAU * self.frequency_hz
            + self.phase_wobble_rad
                * TAU
                * self.phase_wobble_hz
                * (TAU * self.phase_wobble_hz * t_s).cos();
        let mut d = self.amplitude_v * theta.cos() * dtheta;
        for h in &self.harmonics {
            d += self.amplitude_v
                * h.relative_amplitude
                * f64::from(h.order)
                * dtheta
                * (f64::from(h.order) * theta).cos();
        }
        d
    }

    /// Shares one phase-argument evaluation between value and slope —
    /// bit-identical to separate [`Waveform::value`]/[`Waveform::slope`]
    /// calls (identical expression trees on the same `theta`), at half
    /// the transcendental cost.
    fn sample_at(&self, t_s: f64) -> (f64, f64) {
        let theta = self.theta(t_s);
        let dtheta = TAU * self.frequency_hz
            + self.phase_wobble_rad
                * TAU
                * self.phase_wobble_hz
                * (TAU * self.phase_wobble_hz * t_s).cos();
        let mut v = self.dc_v + self.amplitude_v * theta.sin();
        let mut d = self.amplitude_v * theta.cos() * dtheta;
        for h in &self.harmonics {
            let harmonic_theta = f64::from(h.order) * theta;
            v += self.amplitude_v * h.relative_amplitude * harmonic_theta.sin();
            d += self.amplitude_v
                * h.relative_amplitude
                * f64::from(h.order)
                * dtheta
                * harmonic_theta.cos();
        }
        (v, d)
    }

    /// Grid evaluation with a phase-recurrence fast path.
    ///
    /// A clean tone (no wobble, no harmonics) advances `sin θ / cos θ`
    /// by one complex rotation per sample instead of evaluating `sin`
    /// and `cos` at every instant, re-anchoring exactly (via
    /// [`Waveform::sample_at`]'s phase expression) every
    /// [`RECURRENCE_BLOCK`] samples so rounding drift stays ≲1e-13
    /// relative — negligible against every modelled noise source. Wobbly
    /// or harmonic-bearing sources fall back to per-sample evaluation.
    fn fill_with_slope(&self, first: usize, dt_s: f64, values: &mut [f64], slopes: &mut [f64]) {
        assert_eq!(values.len(), slopes.len());
        if self.phase_wobble_rad > 0.0 || !self.harmonics.is_empty() {
            for (k, (v, s)) in values.iter_mut().zip(slopes.iter_mut()).enumerate() {
                let t = (first + k) as f64 * dt_s;
                let (value, slope) = self.sample_at(t);
                *v = value;
                *s = slope;
            }
            return;
        }
        let omega = TAU * self.frequency_hz;
        let (rot_sin, rot_cos) = (omega * dt_s).sin_cos();
        let slope_gain = self.amplitude_v * omega;
        let n = values.len();
        let mut k = 0usize;
        while k < n {
            let (mut sin_theta, mut cos_theta) = self.theta((first + k) as f64 * dt_s).sin_cos();
            let block = (n - k).min(RECURRENCE_BLOCK);
            for i in k..k + block {
                values[i] = self.dc_v + self.amplitude_v * sin_theta;
                slopes[i] = slope_gain * cos_theta;
                let advanced_sin = sin_theta * rot_cos + cos_theta * rot_sin;
                let advanced_cos = cos_theta * rot_cos - sin_theta * rot_sin;
                sin_theta = advanced_sin;
                cos_theta = advanced_cos;
            }
            k += block;
        }
    }
}

/// A sum of independent tones (for intermodulation tests).
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct MultiTone {
    /// The component tones.
    pub tones: Vec<SineSource>,
}

impl MultiTone {
    /// A symmetric two-tone stimulus.
    pub fn two_tone(amplitude_each_v: f64, f1_hz: f64, f2_hz: f64) -> Self {
        Self {
            tones: vec![
                SineSource::clean(amplitude_each_v, f1_hz),
                SineSource::clean(amplitude_each_v, f2_hz),
            ],
        }
    }
}

impl Waveform for MultiTone {
    fn value(&self, t_s: f64) -> f64 {
        self.tones.iter().map(|s| s.value(t_s)).sum()
    }

    fn slope(&self, t_s: f64) -> f64 {
        self.tones.iter().map(|s| s.slope(t_s)).sum()
    }
}

/// A slow linear ramp between two voltages (static/linearity testing).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RampSource {
    /// Start voltage.
    pub from_v: f64,
    /// End voltage.
    pub to_v: f64,
    /// Ramp duration, seconds.
    pub duration_s: f64,
}

impl RampSource {
    /// Creates a ramp.
    ///
    /// # Panics
    ///
    /// Panics if the duration is not positive.
    pub fn new(from_v: f64, to_v: f64, duration_s: f64) -> Self {
        assert!(duration_s > 0.0, "ramp duration must be positive");
        Self {
            from_v,
            to_v,
            duration_s,
        }
    }
}

impl Waveform for RampSource {
    fn value(&self, t_s: f64) -> f64 {
        let x = (t_s / self.duration_s).clamp(0.0, 1.0);
        self.from_v + (self.to_v - self.from_v) * x
    }

    fn slope(&self, t_s: f64) -> f64 {
        if (0.0..=self.duration_s).contains(&t_s) {
            (self.to_v - self.from_v) / self.duration_s
        } else {
            0.0
        }
    }
}

/// A constant level (offset/grounded-input testing).
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct DcSource {
    /// The level, volts.
    pub level_v: f64,
}

impl Waveform for DcSource {
    fn value(&self, _t_s: f64) -> f64 {
        self.level_v
    }

    fn slope(&self, _t_s: f64) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_sine_has_exact_value_and_slope() {
        let s = SineSource::clean(0.8, 10e6);
        let t = 13.7e-9;
        let expected = 0.8 * (TAU * 10e6 * t).sin();
        assert!((s.value(t) - expected).abs() < 1e-15);
        let dexp = 0.8 * TAU * 10e6 * (TAU * 10e6 * t).cos();
        assert!((s.slope(t) - dexp).abs() / dexp.abs() < 1e-12);
    }

    #[test]
    fn analytic_slope_matches_numeric() {
        let s = SineSource::rf_generator(1.0, 7e6);
        for &t in &[0.0, 1e-7, 3.3e-7] {
            let numeric = (s.value(t + 1e-12) - s.value(t - 1e-12)) / 2e-12;
            assert!(
                (s.slope(t) - numeric).abs() < 1e-2 * s.slope(t).abs().max(1.0),
                "t {t}: {} vs {numeric}",
                s.slope(t)
            );
        }
    }

    #[test]
    fn harmonics_add_to_value() {
        let mut s = SineSource::clean(1.0, 1e6);
        s.harmonics.push(Harmonic {
            order: 3,
            relative_amplitude: 0.1,
        });
        // At the fundamental's positive peak (θ = π/2), HD3 contributes
        // sin(3π/2) = −1.
        let t_peak = 0.25 / 1e6;
        assert!((s.value(t_peak) - (1.0 - 0.1)).abs() < 1e-9);
    }

    #[test]
    fn sample_at_is_bit_identical_to_separate_calls() {
        let s = SineSource::rf_generator(1.0, 7e6).with_phase(0.3);
        for i in 0..200 {
            let t = i as f64 * 9.09e-9;
            let (v, d) = s.sample_at(t);
            assert_eq!(v.to_bits(), s.value(t).to_bits(), "value at t={t}");
            assert_eq!(d.to_bits(), s.slope(t).to_bits(), "slope at t={t}");
        }
    }

    #[test]
    fn recurrence_fill_tracks_direct_evaluation() {
        // Clean tone => the phase-recurrence path runs; drift between
        // re-anchors must stay far below any modelled noise floor.
        let s = SineSource::clean(0.9, 10.3e6).with_phase(0.7);
        let n = 4096;
        let dt = 1.0 / 110e6;
        let mut values = vec![0.0; n];
        let mut slopes = vec![0.0; n];
        s.fill_with_slope(0, dt, &mut values, &mut slopes);
        for k in 0..n {
            let (v, d) = s.sample_at(k as f64 * dt);
            assert!(
                (values[k] - v).abs() < 1e-11,
                "value drift {} at k={k}",
                (values[k] - v).abs()
            );
            // Drift scales with the full-scale slope A·ω (the recurrence
            // error lives in the phasor), not the local slope.
            assert!(
                (slopes[k] - d).abs() < 1e-12 * (0.9 * TAU * 10.3e6),
                "slope drift {} at k={k}",
                (slopes[k] - d).abs()
            );
        }
    }

    #[test]
    fn wobbly_source_fill_is_bit_identical_to_sample_at() {
        // Wobble/harmonics => the fallback runs and must be exact.
        let s = SineSource::rf_generator(1.0, 10e6);
        let n = 257;
        let dt = 1.0 / 110e6;
        let mut values = vec![0.0; n];
        let mut slopes = vec![0.0; n];
        // A grid that starts mid-record: instant k is (first + k)·dt.
        let first = 300;
        s.fill_with_slope(first, dt, &mut values, &mut slopes);
        for k in 0..n {
            let (v, d) = s.sample_at((first + k) as f64 * dt);
            assert_eq!(values[k].to_bits(), v.to_bits());
            assert_eq!(slopes[k].to_bits(), d.to_bits());
        }
    }

    #[test]
    fn two_tone_sums_components() {
        let m = MultiTone::two_tone(0.45, 9e6, 10e6);
        let t = 1e-7;
        let expected = 0.45 * (TAU * 9e6 * t).sin() + 0.45 * (TAU * 10e6 * t).sin();
        assert!((m.value(t) - expected).abs() < 1e-12);
    }

    #[test]
    fn ramp_is_linear_and_clamped() {
        let r = RampSource::new(-1.0, 1.0, 1e-3);
        assert_eq!(r.value(0.0), -1.0);
        assert_eq!(r.value(0.5e-3), 0.0);
        assert_eq!(r.value(1e-3), 1.0);
        assert_eq!(r.value(2e-3), 1.0); // clamped
        assert!((r.slope(0.3e-3) - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn dc_source_is_flat() {
        let d = DcSource { level_v: 0.3 };
        assert_eq!(d.value(0.0), 0.3);
        assert_eq!(d.value(1.0), 0.3);
        assert_eq!(d.slope(0.5), 0.0);
    }
}

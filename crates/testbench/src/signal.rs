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
//! derivatives. [`SineSource`] also overrides [`Waveform::fill_at`], the
//! record kernel's one call per chunk of sampling instants, with a
//! polynomial pass; the other sources sample through `sample_at`.

use adc_analog::stripe::{frac_turns, sincos_turns};
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

    /// The phase argument's rate `dθ/dt` at time `t`; the wobble term
    /// enters under the same condition as in [`Self::theta`].
    fn dtheta(&self, t_s: f64) -> f64 {
        let wobble = if self.phase_wobble_rad > 0.0 {
            self.phase_wobble_rad
                * TAU
                * self.phase_wobble_hz
                * (TAU * self.phase_wobble_hz * t_s).cos()
        } else {
            0.0
        };
        TAU * self.frequency_hz + wobble
    }
}

/// Veltkamp's split of `x` into two halves of 26 significant bits
/// each, `hi + lo == x` exactly, so that products of halves are exact
/// (Dekker's error-free product, without relying on FMA).
#[inline(always)]
fn split(x: f64) -> (f64, f64) {
    let c = 134_217_729.0 * x; // 2²⁷ + 1
    let hi = c - (c - x);
    (hi, x - hi)
}

/// Instants per block of [`SineSource::fill_at`]: the block's reduced
/// phases and phase rates live on the stack between the fundamental's
/// pass and each harmonic's.
const FILL_BLOCK: usize = 64;

impl SineSource {
    /// AVX2 re-instantiation of [`Self::fill_at_impl`]. Every operation
    /// is IEEE-exact and Rust never contracts to FMA, so it returns the
    /// portable (SSE2) instantiation's bits.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn fill_at_avx2(&self, times: &[f64], values: &mut [f64], slopes: &mut [f64]) {
        self.fill_at_impl(times, values, slopes);
    }

    /// Body of [`Waveform::fill_at`]: the phase in turns, reduced
    /// branch-free to `[0, 1]` and fed to the `stripe` polynomials.
    /// `inline(always)` so the feature-gated wrapper re-instantiates it.
    #[inline(always)]
    fn fill_at_impl(&self, times: &[f64], values: &mut [f64], slopes: &mut [f64]) {
        assert!(times.len() == values.len() && times.len() == slopes.len());
        let amplitude = self.amplitude_v;
        let omega = TAU * self.frequency_hz;
        let phase_turns = self.phase_rad / TAU;
        // As in `theta` and `dtheta`: only a positive depth wobbles
        // the phase.
        let (wobble_turns, wobble_rate) = if self.phase_wobble_rad > 0.0 {
            (
                self.phase_wobble_rad / TAU,
                self.phase_wobble_rad * TAU * self.phase_wobble_hz,
            )
        } else {
            (0.0, 0.0)
        };
        let (f_hi, f_lo) = split(self.frequency_hz);
        let mut turns = [0.0f64; FILL_BLOCK];
        let mut rate = [0.0f64; FILL_BLOCK];
        let blocks = times
            .chunks(FILL_BLOCK)
            .zip(values.chunks_mut(FILL_BLOCK))
            .zip(slopes.chunks_mut(FILL_BLOCK));
        for ((times, values), slopes) in blocks {
            let n = times.len();
            let state = turns[..n].iter_mut().zip(&mut rate[..n]);
            let out = values.iter_mut().zip(slopes.iter_mut());
            for ((&t, (u, dtheta)), (v, d)) in times.iter().zip(state).zip(out) {
                // θ/2π = f·t + φ₀/2π + (w/2π)·sin(2π f_w t). The cycle
                // count f·t is formed exactly, as a rounded product and
                // its rounding error, and reduced before anything is
                // added to it, so the phase keeps its precision however
                // many cycles into the record the instant lies.
                let (wobble_cos, wobble_sin) = sincos_turns(frac_turns(self.phase_wobble_hz * t));
                let cycles = self.frequency_hz * t;
                let (t_hi, t_lo) = split(t);
                let cycles_err = ((f_hi * t_hi - cycles) + f_hi * t_lo + f_lo * t_hi) + f_lo * t_lo;
                *u = frac_turns(
                    frac_turns(cycles) + (cycles_err + (phase_turns + wobble_turns * wobble_sin)),
                );
                *dtheta = omega + wobble_rate * wobble_cos;
                let (cos, sin) = sincos_turns(*u);
                *v = self.dc_v + amplitude * sin;
                *d = amplitude * cos * *dtheta;
            }
            for h in &self.harmonics {
                let order = f64::from(h.order);
                let gain = amplitude * h.relative_amplitude;
                let state = turns[..n].iter().zip(&rate[..n]);
                for ((&u, &dtheta), (v, d)) in state.zip(values.iter_mut().zip(slopes.iter_mut())) {
                    let (cos, sin) = sincos_turns(frac_turns(order * u));
                    *v += gain * sin;
                    *d += gain * order * dtheta * cos;
                }
            }
        }
    }
}

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
        let dtheta = self.dtheta(t_s);
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
        let dtheta = self.dtheta(t_s);
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

    /// One flat, branch-free pass over the instants: the phase in
    /// turns, reduced by [`frac_turns`], through the `stripe` sine and
    /// cosine polynomials ([`sincos_turns`]) — wobble, fundamental, and
    /// one pass per harmonic — in place of four libm calls per instant.
    /// The cycle count is formed exactly and reduced before the
    /// polynomials see it, so the pass's own phase error stays at the
    /// polynomials' ≲1e-13 however deep into a record the instant lies.
    /// [`Waveform::sample_at`] stays on libm as the reference; it rounds
    /// its phase argument `θ` in radians, so the two agree to about
    /// `3ε·|θ|` (≲1e-12 relative over 4,096 samples of a 10 MHz tone).
    fn fill_at(&self, times: &[f64], values: &mut [f64], slopes: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: guarded by runtime feature detection.
            unsafe { self.fill_at_avx2(times, values, slopes) };
            return;
        }
        self.fill_at_impl(times, values, slopes);
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
    fn negative_wobble_depth_is_a_clean_tone() {
        // A wobble rate and harmonics, but zero depth.
        let clean = SineSource {
            phase_wobble_rad: 0.0,
            ..SineSource::rf_generator(0.9, 10.3e6).with_phase(0.4)
        };
        let negative = SineSource {
            phase_wobble_rad: -1e-4,
            ..clean.clone()
        };
        let times = instants(300, 257, 1e-9);
        let fill = |s: &SineSource| {
            let (mut values, mut slopes) = (vec![0.0; times.len()], vec![0.0; times.len()]);
            s.fill_at(&times, &mut values, &mut slopes);
            (values, slopes)
        };
        let (clean_values, clean_slopes) = fill(&clean);
        let (values, slopes) = fill(&negative);
        for (k, &t) in times.iter().enumerate() {
            assert_eq!(negative.value(t).to_bits(), clean.value(t).to_bits());
            assert_eq!(
                negative.slope(t).to_bits(),
                clean.slope(t).to_bits(),
                "t={t}"
            );
            assert_eq!(values[k].to_bits(), clean_values[k].to_bits(), "k={k}");
            assert_eq!(slopes[k].to_bits(), clean_slopes[k].to_bits(), "k={k}");
        }
    }

    /// `first..first + n` grid instants at 110 MS/s, each offset by
    /// `jitter_s` times a deviate.
    fn instants(first: usize, n: usize, jitter_s: f64) -> Vec<f64> {
        let dt = 1.0 / 110e6;
        let mut z = vec![0.0; n];
        adc_analog::SampleNoise::from_seed(first as u64).fill(&mut z);
        (0..n)
            .map(|k| (first + k) as f64 * dt + (0.0 + jitter_s * z[k]))
            .collect()
    }

    #[test]
    fn fill_at_tracks_sample_at() {
        let mut harmonic_rich = SineSource::rf_generator(0.9, 10.3e6).with_phase(-2.3);
        harmonic_rich.dc_v = 0.01;
        harmonic_rich.harmonics.push(Harmonic {
            order: 5,
            relative_amplitude: 0.01,
        });
        let sources = [
            SineSource::clean(0.9, 10.3e6).with_phase(0.7),
            SineSource::rf_generator(0.9, 10.3e6),
            SineSource::rf_generator(0.9, 49.7e6).with_phase(-0.4),
            harmonic_rich,
        ];
        // Grid and jittered instants (0.45 ps is the paper's aperture
        // jitter, 1 ns lands anywhere between grid points), from the
        // record start — where jitter makes the first instant negative
        // — and from mid-record.
        for source in &sources {
            for first in [0, 300] {
                for jitter_s in [0.0, 0.45e-12, 1e-9] {
                    let times = instants(first, 4096, jitter_s);
                    let mut values = vec![0.0; times.len()];
                    let mut slopes = vec![0.0; times.len()];
                    source.fill_at(&times, &mut values, &mut slopes);
                    // Both sides round the phase at about an ulp of the
                    // cycle count, so past the 10.3 MHz tone these
                    // bounds were set for they scale with frequency.
                    let span = (source.frequency_hz / 10.3e6).max(1.0);
                    let full_scale_slope = 0.9 * TAU * source.frequency_hz;
                    for (k, &t) in times.iter().enumerate() {
                        let (v, d) = source.sample_at(t);
                        assert!(
                            (values[k] - v).abs() < 1e-11 * span,
                            "value error {:e} at k={k}, {source:?}",
                            values[k] - v
                        );
                        assert!(
                            (slopes[k] - d).abs() < 1e-12 * full_scale_slope * span,
                            "slope error {:e} at k={k}, {source:?}",
                            slopes[k] - d
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn portable_fill_at_matches_the_dispatched_fill_at() {
        // On an AVX2 host no record runs the portable (SSE2)
        // instantiation; call its body directly. Lengths cover a
        // partial block, whole blocks and one chunk.
        let source = SineSource::rf_generator(0.98, 31.1e6).with_phase(-1.1);
        for n in [0, 1, 63, 64, 65, 256] {
            let times = instants(17, n, 0.45e-12);
            let (mut va, mut sa) = (vec![0.0; n], vec![0.0; n]);
            let (mut vb, mut sb) = (vec![0.0; n], vec![0.0; n]);
            source.fill_at(&times, &mut va, &mut sa);
            source.fill_at_impl(&times, &mut vb, &mut sb);
            for k in 0..n {
                assert_eq!(va[k].to_bits(), vb[k].to_bits(), "value {k} of {n}");
                assert_eq!(sa[k].to_bits(), sb[k].to_bits(), "slope {k} of {n}");
            }
        }
    }

    #[test]
    fn default_fill_at_is_bit_identical_to_sample_at() {
        let source = RampSource::new(-1.0, 1.0, 1e-6);
        let times = instants(300, 257, 1e-9);
        let mut values = vec![0.0; times.len()];
        let mut slopes = vec![0.0; times.len()];
        source.fill_at(&times, &mut values, &mut slopes);
        for (k, &t) in times.iter().enumerate() {
            let (v, d) = source.sample_at(t);
            assert_eq!(values[k].to_bits(), v.to_bits());
            assert_eq!(slopes[k].to_bits(), d.to_bits());
        }
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

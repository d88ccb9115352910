//! Window functions for spectral analysis.
//!
//! The paper's dynamic measurements use band-pass-filtered RF sources and —
//! as is universal in ADC characterisation — coherent sampling, so the
//! workhorse window is [`Window::Rectangular`]. The tapered windows are
//! provided for non-coherent records (e.g. analysing a signal whose
//! frequency is not an exact bin), each with the main-lobe half-width
//! that decides which bins belong to a tone.

/// Supported window shapes.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum Window {
    /// No taper. Use with coherent sampling.
    #[default]
    Rectangular,
    /// Hann (raised cosine).
    Hann,
    /// Blackman (3-term).
    Blackman,
    /// 4-term Blackman–Harris (−92 dB sidelobes) — the usual choice for
    /// high-resolution converter spectra when coherence cannot be
    /// guaranteed.
    BlackmanHarris4,
}

impl Window {
    /// The window coefficients for an `n`-point record.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn coefficients(&self, n: usize) -> Vec<f64> {
        assert!(n > 0, "window length must be nonzero");
        let step = 2.0 * std::f64::consts::PI / n as f64;
        (0..n)
            .map(|i| self.coefficient_at(step * i as f64))
            .collect()
    }

    /// One window coefficient at phase `x = 2πi/n`.
    fn coefficient_at(&self, x: f64) -> f64 {
        match self {
            Window::Rectangular => 1.0,
            Window::Hann => 0.5 - 0.5 * x.cos(),
            Window::Blackman => 0.42 - 0.5 * x.cos() + 0.08 * (2.0 * x).cos(),
            Window::BlackmanHarris4 => {
                0.358_75 - 0.488_29 * x.cos() + 0.141_28 * (2.0 * x).cos()
                    - 0.011_68 * (3.0 * x).cos()
            }
        }
    }

    /// Half-width (in bins) of the main lobe for tone-power summation:
    /// how many bins on each side of the peak belong to the tone.
    pub fn tone_half_width_bins(&self) -> usize {
        match self {
            Window::Rectangular => 1,
            Window::Hann => 3,
            Window::Blackman => 4,
            Window::BlackmanHarris4 => 5,
        }
    }

    /// Applies the window to a signal, returning the tapered copy.
    pub fn apply(&self, signal: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.apply_into(signal, &mut out);
        out
    }

    /// Applies the window into `out` (cleared and refilled), computing
    /// coefficients on the fly — no intermediate coefficient vector.
    pub fn apply_into(&self, signal: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(signal.len());
        if *self == Window::Rectangular {
            out.extend_from_slice(signal);
            return;
        }
        let step = 2.0 * std::f64::consts::PI / signal.len() as f64;
        out.extend(
            signal
                .iter()
                .enumerate()
                .map(|(i, x)| x * self.coefficient_at(step * i as f64)),
        );
    }
}

/// Picks a coherent tone frequency near `f_target_hz` for an `n`-point
/// record at sample rate `fs_hz`.
///
/// Returns `(f_coherent_hz, cycles)` where `cycles` is odd (and therefore
/// coprime with the power-of-two record length), guaranteeing every code
/// is exercised and the tone sits exactly on a bin. Targets beyond
/// Nyquist are allowed — the tone is then deliberately undersampled (the
/// paper's Fig. 6 sweeps the input to 150 MHz at 110 MS/s) and appears at
/// its alias bin.
///
/// # Panics
///
/// Panics if `n` is not a nonzero power of two or `fs_hz` is not positive.
///
/// ```
/// use adc_spectral::window::coherent_frequency;
/// let (f, m) = coherent_frequency(110e6, 8192, 10e6);
/// assert_eq!(m % 2, 1);
/// assert!((f - 10e6).abs() < 110e6 / 8192.0);
/// ```
pub fn coherent_frequency(fs_hz: f64, n: usize, f_target_hz: f64) -> (f64, usize) {
    assert!(n > 0 && n.is_power_of_two(), "record length must be 2^k");
    assert!(fs_hz > 0.0, "sample rate must be positive");
    coherent_cycles(fs_hz, n, f_target_hz)
}

/// [`coherent_frequency`] after its input checks.
fn coherent_cycles(fs_hz: f64, n: usize, f_target_hz: f64) -> (f64, usize) {
    let ideal = f_target_hz / fs_hz * n as f64;
    let mut m = ideal.round() as i64;
    if m % 2 == 0 {
        // Move to the nearer odd neighbour.
        m += if ideal - m as f64 >= 0.0 { 1 } else { -1 };
    }
    let m = m.max(1) as usize;
    (m as f64 * fs_hz / n as f64, m)
}

/// The bin an `m`-cycle (possibly undersampled) coherent tone appears at
/// in an `n`-point one-sided spectrum.
pub fn alias_bin(cycles: usize, n: usize) -> usize {
    let m = cycles % n;
    if m > n / 2 {
        n - m
    } else {
        m
    }
}

/// Like [`coherent_frequency`], but guarantees the tone's *alias* lands at
/// least `min_alias_bin` bins away from DC and Nyquist, nudging the cycle
/// count in ±2 steps if necessary.
///
/// Use this for sweeps where the target frequency may fall near a multiple
/// of the sample rate (e.g. measuring a 10 MHz tone at a 5 MS/s or
/// 20 MS/s conversion rate, as the paper's Fig. 5 does): without the
/// nudge the alias would collide with the DC or Nyquist exclusion region
/// and the analysis would see no tone at all.
///
/// Returns `None` when no odd cycle count clears the exclusion regions:
/// a record too short for `min_alias_bin` (e.g. `n = 32` with 8 bins of
/// clearance leaves only the even bin 8, and `n = 16` leaves nothing).
/// It is total: the inputs [`coherent_frequency`] panics on (`n` not a
/// nonzero power of two, `fs_hz` not positive) also give `None`.
///
/// ```
/// use adc_spectral::window::coherent_frequency_clear;
/// assert!(coherent_frequency_clear(110e6, 8192, 10e6, 8).is_some());
/// assert_eq!(coherent_frequency_clear(110e6, 32, 10e6, 8), None);
/// assert_eq!(coherent_frequency_clear(110e6, 16, 10e6, 8), None);
/// assert_eq!(coherent_frequency_clear(110e6, 1000, 10e6, 8), None);
/// assert_eq!(coherent_frequency_clear(0.0, 8192, 10e6, 8), None);
/// ```
pub fn coherent_frequency_clear(
    fs_hz: f64,
    n: usize,
    f_target_hz: f64,
    min_alias_bin: usize,
) -> Option<(f64, usize)> {
    if !(n.is_power_of_two() && fs_hz > 0.0) || min_alias_bin >= n / 2 {
        return None;
    }
    let (_, m0) = coherent_cycles(fs_hz, n, f_target_hz);
    let ok = |m: usize| {
        let b = alias_bin(m, n);
        b >= min_alias_bin && b <= n / 2 - min_alias_bin
    };
    // Stepping ±2 from an odd m0 visits every odd residue mod n, so a
    // miss over k < n means no odd bin clears the regions at all.
    for k in 0..n {
        let up = m0 + 2 * k;
        if ok(up) {
            return Some((up as f64 * fs_hz / n as f64, up));
        }
        if m0 > 2 * k {
            let down = m0 - 2 * k;
            if down >= 1 && ok(down) {
                return Some((down as f64 * fs_hz / n as f64, down));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectangular_is_all_ones() {
        assert!(Window::Rectangular
            .coefficients(32)
            .iter()
            .all(|&w| w == 1.0));
    }

    #[test]
    fn hann_endpoints_are_zero() {
        let c = Window::Hann.coefficients(64);
        assert!(c[0].abs() < 1e-12);
        assert!((c[32] - 1.0).abs() < 1e-12); // peak at centre
    }

    #[test]
    fn apply_preserves_length() {
        let sig = vec![1.0; 128];
        for w in [Window::Rectangular, Window::BlackmanHarris4] {
            assert_eq!(w.apply(&sig).len(), 128);
        }
    }

    #[test]
    fn coherent_frequency_returns_odd_bin() {
        for &target in &[1e6, 10e6, 40e6, 54.9e6] {
            let (f, m) = coherent_frequency(110e6, 8192, target);
            assert_eq!(m % 2, 1, "m={m} not odd for target {target}");
            assert!((f - m as f64 * 110e6 / 8192.0).abs() < 1e-6);
            // Within one bin of the target.
            assert!((f - target).abs() <= 2.0 * 110e6 / 8192.0);
        }
    }

    #[test]
    fn coherent_frequency_supports_undersampling() {
        // 150 MHz at 110 MS/s: m ≈ 150/110·8192 ≈ 11171, odd, alias at
        // a bin below Nyquist.
        let (f, m) = coherent_frequency(110e6, 8192, 150e6);
        assert_eq!(m % 2, 1);
        assert!((f - 150e6).abs() < 2.0 * 110e6 / 8192.0);
        let bin = alias_bin(m, 8192);
        assert!(bin > 0 && bin < 4096, "alias bin {bin}");
    }

    #[test]
    fn alias_bin_folds_correctly() {
        assert_eq!(alias_bin(100, 1024), 100);
        assert_eq!(alias_bin(924, 1024), 100);
        assert_eq!(alias_bin(1124, 1024), 100);
    }

    #[test]
    #[should_panic(expected = "2^k")]
    fn coherent_frequency_rejects_non_power_of_two() {
        let _ = coherent_frequency(100e6, 1000, 10e6);
    }
}

#[cfg(test)]
mod clear_tests {
    use super::*;

    #[test]
    fn clear_frequency_avoids_dc_alias() {
        // 10 MHz at 5 MS/s: plain coherent choice aliases to bin 1; the
        // clear variant moves it out of the exclusion region.
        let n = 8192;
        let (_, m) = coherent_frequency_clear(5e6, n, 10e6, 8).unwrap();
        let b = alias_bin(m, n);
        assert!(b >= 8 && b <= n / 2 - 8, "bin {b}");
        assert_eq!(m % 2, 1);
    }

    #[test]
    fn clear_frequency_is_noop_when_already_clear() {
        let n = 8192;
        let (f0, m0) = coherent_frequency(110e6, n, 10e6);
        let (f1, m1) = coherent_frequency_clear(110e6, n, 10e6, 8).unwrap();
        assert_eq!(m0, m1);
        assert_eq!(f0, f1);
    }

    #[test]
    fn clear_frequency_avoids_nyquist_alias() {
        // 10 MHz at 20 MS/s: alias sits exactly at Nyquist without the
        // nudge.
        let n = 8192;
        let (_, m) = coherent_frequency_clear(20e6, n, 10e6, 8).unwrap();
        let b = alias_bin(m, n);
        assert!(b <= n / 2 - 8, "bin {b}");
    }

    #[test]
    fn short_records_without_a_clear_odd_bin_are_none() {
        // n = 32 leaves only bin 8 (even) in [8, 8]; n = 16 leaves no
        // range at all. n = 64 has odd bins in [8, 24].
        for fs in [20e6, 110e6, 220e6] {
            assert_eq!(coherent_frequency_clear(fs, 16, 10e6, 8), None);
            assert_eq!(coherent_frequency_clear(fs, 32, 10e6, 8), None);
            let (_, m) = coherent_frequency_clear(fs, 64, 10e6, 8).unwrap();
            let b = alias_bin(m, 64);
            assert!((8..=24).contains(&b) && b % 2 == 1, "bin {b}");
        }
    }
}

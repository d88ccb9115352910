//! Single-tone dynamic metrics: SNR, SNDR, SFDR, THD, ENOB.
//!
//! This is the software half of the paper's measurement bench: the authors
//! drove the ADC with a filtered RF sine and post-processed the captured
//! codes into SNR/SNDR/SFDR (their Figs. 5 and 6, Table I). The analysis
//! here follows IEEE Std 1241 practice:
//!
//! * the record is windowed (rectangular for coherent records);
//! * the fundamental is the spectral peak (or a caller-supplied bin);
//! * tone power sums the main lobe; harmonics fold across Nyquist;
//! * SNR excludes harmonic bins from the noise, SNDR includes everything
//!   except DC and the fundamental, SFDR is fundamental-to-worst-spur;
//! * ENOB = (SNDR − 1.76)/6.02.
//!
//! Because both the tone-lobe sum and the residual noise sum scale with
//! `Σw²`, the ratios are window-unbiased without explicit ENBW correction.

use crate::fft::{power_spectrum_one_sided_into, FftError};
use crate::plan::SpectralScratch;
use crate::window::Window;

/// Bin-ownership tags used while classifying the spectrum. Stored as
/// `u8` so the map lives in a reusable [`SpectralScratch`] buffer.
const OWNER_FREE: u8 = 0;
const OWNER_DC: u8 = 1;
const OWNER_FUNDAMENTAL: u8 = 2;
const OWNER_HARMONIC: u8 = 3;

/// Configuration for [`analyze_tone`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ToneAnalysisConfig {
    /// Window applied before the FFT.
    pub window: Window,
    /// Number of harmonics (2nd..=this order) classified as distortion.
    pub harmonic_count: usize,
    /// Full-scale amplitude for dBFS reporting (peak volts of a full-scale
    /// sine). When `None`, `signal_dbfs` is reported as 0.
    pub full_scale_peak: Option<f64>,
}

impl ToneAnalysisConfig {
    /// Coherent-capture defaults: rectangular window, 10 harmonics.
    pub fn coherent() -> Self {
        Self {
            window: Window::Rectangular,
            harmonic_count: 10,
            full_scale_peak: None,
        }
    }

    /// Sets the full-scale reference for dBFS reporting.
    pub fn with_full_scale(mut self, peak_v: f64) -> Self {
        self.full_scale_peak = Some(peak_v);
        self
    }
}

impl Default for ToneAnalysisConfig {
    fn default() -> Self {
        Self::coherent()
    }
}

/// One measured harmonic.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HarmonicReading {
    /// Harmonic order (2 = HD2, ...).
    pub order: usize,
    /// The (aliased) bin the harmonic folded to.
    pub bin: usize,
    /// Power relative to the fundamental, dBc (negative).
    pub dbc: f64,
}

/// Result of a single-tone analysis.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SingleToneAnalysis {
    /// Record length.
    pub n: usize,
    /// Bin index of the fundamental.
    pub fundamental_bin: usize,
    /// Fundamental tone power (same units as input², e.g. V²).
    pub signal_power: f64,
    /// Noise power (everything except DC, fundamental, harmonics).
    pub noise_power: f64,
    /// Total harmonic distortion power.
    pub distortion_power: f64,
    /// Signal-to-noise ratio, dB.
    pub snr_db: f64,
    /// Signal-to-noise-and-distortion ratio, dB.
    pub sndr_db: f64,
    /// Spurious-free dynamic range, dB (fundamental to worst spur).
    pub sfdr_db: f64,
    /// Total harmonic distortion, dB (negative; distortion / signal).
    pub thd_db: f64,
    /// Effective number of bits, from SNDR.
    pub enob: f64,
    /// Fundamental amplitude relative to full scale, dB (0 if no full
    /// scale was configured).
    pub signal_dbfs: f64,
    /// Bin of the worst spur.
    pub worst_spur_bin: usize,
    /// Individual harmonic readings (order 2..).
    pub harmonics: Vec<HarmonicReading>,
}

/// Folds harmonic bin `h·k` of an `n`-point record across Nyquist.
fn fold_bin(raw: usize, n: usize) -> usize {
    let m = raw % n;
    if m > n / 2 {
        n - m
    } else {
        m
    }
}

/// Analyzes a single-tone record.
///
/// The input is the reconstructed analog value of each code (or the raw
/// codes as `f64` — all metrics are ratiometric except `signal_dbfs`).
///
/// # Errors
///
/// Returns [`FftError`] if the record length is not a nonzero power of
/// two.
///
/// ```
/// use adc_spectral::metrics::{analyze_tone, ToneAnalysisConfig};
/// # fn main() -> Result<(), adc_spectral::fft::FftError> {
/// // A pure sine measures (numerically) noise-free.
/// let n = 4096;
/// let signal: Vec<f64> = (0..n)
///     .map(|i| (2.0 * std::f64::consts::PI * 479.0 * i as f64 / n as f64).sin())
///     .collect();
/// let a = analyze_tone(&signal, &ToneAnalysisConfig::coherent())?;
/// assert_eq!(a.fundamental_bin, 479);
/// assert!(a.snr_db > 250.0);
/// # Ok(())
/// # }
/// ```
pub fn analyze_tone(
    signal: &[f64],
    cfg: &ToneAnalysisConfig,
) -> Result<SingleToneAnalysis, FftError> {
    let mut scratch = SpectralScratch::new();
    analyze_tone_with(signal, cfg, &mut scratch)
}

/// [`analyze_tone`] with caller-supplied scratch buffers.
///
/// A warm `scratch` makes the whole analysis — windowing, the packed
/// real-input FFT, the power spectrum, the bin-ownership map and the
/// SFDR prefix sums — allocation-free (except the per-result
/// `harmonics` vector in the returned analysis).
///
/// # Errors
///
/// Returns [`FftError`] if the record length is not a nonzero power of
/// two.
pub fn analyze_tone_with(
    signal: &[f64],
    cfg: &ToneAnalysisConfig,
    scratch: &mut SpectralScratch,
) -> Result<SingleToneAnalysis, FftError> {
    let _trace = adc_trace::span_with("analyze_tone", signal.len() as u64);
    let n = signal.len();
    // Rectangular records (every coherent capture) skip the windowed
    // copy entirely; tapered windows reuse the scratch buffer.
    let mut windowed_buf = std::mem::take(&mut scratch.windowed);
    let windowed: &[f64] = if cfg.window == Window::Rectangular {
        signal
    } else {
        let _trace_window = adc_trace::span("window");
        cfg.window.apply_into(signal, &mut windowed_buf);
        &windowed_buf
    };
    let mut ps = std::mem::take(&mut scratch.power);
    let spectrum_result = power_spectrum_one_sided_into(windowed, scratch, &mut ps);
    scratch.windowed = windowed_buf;
    if let Err(e) = spectrum_result {
        scratch.power = ps;
        return Err(e);
    }
    let half = cfg.window.tone_half_width_bins();
    let nyquist = n / 2;

    // DC region: bin 0 plus the window's leakage skirt.
    let dc_end = half; // bins 0..=dc_end are DC territory

    // The fundamental is the strongest bin above the DC skirt.
    let mut fundamental_bin = dc_end + 1;
    for i in (dc_end + 1)..=nyquist {
        if ps[i] > ps[fundamental_bin] {
            fundamental_bin = i;
        }
    }

    // Ownership map: which bins belong to DC / fundamental / harmonics.
    let mut owner = std::mem::take(&mut scratch.owner);
    owner.clear();
    owner.resize(nyquist + 1, OWNER_FREE);
    for slot in owner.iter_mut().take(dc_end + 1) {
        *slot = OWNER_DC;
    }
    let lo = fundamental_bin.saturating_sub(half);
    let hi = (fundamental_bin + half).min(nyquist);
    for slot in owner.iter_mut().take(hi + 1).skip(lo) {
        *slot = OWNER_FUNDAMENTAL;
    }

    let mut harmonics = Vec::with_capacity(cfg.harmonic_count.saturating_sub(1));
    let mut distortion_power = 0.0;
    for order in 2..=cfg.harmonic_count.max(1) {
        let bin = fold_bin(order * fundamental_bin, n);
        let lo = bin.saturating_sub(half);
        let hi = (bin + half).min(nyquist);
        let mut p = 0.0;
        for i in lo..=hi {
            if owner[i] == OWNER_FREE {
                owner[i] = OWNER_HARMONIC;
                p += ps[i];
            }
        }
        distortion_power += p;
        harmonics.push(HarmonicReading {
            order,
            bin,
            dbc: f64::NAN, // filled once signal power is known
        });
    }

    let signal_power: f64 = (lo..=hi).map(|i| ps[i]).sum();
    let noise_power: f64 = owner
        .iter()
        .zip(ps.iter())
        .filter(|(o, _)| **o == OWNER_FREE)
        .map(|(_, p)| *p)
        .sum();

    // Fill dBc readings per harmonic.
    let mut harmonics_out = Vec::with_capacity(harmonics.len());
    for h in harmonics {
        let bin = h.bin;
        let lo = bin.saturating_sub(half);
        let hi = (bin + half).min(nyquist);
        let p: f64 = (lo..=hi)
            .filter(|&i| {
                // Count only bins credited to harmonics (avoid double
                // counting fundamental overlap).
                owner[i] == OWNER_HARMONIC
            })
            .map(|i| ps[i])
            .sum();
        harmonics_out.push(HarmonicReading {
            dbc: ratio_db(p, signal_power),
            ..h
        });
    }

    // SFDR: worst tone-width spur anywhere outside DC and fundamental.
    // Prefix sums make each candidate window O(1).
    let mut prefix = std::mem::take(&mut scratch.prefix);
    prefix.clear();
    prefix.resize(nyquist + 2, 0.0);
    for i in 0..=nyquist {
        prefix[i + 1] = prefix[i] + ps[i];
    }
    let (mut worst_power, mut worst_bin) = (0.0_f64, dc_end + 1);
    for center in (dc_end + 1)..=nyquist {
        let lo = center.saturating_sub(half);
        let hi = (center + half).min(nyquist);
        // Skip windows that touch the fundamental's main lobe.
        if (lo..=hi).any(|i| owner[i] == OWNER_FUNDAMENTAL) {
            continue;
        }
        let window_sum = prefix[hi + 1] - prefix[lo];
        if window_sum > worst_power {
            worst_power = window_sum;
            // Report the strongest bin inside the worst window, not the
            // window centre, so single-bin spurs are located exactly.
            worst_bin = (lo..=hi)
                .max_by(|&a, &b| ps[a].total_cmp(&ps[b]))
                .unwrap_or(center);
        }
    }

    let sndr_den = noise_power + distortion_power;
    let snr_db = ratio_db(signal_power, noise_power);
    let sndr_db = ratio_db(signal_power, sndr_den);
    let sfdr_db = ratio_db(signal_power, worst_power);
    let thd_db = ratio_db(distortion_power, signal_power);
    let enob = (sndr_db - 1.76) / 6.02;
    let signal_dbfs = match cfg.full_scale_peak {
        Some(fs) if fs > 0.0 => ratio_db(signal_power, fs * fs / 2.0),
        _ => 0.0,
    };

    scratch.power = ps;
    scratch.owner = owner;
    scratch.prefix = prefix;

    Ok(SingleToneAnalysis {
        n,
        fundamental_bin,
        signal_power,
        noise_power,
        distortion_power,
        snr_db,
        sndr_db,
        sfdr_db,
        thd_db,
        enob,
        signal_dbfs,
        worst_spur_bin: worst_bin,
        harmonics: harmonics_out,
    })
}

/// `10·log10(a/b)` with graceful handling of zero denominators.
fn ratio_db(a: f64, b: f64) -> f64 {
    if a <= 0.0 {
        f64::NEG_INFINITY
    } else if b <= 0.0 {
        f64::INFINITY
    } else {
        10.0 * (a / b).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn sine(n: usize, k: usize, a: f64) -> Vec<f64> {
        (0..n)
            .map(|i| a * (2.0 * PI * k as f64 * i as f64 / n as f64).sin())
            .collect()
    }

    #[test]
    fn pure_tone_has_huge_snr() {
        let a = analyze_tone(&sine(4096, 479, 1.0), &ToneAnalysisConfig::coherent()).unwrap();
        assert_eq!(a.fundamental_bin, 479);
        assert!(a.snr_db > 200.0, "snr {}", a.snr_db);
        assert!(a.sfdr_db > 200.0);
    }

    #[test]
    fn known_noise_gives_known_snr() {
        // Tone plus white noise of known power.
        let n = 8192;
        let k = 777;
        let mut sig = sine(n, k, 1.0);
        // Deterministic pseudo-noise with uniform distribution:
        let mut state = 0x12345678u64;
        let mut noise_power = 0.0;
        for s in sig.iter_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
            let nval = u * 0.02; // uniform, sigma = 0.02/sqrt(12)
            noise_power += nval * nval;
            *s += nval;
        }
        noise_power /= n as f64;
        let expected_snr = 10.0 * ((0.5) / noise_power).log10();
        let a = analyze_tone(&sig, &ToneAnalysisConfig::coherent()).unwrap();
        assert!(
            (a.snr_db - expected_snr).abs() < 0.5,
            "snr {} vs expected {expected_snr}",
            a.snr_db
        );
    }

    #[test]
    fn harmonic_is_classified_as_distortion() {
        let n = 4096;
        let k = 401;
        let mut sig = sine(n, k, 1.0);
        let h3 = sine(n, 3 * k, 0.001); // −60 dBc HD3
        for (s, h) in sig.iter_mut().zip(&h3) {
            *s += h;
        }
        let a = analyze_tone(&sig, &ToneAnalysisConfig::coherent()).unwrap();
        assert!((a.thd_db + 60.0).abs() < 0.2, "thd {}", a.thd_db);
        assert!((a.sfdr_db - 60.0).abs() < 0.2, "sfdr {}", a.sfdr_db);
        // SNR must NOT be degraded by the harmonic.
        assert!(a.snr_db > 150.0, "snr {}", a.snr_db);
        // SNDR ≈ THD-limited.
        assert!((a.sndr_db - 60.0).abs() < 0.2);
        let hd3 = a.harmonics.iter().find(|h| h.order == 3).unwrap();
        assert!((hd3.dbc + 60.0).abs() < 0.2);
    }

    #[test]
    fn harmonics_fold_across_nyquist() {
        let n = 4096;
        let k = 1601; // 3k = 4803 -> folds to 4803-4096=707
        assert_eq!(fold_bin(3 * k, n), 707);
        let mut sig = sine(n, k, 1.0);
        let h3: Vec<f64> = (0..n)
            .map(|i| 0.01 * (2.0 * PI * (3 * k) as f64 * i as f64 / n as f64).sin())
            .collect();
        for (s, h) in sig.iter_mut().zip(&h3) {
            *s += h;
        }
        let a = analyze_tone(&sig, &ToneAnalysisConfig::coherent()).unwrap();
        let hd3 = a.harmonics.iter().find(|h| h.order == 3).unwrap();
        assert_eq!(hd3.bin, 707);
        assert!((hd3.dbc + 40.0).abs() < 0.3, "hd3 {}", hd3.dbc);
    }

    #[test]
    fn non_harmonic_spur_limits_sfdr_but_not_thd() {
        let n = 4096;
        let k = 401;
        let spur_bin = 650; // not a harmonic of 401
        let mut sig = sine(n, k, 1.0);
        let spur = sine(n, spur_bin, 0.003); // −50.5 dBc
        for (s, h) in sig.iter_mut().zip(&spur) {
            *s += h;
        }
        let a = analyze_tone(&sig, &ToneAnalysisConfig::coherent()).unwrap();
        assert!((a.sfdr_db - 50.46).abs() < 0.3, "sfdr {}", a.sfdr_db);
        assert_eq!(a.worst_spur_bin, spur_bin);
        // The spur is "noise" for SNR purposes (IEEE 1241), so SNR drops...
        assert!((a.snr_db - 50.46).abs() < 0.5);
        // ...but THD stays clean.
        assert!(a.thd_db < -150.0);
    }

    #[test]
    fn enob_matches_sndr() {
        let n = 4096;
        let mut sig = sine(n, 401, 1.0);
        let mut state = 7u64;
        for s in sig.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let u = ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
            *s += u * 1e-3;
        }
        let a = analyze_tone(&sig, &ToneAnalysisConfig::coherent()).unwrap();
        assert!((a.enob - (a.sndr_db - 1.76) / 6.02).abs() < 1e-12);
    }

    #[test]
    fn dbfs_reporting() {
        let n = 4096;
        let sig = sine(n, 401, 0.5); // −6 dBFS for FS peak = 1.0
        let cfg = ToneAnalysisConfig::coherent().with_full_scale(1.0);
        let a = analyze_tone(&sig, &cfg).unwrap();
        assert!(
            (a.signal_dbfs + 6.02).abs() < 0.05,
            "dbfs {}",
            a.signal_dbfs
        );
    }

    #[test]
    fn windowed_noncoherent_tone_still_measures() {
        // A non-coherent tone through Blackman-Harris: SNR limited only by
        // leakage, which BH4 pushes below -90 dB.
        let n = 4096;
        let f = 400.31; // non-integer bin
        let sig: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * f * i as f64 / n as f64).sin())
            .collect();
        let cfg = ToneAnalysisConfig {
            window: Window::BlackmanHarris4,
            ..ToneAnalysisConfig::coherent()
        };
        let a = analyze_tone(&sig, &cfg).unwrap();
        assert_eq!(a.fundamental_bin, 400);
        assert!(a.sndr_db > 65.0, "sndr {}", a.sndr_db);
    }

    #[test]
    fn rejects_bad_length() {
        assert!(analyze_tone(&[0.0; 100], &ToneAnalysisConfig::coherent()).is_err());
    }
}

//! Iterative in-place radix-2 FFT.
//!
//! Written from scratch (no DSP crates in the offline dependency set).
//! Decimation-in-time with a bit-reversal permutation followed by
//! `log2(n)` butterfly passes. All transforms execute through the
//! precomputed plans of [`crate::plan`](mod@crate::plan) (direct-evaluated twiddle
//! tables, cached per length), which keeps the accuracy comfortably
//! below the −120 dBc floor needed to measure a 12-bit converter.
//! Real-input transforms pack `n` reals into an `n/2` complex transform
//! and untangle, roughly halving the work per record; the `_into`
//! variants reuse caller buffers so the analysis hot path does not
//! allocate per capture.

use crate::complex::Complex64;
use crate::plan::{plan, SpectralScratch};

/// Errors returned by FFT planning/execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FftError {
    /// The transform length is not a power of two (or is zero).
    NonPowerOfTwoLength(usize),
    /// Data of one length was handed to a plan built for another.
    PlanLengthMismatch {
        /// Length the plan was built for.
        plan: usize,
        /// Length of the data actually supplied.
        data: usize,
    },
}

impl std::fmt::Display for FftError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FftError::NonPowerOfTwoLength(n) => {
                write!(f, "fft length {n} is not a nonzero power of two")
            }
            FftError::PlanLengthMismatch { plan, data } => {
                write!(f, "fft plan for length {plan} given {data} samples")
            }
        }
    }
}

impl std::error::Error for FftError {}

/// Checks that `n` is a usable FFT length.
pub(crate) fn check_len(n: usize) -> Result<(), FftError> {
    if n == 0 || !n.is_power_of_two() {
        Err(FftError::NonPowerOfTwoLength(n))
    } else {
        Ok(())
    }
}

/// Forward FFT, in place.
///
/// # Errors
///
/// Returns [`FftError::NonPowerOfTwoLength`] if the slice length is not a
/// nonzero power of two.
///
/// ```
/// use adc_spectral::complex::Complex64;
/// use adc_spectral::fft::fft_in_place;
///
/// # fn main() -> Result<(), adc_spectral::fft::FftError> {
/// let mut x = vec![Complex64::ONE; 8];
/// fft_in_place(&mut x)?;
/// // A DC vector transforms to an impulse at bin 0 of height n.
/// assert!((x[0].re - 8.0).abs() < 1e-12);
/// assert!(x[1].norm() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn fft_in_place(data: &mut [Complex64]) -> Result<(), FftError> {
    let _trace = adc_trace::span_with("fft", data.len() as u64);
    plan(data.len())?.forward(data)
}

/// Inverse FFT, in place, normalised by `1/n`.
///
/// # Errors
///
/// Returns [`FftError::NonPowerOfTwoLength`] if the slice length is not a
/// nonzero power of two.
pub fn ifft_in_place(data: &mut [Complex64]) -> Result<(), FftError> {
    plan(data.len())?.inverse(data)
}

/// Runs the packed real-input transform and hands each untangled bin
/// `X[k]`, `k in 0..=n/2`, to `emit`. `scratch.packed` holds the
/// half-length transform on return.
fn real_untangle<F: FnMut(usize, Complex64)>(
    signal: &[f64],
    scratch: &mut SpectralScratch,
    mut emit: F,
) -> Result<(), FftError> {
    let n = signal.len();
    check_len(n)?;
    if n == 1 {
        emit(0, Complex64::from(signal[0]));
        return Ok(());
    }
    let full = plan(n)?;
    let m = n / 2;
    let packed = &mut scratch.packed;
    packed.clear();
    packed.extend((0..m).map(|i| Complex64::new(signal[2 * i], signal[2 * i + 1])));
    plan(m)?.forward(packed)?;
    // Untangle: with Z the half-length transform of the packed signal
    // (Z[m] ≡ Z[0] by periodicity),
    //   E[k] = (Z[k] + conj(Z[m−k])) / 2        (FFT of even samples)
    //   O[k] = (Z[k] − conj(Z[m−k])) / (2i)     (FFT of odd samples)
    //   X[k] = E[k] + W_n^k · O[k].
    for k in 0..=m {
        let zk = if k == m { packed[0] } else { packed[k] };
        let zmk = if k == 0 { packed[0] } else { packed[m - k] };
        let even = (zk + zmk.conj()).scale(0.5);
        let odd = (zk - zmk.conj()) * Complex64::new(0.0, -0.5);
        emit(k, even + full.twiddle(k) * odd);
    }
    Ok(())
}

/// FFT of a real signal into `out` (cleared and resized to the full
/// `n`-point complex spectrum), reusing `scratch` across calls.
///
/// The upper half of the spectrum is the conjugate mirror of the lower
/// half, reconstructed without a second transform.
///
/// # Errors
///
/// Returns [`FftError::NonPowerOfTwoLength`] if the input length is not a
/// nonzero power of two.
pub fn fft_real_into(
    signal: &[f64],
    scratch: &mut SpectralScratch,
    out: &mut Vec<Complex64>,
) -> Result<(), FftError> {
    let n = signal.len();
    check_len(n)?;
    let _trace = adc_trace::span_with("fft", n as u64);
    out.clear();
    out.resize(n, Complex64::ZERO);
    let half = n / 2;
    real_untangle(signal, scratch, |k, x| {
        out[k] = x;
        if k != 0 && k != half {
            out[n - k] = x.conj();
        }
    })
}

/// FFT of a real signal, returning the full complex spectrum.
///
/// Allocation-free alternative: [`fft_real_into`].
///
/// # Errors
///
/// Returns [`FftError::NonPowerOfTwoLength`] if the input length is not a
/// nonzero power of two.
pub fn fft_real(signal: &[f64]) -> Result<Vec<Complex64>, FftError> {
    let mut scratch = SpectralScratch::new();
    let mut out = Vec::new();
    fft_real_into(signal, &mut scratch, &mut out)?;
    Ok(out)
}

/// One-sided power spectrum into `out` (cleared and refilled), reusing
/// `scratch` across calls; see [`power_spectrum_one_sided`] for the
/// normalisation contract.
///
/// Computes the `n/2 + 1` one-sided bins directly from the packed
/// half-length transform — the full complex spectrum is never
/// materialised.
///
/// # Errors
///
/// Returns [`FftError::NonPowerOfTwoLength`] if the input length is not a
/// nonzero power of two.
pub fn power_spectrum_one_sided_into(
    signal: &[f64],
    scratch: &mut SpectralScratch,
    out: &mut Vec<f64>,
) -> Result<(), FftError> {
    let n = signal.len();
    check_len(n)?;
    let _trace = adc_trace::span_with("fft", n as u64);
    out.clear();
    out.reserve(n / 2 + 1);
    let norm = 1.0 / (n as f64 * n as f64);
    let half = n / 2;
    real_untangle(signal, scratch, |k, x| {
        // DC and Nyquist appear once; interior bins fold with their mirror.
        let fold = if k == 0 || k == half { 1.0 } else { 2.0 };
        out.push(fold * x.norm_sqr() * norm);
    })?;
    if n == 1 {
        // Degenerate length: DC and "Nyquist" are the same single bin,
        // reported twice for continuity with the n ≥ 2 layout.
        let dc = out[0];
        out.push(dc);
    }
    Ok(())
}

/// One-sided power spectrum of a real signal, normalised so a full-scale
/// sine of amplitude `A` lands `A²/2` in its bin (coherent sampling,
/// rectangular window).
///
/// Returns `n/2 + 1` bins (DC through Nyquist). Allocation-free
/// alternative: [`power_spectrum_one_sided_into`].
///
/// # Errors
///
/// Returns [`FftError::NonPowerOfTwoLength`] if the input length is not a
/// nonzero power of two.
pub fn power_spectrum_one_sided(signal: &[f64]) -> Result<Vec<f64>, FftError> {
    let mut scratch = SpectralScratch::new();
    let mut out = Vec::new();
    power_spectrum_one_sided_into(signal, &mut scratch, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn rejects_non_power_of_two() {
        let mut x = vec![Complex64::ZERO; 12];
        assert_eq!(fft_in_place(&mut x), Err(FftError::NonPowerOfTwoLength(12)));
        assert!(fft_real(&[0.0; 3]).is_err());
        assert!(power_spectrum_one_sided(&[0.0; 0]).is_err());
    }

    #[test]
    fn impulse_transforms_to_flat() {
        let mut x = vec![Complex64::ZERO; 16];
        x[0] = Complex64::ONE;
        fft_in_place(&mut x).unwrap();
        for z in &x {
            assert!((z.re - 1.0).abs() < 1e-12 && z.im.abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_its_bin() {
        let n = 1024;
        let k = 37; // coherent: integer cycles
        let signal: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * k as f64 * i as f64 / n as f64).sin())
            .collect();
        let spec = fft_real(&signal).unwrap();
        // Bin k holds n/2 magnitude; all others are numerically zero.
        assert!((spec[k].norm() - n as f64 / 2.0).abs() < 1e-6);
        for (i, z) in spec.iter().enumerate() {
            if i != k && i != n - k {
                assert!(z.norm() < 1e-6, "leak at bin {i}: {}", z.norm());
            }
        }
    }

    #[test]
    fn round_trip_fft_ifft() {
        let n = 256;
        let orig: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let mut data = orig.clone();
        fft_in_place(&mut data).unwrap();
        ifft_in_place(&mut data).unwrap();
        for (a, b) in orig.iter().zip(&data) {
            assert!((a.re - b.re).abs() < 1e-10);
            assert!((a.im - b.im).abs() < 1e-10);
        }
    }

    #[test]
    fn parseval_holds() {
        let n = 512;
        let signal: Vec<f64> = (0..n).map(|i| ((i * i) as f64 * 0.013).sin()).collect();
        let time_energy: f64 = signal.iter().map(|x| x * x).sum();
        let spec = fft_real(&signal).unwrap();
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-12);
    }

    #[test]
    fn power_spectrum_full_scale_sine_is_half() {
        let n = 4096;
        let k = 401;
        let a = 0.75;
        let signal: Vec<f64> = (0..n)
            .map(|i| a * (2.0 * PI * k as f64 * i as f64 / n as f64).sin())
            .collect();
        let ps = power_spectrum_one_sided(&signal).unwrap();
        assert!((ps[k] - a * a / 2.0).abs() < 1e-9);
        let rest: f64 = ps
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != k)
            .map(|(_, p)| p)
            .sum();
        assert!(rest < 1e-12);
    }

    #[test]
    fn power_spectrum_total_matches_signal_power() {
        let n = 1024;
        let signal: Vec<f64> = (0..n)
            .map(|i| (i as f64 * 0.917).sin() * 0.3 + 0.1)
            .collect();
        let ps = power_spectrum_one_sided(&signal).unwrap();
        let total: f64 = ps.iter().sum();
        let mean_sq: f64 = signal.iter().map(|x| x * x).sum::<f64>() / n as f64;
        assert!((total - mean_sq).abs() / mean_sq < 1e-10);
    }

    #[test]
    fn linearity_of_transform() {
        let n = 64;
        let a: Vec<Complex64> = (0..n).map(|i| Complex64::new(i as f64, 0.5)).collect();
        let b: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64).cos(), -1.0))
            .collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fab: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        fft_in_place(&mut fa).unwrap();
        fft_in_place(&mut fb).unwrap();
        fft_in_place(&mut fab).unwrap();
        for i in 0..n {
            let sum = fa[i] + fb[i];
            assert!((sum.re - fab[i].re).abs() < 1e-9);
            assert!((sum.im - fab[i].im).abs() < 1e-9);
        }
    }
}

//! Goertzel single-bin DFT.
//!
//! The Goertzel recursion computes one DFT bin in O(n) multiply-adds
//! with O(1) state and no FFT buffer, for any record length. It is an
//! independent computation of the same number, so the test suites use
//! it to cross-check [`crate::fft`] bin by bin; results are identical
//! (to rounding) to the corresponding FFT bin.

use crate::complex::Complex64;

/// Computes DFT bin `k` of `signal` by the Goertzel recursion.
///
/// Matches `fft_real(signal)[k]` for any length (power-of-two not
/// required).
///
/// # Panics
///
/// Panics for an empty signal or `k >= signal.len()`.
pub fn goertzel_bin(signal: &[f64], k: usize) -> Complex64 {
    let n = signal.len();
    assert!(n > 0, "empty signal");
    assert!(k < n, "bin {k} out of range for length {n}");
    let w = 2.0 * std::f64::consts::PI * k as f64 / n as f64;
    let coeff = 2.0 * w.cos();
    let (mut s1, mut s2) = (0.0_f64, 0.0_f64);
    for &x in signal {
        let s0 = x + coeff * s1 - s2;
        s2 = s1;
        s1 = s0;
    }
    // Final correction to the e^{-j2πkn/N} DFT convention (matching
    // [`crate::fft::fft_real`]), verified bin-by-bin against the FFT in
    // the tests.
    let real = s1 * w.cos() - s2;
    let imag = s1 * w.sin();
    Complex64::new(real, imag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::fft_real;
    use std::f64::consts::PI;

    fn tone(n: usize, k: usize, a: f64, phase: f64) -> Vec<f64> {
        (0..n)
            .map(|i| a * (2.0 * PI * k as f64 * i as f64 / n as f64 + phase).sin())
            .collect()
    }

    #[test]
    fn matches_fft_bins() {
        let n = 1024;
        let sig: Vec<f64> = (0..n)
            .map(|i| (i as f64 * 0.1).sin() + 0.3 * (i as f64 * 0.57).cos())
            .collect();
        let spec = fft_real(&sig).unwrap();
        for &k in &[0usize, 1, 17, 100, 511, 512] {
            let g = goertzel_bin(&sig, k);
            assert!(
                (g.re - spec[k].re).abs() < 1e-8 && (g.im - spec[k].im).abs() < 1e-8,
                "bin {k}: {g:?} vs {:?}",
                spec[k]
            );
        }
    }

    #[test]
    fn works_for_non_power_of_two_lengths() {
        let n = 1000; // FFT would reject this
        let sig = tone(n, 37, 0.8, 0.3);
        // One-sided power of a sine of amplitude A: 2·|X_k|²/n² = A²/2.
        let p = 2.0 * goertzel_bin(&sig, 37).norm_sqr() / (n * n) as f64;
        assert!((p - 0.8 * 0.8 / 2.0).abs() < 1e-9, "p {p}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_bin() {
        let _ = goertzel_bin(&[1.0, 2.0], 5);
    }
}

//! Least-squares sine fitting (the IEEE Std 1057 three-parameter fit).
//!
//! The FFT path in [`crate::metrics`] needs coherent sampling; the sine-fit
//! path works on any record. Fitting `A·cos(ωt) + B·sin(ωt) + C` and
//! examining the residual gives an independent SINAD estimate, which the
//! test suites use to cross-check the FFT metrics.

/// Result of a sine fit.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SineFit {
    /// Fitted amplitude (peak).
    pub amplitude: f64,
    /// Fitted phase, radians.
    pub phase_rad: f64,
    /// Fitted DC offset.
    pub offset: f64,
    /// RMS of the fit residual.
    pub residual_rms: f64,
    /// Signal-to-noise-and-distortion implied by the residual, dB.
    pub sinad_db: f64,
}

/// Errors from sine fitting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SineFitError {
    /// Too few samples to fit the requested model.
    TooFewSamples(usize),
    /// The normal equations were singular (e.g. frequency 0 or Nyquist).
    Singular,
}

impl std::fmt::Display for SineFitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SineFitError::TooFewSamples(n) => {
                write!(f, "need more samples than parameters, got {n}")
            }
            SineFitError::Singular => write!(f, "sine-fit normal equations are singular"),
        }
    }
}

impl std::error::Error for SineFitError {}

/// Solves a symmetric 3×3 linear system via Cramer's rule.
fn solve3(m: [[f64; 3]; 3], b: [f64; 3]) -> Option<[f64; 3]> {
    let det = |m: &[[f64; 3]; 3]| -> f64 {
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    };
    let d = det(&m);
    if d.abs() < 1e-300 {
        return None;
    }
    let mut out = [0.0; 3];
    for (col, slot) in out.iter_mut().enumerate() {
        let mut mc = m;
        for row in 0..3 {
            mc[row][col] = b[row];
        }
        *slot = det(&mc) / d;
    }
    Some(out)
}

/// Three-parameter fit at a known frequency (cycles per sample).
///
/// # Errors
///
/// Returns an error if fewer than 4 samples are supplied or the system is
/// singular.
pub fn fit_known_frequency(
    samples: &[f64],
    freq_cycles_per_sample: f64,
) -> Result<SineFit, SineFitError> {
    let n = samples.len();
    if n < 4 {
        return Err(SineFitError::TooFewSamples(n));
    }
    let w = 2.0 * std::f64::consts::PI * freq_cycles_per_sample;
    // Normal equations for [A (cos), B (sin), C].
    let (mut scc, mut sss, mut ssc, mut sc, mut ss) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut syc, mut sys, mut sy) = (0.0, 0.0, 0.0);
    for (i, &y) in samples.iter().enumerate() {
        let (s, c) = (w * i as f64).sin_cos();
        scc += c * c;
        sss += s * s;
        ssc += s * c;
        sc += c;
        ss += s;
        syc += y * c;
        sys += y * s;
        sy += y;
    }
    let m = [[scc, ssc, sc], [ssc, sss, ss], [sc, ss, n as f64]];
    let [a, b, c] = solve3(m, [syc, sys, sy]).ok_or(SineFitError::Singular)?;

    let mut resid2 = 0.0;
    for (i, &y) in samples.iter().enumerate() {
        let (s, co) = (w * i as f64).sin_cos();
        let e = y - (a * co + b * s + c);
        resid2 += e * e;
    }
    let residual_rms = (resid2 / n as f64).sqrt();
    let amplitude = (a * a + b * b).sqrt();
    let sinad_db = if residual_rms > 0.0 {
        20.0 * (amplitude / std::f64::consts::SQRT_2 / residual_rms).log10()
    } else {
        f64::INFINITY
    };
    Ok(SineFit {
        amplitude,
        phase_rad: a.atan2(b),
        offset: c,
        residual_rms,
        sinad_db,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn make(n: usize, f: f64, a: f64, phase: f64, dc: f64) -> Vec<f64> {
        (0..n)
            .map(|i| a * (2.0 * PI * f * i as f64 + phase).sin() + dc)
            .collect()
    }

    #[test]
    fn recovers_exact_parameters() {
        let s = make(4096, 0.0517, 0.8, 0.3, 0.05);
        let fit = fit_known_frequency(&s, 0.0517).unwrap();
        assert!((fit.amplitude - 0.8).abs() < 1e-9, "a {}", fit.amplitude);
        assert!((fit.offset - 0.05).abs() < 1e-9);
        assert!(fit.residual_rms < 1e-9);
        assert!(fit.sinad_db > 150.0);
    }

    #[test]
    fn residual_reflects_added_noise() {
        let mut s = make(8192, 0.0317, 1.0, 0.0, 0.0);
        let mut state = 3u64;
        let mut npow = 0.0;
        for y in s.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let u = ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
            let nv = u * 0.01;
            npow += nv * nv;
            *y += nv;
        }
        let sigma = (npow / 8192.0).sqrt();
        let fit = fit_known_frequency(&s, 0.0317).unwrap();
        assert!((fit.residual_rms - sigma).abs() / sigma < 0.05);
        let expected_sinad = 20.0 * ((1.0 / 2f64.sqrt()) / sigma).log10();
        assert!((fit.sinad_db - expected_sinad).abs() < 0.5);
    }

    #[test]
    fn too_few_samples_is_an_error() {
        assert_eq!(
            fit_known_frequency(&[1.0, 2.0], 0.1),
            Err(SineFitError::TooFewSamples(2))
        );
    }

    #[test]
    fn zero_frequency_is_singular() {
        let s = make(64, 0.05, 1.0, 0.0, 0.0);
        assert_eq!(fit_known_frequency(&s, 0.0), Err(SineFitError::Singular));
    }
}

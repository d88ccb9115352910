//! Static linearity extraction: code-density (histogram) INL/DNL.
//!
//! Table I of the paper quotes DNL = ±1.2 LSB and INL = −1.5/+1 LSB.
//! Those numbers come from the standard sine-wave histogram test: drive the
//! converter with a spectrally pure sine that slightly overdrives both
//! rails, histogram the output codes, and invert the arcsine amplitude
//! distribution to recover the actual code transition levels.
//!
//! Given the cumulative histogram fraction `F(c)` of codes at or below `c`,
//! the transition level between `c` and `c+1` sits at
//! `T(c) = −cos(π·F(c))` in units of the sine amplitude. DNL and INL then
//! follow from the recovered transition levels, with the average LSB taken
//! over the interior codes so rail clipping does not bias the scale.

/// Result of a linearity test.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LinearityResult {
    /// DNL per code transition, LSB. Length = `code_count − 2` (interior
    /// transitions only; index 0 is the DNL of code 1).
    pub dnl_lsb: Vec<f64>,
    /// INL per code, LSB, endpoint-corrected. Same length as `dnl_lsb`.
    pub inl_lsb: Vec<f64>,
    /// Most positive DNL, LSB.
    pub dnl_max: f64,
    /// Most negative DNL, LSB.
    pub dnl_min: f64,
    /// Most positive INL, LSB.
    pub inl_max: f64,
    /// Most negative INL, LSB.
    pub inl_min: f64,
    /// Codes that never occurred in the record (excluding the rails).
    pub missing_codes: Vec<u32>,
}

/// Errors from the histogram test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinearityError {
    /// Fewer than 2 codes in the transfer curve.
    TooFewCodes(u32),
    /// The record was empty.
    EmptyRecord,
    /// The sine did not reach both rails (the histogram test requires
    /// slight overdrive so the end bins are populated).
    InsufficientOverdrive,
}

impl std::fmt::Display for LinearityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinearityError::TooFewCodes(n) => write!(f, "need at least 2 codes, got {n}"),
            LinearityError::EmptyRecord => write!(f, "empty code record"),
            LinearityError::InsufficientOverdrive => {
                write!(f, "sine histogram requires both rail codes to be populated")
            }
        }
    }
}

impl std::error::Error for LinearityError {}

/// Runs the sine-wave histogram test over a code record.
///
/// * `codes` — captured output codes;
/// * `code_count` — number of codes in the transfer curve (4096 for 12
///   bits).
///
/// # Errors
///
/// Returns an error if the record is empty, the converter has fewer than
/// two codes, or the record never reaches the rail codes (no overdrive).
///
/// ```
/// use adc_spectral::linearity::sine_histogram;
/// # fn main() -> Result<(), adc_spectral::linearity::LinearityError> {
/// // An ideal 4-bit quantizer measured with an overdriven sine:
/// let n = 1 << 18;
/// let codes: Vec<u32> = (0..n)
///     .map(|i| {
///         let v = 1.02 * (2.0 * std::f64::consts::PI * 1013.0 * i as f64 / n as f64).sin();
///         (((v + 1.0) / 2.0 * 16.0).floor() as i64).clamp(0, 15) as u32
///     })
///     .collect();
/// let lin = sine_histogram(&codes, 16)?;
/// assert!(lin.dnl_max.abs() < 0.05);
/// assert!(lin.inl_max.abs() < 0.05);
/// # Ok(())
/// # }
/// ```
pub fn sine_histogram(codes: &[u32], code_count: u32) -> Result<LinearityResult, LinearityError> {
    // The arcsine CDF inverted: a sine spends fraction F of its time
    // below level −cos(π·F).
    code_density(codes, code_count, |f| -(std::f64::consts::PI * f).cos())
}

/// Runs the *ramp* (uniform-PDF) histogram test over a code record.
///
/// With a slow linear ramp that slightly overdrives both rails, every
/// code should be hit in proportion to its width, so the transition
/// levels are simply the cumulative histogram — no arcsine inversion.
/// Used to cross-check the sine test (their DNL estimates must agree)
/// and preferred when a precision ramp generator is available.
///
/// # Errors
///
/// Same conditions as [`sine_histogram`].
pub fn ramp_histogram(codes: &[u32], code_count: u32) -> Result<LinearityResult, LinearityError> {
    // Uniform PDF: transition level ∝ cumulative count.
    code_density(codes, code_count, |f| f)
}

/// The code-density test shared by [`sine_histogram`] and
/// [`ramp_histogram`]: `level` maps the cumulative fraction of samples
/// below a transition to that transition's level under the stimulus
/// PDF.
fn code_density(
    codes: &[u32],
    code_count: u32,
    level: fn(f64) -> f64,
) -> Result<LinearityResult, LinearityError> {
    if code_count < 2 {
        return Err(LinearityError::TooFewCodes(code_count));
    }
    if codes.is_empty() {
        return Err(LinearityError::EmptyRecord);
    }
    let nc = code_count as usize;
    let mut hist = vec![0u64; nc];
    for &c in codes {
        hist[(c as usize).min(nc - 1)] += 1;
    }
    if hist[0] == 0 || hist[nc - 1] == 0 {
        return Err(LinearityError::InsufficientOverdrive);
    }

    let total = codes.len() as f64;
    // transition[c] = level between code c and c+1, c in 0..nc-1.
    let mut cum = 0u64;
    let mut transitions = Vec::with_capacity(nc - 1);
    for &h in hist.iter().take(nc - 1) {
        cum += h;
        transitions.push(level(cum as f64 / total));
    }

    // Average LSB over interior transitions.
    let span = transitions[nc - 2] - transitions[0];
    let lsb = span / (nc - 2) as f64;
    if lsb.is_nan() || lsb <= 0.0 {
        return Err(LinearityError::InsufficientOverdrive);
    }

    // DNL of code c (width of code c, c in 1..nc-1).
    let mut dnl = Vec::with_capacity(nc - 2);
    for c in 1..nc - 1 {
        dnl.push((transitions[c] - transitions[c - 1]) / lsb - 1.0);
    }
    // INL at each interior transition, endpoint-fit (the endpoint line is
    // implicit in the average-LSB normalisation).
    let mut inl = Vec::with_capacity(nc - 2);
    let mut acc = 0.0;
    for &d in &dnl {
        acc += d;
        inl.push(acc);
    }

    let missing_codes = hist[1..nc - 1]
        .iter()
        .enumerate()
        .filter(|(_, &h)| h == 0)
        .map(|(i, _)| (i + 1) as u32)
        .collect();

    let fold = |v: &Vec<f64>, f: fn(f64, f64) -> f64, init: f64| -> f64 {
        v.iter().copied().fold(init, f)
    };
    Ok(LinearityResult {
        dnl_max: fold(&dnl, f64::max, f64::NEG_INFINITY),
        dnl_min: fold(&dnl, f64::min, f64::INFINITY),
        inl_max: fold(&inl, f64::max, f64::NEG_INFINITY),
        inl_min: fold(&inl, f64::min, f64::INFINITY),
        dnl_lsb: dnl,
        inl_lsb: inl,
        missing_codes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    /// Quantizes an overdriven sine through a transfer curve given by
    /// explicit transition levels (in [-1, 1] amplitude units).
    fn run_through(transitions: &[f64], samples: usize, overdrive: f64) -> Vec<u32> {
        (0..samples)
            .map(|i| {
                // Dense, incommensurate phase sweep covers the PDF.
                let v = overdrive * (2.0 * PI * 0.317_233_091 * i as f64).sin();
                let mut code = 0u32;
                for &t in transitions {
                    if v > t {
                        code += 1;
                    }
                }
                code
            })
            .collect()
    }

    fn ideal_transitions(nc: usize) -> Vec<f64> {
        // nc-1 transitions spread uniformly in (-1, 1).
        (1..nc).map(|c| -1.0 + 2.0 * c as f64 / nc as f64).collect()
    }

    #[test]
    fn ideal_converter_measures_flat() {
        let nc = 64;
        let codes = run_through(&ideal_transitions(nc), 400_000, 1.05);
        let lin = sine_histogram(&codes, nc as u32).unwrap();
        assert!(lin.dnl_max.abs() < 0.05, "dnl_max {}", lin.dnl_max);
        assert!(lin.dnl_min.abs() < 0.05, "dnl_min {}", lin.dnl_min);
        assert!(lin.inl_max.abs() < 0.08, "inl_max {}", lin.inl_max);
        assert!(lin.missing_codes.is_empty());
    }

    #[test]
    fn widened_code_shows_positive_dnl() {
        let nc = 64;
        let mut t = ideal_transitions(nc);
        // Widen code 20 by moving its upper transition up half an LSB.
        let lsb = 2.0 / nc as f64;
        t[20] += 0.5 * lsb;
        let codes = run_through(&t, 400_000, 1.05);
        let lin = sine_histogram(&codes, nc as u32).unwrap();
        // DNL vector index: code c at index c-1.
        assert!(
            (lin.dnl_lsb[19] - 0.5).abs() < 0.1,
            "dnl {}",
            lin.dnl_lsb[19]
        );
        assert!((lin.dnl_lsb[20] + 0.5).abs() < 0.1);
    }

    #[test]
    fn missing_code_is_detected() {
        let nc = 32;
        let mut t = ideal_transitions(nc);
        // Collapse code 10: make its transitions coincide.
        t[10] = t[9];
        let codes = run_through(&t, 200_000, 1.05);
        let lin = sine_histogram(&codes, nc as u32).unwrap();
        assert!(lin.missing_codes.contains(&10));
        assert!(lin.dnl_min < -0.95);
    }

    #[test]
    fn inl_integrates_dnl() {
        let nc = 32;
        let mut t = ideal_transitions(nc);
        let lsb = 2.0 / nc as f64;
        // A bow: shift a band of transitions.
        for tr in t.iter_mut().take(24).skip(8) {
            *tr += 0.3 * lsb;
        }
        let codes = run_through(&t, 300_000, 1.05);
        let lin = sine_histogram(&codes, nc as u32).unwrap();
        let sum: f64 = lin.dnl_lsb.iter().sum();
        assert!((lin.inl_lsb.last().unwrap() - sum).abs() < 1e-9);
        assert!(lin.inl_max > 0.2);
    }

    #[test]
    fn rejects_empty_and_tiny() {
        assert_eq!(sine_histogram(&[], 16), Err(LinearityError::EmptyRecord));
        assert_eq!(
            sine_histogram(&[0, 1], 1),
            Err(LinearityError::TooFewCodes(1))
        );
    }

    #[test]
    fn rejects_underdriven_sine() {
        let nc = 64;
        let codes = run_through(&ideal_transitions(nc), 100_000, 0.8);
        assert_eq!(
            sine_histogram(&codes, nc as u32),
            Err(LinearityError::InsufficientOverdrive)
        );
    }

    /// Quantizes a slow overdriven ramp through explicit transitions.
    fn ramp_through(transitions: &[f64], samples: usize, overdrive: f64) -> Vec<u32> {
        (0..samples)
            .map(|i| {
                let v = -overdrive + 2.0 * overdrive * i as f64 / (samples - 1) as f64;
                let mut code = 0u32;
                for &t in transitions {
                    if v > t {
                        code += 1;
                    }
                }
                code
            })
            .collect()
    }

    #[test]
    fn ramp_test_measures_ideal_converter_flat() {
        let nc = 64;
        let codes = ramp_through(&ideal_transitions(nc), 400_000, 1.05);
        let lin = ramp_histogram(&codes, nc as u32).unwrap();
        assert!(lin.dnl_max.abs() < 0.02, "dnl {}", lin.dnl_max);
        assert!(lin.inl_max.abs() < 0.05, "inl {}", lin.inl_max);
    }

    #[test]
    fn ramp_and_sine_tests_agree_on_a_widened_code() {
        let nc = 64;
        let mut t = ideal_transitions(nc);
        let lsb = 2.0 / nc as f64;
        t[20] += 0.4 * lsb;
        let sine_codes = run_through(&t, 500_000, 1.05);
        let ramp_codes = ramp_through(&t, 500_000, 1.05);
        let sine = sine_histogram(&sine_codes, nc as u32).unwrap();
        let ramp = ramp_histogram(&ramp_codes, nc as u32).unwrap();
        assert!(
            (sine.dnl_lsb[19] - ramp.dnl_lsb[19]).abs() < 0.1,
            "sine {} vs ramp {}",
            sine.dnl_lsb[19],
            ramp.dnl_lsb[19]
        );
    }

    #[test]
    fn ramp_rejects_underdrive_too() {
        let nc = 32;
        let codes = ramp_through(&ideal_transitions(nc), 100_000, 0.5);
        assert_eq!(
            ramp_histogram(&codes, nc as u32),
            Err(LinearityError::InsufficientOverdrive)
        );
    }

    #[test]
    fn out_of_range_codes_clamp_to_top() {
        // Codes above code_count-1 count toward the top rail rather than
        // panicking (a converter bug should surface as data, not a crash).
        let mut codes = run_through(&ideal_transitions(16), 100_000, 1.05);
        codes[0] = 99;
        let lin = sine_histogram(&codes, 16);
        assert!(lin.is_ok());
    }
}

/// Predicts the distortion spectrum implied by a measured INL curve.
///
/// Synthesizes an `n`-point coherent sine of relative amplitude
/// `amplitude_rel` (1.0 = full scale), passes it through the static
/// transfer described by the INL (ideal quantizer + per-code INL error),
/// and analyzes the result — linking the *static* Table I rows to the
/// *dynamic* THD/SFDR ones. Quantization noise is included; thermal
/// noise and dynamic (frequency-dependent) distortion are not, so the
/// prediction is the low-input-frequency static floor.
///
/// `inl_lsb` is indexed like [`LinearityResult::inl_lsb`] (interior
/// codes, starting at code 1).
///
/// # Errors
///
/// Returns an FFT error for a non-power-of-two `n`.
///
/// # Panics
///
/// Panics if `code_count < 4` or the INL vector is longer than the code
/// range.
pub fn predict_tone_from_inl(
    inl_lsb: &[f64],
    code_count: u32,
    amplitude_rel: f64,
    n: usize,
) -> Result<crate::metrics::SingleToneAnalysis, crate::fft::FftError> {
    assert!(code_count >= 4, "need a real transfer curve");
    assert!(
        inl_lsb.len() <= code_count as usize - 2,
        "INL vector longer than the interior code range"
    );
    let nc = code_count as f64;
    let lsb = 2.0 / nc; // full scale normalised to ±1
                        // Coherent odd bin near n/23 for a generic low-frequency tone.
    let cycles = {
        let mut m = (n / 23) | 1;
        if m == 0 {
            m = 1;
        }
        m
    };
    let record: Vec<f64> = (0..n)
        .map(|i| {
            let v = amplitude_rel
                * (2.0 * std::f64::consts::PI * cycles as f64 * i as f64 / n as f64).sin();
            // Ideal midtread quantization to a code...
            let code = ((v + 1.0) / lsb).floor().clamp(0.0, nc - 1.0);
            // ...reconstruction, plus the INL error of that code.
            let ideal_v = (code + 0.5) * lsb - 1.0;
            let idx = code as usize;
            let inl = if idx >= 1 && idx - 1 < inl_lsb.len() {
                inl_lsb[idx - 1]
            } else {
                0.0
            };
            ideal_v + inl * lsb
        })
        .collect();
    crate::metrics::analyze_tone(&record, &crate::metrics::ToneAnalysisConfig::coherent())
}

#[cfg(test)]
mod predict_tests {
    use super::*;

    #[test]
    fn flat_inl_predicts_quantization_limited_sndr() {
        let inl = vec![0.0; 4094];
        let a = predict_tone_from_inl(&inl, 4096, 0.999, 8192).unwrap();
        // Pure 12-bit quantization: ~74 dB SNDR.
        assert!((a.sndr_db - 74.0).abs() < 1.5, "sndr {}", a.sndr_db);
        assert!(a.thd_db < -80.0, "thd {}", a.thd_db);
    }

    #[test]
    fn cubic_inl_bow_predicts_hd3() {
        // INL(code) = 2·x³ LSB with x = normalized position: an odd bow
        // producing third-harmonic distortion.
        let nc = 4096usize;
        let inl: Vec<f64> = (1..nc - 1)
            .map(|c| {
                let x = (c as f64 - nc as f64 / 2.0) / (nc as f64 / 2.0);
                2.0 * x * x * x
            })
            .collect();
        let a = predict_tone_from_inl(&inl, 4096, 0.999, 8192).unwrap();
        let hd3 = a.harmonics.iter().find(|h| h.order == 3).expect("hd3");
        // Error amplitude: 2 LSB · 1/4 coefficient of sin³ → HD3 ≈
        // 20·log10(0.5·LSB / FS-amplitude)… just require HD3 dominant and
        // in the right decade.
        assert!(hd3.dbc > -80.0 && hd3.dbc < -60.0, "hd3 {}", hd3.dbc);
        let hd2 = a.harmonics.iter().find(|h| h.order == 2).expect("hd2");
        assert!(hd2.dbc < hd3.dbc - 10.0, "even term should be absent");
    }

    #[test]
    fn quadratic_inl_bow_predicts_hd2() {
        let nc = 4096usize;
        let inl: Vec<f64> = (1..nc - 1)
            .map(|c| {
                let x = (c as f64 - nc as f64 / 2.0) / (nc as f64 / 2.0);
                1.5 * (1.0 - x * x) - 0.75
            })
            .collect();
        let a = predict_tone_from_inl(&inl, 4096, 0.999, 8192).unwrap();
        let hd2 = a.harmonics.iter().find(|h| h.order == 2).expect("hd2");
        let hd3 = a.harmonics.iter().find(|h| h.order == 3).expect("hd3");
        assert!(
            hd2.dbc > hd3.dbc + 10.0,
            "hd2 {} vs hd3 {}",
            hd2.dbc,
            hd3.dbc
        );
    }
}

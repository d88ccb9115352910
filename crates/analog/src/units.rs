//! Physical constants, unit helpers, and decibel conversions.
//!
//! The simulator works in plain SI units carried in `f64` values; field and
//! parameter names carry the unit as a suffix (`_v`, `_f`, `_hz`, `_s`,
//! `_a`, `_w`). This module collects the constants and the handful of unit
//! conversions that every other crate needs, so magic numbers never appear
//! at call sites.

/// Boltzmann constant in joules per kelvin.
pub const BOLTZMANN: f64 = 1.380_649e-23;

/// Nominal simulation temperature in kelvin (27 °C, the usual SPICE default).
pub const T_NOMINAL_K: f64 = 300.15;

/// Elementary charge in coulombs.
pub const ELEMENTARY_CHARGE: f64 = 1.602_176_634e-19;

/// `kT` at the nominal temperature, in joules.
///
/// This is the quantity that appears in every sampled-noise calculation
/// (`kT/C` noise power on a hold capacitor).
pub const KT_NOMINAL: f64 = BOLTZMANN * T_NOMINAL_K;

/// Converts a power *ratio* to decibels.
///
/// Returns negative infinity for a non-positive ratio, which is the
/// conventional "no power" reading on a spectrum analyzer.
///
/// ```
/// use adc_analog::units::db;
/// assert!((db(100.0) - 20.0).abs() < 1e-12);
/// assert_eq!(db(0.0), f64::NEG_INFINITY);
/// ```
#[inline]
pub fn db(power_ratio: f64) -> f64 {
    if power_ratio <= 0.0 {
        f64::NEG_INFINITY
    } else {
        10.0 * power_ratio.log10()
    }
}

/// Inverse of [`db`]: converts decibels back to a power ratio.
///
/// ```
/// use adc_analog::units::{db, undb};
/// let x = 123.456;
/// assert!((undb(db(x)) - x).abs() < 1e-9);
/// ```
#[inline]
pub fn undb(decibels: f64) -> f64 {
    10f64.powf(decibels / 10.0)
}

/// Root-mean-square kT/C noise voltage for a sampling capacitor, in volts.
///
/// Sampling a signal onto a capacitor `c_f` (farads) through any resistive
/// switch freezes thermal noise with total power `kT/C` regardless of the
/// switch resistance — the classic sampled-noise result.
///
/// # Panics
///
/// Panics if `c_f` is not strictly positive; a non-positive capacitance is
/// a construction error upstream, not a recoverable condition.
///
/// ```
/// use adc_analog::units::ktc_noise_rms;
/// // 1 pF at 300 K is about 64 µV rms.
/// let sigma = ktc_noise_rms(1e-12);
/// assert!((sigma - 64.4e-6).abs() < 1e-6);
/// ```
#[inline]
pub fn ktc_noise_rms(c_f: f64) -> f64 {
    assert!(c_f > 0.0, "capacitance must be positive, got {c_f}");
    (KT_NOMINAL / c_f).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_round_trips() {
        for &x in &[1e-6, 0.5, 1.0, 2.0, 1e9] {
            assert!((undb(db(x)) - x).abs() / x < 1e-12);
        }
    }

    #[test]
    fn db_of_unity_is_zero() {
        assert_eq!(db(1.0), 0.0);
    }

    #[test]
    fn ktc_scales_inverse_sqrt() {
        let a = ktc_noise_rms(1e-12);
        let b = ktc_noise_rms(4e-12);
        assert!((a / b - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "capacitance must be positive")]
    fn ktc_rejects_zero_cap() {
        let _ = ktc_noise_rms(0.0);
    }
}

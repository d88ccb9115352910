//! Datasheet extraction: the paper's Table I as a measurement procedure.

use std::fmt;

use adc_pipeline::error::BuildAdcError;
use adc_spectral::linearity::LinearityError;

use crate::session::MeasurementSession;

/// The silicon area of the paper's implementation, mm². Area cannot be
/// simulated; the published value is carried as a constant (it enters
/// only the Fig. 8 figure of merit).
pub const PAPER_AREA_MM2: f64 = 0.86;

/// The paper's process label.
pub const PAPER_TECHNOLOGY: &str = "0.18 um digital CMOS";

/// A complete characterisation of one die at one operating point —
/// the rows of the paper's Table I.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Datasheet {
    /// Process label.
    pub technology: String,
    /// Nominal supply, volts.
    pub supply_v: f64,
    /// Resolution, bits.
    pub resolution_bits: u32,
    /// Full-scale input, volts peak-to-peak (differential).
    pub full_scale_vpp: f64,
    /// Silicon area, mm² (the published value; see [`PAPER_AREA_MM2`]).
    pub area_mm2: f64,
    /// Conversion rate, hertz.
    pub f_cr_hz: f64,
    /// Input frequency of the dynamic measurements, hertz.
    pub f_in_hz: f64,
    /// Analog power, watts.
    pub power_w: f64,
    /// DNL extremes, LSB.
    pub dnl_lsb: (f64, f64),
    /// INL extremes, LSB.
    pub inl_lsb: (f64, f64),
    /// Codes the linearity histogram never hit.
    pub missing_codes: usize,
    /// Offset error, LSB (mean code error at a grounded input).
    pub offset_error_lsb: f64,
    /// Gain error, percent (transfer slope deviation over ±0.9 FS).
    pub gain_error_percent: f64,
    /// SNR at `f_in_hz`, dB.
    pub snr_db: f64,
    /// SNDR at `f_in_hz`, dB.
    pub sndr_db: f64,
    /// SFDR at `f_in_hz`, dB.
    pub sfdr_db: f64,
    /// ENOB at `f_in_hz`, bits.
    pub enob: f64,
}

/// Errors from datasheet extraction.
#[derive(Debug, Clone, PartialEq)]
pub enum DatasheetError {
    /// The converter could not be built.
    Build(BuildAdcError),
    /// The linearity test failed.
    Linearity(LinearityError),
}

impl fmt::Display for DatasheetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasheetError::Build(e) => write!(f, "build failed: {e}"),
            DatasheetError::Linearity(e) => write!(f, "linearity test failed: {e}"),
        }
    }
}

impl std::error::Error for DatasheetError {}

impl From<BuildAdcError> for DatasheetError {
    fn from(e: BuildAdcError) -> Self {
        DatasheetError::Build(e)
    }
}

impl From<LinearityError> for DatasheetError {
    fn from(e: LinearityError) -> Self {
        DatasheetError::Linearity(e)
    }
}

impl Datasheet {
    /// Measures a full datasheet on a session: one dynamic tone at
    /// `f_in_target_hz` plus a `linearity_samples`-point histogram test.
    ///
    /// # Errors
    ///
    /// Returns an error if the linearity test cannot run.
    pub fn measure(
        session: &mut MeasurementSession,
        f_in_target_hz: f64,
        linearity_samples: usize,
    ) -> Result<Self, DatasheetError> {
        let tone = session.measure_tone(f_in_target_hz);
        let lin = session.measure_linearity(linearity_samples)?;
        let cfg = session.adc().config().clone();
        // Offset: averaged grounded-input reading. Gain: wide-span slope.
        let average_at = |session: &mut MeasurementSession, v: f64| {
            let n = 256;
            let sum: f64 = (0..n)
                .map(|_| {
                    let code = session.adc_mut().convert_held(v);
                    session.adc().reconstruct_v(code)
                })
                .sum();
            sum / f64::from(n)
        };
        let offset_v = average_at(session, 0.0);
        let hi = average_at(session, 0.9 * cfg.v_ref_v);
        let lo = average_at(session, -0.9 * cfg.v_ref_v);
        let slope = (hi - lo) / (1.8 * cfg.v_ref_v);
        let offset_error_lsb = offset_v / cfg.lsb_v();
        let gain_error_percent = (slope - 1.0) * 100.0;
        Ok(Self {
            technology: PAPER_TECHNOLOGY.to_string(),
            supply_v: cfg.conditions.vdd_v,
            resolution_bits: cfg.resolution_bits(),
            full_scale_vpp: 2.0 * cfg.v_ref_v,
            area_mm2: PAPER_AREA_MM2,
            f_cr_hz: cfg.f_cr_hz,
            f_in_hz: tone.f_in_hz,
            power_w: session.adc().power_w(),
            offset_error_lsb,
            gain_error_percent,
            dnl_lsb: (lin.dnl_min, lin.dnl_max),
            inl_lsb: (lin.inl_min, lin.inl_max),
            missing_codes: lin.missing_codes.len(),
            snr_db: tone.analysis.snr_db,
            sndr_db: tone.analysis.sndr_db,
            sfdr_db: tone.analysis.sfdr_db,
            enob: tone.analysis.enob,
        })
    }

    /// The paper-adjusted Walden figure of merit (Eq. 2):
    /// `FM = 2^ENOB · f_CR / (A · P)` with f_CR in MS/s, A in mm², P in mW.
    pub fn figure_of_merit(&self) -> f64 {
        crate::survey::walden_adjusted_fm(
            self.enob,
            self.f_cr_hz / 1e6,
            self.area_mm2,
            self.power_w * 1e3,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_datasheet_matches_table1_bands() {
        let mut s = MeasurementSession::nominal().unwrap();
        let d = Datasheet::measure(&mut s, 10e6, 1 << 19).unwrap();
        assert_eq!(d.resolution_bits, 12);
        assert_eq!(d.supply_v, 1.8);
        assert!((d.full_scale_vpp - 2.0).abs() < 1e-12);
        assert!((d.power_w - 97e-3).abs() < 8e-3, "power {}", d.power_w);
        assert!((d.snr_db - 67.1).abs() < 1.5);
        assert!((d.sndr_db - 64.2).abs() < 1.5);
        assert!((d.enob - 10.4).abs() < 0.25);
        // Paper: DNL ±1.2, INL −1.5/+1. Shapes: sub-LSB to ~1.5 LSB.
        assert!(
            d.dnl_lsb.1 > 0.1 && d.dnl_lsb.1 < 1.6,
            "dnl {:?}",
            d.dnl_lsb
        );
        assert!(
            d.inl_lsb.0 < -0.3 && d.inl_lsb.0 > -2.0,
            "inl {:?}",
            d.inl_lsb
        );
    }

    #[test]
    fn figure_of_merit_matches_eq2_for_paper_numbers() {
        let d = Datasheet {
            technology: PAPER_TECHNOLOGY.into(),
            supply_v: 1.8,
            resolution_bits: 12,
            full_scale_vpp: 2.0,
            area_mm2: 0.86,
            f_cr_hz: 110e6,
            f_in_hz: 10e6,
            power_w: 97e-3,
            offset_error_lsb: 0.0,
            gain_error_percent: 0.0,
            dnl_lsb: (-1.2, 1.2),
            inl_lsb: (-1.5, 1.0),
            missing_codes: 0,
            snr_db: 67.1,
            sndr_db: 64.2,
            sfdr_db: 69.4,
            enob: 10.4,
        };
        // 2^10.4·110/(0.86·97) ≈ 1782
        assert!(
            (d.figure_of_merit() - 1782.0).abs() < 15.0,
            "fm {}",
            d.figure_of_merit()
        );
    }
}

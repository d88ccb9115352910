//! Interleaving spur forensics: predict *where* an M-way time-interleaved
//! converter's mismatch spurs land, and attribute measured spectral power
//! to the right mismatch family.
//!
//! An M-way array modulates every per-channel error at the channel rate
//! `f_s/M`, so the error families land at known places:
//!
//! * **offset family** — static per-channel offsets are a signal-independent
//!   periodic pattern: tones at `k·f_s/M`, `k = 1‥M−1` (for M = 2, a single
//!   tone at `f_s/2`);
//! * **image family** — gain, timing-skew, and bandwidth mismatch all
//!   *multiply* the input, producing images at `k·f_s/M ± f_in`. Gain
//!   images are flat over frequency; timing/bandwidth images grow with
//!   `f_in` — but they share bins, which is why attribution is by family,
//!   not by mechanism.
//!
//! Knowing the bins turns "eyeball the spectrum" into assertions:
//! a test can inject offset-only mismatch and require that *exactly* the
//! offset family lights up, or run background calibration and pin the
//! dB suppression of each family. [`spur_families`] predicts the bins;
//! [`attribute_spurs`] measures a one-sided power spectrum at them;
//! [`attribute_record`] does both straight from a time-domain record.

use crate::fft::{power_spectrum_one_sided, FftError};
use crate::window::alias_bin;

/// Floor applied below the carrier when a family bin holds exactly zero
/// power, keeping reports finite (−300 dBc is far below any physical
/// floor in these models).
const DBC_FLOOR: f64 = -300.0;

/// Typed failure of a spur-forensics call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterleaveForensicsError {
    /// Fewer than two channels: there is no interleaving to attribute.
    ChannelCount {
        /// The channel count supplied.
        m: usize,
    },
    /// The record length is not divisible by the channel count, so the
    /// channel-rate tones do not land on bins.
    NotDivisible {
        /// Record length.
        n: usize,
        /// Channel count.
        m: usize,
    },
    /// The fundamental bin is DC, Nyquist, or out of range — tone
    /// analysis needs a proper in-band carrier.
    FundamentalOutOfRange {
        /// The offending bin.
        bin: usize,
        /// Record length the bin must sit strictly inside (exclusive of
        /// 0 and n/2).
        n: usize,
    },
    /// The spectrum could not be computed from the record.
    Fft(FftError),
}

impl std::fmt::Display for InterleaveForensicsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ChannelCount { m } => write!(f, "{m} channels: nothing interleaved"),
            Self::NotDivisible { n, m } => {
                write!(f, "record length {n} not divisible by {m} channels")
            }
            Self::FundamentalOutOfRange { bin, n } => {
                write!(
                    f,
                    "fundamental bin {bin} not strictly inside (0, {})",
                    n / 2
                )
            }
            Self::Fft(e) => write!(f, "spectrum failed: {e}"),
        }
    }
}

impl std::error::Error for InterleaveForensicsError {}

impl From<FftError> for InterleaveForensicsError {
    fn from(e: FftError) -> Self {
        Self::Fft(e)
    }
}

/// The predicted one-sided bin locations of an M-way array's mismatch
/// spurs, for a given record length and carrier bin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpurFamilies {
    /// Channel count the prediction is for.
    pub m: usize,
    /// Record length the bins index into (one-sided spectrum has
    /// `n/2 + 1` bins).
    pub n: usize,
    /// Carrier bin the image family is anchored on.
    pub fundamental_bin: usize,
    /// Offset-family bins: `k·n/M` folded one-sided, deduplicated,
    /// ascending.
    pub offset_bins: Vec<usize>,
    /// Image-family bins: `k·n/M ± fundamental` folded one-sided,
    /// deduplicated, ascending — excluding the carrier itself and any
    /// bin already claimed by the offset family.
    pub image_bins: Vec<usize>,
}

/// Predicts the spur bins of an `m`-way array for an `n`-point record
/// with the carrier at `fundamental_bin`.
///
/// # Errors
///
/// See [`InterleaveForensicsError`]; `n` must be divisible by `m`, `m`
/// at least 2, and the fundamental strictly between DC and Nyquist.
pub fn spur_families(
    n: usize,
    m: usize,
    fundamental_bin: usize,
) -> Result<SpurFamilies, InterleaveForensicsError> {
    if m < 2 {
        return Err(InterleaveForensicsError::ChannelCount { m });
    }
    if n == 0 || !n.is_multiple_of(m) {
        return Err(InterleaveForensicsError::NotDivisible { n, m });
    }
    if fundamental_bin == 0 || fundamental_bin >= n / 2 {
        return Err(InterleaveForensicsError::FundamentalOutOfRange {
            bin: fundamental_bin,
            n,
        });
    }
    let mut offset_bins = Vec::new();
    let mut image_bins = Vec::new();
    for k in 1..m {
        let carrier = k * (n / m);
        let folded = alias_bin(carrier, n);
        if folded != 0 {
            offset_bins.push(folded);
        }
        image_bins.push(alias_bin(carrier + fundamental_bin, n));
        // `carrier − fundamental` via the fold of the sum with n − bin
        // (alias_bin works on a cycle count, which is mod-n anyway).
        image_bins.push(alias_bin(carrier + n - fundamental_bin, n));
    }
    offset_bins.sort_unstable();
    offset_bins.dedup();
    image_bins.sort_unstable();
    image_bins.dedup();
    image_bins.retain(|&b| b != fundamental_bin && b != 0 && !offset_bins.contains(&b));
    Ok(SpurFamilies {
        m,
        n,
        fundamental_bin,
        offset_bins,
        image_bins,
    })
}

/// Measured spur power at the predicted families, relative to the
/// carrier.
#[derive(Debug, Clone, PartialEq)]
pub struct InterleaveSpurReport {
    /// The bin prediction this report measured.
    pub families: SpurFamilies,
    /// Carrier power (spectrum units).
    pub carrier_power: f64,
    /// Worst offset-family spur relative to the carrier, dBc (negative
    /// when below the carrier; floored at −300 dBc).
    pub offset_worst_dbc: f64,
    /// Bin holding the worst offset-family spur.
    pub offset_worst_bin: usize,
    /// Worst image-family spur relative to the carrier, dBc.
    pub image_worst_dbc: f64,
    /// Bin holding the worst image-family spur.
    pub image_worst_bin: usize,
}

fn family_worst(spectrum: &[f64], bins: &[usize], carrier_power: f64) -> (f64, usize) {
    let mut worst_dbc = DBC_FLOOR;
    let mut worst_bin = bins.first().copied().unwrap_or(0);
    for &bin in bins {
        let p = spectrum[bin];
        let dbc = if p > 0.0 && carrier_power > 0.0 {
            (10.0 * (p / carrier_power).log10()).max(DBC_FLOOR)
        } else {
            DBC_FLOOR
        };
        if dbc > worst_dbc {
            worst_dbc = dbc;
            worst_bin = bin;
        }
    }
    (worst_dbc, worst_bin)
}

/// Measures a one-sided power spectrum (`n/2 + 1` bins for an `n`-point
/// record) at the predicted spur families of an `m`-way array.
///
/// # Errors
///
/// Same validation as [`spur_families`], with `n` inferred from the
/// spectrum length.
pub fn attribute_spurs(
    spectrum: &[f64],
    m: usize,
    fundamental_bin: usize,
) -> Result<InterleaveSpurReport, InterleaveForensicsError> {
    if spectrum.len() < 2 {
        return Err(InterleaveForensicsError::NotDivisible {
            n: spectrum.len(),
            m,
        });
    }
    let n = 2 * (spectrum.len() - 1);
    let families = spur_families(n, m, fundamental_bin)?;
    let carrier_power = spectrum[fundamental_bin];
    let (offset_worst_dbc, offset_worst_bin) =
        family_worst(spectrum, &families.offset_bins, carrier_power);
    let (image_worst_dbc, image_worst_bin) =
        family_worst(spectrum, &families.image_bins, carrier_power);
    Ok(InterleaveSpurReport {
        families,
        carrier_power,
        offset_worst_dbc,
        offset_worst_bin,
        image_worst_dbc,
        image_worst_bin,
    })
}

/// Spur attribution straight from a time-domain record: computes the
/// one-sided power spectrum, takes the strongest in-band bin as the
/// carrier, and measures the families.
///
/// # Errors
///
/// FFT errors (non-power-of-two records) plus the [`spur_families`]
/// validation.
pub fn attribute_record(
    record: &[f64],
    m: usize,
) -> Result<InterleaveSpurReport, InterleaveForensicsError> {
    let spectrum = power_spectrum_one_sided(record)?;
    let mut fundamental_bin = 1;
    let mut best = f64::MIN;
    for (bin, &p) in spectrum.iter().enumerate().skip(1) {
        if bin < record.len() / 2 && p > best {
            best = p;
            fundamental_bin = bin;
        }
    }
    attribute_spurs(&spectrum, m, fundamental_bin)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_way_families_are_the_textbook_bins() {
        let f = spur_families(4096, 2, 371).unwrap();
        assert_eq!(f.offset_bins, vec![2048]);
        // 2048 + 371 folds onto 2048 − 371: one image bin.
        assert_eq!(f.image_bins, vec![2048 - 371]);
    }

    #[test]
    fn four_way_families_fold_and_dedup() {
        let f = spur_families(4096, 4, 100).unwrap();
        // k·n/4 for k = 1..3 → 1024, 2048, 3072 (folds to 1024).
        assert_eq!(f.offset_bins, vec![1024, 2048]);
        // 1024±100, 2048±100, 3072±100 folded → {924, 1124, 1948}.
        assert_eq!(f.image_bins, vec![924, 1124, 1948]);
    }

    #[test]
    fn validation_is_typed() {
        assert!(matches!(
            spur_families(4096, 1, 100),
            Err(InterleaveForensicsError::ChannelCount { m: 1 })
        ));
        assert!(matches!(
            spur_families(4095, 2, 100),
            Err(InterleaveForensicsError::NotDivisible { n: 4095, m: 2 })
        ));
        assert!(matches!(
            spur_families(4096, 2, 0),
            Err(InterleaveForensicsError::FundamentalOutOfRange { .. })
        ));
        assert!(matches!(
            spur_families(4096, 2, 2048),
            Err(InterleaveForensicsError::FundamentalOutOfRange { .. })
        ));
    }

    #[test]
    fn synthetic_offset_and_image_tones_attribute_to_their_families() {
        let n = 4096;
        let bin = 371;
        let w = 2.0 * std::f64::consts::PI / n as f64;
        // Carrier + a 1e-3 offset tone at fs/2 + a 1e-4 image at fs/2−fin.
        let record: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64;
                (w * bin as f64 * t).sin()
                    + 1e-3 * (std::f64::consts::PI * t).cos()
                    + 1e-4 * (w * (n / 2 - bin) as f64 * t).sin()
            })
            .collect();
        let report = attribute_record(&record, 2).unwrap();
        assert_eq!(report.families.fundamental_bin, bin);
        assert_eq!(report.offset_worst_bin, n / 2);
        assert_eq!(report.image_worst_bin, n / 2 - bin);
        // Offset tone: amplitude 1e-3 against carrier 1 → −60 dBc; but a
        // real (cosine) tone at Nyquist puts all its power in one bin
        // while the carrier splits over two sides → +3 dB: −57 dBc.
        assert!(
            (report.offset_worst_dbc + 57.0).abs() < 0.5,
            "offset {} dBc",
            report.offset_worst_dbc
        );
        // Image: amplitude 1e-4 → −80 dBc, same split on both sides.
        assert!(
            (report.image_worst_dbc + 80.0).abs() < 0.5,
            "image {} dBc",
            report.image_worst_dbc
        );
    }

    #[test]
    fn clean_record_reports_floored_families() {
        let n = 1024;
        let w = 2.0 * std::f64::consts::PI * 171.0 / n as f64;
        let record: Vec<f64> = (0..n).map(|i| (w * i as f64).sin()).collect();
        let report = attribute_record(&record, 2).unwrap();
        // A pure coherent tone leaves only numerical dust in the
        // family bins.
        assert!(report.offset_worst_dbc < -250.0);
        assert!(report.image_worst_dbc < -250.0);
    }
}

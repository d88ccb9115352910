//! Digital error correction (the paper's "Delay and Correction Logic"
//! block). The converter hands each sample's decisions over already
//! aligned, so the block's delay registers carry no state here.
//!
//! Each 1.5-bit stage emits b_i = d_i + 1 ∈ {0, 1, 2}; the flash emits
//! 2 bits. The correction adds the stage words with a one-bit overlap:
//!
//! ```text
//! code = Σ_{i=1..n} b_i · 2^{n+1−i} + flash
//! ```
//!
//! For an ideal chain this reduces to `code = v_in/V_REF·2^{n+1} + (2^{n+1}
//! − 1.5)`, i.e. a perfect midtread (n+2)-bit quantizer — and, crucially,
//! the redundancy means any ADSC decision error up to ±V_REF/4 cancels
//! between a stage's word and the residue seen by its successors.

use crate::subconverter::StageDecision;

/// Combines per-stage decisions and the flash code into the output code.
///
/// The result is clamped to the valid code range `0 ..= 2^(n+2) − 1`
/// (analog errors can push the arithmetic outside it; a real converter
/// saturates the same way).
///
/// # Panics
///
/// Panics if `decisions` is empty or `flash_code > 3`.
pub fn assemble_code(decisions: &[StageDecision], flash_code: u8) -> u32 {
    assemble_code_from(decisions.iter().copied(), flash_code)
}

/// [`assemble_code`] over decisions read in stage order from any
/// layout — the record kernel reads them off a diagonal of its
/// tick-major buffer.
pub(crate) fn assemble_code_from(
    decisions: impl ExactSizeIterator<Item = StageDecision>,
    flash_code: u8,
) -> u32 {
    let n = decisions.len();
    assert!(n > 0, "need at least one stage decision");
    assert!(flash_code <= 3, "flash code must be 2 bits");
    let mut code: i64 = i64::from(flash_code);
    for (i, d) in decisions.enumerate() {
        code += i64::from(d.bits()) << (n - i);
    }
    let max = (1i64 << (n + 2)) - 1;
    code.clamp(0, max) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dec(levels: &[i8]) -> Vec<StageDecision> {
        levels
            .iter()
            .map(|&dac_level| StageDecision { dac_level })
            .collect()
    }

    /// The ideal decision chain for an input in [-1, 1): what a perfect
    /// 10-stage pipeline would decide.
    fn ideal_chain(v_in: f64, stages: usize) -> (Vec<StageDecision>, u8) {
        let mut v = v_in;
        let mut out = Vec::new();
        for _ in 0..stages {
            let d: i8 = if v > 0.25 {
                1
            } else if v < -0.25 {
                -1
            } else {
                0
            };
            v = 2.0 * v - f64::from(d);
            out.push(StageDecision { dac_level: d });
        }
        let flash = if v > 0.5 {
            3
        } else if v > 0.0 {
            2
        } else if v > -0.5 {
            1
        } else {
            0
        };
        (out, flash)
    }

    #[test]
    fn full_scale_extremes_map_to_code_rails() {
        let (d, f) = ideal_chain(-0.99999, 10);
        assert_eq!(assemble_code(&d, f), 0);
        let (d, f) = ideal_chain(0.99999, 10);
        assert_eq!(assemble_code(&d, f), 4095);
    }

    #[test]
    fn midscale_maps_near_2048() {
        let (d, f) = ideal_chain(1e-9, 10);
        let code = assemble_code(&d, f);
        assert!((2047..=2048).contains(&code), "code {code}");
    }

    #[test]
    fn ideal_chain_is_a_uniform_quantizer() {
        // code must equal floor(v·2048) + 2048 for the ideal chain.
        // Half-integer offsets keep v off exact decision boundaries, where
        // floor() and the comparator convention may legitimately differ.
        for i in -1000..1000 {
            let v = (i as f64 + 0.5) / 1000.0 * 0.999;
            let (d, f) = ideal_chain(v, 10);
            let code = assemble_code(&d, f);
            let expected = ((v * 2048.0).floor() + 2048.0) as u32;
            assert_eq!(code, expected, "v = {v}");
        }
    }

    #[test]
    fn redundancy_cancels_decision_errors() {
        // Force a wrong-but-in-range decision in stage 3 and re-derive the
        // remaining stages from the (now different) residues: the final
        // code may move by at most 1 (the sub-LSB re-quantization), not by
        // a stage weight.
        let v_in = 0.3137;
        let (base_d, base_f) = ideal_chain(v_in, 10);
        let base_code = assemble_code(&base_d, base_f);

        // Replay with stage 3's threshold perturbed by +0.2 V (< Vref/4).
        let mut v = v_in;
        let mut d2 = Vec::new();
        for i in 0..10 {
            let threshold_hi = if i == 2 { 0.25 + 0.2 } else { 0.25 };
            let d: i8 = if v > threshold_hi {
                1
            } else if v < -0.25 {
                -1
            } else {
                0
            };
            v = 2.0 * v - f64::from(d);
            d2.push(StageDecision { dac_level: d });
        }
        let flash = if v > 0.5 {
            3
        } else if v > 0.0 {
            2
        } else if v > -0.5 {
            1
        } else {
            0
        };
        let new_code = assemble_code(&d2, flash);
        assert!(
            (i64::from(new_code) - i64::from(base_code)).abs() <= 1,
            "codes {base_code} vs {new_code}"
        );
    }

    #[test]
    fn out_of_range_arithmetic_clamps() {
        // All stages high plus flash high: 2·(2^10+..+2^1)+3 = 4095, fine;
        // the clamp matters when decisions exceed the representable range
        // from analog overdrive — emulate by checking rails hold.
        let d = dec(&[1; 10]);
        assert_eq!(assemble_code(&d, 3), 4095);
        let d = dec(&[-1; 10]);
        assert_eq!(assemble_code(&d, 0), 0);
    }

    #[test]
    #[should_panic(expected = "2 bits")]
    fn rejects_wide_flash_code() {
        let _ = assemble_code(&dec(&[0]), 4);
    }
}

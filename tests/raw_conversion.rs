//! A live converter's raw output is self-consistent: the stage decisions
//! and flash code of every [`RawConversion`] reassemble, through the one
//! correction adder, to the code the converter reported.
//! `calibrate_foreground` re-weights exactly these raw decisions, so it
//! relies on this.

use pipeline_adc::pipeline::{assemble_code, AdcConfig, PipelineAdc, RawConversion, StageDecision};

fn reassembled(raw: &RawConversion) -> u16 {
    let decisions: Vec<StageDecision> = raw
        .dac_levels
        .iter()
        .map(|&dac_level| StageDecision { dac_level })
        .collect();
    u16::try_from(assemble_code(&decisions, raw.flash_code)).expect("12-bit code")
}

#[test]
fn raw_decisions_reassemble_to_the_converter_code_on_a_busy_input() {
    let mut adc = PipelineAdc::build(AdcConfig::nominal_110ms(), 7).expect("builds");
    // A busy input exercising all decision patterns.
    for k in 0..400 {
        let v = 0.97 * (0.37 * k as f64).sin() + 0.02 * (1.7 * k as f64).cos();
        let raw = adc.convert_held_raw(v);
        assert_eq!(raw.dac_levels.len(), adc.config().stage_count);
        assert_eq!(reassembled(&raw), raw.code, "sample {k}");
    }
}

#[test]
fn raw_decisions_reassemble_to_the_rail_codes() {
    let mut adc = PipelineAdc::build(AdcConfig::ideal(110e6), 1).expect("builds");
    for (v, rail) in [(0.99999, 4095), (-0.99999, 0)] {
        for _ in 0..20 {
            let raw = adc.convert_held_raw(v);
            assert_eq!(raw.code, rail, "input {v}");
            assert_eq!(reassembled(&raw), rail, "input {v}");
        }
    }
}

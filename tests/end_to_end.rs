//! End-to-end regression: the full reproduction pipeline (fabricate →
//! stimulate → capture → analyze) against the paper's published numbers.
//!
//! Every published result — Table I, Figs. 4, 5, 6 and 8 and the five
//! design-claim ablations — is computed once, by the same
//! `experiments::publish` the `experiments` binary prints. Each
//! claim test asserts one result's `claims_hold` on that computation, and
//! `experiments_md_matches_the_published_output` checks EXPERIMENTS.md's
//! marked tables against it at printed precision.

use std::sync::OnceLock;

use pipeline_adc::pipeline::AdcConfig;
use pipeline_adc::testbench::experiments::{
    publish, run_fig5, run_fig5_with, run_fig6, run_fig6_with, run_table1, Section, Table1Result,
    RECORD_LEN,
};
use pipeline_adc::testbench::{DynamicPoint, MeasurementSession, RunPolicy, GOLDEN_SEED};

/// Every published section, computed once for the whole suite.
fn published() -> &'static [Section] {
    static PUBLISHED: OnceLock<Vec<Section>> = OnceLock::new();
    PUBLISHED.get_or_init(|| publish(&RunPolicy::default()).expect("published results run"))
}

/// Asserts the paper claims of section `key`, printing it on failure.
fn assert_claims(key: &str) {
    let s = published()
        .iter()
        .find(|s| s.key == key)
        .expect("section is published");
    assert!(s.claims_hold, "{}", s.text);
}

/// Table I as published, computed once; `run_table1` is what `publish`
/// renders into the `table1` section.
fn table1() -> &'static Table1Result {
    static TABLE1: OnceLock<Table1Result> = OnceLock::new();
    TABLE1.get_or_init(|| run_table1().expect("Table I runs"))
}

#[test]
fn table1_lands_in_the_paper_bands() {
    assert_claims("table1");
}

#[test]
fn table1_dynamic_metrics_regress() {
    assert!(table1().dynamics_hold(), "{}", table1().render());
}

#[test]
fn table1_power_regresses() {
    assert!(table1().power_holds(), "{}", table1().render());
}

#[test]
fn linearity_regresses_to_table1_band() {
    assert!(table1().linearity_holds(), "{}", table1().render());
}

#[test]
fn fig4_power_is_linear_with_paper_slope() {
    assert_claims("fig4");
}

#[test]
fn fig5_flat_band_and_collapse() {
    assert_claims("fig5");
}

#[test]
fn fig6_jitter_and_switch_rolloff() {
    assert_claims("fig6");
}

#[test]
fn fig8_ranks_this_design_first() {
    assert_claims("fig8");
}

#[test]
fn sc_bias_scales_power_with_rate_at_no_sndr_cost() {
    assert_claims("ablation_bias");
}

#[test]
fn conventional_clocking_at_same_bias_is_no_better() {
    assert_claims("ablation_clocking");
}

#[test]
fn stage_scaling_halves_power_for_little_sndr() {
    assert_claims("ablation_scaling");
}

#[test]
fn bootstrapped_beats_bulk_switched_beats_conventional_tg() {
    assert_claims("ablation_switches");
}

#[test]
fn sha_less_front_end_matches_a_dedicated_sha() {
    assert_claims("ablation_sha");
}

#[test]
fn experiments_md_matches_the_published_output() {
    let md = include_str!("../EXPERIMENTS.md");
    let mut stale = Vec::new();
    for s in published() {
        let open = format!("<!-- experiments: {} -->", s.key);
        let close = format!("<!-- /experiments: {} -->\n", s.key);
        let block = md.find(&open).and_then(|start| {
            let len = md[start..].find(&close)? + close.len();
            Some(&md[start..start + len])
        });
        if block != Some(s.marked().as_str()) {
            stale.push(s.marked());
        }
    }
    assert_eq!(
        md.matches("<!-- experiments: ").count(),
        published().len(),
        "EXPERIMENTS.md holds a marked block for each published result, once"
    );
    assert!(
        stale.is_empty(),
        "EXPERIMENTS.md differs from `cargo run -p adc-bench --release --bin experiments`; \
         the regenerated blocks:\n\n{}",
        stale.join("\n")
    );
}

#[test]
fn benchmark_sweeps_are_rows_of_the_published_figures() {
    let bits =
        |p: &DynamicPoint| [p.x_hz, p.snr_db, p.sndr_db, p.sfdr_db, p.enob].map(f64::to_bits);
    let policy = RunPolicy::default();
    let bench5 = run_fig5_with(RECORD_LEN, &policy).expect("Fig. 5 runs");
    let bench6 = run_fig6_with(RECORD_LEN, &policy).expect("Fig. 6 runs");
    assert_eq!((bench5.points.len(), bench6.points.len()), (9, 4));
    let fig5 = run_fig5(&policy).expect("Fig. 5 runs");
    let fig6 = run_fig6(&policy).expect("Fig. 6 runs");
    for (bench, rows) in [
        (&bench5.points, &fig5.points),
        (&bench6.points, &fig6.points),
    ] {
        for p in bench {
            let row = rows
                .iter()
                .find(|q| q.x_hz.to_bits() == p.x_hz.to_bits())
                .unwrap_or_else(|| panic!("{} Hz is not a published row", p.x_hz));
            assert_eq!(bits(p), bits(row), "{} Hz", p.x_hz);
        }
    }
}

#[test]
fn whole_bench_is_deterministic() {
    let run = || {
        let mut bench = MeasurementSession::nominal().expect("nominal builds");
        bench.record_len = 2048;
        let m = bench.measure_tone(10e6);
        (m.analysis.snr_db.to_bits(), m.analysis.sfdr_db.to_bits())
    };
    assert_eq!(run(), run());
}

#[test]
fn dies_differ_but_stay_in_family() {
    // Monte-Carlo across 6 dies: every die must still be a ~10.3+ ENOB,
    // 90-110 mW converter — process spread moves the numbers, not the
    // story.
    for seed in [1u64, 2, 3, 11, 23, GOLDEN_SEED] {
        let mut bench = MeasurementSession::new(AdcConfig::nominal_110ms(), seed).expect("builds");
        bench.record_len = 4096;
        let m = bench.measure_tone(10e6);
        assert!(
            m.analysis.enob > 10.0,
            "seed {seed}: ENOB {}",
            m.analysis.enob
        );
        let p = bench.adc().power_w() * 1e3;
        assert!((75.0..125.0).contains(&p), "seed {seed}: power {p}");
    }
}

#[test]
fn sibling_design_family_works_end_to_end() {
    // Ref [1]'s representative configuration (10 b, 220 MS/s, 1.2 V):
    // same library, different design point — must deliver ~9.5+ ENOB at
    // near-full-scale, at lower power than the 12-bit part.
    use pipeline_adc::testbench::MeasurementSession;
    let mut sibling =
        MeasurementSession::golden(AdcConfig::sibling_220ms_10b()).expect("sibling builds");
    sibling.record_len = 4096;
    let m = sibling.measure_tone(20e6);
    assert!(m.analysis.enob > 9.3, "ENOB {}", m.analysis.enob);
    let nominal = MeasurementSession::nominal().expect("nominal builds");
    assert!(sibling.adc().power_w() < nominal.adc().power_w());
}

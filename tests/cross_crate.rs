//! Cross-crate consistency: the same physics must agree wherever it is
//! computed (bias ↔ pipeline ↔ testbench ↔ spectral).

use pipeline_adc::analog::process::{OperatingConditions, ProcessCorner};
use pipeline_adc::bias::generator::BiasGenerator;
use pipeline_adc::bias::{BiasScheme, ScBiasGenerator};
use pipeline_adc::pipeline::{AdcConfig, PipelineAdc};
use pipeline_adc::spectral::metrics::{analyze_tone, ToneAnalysisConfig};
use pipeline_adc::spectral::sinefit::fit_known_frequency;
use pipeline_adc::spectral::window::coherent_frequency;
use pipeline_adc::testbench::{MeasurementSession, SineSource, GOLDEN_SEED};

#[test]
fn converter_power_equals_power_model() {
    let adc = PipelineAdc::build(AdcConfig::nominal_110ms(), GOLDEN_SEED).expect("builds");
    let from_reading = adc.power_reading().total_w;
    let from_model = adc.power_model().total_power_w(adc.config().f_cr_hz);
    assert!((from_reading - from_model).abs() < 1e-15);
    assert_eq!(adc.power_w(), from_reading);
}

#[test]
fn eq1_flows_through_to_converter_power() {
    // Doubling the rate doubles the scaled component of the converter's
    // power — Eq. 1 visible at the top level.
    let at = |f: f64| {
        let cfg = AdcConfig {
            f_cr_hz: f,
            ..AdcConfig::nominal_110ms()
        };
        PipelineAdc::build(cfg, GOLDEN_SEED)
            .expect("builds")
            .power_reading()
    };
    let p55 = at(55e6);
    let p110 = at(110e6);
    assert!((p110.scaled_w / p55.scaled_w - 2.0).abs() < 1e-9);
    assert!((p110.fixed_w - p55.fixed_w).abs() < 1e-15);
}

#[test]
fn corner_capacitance_cancels_in_settling() {
    // The paper's tracking argument: bias ∝ C_B means GBW ∝ C/C is
    // corner-free, so SNDR at the slow-cap corner matches typical within
    // measurement noise.
    let measure = |corner: ProcessCorner| {
        let cfg = AdcConfig {
            conditions: OperatingConditions::at_corner(corner),
            ..AdcConfig::nominal_110ms()
        };
        let mut bench = MeasurementSession::new(cfg, GOLDEN_SEED).expect("builds");
        bench.record_len = 4096;
        bench.measure_tone(10e6).analysis.sndr_db
    };
    let tt = measure(ProcessCorner::Typical);
    let ss = measure(ProcessCorner::Slow);
    let ff = measure(ProcessCorner::Fast);
    assert!((tt - ss).abs() < 1.5, "TT {tt} vs SS {ss}");
    assert!((tt - ff).abs() < 1.5, "TT {tt} vs FF {ff}");
}

#[test]
fn sc_bias_tracks_the_same_die_capacitance_the_stages_use() {
    // White-box Eq. 1 check at the unit level, consistent with the
    // integration behaviour above.
    use pipeline_adc::analog::capacitor::Capacitor;
    let nominal = ScBiasGenerator::new(Capacitor::ideal(1e-12), 0.9);
    let fast_die = ScBiasGenerator::new(
        Capacitor {
            value_f: 0.85e-12,
            nominal_f: 1e-12,
        },
        0.9,
    );
    let ratio = fast_die.master_current_a(110e6) / nominal.master_current_a(110e6);
    assert!((ratio - 0.85).abs() < 1e-12);
    // And the scheme dispatch agrees with the trait object.
    let scheme = BiasScheme::Switched(nominal);
    assert_eq!(
        scheme.master_current_a(110e6),
        nominal.master_current_a(110e6)
    );
}

#[test]
fn fft_metrics_agree_with_sine_fit() {
    // Two independent SINAD estimators (FFT-based SNDR and IEEE-1057
    // residual-based SINAD) must agree on the same record.
    let mut bench = MeasurementSession::nominal().expect("builds");
    bench.record_len = 8192;
    let (codes, f_in) = bench.capture_tone(10e6);
    let record = bench.reconstruct(&codes);
    let fft = analyze_tone(&record, &ToneAnalysisConfig::coherent()).expect("analyzes");
    let f_cycles = f_in / bench.adc().config().f_cr_hz;
    let fit = fit_known_frequency(&record, f_cycles).expect("fits");
    assert!(
        (fft.sndr_db - fit.sinad_db).abs() < 1.0,
        "FFT {} vs sine-fit {}",
        fft.sndr_db,
        fit.sinad_db
    );
}

#[test]
fn coherent_capture_lands_on_predicted_bin() {
    let mut adc = PipelineAdc::build(AdcConfig::ideal(110e6), 1).expect("builds");
    let n = 4096;
    let (f_in, bin) = coherent_frequency(110e6, n, 17e6);
    let tone = SineSource::clean(0.9, f_in);
    let codes = adc.convert_waveform(&tone, n);
    let record: Vec<f64> = codes.iter().map(|&c| adc.reconstruct_v(c)).collect();
    let a = analyze_tone(&record, &ToneAnalysisConfig::coherent()).expect("analyzes");
    assert_eq!(a.fundamental_bin, bin);
}

#[test]
fn reconstruction_is_consistent_between_adc_and_session() {
    let cfg = AdcConfig::nominal_110ms();
    let adc = PipelineAdc::build(cfg.clone(), GOLDEN_SEED).expect("builds");
    let bench = MeasurementSession::new(cfg, GOLDEN_SEED).expect("builds");
    for code in [0u16, 1, 2047, 2048, 4095] {
        assert_eq!(
            adc.reconstruct_v(code),
            bench.reconstruct(&[code])[0],
            "code {code}"
        );
    }
}

#[test]
fn bias_trait_objects_interoperate_with_config_enum() {
    use pipeline_adc::bias::FixedBiasGenerator;
    let generators: Vec<Box<dyn BiasGenerator>> = vec![
        Box::new(ScBiasGenerator::new(
            pipeline_adc::analog::capacitor::Capacitor::ideal(1e-12),
            0.9,
        )),
        Box::new(FixedBiasGenerator::new(99e-6)),
    ];
    // At 110 MS/s the SC generator with these values equals the fixed one.
    let sc = generators[0].master_current_a(110e6);
    let fx = generators[1].master_current_a(110e6);
    assert!((sc - fx).abs() < 1e-12);
    // At 55 MS/s they diverge by exactly 2x.
    assert!(
        (generators[1].master_current_a(55e6) / generators[0].master_current_a(55e6) - 2.0).abs()
            < 1e-9
    );
}

#[test]
fn static_inl_predicts_the_dynamic_distortion_floor() {
    // Measure the golden die's INL (static), synthesize the distortion
    // spectrum it implies, and compare with the directly measured THD at
    // low input frequency — the static and dynamic characterisations
    // must tell one story.
    use pipeline_adc::spectral::linearity::predict_tone_from_inl;
    let mut bench = MeasurementSession::nominal().expect("builds");
    let lin = bench.measure_linearity(1 << 19).expect("histogram runs");
    let predicted =
        predict_tone_from_inl(&lin.inl_lsb, 4096, 0.999, 8192).expect("power-of-two record");
    let measured = bench.measure_tone(2e6); // low fin: static floor
    assert!(
        (predicted.thd_db - measured.analysis.thd_db).abs() < 6.0,
        "predicted THD {} vs measured {}",
        predicted.thd_db,
        measured.analysis.thd_db
    );
}

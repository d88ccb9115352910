//! Extension: per-stage operating-point report and noise budget of the
//! golden die — the numbers behind §2–3's design narrative (stage
//! scaling, high stage-1 bias, large sampling capacitors) made explicit.

use adc_pipeline::config::AdcConfig;
use adc_pipeline::converter::PipelineAdc;
use adc_pipeline::diagnostics::Diagnostics;

fn main() {
    adc_bench::banner(
        "Extension -- stage operating points and noise budget",
        "the design narrative of sections 2-3 as numbers",
    );

    let adc = PipelineAdc::build(AdcConfig::nominal_110ms(), adc_testbench::GOLDEN_SEED)
        .expect("nominal builds");
    let d = Diagnostics::of(&adc);
    println!("\n{d}");
    let measured = adc_testbench::MeasurementSession::nominal()
        .expect("nominal builds")
        .measure_tone(10e6);
    println!(
        "\npredicted SNR at -0.01 dBFS: {:.1} dB (Table I: 67.1; measured: {:.1})",
        d.noise.predicted_snr_db(0.999),
        measured.analysis.snr_db
    );
    println!("note stage 1's bias and capacitance dominating (the paper's");
    println!("\"highest specifications\"), and the 1/3-scaled back end.");
}

//! Extension: the output spectrum of the nominal die, rendered as a
//! bench spectrum analyzer would show it. Makes the Table I numbers
//! visually concrete: the 10 MHz fundamental, the −69 dBc HD3, and the
//! thermal noise floor.

use adc_spectral::fft::power_spectrum_one_sided;
use adc_spectral::metrics::{analyze_tone, ToneAnalysisConfig};
use adc_testbench::report::render_spectrum_ascii;
use adc_testbench::MeasurementSession;

fn main() {
    adc_bench::banner(
        "Extension -- output spectrum at fin = 10 MHz, 110 MS/s",
        "the record behind Table I's SNR/SNDR/SFDR rows",
    );

    let mut session = MeasurementSession::nominal().expect("nominal builds");
    let (codes, f_in) = session.capture_tone(10e6);
    let record = session.reconstruct(&codes);
    let ps = power_spectrum_one_sided(&record).expect("power-of-two record");

    println!(
        "\n8192-point coherent capture, fin = {:.4} MHz:",
        f_in / 1e6
    );
    println!("{}", render_spectrum_ascii(&ps, 96, 16, -110.0));
    println!("visible: the fundamental near 10/55 of Nyquist, harmonic spurs");
    println!("(worst ≈ −69 dBc, the paper's SFDR), and the ≈ −105 dBFS/bin");
    let snr_db = analyze_tone(&record, &ToneAnalysisConfig::coherent())
        .expect("coherent record")
        .snr_db;
    println!("noise floor that integrates to the {snr_db:.1} dB SNR.");
}

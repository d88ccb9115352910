//! Developer tool: Fig. 5 / Fig. 6 shape probes.
use adc_pipeline::{AdcConfig, PipelineAdc, Waveform};
use adc_spectral::metrics::{analyze_tone, ToneAnalysisConfig};

struct Sine {
    a: f64,
    f: f64,
}
impl Waveform for Sine {
    fn value(&self, t: f64) -> f64 {
        self.a * (2.0 * std::f64::consts::PI * self.f * t).sin()
    }
    fn slope(&self, t: f64) -> f64 {
        2.0 * std::f64::consts::PI
            * self.f
            * self.a
            * (2.0 * std::f64::consts::PI * self.f * t).cos()
    }
}

fn measure(f_cr: f64, fin: f64) -> (f64, f64, f64) {
    let n = 8192;
    let cfg = AdcConfig {
        f_cr_hz: f_cr,
        ..AdcConfig::nominal_110ms()
    };
    let mut adc = PipelineAdc::build(cfg, 7).unwrap();
    let (f, _) = adc_spectral::window::coherent_frequency_clear(f_cr, n, fin, 8).unwrap();
    let codes = adc.convert_waveform(&Sine { a: 0.999, f }, n);
    let rec: Vec<f64> = codes.iter().map(|&c| adc.reconstruct_v(c)).collect();
    let a = analyze_tone(&rec, &ToneAnalysisConfig::coherent()).unwrap();
    (a.snr_db, a.sndr_db, a.sfdr_db)
}

#[test]
#[ignore]
fn fig5_rate_sweep() {
    println!("rate(MS/s)  SNR  SNDR  SFDR");
    for f_cr in [
        5e6, 10e6, 20e6, 40e6, 60e6, 80e6, 100e6, 110e6, 120e6, 130e6, 140e6, 150e6, 160e6, 180e6,
        200e6,
    ] {
        let (snr, sndr, sfdr) = measure(f_cr, 10e6);
        println!(
            "{:6.0}  {:5.1}  {:5.1}  {:5.1}",
            f_cr / 1e6,
            snr,
            sndr,
            sfdr
        );
    }
}

#[test]
#[ignore]
fn fig6_fin_sweep() {
    println!("fin(MHz)  SNR  SNDR  SFDR");
    for fin in [
        1e6, 5e6, 10e6, 20e6, 30e6, 40e6, 50e6, 60e6, 80e6, 100e6, 120e6, 140e6, 150e6,
    ] {
        let (snr, sndr, sfdr) = measure(110e6, fin);
        println!("{:6.0}  {:5.1}  {:5.1}  {:5.1}", fin / 1e6, snr, sndr, sfdr);
    }
}

//! Interleaved-array hot-path benchmark, written to `BENCH_interleave.json`.
//!
//! Two figure families (DESIGN.md §13):
//!
//! * **convert** — single-thread interleaved `convert_waveform`
//!   samples/sec through an M-way array, one row per path the ganged
//!   server can exercise: the matched array (zero-sigma fast paths),
//!   the mismatched raw array (per-channel bandwidth filtering active),
//!   and the corrected array (fractional-delay resampler active) — so a
//!   regression in any specialized lane is visible on its own row;
//! * **calib** — background-calibration microseconds per epoch
//!   (convert + observe + apply), the recurring cost a ganged service
//!   pays while the loop is in Adapt.
//!
//! Each figure is the best window of the shared minimum-time timer
//! ([`adc_bench::timing`]). The report carries the standard provenance
//! stamp so `bench_compare` refuses cross-host comparisons.

use adc_bench::timing::best_window;
use adc_calib::{BackgroundCalibrator, CalibConfig};
use adc_pipeline::config::AdcConfig;
use adc_pipeline::interleave::{InterleaveMismatch, InterleavedAdc};
use adc_testbench::GOLDEN_SEED;

/// Record length per conversion window.
const RECORD_LEN: usize = 4096;

/// One interleaved-conversion measurement.
struct ConvertFigure {
    name: &'static str,
    samples_per_sec: f64,
    records: usize,
}

/// One calibration-epoch measurement.
struct CalibFigure {
    name: &'static str,
    us_per_epoch: f64,
    epochs: usize,
}

/// Builds an M-way array on the nominal config at `M x` the core rate.
fn build_array(m: usize, mismatch: &InterleaveMismatch) -> InterleavedAdc {
    let config = AdcConfig::nominal_110ms();
    let rate = config.f_cr_hz * m as f64;
    InterleavedAdc::build_with_mismatch(&config, m, rate, GOLDEN_SEED, mismatch)
        .expect("benchmark array builds")
}

/// The coherent-ish benchmark stimulus for an array at `rate`.
fn tone(rate: f64, amplitude: f64) -> impl Fn(f64) -> f64 {
    let (f_in, _) = adc_spectral::window::coherent_frequency(rate, RECORD_LEN, 20e6);
    move |t: f64| amplitude * (2.0 * std::f64::consts::PI * f_in * t).sin()
}

/// Times the interleaved conversion path of one array configuration.
fn bench_convert(name: &'static str, mut ilv: InterleavedAdc) -> ConvertFigure {
    let wave = tone(ilv.sample_rate_hz(), 0.9);

    // Warm up code paths and per-channel settling memory.
    ilv.reset();
    let record = ilv.convert_waveform(&wave, RECORD_LEN);
    assert_eq!(record.len(), RECORD_LEN);

    let best = best_window(&mut ilv, InterleavedAdc::reset, |ilv| {
        let record = ilv.convert_waveform(&wave, RECORD_LEN);
        assert_eq!(record.len(), RECORD_LEN);
    });
    ConvertFigure {
        name,
        samples_per_sec: RECORD_LEN as f64 / best.best_s,
        records: best.windows,
    }
}

/// Times one full background-calibration epoch (convert + observe +
/// apply) on a mismatched M-way array.
fn bench_calib(name: &'static str, m: usize) -> CalibFigure {
    let mut ilv = build_array(m, &InterleaveMismatch::typical());
    let rate = ilv.sample_rate_hz();
    let wave = tone(rate, 0.9);
    let mut cal = BackgroundCalibrator::new(m, rate, CalibConfig::default());

    // Warm-up epoch.
    let record = ilv.convert_waveform(&wave, RECORD_LEN);
    cal.observe(&record).expect("epoch record is long enough");
    cal.apply_to(&mut ilv);

    let best = best_window(
        &mut ilv,
        |_| {},
        |ilv| {
            let record = ilv.convert_waveform(&wave, RECORD_LEN);
            cal.observe(&record).expect("epoch record is long enough");
            cal.apply_to(ilv);
        },
    );
    CalibFigure {
        name,
        us_per_epoch: best.best_s * 1e6,
        epochs: best.windows,
    }
}

/// A mismatched array with the fractional-delay corrector engaged:
/// cancel the drawn skews exactly, so every output lane resamples.
fn corrected_array(m: usize) -> InterleavedAdc {
    let mut ilv = build_array(m, &InterleaveMismatch::typical());
    let delays: Vec<f64> = ilv.channel_skews_s().iter().map(|&s| -s).collect();
    let zeros = vec![0.0; m];
    let ones = vec![1.0; m];
    ilv.set_corrections(&zeros, &ones, &delays);
    ilv
}

fn main() {
    adc_bench::banner(
        "Interleaved array -- conversion and background-calibration hot paths",
        "single-thread ganged-array throughput (BENCH_interleave.json)",
    );

    let converts = vec![
        bench_convert("m2_matched", build_array(2, &InterleaveMismatch::none())),
        bench_convert(
            "m2_mismatch_raw",
            build_array(2, &InterleaveMismatch::typical()),
        ),
        bench_convert("m2_mismatch_corrected", corrected_array(2)),
        bench_convert("m4_mismatch_corrected", corrected_array(4)),
    ];
    for c in &converts {
        println!(
            "convert {:<22} {:>10.0} samples/sec  (best of {} records of {})",
            c.name, c.samples_per_sec, c.records, RECORD_LEN
        );
    }

    let calibs = vec![bench_calib("m2", 2), bench_calib("m4", 4)];
    for c in &calibs {
        println!(
            "calib   {:<22} {:>10.1} us/epoch     (best of {} epochs of {})",
            c.name, c.us_per_epoch, c.epochs, RECORD_LEN
        );
    }

    let convert_json: Vec<String> = converts
        .iter()
        .map(|c| {
            format!(
                "    {{ \"name\": \"{}\", \"samples_per_sec\": {:.0}, \"records\": {} }}",
                c.name, c.samples_per_sec, c.records
            )
        })
        .collect();
    let calib_json: Vec<String> = calibs
        .iter()
        .map(|c| {
            format!(
                "    {{ \"name\": \"{}\", \"us_per_epoch\": {:.3}, \"epochs\": {} }}",
                c.name, c.us_per_epoch, c.epochs
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"interleaved array and background calibration\",\n  {},\n  \"record_len\": {},\n  \"convert\": [\n{}\n  ],\n  \"calib\": [\n{}\n  ]\n}}\n",
        adc_bench::Provenance::capture().json_entry(),
        RECORD_LEN,
        convert_json.join(",\n"),
        calib_json.join(",\n"),
    );
    std::fs::write("BENCH_interleave.json", &json).expect("write BENCH_interleave.json");
    println!("\nwrote BENCH_interleave.json");
}

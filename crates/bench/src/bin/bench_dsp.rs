//! DSP hot-path kernel benchmark, written to `BENCH_dsp.json`.
//!
//! Four figure families (DESIGN.md §12):
//!
//! * **conversion** — single-thread `convert_waveform_into` samples/sec
//!   on the capture path (RF generator → band-pass filter → ADC) with
//!   each non-ideality toggled, so a regression in any specialized path
//!   (jitter-off, thermal-off, ripple-on) is visible on its own row;
//! * **lanes** — `LaneBatch` (N dies, each converting through the
//!   systolic kernel in turn) at 1, 4, and 8 lanes on the same capture
//!   path, total samples/sec across all lanes plus the speedup over the
//!   scalar `nominal` row measured in the same run (the 1-lane row is
//!   the scalar kernel itself);
//! * **fft** — `fft_real_into` microseconds per call and per point at
//!   the record lengths the testbench actually uses (1k..16k);
//! * **kernels** — microseconds per call of the paper's remaining
//!   kernels: die fabrication, the Table I / Fig. 5–6 metrology
//!   (`analyze_tone`, `sine_histogram`), foreground calibration, the
//!   digital correction logic (`DigitalBackend::clock`,
//!   `correction_sum`), the Eq. 1 bias current and the Fig. 4 power
//!   sweep.
//!
//! All loops are single-threaded and run through the allocation-free
//! `_into` APIs where one exists. Each figure is the best window of the
//! shared minimum-time timer ([`adc_bench::timing`]). The report carries
//! the same provenance stamp as the other `BENCH_*.json` artifacts so
//! `bench_compare` can refuse cross-host comparisons.

use std::hint::black_box;

use adc_analog::capacitor::Capacitor;
use adc_bench::timing::best_window;
use adc_bias::generator::{BiasGenerator, ScBiasGenerator};
use adc_digital::adder::correction_sum;
use adc_digital::backend::{CycleWords, DigitalBackend};
use adc_pipeline::calibration::{calibrate_foreground, training_levels};
use adc_pipeline::config::AdcConfig;
use adc_pipeline::converter::PipelineAdc;
use adc_pipeline::lanes::LaneBatch;
use adc_spectral::fft::fft_real_into;
use adc_spectral::linearity::sine_histogram;
use adc_spectral::metrics::{analyze_tone, ToneAnalysisConfig};
use adc_spectral::plan::SpectralScratch;
use adc_spectral::window::coherent_frequency_clear;
use adc_testbench::filter::BandpassFilter;
use adc_testbench::signal::SineSource;
use adc_testbench::sweep::SweepRunner;
use adc_testbench::GOLDEN_SEED;

/// Record length for the conversion benchmark (the session default).
const RECORD_LEN: usize = 8192;

/// Calls per FFT timing window (one window is timed as a unit).
const FFT_WINDOW_CALLS: usize = 16;

/// One conversion-loop measurement.
struct ConversionFigure {
    name: &'static str,
    samples_per_sec: f64,
    records: usize,
}

/// One lane-batch measurement: N nominal dies (seeds `1..=N`)
/// converting the shared capture waveform, one die after another
/// through the systolic kernel. `samples_per_sec` counts every lane's
/// samples; `speedup_vs_scalar` divides by the scalar `nominal` row
/// measured in the same run, so the figure is host-relative by
/// construction.
struct LaneFigure {
    lanes: usize,
    samples_per_sec: f64,
    speedup_vs_scalar: f64,
    records: usize,
}

/// One per-call measurement (an `fft` or `kernels` row).
struct CallFigure {
    us_per_call: f64,
    calls: usize,
}

/// A `kernels` row: its name, calls per timing window (enough that a
/// window is well above timer resolution), and the call itself.
type Kernel = (&'static str, usize, Box<dyn FnMut()>);

/// The non-ideality toggles of the conversion benchmark: the default
/// configuration first (the acceptance figure), then each specialized
/// path on its own row.
fn conversion_configs() -> Vec<(&'static str, AdcConfig)> {
    let nominal = AdcConfig::nominal_110ms();
    let jitter_off = AdcConfig {
        jitter: adc_analog::noise::ApertureJitter::none(),
        ..nominal.clone()
    };
    let thermal_off = AdcConfig {
        thermal_noise: false,
        ..nominal.clone()
    };
    let ripple_on = AdcConfig {
        supply_ripple_v: 50e-3,
        supply_ripple_hz: 5.02e6,
        psrr_db: 40.0,
        ..nominal.clone()
    };
    vec![
        ("nominal", nominal),
        ("jitter_off", jitter_off),
        ("thermal_noise_off", thermal_off),
        ("ripple_on", ripple_on),
        ("ideal", AdcConfig::ideal(110e6)),
    ]
}

/// Times the capture path of one configuration: RF generator →
/// band-pass filter → `convert_waveform_into`, single thread. One
/// record is one timing window; the fastest record is the figure.
fn bench_conversion(name: &'static str, config: AdcConfig) -> ConversionFigure {
    let f_cr = config.f_cr_hz;
    let mut adc = PipelineAdc::build(config, GOLDEN_SEED).expect("benchmark config builds");
    let (f_in, _) = coherent_frequency_clear(f_cr, RECORD_LEN, 10e6, 8)
        .expect("an 8k record always has a clear tone bin");
    let generator = SineSource::rf_generator(0.995 * adc.config().v_ref_v, f_in);
    let filtered = BandpassFilter::passive_high_order(f_in).clean(&generator);

    // Warm up settling/tracking memory, code paths, and buffers.
    let mut codes = Vec::new();
    adc.reset();
    adc.convert_waveform_into(&filtered, 1024, &mut codes);
    assert_eq!(codes.len(), 1024);

    let best = best_window(&mut adc, PipelineAdc::reset, |adc| {
        adc.convert_waveform_into(&filtered, RECORD_LEN, &mut codes);
    });
    assert_eq!(codes.len(), RECORD_LEN);
    ConversionFigure {
        name,
        samples_per_sec: RECORD_LEN as f64 / best.best_s,
        records: best.windows,
    }
}

/// Times the lane-batched capture path at one lane count: the same RF
/// generator → band-pass filter stimulus as [`bench_conversion`]'s
/// nominal row, converted by `n_lanes` Monte-Carlo dies in one batch.
/// One batch record (all lanes) is one timing window; the fastest
/// window is the figure.
fn bench_lanes(n_lanes: usize, scalar_samples_per_sec: f64) -> LaneFigure {
    let config = AdcConfig::nominal_110ms();
    let f_cr = config.f_cr_hz;
    let seeds: Vec<u64> = (1..=n_lanes as u64).collect();
    let mut batch = LaneBatch::build(&config, &seeds).expect("benchmark config builds");
    let (f_in, _) = coherent_frequency_clear(f_cr, RECORD_LEN, 10e6, 8)
        .expect("an 8k record always has a clear tone bin");
    let generator = SineSource::rf_generator(0.995 * batch.lanes()[0].config().v_ref_v, f_in);
    let filtered = BandpassFilter::passive_high_order(f_in).clean(&generator);

    // Warm up settling/tracking memory, code paths, and buffers.
    let mut outs = vec![Vec::new(); n_lanes];
    batch.reset();
    batch.convert_waveform_into(&filtered, 1024, &mut outs);
    assert!(outs.iter().all(|o| o.len() == 1024));

    let best = best_window(&mut batch, LaneBatch::reset, |batch| {
        batch.convert_waveform_into(&filtered, RECORD_LEN, &mut outs);
    });
    assert!(outs.iter().all(|o| o.len() == RECORD_LEN));
    let samples_per_sec = (n_lanes * RECORD_LEN) as f64 / best.best_s;
    LaneFigure {
        lanes: n_lanes,
        samples_per_sec,
        speedup_vs_scalar: samples_per_sec / scalar_samples_per_sec.max(1e-12),
        records: best.windows,
    }
}

/// Times `call` in windows of `calls_per_window` calls after one
/// warm-up call; the fastest window is the figure.
fn time_calls(calls_per_window: usize, mut call: impl FnMut()) -> CallFigure {
    call();
    let best = best_window(
        &mut call,
        |_| {},
        |call| {
            for _ in 0..calls_per_window {
                call();
            }
        },
    );
    CallFigure {
        us_per_call: best.best_s * 1e6 / calls_per_window as f64,
        calls: best.windows * calls_per_window,
    }
}

/// Times `fft_real_into` at one record length on a deterministic
/// signal, warm scratch (the warm-up call populates the plan cache and
/// sizes the scratch).
fn bench_fft(n: usize) -> CallFigure {
    // Deterministic broadband test signal (tone + LCG dither).
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let signal: Vec<f64> = (0..n)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let dither = ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
            (2.0 * std::f64::consts::PI * 479.0 * i as f64 / n as f64).sin() + 1e-3 * dither
        })
        .collect();
    let mut scratch = SpectralScratch::new();
    let mut spectrum = Vec::new();
    let figure = time_calls(FFT_WINDOW_CALLS, || {
        fft_real_into(&signal, &mut scratch, &mut spectrum).expect("power-of-two length");
        black_box(&spectrum);
    });
    assert_eq!(spectrum.len(), n);
    figure
}

/// The `kernels` rows, each on the input its paper figure uses.
fn kernels() -> Vec<Kernel> {
    let nominal = AdcConfig::nominal_110ms();

    let mut seed = 0u64;
    let fabricate_config = nominal.clone();
    let fabricate = move || {
        seed = seed.wrapping_add(1);
        black_box(PipelineAdc::build(fabricate_config.clone(), seed).expect("config builds"));
    };

    // A coherent 8k tone with a -80 dB third harmonic.
    let n = 8192;
    let tone: Vec<f64> = (0..n)
        .map(|i| {
            let phase = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
            (745.0 * phase).sin() + 1e-4 * (2235.0 * phase).sin()
        })
        .collect();
    let tone_config = ToneAnalysisConfig::coherent();
    let analyze = move || {
        black_box(analyze_tone(&tone, &tone_config).expect("valid record"));
    };

    // An overdriven 12-bit sine record for the code-density test.
    let codes: Vec<u32> = (0..1u32 << 18)
        .map(|i| {
            let v = 1.02 * (0.317_233_091 * f64::from(i)).sin();
            (((v + 1.0) / 2.0 * 4096.0).floor() as i64).clamp(0, 4095) as u32
        })
        .collect();
    let histogram = move || {
        black_box(sine_histogram(&codes, 4096).expect("overdriven record"));
    };

    let mut adc = PipelineAdc::build(nominal, 7).expect("config builds");
    let levels = training_levels(256, 1.0);
    let calibrate = move || {
        black_box(calibrate_foreground(&mut adc, &levels, 1).expect("calibrates"));
    };

    let mut backend = DigitalBackend::new(10);
    let words = CycleWords {
        stage_words: vec![1, 2, 0, 1, 2, 1, 0, 2, 1, 1],
        flash_word: 2,
    };
    let clock = move || {
        black_box(backend.clock(black_box(&words)));
    };
    let stage_words = [1u8, 2, 0, 1, 2, 1, 0, 2, 1, 1];
    let correct = move || {
        black_box(correction_sum(black_box(&stage_words), 3));
    };

    let generator = ScBiasGenerator::new(Capacitor::ideal(1e-12), 0.9);
    let mut f_cr = 1e6;
    let eq1 = move || {
        f_cr += 1.0;
        black_box(generator.master_current_a(black_box(f_cr)));
    };

    let runner = SweepRunner::nominal();
    let rates: Vec<f64> = (1..=26).map(|i| f64::from(i) * 5e6).collect();
    let sweep = move || {
        black_box(runner.power_sweep(&rates).expect("all rates build"));
    };

    vec![
        ("fabricate_nominal_die", 16, Box::new(fabricate)),
        ("analyze_tone_8192", 1, Box::new(analyze)),
        ("sine_histogram_262144", 1, Box::new(histogram)),
        ("calibrate_foreground_256", 1, Box::new(calibrate)),
        ("backend_clock_10_stage", 256, Box::new(clock)),
        ("correction_sum_10_stage", 256, Box::new(correct)),
        ("eq1_master_current", 16384, Box::new(eq1)),
        ("fig4_power_sweep_26pt", 1, Box::new(sweep)),
    ]
}

fn main() {
    adc_bench::banner(
        "DSP kernels -- conversion loop, real-input FFT, and paper-kernel hot paths",
        "single-thread kernel throughput (BENCH_dsp.json)",
    );

    let conversions: Vec<ConversionFigure> = conversion_configs()
        .into_iter()
        .map(|(name, config)| bench_conversion(name, config))
        .collect();
    for c in &conversions {
        println!(
            "conversion {:<18} {:>10.0} samples/sec  (best of {} records of {})",
            c.name, c.samples_per_sec, c.records, RECORD_LEN
        );
    }

    let scalar_nominal = conversions
        .iter()
        .find(|c| c.name == "nominal")
        .map(|c| c.samples_per_sec)
        .expect("nominal row is always measured");
    let lane_figures: Vec<LaneFigure> = [1usize, 4, 8]
        .iter()
        .map(|&n| bench_lanes(n, scalar_nominal))
        .collect();
    for l in &lane_figures {
        println!(
            "lanes      {:<14} {:>10.0} samples/sec  {:>5.2}x vs scalar  (best of {} batch records)",
            l.lanes, l.samples_per_sec, l.speedup_vs_scalar, l.records
        );
    }

    let ffts: Vec<(usize, CallFigure)> = [1024usize, 4096, 8192, 16384]
        .into_iter()
        .map(|n| (n, bench_fft(n)))
        .collect();
    for (n, f) in &ffts {
        println!(
            "fft_real n={:<6} {:>9.1} us/call  {:>8.4} us/point  (best window of {} calls)",
            n,
            f.us_per_call,
            f.us_per_call / *n as f64,
            f.calls
        );
    }

    let kernel_figures: Vec<(&str, CallFigure)> = kernels()
        .into_iter()
        .map(|(name, per_window, call)| (name, time_calls(per_window, call)))
        .collect();
    for (name, k) in &kernel_figures {
        println!(
            "kernel     {:<26} {:>12.4} us/call  ({} calls)",
            name, k.us_per_call, k.calls
        );
    }

    let conv_json: Vec<String> = conversions
        .iter()
        .map(|c| {
            format!(
                "    {{ \"name\": \"{}\", \"samples_per_sec\": {:.0}, \"records\": {} }}",
                c.name, c.samples_per_sec, c.records
            )
        })
        .collect();
    let lanes_json: Vec<String> = lane_figures
        .iter()
        .map(|l| {
            format!(
                "    {{ \"lanes\": {}, \"samples_per_sec\": {:.0}, \"speedup_vs_scalar\": {:.3}, \"records\": {} }}",
                l.lanes, l.samples_per_sec, l.speedup_vs_scalar, l.records
            )
        })
        .collect();
    let fft_json: Vec<String> = ffts
        .iter()
        .map(|(n, f)| {
            format!(
                "    {{ \"n\": {}, \"us_per_call\": {:.3}, \"us_per_point\": {:.6}, \"calls\": {} }}",
                n,
                f.us_per_call,
                f.us_per_call / *n as f64,
                f.calls
            )
        })
        .collect();
    let kernels_json: Vec<String> = kernel_figures
        .iter()
        .map(|(name, k)| {
            format!(
                "    {{ \"name\": \"{}\", \"us_per_call\": {:.6}, \"calls\": {} }}",
                name, k.us_per_call, k.calls
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"dsp hot-path kernels\",\n  {},\n  \"record_len\": {},\n  \"conversion\": [\n{}\n  ],\n  \"lanes\": [\n{}\n  ],\n  \"fft\": [\n{}\n  ],\n  \"kernels\": [\n{}\n  ]\n}}\n",
        adc_bench::Provenance::capture().json_entry(),
        RECORD_LEN,
        conv_json.join(",\n"),
        lanes_json.join(",\n"),
        fft_json.join(",\n"),
        kernels_json.join(",\n"),
    );
    std::fs::write("BENCH_dsp.json", &json).expect("write BENCH_dsp.json");
    println!("\nwrote BENCH_dsp.json");
}

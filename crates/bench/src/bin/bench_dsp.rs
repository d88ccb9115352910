//! DSP hot-path kernel benchmark, written to `BENCH_dsp.json`.
//!
//! Two figure families (DESIGN.md §12):
//!
//! * **conversion** — single-thread `convert_waveform_into` samples/sec
//!   on the capture path (RF generator → band-pass filter → ADC) with
//!   each non-ideality toggled, so a regression in any specialized path
//!   (jitter-off, thermal-off, ripple-on) is visible on its own row;
//! * **lanes** — `LaneBatch` (N dies, each converting through the
//!   systolic kernel in turn) at 1, 4, and 8 lanes on the same capture
//!   path, total samples/sec across all lanes plus the speedup over the
//!   scalar `nominal` row measured in the same run (the figure the CI
//!   lanes gate holds; the 1-lane row is the scalar kernel itself);
//! * **fft** — `fft_real_into` microseconds per call and per point at
//!   the record lengths the testbench actually uses (1k..16k), the
//!   figure the planned real-input FFT is accountable to.
//!
//! All loops are single-threaded and run through the allocation-free
//! `_into` APIs (the capture hot path since the planned-kernel rework).
//! Each figure is the **best window** out of many short measurement
//! windows covering at least `MIN_WALL_S` of wall time: the minimum-time
//! estimator reports the kernel's actual cost and discards scheduler
//! preemption and noisy-neighbor stalls, which on shared hosts can
//! inflate a single-window mean by 2-4x. The report carries the same
//! provenance stamp as the other `BENCH_*.json` artifacts so
//! `bench_compare` can refuse cross-host comparisons.

use std::time::Instant;

use adc_pipeline::config::AdcConfig;
use adc_pipeline::converter::PipelineAdc;
use adc_pipeline::lanes::LaneBatch;
use adc_spectral::fft::fft_real_into;
use adc_spectral::plan::SpectralScratch;
use adc_spectral::window::coherent_frequency_clear;
use adc_testbench::filter::BandpassFilter;
use adc_testbench::signal::SineSource;
use adc_testbench::GOLDEN_SEED;

/// Minimum total wall time per measurement, seconds.
const MIN_WALL_S: f64 = 0.3;

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
/// samples;
/// `speedup_vs_scalar` divides by the scalar `nominal` row measured in
/// the same run, so the figure is host-relative by construction.
struct LaneFigure {
    lanes: usize,
    samples_per_sec: f64,
    speedup_vs_scalar: f64,
    records: usize,
}

/// One FFT measurement.
struct FftFigure {
    n: usize,
    us_per_call: f64,
    us_per_point: f64,
    calls: usize,
}

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

    let mut records = 0usize;
    let mut best_record_s = f64::INFINITY;
    let start = Instant::now();
    loop {
        adc.reset();
        let window = Instant::now();
        adc.convert_waveform_into(&filtered, RECORD_LEN, &mut codes);
        best_record_s = best_record_s.min(window.elapsed().as_secs_f64());
        assert_eq!(codes.len(), RECORD_LEN);
        records += 1;
        if start.elapsed().as_secs_f64() >= MIN_WALL_S && records >= 4 {
            break;
        }
    }
    ConversionFigure {
        name,
        samples_per_sec: RECORD_LEN as f64 / best_record_s.max(1e-12),
        records,
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

    let mut records = 0usize;
    let mut best_record_s = f64::INFINITY;
    let start = Instant::now();
    loop {
        batch.reset();
        let window = Instant::now();
        batch.convert_waveform_into(&filtered, RECORD_LEN, &mut outs);
        best_record_s = best_record_s.min(window.elapsed().as_secs_f64());
        records += 1;
        if start.elapsed().as_secs_f64() >= MIN_WALL_S && records >= 4 {
            break;
        }
    }
    let samples_per_sec = (n_lanes * RECORD_LEN) as f64 / best_record_s.max(1e-12);
    LaneFigure {
        lanes: n_lanes,
        samples_per_sec,
        speedup_vs_scalar: samples_per_sec / scalar_samples_per_sec.max(1e-12),
        records,
    }
}

/// Times `fft_real_into` at one record length on a deterministic
/// signal, warm scratch. Windows of [`FFT_WINDOW_CALLS`] calls are
/// timed as a unit; the fastest window is the figure.
fn bench_fft(n: usize) -> FftFigure {
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

    // Warm-up call: populates the plan cache and sizes the scratch.
    let mut scratch = SpectralScratch::new();
    let mut spectrum = Vec::new();
    fft_real_into(&signal, &mut scratch, &mut spectrum).expect("power-of-two length");
    assert_eq!(spectrum.len(), n);

    let mut calls = 0usize;
    let mut sink = 0.0f64;
    let mut best_window_s = f64::INFINITY;
    let start = Instant::now();
    loop {
        let window = Instant::now();
        for _ in 0..FFT_WINDOW_CALLS {
            fft_real_into(&signal, &mut scratch, &mut spectrum).expect("power-of-two length");
            sink += spectrum[1].re;
        }
        best_window_s = best_window_s.min(window.elapsed().as_secs_f64());
        calls += FFT_WINDOW_CALLS;
        if start.elapsed().as_secs_f64() >= MIN_WALL_S && calls >= 4 * FFT_WINDOW_CALLS {
            break;
        }
    }
    assert!(sink.is_finite());
    let us_per_call = best_window_s * 1e6 / FFT_WINDOW_CALLS as f64;
    FftFigure {
        n,
        us_per_call,
        us_per_point: us_per_call / n as f64,
        calls,
    }
}

fn main() {
    adc_bench::banner(
        "DSP kernels -- conversion loop and real-input FFT hot paths",
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

    let ffts: Vec<FftFigure> = [1024usize, 4096, 8192, 16384]
        .iter()
        .map(|&n| bench_fft(n))
        .collect();
    for f in &ffts {
        println!(
            "fft_real n={:<6} {:>9.1} us/call  {:>8.4} us/point  (best window of {} calls)",
            f.n, f.us_per_call, f.us_per_point, f.calls
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
        .map(|f| {
            format!(
                "    {{ \"n\": {}, \"us_per_call\": {:.3}, \"us_per_point\": {:.6}, \"calls\": {} }}",
                f.n, f.us_per_call, f.us_per_point, f.calls
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"dsp hot-path kernels\",\n  {},\n  \"record_len\": {},\n  \"conversion\": [\n{}\n  ],\n  \"lanes\": [\n{}\n  ],\n  \"fft\": [\n{}\n  ]\n}}\n",
        adc_bench::Provenance::capture().json_entry(),
        RECORD_LEN,
        conv_json.join(",\n"),
        lanes_json.join(",\n"),
        fft_json.join(",\n"),
    );
    std::fs::write("BENCH_dsp.json", &json).expect("write BENCH_dsp.json");
    println!("\nwrote BENCH_dsp.json");
}

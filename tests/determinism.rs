//! Determinism contract of the `adc-runtime` campaign engine, end to
//! end: the same Monte-Carlo yield campaign must be **bit-identical**
//! at 1, 2, and 8 worker threads, and — via a recorded result hash —
//! across compilation profiles (debug vs release; see `ci.sh`, which
//! runs this test in both profiles against one
//! `ADC_DETERMINISM_HASH_FILE`).

use pipeline_adc::pipeline::AdcConfig;
use pipeline_adc::runtime::{canonical_key, CacheCodec, Campaign, JobError};
use pipeline_adc::testbench::montecarlo::{run_monte_carlo_with, MonteCarloResult};
use pipeline_adc::testbench::sweep::SweepRunner;
use pipeline_adc::testbench::{LaneBench, MeasurementSession, RunPolicy};

fn yield_campaign(threads: usize) -> MonteCarloResult {
    run_monte_carlo_with(
        &AdcConfig::nominal_110ms(),
        8,
        10e6,
        1024,
        &RunPolicy::parallel(threads),
    )
    .expect("campaign runs")
}

/// A stable 64-bit digest of a campaign result, built from the
/// bit-exact `CacheCodec` encodings (f64s as IEEE-754 bit patterns).
fn digest(mc: &MonteCarloResult) -> u64 {
    let lines: Vec<String> = mc.dies.iter().map(CacheCodec::encode).collect();
    canonical_key("determinism-digest", &lines)
}

#[test]
fn monte_carlo_is_bit_identical_at_1_2_and_8_threads() {
    let serial = yield_campaign(1);
    let two = yield_campaign(2);
    let eight = yield_campaign(8);
    assert_eq!(serial, two, "2 threads diverged from serial");
    assert_eq!(serial, eight, "8 threads diverged from serial");
    assert_eq!(digest(&serial), digest(&eight));
}

#[test]
fn sweeps_are_bit_identical_across_thread_counts() {
    let run = |threads: usize| {
        let runner = SweepRunner {
            record_len: 1024,
            policy: RunPolicy::parallel(threads),
            ..SweepRunner::nominal()
        };
        (
            runner.rate_sweep(&[40e6, 80e6, 110e6], 10e6).unwrap(),
            runner.frequency_sweep(&[10e6, 40e6, 100e6]).unwrap(),
        )
    };
    let serial = run(1);
    assert_eq!(serial, run(2));
    assert_eq!(serial, run(8));
}

#[test]
fn derived_seeds_do_not_depend_on_scheduling() {
    let seeds_at = |threads: usize| -> Vec<u64> {
        Campaign::new("seed-probe", 0xDEC0DE)
            .jobs(0u64..64)
            .threads(threads)
            .run(|ctx, _| Ok::<_, JobError>(ctx.seed))
            .into_result()
            .unwrap()
    };
    let serial = seeds_at(1);
    assert_eq!(serial, seeds_at(2));
    assert_eq!(serial, seeds_at(8));
    // And they are genuinely distinct per job (SplitMix64 mixing).
    let mut sorted = serial.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), serial.len());
}

/// The tracing subsystem's determinism contract (DESIGN.md §11): a
/// campaign run with a collector installed is bit-identical to the same
/// campaign with tracing disabled. Instrumentation observes; it never
/// perturbs.
#[test]
fn tracing_on_and_off_are_bit_identical() {
    let untraced = yield_campaign(2);
    let session =
        pipeline_adc::trace::Collector::install().expect("no other collector in this binary");
    let traced = yield_campaign(2);
    let trace = session.finish();
    assert!(!trace.is_empty(), "instrumented campaign records spans");
    assert_eq!(untraced, traced, "tracing perturbed campaign results");
    assert_eq!(digest(&untraced), digest(&traced));
}

/// The lane bench's determinism contract: at 1, 4, and 8 dies, with
/// aperture jitter on and off, every die's record captured through a
/// shared-stimulus [`LaneBench`] is **bit-identical** to a
/// [`MeasurementSession`] capture on that die alone — and the whole
/// laned corpus hashes to the same digest across compilation profiles
/// via `ADC_DETERMINISM_LANES_HASH_FILE` (recorded on first run,
/// compared on later runs; `ci.sh determinism` runs this test in debug
/// and release against one file).
#[test]
fn laned_and_scalar_paths_are_bit_identical() {
    const RECORD: usize = 512;
    const F_TARGET: f64 = 9.7e6;
    let jitter_off = AdcConfig {
        jitter: pipeline_adc::analog::noise::ApertureJitter::none(),
        ..AdcConfig::nominal_110ms()
    };
    let mut corpus: Vec<String> = Vec::new();
    for (name, config) in [
        ("jitter_on", AdcConfig::nominal_110ms()),
        ("jitter_off", jitter_off),
    ] {
        for lanes in [1usize, 4, 8] {
            let seeds: Vec<u64> = (1..=lanes as u64).map(|s| 100 * s + 7).collect();
            let mut bench = LaneBench::new(config.clone(), &seeds).expect("dies build");
            bench.record_len = RECORD;
            let mut records = vec![Vec::new(); lanes];
            bench.capture_tone_into(F_TARGET, &mut records);
            for (lane, seed) in seeds.iter().enumerate() {
                let mut session =
                    MeasurementSession::new(config.clone(), *seed).expect("die builds");
                session.record_len = RECORD;
                let (alone, _) = session.capture_tone(F_TARGET);
                assert_eq!(
                    records[lane], alone,
                    "{name}: lane {lane}/{lanes} diverged from its session at seed {seed}"
                );
                let codes: Vec<u64> = alone.iter().map(|&c| u64::from(c)).collect();
                corpus.push(format!(
                    "{name}/{lanes}/{lane}:{}",
                    CacheCodec::encode(&codes)
                ));
            }
        }
    }
    let digest = format!("{:016x}", canonical_key("lanes-digest", &corpus));
    let Ok(path) = std::env::var("ADC_DETERMINISM_LANES_HASH_FILE") else {
        return; // no cross-profile anchor requested
    };
    match std::fs::read_to_string(&path) {
        Ok(recorded) if !recorded.trim().is_empty() => assert_eq!(
            recorded.trim(),
            digest,
            "laned digest diverged from the one recorded at {path}"
        ),
        _ => std::fs::write(&path, format!("{digest}\n")).expect("hash file writable"),
    }
}

/// Cross-profile determinism: hashes the 8-die campaign and compares it
/// against `ADC_DETERMINISM_HASH_FILE` when that variable is set —
/// recording the hash on first run, comparing on subsequent runs. The
/// CI script runs this test in debug and release against the same file,
/// turning "release vs debug bit-identity" into an assertion.
#[test]
fn recorded_hash_matches_across_profiles() {
    let digest = format!("{:016x}", digest(&yield_campaign(4)));
    let Ok(path) = std::env::var("ADC_DETERMINISM_HASH_FILE") else {
        return; // no cross-profile anchor requested
    };
    match std::fs::read_to_string(&path) {
        Ok(recorded) if !recorded.trim().is_empty() => assert_eq!(
            recorded.trim(),
            digest,
            "campaign digest diverged from the one recorded at {path}"
        ),
        _ => std::fs::write(&path, format!("{digest}\n")).expect("hash file writable"),
    }
}

//! The `campaign` workload: figure regeneration in-process through
//! `adc-runtime`, with the policy the figure binaries use (scalar, one
//! worker, an on-disk result cache).
//!
//! One pass regenerates the Fig. 5 rate sweep, the Fig. 6 input
//! sweep, a Monte-Carlo yield run and a few M=4 background-calibrated
//! ganged captures. Each pass starts cold on an empty cache directory
//! (cache writes), then reruns warm on the same directory (cache
//! reads); the two must agree, and the paper's claims must hold.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use adc_calib::{Alignment, GangedScenario};
use adc_pipeline::config::AdcConfig;
use adc_pipeline::interleave::InterleaveMismatch;
use adc_runtime::{
    Campaign, CampaignSummary, JobError, JobId, JobReport, ResultCache, RunObserver,
};
use adc_spectral::fft::power_spectrum_one_sided;
use adc_spectral::metrics::{analyze_tone, ToneAnalysisConfig};
use adc_testbench::experiments::{run_fig5_with, run_fig6_with, Fig5Result, Fig6Result};
use adc_testbench::montecarlo::{run_monte_carlo_with, MonteCarloResult};
use adc_testbench::{MeasurementSession, RunPolicy};

use crate::gen::Rng;
use crate::layers;
use crate::report::{self, Run};
use crate::stats;

/// Record length of the figure sweeps.
const FIG_RECORD: usize = 8192;
/// Dies in the Monte-Carlo yield run.
const MC_DIES: usize = 32;
/// Record length of each Monte-Carlo die.
const MC_RECORD: usize = 4096;
/// Stimulus of the Monte-Carlo run.
const MC_TONE_HZ: f64 = 10e6;
/// Ganged captures per pass.
const GANGED: usize = 3;
/// Channels per ganged capture.
const GANGED_CHANNELS: u32 = 4;
/// Samples per ganged capture.
const GANGED_RECORD: u32 = 4096;
/// Jobs per pass: Fig. 5 has 9 rates, Fig. 6 four frequencies.
const JOBS_PER_PASS: usize = 9 + 4 + MC_DIES + GANGED;
/// Limit on a job's completion time after its pass starts, for
/// `within_slo.high`.
pub const SLO: Duration = Duration::from_millis(250);
/// Requests a p99 needs under the ten-beyond rule, plus headroom.
const P99_JOBS: usize = 1_050;

/// The seed-derived part of a pass: which dies the ganged captures
/// fabricate. The figures and the yield run keep the dies the figure
/// binaries use (the golden die, and seeds 1 to 32), which the paper's
/// claims are stated for.
#[derive(Debug, Clone)]
pub struct Inputs {
    ganged: Vec<u64>,
}

impl Inputs {
    /// The inputs under workload seed `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, "campaign");
        Self {
            ganged: (0..GANGED).map(|_| rng.next_u64() >> 20).collect(),
        }
    }
}

/// Everything a pass produces.
#[derive(Debug, Clone, PartialEq)]
struct Results {
    fig5: Fig5Result,
    fig6: Fig6Result,
    mc: MonteCarloResult,
    ganged: Vec<(f64, f64, f64)>,
}

impl Results {
    /// The paper-claim checks that apply (EXPERIMENTS.md), by name.
    fn claims(&self) -> Vec<(&'static str, bool)> {
        vec![
            ("Fig. 5 SNDR bands", self.fig5.claims_hold()),
            ("Fig. 6 SNR/SNDR/SFDR", self.fig6.claims_hold()),
            (
                "Monte-Carlo run measured every die",
                self.mc.dies.len() == MC_DIES,
            ),
            (
                "ganged captures analyze",
                self.ganged
                    .iter()
                    .all(|&(a, b, c)| a.is_finite() && b.is_finite() && c.is_finite()),
            ),
        ]
    }
}

/// Per-pass timings the runtime reports through its observer hooks.
#[derive(Debug, Default)]
struct Timings {
    start: Option<Instant>,
    job_wall_ms: Vec<f64>,
    job_done_ms: Vec<f64>,
    busy: Duration,
}

#[derive(Debug, Default)]
struct Observer(Mutex<Timings>);

impl Observer {
    fn begin(&self) {
        *self.0.lock().expect("observer lock") = Timings {
            start: Some(Instant::now()),
            ..Timings::default()
        };
    }

    fn take(&self) -> Timings {
        std::mem::take(&mut *self.0.lock().expect("observer lock"))
    }
}

impl RunObserver for Observer {
    fn on_job_finish(&self, _id: JobId, report: &JobReport) {
        let mut t = self.0.lock().expect("observer lock");
        let done = t.start.map_or(0.0, |s| s.elapsed().as_secs_f64() * 1e3);
        t.job_wall_ms.push(report.wall.as_secs_f64() * 1e3);
        t.job_done_ms.push(done);
    }

    fn on_campaign_finish(&self, summary: &CampaignSummary) {
        self.0.lock().expect("observer lock").busy += summary.busy;
    }
}

/// The ganged scenario for die `seed`: M=4, typical mismatch,
/// background calibration.
fn ganged_scenario(seed: u64) -> GangedScenario {
    GangedScenario {
        config: AdcConfig::nominal_110ms(),
        channels: GANGED_CHANNELS,
        seed,
        mismatch: InterleaveMismatch::typical(),
        f_target_hz: 10e6,
        n_samples: GANGED_RECORD,
        alignment: Alignment::Background {
            epochs: 12,
            epoch_len: 2048,
        },
    }
}

/// One ganged capture, analyzed: (SNR, SNDR, SFDR) in dB.
fn ganged_point(seed: u64) -> Result<(f64, f64, f64), JobError> {
    let scenario = ganged_scenario(seed);
    let capture = {
        let _s = adc_trace::span_with("bench.ganged", seed);
        scenario
            .capture_tone()
            .map_err(|e| JobError::Failed(format!("ganged capture: {e:?}")))?
    };
    let cfg = ToneAnalysisConfig::coherent().with_full_scale(scenario.config.v_ref_v);
    let a = analyze_tone(&capture.values, &cfg)
        .map_err(|e| JobError::Failed(format!("ganged analysis: {e:?}")))?;
    Ok((a.snr_db, a.sndr_db, a.sfdr_db))
}

/// One pass over `dir`'s cache. Returns the results and the observed
/// timings, with the pass's wall time.
fn pass(
    inputs: &Inputs,
    dir: &Path,
    observer: &Arc<Observer>,
) -> Result<(Results, Timings, f64), String> {
    observer.begin();
    let start = Instant::now();
    let cache = Arc::new(ResultCache::on_disk(dir).map_err(|e| format!("cache dir: {e}"))?);
    let policy = RunPolicy::serial()
        .observe(Arc::clone(observer) as Arc<dyn RunObserver>)
        .cached(Arc::clone(&cache));
    let fig5 = run_fig5_with(FIG_RECORD, &policy).map_err(|e| format!("Fig. 5: {e:?}"))?;
    let fig6 = run_fig6_with(FIG_RECORD, &policy).map_err(|e| format!("Fig. 6: {e:?}"))?;
    let mc = run_monte_carlo_with(
        &AdcConfig::nominal_110ms(),
        MC_DIES,
        MC_TONE_HZ,
        MC_RECORD,
        &policy,
    )
    .map_err(|e| format!("Monte-Carlo: {e:?}"))?;
    let ganged = Campaign::new("bench_ganged_m4_background", 1)
        .jobs(inputs.ganged.clone())
        .threads(1)
        .observe(Arc::clone(observer) as Arc<dyn RunObserver>)
        .run_cached(&cache, |_, &seed| ganged_point(seed))
        .into_result()
        .map_err(|(id, e)| format!("ganged job {id:?}: {e:?}"))?;
    let wall = start.elapsed().as_secs_f64();
    Ok((
        Results {
            fig5,
            fig6,
            mc,
            ganged,
        },
        observer.take(),
        wall,
    ))
}

/// A cold pass and its warm rerun, on a fresh cache directory.
struct Cycle {
    cold: Timings,
    cold_s: f64,
    warm_jobs_run: usize,
    warm_s: f64,
}

/// Runs one cold + warm cycle under `scratch`; counts the pass's jobs
/// and checks into `run`.
fn cycle(
    inputs: &Inputs,
    scratch: &Path,
    n: usize,
    observer: &Arc<Observer>,
    run: &mut Run,
) -> Result<Cycle, String> {
    let dir = scratch.join(format!("cache-{n}"));
    let _ = std::fs::remove_dir_all(&dir);
    let (cold_results, cold, cold_s) = pass(inputs, &dir, observer)?;
    let (warm_results, warm, warm_s) = pass(inputs, &dir, observer)?;
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;

    run.count(cold.job_wall_ms.len() as u64, 0);
    // The checks: every claim, cold == warm, and the cold job count.
    let claims = cold_results.claims();
    let mut failed = 0;
    for (claim, holds) in &claims {
        if !holds {
            eprintln!("claim failed: {claim}");
            failed += 1;
        }
    }
    if warm_results != cold_results {
        eprintln!("mismatch: the warm-cache rerun differs from the cold pass");
        failed += 1;
    }
    if cold.job_wall_ms.len() != JOBS_PER_PASS {
        eprintln!(
            "cold pass ran {} jobs, expected {JOBS_PER_PASS}",
            cold.job_wall_ms.len()
        );
        failed += 1;
    }
    run.count(claims.len() as u64 + 2, failed);
    Ok(Cycle {
        cold,
        cold_s,
        warm_jobs_run: warm.job_wall_ms.len(),
        warm_s,
    })
}

/// Cycles until `budget` has passed and at least `min_jobs` cold jobs
/// ran.
fn cycles(
    inputs: &Inputs,
    scratch: &Path,
    budget: Duration,
    min_jobs: usize,
    run: &mut Run,
) -> Result<Vec<Cycle>, String> {
    let observer = Arc::new(Observer::default());
    let start = Instant::now();
    let mut out: Vec<Cycle> = Vec::new();
    while start.elapsed() < budget || out.len() * JOBS_PER_PASS < min_jobs {
        crate::within_limit(start)?;
        out.push(cycle(inputs, scratch, out.len(), &observer, run)?);
    }
    Ok(out)
}

/// The run's cache directories' parent, removed with everything in it
/// when dropped, on success or failure alike.
struct Scratch(PathBuf);

impl Scratch {
    fn new(out: &crate::Output, seed: u64) -> Result<Self, String> {
        let dir = out
            .dir()
            .join(format!("campaign-{}-{seed}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Sets the job-latency metrics of `cycles`' cold passes: `.low` is a
/// job's own run time, `.high` its completion time after its pass
/// began (every job of a pass is submitted at once), each pooled over
/// the passes.
fn job_metrics(cycles: &[Cycle], run: &mut Run) -> Result<(), String> {
    let pooled = |f: fn(&Timings) -> &Vec<f64>| {
        let mut v: Vec<f64> = cycles
            .iter()
            .flat_map(|c| f(&c.cold).iter().copied())
            .collect();
        stats::sort(&mut v);
        v
    };
    let wall_ms = pooled(|t| &t.job_wall_ms);
    let done_ms = pooled(|t| &t.job_done_ms);
    let need = |v: Option<f64>, what: &str| {
        v.ok_or(format!("{what}: {} jobs cannot support it", wall_ms.len()))
    };
    eprintln!(
        "  campaign: {} cold+warm cycles, {} cold jobs; p99s with {} beyond",
        cycles.len(),
        wall_ms.len(),
        wall_ms.len() - (0.99 * wall_ms.len() as f64).ceil() as usize
    );
    let first_done: Vec<f64> = cycles
        .iter()
        .filter_map(|c| c.cold.job_done_ms.first().map(|ms| ms / 1e3))
        .collect();
    let cold_s: Vec<f64> = cycles.iter().map(|c| c.cold_s).collect();
    let campaign_s = stats::median(&cold_s).ok_or("no pass")?;
    let slo_ms = SLO.as_secs_f64() * 1e3;
    run.set(
        "setup_s",
        stats::median(&first_done).ok_or("no job finished")?,
    );
    run.set(
        "p50_ms.low",
        need(stats::quantile(&wall_ms, 0.5), "job p50")?,
    );
    run.set(
        "p90_ms.low",
        need(stats::quantile(&wall_ms, 0.9), "job p90")?,
    );
    run.set(
        "p99_ms.low",
        need(stats::quantile(&wall_ms, 0.99), "job p99")?,
    );
    run.set(
        "p50_ms.high",
        need(stats::quantile(&done_ms, 0.5), "completion p50")?,
    );
    run.set(
        "p99_ms.high",
        need(stats::quantile(&done_ms, 0.99), "completion p99")?,
    );
    run.set(
        "within_slo.high",
        done_ms.iter().filter(|&&ms| ms <= slo_ms).count() as f64 / done_ms.len() as f64,
    );
    run.set("campaign_s", campaign_s);
    // A serving metric: a cold pass's jobs per second would only
    // restate `campaign_s`.
    run.set("capacity_rps", 0.0);
    Ok(())
}

/// Runs the campaign untraced: every end-to-end metric.
pub fn run_untraced(seed: u64, seconds: f64, out: &crate::Output) -> Result<Run, String> {
    let mut run = Run::default();
    let inputs = Inputs::new(seed);
    let scratch = Scratch::new(out, seed)?;
    let all = cycles(
        &inputs,
        &scratch.0,
        Duration::from_secs_f64(0.85 * seconds),
        P99_JOBS,
        &mut run,
    )?;
    job_metrics(&all, &mut run)?;
    run.set("peak_rss_mb", report::peak_rss_mb()?);
    Ok(run)
}

/// Replays one Monte-Carlo die point layer by layer under the
/// benchmark's spans, then times a steady conversion, a fresh die's
/// fixed cost and a bare FFT of the record outside the point.
fn replay_point(seed: u64) -> Result<(), String> {
    let _task = adc_trace::task(seed);
    let config = AdcConfig::nominal_110ms();
    let (mut session, record) = {
        let _point = adc_trace::span_with("bench.point", seed);
        let mut session = {
            let _s = adc_trace::span("bench.fabricate");
            MeasurementSession::new(config.clone(), seed)
                .map_err(|e| format!("fabricate: {e:?}"))?
        };
        session.record_len = MC_RECORD;
        let mut codes = Vec::new();
        {
            let _s = adc_trace::span("bench.convert");
            session.capture_tone_into(MC_TONE_HZ, &mut codes);
        }
        let record = {
            let _s = adc_trace::span("bench.analyze");
            let record = session.reconstruct(&codes);
            let cfg =
                ToneAnalysisConfig::coherent().with_full_scale(session.adc().config().v_ref_v);
            std::hint::black_box(
                analyze_tone(&record, &cfg).map_err(|e| format!("analyze: {e:?}"))?,
            );
            record
        };
        (session, record)
    };
    let mut codes = Vec::new();
    {
        let _s = adc_trace::span_with("bench.convert_steady", MC_RECORD as u64);
        session.capture_tone_into(MC_TONE_HZ, &mut codes);
    }
    layers::plan_probe(
        MeasurementSession::new(config, seed).map_err(|e| format!("fabricate: {e:?}"))?,
    );
    let _s = adc_trace::span("bench.fft");
    std::hint::black_box(power_spectrum_one_sided(&record).map_err(|e| format!("fft: {e:?}"))?);
    Ok(())
}

/// Runs the campaign traced: every per-layer metric, the Chrome trace
/// and the layer table.
pub fn run_traced(seed: u64, seconds: f64, out: &crate::Output) -> Result<Run, String> {
    let mut run = Run::default();
    let inputs = Inputs::new(seed);
    let scratch = Scratch::new(out, seed)?;
    let reference = cycles(
        &inputs,
        &scratch.0,
        Duration::from_secs_f64(0.4 * seconds),
        P99_JOBS,
        &mut run,
    )?;
    job_metrics(&reference, &mut run)?;

    let collector =
        adc_trace::Collector::install().ok_or("another trace collector is installed")?;
    let traced = cycle(
        &inputs,
        &scratch.0,
        reference.len(),
        &Arc::new(Observer::default()),
        &mut run,
    )?;
    let mut rng = Rng::new(seed, "replay");
    let replays = 24;
    for _ in 0..replays {
        replay_point(1 + rng.below(MC_DIES) as u64)?;
    }
    run.count(replays, 0);
    let trace = collector.finish();

    let table = layers::table(
        &trace,
        "bench.point",
        &["bench.fabricate", "bench.convert", "bench.analyze"],
    );
    out.write_trace(&trace, &table)?;
    let steady_us = layers::mean_us(&trace, "bench.convert_steady");
    let median = |f: fn(&Cycle) -> f64| {
        stats::median(&reference.iter().map(f).collect::<Vec<_>>()).ok_or("no reference pass")
    };
    let cold_s = median(|c| c.cold_s)?;
    let busy_s = median(|c| c.cold.busy.as_secs_f64())?;
    let warm_run: usize = reference.iter().map(|c| c.warm_jobs_run).sum();

    run.set(
        "pipeline.convert_ns_per_sample",
        steady_us * 1e3 / MC_RECORD as f64,
    );
    // The campaign runs scalar: nothing batches lanes, so width 1.
    run.set(
        "pipeline.lanes_ns_per_sample",
        layers::lane_kernel_ns(&AdcConfig::nominal_110ms(), &[1], MC_RECORD, MC_TONE_HZ)?,
    );
    run.set(
        "testbench.fabricate_us",
        table.self_us("bench.fabricate") + layers::mean_us(&trace, "bench.plan"),
    );
    run.set("spectral.analyze_us", table.self_us("bench.analyze"));
    run.set("spectral.fft_us", layers::mean_us(&trace, "bench.fft"));
    run.set(
        "calib.ganged_capture_ms",
        layers::mean_us(&trace, "bench.ganged") / 1e3,
    );
    run.set("runtime.busy_s", busy_s);
    run.set("runtime.overhead_s", cold_s - busy_s);
    run.set(
        "runtime.cache_hit_frac",
        1.0 - warm_run as f64 / (reference.len() * JOBS_PER_PASS) as f64,
    );
    run.set("runtime.warm_s", median(|c| c.warm_s)?);
    for name in [
        "server.coalesced_frac",
        "protocol.encode_us",
        "protocol.decode_us",
        "protocol.bytes_per_req",
        "server.p50_us",
        "server.p99_us",
        "server.wait_us",
        "client.residual_us",
        "server.shed",
        "server.errors",
        "gen.late_p99_us",
    ] {
        run.set(name, 0.0);
    }
    run.set("trace.overhead_frac", traced.cold_s / cold_s - 1.0);
    run.set("trace.residual_us", table.residual_us);
    Ok(run)
}

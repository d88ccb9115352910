//! Monte-Carlo yield analysis across fabricated dies.
//!
//! The paper reports one measured die; an IP vendor ships thousands. This
//! module fabricates `n` dies (seeds 1..=n), measures each, and reports
//! the distribution and the yield against a datasheet specification — the
//! analysis behind "min/typ/max" columns.

use adc_pipeline::config::AdcConfig;
use adc_pipeline::error::BuildAdcError;
use adc_runtime::{canonical_key, derive_seed, CacheCodec};

use crate::policy::{campaign_id, RunPolicy};
use crate::session::MeasurementSession;

/// One die's Monte-Carlo measurement.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DieResult {
    /// Fabrication seed.
    pub seed: u64,
    /// SNR at the test tone, dB.
    pub snr_db: f64,
    /// SNDR at the test tone, dB.
    pub sndr_db: f64,
    /// SFDR at the test tone, dB.
    pub sfdr_db: f64,
    /// ENOB, bits.
    pub enob: f64,
    /// Total power, watts.
    pub power_w: f64,
}

impl CacheCodec for DieResult {
    fn encode(&self) -> String {
        (
            self.seed,
            self.snr_db,
            self.sndr_db,
            self.sfdr_db,
            self.enob,
            self.power_w,
        )
            .encode()
    }
    fn decode(line: &str) -> Option<Self> {
        let (seed, snr_db, sndr_db, sfdr_db, enob, power_w) = CacheCodec::decode(line)?;
        Some(Self {
            seed,
            snr_db,
            sndr_db,
            sfdr_db,
            enob,
            power_w,
        })
    }
}

/// Summary statistics of one metric across the population.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MetricStats {
    /// Minimum observed.
    pub min: f64,
    /// Mean.
    pub mean: f64,
    /// Maximum observed.
    pub max: f64,
    /// Sample standard deviation.
    pub sigma: f64,
}

impl MetricStats {
    fn over<F: Fn(&DieResult) -> f64>(dies: &[DieResult], f: F) -> Self {
        assert!(!dies.is_empty(), "no dies measured");
        let values: Vec<f64> = dies.iter().map(f).collect();
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = if values.len() > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        Self {
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            mean,
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            sigma: var.sqrt(),
        }
    }
}

/// A datasheet specification for yield screening.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct YieldSpec {
    /// Minimum acceptable SNDR, dB.
    pub min_sndr_db: f64,
    /// Minimum acceptable SFDR, dB.
    pub min_sfdr_db: f64,
    /// Maximum acceptable power, watts.
    pub max_power_w: f64,
}

impl YieldSpec {
    /// A screen derived from the paper's Table I with production margin:
    /// SNDR ≥ 62 dB (10 ENOB), SFDR ≥ 65 dB, power ≤ 115 mW.
    pub fn paper_with_margin() -> Self {
        Self {
            min_sndr_db: 62.0,
            min_sfdr_db: 65.0,
            max_power_w: 115e-3,
        }
    }

    /// Does a die pass?
    pub fn passes(&self, die: &DieResult) -> bool {
        die.sndr_db >= self.min_sndr_db
            && die.sfdr_db >= self.min_sfdr_db
            && die.power_w <= self.max_power_w
    }
}

/// The full Monte-Carlo campaign result.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MonteCarloResult {
    /// Per-die measurements.
    pub dies: Vec<DieResult>,
    /// SNR statistics.
    pub snr: MetricStats,
    /// SNDR statistics.
    pub sndr: MetricStats,
    /// SFDR statistics.
    pub sfdr: MetricStats,
    /// ENOB statistics.
    pub enob: MetricStats,
    /// Power statistics (watts).
    pub power: MetricStats,
}

impl MonteCarloResult {
    /// Yield against a spec, in [0, 1].
    pub fn yield_against(&self, spec: &YieldSpec) -> f64 {
        let passing = self.dies.iter().filter(|d| spec.passes(d)).count();
        passing as f64 / self.dies.len() as f64
    }

    /// Dies failing a spec (for failure analysis).
    pub fn failures<'a>(&'a self, spec: &'a YieldSpec) -> impl Iterator<Item = &'a DieResult> {
        self.dies.iter().filter(move |d| !spec.passes(d))
    }
}

/// The declarative form of a Monte-Carlo campaign: everything an
/// executor needs to run it *anywhere* — in-process, or farmed over an
/// `adc-cluster` peer set — while landing in the same shared cache
/// namespace as [`run_monte_carlo_with`].
///
/// The campaign name is the same collision-safe fingerprint the
/// in-process path uses, so a warm cache produced by a distributed run
/// satisfies a later local run (and vice versa) bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloPlan {
    /// Collision-safe campaign name (also the cache-file namespace).
    pub campaign: String,
    /// Campaign seed ([`crate::session::GOLDEN_SEED`]).
    pub seed: u64,
    /// Fabrication seeds, one per die (`1..=die_count`).
    pub die_seeds: Vec<u64>,
    /// Test-tone target frequency, Hz.
    pub f_in_target_hz: f64,
    /// Record length per die, samples.
    pub record_len: usize,
}

impl MonteCarloPlan {
    /// The canonical cache key of one die's result — identical to the
    /// key [`adc_runtime::Campaign::run_cached`] derives for the same
    /// die, so remote fills and local lookups meet in one namespace.
    pub fn cache_key(&self, die_seed: u64) -> u64 {
        canonical_key(&self.campaign, &die_seed)
    }

    /// The runtime-derived per-job seed for the die at `index` (dies
    /// are jobs `0..n` in seed order). Schedule-independent: it depends
    /// only on the campaign seed and the stable job id, never on which
    /// host or thread runs the job.
    pub fn job_seed(&self, index: usize) -> u64 {
        derive_seed(self.seed, index as u64)
    }
}

/// The Monte-Carlo campaign kind. With [`monte_carlo_fingerprint`] it
/// names the campaign for [`monte_carlo_plan`] and
/// [`run_monte_carlo_with`] alike, so both land in one cache namespace.
const MONTE_CARLO_KIND: &str = "monte_carlo";

/// Everything besides the die seed that shapes a die's result.
fn monte_carlo_fingerprint(
    config: &AdcConfig,
    record_len: usize,
    f_in_target_hz: f64,
) -> (&AdcConfig, usize, u64) {
    (config, record_len, f_in_target_hz.to_bits())
}

/// Lays out the Monte-Carlo campaign over `config`: die seeds
/// `1..=die_count`, each measured at `f_in_target_hz` with
/// `record_len`-point records.
///
/// # Panics
///
/// Panics when `die_count == 0`.
pub fn monte_carlo_plan(
    config: &AdcConfig,
    die_count: usize,
    f_in_target_hz: f64,
    record_len: usize,
) -> MonteCarloPlan {
    assert!(die_count > 0, "need at least one die");
    MonteCarloPlan {
        campaign: campaign_id(
            MONTE_CARLO_KIND,
            &monte_carlo_fingerprint(config, record_len, f_in_target_hz),
        ),
        seed: crate::session::GOLDEN_SEED,
        die_seeds: (1..=die_count as u64).collect(),
        f_in_target_hz,
        record_len,
    }
}

/// Fabricates and measures one die: the single per-die computation
/// every Monte-Carlo execution path funnels through. The in-process
/// campaign worker calls this, and so does the cluster job registry on
/// a remote host — bit-identity across schedules and hosts holds
/// because there is exactly one implementation to agree with.
///
/// # Errors
///
/// The die's [`BuildAdcError`] when the config cannot fabricate.
pub fn measure_die(
    config: &AdcConfig,
    die_seed: u64,
    f_in_target_hz: f64,
    record_len: usize,
) -> Result<DieResult, BuildAdcError> {
    let mut session = MeasurementSession::new(config.clone(), die_seed)?;
    session.record_len = record_len;
    let m = session.measure_tone(f_in_target_hz);
    Ok(DieResult {
        seed: die_seed,
        snr_db: m.analysis.snr_db,
        sndr_db: m.analysis.sndr_db,
        sfdr_db: m.analysis.sfdr_db,
        enob: m.analysis.enob,
        power_w: session.adc().power_w(),
    })
}

/// Folds per-die measurements (in seed order) into the campaign
/// result. Pure assembly — no randomness, no reordering — so any
/// executor that produces the same dies produces the same result.
///
/// # Panics
///
/// Panics when `dies` is empty.
pub fn summarize_dies(dies: Vec<DieResult>) -> MonteCarloResult {
    MonteCarloResult {
        snr: MetricStats::over(&dies, |d| d.snr_db),
        sndr: MetricStats::over(&dies, |d| d.sndr_db),
        sfdr: MetricStats::over(&dies, |d| d.sfdr_db),
        enob: MetricStats::over(&dies, |d| d.enob),
        power: MetricStats::over(&dies, |d| d.power_w),
        dies,
    }
}

/// Runs the campaign under `policy`: fabricates dies with seeds
/// `1..=die_count` and measures each at `f_in_target_hz` with
/// `record_len`-point records.
///
/// Dies are independent jobs — die `k` is fabricated from seed `k` and
/// measured on its own session — so the result is bit-identical whatever
/// `policy.threads` is; one diverging die fails its own job without
/// killing the yield run (its absence surfaces as the build error).
///
/// # Errors
///
/// Propagates the lowest-seed build error.
///
/// # Panics
///
/// Panics when `die_count == 0`.
pub fn run_monte_carlo_with(
    config: &AdcConfig,
    die_count: usize,
    f_in_target_hz: f64,
    record_len: usize,
    policy: &RunPolicy,
) -> Result<MonteCarloResult, BuildAdcError> {
    let plan = monte_carlo_plan(config, die_count, f_in_target_hz, record_len);
    let dies = policy.measure_campaign(
        MONTE_CARLO_KIND,
        &monte_carlo_fingerprint(config, record_len, f_in_target_hz),
        plan.seed,
        plan.die_seeds,
        |ctx, &seed| {
            ctx.record_samples(record_len as u64);
            measure_die(config, seed, f_in_target_hz, record_len)
        },
    )?;
    Ok(summarize_dies(dies))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_campaign() -> MonteCarloResult {
        let policy = RunPolicy::default();
        run_monte_carlo_with(&AdcConfig::nominal_110ms(), 8, 10e6, 2048, &policy)
            .expect("campaign runs")
    }

    #[test]
    fn campaign_measures_every_die() {
        let mc = small_campaign();
        assert_eq!(mc.dies.len(), 8);
        let seeds: Vec<u64> = mc.dies.iter().map(|d| d.seed).collect();
        assert_eq!(seeds, (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn statistics_are_internally_consistent() {
        let mc = small_campaign();
        assert!(mc.sndr.min <= mc.sndr.mean && mc.sndr.mean <= mc.sndr.max);
        assert!(mc.power.sigma > 0.0, "dies must spread in power");
        // All dies are real converters.
        assert!(mc.enob.min > 9.5, "worst die ENOB {}", mc.enob.min);
    }

    #[test]
    fn paper_margin_spec_yields_most_dies() {
        let mc = small_campaign();
        let y = mc.yield_against(&YieldSpec::paper_with_margin());
        assert!(y >= 0.75, "yield {y}");
    }

    #[test]
    fn impossible_spec_yields_zero() {
        let mc = small_campaign();
        let spec = YieldSpec {
            min_sndr_db: 90.0,
            min_sfdr_db: 90.0,
            max_power_w: 1e-3,
        };
        assert_eq!(mc.yield_against(&spec), 0.0);
        assert_eq!(mc.failures(&spec).count(), mc.dies.len());
    }

    #[test]
    fn campaign_is_reproducible() {
        let a = small_campaign();
        let b = small_campaign();
        assert_eq!(a, b);
    }

    #[test]
    fn plan_and_per_die_path_reassemble_the_campaign() {
        use std::sync::Arc;
        let config = AdcConfig::nominal_110ms();
        let cache = Arc::new(adc_runtime::ResultCache::in_memory());
        let reference = run_monte_carlo_with(
            &config,
            4,
            10e6,
            1024,
            &RunPolicy::serial().cached(Arc::clone(&cache)),
        )
        .expect("runs");

        // The declarative plan + the shared per-die function reassemble
        // the exact campaign — this is the distributed path's identity.
        let plan = monte_carlo_plan(&config, 4, 10e6, 1024);
        assert_eq!(plan.die_seeds, vec![1, 2, 3, 4]);
        let dies: Vec<DieResult> = plan
            .die_seeds
            .iter()
            .map(|&s| measure_die(&config, s, plan.f_in_target_hz, plan.record_len).unwrap())
            .collect();
        assert_eq!(summarize_dies(dies), reference);

        // And the plan's keys land in run_cached's namespace: every die
        // the cached run computed is visible under plan.cache_key.
        for die in &reference.dies {
            assert_eq!(
                cache
                    .get::<DieResult>(&plan.campaign, plan.cache_key(die.seed))
                    .as_ref(),
                Some(die),
                "die {} missing from the shared namespace",
                die.seed
            );
        }
    }

    #[test]
    fn the_plan_names_the_campaign_the_run_uses() {
        use std::sync::Arc;
        let config = AdcConfig::nominal_110ms();
        let observer = Arc::new(adc_runtime::CollectingObserver::default());
        let policy = RunPolicy::serial().observe(Arc::clone(&observer) as _);
        run_monte_carlo_with(&config, 2, 10e6, 512, &policy).expect("runs");
        let plan = monte_carlo_plan(&config, 2, 10e6, 512);
        let summaries = observer.summaries.lock().unwrap();
        assert_eq!(summaries.len(), 1);
        assert_eq!(
            summaries[0].name, plan.campaign,
            "run and plan share a name"
        );
        // The name is the one cache files and `--peers` runs have
        // always used: kind plus a hash of (config, record, tone bits).
        let spelled = campaign_id("monte_carlo", &(&config, 512usize, 10e6f64.to_bits()));
        assert_eq!(plan.campaign, spelled);
    }

    #[test]
    fn parallel_campaign_is_bit_identical_to_serial() {
        let config = AdcConfig::nominal_110ms();
        let serial =
            run_monte_carlo_with(&config, 6, 10e6, 1024, &RunPolicy::serial()).expect("runs");
        let parallel =
            run_monte_carlo_with(&config, 6, 10e6, 1024, &RunPolicy::parallel(4)).expect("runs");
        assert_eq!(serial, parallel);
    }
}

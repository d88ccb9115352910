//! The declarative job list an executor runs, and the Monte-Carlo
//! bridge into `adc-testbench`'s campaign namespace.

use adc_runtime::{derive_seed, CacheCodec};
use adc_server::protocol::JobSpec;
use adc_server::Preset;
use adc_testbench::{summarize_dies, DieResult, MonteCarloPlan, MonteCarloResult};

use crate::executor::ClusterError;

/// One job: a rendered config plus its canonical cache key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterJob {
    /// The kind-specific `CacheCodec`-rendered config.
    pub config: String,
    /// The job's [`adc_runtime::canonical_key`] in the campaign's
    /// namespace — the address results live under, everywhere.
    pub key: u64,
}

/// A campaign ready for distribution: an ordered job list under one
/// kind, one campaign name (= cache namespace), and one campaign seed.
///
/// Job ids are list indices; per-job seeds are
/// [`derive_seed`]`(campaign seed, id)` — both stable under any
/// schedule, so results assemble identically however the jobs are
/// scattered across hosts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterCampaign {
    /// Campaign name; also the shared cache-file namespace.
    pub name: String,
    /// The registered job kind every job in this campaign runs as.
    pub kind: String,
    /// Campaign seed feeding per-job seed derivation.
    pub seed: u64,
    /// Per-job cooperative deadline shipped to hosts; `0` disables.
    pub deadline_ms: u32,
    jobs: Vec<ClusterJob>,
}

impl ClusterCampaign {
    /// An empty campaign.
    pub fn new<S: Into<String>, K: Into<String>>(name: S, kind: K, seed: u64) -> Self {
        Self {
            name: name.into(),
            kind: kind.into(),
            seed,
            deadline_ms: 0,
            jobs: Vec::new(),
        }
    }

    /// Appends one job; its id is its position.
    pub fn push_job<S: Into<String>>(&mut self, config: S, key: u64) {
        self.jobs.push(ClusterJob {
            config: config.into(),
            key,
        });
    }

    /// The job list, in id order.
    pub fn jobs(&self) -> &[ClusterJob] {
        &self.jobs
    }

    /// Job count.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` when no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The derived seed of job `id` — schedule-independent.
    pub fn job_seed(&self, id: u64) -> u64 {
        derive_seed(self.seed, id)
    }

    /// Renders the jobs at `ids` as wire specs.
    pub(crate) fn specs(&self, ids: &[usize]) -> Vec<JobSpec> {
        ids.iter()
            .map(|&id| JobSpec {
                id: id as u64,
                key: self.jobs[id].key,
                seed: self.job_seed(id as u64),
                config: self.jobs[id].config.clone(),
            })
            .collect()
    }
}

/// The wire index of a [`Preset`] in `die-tone-metrics` configs.
pub fn preset_index(preset: Preset) -> u64 {
    match preset {
        Preset::Nominal110 => 0,
        Preset::Ideal => 1,
        Preset::Sibling220 => 2,
    }
}

/// Lowers a [`MonteCarloPlan`] over `preset` into a distributable
/// campaign: one `die-tone-metrics` job per die, keyed exactly where
/// the in-process cached run would look its result up. A distributed
/// run therefore *warms the same cache* a later local
/// [`adc_testbench::run_monte_carlo_with`] reads, and vice versa.
pub fn monte_carlo_campaign(preset: Preset, plan: &MonteCarloPlan) -> ClusterCampaign {
    let mut campaign = ClusterCampaign::new(&plan.campaign, "die-tone-metrics", plan.seed);
    for &die_seed in &plan.die_seeds {
        campaign.push_job(
            (
                preset_index(preset),
                plan.f_in_target_hz,
                plan.record_len as u64,
                die_seed,
            )
                .encode(),
            plan.cache_key(die_seed),
        );
    }
    campaign
}

/// Decodes per-die result lines (in job order) back into the campaign
/// result — the distributed counterpart of the assembly inside
/// [`adc_testbench::run_monte_carlo_with`].
///
/// # Errors
///
/// [`ClusterError::BadResult`] when a line does not decode as a
/// [`DieResult`], or when there is no line at all (job 0 is missing).
pub fn assemble_monte_carlo(lines: &[String]) -> Result<MonteCarloResult, ClusterError> {
    if lines.is_empty() {
        return Err(ClusterError::BadResult {
            id: 0,
            detail: "no die lines to assemble".to_string(),
        });
    }
    let dies = lines
        .iter()
        .enumerate()
        .map(|(id, line)| {
            CacheCodec::decode(line).ok_or_else(|| ClusterError::BadResult {
                id: id as u64,
                detail: format!("undecodable die line {line:?}"),
            })
        })
        .collect::<Result<Vec<DieResult>, _>>()?;
    Ok(summarize_dies(dies))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adc_pipeline::config::AdcConfig;
    use adc_testbench::monte_carlo_plan;

    #[test]
    fn campaign_ids_and_seeds_are_positional_and_stable() {
        let mut c = ClusterCampaign::new("n", "probe-mix", 42);
        c.push_job("0,1", 100);
        c.push_job("0,2", 200);
        assert_eq!(c.len(), 2);
        assert_eq!(c.job_seed(1), derive_seed(42, 1));
        let specs = c.specs(&[1, 0]);
        assert_eq!(specs[0].id, 1);
        assert_eq!(specs[0].key, 200);
        assert_eq!(specs[0].seed, c.job_seed(1));
        assert_eq!(specs[1].config, "0,1");
    }

    #[test]
    fn monte_carlo_lowering_keeps_the_plan_namespace() {
        let config = AdcConfig::nominal_110ms();
        let plan = monte_carlo_plan(&config, 3, 10e6, 1024);
        let campaign = monte_carlo_campaign(Preset::Nominal110, &plan);
        assert_eq!(campaign.name, plan.campaign);
        assert_eq!(campaign.seed, plan.seed);
        assert_eq!(campaign.len(), 3);
        for (job, &die_seed) in campaign.jobs().iter().zip(&plan.die_seeds) {
            assert_eq!(job.key, plan.cache_key(die_seed));
            let (p, f, n, s): (u64, f64, u64, u64) = CacheCodec::decode(&job.config).unwrap();
            assert_eq!((p, f, n, s), (0, 10e6, 1024, die_seed));
        }
    }

    #[test]
    fn monte_carlo_assembly_round_trips_dies() {
        let dies: Vec<DieResult> = (1..=4)
            .map(|seed| DieResult {
                seed,
                snr_db: 67.0 + seed as f64,
                sndr_db: 65.0,
                sfdr_db: 80.0,
                enob: 10.5,
                power_w: 0.097,
            })
            .collect();
        let lines: Vec<String> = dies.iter().map(CacheCodec::encode).collect();
        let assembled = assemble_monte_carlo(&lines).unwrap();
        assert_eq!(assembled.dies, dies);
        assert!(matches!(
            assemble_monte_carlo(&["junk".to_string()]),
            Err(ClusterError::BadResult { id: 0, .. })
        ));
    }

    #[test]
    fn assembling_no_dies_is_an_error_not_a_panic() {
        assert!(matches!(
            assemble_monte_carlo(&[]),
            Err(ClusterError::BadResult { id: 0, .. })
        ));
    }
}

//! Named job kinds a serving host can execute.
//!
//! The wire ships jobs as `(kind, rendered config, derived seed)`; the
//! registry maps that triple back onto real computations. Both sides of
//! a cluster hold the *same* registry — the server runs jobs through it
//! via [`adc_server::JobRunner`], and the executor's local pass runs
//! through it — so every execution site shares one implementation per
//! kind.

use std::collections::BTreeMap;
use std::sync::Arc;

use adc_runtime::{split_mix64, CacheCodec};
use adc_server::{JobRunError, JobRunner, Preset};
use adc_testbench::measure_die;

/// One job kind's handler: `(rendered config, derived seed)` to a
/// `CacheCodec`-encoded result line.
type Handler = dyn Fn(&str, u64) -> Result<String, JobRunError> + Send + Sync;

/// A named map of job kinds, shared by servers (via [`JobRunner`]) and
/// the executor's local pass.
///
/// Handlers must be pure functions of `(config, seed)` — the cluster's
/// bit-identity guarantee holds exactly as far as this contract does.
#[derive(Default)]
pub struct JobRegistry {
    handlers: BTreeMap<String, Arc<Handler>>,
}

impl std::fmt::Debug for JobRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobRegistry")
            .field("kinds", &self.kinds())
            .finish()
    }
}

impl JobRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) the handler for `kind`.
    pub fn register<F>(&mut self, kind: &str, handler: F)
    where
        F: Fn(&str, u64) -> Result<String, JobRunError> + Send + Sync + 'static,
    {
        self.handlers.insert(kind.to_string(), Arc::new(handler));
    }

    /// The registered kind names, sorted.
    pub fn kinds(&self) -> Vec<&str> {
        self.handlers.keys().map(String::as_str).collect()
    }
}

impl JobRunner for JobRegistry {
    fn run(&self, kind: &str, config: &str, seed: u64) -> Result<String, JobRunError> {
        match self.handlers.get(kind) {
            Some(handler) => handler(config, seed),
            None => Err(JobRunError::UnknownKind(kind.to_string())),
        }
    }
}

/// Renders a `probe-mix` job config from its two operands.
pub fn probe_mix_config(a: u64, b: u64) -> String {
    (a, b).encode()
}

/// The standard registry every cluster host installs:
///
/// * `"die-tone-metrics"` — fabricate die `die_seed` from the preset
///   config and measure the test tone; config is the `CacheCodec`
///   4-tuple `(preset_index, f_target_hz, record_len, die_seed)`, the
///   result a [`adc_testbench::DieResult`] line. The derived seed is
///   unused: a die's identity *is* its fabrication seed, which travels
///   in the config (and therefore in the cache key).
/// * `"probe-mix"` — a microsecond-scale SplitMix64 mix of
///   `(a, b, seed)`, used by tests and `bench_cluster` to exercise
///   scheduling and prove the per-job seed plumbing is
///   schedule-independent without paying for die fabrication.
pub fn standard_registry() -> Arc<JobRegistry> {
    let mut registry = JobRegistry::new();
    registry.register("die-tone-metrics", |config, _seed| {
        let (preset, f_target_hz, record_len, die_seed): (u64, f64, u64, u64) =
            CacheCodec::decode(config)
                .ok_or_else(|| JobRunError::BadConfig(format!("die-tone-metrics {config:?}")))?;
        let preset = match preset {
            0 => Preset::Nominal110,
            1 => Preset::Ideal,
            2 => Preset::Sibling220,
            other => return Err(JobRunError::BadConfig(format!("preset index {other}"))),
        };
        let config = adc_server::preset_config(preset);
        let die = measure_die(&config, die_seed, f_target_hz, record_len as usize)
            .map_err(|e| JobRunError::Failed(e.to_string()))?;
        Ok(die.encode())
    });
    registry.register("probe-mix", |config, seed| {
        let (a, b): (u64, u64) = CacheCodec::decode(config)
            .ok_or_else(|| JobRunError::BadConfig(format!("probe-mix {config:?}")))?;
        Ok(split_mix64(a ^ split_mix64(b ^ seed)).encode())
    });
    Arc::new(registry)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_kinds_and_bad_configs_are_typed() {
        let registry = standard_registry();
        assert_eq!(
            registry.run("no-such-kind", "", 0),
            Err(JobRunError::UnknownKind("no-such-kind".to_string()))
        );
        assert!(matches!(
            registry.run("probe-mix", "not a tuple", 0),
            Err(JobRunError::BadConfig(_))
        ));
        assert!(matches!(
            registry.run("die-tone-metrics", &(9u64, 10e6, 64u64, 1u64).encode(), 0),
            Err(JobRunError::BadConfig(_))
        ));
    }

    #[test]
    fn probe_mix_depends_on_config_and_seed_only() {
        let registry = standard_registry();
        let line = registry
            .run("probe-mix", &probe_mix_config(3, 4), 99)
            .unwrap();
        assert_eq!(
            registry.run("probe-mix", &probe_mix_config(3, 4), 99),
            Ok(line.clone())
        );
        assert_ne!(
            registry.run("probe-mix", &probe_mix_config(3, 4), 100),
            Ok(line.clone())
        );
        assert_ne!(
            registry.run("probe-mix", &probe_mix_config(4, 3), 99),
            Ok(line.clone())
        );
        let mixed: u64 = CacheCodec::decode(&line).expect("u64 line");
        assert_eq!(mixed, split_mix64(3 ^ split_mix64(4 ^ 99)));
    }

    #[test]
    fn die_tone_metrics_matches_the_in_process_measurement() {
        use adc_testbench::DieResult;
        let registry = standard_registry();
        let config = (0u64, 10e6, 512u64, 7u64).encode();
        let line = registry.run("die-tone-metrics", &config, 0).unwrap();
        let remote: DieResult = CacheCodec::decode(&line).expect("die line");
        let local = measure_die(
            &adc_pipeline::config::AdcConfig::nominal_110ms(),
            7,
            10e6,
            512,
        )
        .unwrap();
        assert_eq!(remote, local, "one implementation, one result");
        assert_eq!(line, local.encode(), "and one encoding");
    }
}

//! # adc-cluster
//!
//! Distributed campaign execution for the pipeline-ADC reproduction:
//! farm measurement jobs out to remote `adc-server` hosts over the
//! framed protocol, merge warm results through the content-addressed
//! shared cache, and assemble a final result **bit-identical** to an
//! in-process run — regardless of host count, scheduling, retries, or
//! mid-campaign host loss.
//!
//! ## Why this is safe
//!
//! The whole layer leans on three invariants the lower crates already
//! enforce:
//!
//! 1. **Schedule-independent seeds.** A job's randomness comes from
//!    [`adc_runtime::derive_seed`]`(campaign_seed, job_id)` — a pure
//!    function of stable identifiers, never of which host or thread ran
//!    the job.
//! 2. **One implementation per computation.** Remote hosts execute the
//!    *same functions* the in-process path calls (e.g.
//!    [`adc_testbench::measure_die`]), reached through a named
//!    [`JobRegistry`] — there is no second implementation to diverge.
//! 3. **Canonical results.** Values travel and persist as
//!    [`adc_runtime::CacheCodec`] lines under
//!    [`adc_runtime::canonical_key`] keys — the exact bytes
//!    `adc-runtime` writes to disk — so a remote fill, a peer's warm
//!    cache, and a local computation are interchangeable bit-for-bit,
//!    and applying a result twice (a requeued batch) is idempotent.
//!
//! ## Layers
//!
//! * [`registry`] — named job kinds a serving host can execute; plugs
//!   into [`adc_server::ServerConfig::job_runner`].
//! * [`campaign`] — the declarative job list ([`ClusterCampaign`]) and
//!   the Monte-Carlo bridge into `adc-testbench`'s campaign namespace.
//! * [`executor`] — [`ClusterExecutor`]: per-host outstanding-window
//!   scheduling from one shared queue, typed retry/timeout/backoff that
//!   requeues a batch on transport error or timeout, and graceful
//!   degradation to local execution when no peer is reachable.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use adc_cluster::{standard_registry, ClusterCampaign, ClusterExecutor};
//! use adc_server::{Server, ServerConfig};
//!
//! // A serving host opts into cluster duty by installing a registry.
//! let registry = standard_registry();
//! let cfg = ServerConfig {
//!     job_runner: Some(registry.clone()),
//!     ..ServerConfig::default()
//! };
//! let (handle, join) = Server::spawn("127.0.0.1:0", cfg).unwrap();
//!
//! // A peer farms a campaign to it.
//! let mut campaign = ClusterCampaign::new("probe", "probe-mix", 42);
//! for a in 0u64..8 {
//!     campaign.push_job(adc_cluster::probe_mix_config(a, 3), a);
//! }
//! let executor = ClusterExecutor::new(vec![handle.addr().to_string()], standard_registry());
//! let report = executor.execute(&campaign).unwrap();
//! assert_eq!(report.lines.len(), 8);
//!
//! handle.shutdown();
//! join.join().unwrap().unwrap();
//! ```

pub mod campaign;
pub mod executor;
pub mod registry;

pub use campaign::{
    assemble_monte_carlo, monte_carlo_campaign, preset_index, ClusterCampaign, ClusterJob,
};
pub use executor::{ClusterError, ClusterExecutor, ClusterOptions, ClusterReport, ClusterStats};
pub use registry::{probe_mix_config, standard_registry, JobRegistry};

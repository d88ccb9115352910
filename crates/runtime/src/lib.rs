//! # adc-runtime — deterministic parallel campaign execution
//!
//! The simulation workloads in this workspace — frequency/rate/power
//! sweeps, Monte-Carlo yield runs, figure regeneration — are
//! embarrassingly parallel: many independent jobs, each a pure function
//! of its configuration and a seed. This crate executes such *campaigns*
//! on scoped worker threads while guaranteeing results that are
//! **bit-identical to serial execution**, whatever the thread count or
//! scheduling order. Serving workloads submit jobs one at a time to a
//! long-lived [`JobPool`]; both schedulers run each job through one job
//! runner, so seeding, panic confinement and the `job` trace span are
//! the same on either path. Campaigns report to [`RunObserver`]s; a
//! pool job reports to the completion callback it was submitted with.
//!
//! The determinism contract rests on three rules:
//!
//! 1. every job gets a stable [`JobId`] (its submission index);
//! 2. per-job randomness is seeded by [`derive_seed`]`(campaign_seed,
//!    job_id)` — SplitMix64-style mixing, never a shared RNG stream;
//! 3. results land in a slot indexed by id, so completion order is
//!    invisible.
//!
//! Built entirely on `std` (`std::thread` + locks): no new external
//! dependencies.
//!
//! ## Quick start
//!
//! ```
//! use adc_runtime::{Campaign, JobError};
//!
//! let run = Campaign::new("demo-sweep", 7)
//!     .jobs(vec![10.0_f64, 20.0, 30.0])
//!     .threads(2)
//!     .run(|ctx, &fin| {
//!         ctx.record_samples(1);
//!         Ok::<_, JobError>(fin * 2.0)
//!     });
//! assert_eq!(run.into_result().unwrap(), vec![20.0, 40.0, 60.0]);
//! ```
//!
//! ## Modules
//!
//! - [`campaign`] — the [`Campaign`] builder and [`CampaignRun`] result.
//! - [`pool`] — the one job runner and the campaign scheduler.
//! - [`job`] — [`JobId`], [`JobCtx`], [`JobError`], [`JobReport`].
//! - [`seed`] — SplitMix64 mixing and seed derivation.
//! - [`cache`] — content-hash result cache ([`ResultCache`]).
//! - [`observer`] — [`RunObserver`] campaign lifecycle hooks and
//!   [`CampaignSummary`] statistics.
//! - [`submit`] — [`JobPool`], the long-lived submission pool behind
//!   serving workloads (`adc-server`): `new`, `threads`, `submit_then`
//!   and `shutdown`.

pub mod cache;
pub mod campaign;
pub mod job;
pub mod observer;
pub mod pool;
pub mod seed;
pub mod submit;

pub use cache::{
    canonical_key, epoch_header, parse_epoch_header, CacheCodec, ResultCache, NUMERICS_EPOCH,
};
pub use campaign::{Campaign, CampaignRun};
pub use job::{JobCtx, JobError, JobId, JobReport};
pub use observer::{CampaignSummary, CollectingObserver, RunObserver};
pub use pool::default_threads;
pub use seed::{derive_seed, split_mix64};
pub use submit::JobPool;

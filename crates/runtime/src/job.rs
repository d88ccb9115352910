//! Job identity, outcomes, and per-job execution context.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::seed::derive_seed;

/// Stable identity of one job inside a campaign.
///
/// Ids number the campaign's jobs `0..n` in submission order and never
/// depend on scheduling, so a job's derived seed — and therefore its
/// result — is a pure function of `(campaign_seed, JobId)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Why a job did not produce a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The worker returned an application-level failure.
    Failed(String),
    /// The worker panicked; the payload is the panic message. The panic
    /// was confined to the job — sibling jobs and the pool survive.
    Panicked(String),
    /// The job observed its deadline (cooperatively, via
    /// [`JobCtx::timed_out`]) and gave up.
    TimedOut,
    /// A draining [`JobPool`](crate::JobPool) rejected the submission;
    /// the job never ran.
    Draining,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Failed(msg) => write!(f, "failed: {msg}"),
            Self::Panicked(msg) => write!(f, "panicked: {msg}"),
            Self::TimedOut => write!(f, "timed out"),
            Self::Draining => write!(f, "pool is draining"),
        }
    }
}

impl std::error::Error for JobError {}

/// What one finished job reports to observers.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The job's stable id.
    pub id: JobId,
    /// Wall time of the job's run.
    pub wall: Duration,
    /// Samples the worker recorded via [`JobCtx::record_samples`]
    /// (drives campaign throughput accounting).
    pub samples: u64,
    /// `None` on success, the job's error otherwise.
    pub error: Option<JobError>,
}

impl JobReport {
    /// The report of a job that did not run: a cache hit (`error` is
    /// `None`) or a submission a draining pool rejected.
    pub(crate) fn not_run(id: JobId, error: Option<JobError>) -> Self {
        Self {
            id,
            wall: Duration::ZERO,
            samples: 0,
            error,
        }
    }
}

/// Execution context handed to the worker closure.
#[derive(Debug)]
pub struct JobCtx {
    /// The job's stable id.
    pub id: JobId,
    /// Seed derived from `(campaign_seed, id)` with SplitMix64 mixing —
    /// identical whatever thread or order runs the job.
    pub seed: u64,
    deadline: Option<Instant>,
    samples: AtomicU64,
}

impl JobCtx {
    pub(crate) fn new(campaign_seed: u64, id: JobId, deadline: Option<Instant>) -> Self {
        Self {
            id,
            seed: derive_seed(campaign_seed, id.0),
            deadline,
            samples: AtomicU64::new(0),
        }
    }

    /// A standalone context (tests, serial fallbacks).
    pub fn standalone(campaign_seed: u64, id: JobId) -> Self {
        Self::new(campaign_seed, id, None)
    }

    /// `true` once the job's deadline has passed. Long-running workers
    /// should poll this at convenient boundaries (per die, per sweep
    /// point) and return [`JobError::TimedOut`]; the runtime cannot
    /// preempt a compute-bound thread without forfeiting determinism.
    pub fn timed_out(&self) -> bool {
        // adc-lint: allow(no-wallclock) reason="deadline polling; a timeout aborts a job, it never alters a completed result"
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Credits `n` simulation samples to this job (throughput metric).
    pub fn record_samples(&self, n: u64) {
        self.samples.fetch_add(n, Ordering::Relaxed);
        // Mirror into the trace stream so the profile summary can
        // report samples/sec (no-op when tracing is disabled).
        adc_trace::counter("samples", n);
    }

    pub(crate) fn samples(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_is_a_pure_function_of_campaign_and_id() {
        let a = JobCtx::standalone(42, JobId(3));
        let b = JobCtx::standalone(42, JobId(3));
        assert_eq!(a.seed, b.seed);
        assert_ne!(a.seed, JobCtx::standalone(42, JobId(4)).seed);
        assert_ne!(a.seed, JobCtx::standalone(43, JobId(3)).seed);
    }

    #[test]
    fn no_deadline_never_times_out() {
        let ctx = JobCtx::standalone(1, JobId(0));
        assert!(!ctx.timed_out());
    }

    #[test]
    fn expired_deadline_times_out() {
        let ctx = JobCtx::new(1, JobId(0), Some(Instant::now()));
        std::thread::sleep(Duration::from_millis(1));
        assert!(ctx.timed_out());
    }

    #[test]
    fn samples_accumulate() {
        let ctx = JobCtx::standalone(1, JobId(0));
        ctx.record_samples(100);
        ctx.record_samples(24);
        assert_eq!(ctx.samples(), 124);
    }
}

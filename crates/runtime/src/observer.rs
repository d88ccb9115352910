//! Run observability: hooks for job lifecycle, progress, and campaign
//! summaries.
//!
//! The runtime calls observers from worker threads; implementations
//! must be `Send + Sync` and should stay cheap — a slow observer
//! serializes the workers. `adc-testbench::report` provides a text
//! reporter built on this trait; [`CollectingObserver`] here supports
//! tests.

use std::sync::Mutex;
use std::time::Duration;

use crate::job::{JobId, JobReport};

/// Summary statistics of one finished campaign.
#[derive(Debug, Clone)]
pub struct CampaignSummary {
    /// Campaign name (for labelling output).
    pub name: String,
    /// Total jobs submitted.
    pub jobs: usize,
    /// Jobs that produced a value.
    pub succeeded: usize,
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end wall time.
    pub wall: Duration,
    /// Sum of per-job wall times (serial-equivalent compute time).
    pub busy: Duration,
    /// Total samples recorded by workers.
    pub samples: u64,
}

impl CampaignSummary {
    /// Jobs completed per wall-clock second.
    pub fn jobs_per_sec(&self) -> f64 {
        self.jobs as f64 / self.wall.as_secs_f64().max(1e-12)
    }

    /// Samples converted per wall-clock second (0 when workers did not
    /// record samples).
    pub fn samples_per_sec(&self) -> f64 {
        self.samples as f64 / self.wall.as_secs_f64().max(1e-12)
    }

    /// Ratio of serial-equivalent compute time to wall time — the
    /// effective parallel speedup achieved.
    pub fn speedup(&self) -> f64 {
        self.busy.as_secs_f64() / self.wall.as_secs_f64().max(1e-12)
    }
}

/// Lifecycle hooks for campaign runs. All methods default to no-ops so
/// implementations override only what they need.
///
/// The job hooks fire from the crate's one job runner, for every
/// campaign job that runs, under the job's own [`JobId`]. A cache hit
/// runs no job and fires no job hook, and the campaign hooks count the
/// jobs that ran. A [`JobPool`](crate::JobPool) has no observers: each
/// submission's completion callback receives its [`JobReport`].
pub trait RunObserver: Send + Sync {
    /// The campaign is about to run `jobs` jobs on `threads` workers.
    fn on_campaign_start(&self, name: &str, jobs: usize, threads: usize) {
        let _ = (name, jobs, threads);
    }

    /// Job `id` is starting.
    fn on_job_start(&self, id: JobId) {
        let _ = id;
    }

    /// Job `id` finished (successfully or not); `report` has its wall
    /// time, sample credit and error.
    fn on_job_finish(&self, id: JobId, report: &JobReport) {
        let _ = (id, report);
    }

    /// `done` of the campaign's `total` running jobs have completed.
    fn on_progress(&self, done: usize, total: usize) {
        let _ = (done, total);
    }

    /// The campaign finished.
    fn on_campaign_finish(&self, summary: &CampaignSummary) {
        let _ = summary;
    }
}

/// An observer that records events for inspection (test support).
#[derive(Debug, Default)]
pub struct CollectingObserver {
    /// Finished-job reports in completion order.
    pub reports: Mutex<Vec<JobReport>>,
    /// Progress ticks `(done, total)` in emission order.
    pub ticks: Mutex<Vec<(usize, usize)>>,
    /// Campaign summaries (one per observed run).
    pub summaries: Mutex<Vec<CampaignSummary>>,
}

impl RunObserver for CollectingObserver {
    fn on_job_finish(&self, _id: JobId, report: &JobReport) {
        self.reports
            .lock()
            .expect("observer lock")
            .push(report.clone());
    }

    fn on_progress(&self, done: usize, total: usize) {
        self.ticks
            .lock()
            .expect("observer lock")
            .push((done, total));
    }

    fn on_campaign_finish(&self, summary: &CampaignSummary) {
        self.summaries
            .lock()
            .expect("observer lock")
            .push(summary.clone());
    }
}

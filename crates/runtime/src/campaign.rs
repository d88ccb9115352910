//! The campaign builder: fan a job set out over the pool, bit-identically
//! to serial execution.
//!
//! ```
//! use adc_runtime::{Campaign, JobError};
//!
//! let run = Campaign::new("double", 42)
//!     .jobs(0u64..8)
//!     .threads(4)
//!     .run(|_ctx, &x| Ok::<_, JobError>(2 * x));
//! assert_eq!(run.values().count(), 8);
//! assert_eq!(run.into_result().unwrap(), vec![0, 2, 4, 6, 8, 10, 12, 14]);
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cache::{canonical_key, CacheCodec, ResultCache};
use crate::job::{JobCtx, JobError, JobId, JobReport};
use crate::observer::{CampaignSummary, RunObserver};
use crate::pool::{self, PoolConfig};

/// A declarative, deterministic parallel campaign over a set of job
/// inputs.
///
/// Determinism contract: each job's result depends only on its input and
/// its `(campaign_seed, JobId)`-derived seed; results come back indexed
/// by [`JobId`]. Thread count, stealing order, and retry scheduling are
/// therefore invisible in the output — `threads(1)` and `threads(64)`
/// produce bit-identical campaigns.
pub struct Campaign<I> {
    name: String,
    seed: u64,
    inputs: Vec<I>,
    threads: usize,
    timeout: Option<Duration>,
    retries: u32,
    observers: Vec<Arc<dyn RunObserver>>,
}

impl<I> std::fmt::Debug for Campaign<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field("name", &self.name)
            .field("seed", &self.seed)
            .field("jobs", &self.inputs.len())
            .field("threads", &self.threads)
            .field("timeout", &self.timeout)
            .field("retries", &self.retries)
            .field("observers", &self.observers.len())
            .finish()
    }
}

impl<I> Campaign<I> {
    /// Creates an empty campaign with a label (used by observers and
    /// cache files) and a campaign seed.
    pub fn new<S: Into<String>>(name: S, seed: u64) -> Self {
        Self {
            name: name.into(),
            seed,
            inputs: Vec::new(),
            threads: 0,
            timeout: None,
            retries: 0,
            observers: Vec::new(),
        }
    }

    /// Appends one job input.
    pub fn job(mut self, input: I) -> Self {
        self.inputs.push(input);
        self
    }

    /// Appends a batch of job inputs; ids number them in order.
    pub fn jobs<It: IntoIterator<Item = I>>(mut self, inputs: It) -> Self {
        self.inputs.extend(inputs);
        self
    }

    /// Sets the worker-thread count; `0` (the default) uses all
    /// available hardware parallelism.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets a per-job cooperative deadline (workers poll
    /// [`JobCtx::timed_out`]).
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Allows up to `retries` re-attempts after a failure or panic.
    pub fn retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Attaches an observer.
    pub fn observe(mut self, observer: Arc<dyn RunObserver>) -> Self {
        self.observers.push(observer);
        self
    }

    /// The number of jobs currently queued.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// `true` when no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            pool::default_threads()
        } else {
            self.threads
        }
    }

    /// Runs the campaign, returning per-job outcomes in id order.
    pub fn run<T, F>(self, worker: F) -> CampaignRun<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&JobCtx, &I) -> Result<T, JobError> + Sync,
    {
        let threads = self.resolved_threads();
        for obs in &self.observers {
            obs.on_campaign_start(&self.name, self.inputs.len(), threads);
        }
        let cfg = PoolConfig {
            campaign_seed: self.seed,
            threads,
            timeout: self.timeout,
            retries: self.retries,
            observers: &self.observers,
        };
        let start = Instant::now(); // adc-lint: allow(no-wallclock) reason="campaign wall-time for the summary line; never feeds results"
        let (values, reports) = pool::execute(&cfg, &self.inputs, &worker);
        let wall = start.elapsed();
        let summary = CampaignSummary {
            name: self.name,
            jobs: reports.len(),
            succeeded: values.iter().filter(|v| v.is_some()).count(),
            threads,
            wall,
            busy: reports.iter().map(|r| r.wall).sum(),
            samples: reports.iter().map(|r| r.samples).sum(),
        };
        for obs in &self.observers {
            obs.on_campaign_finish(&summary);
        }
        CampaignRun {
            values,
            reports,
            summary,
        }
    }

    /// Runs the campaign through a content-hash cache: jobs whose
    /// canonical input (`Debug` rendering, salted with the campaign
    /// name) is already cached return their stored value without
    /// executing; fresh results are stored and, for disk-backed caches,
    /// persisted.
    ///
    /// Only the misses are dispatched, but each miss keeps its original
    /// [`JobId`] (and hence its derived seed), so a partially cached
    /// campaign returns results bit-identical to an uncached one.
    pub fn run_cached<T, F>(self, cache: &ResultCache, worker: F) -> CampaignRun<T>
    where
        I: Sync + std::fmt::Debug,
        T: Send + CacheCodec,
        F: Fn(&JobCtx, &I) -> Result<T, JobError> + Sync,
    {
        cache.preload(&self.name);
        let keys: Vec<u64> = self
            .inputs
            .iter()
            .map(|input| canonical_key(&self.name, input))
            .collect();
        let mut values: Vec<Option<T>> = keys.iter().map(|&k| cache.get::<T>(k)).collect();
        let miss_indices: Vec<usize> = (0..values.len()).filter(|&i| values[i].is_none()).collect();
        let hits = values.len() - miss_indices.len();
        adc_trace::counter("cache_hits", hits as u64);
        adc_trace::counter("cache_misses", miss_indices.len() as u64);

        let name = self.name.clone();
        let campaign_seed = self.seed;
        let misses: Vec<(usize, &I)> = miss_indices.iter().map(|&i| (i, &self.inputs[i])).collect();
        let miss_campaign = Campaign {
            name: self.name.clone(),
            seed: self.seed,
            inputs: misses,
            threads: self.threads,
            timeout: self.timeout,
            retries: self.retries,
            observers: self.observers.clone(),
        };
        let miss_run = miss_campaign.run(|ctx, &(original, input)| {
            // The pool numbered the misses densely; restore the job's
            // original identity so the cache-hit pattern cannot change a
            // miss's derived seed (and hence its result).
            let ctx = ctx.reassign(campaign_seed, JobId(original as u64));
            worker(&ctx, input)
        });

        let mut reports: Vec<JobReport> = (0..values.len())
            .map(|i| JobReport {
                id: JobId(i as u64),
                attempts: 0,
                wall: Duration::ZERO,
                samples: 0,
                error: None,
            })
            .collect();
        for (&original, (value, report)) in miss_indices
            .iter()
            .zip(miss_run.values.into_iter().zip(miss_run.reports))
        {
            if let Some(v) = &value {
                cache.put(keys[original], v);
            }
            values[original] = value;
            reports[original] = JobReport {
                id: JobId(original as u64),
                ..report
            };
        }
        let _ = cache.persist(&name);

        let summary = CampaignSummary {
            name,
            jobs: values.len(),
            succeeded: values.iter().filter(|v| v.is_some()).count(),
            threads: miss_run.summary.threads,
            wall: miss_run.summary.wall,
            busy: miss_run.summary.busy,
            samples: miss_run.summary.samples,
        };
        CampaignRun {
            values,
            reports,
            summary,
        }
    }
}

/// The outcome of one campaign run, indexed by [`JobId`].
#[derive(Debug)]
pub struct CampaignRun<T> {
    /// Per-job values (`None` where the job terminally failed), in id
    /// order.
    pub values: Vec<Option<T>>,
    /// Per-job reports, in id order.
    pub reports: Vec<JobReport>,
    /// Aggregate statistics.
    pub summary: CampaignSummary,
}

impl<T> CampaignRun<T> {
    /// Iterates over the successful values in id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.values.iter().filter_map(Option::as_ref)
    }

    /// Converts into `Ok(values)` when every job succeeded, else the
    /// first failure as `Err((JobId, JobError))`.
    ///
    /// # Errors
    ///
    /// Returns the lowest-id terminal failure.
    pub fn into_result(self) -> Result<Vec<T>, (JobId, JobError)> {
        let mut out = Vec::with_capacity(self.values.len());
        for (value, report) in self.values.into_iter().zip(self.reports) {
            match value {
                Some(v) => out.push(v),
                None => {
                    let err = report
                        .error
                        .unwrap_or_else(|| JobError::Failed("unknown".to_string()));
                    return Err((report.id, err));
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::CollectingObserver;

    #[test]
    fn builder_runs_and_orders_results() {
        let run = Campaign::new("square", 1)
            .jobs(0u64..10)
            .threads(4)
            .run(|_, &x| Ok::<_, JobError>(x * x));
        assert_eq!(
            run.into_result().unwrap(),
            (0u64..10).map(|x| x * x).collect::<Vec<_>>()
        );
    }

    #[test]
    fn thread_count_is_invisible_in_results() {
        let run_with = |threads: usize| {
            Campaign::new("det", 99)
                .jobs(0u64..40)
                .threads(threads)
                .run(|ctx, _| Ok::<_, JobError>(ctx.seed))
                .into_result()
                .unwrap()
        };
        let serial = run_with(1);
        assert_eq!(serial, run_with(2));
        assert_eq!(serial, run_with(8));
    }

    #[test]
    fn observers_see_every_job_and_the_summary() {
        let obs = Arc::new(CollectingObserver::default());
        let run = Campaign::new("obs", 5)
            .jobs(0u64..12)
            .threads(3)
            .observe(obs.clone())
            .run(|_, &x| Ok::<_, JobError>(x));
        assert_eq!(obs.reports.lock().unwrap().len(), 12);
        let ticks = obs.ticks.lock().unwrap();
        assert_eq!(ticks.len(), 12);
        assert!(ticks
            .iter()
            .all(|&(done, total)| done <= total && total == 12));
        let summaries = obs.summaries.lock().unwrap();
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].jobs, 12);
        assert_eq!(summaries[0].succeeded, 12);
        assert_eq!(run.summary.threads, 3);
    }

    #[test]
    fn into_result_surfaces_the_lowest_failed_id() {
        let run = Campaign::new("fail", 0)
            .jobs(0u64..10)
            .threads(2)
            .run(|_, &x| {
                if x == 3 || x == 7 {
                    Err(JobError::Failed(format!("job {x}")))
                } else {
                    Ok(x)
                }
            });
        assert_eq!(run.values().count(), 8);
        let (id, err) = run.into_result().unwrap_err();
        assert_eq!(id, JobId(3));
        assert_eq!(err, JobError::Failed("job 3".to_string()));
    }

    #[test]
    fn cached_rerun_skips_execution_and_matches() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = ResultCache::in_memory();
        let calls = AtomicUsize::new(0);
        let worker = |ctx: &JobCtx, &x: &u64| {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok::<_, JobError>((x as f64 * 1.5, ctx.seed as f64))
        };
        let first = Campaign::new("cached", 11)
            .jobs(0u64..8)
            .threads(4)
            .run_cached(&cache, worker)
            .into_result()
            .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 8);
        let second = Campaign::new("cached", 11)
            .jobs(0u64..8)
            .threads(4)
            .run_cached(&cache, worker)
            .into_result()
            .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 8, "all hits: no recompute");
        assert_eq!(first, second);
    }

    #[test]
    fn partial_cache_hits_leave_miss_seeds_unchanged() {
        use std::sync::Mutex;
        let worker = |ctx: &JobCtx, _: &u64| Ok::<_, JobError>(ctx.seed as f64);

        // Uncached reference run.
        let reference = Campaign::new("partial", 23)
            .jobs(0u64..8)
            .threads(2)
            .run(worker)
            .into_result()
            .unwrap();

        // Pre-populate only the even jobs, then run cached: the odd jobs
        // execute with dense miss indices but must keep original seeds.
        let cache = ResultCache::in_memory();
        let executed = Mutex::new(Vec::new());
        let first = Campaign::new("partial", 23)
            .jobs((0u64..8).step_by(2))
            .threads(2)
            .run_cached(&cache, worker);
        assert_eq!(first.values().count(), 4);
        // Note: the warm-up campaign used ids 0..4 for inputs 0,2,4,6 —
        // but keys hash the *input*, so hits line up by config, and the
        // seeds of hit jobs never matter (their values come from cache).
        let cached_run = Campaign::new("partial", 23)
            .jobs(0u64..8)
            .threads(2)
            .run_cached(&cache, |ctx: &JobCtx, input: &u64| {
                executed.lock().unwrap().push(*input);
                worker(ctx, input)
            });
        let mut executed = executed.into_inner().unwrap();
        executed.sort_unstable();
        assert_eq!(executed, vec![1, 3, 5, 7], "only misses execute");
        let values = cached_run.into_result().unwrap();
        for (i, (&got, &want)) in values.iter().zip(reference.iter()).enumerate() {
            if i % 2 == 1 {
                assert_eq!(got, want, "miss job {i} must keep its original seed");
            }
        }
    }

    #[test]
    fn empty_campaign_is_fine() {
        let run = Campaign::new("empty", 0)
            .threads(4)
            .run(|_, _: &u64| Ok::<_, JobError>(0u64));
        assert!(run.values.is_empty());
        assert_eq!(run.summary.jobs, 0);
    }
}

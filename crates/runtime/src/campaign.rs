//! The campaign builder: fan a closed job set out over scoped worker
//! threads, bit-identically to serial execution. Every job, cached
//! campaign misses included, runs under its own [`JobId`] through the
//! crate's one job runner.
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
use std::time::Instant;

use crate::cache::{canonical_key, CacheCodec, ResultCache};
use crate::job::{JobCtx, JobError, JobId, JobReport};
use crate::observer::{CampaignSummary, RunObserver};
use crate::pool;

/// A declarative, deterministic parallel campaign over a set of job
/// inputs.
///
/// Determinism contract: each job's result depends only on its input and
/// its `(campaign_seed, JobId)`-derived seed; results come back indexed
/// by [`JobId`]. Thread count and scheduling order are therefore
/// invisible in the output — `threads(1)` and `threads(64)` produce
/// bit-identical campaigns.
pub struct Campaign<I> {
    name: String,
    seed: u64,
    inputs: Vec<I>,
    threads: usize,
    observers: Vec<Arc<dyn RunObserver>>,
}

impl<I> std::fmt::Debug for Campaign<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field("name", &self.name)
            .field("seed", &self.seed)
            .field("jobs", &self.inputs.len())
            .field("threads", &self.threads)
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
            observers: Vec::new(),
        }
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

    /// Runs the campaign, returning per-job outcomes in id order.
    pub fn run<T, F>(self, worker: F) -> CampaignRun<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&JobCtx, &I) -> Result<T, JobError> + Sync,
    {
        let jobs: Vec<(JobId, &I)> = self
            .inputs
            .iter()
            .enumerate()
            .map(|(i, input)| (JobId(i as u64), input))
            .collect();
        let (outcomes, summary) = self.execute(&jobs, &worker);
        let (values, reports) = outcomes.into_iter().unzip();
        CampaignRun {
            values,
            reports,
            summary,
        }
    }

    /// Runs the campaign through a content-hash cache: jobs whose
    /// canonical input (`Debug` rendering, salted with the campaign
    /// name) is already cached return their stored value without
    /// executing; fresh results are stored under the campaign's name
    /// and, for disk-backed caches, persisted to its file. An all-hit
    /// run writes nothing.
    ///
    /// Only the misses are dispatched, but each miss keeps its original
    /// [`JobId`] (and hence its derived seed, trace span and observer
    /// reports), so a partially cached campaign returns results
    /// bit-identical to an uncached one. Observers see the misses
    /// only: a hit runs no job.
    pub fn run_cached<T, F>(self, cache: &ResultCache, worker: F) -> CampaignRun<T>
    where
        I: Sync + std::fmt::Debug,
        T: Send + CacheCodec,
        F: Fn(&JobCtx, &I) -> Result<T, JobError> + Sync,
    {
        let keys: Vec<u64> = self
            .inputs
            .iter()
            .map(|input| canonical_key(&self.name, input))
            .collect();
        let mut values: Vec<Option<T>> = keys.iter().map(|&k| cache.get(&self.name, k)).collect();
        let misses: Vec<(JobId, &I)> = self
            .inputs
            .iter()
            .enumerate()
            .filter(|&(i, _)| values[i].is_none())
            .map(|(i, input)| (JobId(i as u64), input))
            .collect();
        adc_trace::counter("cache_hits", (values.len() - misses.len()) as u64);
        adc_trace::counter("cache_misses", misses.len() as u64);

        let (outcomes, ran) = self.execute(&misses, &worker);
        let mut reports: Vec<JobReport> = (0..values.len())
            .map(|i| JobReport::not_run(JobId(i as u64), None))
            .collect();
        for (&(id, _), (value, report)) in misses.iter().zip(outcomes) {
            let i = id.0 as usize;
            if let Some(v) = &value {
                cache.put_line(&self.name, keys[i], &v.encode());
            }
            values[i] = value;
            reports[i] = report;
        }
        let _ = cache.persist(&self.name);

        let summary = CampaignSummary {
            jobs: values.len(),
            succeeded: values.iter().filter(|v| v.is_some()).count(),
            ..ran
        };
        CampaignRun {
            values,
            reports,
            summary,
        }
    }

    /// Runs `jobs` between the campaign-level observer hooks, returning
    /// their outcomes in `jobs` order and the summary of what ran.
    fn execute<T, F>(
        &self,
        jobs: &[(JobId, &I)],
        worker: &F,
    ) -> (Vec<(Option<T>, JobReport)>, CampaignSummary)
    where
        I: Sync,
        T: Send,
        F: Fn(&JobCtx, &I) -> Result<T, JobError> + Sync,
    {
        let threads = if self.threads == 0 {
            pool::default_threads()
        } else {
            self.threads
        };
        for obs in &self.observers {
            obs.on_campaign_start(&self.name, jobs.len(), threads);
        }
        let start = Instant::now(); // adc-lint: allow(no-wallclock) reason="campaign wall-time for the summary line; never feeds results"
        let outcomes = pool::execute(self.seed, threads, &self.observers, jobs, worker);
        let wall = start.elapsed();
        let summary = CampaignSummary {
            name: self.name.clone(),
            jobs: outcomes.len(),
            succeeded: outcomes.iter().filter(|(v, _)| v.is_some()).count(),
            threads,
            wall,
            busy: outcomes.iter().map(|(_, r)| r.wall).sum(),
            samples: outcomes.iter().map(|(_, r)| r.samples).sum(),
        };
        for obs in &self.observers {
            obs.on_campaign_finish(&summary);
        }
        (outcomes, summary)
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
    fn cached_misses_report_their_own_ids() {
        // Observers see each miss under the id its worker sees, not a
        // dense renumbering of the misses.
        let cache = ResultCache::in_memory();
        let worker = |ctx: &JobCtx, _: &u64| Ok::<_, JobError>(ctx.id.0);
        Campaign::new("sparse", 3)
            .jobs((0u64..8).step_by(2))
            .threads(2)
            .run_cached(&cache, worker);
        let obs = Arc::new(CollectingObserver::default());
        let run = Campaign::new("sparse", 3)
            .jobs(0u64..8)
            .threads(2)
            .observe(obs.clone())
            .run_cached(&cache, worker);
        let mut ids: Vec<u64> = obs.reports.lock().unwrap().iter().map(|r| r.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 3, 5, 7]);
        for id in [1, 3, 5, 7] {
            assert_eq!(run.values[id], Some(id as u64), "worker saw job {id}");
        }
        assert_eq!(obs.summaries.lock().unwrap()[0].jobs, 4, "only misses ran");
    }

    #[test]
    fn campaigns_sharing_a_disk_cache_keep_their_own_files() {
        let dir = std::env::temp_dir().join("adc_runtime_campaign_files_test");
        let _ = std::fs::remove_dir_all(&dir);
        let file = |name: &str| dir.join(format!("{name}.cache"));
        let entries = |name: &str| {
            let text = std::fs::read_to_string(file(name)).unwrap();
            text.lines().filter(|l| !l.starts_with('#')).count()
        };
        let run = |cache: &ResultCache, name: &str, jobs: u64| {
            Campaign::new(name, 4)
                .jobs(0..jobs)
                .threads(2)
                .run_cached(cache, |_, &x| Ok::<_, JobError>(x as f64))
                .into_result()
                .unwrap()
        };
        let cache = ResultCache::on_disk(&dir).unwrap();
        run(&cache, "alpha", 5);
        run(&cache, "beta", 3);
        assert_eq!((entries("alpha"), entries("beta")), (5, 3));

        // A comment line survives only if nothing rewrites the file.
        for name in ["alpha", "beta"] {
            let mut text = std::fs::read_to_string(file(name)).unwrap();
            text.push_str("# untouched\n");
            std::fs::write(file(name), text).unwrap();
        }
        run(&cache, "alpha", 5);
        run(&cache, "beta", 3);
        let restarted = ResultCache::on_disk(&dir).unwrap();
        assert_eq!(run(&restarted, "beta", 3), vec![0.0, 1.0, 2.0]);
        for name in ["alpha", "beta"] {
            let text = std::fs::read_to_string(file(name)).unwrap();
            assert!(
                text.ends_with("# untouched\n"),
                "all-hit rerun wrote {name}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
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

//! Execution policy for measurement campaigns.
//!
//! Every sweep and Monte-Carlo harness in this crate fans its points out
//! through `adc-runtime`; [`RunPolicy`] is the shared knob set (thread
//! count, observers) those harnesses accept. The engine's determinism
//! contract means the policy affects wall time only — results are
//! bit-identical from `serial()` to `parallel(64)`.

use std::sync::{Arc, Mutex};

use adc_pipeline::error::BuildAdcError;
use adc_runtime::{
    canonical_key, CacheCodec, Campaign, CampaignRun, JobError, JobId, ResultCache, RunObserver,
};

/// How a campaign executes: worker-thread count, attached observers, and
/// an optional content-hash result cache.
#[derive(Clone, Default)]
pub struct RunPolicy {
    /// Worker threads; `0` (default) uses all hardware parallelism.
    pub threads: usize,
    /// Observers attached to every campaign run under this policy.
    pub observers: Vec<Arc<dyn RunObserver>>,
    /// When set, campaign points are looked up here before computing —
    /// regenerating a figure after editing one sweep point recomputes
    /// only that point.
    pub cache: Option<Arc<ResultCache>>,
}

impl std::fmt::Debug for RunPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunPolicy")
            .field("threads", &self.threads)
            .field("observers", &self.observers.len())
            .field("cached", &self.cache.is_some())
            .finish()
    }
}

impl RunPolicy {
    /// One worker thread: the serial reference execution.
    pub fn serial() -> Self {
        Self {
            threads: 1,
            ..Self::default()
        }
    }

    /// A fixed worker-thread count.
    pub fn parallel(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }

    /// Attaches an observer (builder style).
    #[must_use]
    pub fn observe(mut self, observer: Arc<dyn RunObserver>) -> Self {
        self.observers.push(observer);
        self
    }

    /// Attaches a result cache (builder style).
    #[must_use]
    pub fn cached(mut self, cache: Arc<ResultCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Builds a campaign over `inputs` configured per this policy.
    fn campaign<I>(&self, name: &str, seed: u64, inputs: Vec<I>) -> Campaign<I> {
        let mut campaign = Campaign::new(name, seed).jobs(inputs).threads(self.threads);
        for obs in &self.observers {
            campaign = campaign.observe(Arc::clone(obs));
        }
        campaign
    }

    /// Runs `worker` over `inputs` as a named measurement campaign: the
    /// points fan out across the engine's worker pool, results return in
    /// input order, and an attached cache skips already-computed points.
    ///
    /// This is the public face of the machinery the built-in sweeps use:
    /// `kind` plus the `fingerprint` (everything that shapes results
    /// besides the per-point input — config, seed, record length)
    /// becomes a collision-safe campaign name, and typed build errors
    /// from any point resolve to the error of the lowest-index failed
    /// point, exactly as a serial loop would have returned first.
    ///
    /// ```
    /// use adc_testbench::RunPolicy;
    ///
    /// let doubled = RunPolicy::serial()
    ///     .measure_campaign("doc", &"fingerprint", 7, vec![1.0, 2.0], |_ctx, &x| Ok(x * 2.0))
    ///     .unwrap();
    /// assert_eq!(doubled, vec![2.0, 4.0]);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns the lowest-index point's [`BuildAdcError`] if any point
    /// fails.
    ///
    /// # Panics
    ///
    /// Re-raises worker panics, mirroring a serial loop.
    pub fn measure_campaign<I, T, P, F>(
        &self,
        kind: &str,
        fingerprint: &P,
        seed: u64,
        inputs: Vec<I>,
        worker: F,
    ) -> Result<Vec<T>, BuildAdcError>
    where
        I: Sync + std::fmt::Debug,
        T: Send + CacheCodec,
        P: std::fmt::Debug,
        F: Fn(&adc_runtime::JobCtx, &I) -> Result<T, BuildAdcError> + Sync,
    {
        let name = campaign_id(kind, fingerprint);
        let funnel = ErrorFunnel::new();
        let run = self.run_campaign(&name, seed, inputs, |ctx, input| {
            worker(ctx, input).map_err(|e| funnel.capture(ctx.id, e))
        });
        funnel.resolve(run)
    }

    /// Runs a campaign, through the cache when one is attached.
    fn run_campaign<I, T, F>(
        &self,
        name: &str,
        seed: u64,
        inputs: Vec<I>,
        worker: F,
    ) -> CampaignRun<T>
    where
        I: Sync + std::fmt::Debug,
        T: Send + CacheCodec,
        F: Fn(&adc_runtime::JobCtx, &I) -> Result<T, JobError> + Sync,
    {
        let campaign = self.campaign(name, seed, inputs);
        match &self.cache {
            Some(cache) => campaign.run_cached(cache, worker),
            None => campaign.run(worker),
        }
    }
}

/// A collision-safe campaign name: `kind` plus a hash of everything that
/// shapes the results besides the per-point input (config, seed, record
/// length, ...). Cache entries from different setups can then never
/// alias, even under the same `kind`.
pub(crate) fn campaign_id<F: std::fmt::Debug>(kind: &str, fingerprint: &F) -> String {
    format!("{kind}-{:016x}", canonical_key(kind, fingerprint))
}

/// Carries typed [`BuildAdcError`]s out of campaign workers.
///
/// The runtime's [`JobError`] is stringly typed; the sweep APIs promise a
/// `BuildAdcError`. Workers route build failures through
/// [`ErrorFunnel::capture`], and [`ErrorFunnel::resolve`] returns the
/// typed error of the *lowest-id* failed job — exactly the error the old
/// serial loop would have returned first.
struct ErrorFunnel {
    errors: Mutex<Vec<(u64, BuildAdcError)>>,
}

impl ErrorFunnel {
    fn new() -> Self {
        Self {
            errors: Mutex::new(Vec::new()),
        }
    }

    /// Records a typed error for job `id` and returns its [`JobError`]
    /// rendering for the runtime.
    fn capture(&self, id: JobId, err: BuildAdcError) -> JobError {
        let rendered = JobError::Failed(err.to_string());
        self.errors.lock().expect("funnel lock").push((id.0, err));
        rendered
    }

    /// Unwraps a finished run into the public result type.
    ///
    /// Panics (re-raising the message) if the failure was a worker panic
    /// rather than a captured build error — mirroring the serial
    /// harnesses, where a panic propagated to the caller.
    fn resolve<T>(self, run: CampaignRun<T>) -> Result<Vec<T>, BuildAdcError> {
        match run.into_result() {
            Ok(values) => Ok(values),
            Err((id, job_err)) => {
                let errors = self.errors.into_inner().expect("funnel lock");
                match errors.into_iter().find(|(i, _)| *i == id.0) {
                    Some((_, err)) => Err(err),
                    None => panic!("campaign job {id} failed: {job_err}"),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_uses_hardware_threads() {
        let p = RunPolicy::default();
        assert_eq!(p.threads, 0);
        assert!(p.observers.is_empty());
        assert_eq!(RunPolicy::serial().threads, 1);
        assert_eq!(RunPolicy::parallel(4).threads, 4);
    }

    #[test]
    fn measure_campaign_orders_results_and_types_errors() {
        let policy = RunPolicy::parallel(4);
        let squares = policy
            .measure_campaign("sq", &"fp", 0, (0u64..16).collect(), |_, &x| Ok(x * x))
            .unwrap();
        assert_eq!(squares, (0u64..16).map(|x| x * x).collect::<Vec<_>>());

        let err = policy
            .measure_campaign("sq", &"fp", 0, (0u64..16).collect(), |_, &x| {
                if x >= 5 {
                    Err(BuildAdcError::InvalidRate(-(x as f64)))
                } else {
                    Ok(x)
                }
            })
            .unwrap_err();
        assert_eq!(err, BuildAdcError::InvalidRate(-5.0), "lowest index wins");
    }

    #[test]
    fn measure_campaign_is_cacheable() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = Arc::new(ResultCache::in_memory());
        let policy = RunPolicy::serial().cached(Arc::clone(&cache));
        let computed = AtomicUsize::new(0);
        for _ in 0..2 {
            let out = policy
                .measure_campaign("cached", &"fp", 0, vec![1.0f64, 2.0], |_, &x| {
                    computed.fetch_add(1, Ordering::SeqCst);
                    Ok(x + 0.5)
                })
                .unwrap();
            assert_eq!(out, vec![1.5, 2.5]);
        }
        assert_eq!(
            computed.load(Ordering::SeqCst),
            2,
            "second pass is all hits"
        );
    }

    #[test]
    fn funnel_returns_the_lowest_id_typed_error() {
        let funnel = ErrorFunnel::new();
        let run = RunPolicy::parallel(4)
            .campaign("funnel", 0, (0u64..8).collect())
            .run(|ctx, &x| {
                if x >= 6 {
                    Err(funnel.capture(ctx.id, BuildAdcError::InvalidRate(-(x as f64))))
                } else {
                    Ok(x)
                }
            });
        assert_eq!(
            funnel.resolve(run),
            Err(BuildAdcError::InvalidRate(-6.0)),
            "job 6 fails first in id order"
        );
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn funnel_reraises_worker_panics() {
        let funnel = ErrorFunnel::new();
        let run = RunPolicy::serial()
            .campaign("panic", 0, vec![0u64])
            .run(|_, _| -> Result<u64, JobError> { panic!("boom") });
        let _ = funnel.resolve(run);
    }
}

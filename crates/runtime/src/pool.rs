//! The work-stealing execution core.
//!
//! Jobs are pre-sharded round-robin across one deque per worker; a
//! worker pops from the *front* of its own deque and, when empty, steals
//! from the *back* of the most-loaded sibling. Scheduling therefore
//! adapts to imbalance (one slow Monte-Carlo die does not idle the other
//! cores) while remaining irrelevant to results: a job's output depends
//! only on its [`JobId`]-derived seed and its input, never on which
//! worker ran it or when, and each result is written to the slot its id
//! indexes.
//!
//! Panics are confined per attempt with `catch_unwind`; a diverging die
//! fails its own job (after bounded retries) and the campaign completes.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::job::{JobCtx, JobError, JobId, JobReport};
use crate::observer::RunObserver;

/// Immutable run parameters the pool needs.
pub(crate) struct PoolConfig<'a> {
    pub campaign_seed: u64,
    pub threads: usize,
    pub timeout: Option<Duration>,
    pub retries: u32,
    pub observers: &'a [Arc<dyn RunObserver>],
}

/// The number of workers used when the caller asks for "hardware"
/// parallelism (`threads == 0`).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one attempt, isolating panics and classifying the outcome.
fn run_attempt<I, T>(
    worker: &(dyn Fn(&JobCtx, &I) -> Result<T, JobError> + Sync),
    ctx: &JobCtx,
    input: &I,
) -> (Result<T, JobError>, u64) {
    let outcome = catch_unwind(AssertUnwindSafe(|| worker(ctx, input)));
    let samples = ctx.samples();
    match outcome {
        Ok(result) => (result, samples),
        Err(payload) => (Err(JobError::Panicked(panic_message(payload))), samples),
    }
}

/// Executes a job to completion: up to `1 + retries` attempts, each with
/// a fresh context (same derived seed).
fn run_job<I, T>(
    cfg: &PoolConfig<'_>,
    cancelled: &Arc<AtomicBool>,
    worker: &(dyn Fn(&JobCtx, &I) -> Result<T, JobError> + Sync),
    id: JobId,
    input: &I,
) -> (Option<T>, JobReport) {
    let max_attempts = 1 + cfg.retries;
    let mut total_samples = 0;
    for attempt in 1..=max_attempts {
        let ctx = JobCtx::new(
            cfg.campaign_seed,
            id,
            attempt,
            cfg.timeout,
            Arc::clone(cancelled),
        );
        for obs in cfg.observers {
            obs.on_job_start(id, attempt);
        }
        // Scope the trace span-id stream to this job's derived seed so
        // span identity is reproducible run-to-run, then record the
        // attempt as one span (job id attached as the span argument).
        let _trace_task = adc_trace::task(ctx.seed);
        let _trace_span = adc_trace::span_with("job", id.0);
        let start = Instant::now(); // adc-lint: allow(no-wallclock) reason="wall-time metric for observer reports; never feeds job results"
        let (result, samples) = run_attempt(worker, &ctx, input);
        let wall = start.elapsed();
        total_samples += samples;
        match result {
            Ok(value) => {
                let report = JobReport {
                    id,
                    attempts: attempt,
                    wall,
                    samples: total_samples,
                    error: None,
                };
                return (Some(value), report);
            }
            Err(err) => {
                // A cooperative timeout is terminal: the budget is spent.
                let terminal = matches!(err, JobError::TimedOut) || attempt == max_attempts;
                if terminal {
                    let report = JobReport {
                        id,
                        attempts: attempt,
                        wall,
                        samples: total_samples,
                        error: Some(err),
                    };
                    return (None, report);
                }
            }
        }
    }
    unreachable!("loop returns on the final attempt");
}

/// Executes `inputs` across the pool, returning per-job values and
/// reports in job order (index == `JobId`).
pub(crate) fn execute<I, T, F>(
    cfg: &PoolConfig<'_>,
    inputs: &[I],
    worker: &F,
) -> (Vec<Option<T>>, Vec<JobReport>)
where
    I: Sync,
    T: Send,
    F: Fn(&JobCtx, &I) -> Result<T, JobError> + Sync,
{
    let n = inputs.len();
    let threads = cfg.threads.max(1).min(n.max(1));
    let cancelled = Arc::new(AtomicBool::new(false));

    // Round-robin pre-sharding: deque w gets jobs w, w+threads, ...
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..threads)
        .map(|w| Mutex::new((w..n).step_by(threads).collect()))
        .collect();

    type Slot<T> = Mutex<Option<(Option<T>, JobReport)>>;
    let slots: Vec<Slot<T>> = (0..n).map(|_| Mutex::new(None)).collect();
    let done = std::sync::atomic::AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for w in 0..threads {
            let queues = &queues;
            let slots = &slots;
            let done = &done;
            let cancelled = &cancelled;
            scope.spawn(move || loop {
                // Own deque first (front), then steal (back) from the
                // sibling with the most queued work.
                let job = {
                    let own = queues[w].lock().expect("queue lock").pop_front();
                    match own {
                        Some(j) => Some(j),
                        None => {
                            let victim = (0..threads)
                                .filter(|&v| v != w)
                                .max_by_key(|&v| queues[v].lock().expect("queue lock").len());
                            let stolen = victim
                                .and_then(|v| queues[v].lock().expect("queue lock").pop_back());
                            if stolen.is_some() {
                                adc_trace::instant("steal");
                            }
                            stolen
                        }
                    }
                };
                let Some(index) = job else { break };
                let (value, report) =
                    run_job(cfg, cancelled, worker, JobId(index as u64), &inputs[index]);
                for obs in cfg.observers {
                    obs.on_job_finish(report.id, &report);
                }
                *slots[index].lock().expect("slot lock") = Some((value, report));
                let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                for obs in cfg.observers {
                    obs.on_progress(finished, n);
                }
            });
        }
    });

    let mut values = Vec::with_capacity(n);
    let mut reports = Vec::with_capacity(n);
    for slot in slots {
        let (value, report) = slot
            .into_inner()
            .expect("slot lock")
            .expect("every job ran to completion");
        values.push(value);
        reports.push(report);
    }
    (values, reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(threads: usize, retries: u32) -> PoolConfig<'static> {
        PoolConfig {
            campaign_seed: 7,
            threads,
            timeout: None,
            retries,
            observers: &[],
        }
    }

    #[test]
    fn executes_every_job_in_order() {
        let inputs: Vec<u64> = (0..100).collect();
        let (values, reports) = execute(&cfg(8, 0), &inputs, &|ctx: &JobCtx, &x: &u64| {
            Ok::<u64, JobError>(x * 2 + ctx.id.0)
        });
        for (i, v) in values.iter().enumerate() {
            assert_eq!(*v, Some((i as u64) * 3));
            assert_eq!(reports[i].id, JobId(i as u64));
        }
    }

    #[test]
    fn results_independent_of_thread_count() {
        let inputs: Vec<u64> = (0..64).collect();
        let run = |threads| {
            execute(&cfg(threads, 0), &inputs, &|ctx: &JobCtx, _: &u64| {
                Ok::<u64, JobError>(ctx.seed)
            })
            .0
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(8));
    }

    #[test]
    fn a_panicking_job_does_not_kill_the_campaign() {
        let inputs: Vec<u64> = (0..16).collect();
        let (values, reports) = execute(&cfg(4, 0), &inputs, &|_: &JobCtx, &x: &u64| {
            if x == 5 {
                panic!("diverging die {x}");
            }
            Ok::<u64, JobError>(x)
        });
        assert_eq!(values[5], None);
        match &reports[5].error {
            Some(JobError::Panicked(msg)) => assert!(msg.contains("diverging die 5")),
            other => panic!("expected panic error, got {other:?}"),
        }
        for (i, v) in values.iter().enumerate() {
            if i != 5 {
                assert_eq!(*v, Some(i as u64));
            }
        }
    }

    #[test]
    fn retries_are_bounded_and_counted() {
        use std::sync::atomic::AtomicU32;
        let attempts = AtomicU32::new(0);
        let inputs = [0u64];
        let (values, reports) = execute(&cfg(1, 3), &inputs, &|ctx: &JobCtx, _: &u64| {
            attempts.fetch_add(1, Ordering::Relaxed);
            if ctx.attempt < 3 {
                Err(JobError::Failed("flaky".to_string()))
            } else {
                Ok(99u64)
            }
        });
        assert_eq!(values[0], Some(99));
        assert_eq!(reports[0].attempts, 3);
        assert_eq!(attempts.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn exhausted_retries_surface_the_last_error() {
        let inputs = [0u64];
        let (values, reports) = execute(&cfg(1, 2), &inputs, &|_: &JobCtx, _: &u64| {
            Err::<u64, _>(JobError::Failed("always".to_string()))
        });
        assert_eq!(values[0], None);
        assert_eq!(reports[0].attempts, 3);
        assert_eq!(
            reports[0].error,
            Some(JobError::Failed("always".to_string()))
        );
    }

    #[test]
    fn cooperative_timeout_is_terminal() {
        let inputs = [0u64];
        let mut config = cfg(1, 5);
        config.timeout = Some(Duration::ZERO);
        let (values, reports) = execute(&config, &inputs, &|ctx: &JobCtx, _: &u64| {
            std::thread::sleep(Duration::from_millis(1));
            if ctx.timed_out() {
                return Err::<u64, _>(JobError::TimedOut);
            }
            Ok(1)
        });
        assert_eq!(values[0], None);
        // No retries burned after a timeout: the budget is spent.
        assert_eq!(reports[0].attempts, 1);
        assert_eq!(reports[0].error, Some(JobError::TimedOut));
    }

    #[test]
    fn empty_input_is_fine() {
        let inputs: [u64; 0] = [];
        let (values, reports) =
            execute(&cfg(4, 0), &inputs, &|_: &JobCtx, _| Ok::<u64, JobError>(0));
        assert!(values.is_empty() && reports.is_empty());
    }
}

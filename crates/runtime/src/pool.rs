//! The one job runner, and the campaign scheduler that feeds it.
//!
//! `run_job` runs one job for both schedulers in this crate — a
//! [`Campaign`](crate::Campaign)'s scoped workers and a
//! [`JobPool`](crate::JobPool)'s long-lived ones. It builds the job's
//! [`JobCtx`], reports `on_job_start`, enters the job's trace task and
//! `job` span, runs the work under `catch_unwind` (a diverging die
//! fails its own job and the campaign completes), and reports the
//! finished [`JobReport`] through `on_job_finish`. Only campaigns pass
//! observers; the pool passes none and hands the report to the job's
//! completion callback instead.
//!
//! `execute` runs a campaign's closed job set over scoped threads:
//! one shared atomic cursor hands out `(JobId, &input)` pairs in order,
//! and each outcome lands in its pair's slot. Scheduling is therefore
//! irrelevant to results: a job's output depends only on its
//! [`JobId`]-derived seed and its input, never on which worker ran it
//! or when.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::job::{JobCtx, JobError, JobId, JobReport};
use crate::observer::RunObserver;

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

/// Runs job `id` once, isolating panics, and reports it to
/// `observers`.
pub(crate) fn run_job<T>(
    campaign_seed: u64,
    id: JobId,
    deadline: Option<Instant>,
    observers: &[Arc<dyn RunObserver>],
    work: impl FnOnce(&JobCtx) -> Result<T, JobError>,
) -> (Option<T>, JobReport) {
    let ctx = JobCtx::new(campaign_seed, id, deadline);
    for obs in observers {
        obs.on_job_start(id);
    }
    let (outcome, wall) = {
        // Scope the trace span-id stream to this job's derived seed so
        // span identity is reproducible run-to-run, then record the
        // run as one span (job id attached as the span argument).
        let _trace_task = adc_trace::task(ctx.seed);
        let _trace_span = adc_trace::span_with("job", id.0);
        let start = Instant::now(); // adc-lint: allow(no-wallclock) reason="wall-time metric for observer reports; never feeds job results"
        let outcome = catch_unwind(AssertUnwindSafe(|| work(&ctx)));
        (outcome, start.elapsed())
    };
    let (value, error) = match outcome {
        Ok(Ok(value)) => (Some(value), None),
        Ok(Err(err)) => (None, Some(err)),
        Err(payload) => (None, Some(JobError::Panicked(panic_message(payload)))),
    };
    let report = JobReport {
        id,
        wall,
        samples: ctx.samples(),
        error,
    };
    for obs in observers {
        obs.on_job_finish(id, &report);
    }
    (value, report)
}

/// Executes `jobs` on `threads` scoped workers, returning each job's
/// value and report in `jobs` order.
pub(crate) fn execute<I, T, F>(
    campaign_seed: u64,
    threads: usize,
    observers: &[Arc<dyn RunObserver>],
    jobs: &[(JobId, &I)],
    worker: &F,
) -> Vec<(Option<T>, JobReport)>
where
    I: Sync,
    T: Send,
    F: Fn(&JobCtx, &I) -> Result<T, JobError> + Sync,
{
    let n = jobs.len();
    let cursor = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    type Slot<T> = Mutex<Option<(Option<T>, JobReport)>>;
    let slots: Vec<Slot<T>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads.max(1).min(n) {
            scope.spawn(|| loop {
                let at = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&(id, input)) = jobs.get(at) else {
                    break;
                };
                let outcome = run_job(campaign_seed, id, None, observers, |ctx| worker(ctx, input));
                *slots[at].lock().expect("slot lock") = Some(outcome);
                let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                for obs in observers {
                    obs.on_progress(finished, n);
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("every job ran to completion")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `inputs` as jobs `0..n` under campaign seed 7.
    fn execute_all<T: Send>(
        threads: usize,
        inputs: &[u64],
        worker: &(impl Fn(&JobCtx, &u64) -> Result<T, JobError> + Sync),
    ) -> (Vec<Option<T>>, Vec<JobReport>) {
        let jobs: Vec<(JobId, &u64)> = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| (JobId(i as u64), input))
            .collect();
        execute(7, threads, &[], &jobs, worker).into_iter().unzip()
    }

    #[test]
    fn executes_every_job_in_order() {
        let inputs: Vec<u64> = (0..100).collect();
        let (values, reports) = execute_all(8, &inputs, &|ctx: &JobCtx, &x: &u64| {
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
            execute_all(threads, &inputs, &|ctx: &JobCtx, _: &u64| {
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
        let (values, reports) = execute_all(4, &inputs, &|_: &JobCtx, &x: &u64| {
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
    fn empty_input_is_fine() {
        let inputs: [u64; 0] = [];
        let (values, reports) =
            execute_all(4, &inputs, &|_: &JobCtx, _: &u64| Ok::<u64, JobError>(0));
        assert!(values.is_empty() && reports.is_empty());
    }
}

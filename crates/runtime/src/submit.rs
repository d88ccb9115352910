//! A long-lived job pool for serving workloads.
//!
//! [`Campaign`](crate::Campaign) executes a *closed* job set and tears
//! its workers down when the set completes — the right shape for figure
//! regeneration, but not for a server that receives requests one at a
//! time over an open-ended lifetime. [`JobPool`] runs each job through
//! the same job runner as a campaign ([`JobCtx`] with a stable per-job
//! seed, panic confinement, the `job` trace span) from a FIFO queue of
//! long-lived workers: callers [`JobPool::submit_then`] individual
//! closures together with a completion callback that receives the
//! job's value and [`JobReport`]. The pool has no observers: the
//! callback is where a caller accounts and publishes a job.
//!
//! Three differences from the campaign engine follow from the
//! open-ended lifetime:
//!
//! * **Ids number submissions, not a fixed set.** Each submission gets
//!   the next [`JobId`] in order, so a job's derived seed is still a
//!   pure function of `(pool_seed, submission index)` — but note that
//!   serving workloads usually pass their *own* seed in the request and
//!   ignore the derived one, because request arrival order is not
//!   deterministic across server runs.
//! * **Jobs carry deadlines.** A submission's cooperative deadline is
//!   armed when it is submitted, so time spent queued counts against
//!   it.
//! * **Shutdown is a drain.** [`JobPool::shutdown`] stops accepting new
//!   work, lets queued and in-flight jobs finish, and joins the workers
//!   — the graceful-drain building block `adc-server` uses.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::job::{JobCtx, JobError, JobId, JobReport};
use crate::pool::{default_threads, run_job};

type Task = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: Mutex<VecDeque<Task>>,
    task_ready: Condvar,
    draining: AtomicBool,
}

/// A persistent worker pool accepting individual jobs over its
/// lifetime.
///
/// ```
/// use std::sync::mpsc;
/// use adc_runtime::{JobError, JobPool};
///
/// let pool = JobPool::new(42, 2);
/// let (tx, rx) = mpsc::channel();
/// pool.submit_then(
///     None,
///     |ctx| Ok::<_, JobError>(ctx.seed),
///     move |value, report| tx.send((value, report)).unwrap(),
/// );
/// let (value, report) = rx.recv().unwrap();
/// assert!(value.is_some() && report.error.is_none());
/// pool.shutdown();
/// ```
pub struct JobPool {
    seed: u64,
    next_id: AtomicU64,
    state: Arc<PoolState>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for JobPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobPool")
            .field("seed", &self.seed)
            .field("submitted", &self.next_id.load(Ordering::Relaxed))
            .finish()
    }
}

impl JobPool {
    /// Spawns a pool of `threads` workers (`0` = all hardware
    /// parallelism). `seed` anchors the per-submission derived seeds.
    pub fn new(seed: u64, threads: usize) -> Self {
        let threads = if threads == 0 {
            default_threads()
        } else {
            threads
        };
        let state = Arc::new(PoolState {
            queue: Mutex::new(VecDeque::new()),
            task_ready: Condvar::new(),
            draining: AtomicBool::new(false),
        });
        let workers = (0..threads)
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || loop {
                    let task = {
                        let mut queue = state.queue.lock().expect("pool queue lock");
                        loop {
                            if let Some(task) = queue.pop_front() {
                                break Some(task);
                            }
                            if state.draining.load(Ordering::SeqCst) {
                                break None;
                            }
                            queue = state
                                .task_ready
                                .wait(queue)
                                .expect("pool queue lock poisoned");
                        }
                    };
                    let Some(task) = task else { break };
                    task();
                })
            })
            .collect();
        Self {
            seed,
            next_id: AtomicU64::new(0),
            state,
            workers: Mutex::new(workers),
        }
    }

    /// The number of worker threads serving this pool (the resolved
    /// count — a `threads == 0` request reports the hardware width it
    /// expanded to).
    pub fn threads(&self) -> usize {
        self.workers.lock().expect("pool workers lock").len()
    }

    /// Submits one job and hands its value (`None` on failure) and
    /// report to `then`. The job runs on a pool thread with a
    /// [`JobCtx`] whose seed derives from `(pool_seed, submission id)`
    /// and whose cooperative deadline is `timeout`; panics are confined
    /// to the job ([`JobError::Panicked`]).
    ///
    /// `then` runs on the same worker right after the job, so it is
    /// the place to account the job and publish its outcome. After
    /// [`JobPool::shutdown`] begins, submissions are rejected: `then`
    /// runs at once, on the caller's thread, with
    /// [`JobError::Draining`] and nothing executed.
    pub fn submit_then<T, F, C>(&self, timeout: Option<Duration>, work: F, then: C) -> JobId
    where
        F: FnOnce(&JobCtx) -> Result<T, JobError> + Send + 'static,
        C: FnOnce(Option<T>, JobReport) + Send + 'static,
    {
        let id = JobId(self.next_id.fetch_add(1, Ordering::SeqCst));
        let seed = self.seed;
        // Armed at submission, so time spent queued counts against it.
        // adc-lint: allow(no-wallclock) reason="deadline arming; a timeout aborts a job, it never alters a completed result"
        let deadline = timeout.map(|t| Instant::now() + t);
        // Armed only while tracing so the disabled path stays free of
        // clock reads; the elapsed value feeds the trace stream only.
        // adc-lint: allow(no-wallclock) reason="queue-wait trace counter, armed only while tracing; never feeds job results"
        let queued_at = adc_trace::enabled().then(Instant::now);
        let mut queue = self.state.queue.lock().expect("pool queue lock");
        // Checked under the lock so a concurrent shutdown cannot strand
        // a task behind departing workers.
        if self.state.draining.load(Ordering::SeqCst) {
            drop(queue);
            then(None, JobReport::not_run(id, Some(JobError::Draining)));
            return id;
        }
        let task: Task = Box::new(move || {
            if let Some(queued_at) = queued_at {
                let waited = u64::try_from(queued_at.elapsed().as_micros()).unwrap_or(u64::MAX);
                adc_trace::counter("queue_wait_us", waited);
            }
            let (value, report) = run_job(seed, id, deadline, &[], work);
            then(value, report);
        });
        queue.push_back(task);
        drop(queue);
        self.state.task_ready.notify_one();
        id
    }

    /// Graceful drain: stops accepting submissions, runs every already
    /// queued job to completion, and joins the workers. Idempotent —
    /// later calls return immediately.
    pub fn shutdown(&self) {
        {
            // Flag and wake-up under the queue lock: a worker that has
            // checked `draining` but not yet parked in `wait` holds this
            // lock, so it either sees the flag or is already waiting when
            // the notification fires. Outside the lock the wake-up could
            // land in that gap and leave the worker parked forever.
            let _queue = self.state.queue.lock().expect("pool queue lock");
            self.state.draining.store(true, Ordering::SeqCst);
            self.state.task_ready.notify_all();
        }
        let workers = std::mem::take(&mut *self.workers.lock().expect("pool worker lock"));
        for worker in workers {
            let _ = worker.join();
        }
    }
}

impl Drop for JobPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// Submits `work` and returns the channel its value and report
    /// arrive on.
    fn submit<T, F>(
        pool: &JobPool,
        timeout: Option<Duration>,
        work: F,
    ) -> mpsc::Receiver<(Option<T>, JobReport)>
    where
        T: Send + 'static,
        F: FnOnce(&JobCtx) -> Result<T, JobError> + Send + 'static,
    {
        let (tx, rx) = mpsc::channel();
        pool.submit_then(timeout, work, move |value, report| {
            let _ = tx.send((value, report));
        });
        rx
    }

    /// Waits for a submitted job: its value, or its terminal error.
    fn outcome<T>(rx: mpsc::Receiver<(Option<T>, JobReport)>) -> Result<T, JobError> {
        let (value, report) = rx.recv().expect("then runs exactly once");
        value.ok_or_else(|| report.error.expect("a failed job reports its error"))
    }

    #[test]
    fn submitted_jobs_run_and_return_with_their_reports() {
        let pool = JobPool::new(1, 2);
        let jobs: Vec<_> = (0..16u64)
            .map(|x| {
                submit(&pool, None, move |ctx| {
                    ctx.record_samples(10);
                    Ok::<_, JobError>(x * 3)
                })
            })
            .collect();
        for (i, rx) in jobs.into_iter().enumerate() {
            let (value, report) = rx.recv().unwrap();
            assert_eq!(value, Some(i as u64 * 3));
            assert_eq!(report.id, JobId(i as u64), "ids number submissions");
            assert_eq!((report.samples, report.error), (10, None));
        }
        pool.shutdown();
    }

    #[test]
    fn derived_seeds_match_campaign_derivation() {
        let pool = JobPool::new(77, 3);
        let seeds: Vec<u64> = (0..8)
            .map(|_| submit(&pool, None, |ctx| Ok::<_, JobError>(ctx.seed)))
            .map(|rx| outcome(rx).unwrap())
            .collect();
        for (i, &seed) in seeds.iter().enumerate() {
            assert_eq!(seed, crate::derive_seed(77, i as u64));
        }
    }

    #[test]
    fn panics_are_confined_to_their_job() {
        let pool = JobPool::new(0, 2);
        let bad = submit(&pool, None, |_| -> Result<u64, JobError> {
            panic!("die 3 diverged")
        });
        let good = submit(&pool, None, |_| Ok::<_, JobError>(5u64));
        match outcome(bad) {
            Err(JobError::Panicked(msg)) => assert!(msg.contains("die 3 diverged")),
            other => panic!("expected panic error, got {other:?}"),
        }
        assert_eq!(outcome(good).unwrap(), 5);
        pool.shutdown();
    }

    #[test]
    fn cooperative_deadline_is_observable() {
        let pool = JobPool::new(0, 1);
        let rx = submit(&pool, Some(Duration::ZERO), |ctx| {
            std::thread::sleep(Duration::from_millis(2));
            if ctx.timed_out() {
                Err::<u64, _>(JobError::TimedOut)
            } else {
                Ok(1)
            }
        });
        assert_eq!(outcome(rx), Err(JobError::TimedOut));
    }

    #[test]
    fn shutdown_drains_queued_work_then_rejects_through_then() {
        let pool = JobPool::new(0, 1);
        let jobs: Vec<_> = (0..8u64)
            .map(|x| {
                submit(&pool, None, move |_| {
                    std::thread::sleep(Duration::from_millis(1));
                    Ok::<_, JobError>(x)
                })
            })
            .collect();
        pool.shutdown();
        for (i, rx) in jobs.into_iter().enumerate() {
            assert_eq!(outcome(rx).unwrap(), i as u64, "queued job drained");
        }
        // A draining pool runs nothing and calls `then` at once, on the
        // submitting thread.
        let caller = std::thread::current().id();
        let (tx, rx) = mpsc::channel();
        pool.submit_then(
            None,
            |_| -> Result<u64, JobError> { panic!("a draining pool ran a job") },
            move |value, report| {
                tx.send((value, report.error, std::thread::current().id()))
                    .unwrap();
            },
        );
        assert_eq!(
            rx.try_recv().unwrap(),
            (None, Some(JobError::Draining), caller)
        );
    }

    #[test]
    fn shutdown_never_strands_an_idle_worker() {
        // Regression for a lost wake-up: a worker between its `draining`
        // check and `wait` missed an unlocked `notify_all` and never
        // exited, hanging `shutdown`'s join. Each cycle races a fresh
        // idle worker against shutdown; the whole run must finish well
        // inside the timeout.
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            for cycle in 0..2_000u64 {
                let pool = JobPool::new(cycle, 1);
                let rx = submit(&pool, None, move |_| Ok::<_, JobError>(cycle));
                assert_eq!(outcome(rx).unwrap(), cycle);
                pool.shutdown();
            }
            let _ = done_tx.send(());
        });
        assert!(
            done_rx.recv_timeout(Duration::from_secs(60)).is_ok(),
            "a pool shutdown hung: a worker missed the drain wake-up"
        );
    }
}

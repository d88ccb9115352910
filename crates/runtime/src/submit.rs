//! Long-lived job-submission pools for serving workloads.
//!
//! [`Campaign`](crate::Campaign) executes a *closed* job set and tears
//! its workers down when the set completes — the right shape for figure
//! regeneration, but not for a server that receives requests one at a
//! time over an open-ended lifetime. [`JobPool`] runs each job through
//! the same job runner as a campaign ([`JobCtx`] with a stable per-job
//! seed, panic confinement, [`RunObserver`] hooks, the `job` trace
//! span) from a FIFO queue of long-lived workers: callers
//! [`JobPool::submit`] individual closures and receive a [`JobHandle`]
//! to wait on.
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
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::job::{JobCtx, JobError, JobId, JobReport};
use crate::observer::RunObserver;
use crate::pool::{default_threads, run_job};

type Task = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: Mutex<VecDeque<Task>>,
    task_ready: Condvar,
    draining: AtomicBool,
    pending: AtomicUsize,
}

/// A persistent worker pool accepting individual jobs over its
/// lifetime.
///
/// ```
/// use adc_runtime::{JobError, JobPool};
///
/// let pool = JobPool::new("doc", 42, 2);
/// let handle = pool.submit(None, |ctx| Ok::<_, JobError>(ctx.seed));
/// let (value, report) = handle.wait();
/// assert!(value.is_some() && report.error.is_none());
/// pool.shutdown();
/// ```
pub struct JobPool {
    name: String,
    seed: u64,
    next_id: AtomicU64,
    state: Arc<PoolState>,
    observers: Arc<Vec<Arc<dyn RunObserver>>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for JobPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobPool")
            .field("name", &self.name)
            .field("seed", &self.seed)
            .field("submitted", &self.next_id.load(Ordering::Relaxed))
            .field("pending", &self.state.pending.load(Ordering::Relaxed))
            .field("draining", &self.state.draining.load(Ordering::Relaxed))
            .finish()
    }
}

impl JobPool {
    /// Spawns a pool of `threads` workers (`0` = all hardware
    /// parallelism). `seed` anchors the per-submission derived seeds.
    pub fn new<S: Into<String>>(name: S, seed: u64, threads: usize) -> Self {
        Self::with_observers(name, seed, threads, Vec::new())
    }

    /// The number of worker threads serving this pool (the resolved
    /// count — a `threads == 0` request reports the hardware width it
    /// expanded to).
    pub fn threads(&self) -> usize {
        self.workers.lock().expect("pool workers lock").len()
    }

    /// [`JobPool::new`] with [`RunObserver`]s attached: each submission
    /// reports `on_job_start` / `on_job_finish` exactly as campaign jobs
    /// do (there is no campaign summary — the pool never "finishes"
    /// until shutdown).
    pub fn with_observers<S: Into<String>>(
        name: S,
        seed: u64,
        threads: usize,
        observers: Vec<Arc<dyn RunObserver>>,
    ) -> Self {
        let threads = if threads == 0 {
            default_threads()
        } else {
            threads
        };
        let state = Arc::new(PoolState {
            queue: Mutex::new(VecDeque::new()),
            task_ready: Condvar::new(),
            draining: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
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
                    state.pending.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        Self {
            name: name.into(),
            seed,
            next_id: AtomicU64::new(0),
            state,
            observers: Arc::new(observers),
            workers: Mutex::new(workers),
        }
    }

    /// The pool's label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Jobs submitted over the pool's lifetime.
    pub fn submitted(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed)
    }

    /// Jobs queued or running right now.
    pub fn pending(&self) -> usize {
        self.state.pending.load(Ordering::SeqCst)
    }

    /// `true` once [`JobPool::shutdown`] has begun.
    pub fn is_draining(&self) -> bool {
        self.state.draining.load(Ordering::SeqCst)
    }

    /// Submits one job; the worker closure runs on a pool thread with a
    /// [`JobCtx`] whose seed derives from `(pool_seed, submission id)`
    /// and whose cooperative deadline is `timeout`. Panics are confined
    /// to the job ([`JobError::Panicked`]).
    ///
    /// After [`JobPool::shutdown`] begins, submissions are rejected: the
    /// returned handle resolves immediately to [`JobError::Draining`]
    /// without executing.
    pub fn submit<T, F>(&self, timeout: Option<Duration>, work: F) -> JobHandle<T>
    where
        T: Send + 'static,
        F: FnOnce(&JobCtx) -> Result<T, JobError> + Send + 'static,
    {
        let (tx, rx) = mpsc::channel();
        let id = self.submit_then(timeout, work, move |value, report| {
            let _ = tx.send((value, report));
        });
        JobHandle { id, rx }
    }

    /// [`JobPool::submit`], handing the job's value (`None` on failure)
    /// and report to `then` instead of a [`JobHandle`].
    ///
    /// `then` runs on the worker after every observer has seen the
    /// job's `on_job_finish`, so it is the place to publish the job's
    /// outcome: whoever sees what `then` publishes also sees the job
    /// accounted. A submission rejected by a draining pool calls `then`
    /// at once with the rejection.
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
        let observers = Arc::clone(&self.observers);
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
            let (value, report) = run_job(seed, id, deadline, &observers, work);
            then(value, report);
        });
        self.state.pending.fetch_add(1, Ordering::SeqCst);
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

/// The caller's side of one submitted job.
#[derive(Debug)]
pub struct JobHandle<T> {
    id: JobId,
    rx: mpsc::Receiver<(Option<T>, JobReport)>,
}

impl<T> JobHandle<T> {
    /// The job's stable id (submission index).
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Blocks until the job finishes, returning its value (`None` on
    /// failure) and report.
    pub fn wait(self) -> (Option<T>, JobReport) {
        self.rx
            .recv()
            .expect("pool worker dropped the result channel")
    }

    /// Blocks until the job finishes, returning `Ok(value)` or the
    /// job's terminal error.
    ///
    /// # Errors
    ///
    /// Returns the job's [`JobError`] when it failed, panicked, timed
    /// out, or was rejected by a draining pool.
    pub fn into_result(self) -> Result<T, JobError> {
        let (value, report) = self.wait();
        match value {
            Some(v) => Ok(v),
            None => Err(report
                .error
                .unwrap_or_else(|| JobError::Failed("unknown".to_string()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::CollectingObserver;

    #[test]
    fn submitted_jobs_run_and_return() {
        let pool = JobPool::new("t", 1, 2);
        let handles: Vec<_> = (0..16u64)
            .map(|x| pool.submit(None, move |_| Ok::<_, JobError>(x * 3)))
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.into_result().unwrap(), i as u64 * 3);
        }
        assert_eq!(pool.submitted(), 16);
        pool.shutdown();
    }

    #[test]
    fn derived_seeds_match_campaign_derivation() {
        let pool = JobPool::new("seeds", 77, 3);
        let seeds: Vec<u64> = (0..8)
            .map(|_| pool.submit(None, |ctx| Ok::<_, JobError>(ctx.seed)))
            .map(|h| h.into_result().unwrap())
            .collect();
        for (i, &seed) in seeds.iter().enumerate() {
            assert_eq!(seed, crate::derive_seed(77, i as u64));
        }
    }

    #[test]
    fn panics_are_confined_to_their_job() {
        let pool = JobPool::new("p", 0, 2);
        let bad = pool.submit(None, |_| -> Result<u64, JobError> {
            panic!("die 3 diverged")
        });
        let good = pool.submit(None, |_| Ok::<_, JobError>(5u64));
        match bad.into_result() {
            Err(JobError::Panicked(msg)) => assert!(msg.contains("die 3 diverged")),
            other => panic!("expected panic error, got {other:?}"),
        }
        assert_eq!(good.into_result().unwrap(), 5);
        pool.shutdown();
    }

    #[test]
    fn cooperative_deadline_is_observable() {
        let pool = JobPool::new("d", 0, 1);
        let handle = pool.submit(Some(Duration::ZERO), |ctx| {
            std::thread::sleep(Duration::from_millis(2));
            if ctx.timed_out() {
                Err::<u64, _>(JobError::TimedOut)
            } else {
                Ok(1)
            }
        });
        assert_eq!(handle.into_result(), Err(JobError::TimedOut));
    }

    #[test]
    fn shutdown_drains_queued_work_then_rejects() {
        let pool = JobPool::new("s", 0, 1);
        let handles: Vec<_> = (0..8u64)
            .map(|x| {
                pool.submit(None, move |_| {
                    std::thread::sleep(Duration::from_millis(1));
                    Ok::<_, JobError>(x)
                })
            })
            .collect();
        pool.shutdown();
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.into_result().unwrap(), i as u64, "queued job drained");
        }
        let late = pool.submit(None, |_| Ok::<_, JobError>(0u64));
        assert_eq!(late.into_result(), Err(JobError::Draining));
        assert_eq!(pool.pending(), 0);
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
                let pool = JobPool::new("churn", cycle, 1);
                let handle = pool.submit(None, move |_| Ok::<_, JobError>(cycle));
                assert_eq!(handle.into_result().unwrap(), cycle);
                pool.shutdown();
            }
            let _ = done_tx.send(());
        });
        assert!(
            done_rx.recv_timeout(Duration::from_secs(60)).is_ok(),
            "a pool shutdown hung: a worker missed the drain wake-up"
        );
    }

    #[test]
    fn then_runs_after_every_observer_has_the_report() {
        // What `then` publishes must find the job already accounted:
        // each call sees its own report among the observer's.
        let obs = Arc::new(CollectingObserver::default());
        let pool = JobPool::with_observers("then", 0, 2, vec![obs.clone()]);
        let (tx, rx) = mpsc::channel();
        for x in 0..16u64 {
            let (obs, tx) = (Arc::clone(&obs), tx.clone());
            pool.submit_then(
                None,
                move |_| Ok::<_, JobError>(x),
                move |value, report| {
                    let seen = obs
                        .reports
                        .lock()
                        .unwrap()
                        .iter()
                        .any(|r| r.id == report.id);
                    tx.send((value, seen)).unwrap();
                },
            );
        }
        let mut values: Vec<u64> = (0..16)
            .map(|_| {
                let (value, seen) = rx.recv().unwrap();
                assert!(seen, "then ran before the observers");
                value.unwrap()
            })
            .collect();
        values.sort_unstable();
        assert_eq!(values, (0..16).collect::<Vec<_>>());
        // A draining pool rejects at once, through `then`.
        pool.shutdown();
        let tx2 = tx.clone();
        pool.submit_then(
            None,
            |_| Ok::<_, JobError>(0u64),
            move |value, report| {
                tx2.send((value, report.error == Some(JobError::Draining)))
                    .unwrap()
            },
        );
        assert_eq!(rx.recv().unwrap(), (None, true));
    }

    #[test]
    fn observers_see_pool_jobs() {
        let obs = Arc::new(CollectingObserver::default());
        let pool = JobPool::with_observers("o", 0, 2, vec![obs.clone()]);
        let handles: Vec<_> = (0..6u64)
            .map(|x| {
                pool.submit(None, move |ctx| {
                    ctx.record_samples(10);
                    Ok::<_, JobError>(x)
                })
            })
            .collect();
        for h in handles {
            h.wait();
        }
        pool.shutdown();
        let reports = obs.reports.lock().unwrap();
        assert_eq!(reports.len(), 6);
        assert!(reports.iter().all(|r| r.samples == 10 && r.error.is_none()));
    }
}

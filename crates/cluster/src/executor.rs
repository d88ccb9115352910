//! The distributed campaign executor.
//!
//! [`ClusterExecutor::execute`] is the cluster counterpart of
//! [`adc_runtime::Campaign::run`]: it fans a [`ClusterCampaign`]'s jobs
//! out — here across remote `adc-server` hosts instead of local pool
//! threads — and assembles per-job result lines in id order. The
//! determinism contract is the same: scheduling, retries, and host
//! loss are invisible in the output.
//!
//! ## Scheduling
//!
//! Each host gets [`ClusterOptions::window`] worker connections; each
//! worker keeps at most one batch in flight (the per-host outstanding
//! window is therefore `window` batches). Workers pull batches from one
//! shared pending queue, and a job resolves one way: through its batch.
//! A host answers jobs its warm cache already holds inside that batch
//! ([`JobStatus::Cached`]). A batch whose fate is unknown is requeued,
//! so a stalled or dying host delays the campaign by at most one I/O
//! timeout.
//! Running a job twice is harmless: completion slots are
//! first-writer-wins keyed by job id, and every execution of a job is
//! bit-identical by construction.
//!
//! ## Failure taxonomy
//!
//! * Transport / wire / timeout errors: the worker's in-flight batch is
//!   requeued for any worker, the connection is rebuilt with bounded
//!   backoff, and the host is declared lost after
//!   [`ClusterOptions::connect_retries`] failures.
//! * [`JobStatus::Rejected`] (transient: pool draining, deadline,
//!   worker panic): the job is resubmitted up to
//!   [`ClusterOptions::job_attempts`] times, then executed locally.
//! * [`JobStatus::Failed`] (deterministic): the campaign fails with a
//!   typed [`ClusterError::JobFailed`] — retrying elsewhere would fail
//!   identically.
//! * No peer reachable (at start or mid-run): remaining jobs degrade
//!   gracefully to local execution through the same [`JobRegistry`]
//!   the hosts run.
//!
//! ## Cache merging
//!
//! An attached local [`ResultCache`] answers what it holds before any
//! dispatch. After a successful campaign, worker 0 of each host pushes
//! every result line to its host (*fill-after-compute*), so caches
//! converge across the cluster through the shared canonical-key
//! namespace.
//!
//! ## Accounting
//!
//! Every job lands in exactly one of [`ClusterStats::remote_computed`],
//! [`ClusterStats::remote_cached`], [`ClusterStats::local_cache_hits`]
//! and [`ClusterStats::local_computed`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use adc_runtime::ResultCache;
use adc_server::protocol::{JobBatchRequest, JobStatus, MAX_CACHE_ENTRIES};
use adc_server::{Client, ClientError, JobRunner};

use crate::campaign::ClusterCampaign;
use crate::registry::JobRegistry;

/// Tunables for one executor.
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// Worker connections (= outstanding batch window) per host.
    pub window: usize,
    /// Jobs per batch frame.
    pub batch_jobs: usize,
    /// Transient rejections tolerated per job before the executor runs
    /// it locally.
    pub job_attempts: u32,
    /// Connection (re)build attempts per worker before the host is
    /// declared lost.
    pub connect_retries: u32,
    /// Sleep between connection attempts (scaled by attempt number).
    pub backoff: Duration,
    /// Socket read timeout; bounds how long a dead host can sit on an
    /// unacked batch before the worker requeues it.
    pub io_timeout: Duration,
    /// Threads for local (fallback) execution; `0` uses all hardware
    /// parallelism.
    pub local_threads: usize,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        Self {
            window: 2,
            batch_jobs: 8,
            job_attempts: 3,
            connect_retries: 2,
            backoff: Duration::from_millis(50),
            io_timeout: Duration::from_secs(30),
            local_threads: 0,
        }
    }
}

/// Why a distributed campaign could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// A job failed deterministically (same inputs fail on any host).
    JobFailed {
        /// The failing job's id.
        id: u64,
        /// The host-side failure rendering.
        detail: String,
    },
    /// A host returned a result line that does not decode as the
    /// expected type.
    BadResult {
        /// The job whose line was undecodable.
        id: u64,
        /// What was wrong with it.
        detail: String,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::JobFailed { id, detail } => write!(f, "job {id} failed: {detail}"),
            Self::BadResult { id, detail } => write!(f, "job {id} bad result: {detail}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Where/how the campaign's work actually ran — for logs, benches, and
/// the tests that assert scheduling is invisible in the results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Total jobs in the campaign.
    pub jobs: u64,
    /// Peers the executor was configured with.
    pub hosts: u64,
    /// Jobs computed fresh on a remote host.
    pub remote_computed: u64,
    /// Jobs answered from a remote host's warm cache inside a batch.
    pub remote_cached: u64,
    /// Jobs satisfied by the attached local cache before any dispatch.
    pub local_cache_hits: u64,
    /// Jobs computed locally (no peers, lost hosts, or rejection cap).
    pub local_computed: u64,
    /// Batches resubmitted after transport failure or rejection.
    pub resubmitted: u64,
    /// Hosts declared lost mid-campaign.
    pub hosts_lost: u64,
}

/// A completed distributed campaign.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Per-job `CacheCodec` result lines, in job-id order —
    /// bit-identical to what an in-process run computes.
    pub lines: Vec<String>,
    /// Execution accounting.
    pub stats: ClusterStats,
}

/// The shared scheduler state. Everything that decides *what runs
/// where* lives behind this one lock; everything that decides *what the
/// results are* lives in the jobs themselves — which is why the lock
/// can be this coarse without touching determinism.
#[derive(Debug)]
struct Sched {
    pending: VecDeque<Vec<usize>>,
    done: Vec<Option<String>>,
    attempts: Vec<u32>,
    remaining: usize,
    failed: Option<ClusterError>,
    next_batch_id: u64,
    host_down: Vec<bool>,
    stats: ClusterStats,
}

#[derive(Debug)]
struct Shared {
    sched: Mutex<Sched>,
    cv: Condvar,
}

impl Shared {
    fn lock(&self) -> std::sync::MutexGuard<'_, Sched> {
        self.sched
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// What a worker should do next.
enum Work {
    Batch(u64, Vec<usize>),
    Finished,
}

/// How one remote job outcome was settled.
enum Settle {
    Applied,
    RunLocally(usize),
}

/// Farms [`ClusterCampaign`]s out to `adc-server` peers.
///
/// Construction is cheap; connections are opened per [`execute`] call.
///
/// [`execute`]: ClusterExecutor::execute
pub struct ClusterExecutor {
    peers: Vec<String>,
    options: ClusterOptions,
    registry: Arc<JobRegistry>,
    cache: Option<Arc<ResultCache>>,
}

impl std::fmt::Debug for ClusterExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterExecutor")
            .field("peers", &self.peers)
            .field("options", &self.options)
            .field("cached", &self.cache.is_some())
            .finish_non_exhaustive()
    }
}

impl ClusterExecutor {
    /// An executor over `peers` (`host:port` strings; empty means
    /// all-local execution) sharing `registry` with the hosts.
    pub fn new(peers: Vec<String>, registry: Arc<JobRegistry>) -> Self {
        Self {
            peers,
            options: ClusterOptions::default(),
            registry,
            cache: None,
        }
    }

    /// Replaces the tunables (builder style).
    #[must_use]
    pub fn options(mut self, options: ClusterOptions) -> Self {
        self.options = options;
        self
    }

    /// Attaches a local result cache (builder style): consulted before
    /// any dispatch, filled after the campaign, merged with host caches
    /// through the shared canonical-key namespace.
    #[must_use]
    pub fn cached(mut self, cache: Arc<ResultCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Runs the campaign to completion and returns per-job result
    /// lines in id order.
    ///
    /// # Errors
    ///
    /// [`ClusterError::JobFailed`] when any job fails deterministically
    /// (transient host trouble is retried or absorbed by local
    /// execution instead).
    pub fn execute(&self, campaign: &ClusterCampaign) -> Result<ClusterReport, ClusterError> {
        let _task = adc_trace::task(campaign.seed);
        let _span = adc_trace::span_with("cluster-campaign", campaign.len() as u64);
        let n = campaign.len();
        let mut sched = Sched {
            pending: VecDeque::new(),
            done: (0..n).map(|_| None).collect(),
            attempts: vec![0; n],
            remaining: n,
            failed: None,
            next_batch_id: 0,
            host_down: vec![false; self.peers.len()],
            stats: ClusterStats {
                jobs: n as u64,
                hosts: self.peers.len() as u64,
                ..ClusterStats::default()
            },
        };

        // Local cache first: anything already known never leaves home.
        if let Some(cache) = &self.cache {
            for (id, job) in campaign.jobs().iter().enumerate() {
                if let Some(line) = cache.get_line(&campaign.name, job.key) {
                    sched.done[id] = Some(line);
                    sched.remaining -= 1;
                    sched.stats.local_cache_hits += 1;
                }
            }
        }

        let misses: Vec<usize> = (0..n).filter(|&i| sched.done[i].is_none()).collect();
        for chunk in misses.chunks(self.options.batch_jobs.max(1)) {
            sched.pending.push_back(chunk.to_vec());
        }
        let shared = Shared {
            sched: Mutex::new(sched),
            cv: Condvar::new(),
        };

        std::thread::scope(|scope| {
            for (host, addr) in self.peers.iter().enumerate() {
                for slot in 0..self.options.window.max(1) {
                    let shared = &shared;
                    scope.spawn(move || {
                        let _task = adc_trace::task(campaign.seed);
                        let _lane = adc_trace::span_with("cluster-host", host as u64);
                        host_worker(
                            shared,
                            campaign,
                            &self.options,
                            self.registry.as_ref(),
                            host,
                            addr,
                            slot,
                        );
                    });
                }
            }
        });

        // Whatever the peers did not finish — because there were none,
        // or they were lost — runs right here, bit-identically.
        self.run_remaining_locally(&shared, campaign);

        let sched = shared
            .sched
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(err) = sched.failed {
            return Err(err);
        }
        let lines: Vec<String> = sched
            .done
            .into_iter()
            .enumerate()
            .map(|(id, line)| {
                line.unwrap_or_else(|| unreachable!("job {id} unfinished with remaining == 0"))
            })
            .collect();

        // Fill-after-compute for the attached local cache.
        if let Some(cache) = &self.cache {
            for (job, line) in campaign.jobs().iter().zip(&lines) {
                cache.put_line(&campaign.name, job.key, line);
            }
            let _ = cache.persist(&campaign.name);
        }
        Ok(ClusterReport {
            lines,
            stats: sched.stats,
        })
    }

    /// Drains every still-undone job through the local registry.
    fn run_remaining_locally(&self, shared: &Shared, campaign: &ClusterCampaign) {
        let todo: Vec<usize> = {
            let sched = shared.lock();
            if sched.failed.is_some() {
                return;
            }
            (0..campaign.len())
                .filter(|&i| sched.done[i].is_none())
                .collect()
        };
        if todo.is_empty() {
            return;
        }
        let threads = if self.options.local_threads == 0 {
            adc_runtime::default_threads()
        } else {
            self.options.local_threads
        };
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads.max(1).min(todo.len()) {
                scope.spawn(|| loop {
                    let at = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&id) = todo.get(at) else { break };
                    run_local_job(shared, campaign, self.registry.as_ref(), id);
                    if shared.lock().failed.is_some() {
                        break;
                    }
                });
            }
        });
    }
}

/// Executes job `id` through the registry and applies the outcome.
fn run_local_job(shared: &Shared, campaign: &ClusterCampaign, registry: &JobRegistry, id: usize) {
    let job = &campaign.jobs()[id];
    let outcome = registry.run(&campaign.kind, &job.config, campaign.job_seed(id as u64));
    let mut sched = shared.lock();
    match outcome {
        Ok(line) => {
            if sched.done[id].is_none() {
                sched.done[id] = Some(line);
                sched.remaining -= 1;
                sched.stats.local_computed += 1;
            }
        }
        Err(e) => {
            if sched.done[id].is_none() && sched.failed.is_none() {
                sched.failed = Some(ClusterError::JobFailed {
                    id: id as u64,
                    detail: e.to_string(),
                });
            }
        }
    }
    shared.cv.notify_all();
}

/// Connects to `addr` with bounded, backed-off retries.
fn connect(addr: &str, options: &ClusterOptions) -> Option<Client> {
    for attempt in 0..=options.connect_retries {
        if attempt > 0 {
            std::thread::sleep(options.backoff * attempt);
        }
        if let Ok(client) = Client::connect(addr) {
            if client.set_read_timeout(Some(options.io_timeout)).is_ok() {
                return Some(client);
            }
        }
    }
    None
}

/// Picks this worker's next action: drain pending, else wait for
/// state to change.
fn take_work(shared: &Shared, options: &ClusterOptions) -> Work {
    let mut sched = shared.lock();
    loop {
        if sched.failed.is_some() || sched.remaining == 0 {
            return Work::Finished;
        }
        while let Some(batch) = sched.pending.pop_front() {
            let jobs: Vec<usize> = batch
                .into_iter()
                .filter(|&i| sched.done[i].is_none())
                .collect();
            if jobs.is_empty() {
                continue;
            }
            let batch_id = sched.next_batch_id;
            sched.next_batch_id += 1;
            return Work::Batch(batch_id, jobs);
        }
        let (guard, _timeout) = shared
            .cv
            .wait_timeout(sched, options.backoff.max(Duration::from_millis(10)))
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        sched = guard;
    }
}

/// Requeues a failed batch's undone jobs for any worker.
fn requeue_flight(shared: &Shared, ids: &[usize]) {
    let mut sched = shared.lock();
    let jobs: Vec<usize> = ids
        .iter()
        .copied()
        .filter(|&i| sched.done[i].is_none())
        .collect();
    if !jobs.is_empty() {
        sched.pending.push_back(jobs);
        sched.stats.resubmitted += 1;
    }
    drop(sched);
    shared.cv.notify_all();
}

/// Applies one result batch: first-writer-wins per job slot, typed
/// failure on deterministic errors, requeue-or-local on rejections.
fn apply_batch(
    shared: &Shared,
    options: &ClusterOptions,
    outcomes: &[adc_server::JobOutcome],
) -> Vec<Settle> {
    let mut sched = shared.lock();
    let mut settled = Vec::with_capacity(outcomes.len());
    let mut requeue = Vec::new();
    for outcome in outcomes {
        let id = outcome.id as usize;
        if id >= sched.done.len() {
            if sched.failed.is_none() {
                sched.failed = Some(ClusterError::BadResult {
                    id: outcome.id,
                    detail: "job id out of range".to_string(),
                });
            }
            break;
        }
        match outcome.status {
            JobStatus::Computed | JobStatus::Cached => {
                if sched.done[id].is_none() {
                    sched.done[id] = Some(outcome.value.clone());
                    sched.remaining -= 1;
                    if outcome.status == JobStatus::Computed {
                        sched.stats.remote_computed += 1;
                    } else {
                        sched.stats.remote_cached += 1;
                    }
                }
                settled.push(Settle::Applied);
            }
            JobStatus::Failed => {
                if sched.done[id].is_none() && sched.failed.is_none() {
                    sched.failed = Some(ClusterError::JobFailed {
                        id: outcome.id,
                        detail: outcome.value.clone(),
                    });
                }
                settled.push(Settle::Applied);
            }
            JobStatus::Rejected => {
                if sched.done[id].is_none() {
                    sched.attempts[id] += 1;
                    if sched.attempts[id] >= options.job_attempts {
                        settled.push(Settle::RunLocally(id));
                    } else {
                        requeue.push(id);
                        settled.push(Settle::Applied);
                    }
                } else {
                    settled.push(Settle::Applied);
                }
            }
        }
    }
    if !requeue.is_empty() {
        sched.pending.push_back(requeue);
        sched.stats.resubmitted += 1;
    }
    drop(sched);
    shared.cv.notify_all();
    settled
}

/// Marks `host` lost (once) for the stats.
fn host_lost(shared: &Shared, host: usize) {
    let mut sched = shared.lock();
    if !sched.host_down[host] {
        sched.host_down[host] = true;
        sched.stats.hosts_lost += 1;
    }
    drop(sched);
    shared.cv.notify_all();
}

/// Post-campaign cache merge: pushes every computed line to the host
/// (fill-after-compute). Best-effort; the host dedups.
fn backfill(shared: &Shared, campaign: &ClusterCampaign, client: &mut Client) {
    let entries: Vec<(u64, String)> = {
        let sched = shared.lock();
        if sched.failed.is_some() || sched.remaining != 0 {
            return;
        }
        campaign
            .jobs()
            .iter()
            .enumerate()
            .filter_map(|(id, job)| sched.done[id].clone().map(|line| (job.key, line)))
            .collect()
    };
    for chunk in entries.chunks(MAX_CACHE_ENTRIES as usize) {
        if client.cache_fill(&campaign.name, chunk).is_err() {
            return;
        }
    }
}

/// One worker connection's life: connect, then pull batches until the
/// campaign settles; on transport trouble requeue, reconnect, and
/// eventually declare the host lost. Slot 0 backfills the host's cache
/// at the end.
fn host_worker(
    shared: &Shared,
    campaign: &ClusterCampaign,
    options: &ClusterOptions,
    registry: &JobRegistry,
    host: usize,
    addr: &str,
    slot: usize,
) {
    let Some(mut client) = connect(addr, options) else {
        host_lost(shared, host);
        return;
    };
    loop {
        let (batch_id, ids) = match take_work(shared, options) {
            Work::Finished => break,
            Work::Batch(batch_id, ids) => (batch_id, ids),
        };
        let request = JobBatchRequest {
            batch_id,
            campaign: campaign.name.clone(),
            kind: campaign.kind.clone(),
            deadline_ms: campaign.deadline_ms,
            jobs: campaign.specs(&ids),
        };
        match client.job_batch(&request) {
            Ok(result) => {
                for settle in apply_batch(shared, options, &result.outcomes) {
                    if let Settle::RunLocally(id) = settle {
                        run_local_job(shared, campaign, registry, id);
                    }
                }
            }
            Err(ClientError::Server { .. }) => {
                // Typed refusal (no runner, draining, ...): this host
                // cannot serve this campaign — route its work
                // elsewhere and retire the connection.
                requeue_flight(shared, &ids);
                host_lost(shared, host);
                return;
            }
            Err(_) => {
                // Transport/wire trouble: the batch's fate on the host
                // is unknown — requeueing is safe because completion
                // slots are first-writer-wins and job results are
                // bit-identical wherever they run.
                requeue_flight(shared, &ids);
                match connect(addr, options) {
                    Some(fresh) => client = fresh,
                    None => {
                        host_lost(shared, host);
                        return;
                    }
                }
            }
        }
    }
    if slot == 0 {
        backfill(shared, campaign, &mut client);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{probe_mix_config, standard_registry};

    fn probe_campaign(jobs: u64) -> ClusterCampaign {
        let mut campaign = ClusterCampaign::new("probe-test", "probe-mix", 77);
        for a in 0..jobs {
            campaign.push_job(
                probe_mix_config(a, 5),
                adc_runtime::canonical_key("probe-test", &a),
            );
        }
        campaign
    }

    #[test]
    fn no_peers_degrades_to_local_execution() {
        let campaign = probe_campaign(17);
        let executor = ClusterExecutor::new(Vec::new(), standard_registry());
        let report = executor.execute(&campaign).expect("local run");
        assert_eq!(report.lines.len(), 17);
        assert_eq!(report.stats.local_computed, 17);
        assert_eq!(report.stats.remote_computed, 0);
        // And the lines are the registry's own outputs.
        let registry = standard_registry();
        for (id, line) in report.lines.iter().enumerate() {
            let want = registry
                .run(
                    "probe-mix",
                    &campaign.jobs()[id].config,
                    campaign.job_seed(id as u64),
                )
                .unwrap();
            assert_eq!(line, &want);
        }
    }

    #[test]
    fn unreachable_peers_degrade_to_local_execution() {
        let campaign = probe_campaign(5);
        // Reserved port on localhost that nothing listens on: bind and
        // drop to learn a free port, then point the executor at it.
        let dead = {
            let sock = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            sock.local_addr().unwrap().to_string()
        };
        let executor =
            ClusterExecutor::new(vec![dead], standard_registry()).options(ClusterOptions {
                connect_retries: 0,
                backoff: Duration::from_millis(1),
                ..ClusterOptions::default()
            });
        let report = executor.execute(&campaign).expect("degraded run");
        assert_eq!(report.stats.local_computed, 5);
        assert_eq!(report.stats.hosts_lost, 1);
    }

    #[test]
    fn local_cache_hits_skip_execution_and_fills_persist() {
        let cache = Arc::new(ResultCache::in_memory());
        let campaign = probe_campaign(6);
        let executor =
            ClusterExecutor::new(Vec::new(), standard_registry()).cached(Arc::clone(&cache));
        let first = executor.execute(&campaign).expect("first run");
        assert_eq!(first.stats.local_computed, 6);
        let executor =
            ClusterExecutor::new(Vec::new(), standard_registry()).cached(Arc::clone(&cache));
        let second = executor.execute(&campaign).expect("second run");
        assert_eq!(second.stats.local_cache_hits, 6);
        assert_eq!(second.stats.local_computed, 0);
        assert_eq!(first.lines, second.lines);
    }

    #[test]
    fn deterministic_failures_are_typed_not_retried() {
        let mut campaign = ClusterCampaign::new("bad", "no-such-kind", 0);
        campaign.push_job("x", 1);
        let executor = ClusterExecutor::new(Vec::new(), standard_registry());
        let err = executor.execute(&campaign).unwrap_err();
        assert!(
            matches!(err, ClusterError::JobFailed { id: 0, ref detail } if detail.contains("unknown job kind")),
            "{err}"
        );
    }

    #[test]
    fn empty_campaigns_are_fine() {
        let campaign = ClusterCampaign::new("empty", "probe-mix", 0);
        let executor = ClusterExecutor::new(Vec::new(), standard_registry());
        let report = executor.execute(&campaign).expect("empty");
        assert!(report.lines.is_empty());
        assert_eq!(report.stats.jobs, 0);
    }
}

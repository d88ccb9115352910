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
//! Each host gets two worker connections; each worker keeps at most one
//! batch in flight (the per-host outstanding window is therefore two
//! batches). Workers pull batches from one shared pending queue and
//! only schedule: a host worker never runs a job. A host answers jobs
//! its warm cache already holds inside that batch
//! ([`JobStatus::Cached`]). A batch whose fate is unknown is requeued,
//! so a stalled or dying host delays the campaign by at most one I/O
//! timeout (30 s). Workers stop when the campaign has failed or when no
//! batch is pending or in flight.
//!
//! Every job the remote phase leaves undone then runs in one local
//! pass: one [`adc_runtime::Campaign`] over the [`JobRegistry`] the
//! hosts run, so a local job gets the runtime's one job runner (panic
//! isolation included).
//!
//! Running a job twice is harmless: completion slots are
//! first-writer-wins keyed by job id, and every execution of a job is
//! bit-identical by construction.
//!
//! ## Failure taxonomy
//!
//! * Transport / wire / timeout errors: the worker's in-flight batch is
//!   requeued for any worker, the connection is rebuilt with bounded
//!   backoff, and the host is declared lost after two failed
//!   reconnects.
//! * [`JobStatus::Rejected`] (transient: pool draining, deadline, job
//!   lost): the job is resubmitted until it has been rejected three
//!   times, then left for the local pass.
//! * [`JobStatus::Failed`] (deterministic, runner panics included): the
//!   campaign fails with a typed [`ClusterError::JobFailed`] — retrying
//!   elsewhere would fail identically.
//! * No peer reachable (at start or mid-run): the remaining jobs run in
//!   the local pass.
//! * A job that fails or panics in the local pass fails the campaign
//!   with [`ClusterError::JobFailed`] for the lowest failing id.
//!
//! ## Cache merging
//!
//! An attached local [`ResultCache`] answers what it holds before any
//! dispatch. After a remote phase that finished every job, worker 0 of
//! each host pushes every result line to its host
//! (*fill-after-compute*), so caches converge across the cluster
//! through the shared canonical-key namespace.
//!
//! ## Accounting
//!
//! Every job lands in exactly one of [`ClusterStats::remote_computed`],
//! [`ClusterStats::remote_cached`], [`ClusterStats::local_cache_hits`]
//! and [`ClusterStats::local_computed`].

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use adc_runtime::{Campaign, JobError, ResultCache};
use adc_server::protocol::{JobBatchRequest, JobStatus, MAX_CACHE_ENTRIES};
use adc_server::{Client, ClientError, JobRunner};

use crate::campaign::ClusterCampaign;
use crate::registry::JobRegistry;

/// Worker connections (= outstanding batch window) per host.
const WINDOW: usize = 2;
/// Rejections a job may draw before it is left for the local pass.
const JOB_ATTEMPTS: u32 = 3;
/// Connection rebuilds per worker before the host is declared lost.
const CONNECT_RETRIES: u32 = 2;
/// Socket read timeout; bounds how long a dead host can sit on an
/// unacked batch before the worker requeues it.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Threads for the local pass; `0` uses all hardware parallelism.
const LOCAL_THREADS: usize = 0;

/// Tunables for one executor.
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// Jobs per batch frame.
    pub batch_jobs: usize,
    /// Sleep between connection attempts (scaled by attempt number).
    pub backoff: Duration,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        Self {
            batch_jobs: 8,
            backoff: Duration::from_millis(50),
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
    /// Jobs computed in the local pass (no peers, lost hosts, or
    /// rejection cap).
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
    /// Batches handed to a worker and not yet applied or requeued.
    in_flight: usize,
    done: Vec<Option<String>>,
    attempts: Vec<u32>,
    failed: Option<ClusterError>,
    next_batch_id: u64,
    host_down: Vec<bool>,
    stats: ClusterStats,
}

impl Sched {
    /// Nothing done, nothing queued, for `jobs` jobs over `hosts` peers.
    fn new(jobs: usize, hosts: usize) -> Self {
        Self {
            pending: VecDeque::new(),
            in_flight: 0,
            done: vec![None; jobs],
            attempts: vec![0; jobs],
            failed: None,
            next_batch_id: 0,
            host_down: vec![false; hosts],
            stats: ClusterStats {
                jobs: jobs as u64,
                hosts: hosts as u64,
                ..ClusterStats::default()
            },
        }
    }
}

#[derive(Debug)]
struct Shared {
    sched: Mutex<Sched>,
    cv: Condvar,
}

impl Shared {
    fn lock(&self) -> std::sync::MutexGuard<'_, Sched> {
        self.sched.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// What a worker should do next.
#[derive(Debug, PartialEq, Eq)]
enum Work {
    Batch(u64, Vec<usize>),
    Finished,
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
    /// or panics (transient host trouble is retried or absorbed by the
    /// local pass instead).
    pub fn execute(&self, campaign: &ClusterCampaign) -> Result<ClusterReport, ClusterError> {
        let _task = adc_trace::task(campaign.seed);
        let _span = adc_trace::span_with("cluster-campaign", campaign.len() as u64);
        let n = campaign.len();
        let mut sched = Sched::new(n, self.peers.len());

        // Local cache first: anything already known never leaves home.
        if let Some(cache) = &self.cache {
            for (id, job) in campaign.jobs().iter().enumerate() {
                if let Some(line) = cache.get_line(&campaign.name, job.key) {
                    sched.done[id] = Some(line);
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
                for slot in 0..WINDOW {
                    let shared = &shared;
                    scope.spawn(move || {
                        let _task = adc_trace::task(campaign.seed);
                        let _lane = adc_trace::span_with("cluster-host", host as u64);
                        host_worker(shared, campaign, &self.options, host, addr, slot);
                    });
                }
            }
        });

        let mut sched = shared
            .sched
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(err) = sched.failed.take() {
            return Err(err);
        }
        // Whatever the peers did not finish — because there were none,
        // they were lost, or they kept rejecting a job — runs right
        // here, bit-identically.
        self.run_locally(&mut sched, campaign)?;
        let lines: Vec<String> = sched
            .done
            .into_iter()
            .enumerate()
            .map(|(id, line)| {
                line.unwrap_or_else(|| unreachable!("job {id} unfinished after the local pass"))
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

    /// The local pass: every still-undone job runs in one [`Campaign`]
    /// through the registry, and its lines fill the empty slots (no
    /// worker is left to race for them). The campaign numbers the
    /// undone jobs `0..`, so each job is seeded with its own cluster
    /// seed and enters the same trace task and `cluster-job` span a
    /// host gives it.
    fn run_locally(
        &self,
        sched: &mut Sched,
        campaign: &ClusterCampaign,
    ) -> Result<(), ClusterError> {
        let todo: Vec<usize> = (0..campaign.len())
            .filter(|&id| sched.done[id].is_none())
            .collect();
        if todo.is_empty() {
            return Ok(());
        }
        let lines = Campaign::new(campaign.name.as_str(), campaign.seed)
            .jobs(todo.iter().copied())
            .threads(LOCAL_THREADS)
            .run(|_ctx, &id| {
                let seed = campaign.job_seed(id as u64);
                let _trace_task = adc_trace::task(seed);
                let _trace_span = adc_trace::span_with("cluster-job", id as u64);
                self.registry
                    .run(&campaign.kind, &campaign.jobs()[id].config, seed)
                    .map_err(|e| JobError::Failed(e.to_string()))
            })
            .into_result()
            .map_err(|(job, err)| ClusterError::JobFailed {
                id: todo[job.0 as usize] as u64,
                detail: match err {
                    JobError::Failed(detail) => detail,
                    other => other.to_string(),
                },
            })?;
        for (id, line) in todo.into_iter().zip(lines) {
            sched.done[id] = Some(line);
            sched.stats.local_computed += 1;
        }
        Ok(())
    }
}

/// Connects to `addr` with bounded, backed-off retries.
fn connect(addr: &str, options: &ClusterOptions) -> Option<Client> {
    for attempt in 0..=CONNECT_RETRIES {
        if attempt > 0 {
            std::thread::sleep(options.backoff * attempt);
        }
        if let Ok(client) = Client::connect(addr) {
            if client.set_read_timeout(Some(IO_TIMEOUT)).is_ok() {
                return Some(client);
            }
        }
    }
    None
}

/// Picks this worker's next action: take a pending batch, finish when
/// the campaign failed or nothing is pending or in flight, else wait
/// for state to change.
fn take_work(shared: &Shared) -> Work {
    let mut sched = shared.lock();
    loop {
        if sched.failed.is_some() {
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
            sched.in_flight += 1;
            return Work::Batch(batch_id, jobs);
        }
        if sched.in_flight == 0 {
            return Work::Finished;
        }
        sched = shared
            .cv
            .wait(sched)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// Requeues a failed batch's undone jobs for any worker.
fn requeue_flight(shared: &Shared, ids: &[usize]) {
    let mut sched = shared.lock();
    sched.in_flight -= 1;
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
/// failure on deterministic errors, requeue on rejections until a job
/// has drawn [`JOB_ATTEMPTS`] of them (it is then left for the local
/// pass).
fn apply_batch(shared: &Shared, outcomes: &[adc_server::JobOutcome]) {
    let mut sched = shared.lock();
    sched.in_flight -= 1;
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
        if sched.done[id].is_some() {
            continue;
        }
        match outcome.status {
            JobStatus::Computed | JobStatus::Cached => {
                sched.done[id] = Some(outcome.value.clone());
                if outcome.status == JobStatus::Computed {
                    sched.stats.remote_computed += 1;
                } else {
                    sched.stats.remote_cached += 1;
                }
            }
            JobStatus::Failed => {
                if sched.failed.is_none() {
                    sched.failed = Some(ClusterError::JobFailed {
                        id: outcome.id,
                        detail: outcome.value.clone(),
                    });
                }
            }
            JobStatus::Rejected => {
                sched.attempts[id] += 1;
                if sched.attempts[id] < JOB_ATTEMPTS {
                    requeue.push(id);
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

/// Post-campaign cache merge: pushes every result line to the host
/// (fill-after-compute) once the remote phase has finished every job.
/// Best-effort; the host dedups.
fn backfill(shared: &Shared, campaign: &ClusterCampaign, client: &mut Client) {
    let entries: Option<Vec<(u64, String)>> = {
        let sched = shared.lock();
        if sched.failed.is_some() {
            return;
        }
        campaign
            .jobs()
            .iter()
            .zip(&sched.done)
            .map(|(job, line)| line.clone().map(|line| (job.key, line)))
            .collect()
    };
    let Some(entries) = entries else { return };
    for chunk in entries.chunks(MAX_CACHE_ENTRIES as usize) {
        if client.cache_fill(&campaign.name, chunk).is_err() {
            return;
        }
    }
}

/// One worker connection's life: connect, then pull batches until the
/// remote phase settles; on transport trouble requeue, reconnect, and
/// eventually declare the host lost. Slot 0 backfills the host's cache
/// at the end.
fn host_worker(
    shared: &Shared,
    campaign: &ClusterCampaign,
    options: &ClusterOptions,
    host: usize,
    addr: &str,
    slot: usize,
) {
    let Some(mut client) = connect(addr, options) else {
        host_lost(shared, host);
        return;
    };
    while let Work::Batch(batch_id, ids) = take_work(shared) {
        let request = JobBatchRequest {
            batch_id,
            campaign: campaign.name.clone(),
            kind: campaign.kind.clone(),
            deadline_ms: campaign.deadline_ms,
            jobs: campaign.specs(&ids),
        };
        match client.job_batch(&request) {
            Ok(result) => apply_batch(shared, &result.outcomes),
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

    #[test]
    fn a_job_rejected_job_attempts_times_is_left_for_the_local_pass() {
        let mut sched = Sched::new(1, 1);
        sched.pending.push_back(vec![0]);
        let shared = Shared {
            sched: Mutex::new(sched),
            cv: Condvar::new(),
        };
        let rejected = [adc_server::JobOutcome {
            id: 0,
            key: 0,
            status: JobStatus::Rejected,
            value: "deadline expired".to_string(),
        }];
        for attempt in 0..JOB_ATTEMPTS {
            assert_eq!(
                take_work(&shared),
                Work::Batch(u64::from(attempt), vec![0]),
                "attempt {attempt} is dispatched"
            );
            apply_batch(&shared, &rejected);
        }
        {
            let sched = shared.lock();
            assert!(sched.pending.is_empty(), "not requeued: {sched:?}");
            assert_eq!(sched.done[0], None, "not done");
            assert_eq!(sched.in_flight, 0);
            assert_eq!(sched.failed, None);
            assert_eq!(sched.stats.resubmitted, u64::from(JOB_ATTEMPTS - 1));
        }
        assert_eq!(take_work(&shared), Work::Finished);
    }
}

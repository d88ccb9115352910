//! The TCP service: configuration, lifecycle, and the served
//! computations (the private `reactor` module owns the sockets).
//!
//! ## Threading model
//!
//! * One **reactor thread** ([`Server::serve`]) owns the listener and
//!   every connection socket, multiplexed over `poll(2)`: it decodes
//!   frames incrementally, answers `Ping`/`Metrics`/`Shutdown` inline,
//!   and admits every work request — digitizations, cluster job
//!   batches and cache fills — into bounded per-connection queues.
//!   It is the only thread the server starts besides the pool's.
//! * All work runs on the [`JobPool`] — the runtime's long-lived
//!   work pool — so server-side conversions use exactly the same
//!   session code path as an in-process `adc-testbench` run, and
//!   results are bit-identical for the same config and seed. A job's
//!   work ends when its answer is ready: it hands the finished record
//!   back to the reactor, which alone frames it into bytes as the
//!   socket drains. Workers never touch connection state or wait on a
//!   peer.
//! * Backpressure acts at dispatch: a request keeps its per-connection
//!   slot until its answer's last byte is written, so
//!   [`ServerConfig::max_inflight_per_conn`] bounds a connection's
//!   unwritten answers, and a peer that never reads holds no pool
//!   worker.
//! * Requests pipelined under nonzero correlation ids run concurrently
//!   (up to the admission caps) and complete out of order. An admitted
//!   digitization or cache fill is one pool job; a job batch is one
//!   pool job per job, and the last of them to finish answers the
//!   batch. Either way the request holds one global and one
//!   per-connection slot until its answer is posted.
//!
//! ## Deadlines
//!
//! A request's `deadline_ms` becomes the job's cooperative timeout
//! ([`adc_runtime::JobCtx::timed_out`]), counted from dispatch onto
//! the pool. It covers dispatch through conversion: the worker polls
//! it before fabricating the die and again once the record is
//! converted, and reports
//! [`ErrorCode::TimedOut`](crate::ErrorCode::TimedOut) when it fires.
//! The conversion of one record is the indivisible unit (the
//! converter's warmup semantics make a record a single pure
//! computation), exactly like the campaign engine's per-die polling. Delivery is not under
//! the deadline: it is bounded by the connection's slot, which the
//! answer holds until its last byte is written.
//!
//! ## Shutdown
//!
//! A `Shutdown` frame (or [`ServerHandle::shutdown`]) begins a drain:
//! the reactor stops accepting and reading, runs admitted work to
//! completion, flushes every connection, and [`Server::serve`]
//! returns. A deadlocked drain is impossible: the reactor re-checks
//! the draining flag every poll tick and every dispatched request is
//! guaranteed a completion event.

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use adc_pipeline::config::AdcConfig;
use adc_pipeline::error::BuildAdcError;
use adc_runtime::{JobCtx, JobError, JobPool, ResultCache};
use adc_testbench::{clear_tone_hz, MeasurementSession, RampSource};

use crate::jobs::JobRunner;
use crate::metrics::MetricsRegistry;
use crate::protocol::{
    self, CacheFillRequest, DigitizeRequest, JobBatchRequest, JobStatus, Preset, WaveformSpec,
};
use crate::reactor::{self, JobDone, Waker};

/// Seed anchoring the pool's derived per-job seeds. Requests carry
/// their own fabrication seeds; this only names the pool's seed stream.
const POOL_SEED: u64 = 0x5EC7_0A0D;

/// Largest request payload the reactor accepts, bytes.
pub(crate) const MAX_REQUEST_PAYLOAD: u32 = 1 << 20;
/// Most samples one digitize request may ask for.
const MAX_SAMPLES: u32 = 1 << 20;

/// Tunables for one server instance.
#[derive(Clone)]
pub struct ServerConfig {
    /// Pool worker threads (`0` = all hardware parallelism).
    pub threads: usize,
    /// Batch size used when a request passes `batch_size == 0`.
    pub default_batch: u32,
    /// Global cap on work requests (digitizations, job batches, cache
    /// fills) in flight on the pool at once.
    pub max_inflight: usize,
    /// Per-connection cap on work requests in flight at once. A
    /// request holds its slot until the last byte of its answer is
    /// written, so the cap also bounds a connection's unwritten answers
    /// (the backpressure window).
    pub max_inflight_per_conn: usize,
    /// Per-connection admission-queue depth; requests beyond it are
    /// shed with [`ErrorCode::Overloaded`](crate::ErrorCode::Overloaded).
    pub max_pending_per_conn: usize,
    /// The host's campaign-job capability; `None` (the default) answers
    /// `JobBatch` requests with [`ErrorCode::Unsupported`](crate::ErrorCode::Unsupported).
    pub job_runner: Option<Arc<dyn JobRunner>>,
    /// Directory for per-campaign warm-cache files; `None`, or a
    /// directory that cannot be created, keeps the warm cache
    /// memory-only.
    pub cache_dir: Option<std::path::PathBuf>,
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("threads", &self.threads)
            .field("default_batch", &self.default_batch)
            .field("max_inflight", &self.max_inflight)
            .field("max_inflight_per_conn", &self.max_inflight_per_conn)
            .field("max_pending_per_conn", &self.max_pending_per_conn)
            .field("job_runner", &self.job_runner.as_ref().map(|_| "<runner>"))
            .field("cache_dir", &self.cache_dir)
            .finish()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            default_batch: 1024,
            max_inflight: 64,
            max_inflight_per_conn: 16,
            max_pending_per_conn: 256,
            job_runner: None,
            cache_dir: None,
        }
    }
}

/// State shared between the reactor thread, pool workers, and handles.
pub(crate) struct Shared {
    pub(crate) pool: JobPool,
    pub(crate) metrics: Arc<MetricsRegistry>,
    pub(crate) draining: AtomicBool,
    pub(crate) cfg: ServerConfig,
    /// The warm cache `JobBatch` and `CacheFill` requests share.
    pub(crate) cache: ResultCache,
    /// Interrupts the reactor's `poll` when a worker finishes or a
    /// handle requests shutdown.
    pub(crate) waker: Waker,
    /// Completion notices workers post before waking the reactor.
    pub(crate) events: Mutex<Vec<JobDone>>,
}

/// A bound, not-yet-serving server. [`Server::serve`] runs it to
/// completion (drain).
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
    waker_rx: reactor::WakerRx,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("draining", &self.shared.draining.load(Ordering::SeqCst))
            .finish()
    }
}

/// A cloneable remote control for a running [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish()
    }
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metrics registry.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.shared.metrics)
    }

    /// `true` once a drain has begun.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Begins graceful drain-then-shutdown: stops accepting, lets
    /// in-flight work finish, and makes [`Server::serve`] return.
    /// Idempotent.
    pub fn shutdown(&self) {
        if self.shared.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        // Kick the reactor out of `poll` so it observes the flag.
        self.shared.waker.wake();
    }
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port) with the
    /// given tunables.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn bind<A: ToSocketAddrs>(addr: A, cfg: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let pool = JobPool::new(POOL_SEED, cfg.threads);
        // Serving must not die on cache I/O: an unusable directory
        // leaves the warm cache memory-only.
        let cache = cfg
            .cache_dir
            .as_ref()
            .and_then(|dir| ResultCache::on_disk(dir).ok())
            .unwrap_or_default();
        let (waker, waker_rx) = reactor::waker_pair()?;
        Ok(Self {
            listener,
            addr,
            shared: Arc::new(Shared {
                pool,
                metrics: Arc::new(MetricsRegistry::new()),
                draining: AtomicBool::new(false),
                cfg,
                cache,
                waker,
                events: Mutex::new(Vec::new()),
            }),
            waker_rx,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle for shutdown and metrics access.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.addr,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the reactor until drained. Returns after every connection
    /// has closed and every admitted job has completed.
    ///
    /// # Errors
    ///
    /// Propagates reactor-loop I/O failures (per-connection errors are
    /// contained per connection).
    pub fn serve(self) -> std::io::Result<()> {
        let result = reactor::run(self.listener, self.waker_rx, Arc::clone(&self.shared));
        self.shared.pool.shutdown();
        result
    }

    /// Convenience for tests and embedding: binds, then serves on a
    /// background thread. Returns the handle and the serving thread's
    /// join handle.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn<A: ToSocketAddrs>(
        addr: A,
        cfg: ServerConfig,
    ) -> std::io::Result<(ServerHandle, std::thread::JoinHandle<std::io::Result<()>>)> {
        let server = Self::bind(addr, cfg)?;
        let handle = server.handle();
        let join = std::thread::spawn(move || server.serve());
        Ok((handle, join))
    }
}

/// The exact `AdcConfig` a preset maps to — public so clients, tests,
/// and cluster job runners can rebuild the served computation and
/// assert bit-identity.
pub fn preset_config(preset: Preset) -> AdcConfig {
    match preset {
        Preset::Nominal110 => AdcConfig::nominal_110ms(),
        Preset::Ideal => AdcConfig::ideal(preset_rate_hz(Preset::Ideal)),
        Preset::Sibling220 => AdcConfig::sibling_220ms_10b(),
    }
}

/// The conversion rate of [`preset_config`]`(preset)`, read without
/// building the config: request validation runs on the reactor thread
/// and must not reach the config builders' panicking checks.
fn preset_rate_hz(preset: Preset) -> f64 {
    match preset {
        Preset::Nominal110 | Preset::Ideal => 110e6,
        Preset::Sibling220 => 220e6,
    }
}

/// The `AdcConfig` a digitize request resolves to: its preset with the
/// clock-rate and noise overrides applied (amplitude applies at the
/// session, not the config).
pub(crate) fn digitize_config(req: &DigitizeRequest) -> AdcConfig {
    let mut config = preset_config(req.preset);
    if let Some(f_cr) = req.overrides.f_cr_hz {
        config.f_cr_hz = f_cr;
    }
    if let Some(noise) = req.overrides.thermal_noise {
        config.thermal_noise = noise;
    }
    config
}

/// Builds the requested session and converts the record — the exact
/// code path (and therefore the exact bits) of a direct
/// `adc-testbench` run with the same config and seed.
pub(crate) fn run_digitize(req: &DigitizeRequest) -> Result<(Vec<u16>, f64), BuildAdcError> {
    let mut session = MeasurementSession::new(digitize_config(req), req.seed)?;
    if let Some(a) = req.overrides.amplitude_v {
        session.amplitude_v = a;
    }
    let n = req.n_samples as usize;
    // One exactly-sized allocation per request; the conversion itself
    // runs through the allocation-free `_into` paths.
    let mut codes = Vec::with_capacity(n);
    match req.waveform {
        WaveformSpec::Tone { f_target_hz } => {
            session.record_len = n;
            let f_in = session.capture_tone_into(f_target_hz, &mut codes);
            Ok((codes, f_in))
        }
        WaveformSpec::Dc { level_v } => {
            let source = adc_testbench::DcSource { level_v };
            session.adc_mut().reset();
            session
                .adc_mut()
                .convert_waveform_into(&source, n, &mut codes);
            Ok((codes, 0.0))
        }
        WaveformSpec::Ramp { from_v, to_v } => {
            let f_cr = session.adc().config().f_cr_hz;
            let duration_s = n as f64 / f_cr;
            let source = RampSource::new(from_v, to_v, duration_s);
            session.adc_mut().reset();
            session
                .adc_mut()
                .convert_waveform_into(&source, n, &mut codes);
            Ok((codes, 0.0))
        }
    }
}

/// Request-level validation, before any simulation work is queued.
pub(crate) fn validate(req: &DigitizeRequest) -> Result<(), String> {
    if req.n_samples == 0 {
        return Err("n_samples must be positive".to_string());
    }
    if req.n_samples > MAX_SAMPLES {
        return Err(format!(
            "n_samples {} exceeds server limit {MAX_SAMPLES}",
            req.n_samples
        ));
    }
    if matches!(req.waveform, WaveformSpec::Tone { .. }) && !req.n_samples.is_power_of_two() {
        return Err(format!(
            "tone captures need a power-of-two record, got {}",
            req.n_samples
        ));
    }
    if let WaveformSpec::Tone { f_target_hz } = req.waveform {
        if !f_target_hz.is_finite() || f_target_hz <= 0.0 {
            return Err(format!(
                "tone frequency must be positive, got {f_target_hz}"
            ));
        }
    }
    for (name, v) in [
        ("f_cr_hz override", req.overrides.f_cr_hz),
        ("amplitude_v override", req.overrides.amplitude_v),
    ] {
        if let Some(v) = v {
            if !v.is_finite() {
                return Err(format!("{name} must be finite, got {v}"));
            }
        }
    }
    if let WaveformSpec::Tone { f_target_hz } = req.waveform {
        // A non-positive rate is the build step's typed error; only a
        // buildable rate can place (or fail to place) a coherent tone.
        let f_cr = req
            .overrides
            .f_cr_hz
            .unwrap_or_else(|| preset_rate_hz(req.preset));
        if f_cr > 0.0 && clear_tone_hz(f_cr, req.n_samples as usize, f_target_hz).is_none() {
            return Err(format!(
                "a {}-sample record has no coherent tone bin clear of DC and Nyquist",
                req.n_samples
            ));
        }
    }
    Ok(())
}

/// CRC-32 over the little-endian byte stream of a code record.
pub(crate) fn stream_crc(codes: &[u16]) -> u32 {
    let mut bytes = Vec::with_capacity(codes.len() * 2);
    for &c in codes {
        bytes.extend_from_slice(&c.to_le_bytes());
    }
    protocol::crc32(&bytes)
}

/// Runs job `slot` of a job batch on a pool worker: answered `Cached`
/// from the warm cache when the host holds its key, else computed by
/// `runner` under the job's cooperative deadline and put into the
/// cache as `Computed`.
pub(crate) fn run_batch_job(
    shared: &Shared,
    req: &JobBatchRequest,
    slot: usize,
    runner: &dyn JobRunner,
    ctx: &JobCtx,
) -> Result<(JobStatus, String), JobError> {
    let job = &req.jobs[slot];
    if let Some(line) = shared.cache.get_line(&req.campaign, job.key) {
        shared.metrics.cluster_cache_hit();
        return Ok((JobStatus::Cached, line));
    }
    // Scope span ids to the campaign-derived job seed, not the pool's
    // stream: whichever host runs this job emits the same span
    // identity, so traces stitch across the fleet.
    let _trace_task = adc_trace::task(job.seed);
    let _trace_span = adc_trace::span_with("cluster-job", job.id);
    if ctx.timed_out() {
        return Err(JobError::TimedOut);
    }
    let line = runner
        .run(&req.kind, &job.config, job.seed)
        .map_err(|e| JobError::Failed(e.to_string()))?;
    shared.cache.put_line(&req.campaign, job.key, &line);
    Ok((JobStatus::Computed, line))
}

/// A batch job's typed outcome from its pool result. Runner errors
/// (`JobRunError` display strings) and runner panics are deterministic
/// — a [`JobRunner`] is pure, so a resubmission would fail identically
/// — and come back `Failed`; what the *pool* does to a job (drain,
/// deadline) is scheduling, not computation, and comes back `Rejected`
/// so the client resubmits it, possibly elsewhere.
pub(crate) fn batch_outcome(
    value: Option<(JobStatus, String)>,
    error: Option<JobError>,
) -> (JobStatus, String) {
    match (value, error) {
        (Some(outcome), _) => outcome,
        (None, Some(JobError::Failed(detail))) => (JobStatus::Failed, detail),
        (None, Some(JobError::Panicked(msg))) => {
            (JobStatus::Failed, format!("worker panicked: {msg}"))
        }
        (None, Some(err @ JobError::Draining)) => (JobStatus::Rejected, err.to_string()),
        (None, Some(JobError::TimedOut)) => (JobStatus::Rejected, "deadline expired".to_string()),
        (None, None) => (JobStatus::Rejected, "job lost".to_string()),
    }
}

/// Merges a peer's entries into the warm cache, then mirrors the
/// campaign to its file; returns how many entries were new. Cache I/O
/// failures must not fail the fill.
pub(crate) fn fill_cache(cache: &ResultCache, fill: &CacheFillRequest) -> u32 {
    let accepted = fill
        .entries
        .iter()
        .filter(|(key, line)| cache.put_line(&fill.campaign, *key, line))
        .count();
    let _ = cache.persist(&fill.campaign);
    u32::try_from(accepted).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use crate::client::Client;
    use crate::jobs::JobRunError;
    use crate::protocol::{
        decode_response_frame, encode_request, error_code_for_build, ConfigOverrides, ErrorCode,
        FrameAssembler, JobOutcome, JobSpec, Request, Response,
    };

    #[test]
    fn validation_rejects_out_of_bounds_requests() {
        let mut req = DigitizeRequest::tone(7, 10e6, 0);
        assert!(validate(&req).is_err(), "zero samples");
        req.n_samples = MAX_SAMPLES + 1;
        assert!(validate(&req).is_err(), "too many samples");
        req.n_samples = 1000;
        assert!(validate(&req).is_err(), "tone needs power of two");
        req.n_samples = 1024;
        assert!(validate(&req).is_ok());
        req.overrides = ConfigOverrides {
            f_cr_hz: Some(f64::NAN),
            ..ConfigOverrides::default()
        };
        assert!(validate(&req).is_err(), "NaN override");
        let dc = DigitizeRequest {
            waveform: WaveformSpec::Dc { level_v: 0.25 },
            n_samples: 1000,
            ..DigitizeRequest::tone(7, 10e6, 1000)
        };
        assert!(validate(&dc).is_ok(), "dc records need no power of two");
    }

    proptest::proptest! {
        /// Tone requests the bench cannot place (16 and 32 samples) are
        /// refused at validation for every preset, target, and rate
        /// override, so no worker ever reaches the capture; every
        /// power-of-two record of 64 samples or more is admitted.
        #[test]
        fn tone_validation_refuses_exactly_the_unplaceable_records(
            preset_tag in 0u8..3,
            f_mhz in 0.1f64..500.0,
            rate_mhz in 5.0f64..250.0,
            override_rate in 0u8..2,
            log_n in 4u32..15,
        ) {
            let n = 1u32 << log_n;
            let req = DigitizeRequest {
                preset: [Preset::Nominal110, Preset::Ideal, Preset::Sibling220]
                    [usize::from(preset_tag)],
                overrides: ConfigOverrides {
                    f_cr_hz: (override_rate == 1).then_some(rate_mhz * 1e6),
                    ..ConfigOverrides::default()
                },
                ..DigitizeRequest::tone(7, f_mhz * 1e6, n)
            };
            let verdict = validate(&req);
            if n < 64 {
                proptest::prop_assert!(verdict.is_err(), "n = {} admitted", n);
            } else {
                proptest::prop_assert!(verdict.is_ok(), "n = {}: {:?}", n, verdict);
            }
        }
    }

    #[test]
    fn preset_rates_match_the_preset_configs() {
        for preset in [Preset::Nominal110, Preset::Ideal, Preset::Sibling220] {
            assert_eq!(
                preset_rate_hz(preset).to_bits(),
                preset_config(preset).f_cr_hz.to_bits(),
                "{preset:?}"
            );
        }
    }

    #[test]
    fn run_digitize_matches_direct_session_bit_for_bit() {
        let req = DigitizeRequest::tone(7, 10e6, 2048);
        let (served, f_in_served) = run_digitize(&req).unwrap();

        let mut direct = MeasurementSession::new(AdcConfig::nominal_110ms(), 7).unwrap();
        direct.record_len = 2048;
        let (expected, f_in_direct) = direct.capture_tone(10e6);

        assert_eq!(served, expected);
        assert_eq!(f_in_served.to_bits(), f_in_direct.to_bits());
    }

    #[test]
    fn run_digitize_propagates_build_errors() {
        let req = DigitizeRequest {
            overrides: ConfigOverrides {
                f_cr_hz: Some(-1.0),
                ..ConfigOverrides::default()
            },
            ..DigitizeRequest::tone(7, 10e6, 1024)
        };
        let err = run_digitize(&req).unwrap_err();
        assert_eq!(error_code_for_build(&err), ErrorCode::InvalidRate);
    }

    /// Answers every job with its config, counting the calls.
    #[derive(Default)]
    struct EchoRunner(std::sync::atomic::AtomicUsize);

    impl JobRunner for EchoRunner {
        fn run(&self, _kind: &str, config: &str, _seed: u64) -> Result<String, JobRunError> {
            self.0.fetch_add(1, Ordering::SeqCst);
            Ok(config.to_string())
        }
    }

    /// A batch of `jobs` jobs of `campaign`, job `i` carrying config
    /// `value-i`.
    fn batch(campaign: &str, jobs: u64) -> JobBatchRequest {
        JobBatchRequest {
            batch_id: 1,
            campaign: campaign.to_string(),
            kind: "echo".to_string(),
            deadline_ms: 0,
            jobs: (0..jobs)
                .map(|id| JobSpec {
                    id,
                    key: 100 + id,
                    seed: id,
                    config: format!("value-{id}"),
                })
                .collect(),
        }
    }

    /// Serves `cfg` with `runner` installed, hands a client to `drive`,
    /// then drains the server and returns what `drive` returned with
    /// the final metrics.
    fn with_host<R>(
        cfg: ServerConfig,
        runner: Arc<dyn JobRunner>,
        drive: impl FnOnce(&mut Client) -> R,
    ) -> (R, crate::protocol::MetricsSnapshot) {
        let cfg = ServerConfig {
            job_runner: Some(runner),
            ..cfg
        };
        let (handle, join) = Server::spawn("127.0.0.1:0", cfg).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let out = drive(&mut client);
        let snapshot = handle.metrics().snapshot();
        handle.shutdown();
        join.join().unwrap().unwrap();
        (out, snapshot)
    }

    /// Runs a two-job batch of `campaign` twice on a host over
    /// `cache_dir` and returns each job's first status and value.
    fn batch_on(
        cache_dir: Option<std::path::PathBuf>,
        runner: &Arc<EchoRunner>,
        campaign: &str,
    ) -> Vec<(JobStatus, String)> {
        let cfg = ServerConfig {
            threads: 1,
            cache_dir,
            ..ServerConfig::default()
        };
        let req = batch(campaign, 2);
        let ((first, second), _) = with_host(cfg, Arc::clone(runner) as _, |client| {
            (
                client.job_batch(&req).unwrap(),
                client.job_batch(&req).unwrap(),
            )
        });
        assert_eq!(first.outcomes.len(), 2);
        for (a, b) in first.outcomes.iter().zip(&second.outcomes) {
            assert_eq!(b.status, JobStatus::Cached, "a second batch hits in memory");
            assert_eq!(a.value, b.value);
        }
        first
            .outcomes
            .into_iter()
            .map(|o| (o.status, o.value))
            .collect()
    }

    #[test]
    fn job_batches_answer_cached_after_a_restart_on_the_same_cache_dir() {
        let dir = std::env::temp_dir().join("adc_server_job_batch_cache_test");
        let _ = std::fs::remove_dir_all(&dir);
        let runner = Arc::new(EchoRunner::default());
        let cold = batch_on(Some(dir.clone()), &runner, "camp_a");
        assert!(cold.iter().all(|(s, _)| *s == JobStatus::Computed));
        assert_eq!(runner.0.load(Ordering::SeqCst), 2);

        let warm = batch_on(Some(dir.clone()), &runner, "camp_a");
        assert!(warm.iter().all(|(s, _)| *s == JobStatus::Cached));
        assert_eq!(runner.0.load(Ordering::SeqCst), 2, "restart ran nothing");
        assert_eq!(cold[1].1, warm[1].1);

        let other = batch_on(Some(dir.clone()), &runner, "camp_b");
        assert!(other.iter().all(|(s, _)| *s == JobStatus::Computed));
        assert!(dir.join("camp_a.cache").is_file() && dir.join("camp_b.cache").is_file());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_host_without_a_usable_cache_dir_still_answers_from_memory() {
        let file = std::env::temp_dir().join("adc_server_cache_dir_is_a_file");
        std::fs::write(&file, "not a directory").unwrap();
        let runner = Arc::new(EchoRunner::default());
        for dir in [None, Some(file.clone())] {
            let cold = batch_on(dir, &runner, "x");
            assert!(cold.iter().all(|(s, _)| *s == JobStatus::Computed));
        }
        assert_eq!(runner.0.load(Ordering::SeqCst), 4, "nothing persisted");
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn a_runner_panic_answers_failed_not_rejected() {
        struct PanicRunner;
        impl JobRunner for PanicRunner {
            fn run(&self, _kind: &str, config: &str, _seed: u64) -> Result<String, JobRunError> {
                panic!("runner bug on {config}")
            }
        }
        let cfg = ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        };
        let req = batch("panics", 1);
        let (result, _) = with_host(cfg, Arc::new(PanicRunner), |client| {
            client.job_batch(&req).unwrap()
        });
        let outcome = &result.outcomes[0];
        assert_eq!(outcome.status, JobStatus::Failed, "{outcome:?}");
        assert!(
            outcome.value.contains("runner bug on value-0"),
            "{outcome:?}"
        );
    }

    #[test]
    fn job_batches_and_fills_stay_out_of_the_digitize_metrics() {
        let cfg = ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        };
        let runner = Arc::new(EchoRunner::default());
        let ((result, accepted), snap) = with_host(cfg, runner, |client| {
            let result = client.job_batch(&batch("metrics", 4)).unwrap();
            let accepted = client
                .cache_fill("metrics", &[(900, "peer".to_string())])
                .unwrap();
            (result, accepted)
        });
        let statuses: Vec<JobStatus> = result.outcomes.iter().map(|o| o.status).collect();
        assert_eq!(statuses, vec![JobStatus::Computed; 4]);
        assert_eq!(accepted, 1);
        // Every cluster job ran on the pool, and none of them counts as
        // a digitization: no completion, latency, samples or gauge.
        assert_eq!(snap.job_batches, 1);
        assert_eq!(snap.completed, 0);
        assert_eq!(snap.p50_us, 0);
        assert_eq!(snap.samples_streamed, 0);
        assert_eq!(snap.in_flight, 0);
    }

    /// Answers every job with its config after a short sleep, so a batch
    /// stays in flight while later frames arrive.
    struct SlowRunner;

    impl JobRunner for SlowRunner {
        fn run(&self, _kind: &str, config: &str, _seed: u64) -> Result<String, JobRunError> {
            std::thread::sleep(Duration::from_millis(20));
            Ok(config.to_string())
        }
    }

    #[test]
    fn pipelined_job_batches_beyond_the_admission_queue_are_shed() {
        // One worker, one slot, one parked request: four batch frames in
        // one write must shed at least one with a typed Overloaded
        // frame, and every frame is either answered or shed.
        const OFFERED: usize = 4;
        let cfg = ServerConfig {
            threads: 1,
            max_inflight: 1,
            max_inflight_per_conn: 1,
            max_pending_per_conn: 1,
            job_runner: Some(Arc::new(SlowRunner)),
            ..ServerConfig::default()
        };
        let (handle, join) = Server::spawn("127.0.0.1:0", cfg).unwrap();
        let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let frames: Vec<u8> = (0..OFFERED)
            .flat_map(|_| encode_request(&Request::JobBatch(batch("shed", 2))))
            .collect();
        std::io::Write::write_all(&mut raw, &frames).unwrap();

        let mut assembler = FrameAssembler::new();
        let mut buf = [0u8; 4096];
        let mut responses = Vec::new();
        while responses.len() < OFFERED {
            let n = std::io::Read::read(&mut raw, &mut buf).expect("every frame is answered");
            assert!(n > 0, "server closed after {} responses", responses.len());
            assembler.extend(&buf[..n]);
            while let Some((kind, payload)) = assembler.next_frame(protocol::MAX_PAYLOAD).unwrap() {
                responses.push(decode_response_frame(kind, &payload).unwrap());
            }
        }
        let mut answered = 0;
        let mut shed = 0;
        for response in &responses {
            match response {
                Response::JobResult(result) => {
                    assert!(result
                        .outcomes
                        .iter()
                        .all(|o: &JobOutcome| o.status != JobStatus::Rejected));
                    answered += 1;
                }
                Response::Error {
                    code: ErrorCode::Overloaded,
                    ..
                } => shed += 1,
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert_eq!(answered + shed, OFFERED, "offered = answered + shed");
        assert!(shed >= 1, "a 4-frame burst into a 1-slot queue must shed");
        assert!(answered >= 1, "the admitted head of the burst is answered");
        let snap = handle.metrics().snapshot();
        assert_eq!(snap.overloaded, shed as u64);
        assert_eq!(snap.job_batches, OFFERED as u64);
        handle.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn stream_crc_is_stable_and_order_sensitive() {
        let a = stream_crc(&[1, 2, 3]);
        assert_eq!(a, stream_crc(&[1, 2, 3]));
        assert_ne!(a, stream_crc(&[3, 2, 1]));
        assert_ne!(a, stream_crc(&[1, 2]));
    }
}

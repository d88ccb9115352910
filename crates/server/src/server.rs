//! The TCP service: configuration, lifecycle, and the served
//! computations (the private `reactor` module owns the sockets).
//!
//! ## Threading model
//!
//! * One **reactor thread** ([`Server::serve`]) owns the listener and
//!   every connection socket, multiplexed over `poll(2)`: it decodes
//!   frames incrementally, serves `Ping`/`Metrics`/cache traffic
//!   inline, and admits digitization into bounded per-connection
//!   queues.
//! * Simulation runs on the [`JobPool`] — the runtime's long-lived
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
//!   (up to the admission caps) and complete out of order; each
//!   admitted request is one pool job.
//!
//! ## Deadlines
//!
//! A request's `deadline_ms` becomes the job's cooperative timeout
//! ([`adc_runtime::JobCtx::timed_out`]), counted from dispatch onto
//! the pool. It covers dispatch through conversion: the worker polls
//! it before fabricating the die and again once the record is
//! converted, and reports [`ErrorCode::TimedOut`] when it fires. The
//! conversion of one record is the indivisible unit (the converter's
//! warmup semantics make a record a single pure computation), exactly
//! like the campaign engine's per-die polling. Delivery is not under
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
use std::time::Duration;

use adc_pipeline::config::AdcConfig;
use adc_pipeline::error::BuildAdcError;
use adc_runtime::{JobError, JobPool, RunObserver};
use adc_testbench::{clear_tone_hz, MeasurementSession, RampSource};

use adc_calib::{Alignment, GangedCapture, GangedError, GangedScenario};
use adc_pipeline::interleave::InterleaveMismatch;

use crate::jobs::{CampaignCaches, JobRunner};
use crate::metrics::MetricsRegistry;
use crate::protocol::{
    self, error_code_for_build, DigitizeRequest, ErrorCode, GangedCal, GangedRequest,
    JobBatchRequest, JobOutcome, JobResultBatch, JobStatus, Preset, WaveformSpec,
};
use crate::reactor::{self, JobDone, Waker};

/// Foreground alignment averaging the server uses for
/// [`GangedCal::Foreground`] — fixed so a ganged request fully
/// determines the served record.
pub const GANGED_FOREGROUND_AVERAGES: u32 = 64;
/// Background-calibration epoch budget for [`GangedCal::Background`].
pub const GANGED_BACKGROUND_EPOCHS: u32 = 12;
/// Samples converted per background-calibration epoch.
pub const GANGED_BACKGROUND_EPOCH_LEN: u32 = 2048;

/// Tunables for one server instance.
#[derive(Clone)]
pub struct ServerConfig {
    /// Digitize worker threads (`0` = all hardware parallelism).
    pub threads: usize,
    /// Seed anchoring the pool's derived per-job seeds (requests carry
    /// their own fabrication seeds; this only names the pool stream).
    pub seed: u64,
    /// Maximum accepted request payload, bytes.
    pub max_payload: u32,
    /// Maximum samples per digitize request.
    pub max_samples: u32,
    /// Batch size used when a request passes `batch_size == 0`.
    pub default_batch: u32,
    /// Reactor poll tick — the latency bound on drain checks when no
    /// socket or completion event wakes the loop sooner.
    pub read_poll: Duration,
    /// Global cap on digitizations in flight on the pool at once.
    pub max_inflight: usize,
    /// Per-connection cap on digitizations in flight at once. A
    /// request holds its slot until the last byte of its answer is
    /// written, so the cap also bounds a connection's unwritten answers
    /// (the backpressure window).
    pub max_inflight_per_conn: usize,
    /// Per-connection admission-queue depth; requests beyond it are
    /// shed with [`ErrorCode::Overloaded`].
    pub max_pending_per_conn: usize,
    /// The host's campaign-job capability; `None` (the default) answers
    /// `JobBatch` requests with [`ErrorCode::Unsupported`].
    pub job_runner: Option<Arc<dyn JobRunner>>,
    /// Directory for per-campaign warm-cache files; `None` keeps the
    /// warm caches memory-only.
    pub cache_dir: Option<std::path::PathBuf>,
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("threads", &self.threads)
            .field("seed", &self.seed)
            .field("max_payload", &self.max_payload)
            .field("max_samples", &self.max_samples)
            .field("default_batch", &self.default_batch)
            .field("read_poll", &self.read_poll)
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
            seed: 0x5EC7_0A0D,
            max_payload: 1 << 20,
            max_samples: 1 << 20,
            default_batch: 1024,
            read_poll: Duration::from_millis(50),
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
    pub(crate) caches: CampaignCaches,
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
        let metrics = Arc::new(MetricsRegistry::new());
        let observers: Vec<Arc<dyn RunObserver>> = vec![Arc::clone(&metrics) as _];
        let pool = JobPool::with_observers("adc-server", cfg.seed, cfg.threads, observers);
        let caches = CampaignCaches::new(cfg.cache_dir.clone());
        let (waker, waker_rx) = reactor::waker_pair()?;
        Ok(Self {
            listener,
            addr,
            shared: Arc::new(Shared {
                pool,
                metrics,
                draining: AtomicBool::new(false),
                cfg,
                caches,
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

/// The exact `AdcConfig` a preset maps to — public (like
/// [`ganged_scenario`]) so clients, tests, and cluster job runners can
/// rebuild the served computation and assert bit-identity.
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

/// The in-process scenario a ganged request maps onto — public so
/// clients and tests can rebuild the *exact* served computation and
/// assert bit-identity.
pub fn ganged_scenario(req: &GangedRequest) -> GangedScenario {
    GangedScenario {
        config: preset_config(req.preset),
        channels: u32::from(req.channels),
        seed: req.seed,
        mismatch: if req.mismatch {
            InterleaveMismatch::typical()
        } else {
            InterleaveMismatch::none()
        },
        f_target_hz: req.f_target_hz,
        n_samples: req.n_samples,
        alignment: match req.cal {
            GangedCal::Raw => Alignment::Raw,
            GangedCal::Foreground => Alignment::Foreground {
                averages: GANGED_FOREGROUND_AVERAGES,
            },
            GangedCal::Background => Alignment::Background {
                epochs: GANGED_BACKGROUND_EPOCHS,
                epoch_len: GANGED_BACKGROUND_EPOCH_LEN,
            },
        },
    }
}

pub(crate) fn run_ganged(req: &GangedRequest) -> Result<GangedCapture, GangedError> {
    ganged_scenario(req).capture_tone()
}

pub(crate) fn error_code_for_ganged(err: &GangedError) -> ErrorCode {
    match err {
        GangedError::Build(build) => error_code_for_build(build),
        GangedError::InvalidScenario(_) => ErrorCode::InvalidRequest,
        GangedError::Calib(_) => ErrorCode::Internal,
    }
}

/// Request-level validation for ganged requests, mirroring [`validate`].
pub(crate) fn validate_ganged(req: &GangedRequest, cfg: &ServerConfig) -> Result<(), String> {
    if req.n_samples == 0 {
        return Err("n_samples must be positive".to_string());
    }
    if req.n_samples > cfg.max_samples {
        return Err(format!(
            "n_samples {} exceeds server limit {}",
            req.n_samples, cfg.max_samples
        ));
    }
    if !req.n_samples.is_power_of_two() {
        return Err(format!(
            "ganged captures need a power-of-two record, got {}",
            req.n_samples
        ));
    }
    if !req.f_target_hz.is_finite() || req.f_target_hz <= 0.0 {
        return Err(format!(
            "tone frequency must be positive, got {}",
            req.f_target_hz
        ));
    }
    Ok(())
}

/// Request-level validation, before any simulation work is queued.
pub(crate) fn validate(req: &DigitizeRequest, cfg: &ServerConfig) -> Result<(), String> {
    if req.n_samples == 0 {
        return Err("n_samples must be positive".to_string());
    }
    if req.n_samples > cfg.max_samples {
        return Err(format!(
            "n_samples {} exceeds server limit {}",
            req.n_samples, cfg.max_samples
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

/// CRC-32 over the little-endian IEEE-754 byte stream of a value
/// record (ganged streams carry `f64`s).
pub(crate) fn value_stream_crc(values: &[f64]) -> u32 {
    let mut bytes = Vec::with_capacity(values.len() * 8);
    for &v in values {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    protocol::crc32(&bytes)
}

/// Executes one job batch: warm-cache check first, then misses onto the
/// pool, one outcome per job in submission order.
///
/// Every job concludes with a typed [`JobStatus`]: `Cached` hits skip
/// the pool entirely; `Computed` results fill the warm cache before the
/// response leaves; pool-level losses (draining, deadline, panic) come
/// back `Rejected` so the client resubmits them — possibly elsewhere —
/// while runner-level errors come back `Failed` (deterministic: a
/// resubmission would fail identically).
pub(crate) fn run_job_batch(
    req: &JobBatchRequest,
    runner: &Arc<dyn JobRunner>,
    shared: &Arc<Shared>,
) -> JobResultBatch {
    let cache = shared.caches.for_campaign(&req.campaign);
    let deadline = (req.deadline_ms > 0).then(|| Duration::from_millis(u64::from(req.deadline_ms)));
    let mut outcomes: Vec<JobOutcome> = Vec::with_capacity(req.jobs.len());
    let mut pending = Vec::new();
    for job in &req.jobs {
        if let Some(line) = cache.get_line(job.key) {
            shared.metrics.cluster_cache_hit();
            outcomes.push(JobOutcome {
                id: job.id,
                key: job.key,
                status: JobStatus::Cached,
                value: line,
            });
            continue;
        }
        let runner = Arc::clone(runner);
        let kind = req.kind.clone();
        let config = job.config.clone();
        let (id, key, seed) = (job.id, job.key, job.seed);
        let handle = shared.pool.submit(deadline, move |ctx| {
            // Scope span ids to the campaign-derived job seed, not the
            // pool's stream: whichever host runs this job emits the
            // same span identity, so traces stitch across the fleet.
            let _trace_task = adc_trace::task(seed);
            let _trace_span = adc_trace::span_with("cluster-job", id);
            if ctx.timed_out() {
                return Err(JobError::TimedOut);
            }
            runner
                .run(&kind, &config, seed)
                .map_err(|e| JobError::Failed(e.to_string()))
        });
        // Record the slot; the outcome is patched in below.
        outcomes.push(JobOutcome {
            id,
            key,
            status: JobStatus::Rejected,
            value: String::new(),
        });
        pending.push((outcomes.len() - 1, handle));
    }
    for (slot, handle) in pending {
        let (value, report) = handle.wait();
        let (status, value) = match value {
            Some(line) => {
                cache.put_line(outcomes[slot].key, &line);
                (JobStatus::Computed, line)
            }
            None => match report.error {
                // Runner errors (`JobRunError::Display` strings) are
                // deterministic → Failed; everything the *pool* can do
                // to a job (drain, deadline, worker panic) is
                // scheduling, not computation → Rejected.
                Some(JobError::Failed(detail)) => (JobStatus::Failed, detail),
                Some(err @ JobError::Draining) => (JobStatus::Rejected, err.to_string()),
                Some(JobError::TimedOut) => (JobStatus::Rejected, "deadline expired".to_string()),
                Some(JobError::Panicked(msg)) => {
                    (JobStatus::Rejected, format!("worker panicked: {msg}"))
                }
                None => (JobStatus::Rejected, "job lost".to_string()),
            },
        };
        outcomes[slot].status = status;
        outcomes[slot].value = value;
    }
    // Mirror computed results to the campaign file so a restarted host
    // comes back warm. Cache I/O failures must not fail the batch.
    let _ = cache.persist(&req.campaign);
    JobResultBatch {
        batch_id: req.batch_id,
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ConfigOverrides;

    #[test]
    fn validation_rejects_out_of_bounds_requests() {
        let cfg = ServerConfig::default();
        let mut req = DigitizeRequest::tone(7, 10e6, 0);
        assert!(validate(&req, &cfg).is_err(), "zero samples");
        req.n_samples = cfg.max_samples + 1;
        assert!(validate(&req, &cfg).is_err(), "too many samples");
        req.n_samples = 1000;
        assert!(validate(&req, &cfg).is_err(), "tone needs power of two");
        req.n_samples = 1024;
        assert!(validate(&req, &cfg).is_ok());
        req.overrides = ConfigOverrides {
            f_cr_hz: Some(f64::NAN),
            ..ConfigOverrides::default()
        };
        assert!(validate(&req, &cfg).is_err(), "NaN override");
        let dc = DigitizeRequest {
            waveform: WaveformSpec::Dc { level_v: 0.25 },
            n_samples: 1000,
            ..DigitizeRequest::tone(7, 10e6, 1000)
        };
        assert!(
            validate(&dc, &cfg).is_ok(),
            "dc records need no power of two"
        );
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
            let verdict = validate(&req, &ServerConfig::default());
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

    #[test]
    fn stream_crc_is_stable_and_order_sensitive() {
        let a = stream_crc(&[1, 2, 3]);
        assert_eq!(a, stream_crc(&[1, 2, 3]));
        assert_ne!(a, stream_crc(&[3, 2, 1]));
        assert_ne!(a, stream_crc(&[1, 2]));
    }
}

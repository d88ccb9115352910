//! The serving workload, `serve_tone`.
//!
//! Each load point gets a fresh loopback `adc-server` (1 worker), so
//! its metrics histogram holds that point's requests alone. Load comes
//! from this thread over two connections: seeded, jittered arrivals at
//! a fixed absolute `low` or `high` rate (open loop), or closed-loop
//! capacity batches with a window of 16 per connection. Latency runs
//! from the scheduled send until the record passed its stream checks.
//! A seeded sample of every phase is recomputed in-process and must
//! match bit for bit, and after each untraced `low` phase one DC and
//! one ramp request, sent alone outside the timed window, must too.

use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use adc_server::protocol::{
    crc32, decode_response_frame, encode_response, FrameAssembler, MAX_PAYLOAD,
};
use adc_server::{
    Client, DigitizeDone, DigitizeRequest, MetricsSnapshot, PipelinedClient, PipelinedOutcome,
    Response, Server, ServerConfig, ServerHandle, WaveformSpec,
};
use adc_testbench::{DcSource, MeasurementSession, RampSource};

use crate::conn::{self, Conn};
use crate::gen::{arrivals, Mix, Requests, Rng};
use crate::layers;
use crate::report::{self, Run};
use crate::stats;

// 2048-sample tones (`Mix::Tone`): conversion dominates, and `high`
// is sustainable only while identical tones coalesce into lane batches.
/// The light fixed arrival rate, requests per second.
const LOW_RPS: f64 = 100.0;
/// The heavy fixed arrival rate, requests per second.
const HIGH_RPS: f64 = 450.0;
/// Latency limit for `within_slo.high`.
const SLO: Duration = Duration::from_millis(10);
/// Requests per closed-loop capacity batch.
const CAPACITY_BATCH: usize = 150;
/// Requests per phase recomputed in-process.
const VERIFY_PER_PHASE: usize = 4;

const CONNS: usize = 2;
const WINDOW: usize = 16;
/// How long a server gets to shut down before its stop counts as failed.
const SHUTDOWN_TIMEOUT: Duration = Duration::from_secs(2);
/// How long an idle server's worker gets to park before shutdown.
const PARK_GRACE: Duration = Duration::from_millis(2);
/// Requests a p99 needs under the ten-beyond rule, plus headroom.
const P99_REQUESTS: usize = 1_050;
/// Requests per traced phase: enough for a median, few enough for a
/// Chrome trace of a few megabytes.
const MIN_TRACED: usize = 100;
const MAX_TRACED: usize = 2_000;
/// Requests replayed layer by layer per traced phase.
const TRACED_REPLAYS: usize = 40;

/// A running loopback server.
struct Live {
    handle: ServerHandle,
    join: JoinHandle<std::io::Result<()>>,
}

impl Live {
    fn spawn() -> Result<Self, String> {
        let cfg = ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        };
        let (handle, join) =
            Server::spawn("127.0.0.1:0", cfg).map_err(|e| format!("bind loopback server: {e}"))?;
        Ok(Self { handle, join })
    }

    fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// The server's metrics once everything it admitted has finished.
    fn settled_metrics(&self) -> Result<MetricsSnapshot, String> {
        let mut client =
            Client::connect(self.addr()).map_err(|e| format!("metrics connect: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let snap = client.metrics().map_err(|e| format!("metrics: {e}"))?;
            if snap.in_flight == 0 || Instant::now() > deadline {
                return Ok(snap);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Stops the server once it is idle. The stop counts as one
    /// operation, failed when the server has not exited within
    /// [`SHUTDOWN_TIMEOUT`].
    fn stop(self, run: &mut Run) -> Result<(), String> {
        // Shut down only once the worker has finished its last job and
        // parked: `JobPool::shutdown` sets its draining flag and notifies
        // without holding the queue lock, so a worker between its check
        // of the flag and its wait misses the wake-up and never exits.
        self.settled_metrics()?;
        std::thread::sleep(PARK_GRACE);
        self.handle.shutdown();
        let deadline = Instant::now() + SHUTDOWN_TIMEOUT;
        while !self.join.is_finished() {
            if Instant::now() > deadline {
                // Leave its threads parked (they end with the process).
                eprintln!("server shutdown hung: its pool worker never exited");
                run.count(1, 1);
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        run.count(1, 0);
        self.join
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server exited with {e}"))
    }
}

/// The configuration a request resolves to, exactly as the server
/// resolves it.
fn session_for(req: &DigitizeRequest) -> Result<MeasurementSession, String> {
    let mut config = adc_server::preset_config(req.preset);
    if let Some(f_cr) = req.overrides.f_cr_hz {
        config.f_cr_hz = f_cr;
    }
    if let Some(noise) = req.overrides.thermal_noise {
        config.thermal_noise = noise;
    }
    let mut session =
        MeasurementSession::new(config, req.seed).map_err(|e| format!("fabricate: {e:?}"))?;
    if let Some(a) = req.overrides.amplitude_v {
        session.amplitude_v = a;
    }
    Ok(session)
}

/// Converts the request's record on `session` the way the server does;
/// returns the codes and the stimulus frequency (0 for DC and ramps).
fn convert(session: &mut MeasurementSession, req: &DigitizeRequest) -> (Vec<u16>, f64) {
    let n = req.n_samples as usize;
    let mut codes = Vec::with_capacity(n);
    let f_in = match req.waveform {
        WaveformSpec::Tone { f_target_hz } => {
            session.record_len = n;
            session.capture_tone_into(f_target_hz, &mut codes)
        }
        WaveformSpec::Dc { level_v } => {
            session.adc_mut().reset();
            session
                .adc_mut()
                .convert_waveform_into(&DcSource { level_v }, n, &mut codes);
            0.0
        }
        WaveformSpec::Ramp { from_v, to_v } => {
            let duration_s = n as f64 / session.adc().config().f_cr_hz;
            session.adc_mut().reset();
            let ramp = RampSource::new(from_v, to_v, duration_s);
            session
                .adc_mut()
                .convert_waveform_into(&ramp, n, &mut codes);
            0.0
        }
    };
    (codes, f_in)
}

/// The response frames the server streams for `codes`.
fn encode_stream(corr: u64, codes: &[u16], f_in_hz: f64) -> Vec<u8> {
    let batch = ServerConfig::default().default_batch as usize;
    let tagged = |inner: Response| {
        encode_response(&Response::Tagged {
            corr_id: corr,
            inner: Box::new(inner),
        })
    };
    let mut bytes = Vec::new();
    let mut batches = 0u32;
    for chunk in codes.chunks(batch) {
        bytes.extend(tagged(Response::Batch {
            seq: batches,
            samples: chunk.to_vec(),
        }));
        batches += 1;
    }
    let le: Vec<u8> = codes.iter().flat_map(|c| c.to_le_bytes()).collect();
    bytes.extend(tagged(Response::Done(DigitizeDone {
        total_samples: codes.len() as u32,
        batches,
        f_in_hz,
        stream_crc32: crc32(&le),
    })));
    bytes
}

/// Reassembles a stream `encode_stream` produced.
fn decode_stream(bytes: &[u8]) -> Result<Vec<u16>, String> {
    let mut assembler = FrameAssembler::new();
    assembler.extend(bytes);
    let mut samples = Vec::new();
    while let Some((kind, payload)) = assembler
        .next_frame(MAX_PAYLOAD)
        .map_err(|e| format!("{e:?}"))?
    {
        let Response::Tagged { inner, .. } =
            decode_response_frame(kind, &payload).map_err(|e| format!("{e:?}"))?
        else {
            return Err("untagged frame".to_string());
        };
        match *inner {
            Response::Batch { samples: chunk, .. } => samples.extend_from_slice(&chunk),
            Response::Done(done) if done.total_samples as usize == samples.len() => {}
            other => return Err(format!("unexpected frame {other:?}")),
        }
    }
    Ok(samples)
}

/// Recomputes one request in-process, layer by layer, under the
/// benchmark's spans: fabricate → convert → encode → decode. Outside
/// the request it then times one more conversion on the now-planned die
/// (`bench.convert_steady`) and the fixed cost of a fresh one
/// (`bench.plan`).
pub fn replay(req: &DigitizeRequest, corr: u64) -> Result<Vec<u16>, String> {
    let _task = adc_trace::task(req.seed);
    let (mut session, codes) = {
        let _request = adc_trace::span_with("bench.request", corr);
        let mut session = {
            let _s = adc_trace::span("bench.fabricate");
            session_for(req)?
        };
        let (codes, f_in) = {
            let _s = adc_trace::span("bench.convert");
            convert(&mut session, req)
        };
        let frames = {
            let _s = adc_trace::span("bench.encode");
            encode_stream(corr, &codes, f_in)
        };
        let decoded = {
            let _s = adc_trace::span("bench.decode");
            decode_stream(&frames)?
        };
        if decoded != codes {
            return Err("wire round trip changed the record".to_string());
        }
        (session, codes)
    };
    {
        let _s = adc_trace::span_with("bench.convert_steady", u64::from(req.n_samples));
        std::hint::black_box(convert(&mut session, req));
    }
    layers::plan_probe(session_for(req)?);
    Ok(codes)
}

/// Indices `verify` recomputes: a seeded sample, sorted.
fn verify_sample(reqs: &[DigitizeRequest], n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut picked: Vec<usize> = (0..n.min(reqs.len()))
        .map(|_| rng.below(reqs.len()))
        .collect();
    picked.sort_unstable();
    picked.dedup();
    picked
}

/// One phase's outcome: one load point on one fresh server.
struct Phase {
    /// Latency of each request that succeeded, milliseconds, sorted.
    ok_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    within_slo: u64,
    /// How late each send went out, microseconds, sorted.
    late_us: Vec<f64>,
    wire_bytes: u64,
    metrics: MetricsSnapshot,
}

/// Checks each recorded outcome, recomputes the sampled ones, and
/// counts failures.
fn tally(
    reqs: &[DigitizeRequest],
    completions: Vec<conn::Completion>,
    sample: &[usize],
    mut latency_ms: impl FnMut(&conn::Completion) -> f64,
) -> Result<(Vec<f64>, u64, u64), String> {
    let mut ok_ms = Vec::with_capacity(completions.len());
    let mut failed = 0u64;
    let mut within = 0u64;
    let mut ended = vec![false; reqs.len()];
    for c in completions {
        ended[c.index] = true;
        match &c.outcome {
            Ok(codes) => {
                if sample.binary_search(&c.index).is_ok()
                    && replay(&reqs[c.index], c.index as u64)? != *codes
                {
                    eprintln!(
                        "mismatch: served record {} differs from in-process",
                        c.index
                    );
                    failed += 1;
                    continue;
                }
                let ms = latency_ms(&c);
                if ms <= SLO.as_secs_f64() * 1e3 {
                    within += 1;
                }
                ok_ms.push(ms);
            }
            Err(why) => {
                // The first few reasons are enough to diagnose a run.
                if failed < 5 {
                    eprintln!("request {} failed: {why}", c.index);
                }
                failed += 1;
            }
        }
    }
    failed += ended.iter().filter(|&&e| !e).count() as u64;
    stats::sort(&mut ok_ms);
    Ok((ok_ms, failed, within))
}

/// Connects the generator's connections to `live`.
fn connect(live: &Live) -> Result<Vec<Conn>, String> {
    (0..CONNS)
        .map(|_| Conn::connect(live.addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))
}

/// The next DC and the next ramp request of a `Mix::Tiny` stream.
fn dc_and_ramp(tiny: &mut Requests) -> Vec<DigitizeRequest> {
    let mut next = |dc: bool| loop {
        let req = tiny.take(1).remove(0);
        match req.waveform {
            WaveformSpec::Dc { .. } if dc => return req,
            WaveformSpec::Ramp { .. } if !dc => return req,
            _ => {}
        }
    };
    vec![next(true), next(false)]
}

/// Sends `req` alone and returns the record served, `None` when the
/// server answered with anything else.
fn served(client: &mut PipelinedClient, req: &DigitizeRequest) -> Result<Option<Vec<u16>>, String> {
    client.submit(req).map_err(|e| format!("submit: {e}"))?;
    let (_, outcome) = client
        .next_completion()
        .map_err(|e| format!("record: {e}"))?;
    Ok(match outcome {
        PipelinedOutcome::Digitize(r) => Some(r.samples),
        _ => None,
    })
}

/// An open-loop phase of `count` requests at `rate` on a fresh server,
/// `verify` of them recomputed in-process. Once the phase's metrics
/// are taken, each of `alone` is sent by itself and checked the same
/// way; every check and the server's stop count in `run`.
fn open_phase(
    requests: &mut Requests,
    rng: &mut Rng,
    rate: f64,
    count: usize,
    verify: usize,
    alone: &[DigitizeRequest],
    run: &mut Run,
) -> Result<Phase, String> {
    let arrivals = arrivals(rng, rate, count);
    let reqs = requests.take(count);
    let sample = verify_sample(&reqs, verify, rng);
    let live = Live::spawn()?;
    let mut conns = connect(&live)?;
    let loaded =
        conn::open_loop(&mut conns, &reqs, &arrivals).map_err(|e| format!("open loop: {e}"))?;
    drop(conns);
    let metrics = live.settled_metrics()?;
    if !alone.is_empty() {
        let mut client =
            PipelinedClient::connect(live.addr()).map_err(|e| format!("connect: {e}"))?;
        for req in alone {
            let correct = served(&mut client, req)? == Some(replay(req, 0)?);
            if !correct {
                eprintln!(
                    "mismatch: served {:?} record differs from in-process",
                    req.waveform
                );
            }
            run.count(1, u64::from(!correct));
        }
    }
    live.stop(run)?;
    let scheduled = loaded.scheduled;
    let (ok_ms, failed, within_slo) = tally(&reqs, loaded.completions, &sample, |c| {
        (c.at - scheduled[c.index]).as_secs_f64() * 1e3
    })?;
    let mut late_us = loaded.late_us;
    stats::sort(&mut late_us);
    Ok(Phase {
        ok_ms,
        attempted: reqs.len() as u64,
        failed,
        within_slo,
        late_us,
        wire_bytes: loaded.wire_bytes,
        metrics,
    })
}

/// One closed-loop capacity batch on a fresh server; returns its wall
/// time in seconds.
fn capacity_batch(requests: &mut Requests, rng: &mut Rng, run: &mut Run) -> Result<f64, String> {
    let reqs = requests.take(CAPACITY_BATCH);
    let sample = verify_sample(&reqs, VERIFY_PER_PHASE, rng);
    let live = Live::spawn()?;
    let mut conns = connect(&live)?;
    let (completions, wall) =
        conn::closed_loop(&mut conns, &reqs, WINDOW).map_err(|e| format!("closed loop: {e}"))?;
    drop(conns);
    live.stop(run)?;
    let (_, failed, _) = tally(&reqs, completions, &sample, |_| 0.0)?;
    run.count(reqs.len() as u64, failed);
    Ok(wall.as_secs_f64())
}

/// Set-up: spawn a server, connect, and get the first correct record
/// back, on a server of its own. Returns seconds, or `None` when the
/// record was wrong.
fn setup_time(req: &DigitizeRequest, run: &mut Run) -> Result<Option<f64>, String> {
    let expected = replay(req, 0)?;
    let start = Instant::now();
    let live = Live::spawn()?;
    let mut client = PipelinedClient::connect(live.addr()).map_err(|e| format!("connect: {e}"))?;
    let correct = served(&mut client, req)? == Some(expected);
    let elapsed = start.elapsed().as_secs_f64();
    drop(client);
    live.stop(run)?;
    run.count(1, u64::from(!correct));
    Ok(correct.then_some(elapsed))
}

/// One load point's rounds, each on its own fresh server.
struct Point(Vec<Phase>);

impl Point {
    fn count_into(&self, run: &mut Run) {
        for p in &self.0 {
            run.count(p.attempted, p.failed);
        }
    }

    fn pooled(&self, f: impl Fn(&Phase) -> &[f64]) -> Vec<f64> {
        let mut all: Vec<f64> = self.0.iter().flat_map(|p| f(p).iter().copied()).collect();
        stats::sort(&mut all);
        all
    }

    /// The median over rounds of each round's `q`-quantile latency.
    fn per_round_ms(&self, q: f64, what: &str) -> Result<f64, String> {
        let per_round = self
            .0
            .iter()
            .map(|p| stats::quantile(&p.ok_ms, q))
            .collect::<Option<Vec<f64>>>()
            .ok_or(format!(
                "{what}: a round has too few samples for its {q} quantile"
            ))?;
        stats::median(&per_round).ok_or(format!("{what}: no rounds"))
    }

    fn p50_ms(&self, what: &str) -> Result<f64, String> {
        self.per_round_ms(0.5, what)
    }

    /// The median, over windows of consecutive rounds holding at least
    /// [`P99_REQUESTS`] samples each, of each window's p99 (a short
    /// last window joins the one before it).
    fn p99_ms(&self, what: &str) -> Result<f64, String> {
        let mut windows: Vec<Vec<f64>> = vec![Vec::new()];
        for p in &self.0 {
            let open = windows.last_mut().expect("never empty");
            if open.len() >= P99_REQUESTS {
                windows.push(p.ok_ms.clone());
            } else {
                open.extend_from_slice(&p.ok_ms);
            }
        }
        if windows.len() > 1 && windows.last().is_some_and(|w| w.len() < P99_REQUESTS) {
            let short = windows.pop().expect("checked");
            windows.last_mut().expect("checked").extend(short);
        }
        let p99s = windows
            .iter_mut()
            .map(|w| {
                stats::sort(w);
                stats::quantile(w, 0.99)
            })
            .collect::<Option<Vec<f64>>>()
            .ok_or(format!("{what}: too few samples for a p99"))?;
        stats::median(&p99s).ok_or(format!("{what}: no window"))
    }

    fn within_slo(&self) -> f64 {
        let within: u64 = self.0.iter().map(|p| p.within_slo).sum();
        let attempted: u64 = self.0.iter().map(|p| p.attempted).sum();
        within as f64 / attempted.max(1) as f64
    }

    fn report(&self, name: &str) {
        let ok = self.pooled(|p| &p.ok_ms);
        let late = self.pooled(|p| &p.late_us);
        let attempted: u64 = self.0.iter().map(|p| p.attempted).sum();
        let failed: u64 = self.0.iter().map(|p| p.failed).sum();
        let server_p50: Vec<f64> = self.0.iter().map(|p| p.metrics.p50_us as f64).collect();
        eprintln!(
            "  {name}: {} rounds, {attempted} sent, {} ok, {failed} failed; p99 over {} samples \
             ({} beyond); server p50 median {:.0} us; generator late p50/p99 {:.0}/{:.0} us",
            self.0.len(),
            ok.len(),
            ok.len(),
            ok.len()
                .saturating_sub((0.99 * ok.len() as f64).ceil() as usize),
            stats::median(&server_p50).unwrap_or(f64::NAN),
            stats::quantile(&late, 0.5).unwrap_or(f64::NAN),
            stats::quantile(&late, 0.99).unwrap_or(f64::NAN),
        );
    }
}

/// Rounds per untraced run. Each round runs set-ups and a `low` phase
/// (the `high` rate and the capacity batches run in the traced run), so
/// every metric samples the whole run rather than one stretch of it;
/// the medians over rounds shrug off a host stall that hits one round.
const ROUNDS: usize = 12;
/// Set-ups per round.
const SETUPS_PER_ROUND: usize = 2;
/// Closed-loop capacity batches per traced run.
const CAPACITY_BATCHES: usize = 4;

/// Runs `serve_tone` untraced: every end-to-end metric.
pub fn run_untraced(seed: u64, seconds: f64) -> Result<Run, String> {
    let mut run = Run::default();
    let mut requests = Requests::new(Mix::Tone, seed);
    let mut tiny = Requests::new(Mix::Tiny, seed);
    let mut rng = Rng::new(seed, "phases");
    // Each round supports its own p90 (ten samples beyond it).
    let per_round = |rate: f64, share: f64| {
        ((rate * share * seconds / ROUNDS as f64).round() as usize).max(stats::samples_needed(0.9))
    };
    let low_count = per_round(LOW_RPS, 0.7);

    let (mut setups, mut low) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for _ in 0..ROUNDS {
        crate::within_limit(start)?;
        for req in requests.take(SETUPS_PER_ROUND) {
            setups.extend(setup_time(&req, &mut run)?);
        }
        low.push(open_phase(
            &mut requests,
            &mut rng,
            LOW_RPS,
            low_count,
            VERIFY_PER_PHASE,
            &dc_and_ramp(&mut tiny),
            &mut run,
        )?);
    }
    let low = Point(low);
    low.report("low");
    eprintln!("  set-ups: {setups:.4?} s");

    low.count_into(&mut run);
    run.set(
        "setup_s",
        stats::median(&setups).ok_or("no set-up succeeded")?,
    );
    run.set("p50_ms.low", low.p50_ms("low")?);
    run.set("p90_ms.low", low.per_round_ms(0.9, "low")?);
    run.set("peak_rss_mb", report::peak_rss_mb()?);
    Ok(run)
}

/// Runs `serve_tone` traced: every per-layer metric, the Chrome trace
/// and the layer table.
///
/// Untraced closed-loop capacity batches, then untraced phases at `low`
/// and `high`, each long enough for a p99, give the capacity, the tail
/// metrics, the server's own quantiles and the wire bytes; shorter
/// traced phases at both rates then give the layer table, whose rows
/// come from the seeded in-process replays.
pub fn run_traced(seed: u64, seconds: f64, out: &crate::Output) -> Result<Run, String> {
    let mut run = Run::default();
    let mut requests = Requests::new(Mix::Tone, seed);
    let mut rng = Rng::new(seed, "phases");
    let walls = (0..CAPACITY_BATCHES)
        .map(|_| capacity_batch(&mut requests, &mut rng, &mut run))
        .collect::<Result<Vec<f64>, String>>()?;
    eprintln!(
        "  capacity: {CAPACITY_BATCHES} batches of {CAPACITY_BATCH} requests, walls {walls:.3?} s"
    );
    let batch_wall = stats::median(&walls).ok_or("no capacity batch")?;
    run.set("capacity_rps", CAPACITY_BATCH as f64 / batch_wall);
    let count = |rate: f64, share: f64| (rate * share * seconds).round() as usize;
    let mut phase = |rate: f64, count: usize, verify: usize| {
        open_phase(&mut requests, &mut rng, rate, count, verify, &[], &mut run)
    };
    let low = phase(
        LOW_RPS,
        count(LOW_RPS, 0.3).max(P99_REQUESTS),
        VERIFY_PER_PHASE,
    )?;
    let high = phase(
        HIGH_RPS,
        count(HIGH_RPS, 0.2).max(P99_REQUESTS),
        VERIFY_PER_PHASE,
    )?;
    // The traced phases feed the layer table through their replays; a
    // few seconds of requests keep the Chrome trace small.
    let traced = |rate: f64| count(rate, 0.05).clamp(MIN_TRACED, MAX_TRACED);
    let collector =
        adc_trace::Collector::install().ok_or("another trace collector is installed")?;
    let low_traced = phase(LOW_RPS, traced(LOW_RPS), TRACED_REPLAYS)?;
    let high_traced = phase(HIGH_RPS, traced(HIGH_RPS), TRACED_REPLAYS)?;
    let (low, high) = (Point(vec![low]), Point(vec![high]));
    let (low_traced, high_traced) = (Point(vec![low_traced]), Point(vec![high_traced]));
    let trace = collector.finish();
    low.report("low");
    high.report("high");
    low_traced.report("low (traced)");
    high_traced.report("high (traced)");
    let width = layers::mean_begin_value(&trace, "coalesced")
        .round()
        .max(1.0) as usize;
    let lanes_ns = lanes_ns_per_sample(&mut requests, width)?;

    for p in [&low, &high, &low_traced, &high_traced] {
        p.count_into(&mut run);
    }
    let table = layers::table(
        &trace,
        "bench.request",
        &[
            "bench.fabricate",
            "bench.convert",
            "bench.encode",
            "bench.decode",
        ],
    );
    out.write_trace(&trace, &table)?;

    let steady_us = layers::mean_us(&trace, "bench.convert_steady");
    let mean_samples = layers::mean_begin_value(&trace, "bench.convert_steady");
    let fabricate_us = table.self_us("bench.fabricate") + layers::mean_us(&trace, "bench.plan");
    let encode_us = table.self_us("bench.encode");
    let (reference, loaded) = (&low.0[0], &high.0[0]);
    let server_p50 = reference.metrics.p50_us as f64;

    run.set("p99_ms.low", low.p99_ms("low")?);
    run.set("p50_ms.high", high.p50_ms("high")?);
    run.set("p99_ms.high", high.p99_ms("high")?);
    run.set("within_slo.high", high.within_slo());
    run.set(
        "pipeline.convert_ns_per_sample",
        steady_us * 1e3 / mean_samples.max(1.0),
    );
    run.set("pipeline.lanes_ns_per_sample", lanes_ns);
    run.set(
        "server.coalesced_frac",
        loaded.metrics.coalesced as f64 / loaded.metrics.completed.max(1) as f64,
    );
    run.set("testbench.fabricate_us", fabricate_us);
    run.set("protocol.encode_us", encode_us);
    run.set("protocol.decode_us", table.self_us("bench.decode"));
    run.set(
        "protocol.bytes_per_req",
        reference.wire_bytes as f64 / reference.attempted as f64,
    );
    run.set("server.p50_us", server_p50);
    run.set("server.p99_us", reference.metrics.p99_us as f64);
    run.set(
        "server.wait_us",
        server_p50 - (fabricate_us + steady_us + encode_us),
    );
    run.set("client.residual_us", low.p50_ms("low")? * 1e3 - server_p50);
    let phases = [reference, loaded, &low_traced.0[0], &high_traced.0[0]];
    run.set(
        "server.shed",
        phases.iter().map(|p| p.metrics.overloaded as f64).sum(),
    );
    run.set(
        "server.errors",
        phases.iter().map(|p| p.metrics.errors as f64).sum(),
    );
    for name in [
        "campaign_s",
        "spectral.analyze_us",
        "spectral.fft_us",
        "calib.ganged_capture_ms",
        "runtime.busy_s",
        "runtime.overhead_s",
        "runtime.cache_hit_frac",
        "runtime.warm_s",
    ] {
        run.set(name, 0.0);
    }
    let late = low.pooled(|p| &p.late_us);
    run.set(
        "gen.late_p99_us",
        stats::quantile(&late, 0.99).ok_or("too few sends for the lateness p99")?,
    );
    run.set(
        "trace.overhead_frac",
        low_traced.p50_ms("low traced")? / low.p50_ms("low")? - 1.0,
    );
    run.set("trace.residual_us", table.residual_us);
    Ok(run)
}

/// Steady lane-kernel cost at `width` lanes (the mean coalesced width
/// the traced `high` phase showed, 1 when nothing coalesced) on this
/// workload's next tone.
fn lanes_ns_per_sample(requests: &mut Requests, width: usize) -> Result<f64, String> {
    let tone = requests.take(1).remove(0);
    let WaveformSpec::Tone { f_target_hz } = tone.waveform else {
        return Err("the tone workload produced another waveform".to_string());
    };
    let seeds: Vec<u64> = (0..width as u64).map(|k| tone.seed + k).collect();
    let config = adc_server::preset_config(tone.preset);
    layers::lane_kernel_ns(&config, &seeds, tone.n_samples as usize, f_target_hz)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn served_records_match_their_in_process_replay() {
        // Every request of a short phase of mixed DC, ramp and tone
        // requests is recomputed and compared bit for bit, and so are a
        // DC and a ramp request sent alone after it; a mismatch counts
        // as a failure.
        let mut requests = Requests::new(Mix::Tiny, 4);
        let alone = dc_and_ramp(&mut requests);
        let mut rng = Rng::new(4, "phases");
        let mut run = Run::default();
        let phase = open_phase(&mut requests, &mut rng, 2000.0, 150, 150, &alone, &mut run)
            .expect("phase runs");
        assert_eq!(phase.attempted, 150);
        assert_eq!(phase.failed, 0);
        assert_eq!(phase.ok_ms.len(), 150);
        assert_eq!(phase.metrics.completed, 150);
        // The two requests sent alone and the server's stop.
        assert_eq!((run.attempted, run.failed), (3, 0));
    }

    fn round(ok_ms: Vec<f64>) -> Phase {
        Phase {
            attempted: ok_ms.len() as u64,
            ok_ms,
            failed: 0,
            within_slo: 0,
            late_us: Vec::new(),
            wire_bytes: 0,
            metrics: MetricsSnapshot::default(),
        }
    }

    #[test]
    fn p99_is_the_median_of_thousand_request_windows() {
        // Three windows of 1100: the middle one's p99 is 2.0; a stall
        // that ruins one window does not move the result.
        let window = |tail: f64| {
            let mut v = vec![1.0; 1100];
            v[1085..].fill(tail);
            v
        };
        let rounds = [window(2.0), window(500.0), window(1.5)]
            .into_iter()
            .flat_map(|w| w.chunks(550).map(<[f64]>::to_vec).collect::<Vec<_>>())
            .map(round)
            .collect();
        assert_eq!(Point(rounds).p99_ms("test"), Ok(2.0));
    }

    #[test]
    fn a_short_last_window_joins_the_one_before() {
        // Alone, five samples support no p99; joined, the window of 1105
        // has its p99 at rank 1094, still among the 1.0s.
        let point = Point(vec![round(vec![1.0; 1100]), round(vec![9.0; 5])]);
        assert_eq!(point.p99_ms("test"), Ok(1.0));
        assert!(Point(vec![round(vec![1.0; 500])]).p99_ms("test").is_err());
    }
}

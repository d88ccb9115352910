//! Open-loop load generator for `adc-server`: spins up a loopback
//! service, probes its saturation throughput with pipelined clients,
//! then replays deterministic uniform arrival schedules at fractions
//! of that saturation and reports latency where the queueing theory
//! says it matters — at a fixed *offered* rate, not a closed loop
//! that politely waits for the server.
//!
//! Phases:
//!
//! 1. **Default load point** — the committed baseline's closed-loop
//!    throughput ([`BASELINE_RPS`]) is replayed as a uniform arrival
//!    schedule: requests are submitted *at their scheduled instants*
//!    regardless of how the server is doing, and latency is measured
//!    from the scheduled arrival to completion, so generator lag and
//!    queue delay both count against the server. This is the traffic
//!    the service was provisioned for, so its quantiles are the
//!    headline `client_latency_us` figures. It runs first, against
//!    the still-clean server, so the metrics snapshot after it is the
//!    serving core's own latency distribution at exactly that load
//!    (reported as `default_load.server_latency_us`).
//! 2. **Saturation probe** — `ADC_SERVICE_CLIENTS` (2) pipelined
//!    connections each keep a deep window of digitize requests in
//!    flight until `ADC_SERVICE_PROBE_REQUESTS` (150) per client have
//!    completed; completed/wall is the saturation rate.
//! 3. **Arrival sweep** — the same open-loop schedule at 50%, 80%,
//!    and 95% of measured saturation, reported under `load_points`.
//!
//! The legacy `requests_per_sec` / `samples_per_sec` keys carry the
//! saturation-probe throughput (the successor of the old closed-loop
//! flood figure); the probe detail lives under `saturation`.
//!
//! Every response is verified by the client library (batch ordering,
//! sample count, stream CRC), and one record is replayed in-process
//! to prove the service boundary is bit-identical. All requests share
//! one tone shape at distinct seeds: every request costs the same, so
//! the load points differ only in arrival rate.

use std::time::{Duration, Instant};

use adc_bench::cli::env_usize;
use adc_pipeline::config::AdcConfig;
use adc_server::{
    Client, DigitizeRequest, PipelinedClient, PipelinedOutcome, Server, ServerConfig,
};
use adc_testbench::MeasurementSession;

/// One tone shape for the whole run: identical stimulus, distinct
/// seeds, so every request is the same amount of work.
const F_TARGET: f64 = 5e6;

/// Pipelining depth per connection during the saturation probe.
const PROBE_WINDOW: usize = 16;

/// Load fractions swept, percent of measured saturation.
const LOAD_PCTS: &[u64] = &[50, 80, 95];

/// The committed baseline's closed-loop throughput (req/s) — the load
/// the pre-reactor server saturated at. The *default load point*
/// replays that rate against the new core: it is the traffic level
/// the service was actually provisioned for, so its latency quantiles
/// are the headline `client_latency_us` figures.
const BASELINE_RPS: f64 = 96.23;

/// Latency at quantile `q` from a sorted sample set, microseconds.
fn quantile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Outcome of one measured load point.
struct LoadPoint {
    label: String,
    /// Percent of saturation (0 for the absolute-rate default point).
    pct: u64,
    target_rps: f64,
    offered: usize,
    completed: u64,
    shed: u64,
    achieved_rps: f64,
    p50: u64,
    p90: u64,
    p99: u64,
}

/// Floods the server from `clients` pipelined connections and returns
/// (completed requests, wall seconds).
fn saturation_probe(
    addr: std::net::SocketAddr,
    clients: usize,
    per_client: usize,
    n_samples: u32,
) -> (u64, f64) {
    let start = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || -> u64 {
                let mut client = PipelinedClient::connect(addr).expect("connect");
                let mut submitted = 0usize;
                let mut done = 0u64;
                while submitted < per_client.min(PROBE_WINDOW) {
                    let seed = 1000 + (c * per_client + submitted) as u64;
                    client
                        .submit(&DigitizeRequest::tone(seed, F_TARGET, n_samples))
                        .expect("probe submit");
                    submitted += 1;
                }
                while done < per_client as u64 {
                    let (_, outcome) = client.next_completion().expect("probe completion");
                    match outcome {
                        PipelinedOutcome::Digitize(result) => {
                            assert_eq!(result.samples.len(), n_samples as usize);
                        }
                        other => panic!("probe: unexpected outcome {other:?}"),
                    }
                    done += 1;
                    if submitted < per_client {
                        let seed = 1000 + (c * per_client + submitted) as u64;
                        client
                            .submit(&DigitizeRequest::tone(seed, F_TARGET, n_samples))
                            .expect("probe submit");
                        submitted += 1;
                    }
                }
                done
            })
        })
        .collect();
    let completed: u64 = workers
        .into_iter()
        .map(|w| w.join().expect("probe thread"))
        .sum();
    (completed, start.elapsed().as_secs_f64())
}

/// Drives one open-loop load point: uniform arrivals at `target_rps`
/// split round-robin over `clients` connections. `pct` labels the
/// saturation fraction (0 = absolute-rate default point) and also
/// salts the seed block so every point fabricates distinct dies.
fn run_load_point(
    addr: std::net::SocketAddr,
    clients: usize,
    label: &str,
    pct: u64,
    target_rps: f64,
    duration_ms: usize,
    n_samples: u32,
) -> LoadPoint {
    let offered = ((target_rps * duration_ms as f64 / 1000.0) as usize).max(clients);
    let interval = Duration::from_secs_f64(1.0 / target_rps);
    // Threads connect first, then agree on t0 behind a barrier so the
    // schedule starts with every generator ready — connection setup
    // must not read as server queueing delay.
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(clients));
    let t0_cell = std::sync::Arc::new(std::sync::OnceLock::new());

    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let barrier = std::sync::Arc::clone(&barrier);
            let t0_cell = std::sync::Arc::clone(&t0_cell);
            std::thread::spawn(move || -> (Vec<u64>, u64, f64) {
                let mut client = PipelinedClient::connect(addr).expect("connect");
                // A non-blocking socket, not a short read timeout:
                // kernels round `SO_RCVTIMEO` up to scheduler ticks, so
                // a "1 ms" timed read can block ~8 ms and push submits
                // past their scheduled arrivals. `thread::sleep` is
                // hrtimer-precise, so pacing uses it exclusively.
                client.set_nonblocking(true).expect("nonblocking");
                if barrier.wait().is_leader() {
                    let _ = t0_cell.set(Instant::now() + Duration::from_millis(10));
                }
                barrier.wait();
                let t0: Instant = *t0_cell.get().expect("leader sets t0");
                let mut sched_of = std::collections::BTreeMap::new();
                let mut latencies_us = Vec::new();
                let mut shed = 0u64;
                let record = |corr: u64,
                              outcome: PipelinedOutcome,
                              sched_of: &mut std::collections::BTreeMap<u64, Instant>,
                              shed: &mut u64,
                              latencies_us: &mut Vec<u64>| {
                    let sched = sched_of.remove(&corr).expect("known corr id");
                    match outcome {
                        PipelinedOutcome::Digitize(result) => {
                            assert_eq!(result.samples.len(), n_samples as usize);
                            latencies_us.push(sched.elapsed().as_micros() as u64);
                        }
                        PipelinedOutcome::ServerError { code, .. } => {
                            assert_eq!(code, adc_server::ErrorCode::Overloaded);
                            *shed += 1;
                        }
                    }
                };

                // This client owns arrivals c, c+clients, c+2*clients, ...
                let mut i = c;
                while i < offered {
                    let sched = t0 + interval.mul_f64(i as f64);
                    // Drain everything already buffered (returns
                    // immediately on a non-blocking socket), then wait
                    // out the arrival instant: with nothing in flight
                    // one precise sleep covers the whole gap; with
                    // responses due and plenty of margin, an untimed
                    // blocking read picks the completion up the moment
                    // it lands (event-driven, no polling cadence in the
                    // measured latency); near the arrival instant,
                    // short precise slices keep the submit on schedule.
                    loop {
                        while let Some((corr, outcome)) =
                            client.try_next_completion().expect("drain while waiting")
                        {
                            record(corr, outcome, &mut sched_of, &mut shed, &mut latencies_us);
                        }
                        let now = Instant::now();
                        if now >= sched {
                            break;
                        }
                        let remain = sched - now;
                        if client.in_flight() == 0 {
                            std::thread::sleep(remain);
                        } else if remain > Duration::from_millis(8) {
                            client.set_nonblocking(false).expect("blocking pickup");
                            let (corr, outcome) =
                                client.next_completion().expect("blocking completion");
                            client.set_nonblocking(true).expect("nonblocking restore");
                            record(corr, outcome, &mut sched_of, &mut shed, &mut latencies_us);
                        } else {
                            std::thread::sleep(remain.min(Duration::from_micros(250)));
                        }
                    }
                    let seed = 10_000 + (pct + 1) * 1_000_000 + i as u64;
                    let corr = client
                        .submit(&DigitizeRequest::tone(seed, F_TARGET, n_samples))
                        .expect("open-loop submit");
                    sched_of.insert(corr, sched);
                    i += clients;
                }
                client.set_nonblocking(false).expect("blocking restore");
                client
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .expect("drain timeout");
                while client.in_flight() > 0 {
                    let (corr, outcome) = client.next_completion().expect("drain completion");
                    record(corr, outcome, &mut sched_of, &mut shed, &mut latencies_us);
                }
                let wall_s = t0.elapsed().as_secs_f64();
                (latencies_us, shed, wall_s)
            })
        })
        .collect();

    let mut latencies_us = Vec::new();
    let mut shed = 0u64;
    let mut wall_s = 0f64;
    for w in workers {
        let (lat, s, wall) = w.join().expect("load-point thread");
        latencies_us.extend(lat);
        shed += s;
        wall_s = wall_s.max(wall);
    }
    latencies_us.sort_unstable();
    let completed = latencies_us.len() as u64;
    LoadPoint {
        label: label.to_string(),
        pct,
        target_rps,
        offered,
        completed,
        shed,
        achieved_rps: completed as f64 / wall_s.max(1e-12),
        p50: quantile_us(&latencies_us, 0.50),
        p90: quantile_us(&latencies_us, 0.90),
        p99: quantile_us(&latencies_us, 0.99),
    }
}

fn main() {
    let args = adc_bench::CampaignArgs::parse();
    let clients = env_usize("ADC_SERVICE_CLIENTS", 2);
    let probe_requests = env_usize("ADC_SERVICE_PROBE_REQUESTS", 150);
    let duration_ms = env_usize("ADC_SERVICE_DURATION_MS", 2000);
    let baseline_ms = env_usize("ADC_SERVICE_BASELINE_MS", 4000);
    let n_samples = env_usize("ADC_SERVICE_SAMPLES", 2048).next_power_of_two() as u32;

    adc_bench::banner(
        "Service -- open-loop digitize load over the TCP server",
        "adc-server loopback benchmark (streams verified sample-exact)",
    );
    println!(
        "{clients} pipelined clients, {n_samples} samples/request, \
         probe {probe_requests} req/client, {duration_ms} ms per load point\n"
    );

    let (handle, join) = Server::spawn(
        "127.0.0.1:0",
        ServerConfig {
            threads: args.threads,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback server");
    let addr = handle.addr();

    // Warm the path (fabrication tables, allocator) and prove the
    // service boundary adds transport, not nondeterminism: the served
    // record must match a direct in-process run bit for bit.
    let check_seed = 424_242u64;
    let mut check = Client::connect(addr).expect("connect for check");
    let served = check
        .digitize(&DigitizeRequest::tone(check_seed, F_TARGET, n_samples))
        .expect("check digitize");
    let mut direct =
        MeasurementSession::new(AdcConfig::nominal_110ms(), check_seed).expect("nominal builds");
    direct.record_len = n_samples as usize;
    let (expected, _) = direct.capture_tone(F_TARGET);
    assert_eq!(served.samples, expected, "service must be bit-identical");
    println!("determinism spot check: served record == in-process record");

    let print_point = |point: &LoadPoint| {
        println!(
            "{:>18}: target {:.1} req/s, achieved {:.1} req/s ({} ok, {} shed), \
             p50/p90/p99 {}/{}/{} us",
            point.label,
            point.target_rps,
            point.achieved_rps,
            point.completed,
            point.shed,
            point.p50,
            point.p90,
            point.p99,
        );
    };

    // The default load point runs FIRST, against the still-clean
    // server, so the metrics snapshot taken right after it is exactly
    // the serving core's latency distribution at that load — the
    // log-linear histogram is cumulative and would otherwise mix in
    // the flood phases. It offers a light absolute rate, so it runs on
    // a single connection (less generator churn on a 1-CPU host) and a
    // longer window for a stable p99.
    let mut points = Vec::new();
    std::thread::sleep(Duration::from_millis(200));
    let default = run_load_point(
        addr,
        1,
        "baseline-replay",
        0,
        BASELINE_RPS,
        baseline_ms,
        n_samples,
    );
    print_point(&default);
    let default_server = check.metrics().expect("default-point metrics");
    println!(
        "    server-side at default load: p50/p90/p99 {}/{}/{} us",
        default_server.p50_us, default_server.p90_us, default_server.p99_us
    );
    points.push(default);

    let (probe_done, probe_wall) = saturation_probe(addr, clients, probe_requests, n_samples);
    let saturation_rps = probe_done as f64 / probe_wall.max(1e-12);
    println!(
        "saturation probe: {probe_done} requests in {probe_wall:.2}s = {saturation_rps:.1} req/s"
    );

    for &pct in LOAD_PCTS {
        // Let the machine settle between phases: the previous point's
        // drain leaves allocator and kernel housekeeping behind that
        // would otherwise stall the next point's first arrivals.
        std::thread::sleep(Duration::from_millis(200));
        let label = format!("{pct}% of saturation");
        let target_rps = saturation_rps * pct as f64 / 100.0;
        let point = run_load_point(
            addr,
            clients,
            &label,
            pct,
            target_rps,
            duration_ms,
            n_samples,
        );
        print_point(&point);
        points.push(point);
    }

    // The in-flight gauge decrements when the pool observer runs, a
    // hair after the final frame reaches the client — poll it down.
    let drain_deadline = Instant::now() + Duration::from_secs(5);
    let snapshot = loop {
        let snap = check.metrics().expect("metrics");
        if snap.in_flight == 0 || Instant::now() > drain_deadline {
            break snap;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    check.shutdown().expect("shutdown");
    join.join().expect("server thread").expect("server exits");
    assert_eq!(snapshot.in_flight, 0, "pool drained");

    let default_point = &points[0];
    let total_ok: u64 = points.iter().map(|p| p.completed).sum();
    let total_shed: u64 = points.iter().map(|p| p.shed).sum();
    println!(
        "\nheadline: saturation {:.1} req/s ({:.0} samples/s); at the default \
         load point ({:.1} req/s) client p99 {} us, server p99 {} us",
        saturation_rps,
        saturation_rps * f64::from(n_samples),
        default_point.target_rps,
        default_point.p99,
        default_server.p99_us,
    );
    println!(
        "server: {} digitizes, {} completed, {} coalesced, {} overloaded, server p50/p99 {}/{} us",
        snapshot.digitizes,
        snapshot.completed,
        snapshot.coalesced,
        snapshot.overloaded,
        snapshot.p50_us,
        snapshot.p99_us,
    );

    let point_json = |p: &LoadPoint, indent: &str| {
        format!(
            concat!(
                "{{ \"label\": \"{}\", \"frac_pct\": {}, \"target_rps\": {:.2}, ",
                "\"offered\": {}, \"completed\": {}, \"shed\": {}, ",
                "\"achieved_rps\": {:.2},\n{}  ",
                "\"latency_us\": {{ \"p50\": {}, \"p90\": {}, \"p99\": {} }} }}"
            ),
            p.label,
            p.pct,
            p.target_rps,
            p.offered,
            p.completed,
            p.shed,
            p.achieved_rps,
            indent,
            p.p50,
            p.p90,
            p.p99,
        )
    };
    let load_points_json: Vec<String> = points
        .iter()
        .map(|p| format!("    {}", point_json(p, "    ")))
        .collect();
    // The default-load entry additionally carries the serving core's
    // own latency quantiles, snapshotted while the histogram held only
    // that point's requests: the client-side figures include generator
    // scheduling noise on a shared 1-CPU host; the server-side figures
    // are what the serving core itself delivers at that load.
    let default_load_json = {
        let body = point_json(default_point, "  ");
        let server = format!(
            ",\n    \"server_latency_us\": {{ \"p50\": {}, \"p90\": {}, \"p99\": {} }} }}",
            default_server.p50_us, default_server.p90_us, default_server.p99_us
        );
        // Strip exactly the object's closing brace (trim_end_matches
        // would also eat the inner latency_us close and corrupt the
        // JSON).
        let trimmed = body.strip_suffix(" }").expect("point object close");
        format!("{trimmed}{server}")
    };

    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"adc-server loopback service\",\n",
            "  {},\n",
            "  \"clients\": {},\n",
            "  \"samples_per_request\": {},\n",
            "  \"server_threads\": {},\n",
            "  \"saturation\": {{ \"requests\": {}, \"wall_s\": {:.4}, \"requests_per_sec\": {:.2} }},\n",
            "  \"saturation_rps\": {:.2},\n",
            "  \"default_load\": {},\n",
            "  \"load_points\": [\n{}\n  ],\n",
            "  \"requests_ok\": {},\n",
            "  \"requests_shed\": {},\n",
            "  \"client_errors\": 0,\n",
            "  \"requests_per_sec\": {:.2},\n",
            "  \"samples_per_sec\": {:.0},\n",
            "  \"client_latency_us\": {{ \"p50\": {}, \"p90\": {}, \"p99\": {} }},\n",
            "  \"server_metrics\": {{\n",
            "    \"connections\": {},\n",
            "    \"digitizes\": {},\n",
            "    \"completed\": {},\n",
            "    \"errors\": {},\n",
            "    \"coalesced\": {},\n",
            "    \"overloaded\": {},\n",
            "    \"samples_streamed\": {},\n",
            "    \"latency_us\": {{ \"p50\": {}, \"p90\": {}, \"p99\": {} }}\n",
            "  }}\n",
            "}}\n",
        ),
        adc_bench::Provenance::capture().json_entry(),
        clients,
        n_samples,
        args.threads,
        probe_done,
        probe_wall,
        saturation_rps,
        saturation_rps,
        default_load_json,
        load_points_json.join(",\n"),
        total_ok,
        total_shed,
        saturation_rps,
        saturation_rps * f64::from(n_samples),
        default_point.p50,
        default_point.p90,
        default_point.p99,
        snapshot.connections,
        snapshot.digitizes,
        snapshot.completed,
        snapshot.errors,
        snapshot.coalesced,
        snapshot.overloaded,
        snapshot.samples_streamed,
        snapshot.p50_us,
        snapshot.p90_us,
        snapshot.p99_us,
    );
    std::fs::write("BENCH_service.json", &json).expect("write BENCH_service.json");
    println!("\nwrote BENCH_service.json");
}

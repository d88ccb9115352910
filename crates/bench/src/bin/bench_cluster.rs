//! Cluster load generator, written to `BENCH_cluster.json`.
//!
//! Spins up one and then two in-process `adc-server` hosts (one worker
//! thread each) on the loopback and drives die-tone-metrics campaigns
//! through [`adc_cluster::ClusterExecutor`], measuring end-to-end
//! campaign throughput in jobs per second — protocol framing, batch
//! scheduling, remote execution, and result assembly included. Every
//! measurement window uses a fresh block of die seeds so the servers'
//! warm caches never short-circuit the compute being timed (each window
//! asserts `remote_computed == jobs`).
//!
//! Each figure is the best window of the shared minimum-time timer
//! ([`adc_bench::timing`]). The 2-host/1-host speedup is printed as an advisory
//! figure: on a single-core runner both hosts share one CPU and the
//! ratio stays near 1.0, which is exactly the case `bench_compare`'s
//! `host_cpus` provenance exemption covers.
//!
//! Workload knobs: `ADC_CLUSTER_JOBS` (jobs per window, default 8),
//! `ADC_CLUSTER_RECORD` (record length per die, default 512).

use std::time::Duration;

use adc_bench::cli::env_usize;
use adc_bench::timing::best_window;
use adc_cluster::{
    preset_index, standard_registry, ClusterCampaign, ClusterExecutor, ClusterOptions,
};
use adc_runtime::{canonical_key, CacheCodec};
use adc_server::{Preset, Server, ServerConfig, ServerHandle};

/// One host-count measurement.
struct ClusterFigure {
    name: String,
    hosts: usize,
    jobs_per_sec: f64,
    windows: usize,
}

type ServerJoin = std::thread::JoinHandle<std::io::Result<()>>;

/// Spawns one loopback host with a single worker thread, so the
/// 1-vs-2-host comparison scales servers, not threads per server.
fn spawn_host() -> (ServerHandle, ServerJoin) {
    let cfg = ServerConfig {
        threads: 1,
        job_runner: Some(standard_registry()),
        ..ServerConfig::default()
    };
    Server::spawn("127.0.0.1:0", cfg).expect("spawn loopback host")
}

/// Builds one campaign window of die-tone-metrics jobs over a fresh
/// seed block, so no server-side cache entry from a previous window can
/// answer it.
fn window_campaign(first_seed: u64, jobs: usize, record_len: usize) -> ClusterCampaign {
    let mut campaign = ClusterCampaign::new("bench-cluster", "die-tone-metrics", 0xBE7C);
    for die_seed in first_seed..first_seed + jobs as u64 {
        let config = (
            preset_index(Preset::Nominal110),
            10e6f64,
            record_len as u64,
            die_seed,
        )
            .encode();
        campaign.push_job(config, canonical_key("bench-cluster", &die_seed));
    }
    campaign
}

/// Measures best-window campaign throughput against `host_count`
/// freshly spawned servers. `next_seed` advances across calls so every
/// window (and every host count) sees cold keys.
fn bench_hosts(
    host_count: usize,
    jobs: usize,
    record_len: usize,
    next_seed: &mut u64,
) -> ClusterFigure {
    let hosts: Vec<_> = (0..host_count).map(|_| spawn_host()).collect();
    let peers: Vec<String> = hosts.iter().map(|(h, _)| h.addr().to_string()).collect();
    let executor = ClusterExecutor::new(peers, standard_registry()).options(ClusterOptions {
        window: 2,
        batch_jobs: 2,
        backoff: Duration::from_millis(5),
        io_timeout: Duration::from_secs(30),
        ..ClusterOptions::default()
    });

    let run_window = |next_seed: &mut u64| {
        let campaign = window_campaign(*next_seed, jobs, record_len);
        *next_seed += jobs as u64;
        let report = executor.execute(&campaign).expect("bench campaign");
        // Every key is cold, so every job must be computed remotely
        // this window; a cache hit or a local fallback would mean the
        // cluster compute path was not measured.
        let s = &report.stats;
        assert_eq!(
            s.remote_computed, jobs as u64,
            "window must be compute-bound, got {s:?}"
        );
    };

    // Warm up connections, code paths, and the servers' worker pools.
    run_window(next_seed);

    let best = best_window(next_seed, |_| {}, run_window);

    for (handle, join) in hosts {
        handle.shutdown();
        join.join().expect("server thread").expect("serve");
    }
    ClusterFigure {
        name: format!("hosts{host_count}"),
        hosts: host_count,
        jobs_per_sec: jobs as f64 / best.best_s,
        windows: best.windows,
    }
}

fn main() {
    adc_bench::banner(
        "Cluster executor -- distributed campaign throughput",
        "loopback 1-vs-2-host scaling of the framed job protocol (BENCH_cluster.json)",
    );

    let jobs = env_usize("ADC_CLUSTER_JOBS", 8);
    let record_len = env_usize("ADC_CLUSTER_RECORD", 512);
    let mut next_seed = 1u64;

    let figures = vec![
        bench_hosts(1, jobs, record_len, &mut next_seed),
        bench_hosts(2, jobs, record_len, &mut next_seed),
    ];
    for f in &figures {
        println!(
            "cluster {:<8} {:>10.1} jobs/sec  (best of {} windows of {} jobs, record {})",
            f.name, f.jobs_per_sec, f.windows, jobs, record_len
        );
    }

    let speedup = figures[1].jobs_per_sec / figures[0].jobs_per_sec.max(1e-12);
    println!(
        "2-host speedup: {speedup:.2}x (advisory; near 1.0x is expected when both \
         hosts share one CPU -- see the host_cpus exemption in bench_compare)"
    );

    let rows: Vec<String> = figures
        .iter()
        .map(|f| {
            format!(
                "    {{ \"name\": \"{}\", \"hosts\": {}, \"jobs_per_sec\": {:.1}, \"windows\": {} }}",
                f.name, f.hosts, f.jobs_per_sec, f.windows
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"cluster distributed campaign throughput\",\n  {},\n  \"jobs_per_window\": {},\n  \"record_len\": {},\n  \"speedup_2v1\": {:.3},\n  \"cluster\": [\n{}\n  ]\n}}\n",
        adc_bench::Provenance::capture().json_entry(),
        jobs,
        record_len,
        speedup,
        rows.join(",\n"),
    );
    std::fs::write("BENCH_cluster.json", &json).expect("write BENCH_cluster.json");
    println!("\nwrote BENCH_cluster.json");
}

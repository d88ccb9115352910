//! Cluster end-to-end properties: a distributed campaign is
//! bit-identical to an in-process one at any host count, under host
//! loss mid-campaign, and with pre-warmed remote caches.

use std::sync::Arc;
use std::time::Duration;

use adc_cluster::{
    assemble_monte_carlo, monte_carlo_campaign, probe_mix_config, standard_registry,
    ClusterCampaign, ClusterExecutor, ClusterOptions, ClusterStats,
};
use adc_pipeline::config::AdcConfig;
use adc_runtime::{canonical_key, ResultCache};
use adc_server::{Preset, Server, ServerConfig, ServerHandle};
use adc_testbench::{monte_carlo_plan, run_monte_carlo_with, RunPolicy};

type ServerJoin = std::thread::JoinHandle<std::io::Result<()>>;

fn spawn_host(cache_dir: Option<std::path::PathBuf>) -> (ServerHandle, ServerJoin) {
    let cfg = ServerConfig {
        job_runner: Some(standard_registry()),
        cache_dir,
        ..ServerConfig::default()
    };
    Server::spawn("127.0.0.1:0", cfg).expect("spawn host")
}

fn drain(handle: ServerHandle, join: ServerJoin) {
    handle.shutdown();
    join.join().expect("server thread").expect("serve");
}

/// Small options that force real scheduling: single-job batches, short
/// windows, fast backoff.
fn tight_options() -> ClusterOptions {
    ClusterOptions {
        window: 2,
        batch_jobs: 2,
        backoff: Duration::from_millis(5),
        io_timeout: Duration::from_secs(10),
        ..ClusterOptions::default()
    }
}

/// Every job resolves exactly one way: computed or cached on a host,
/// or answered or computed locally.
fn assert_every_job_counted_once(s: &ClusterStats, what: &str) {
    assert_eq!(
        s.remote_computed + s.remote_cached + s.local_cache_hits + s.local_computed,
        s.jobs,
        "every job accounted for once in the {what}: {s:?}"
    );
}

fn probe_campaign(jobs: u64) -> ClusterCampaign {
    let mut campaign = ClusterCampaign::new("probe-e2e", "probe-mix", 4242);
    for a in 0..jobs {
        campaign.push_job(probe_mix_config(a, 9), canonical_key("probe-e2e", &a));
    }
    campaign
}

#[test]
fn distributed_results_are_bit_identical_at_1_2_3_hosts() {
    let campaign = probe_campaign(25);
    let reference = ClusterExecutor::new(Vec::new(), standard_registry())
        .execute(&campaign)
        .expect("in-process reference");

    for host_count in 1..=3usize {
        let hosts: Vec<_> = (0..host_count).map(|_| spawn_host(None)).collect();
        let peers: Vec<String> = hosts.iter().map(|(h, _)| h.addr().to_string()).collect();
        let report = ClusterExecutor::new(peers, standard_registry())
            .options(tight_options())
            .execute(&campaign)
            .unwrap_or_else(|e| panic!("{host_count}-host run: {e}"));
        assert_eq!(
            report.lines, reference.lines,
            "{host_count}-host schedule changed the bits"
        );
        assert_eq!(report.stats.jobs, 25);
        assert_every_job_counted_once(&report.stats, &format!("{host_count}-host run"));
        for (handle, join) in hosts {
            drain(handle, join);
        }
    }
}

#[test]
fn monte_carlo_over_two_hosts_matches_in_process_and_merges_caches() {
    let config = AdcConfig::nominal_110ms();
    let plan = monte_carlo_plan(&config, 6, 10e6, 512);
    let campaign = monte_carlo_campaign(Preset::Nominal110, &plan);
    let reference = run_monte_carlo_with(&config, 6, 10e6, 512, &RunPolicy::serial()).expect("ref");

    let hosts: Vec<_> = (0..2).map(|_| spawn_host(None)).collect();
    let peers: Vec<String> = hosts.iter().map(|(h, _)| h.addr().to_string()).collect();
    let local_cache = Arc::new(ResultCache::in_memory());
    let report = ClusterExecutor::new(peers.clone(), standard_registry())
        .options(tight_options())
        .cached(Arc::clone(&local_cache))
        .execute(&campaign)
        .expect("distributed MC");
    let distributed = assemble_monte_carlo(&report.lines).expect("assemble");
    assert_eq!(distributed, reference, "2-host MC diverged from in-process");

    // The distributed run warmed the local cache in the *shared*
    // canonical namespace: a subsequent in-process cached run computes
    // nothing and reproduces the same result.
    let cached_policy = RunPolicy::serial().cached(Arc::clone(&local_cache));
    let warm = run_monte_carlo_with(&config, 6, 10e6, 512, &cached_policy).expect("warm");
    assert_eq!(warm, reference, "cache-satisfied rerun diverged");

    // And the hosts' warm caches answer a fresh executor without any
    // recompute: every job resolves as an in-batch cached hit.
    let rerun = ClusterExecutor::new(peers, standard_registry())
        .options(tight_options())
        .execute(&campaign)
        .expect("rerun");
    assert_eq!(rerun.lines, report.lines);
    assert_eq!(
        rerun.stats.remote_cached, 6,
        "rerun should be all warm-cache hits, got {:?}",
        rerun.stats
    );
    assert_eq!(rerun.stats.remote_computed, 0);

    for (handle, join) in hosts {
        drain(handle, join);
    }
}

#[test]
fn killing_a_host_mid_campaign_keeps_results_bit_identical() {
    let config = AdcConfig::nominal_110ms();
    let plan = monte_carlo_plan(&config, 10, 10e6, 1024);
    let campaign = monte_carlo_campaign(Preset::Nominal110, &plan);
    let reference =
        run_monte_carlo_with(&config, 10, 10e6, 1024, &RunPolicy::serial()).expect("ref");

    let (handle_a, join_a) = spawn_host(None);
    let (handle_b, join_b) = spawn_host(None);
    let peers = vec![handle_a.addr().to_string(), handle_b.addr().to_string()];

    let killer = {
        let handle_a = handle_a.clone();
        std::thread::spawn(move || {
            // Let the campaign get going, then take host A down. Its
            // in-flight batches either drain (graceful) or come back
            // `Rejected`; either way the executor resubmits the work
            // to host B or runs it locally.
            std::thread::sleep(Duration::from_millis(40));
            handle_a.shutdown();
        })
    };

    let report = ClusterExecutor::new(peers, standard_registry())
        .options(ClusterOptions {
            window: 1,
            batch_jobs: 1,
            backoff: Duration::from_millis(5),
            ..ClusterOptions::default()
        })
        .execute(&campaign)
        .expect("campaign survives host loss");
    killer.join().expect("killer thread");

    let distributed = assemble_monte_carlo(&report.lines).expect("assemble");
    assert_eq!(
        distributed, reference,
        "host loss mid-campaign changed the bits"
    );
    assert_every_job_counted_once(&report.stats, "host-kill run");

    join_a.join().expect("host A thread").expect("serve A");
    drain(handle_b, join_b);
}

#[test]
fn pre_warmed_disk_cache_survives_a_host_restart() {
    let dir = std::env::temp_dir().join("adc_cluster_disk_cache_e2e");
    let _ = std::fs::remove_dir_all(&dir);
    let campaign = probe_campaign(8);

    // First host generation computes and persists.
    let (handle, join) = spawn_host(Some(dir.clone()));
    let first = ClusterExecutor::new(vec![handle.addr().to_string()], standard_registry())
        .options(tight_options())
        .execute(&campaign)
        .expect("first generation");
    assert_eq!(first.stats.remote_computed, 8);
    assert_every_job_counted_once(&first.stats, "first generation");
    drain(handle, join);

    // Second generation restarts over the same directory: the campaign
    // is answered from the preloaded warm cache, bit-identically.
    let (handle, join) = spawn_host(Some(dir.clone()));
    let second = ClusterExecutor::new(vec![handle.addr().to_string()], standard_registry())
        .options(tight_options())
        .execute(&campaign)
        .expect("second generation");
    assert_eq!(second.lines, first.lines);
    assert_eq!(second.stats.remote_computed, 0, "{:?}", second.stats);
    assert_eq!(second.stats.remote_cached, 8, "{:?}", second.stats);
    assert_every_job_counted_once(&second.stats, "second generation");
    drain(handle, join);
    let _ = std::fs::remove_dir_all(&dir);
}

//! Cluster gate (ci.sh `cluster` stage): a campaign distributed over
//! two real loopback `adc-server` hosts produces a digest bit-identical
//! to the same campaign executed in-process, and the assembled
//! Monte-Carlo statistics match the `adc-testbench` reference path.
//!
//! This is the release-mode wall-clock-guarded rerun of the invariants
//! the `adc-cluster` crate tests own; like the `service` suite it
//! exercises real TCP sockets, so CI runs it under a hard timeout.

use std::time::Duration;

use adc_cluster::{
    assemble_monte_carlo, monte_carlo_campaign, probe_mix_config, standard_registry,
    ClusterCampaign, ClusterExecutor, ClusterOptions,
};
use adc_pipeline::config::AdcConfig;
use adc_runtime::canonical_key;
use adc_server::{Preset, Server, ServerConfig, ServerHandle};
use adc_testbench::{monte_carlo_plan, run_monte_carlo_with, RunPolicy};

type ServerJoin = std::thread::JoinHandle<std::io::Result<()>>;

fn spawn_host() -> (ServerHandle, ServerJoin) {
    let cfg = ServerConfig {
        job_runner: Some(standard_registry()),
        ..ServerConfig::default()
    };
    Server::spawn("127.0.0.1:0", cfg).expect("spawn loopback host")
}

fn spawn_pair() -> (Vec<(ServerHandle, ServerJoin)>, Vec<String>) {
    let hosts: Vec<_> = (0..2).map(|_| spawn_host()).collect();
    let peers = hosts.iter().map(|(h, _)| h.addr().to_string()).collect();
    (hosts, peers)
}

fn drain_all(hosts: Vec<(ServerHandle, ServerJoin)>) {
    for (handle, join) in hosts {
        handle.shutdown();
        join.join().expect("server thread").expect("serve");
    }
}

fn tight_options() -> ClusterOptions {
    ClusterOptions {
        batch_jobs: 2,
        backoff: Duration::from_millis(5),
    }
}

/// One order-independent content digest over a campaign's result lines
/// (they are id-indexed, so order is part of the contract too).
fn digest(lines: &[String]) -> u64 {
    canonical_key("cluster-digest", &lines)
}

#[test]
fn distributed_probe_campaign_digest_matches_in_process() {
    let mut campaign = ClusterCampaign::new("probe-ci", "probe-mix", 77);
    for a in 0..16u64 {
        campaign.push_job(probe_mix_config(a, 3), canonical_key("probe-ci", &a));
    }

    let local = ClusterExecutor::new(Vec::new(), standard_registry())
        .execute(&campaign)
        .expect("in-process run");

    let (hosts, peers) = spawn_pair();
    let distributed = ClusterExecutor::new(peers, standard_registry())
        .options(tight_options())
        .execute(&campaign)
        .expect("2-host run");
    drain_all(hosts);

    assert_eq!(
        digest(&distributed.lines),
        digest(&local.lines),
        "distributed digest diverged from local"
    );
    assert_eq!(distributed.lines, local.lines);
    assert_eq!(
        distributed.stats.local_computed, 0,
        "{:?}",
        distributed.stats
    );
}

#[test]
fn distributed_monte_carlo_matches_the_testbench_reference() {
    let config = AdcConfig::nominal_110ms();
    let plan = monte_carlo_plan(&config, 4, 10e6, 512);
    let campaign = monte_carlo_campaign(Preset::Nominal110, &plan);
    let reference =
        run_monte_carlo_with(&config, 4, 10e6, 512, &RunPolicy::serial()).expect("reference");

    let (hosts, peers) = spawn_pair();
    let report = ClusterExecutor::new(peers, standard_registry())
        .options(tight_options())
        .execute(&campaign)
        .expect("distributed MC");
    drain_all(hosts);

    let assembled = assemble_monte_carlo(&report.lines).expect("assemble");
    assert_eq!(assembled, reference, "distributed MC diverged");
}

//! Extension experiment: Monte-Carlo yield of the design across process
//! spread — the analysis behind shipping the paper's converter as an IP
//! block.
//!
//! This campaign distributes: pass `--peers HOST:PORT,...` (or
//! `ADC_PEERS`) to farm the per-die jobs to remote `adc-server` hosts
//! through `adc-cluster`. The assembled result is bit-identical to the
//! in-process run — same per-die seeds, same cache namespace — and a
//! distributed run warms the same `--cache-dir` point cache a later
//! local run reads.

use adc_cluster::{assemble_monte_carlo, monte_carlo_campaign, standard_registry, ClusterExecutor};
use adc_pipeline::config::AdcConfig;
use adc_server::Preset;
use adc_testbench::montecarlo::{monte_carlo_plan, run_monte_carlo_with, YieldSpec};
use adc_testbench::report::TextTable;

fn main() {
    adc_bench::banner(
        "Extension -- Monte-Carlo yield across 32 dies",
        "process spread of Table I metrics; spec: SNDR>=62dB, SFDR>=65dB, P<=115mW",
    );

    let (args, policy, _trace) = adc_bench::campaign_setup();
    let config = AdcConfig::nominal_110ms();
    let mc = if args.peers.is_empty() {
        run_monte_carlo_with(&config, 32, 10e6, 4096, &policy).expect("campaign runs")
    } else {
        eprintln!("distributing 32 dies to peers: {}", args.peers.join(", "));
        let plan = monte_carlo_plan(&config, 32, 10e6, 4096);
        let campaign = monte_carlo_campaign(Preset::Nominal110, &plan);
        let mut executor = ClusterExecutor::new(args.peers.clone(), standard_registry());
        if let Some(cache) = &policy.cache {
            executor = executor.cached(std::sync::Arc::clone(cache));
        }
        let report = executor.execute(&campaign).expect("distributed campaign");
        eprintln!(
            "cluster: {} remote_computed, {} remote_cached, {} local_cache_hits, \
             {} local_computed, {} host(s) lost",
            report.stats.remote_computed,
            report.stats.remote_cached,
            report.stats.local_cache_hits,
            report.stats.local_computed,
            report.stats.hosts_lost,
        );
        assemble_monte_carlo(&report.lines).expect("assemble distributed result")
    };

    let mut table = TextTable::new(["metric", "min", "mean", "max", "sigma"]);
    let fmt = |v: f64| format!("{v:.2}");
    for (name, s) in [
        ("SNR (dB)", mc.snr),
        ("SNDR (dB)", mc.sndr),
        ("SFDR (dB)", mc.sfdr),
        ("ENOB (bit)", mc.enob),
    ] {
        table.push_row([
            name.to_string(),
            fmt(s.min),
            fmt(s.mean),
            fmt(s.max),
            fmt(s.sigma),
        ]);
    }
    table.push_row([
        "power (mW)".to_string(),
        fmt(mc.power.min * 1e3),
        fmt(mc.power.mean * 1e3),
        fmt(mc.power.max * 1e3),
        fmt(mc.power.sigma * 1e3),
    ]);
    println!("\n{}", table.render());

    let spec = YieldSpec::paper_with_margin();
    println!(
        "yield vs margin spec: {:.0}%",
        mc.yield_against(&spec) * 100.0
    );
    for die in mc.failures(&spec) {
        println!(
            "  fail: seed {} (SNDR {:.1}, SFDR {:.1}, {:.1} mW)",
            die.seed,
            die.sndr_db,
            die.sfdr_db,
            die.power_w * 1e3
        );
    }
    println!("\nnote the power spread: it follows the absolute metal-capacitor");
    println!("spread through Eq. 1 — the price of the corner-tracking bias.");
}

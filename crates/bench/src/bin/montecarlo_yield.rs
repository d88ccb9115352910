//! Prints the Monte-Carlo yield section of EXPERIMENTS.md and exits 1
//! when its claims fail. `--peers HOST:PORT,...` (or `ADC_PEERS`) farms
//! the per-die jobs to remote `adc-server` hosts through `adc-cluster`;
//! the assembled result is bit-identical to the in-process run (same
//! per-die seeds, same `--cache-dir` cache namespace).

use adc_cluster::{assemble_monte_carlo, monte_carlo_campaign, standard_registry, ClusterExecutor};
use adc_server::Preset;
use adc_testbench::experiments::{run_monte_carlo_yield, yield_plan, Section, YieldResult};

fn main() {
    let (args, policy, _trace) = adc_bench::campaign_setup();
    let result: YieldResult = if args.peers.is_empty() {
        run_monte_carlo_yield(&policy).expect("campaign runs")
    } else {
        let plan = yield_plan();
        let (dies, peers) = (plan.die_seeds.len(), args.peers.join(", "));
        eprintln!("distributing {dies} dies to peers: {peers}");
        let campaign = monte_carlo_campaign(Preset::Nominal110, &plan);
        let mut executor = ClusterExecutor::new(args.peers.clone(), standard_registry());
        if let Some(cache) = &policy.cache {
            executor = executor.cached(std::sync::Arc::clone(cache));
        }
        let report = executor.execute(&campaign).expect("distributed campaign");
        eprintln!("cluster: {:?}", report.stats);
        let mc = assemble_monte_carlo(&report.lines).expect("assemble distributed result");
        YieldResult { mc }
    };
    let section = Section::new("montecarlo_yield", result.claims_hold(), result.render());
    println!("{}", section.marked());
    if !section.claims_hold {
        std::process::exit(1);
    }
}

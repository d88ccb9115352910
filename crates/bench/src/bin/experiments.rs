//! Regenerates every published result of the reproduction: Table I,
//! Figs. 4, 5, 6 and 8, the five design-claim ablations and the six
//! extension experiments, each printed as the marked block EXPERIMENTS.md
//! holds (`tests/end_to_end.rs` fails when the file and this output
//! differ). Exits 1 when a paper claim fails.

use adc_testbench::experiments::publish;

fn main() {
    let (args, policy, _trace) = adc_bench::campaign_setup();
    adc_bench::warn_ignored_peers(&args);
    let sections = publish(&policy).expect("published results run");
    for s in &sections {
        println!("{}", s.marked());
    }
    if sections.iter().any(|s| !s.claims_hold) {
        std::process::exit(1);
    }
}

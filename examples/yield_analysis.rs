//! IP-vendor scenario: will the design yield in production?
//!
//! Fabricates a population of dies, looks at the spread of the Table I
//! metrics, and screens against a shippable specification.
//!
//! Run with: `cargo run --release --example yield_analysis`

use pipeline_adc::pipeline::AdcConfig;
use pipeline_adc::testbench::montecarlo::{run_monte_carlo_with, YieldSpec};
use pipeline_adc::testbench::RunPolicy;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("fabricating and measuring 24 dies at 110 MS/s, fin = 10 MHz...\n");
    let policy = RunPolicy::default();
    let mc = run_monte_carlo_with(&AdcConfig::nominal_110ms(), 24, 10e6, 4096, &policy)?;

    println!("          min     mean    max     sigma");
    println!(
        "SNR    {:7.1} {:7.1} {:7.1} {:7.2}  dB",
        mc.snr.min, mc.snr.mean, mc.snr.max, mc.snr.sigma
    );
    println!(
        "SNDR   {:7.1} {:7.1} {:7.1} {:7.2}  dB",
        mc.sndr.min, mc.sndr.mean, mc.sndr.max, mc.sndr.sigma
    );
    println!(
        "SFDR   {:7.1} {:7.1} {:7.1} {:7.2}  dB",
        mc.sfdr.min, mc.sfdr.mean, mc.sfdr.max, mc.sfdr.sigma
    );
    println!(
        "ENOB   {:7.2} {:7.2} {:7.2} {:7.2}  bit",
        mc.enob.min, mc.enob.mean, mc.enob.max, mc.enob.sigma
    );
    println!(
        "power  {:7.1} {:7.1} {:7.1} {:7.2}  mW",
        mc.power.min * 1e3,
        mc.power.mean * 1e3,
        mc.power.max * 1e3,
        mc.power.sigma * 1e3
    );

    let spec = YieldSpec::paper_with_margin();
    println!(
        "\nyield vs shippable spec (SNDR>=62, SFDR>=65, P<=115mW): {:.0}%",
        mc.yield_against(&spec) * 100.0
    );
    let failures: Vec<_> = mc.failures(&spec).collect();
    if failures.is_empty() {
        println!("no failing dies in this population.");
    } else {
        for die in failures {
            println!(
                "failing die seed {}: SNDR {:.1} dB, SFDR {:.1} dB, {:.1} mW",
                die.seed,
                die.sndr_db,
                die.sfdr_db,
                die.power_w * 1e3
            );
        }
    }
    Ok(())
}

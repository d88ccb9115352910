//! # adc-bench
//!
//! Benchmark harness of the reproduction: the `experiments` binary that
//! regenerates every published result, the `bench_*` binaries that time
//! the simulator itself into the committed `BENCH_*.json` reports, all
//! through one best-window timer ([`timing::best_window`]), and the
//! operational tools.
//!
//! Regeneration targets:
//!
//! | target | reproduces |
//! |---|---|
//! | `experiments` | Table I, Figs. 4, 5, 6 and 8, the §2–§4 ablations (SC bias, clocking, stage scaling, switch topology, SHA-less front end) and the six extension experiments, as the marked blocks of EXPERIMENTS.md |
//! | `montecarlo_yield` | the Monte-Carlo yield block, in-process or over `--peers` |
//! | `export_csv` | the Fig. 4, 5, 6 and 8 series as CSV |
//! | `ab` | same-path A/B runs of the benchmark in `BENCHMARK.json` |
//!
//! Run one with `cargo run -p adc-bench --release --bin <target>`.
//! Each published result is defined once, in
//! `adc_testbench::experiments`: no published sweep or claim arithmetic
//! lives in this crate.
//!
//! The campaign binaries execute through the `adc-runtime` engine and
//! share one command line (see [`cli::CampaignArgs`]): `--threads N` /
//! `ADC_THREADS=n` pins the worker count (default: all cores, results
//! are bit-identical either way) and `--cache-dir PATH` /
//! `ADC_CACHE_DIR=path` persists a content-hash point cache so
//! re-running a figure recomputes only changed points (empty disables;
//! default `target/campaign-cache`).

pub mod cli;
pub mod provenance;
pub mod timing;

use adc_testbench::RunPolicy;

pub use cli::{CampaignArgs, TraceSession};
pub use provenance::Provenance;

/// Prints the standard banner for a regeneration binary.
pub fn banner(experiment: &str, paper_ref: &str) {
    println!("================================================================");
    println!("{experiment}");
    println!("reproduces: {paper_ref}");
    println!("die: golden seed {}", adc_testbench::GOLDEN_SEED);
    println!("================================================================");
}

/// The standard setup of a campaign binary: parses the shared command
/// line and environment ([`CampaignArgs::parse`]) and returns the
/// parsed knobs, the execution policy (worker threads, progress
/// narration on stderr, disk point cache), and the tracing session
/// (`--trace-out`). Keep the [`TraceSession`] alive until the campaign
/// finishes — dropping it writes the trace file and prints the profile
/// summary. Binaries that support distribution read `args.peers`;
/// the rest call [`warn_ignored_peers`].
pub fn campaign_setup() -> (CampaignArgs, RunPolicy, TraceSession) {
    let args = CampaignArgs::parse();
    let trace = args.trace_session();
    let policy = args.policy();
    (args, policy, trace)
}

/// Tells the user their `--peers` will not be used: this binary's
/// campaign runs in-process only.
pub fn warn_ignored_peers(args: &CampaignArgs) {
    if !args.peers.is_empty() {
        eprintln!(
            "note: this campaign does not distribute; ignoring --peers {}",
            args.peers.join(",")
        );
    }
}

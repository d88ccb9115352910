//! Benchmarks the `adc-runtime` campaign engine: serial versus parallel
//! versus warm-cache wall time on the workloads the engine was built
//! for, written to `BENCH_runtime.json`.
//!
//! Two campaigns, each timed three ways:
//!
//! * `serial` — 1 worker thread, no cache (the pre-runtime baseline);
//! * `parallel` — all cores (`ADC_THREADS` overrides), no cache;
//! * `warm_cache` — all cores with a pre-populated content-hash point
//!   cache (the figure-regeneration path when points are unchanged).
//!
//! The campaigns: a 16-die Monte-Carlo yield run (4096-point records)
//! and the Fig. 5 rate sweep (9 points, 8192-point records). All runs
//! are asserted bit-identical before timings are reported — the speedup
//! is free of any result drift. The parallel speedup scales with host
//! cores (a 1-core container pins it at ~1x); the warm-cache speedup
//! does not depend on core count.

use std::sync::Arc;
use std::time::Instant;

use adc_pipeline::config::AdcConfig;
use adc_runtime::{default_threads, CollectingObserver, ResultCache};
use adc_testbench::montecarlo::{run_monte_carlo_with, MonteCarloResult};
use adc_testbench::sweep::{DynamicPoint, SweepRunner};
use adc_testbench::RunPolicy;

struct Timing {
    wall_s: f64,
    samples_per_sec: f64,
    threads: usize,
}

fn timed<T>(policy: RunPolicy, run: &impl Fn(RunPolicy) -> T) -> (T, Timing) {
    let observer = Arc::new(CollectingObserver::default());
    let threads = if policy.threads == 0 {
        default_threads()
    } else {
        policy.threads
    };
    let policy = policy.observe(observer.clone());
    let start = Instant::now();
    let value = run(policy);
    let wall_s = start.elapsed().as_secs_f64();
    let summaries = observer.summaries.lock().expect("observer lock");
    let samples: u64 = summaries.iter().map(|s| s.samples).sum();
    (
        value,
        Timing {
            wall_s,
            samples_per_sec: samples as f64 / wall_s.max(1e-12),
            threads,
        },
    )
}

struct CampaignBench {
    name: &'static str,
    jobs: usize,
    serial: Timing,
    parallel: Timing,
    warm_cache: Timing,
}

impl CampaignBench {
    /// Times one campaign serial / parallel / warm-cache and asserts all
    /// three produce identical results.
    fn measure<T: PartialEq + std::fmt::Debug>(
        name: &'static str,
        jobs: usize,
        threads: usize,
        run: impl Fn(RunPolicy) -> T,
    ) -> Self {
        let (serial_result, serial) = timed(RunPolicy::serial(), &run);
        let (parallel_result, parallel) = timed(RunPolicy::parallel(threads), &run);
        assert_eq!(
            serial_result, parallel_result,
            "thread determinism violated"
        );
        let cache = Arc::new(ResultCache::in_memory());
        let (_, _) = timed(
            RunPolicy::parallel(threads).cached(Arc::clone(&cache)),
            &run,
        );
        let (warm_result, warm_cache) = timed(RunPolicy::parallel(threads).cached(cache), &run);
        assert_eq!(serial_result, warm_result, "cache determinism violated");
        Self {
            name,
            jobs,
            serial,
            parallel,
            warm_cache,
        }
    }

    fn parallel_speedup(&self) -> f64 {
        self.serial.wall_s / self.parallel.wall_s.max(1e-12)
    }

    fn cache_speedup(&self) -> f64 {
        self.serial.wall_s / self.warm_cache.wall_s.max(1e-12)
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "    {{\n",
                "      \"name\": \"{}\",\n",
                "      \"jobs\": {},\n",
                "      \"serial\": {{ \"wall_s\": {:.4}, \"samples_per_sec\": {:.0} }},\n",
                "      \"parallel\": {{ \"wall_s\": {:.4}, \"samples_per_sec\": {:.0}, \"threads\": {} }},\n",
                "      \"warm_cache\": {{ \"wall_s\": {:.4}, \"threads\": {} }},\n",
                "      \"parallel_speedup\": {:.2},\n",
                "      \"cache_speedup\": {:.2}\n",
                "    }}"
            ),
            self.name,
            self.jobs,
            self.serial.wall_s,
            self.serial.samples_per_sec,
            self.parallel.wall_s,
            self.parallel.samples_per_sec,
            self.parallel.threads,
            self.warm_cache.wall_s,
            self.warm_cache.threads,
            self.parallel_speedup(),
            self.cache_speedup(),
        )
    }
}

fn bench_montecarlo(threads: usize) -> CampaignBench {
    const DIES: usize = 16;
    let config = AdcConfig::nominal_110ms();
    CampaignBench::measure(
        "montecarlo_yield_16die",
        DIES,
        threads,
        move |policy: RunPolicy| -> MonteCarloResult {
            run_monte_carlo_with(&config, DIES, 10e6, 4096, &policy).expect("campaign runs")
        },
    )
}

fn bench_fig5_sweep(threads: usize) -> CampaignBench {
    let rates: Vec<f64> = [20.0, 40.0, 60.0, 80.0, 100.0, 110.0, 120.0, 140.0, 200.0]
        .iter()
        .map(|m| m * 1e6)
        .collect();
    let jobs = rates.len();
    CampaignBench::measure(
        "fig5_rate_sweep",
        jobs,
        threads,
        move |policy: RunPolicy| -> Vec<DynamicPoint> {
            let runner = SweepRunner {
                policy,
                ..SweepRunner::nominal()
            };
            runner.rate_sweep(&rates, 10e6).expect("all rates build")
        },
    )
}

fn main() {
    let args = adc_bench::CampaignArgs::parse();
    let threads = if args.threads == 0 {
        default_threads()
    } else {
        args.threads
    };
    adc_bench::banner(
        "Runtime -- serial vs parallel vs warm-cache campaign execution",
        "adc-runtime engine benchmark (results asserted bit-identical)",
    );
    println!(
        "host cores: {}, parallel worker threads: {threads}\n",
        default_threads()
    );

    let benches = [bench_montecarlo(threads), bench_fig5_sweep(threads)];
    for b in &benches {
        println!(
            "{:<24} {:2} jobs: serial {:.2}s | parallel {:.2}s ({:.2}x on {} threads) | warm cache {:.3}s ({:.0}x)",
            b.name,
            b.jobs,
            b.serial.wall_s,
            b.parallel.wall_s,
            b.parallel_speedup(),
            b.parallel.threads,
            b.warm_cache.wall_s,
            b.cache_speedup(),
        );
    }

    let body: Vec<String> = benches.iter().map(CampaignBench::to_json).collect();
    let json = format!(
        "{{\n  \"benchmark\": \"adc-runtime campaign engine\",\n  {},\n  \"threads_parallel\": {},\n  \"campaigns\": [\n{}\n  ]\n}}\n",
        adc_bench::Provenance::capture().json_entry(),
        threads,
        body.join(",\n"),
    );
    std::fs::write("BENCH_runtime.json", &json).expect("write BENCH_runtime.json");
    println!("\nwrote BENCH_runtime.json");
}

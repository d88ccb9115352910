//! Metric names, units and the result line.
//!
//! These lists are the benchmark's contract with `BENCHMARK.json`; a
//! test holds the two equal.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms.low", "ms"),
    ("p90_ms.low", "ms"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer a workload does not exercise reads 0. The first six are
/// end-to-end figures — throughput, the `low` p99 and the `high` load
/// point — whose run-to-run spread on a shared host exceeds any bound a
/// regression gate could hold, so they are measured (untraced) inside
/// the traced run and carry no bound.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("capacity_rps", "1/s"),
    ("campaign_s", "s"),
    ("p99_ms.low", "ms"),
    ("p50_ms.high", "ms"),
    ("p99_ms.high", "ms"),
    ("within_slo.high", "frac"),
    ("pipeline.convert_ns_per_sample", "ns"),
    ("pipeline.lanes_ns_per_sample", "ns"),
    ("server.coalesced_frac", "frac"),
    ("testbench.fabricate_us", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.bytes_per_req", "bytes"),
    ("server.p50_us", "us"),
    ("server.p99_us", "us"),
    ("server.wait_us", "us"),
    ("client.residual_us", "us"),
    ("server.shed", "count"),
    ("server.errors", "count"),
    ("spectral.analyze_us", "us"),
    ("spectral.fft_us", "us"),
    ("calib.ganged_capture_ms", "ms"),
    ("runtime.busy_s", "s"),
    ("runtime.overhead_s", "s"),
    ("runtime.cache_hit_frac", "frac"),
    ("runtime.warm_s", "s"),
    ("gen.late_p99_us", "us"),
    ("trace.overhead_frac", "frac"),
    ("trace.residual_us", "us"),
    ("failed_frac", "frac"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted (requests, or campaign jobs and checks).
    pub attempted: u64,
    /// Attempted operations that failed: shed, errored, timed out or
    /// mismatched.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Run {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Counts `n` attempted operations, `failed` of them failed.
    pub fn count(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Share of attempted operations that failed.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The result line: every metric of the chosen list, in list order.
///
/// # Errors
///
/// Names a metric the run did not measure, or measured as a
/// non-finite number.
pub fn line(run: &Run, traced: bool) -> Result<String, String> {
    let list = if traced { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(list.len());
    for &(name, unit) in list {
        let value = if name == "failed_frac" {
            run.failed_frac()
        } else {
            *run.values
                .get(name)
                .ok_or(format!("metric {name} was not measured"))?
        };
        if !value.is_finite() {
            return Err(format!("metric {name} measured {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed == 0 && run.attempted > 0,
        run.attempted.max(1),
        run.failed,
        metrics.join(", ")
    ))
}

/// Peak resident set size of this process, mebibytes (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adc_trace::json::{parse, Json};

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect("string field");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    fn printed(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        assert_eq!(printed(END_TO_END), declared("end_to_end"));
        assert_eq!(printed(PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn the_result_line_carries_every_metric_with_its_unit() {
        let mut run = Run::default();
        run.count(10, 0);
        for &(name, _) in END_TO_END {
            run.set(name, 1.25);
        }
        let text = line(&run, false).expect("complete run");
        let doc = parse(&text).expect("the line is JSON");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        for &(name, unit) in END_TO_END {
            let m = doc
                .get("metrics")
                .and_then(|m| m.get(name))
                .expect("metric");
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
            assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.25));
        }
    }

    #[test]
    fn a_missing_metric_is_an_error_and_a_failure_is_incorrect() {
        let mut run = Run::default();
        run.count(4, 1);
        assert!(line(&run, false).is_err());
        for &(name, _) in END_TO_END {
            run.set(name, 2.0);
        }
        let doc = parse(&line(&run, false).unwrap()).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(1.0));
    }
}

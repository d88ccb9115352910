//! The per-layer table: mean self times of the benchmark's own spans
//! under a root span, which add up to the root's mean duration.
//!
//! Only spans the benchmark opens count. Spans the program opens on
//! the same thread (`record`, `fft`, `analyze_tone`, ...) stay in the
//! Chrome trace but do not split a layer, so every nanosecond of a
//! root span lands in exactly one row or in `residual_us`.

use std::fmt::Write as _;
use std::time::Instant;

use adc_pipeline::config::AdcConfig;
use adc_testbench::{DcSource, LaneBench, MeasurementSession};

use adc_trace::{EventKind, Trace};

/// One row: a layer's self time per root span, microseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Span name.
    pub name: &'static str,
    /// Calls under a root span.
    pub calls: u64,
    /// Self time summed over calls, divided by the root count.
    pub mean_self_us: f64,
}

/// The table for one root span name.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// The root span name.
    pub root: &'static str,
    /// Root spans seen.
    pub roots: u64,
    /// Mean root duration, microseconds.
    pub e2e_mean_us: f64,
    /// Layers, in the order asked for.
    pub rows: Vec<Row>,
    /// Root time no layer covers: `e2e_mean_us` minus the rows' sum.
    pub residual_us: f64,
}

impl Table {
    /// A layer's mean self time per root span (0 when absent).
    pub fn self_us(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.mean_self_us)
    }

    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<24} {:>9} {:>14}\n",
            format!("{} (x{})", self.root, self.roots),
            "calls",
            "mean_self_us"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<24} {:>9} {:>14.3}",
                r.name, r.calls, r.mean_self_us
            );
        }
        let _ = writeln!(
            out,
            "{:<24} {:>9} {:>14.3}",
            "residual_us", "", self.residual_us
        );
        let _ = writeln!(
            out,
            "{:<24} {:>9} {:>14.3}",
            "end_to_end_mean_us", "", self.e2e_mean_us
        );
        out
    }
}

/// Self-time table of `layers` under `root` across every lane of
/// `trace`. A layer span outside any root span is ignored.
pub fn table(trace: &Trace, root: &'static str, layers: &[&'static str]) -> Table {
    let mut self_ns = vec![0u64; layers.len()];
    let mut calls = vec![0u64; layers.len()];
    let mut roots = 0u64;
    let mut root_ns = 0u64;
    for lane in &trace.lanes {
        // Open benchmark spans: (layer index or None for root, begin,
        // time covered by benchmark children).
        let mut stack: Vec<(Option<usize>, u64, u64)> = Vec::new();
        for e in lane {
            let slot = if e.name == root {
                Some(None)
            } else {
                layers.iter().position(|&l| l == e.name).map(Some)
            };
            let Some(slot) = slot else { continue };
            match e.kind {
                EventKind::Begin => stack.push((slot, e.ts_ns, 0)),
                EventKind::End => {
                    let Some((open, begin, children)) = stack.pop() else {
                        continue;
                    };
                    let dur = e.ts_ns.saturating_sub(begin);
                    let in_root = stack.iter().any(|s| s.0.is_none());
                    match open {
                        None => {
                            roots += 1;
                            root_ns += dur;
                        }
                        Some(i) if in_root => {
                            calls[i] += 1;
                            self_ns[i] += dur.saturating_sub(children);
                        }
                        Some(_) => {}
                    }
                    if let Some(parent) = stack.last_mut() {
                        parent.2 += dur;
                    }
                }
                EventKind::Instant | EventKind::Counter => {}
            }
        }
    }
    let per_root = |ns: u64| {
        if roots == 0 {
            0.0
        } else {
            ns as f64 / roots as f64 / 1e3
        }
    };
    let rows: Vec<Row> = layers
        .iter()
        .enumerate()
        .map(|(i, &name)| Row {
            name,
            calls: calls[i],
            mean_self_us: per_root(self_ns[i]),
        })
        .collect();
    let e2e_mean_us = per_root(root_ns);
    let residual_us = e2e_mean_us - rows.iter().map(|r| r.mean_self_us).sum::<f64>();
    Table {
        root,
        roots,
        e2e_mean_us,
        rows,
        residual_us,
    }
}

/// Mean duration of every span named `name`, microseconds (0 when
/// none), whether or not it sits under a root.
pub fn mean_us(trace: &Trace, name: &str) -> f64 {
    let (mut n, mut total) = (0u64, 0u64);
    for lane in &trace.lanes {
        let mut open: Vec<u64> = Vec::new();
        for e in lane.iter().filter(|e| e.name == name) {
            match e.kind {
                EventKind::Begin => open.push(e.ts_ns),
                EventKind::End => {
                    if let Some(begin) = open.pop() {
                        n += 1;
                        total += e.ts_ns.saturating_sub(begin);
                    }
                }
                EventKind::Instant | EventKind::Counter => {}
            }
        }
    }
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64 / 1e3
    }
}

/// Mean `value` of every Begin event named `name` (0 when none) — the
/// argument a span carries, such as a coalesced batch's lane count.
pub fn mean_begin_value(trace: &Trace, name: &str) -> f64 {
    let values: Vec<f64> = trace
        .lanes
        .iter()
        .flatten()
        .filter(|e| e.kind == EventKind::Begin && e.name == name)
        .map(|e| e.value as f64)
        .collect();
    crate::stats::mean(&values).unwrap_or(0.0)
}

/// Times, under `bench.plan`, what a freshly fabricated die pays before
/// its first recorded sample: the plan build and the warm-up
/// conversions every record starts with.
pub fn plan_probe(mut fresh: MeasurementSession) {
    let _s = adc_trace::span("bench.plan");
    let mut codes = Vec::new();
    fresh
        .adc_mut()
        .convert_waveform_into(&DcSource { level_v: 0.0 }, 0, &mut codes);
}

/// Steady cost of the lane kernel per sample and lane: `seeds.len()`
/// dies captured together through a planned `LaneBench`.
///
/// # Errors
///
/// The dies cannot be fabricated.
pub fn lane_kernel_ns(
    config: &AdcConfig,
    seeds: &[u64],
    record_len: usize,
    f_target_hz: f64,
) -> Result<f64, String> {
    let mut bench =
        LaneBench::new(config.clone(), seeds).map_err(|e| format!("lane bench: {e:?}"))?;
    bench.record_len = record_len;
    let mut outs = vec![Vec::new(); seeds.len()];
    bench.capture_tone_into(f_target_hz, &mut outs); // builds the plans
    let reps = 8;
    let start = Instant::now();
    for _ in 0..reps {
        bench.capture_tone_into(f_target_hz, &mut outs);
    }
    let ns = start.elapsed().as_secs_f64() * 1e9;
    Ok(ns / (reps * seeds.len() * record_len) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adc_trace::Event;

    fn ev(ts_ns: u64, kind: EventKind, name: &'static str) -> Event {
        Event {
            ts_ns,
            kind,
            name,
            span_id: 0,
            value: 0,
        }
    }

    fn span(out: &mut Vec<Event>, name: &'static str, begin: u64, end: u64) {
        out.push(ev(begin, EventKind::Begin, name));
        out.push(ev(end, EventKind::End, name));
    }

    /// Two requests on two lanes, with program spans nested inside a
    /// layer, a layer span outside any request, and root self time.
    fn synthetic() -> Trace {
        let mut a = Vec::new();
        a.push(ev(0, EventKind::Begin, "req"));
        span(&mut a, "fab", 1_000, 4_000);
        a.push(ev(5_000, EventKind::Begin, "conv"));
        span(&mut a, "record", 6_000, 9_000); // program span: stays in conv
        a.push(ev(10_000, EventKind::End, "conv"));
        span(&mut a, "enc", 10_000, 12_000);
        a.push(ev(13_000, EventKind::End, "req"));
        span(&mut a, "enc", 20_000, 90_000); // outside any root
        let mut b = Vec::new();
        b.push(ev(100, EventKind::Begin, "req"));
        span(&mut b, "fab", 100, 2_100);
        b.push(ev(2_100, EventKind::Begin, "conv"));
        span(&mut b, "enc", 3_000, 4_000); // a layer inside a layer
        b.push(ev(7_100, EventKind::End, "conv"));
        b.push(ev(9_100, EventKind::End, "req"));
        Trace { lanes: vec![a, b] }
    }

    #[test]
    fn layers_plus_residual_sum_to_the_end_to_end_mean() {
        let t = table(&synthetic(), "req", &["fab", "conv", "enc"]);
        assert_eq!(t.roots, 2);
        assert!((t.e2e_mean_us - (13.0 + 9.0) / 2.0).abs() < 1e-9);
        // fab 3 + 2 us, conv 5 + 4 us (minus the nested enc), enc 2 + 1.
        assert!((t.self_us("fab") - 2.5).abs() < 1e-9);
        assert!((t.self_us("conv") - 4.5).abs() < 1e-9);
        assert!((t.self_us("enc") - 1.5).abs() < 1e-9);
        let sum: f64 = t.rows.iter().map(|r| r.mean_self_us).sum();
        assert!((sum + t.residual_us - t.e2e_mean_us).abs() < 1e-9);
        assert!((t.residual_us - 2.5).abs() < 1e-9);
    }

    #[test]
    fn an_empty_trace_gives_an_empty_table() {
        let t = table(&Trace::default(), "req", &["fab"]);
        assert_eq!(t.roots, 0);
        assert_eq!(t.e2e_mean_us, 0.0);
        assert_eq!(t.residual_us, 0.0);
    }

    #[test]
    fn span_means_and_begin_values() {
        let trace = synthetic();
        assert!((mean_us(&trace, "fab") - 2.5).abs() < 1e-9);
        let mut lane = Vec::new();
        for v in [2, 4] {
            lane.push(Event {
                value: v,
                ..ev(0, EventKind::Begin, "coalesced")
            });
        }
        assert!((mean_begin_value(&Trace { lanes: vec![lane] }, "coalesced") - 3.0).abs() < 1e-9);
    }
}

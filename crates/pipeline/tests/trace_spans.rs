//! The record kernel's trace spans: subsampled `pipeline-tick` spans
//! (value = active stages) and `flash` spans, no per-stage spans, and
//! codes bit-identical with and without a collector installed.

use adc_pipeline::{AdcConfig, PipelineAdc};
use adc_trace::{Collector, EventKind};

#[test]
fn records_emit_tick_and_flash_spans_without_changing_codes() {
    let tone = |t: f64| 0.9 * (2.0 * std::f64::consts::PI * 10.3e6 * t).sin();
    let n = 4096;
    let untraced = PipelineAdc::build(AdcConfig::nominal_110ms(), 5)
        .unwrap()
        .convert_waveform(&tone, n);

    let session = Collector::install().expect("no other collector in this binary");
    let traced = PipelineAdc::build(AdcConfig::nominal_110ms(), 5)
        .unwrap()
        .convert_waveform(&tone, n);
    let trace = session.finish();
    assert_eq!(untraced, traced, "tracing perturbed the record");

    let begins: Vec<_> = trace
        .merged()
        .into_iter()
        .map(|(_, e)| e)
        .filter(|e| e.kind == EventKind::Begin)
        .collect();
    let ticks: Vec<u64> = begins
        .iter()
        .filter(|e| e.name == "pipeline-tick")
        .map(|e| e.value)
        .collect();
    let flashes = begins.iter().filter(|e| e.name == "flash").count();

    // The schedule the kernel runs: chunks of 256 samples (the record
    // plus its 16 warm-up conversions), `len + stages - 1` ticks each,
    // with every 512th tick of the record sampled.
    let (stages, chunk, warmup, every) = (10, 256, 16, 512);
    let (mut want_ticks, mut want_flashes) = (Vec::new(), 0);
    let (mut first, mut tick) = (0, 0);
    while first < n + warmup {
        let len = chunk.min(n + warmup - first);
        for t in 0..len + stages - 1 {
            if (tick + t) % every == 0 {
                let (lo, hi) = (t.saturating_sub(len - 1), t.min(stages - 1));
                want_ticks.push((hi + 1 - lo) as u64);
                want_flashes += usize::from(hi == stages - 1);
            }
        }
        tick += len + stages - 1;
        first += len;
    }
    // One span per sampled tick, and the samples are not all fill or
    // drain ticks: most land where every stage is busy.
    assert_eq!(ticks, want_ticks, "sampled ticks");
    assert_eq!(flashes, want_flashes, "flash spans");
    let steady = ticks
        .iter()
        .filter(|&&active| active == stages as u64)
        .count();
    assert!(
        2 * steady > ticks.len(),
        "only {steady} of {} sampled ticks are steady: {ticks:?}",
        ticks.len()
    );
    assert!(begins.iter().any(|e| e.name == "record"));
    assert!(
        begins.iter().all(|e| !e.name.starts_with("mdac-stage")),
        "per-stage spans have no meaning in a wavefront"
    );
}

//! # adc-trace — deterministic tracing & profiling
//!
//! A std-only structured tracing subsystem for the ADC workspace:
//! span guards with static names, per-thread event lanes drained by a
//! process-global collector, and two exporters — a Chrome trace-event
//! JSON document (open in `chrome://tracing` or Perfetto) and a human
//! per-span self/total-time summary table.
//!
//! ## Determinism contract
//!
//! The workspace's simulation crates promise results that are a pure
//! function of `(config, seed)`. Instrumentation must not weaken
//! that, so:
//!
//! - **Span IDs are deterministic**: derived with SplitMix64 from the
//!   current *task seed* (set by the runtime from the job's
//!   `derive_seed(campaign_seed, job_id)` value via [`task`]) and a
//!   per-task sequence number. Two runs of the same campaign produce
//!   the same span ids.
//! - **No thread identity**: lanes are numbered by registration
//!   order, not `std::thread::ThreadId`.
//! - **Wall-clock is confined**: `Instant` is read only inside
//!   [`collector`], behind an `adc-lint` pragma; timestamps flow into
//!   trace output, never into simulation results.
//! - **Zero-cost when disabled**: every recording call starts with a
//!   single relaxed atomic load of the collector generation; with no
//!   collector installed nothing else runs and guards are inert.
//!
//! `tests/determinism.rs` holds bit-identity of campaign results with
//! tracing enabled and disabled.
//!
//! ## Quick start
//!
//! ```
//! let session = adc_trace::Collector::install().expect("no other collector");
//! {
//!     let _task = adc_trace::task(0xDEADBEEF); // e.g. the job seed
//!     let _span = adc_trace::span("digitize");
//!     adc_trace::counter("samples", 4096);
//! }
//! let trace = session.finish();
//! let json = adc_trace::chrome_json(&trace);         // for Perfetto
//! let table = adc_trace::Summary::compute(&trace);   // for humans
//! assert!(json.contains("\"digitize\""));
//! assert_eq!(table.span("digitize").unwrap().calls, 1);
//! ```

pub mod chrome;
pub mod collector;
pub mod event;
pub mod json;
pub mod summary;

pub use chrome::chrome_json;
pub use collector::{enabled, ActiveTrace, Collector, Trace};
pub use event::{Event, EventKind, SpanGuard, TaskGuard};
pub use summary::{CounterStats, SpanStats, Summary};

/// Opens a span; the matching End event is recorded when the returned
/// guard drops. Inert (records nothing, allocates nothing) when
/// tracing is disabled.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span_with(name, 0)
}

/// Like [`span`], with a caller-supplied argument (e.g. a job id)
/// attached to the Begin event and exported into Chrome `args`.
#[inline]
pub fn span_with(name: &'static str, value: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            name,
            span_id: None,
        };
    }
    let id = event::next_span_id();
    collector::record(EventKind::Begin, name, id, value);
    SpanGuard {
        name,
        span_id: Some(id),
    }
}

/// Records a point-in-time marker (e.g. a checkpoint).
#[inline]
pub fn instant(name: &'static str) {
    if enabled() {
        collector::record(EventKind::Instant, name, 0, 0);
    }
}

/// Records a named counter sample (e.g. samples processed, queue wait
/// in microseconds, in-flight request count).
#[inline]
pub fn counter(name: &'static str, value: u64) {
    if enabled() {
        collector::record(EventKind::Counter, name, 0, value);
    }
}

/// Enters a task scope: span ids recorded on this thread derive from
/// `seed` until the guard drops (scopes nest and restore). The
/// runtime calls this with the job's derived seed so span identity is
/// reproducible run-to-run.
#[inline]
pub fn task(seed: u64) -> TaskGuard {
    TaskGuard::enter(seed)
}

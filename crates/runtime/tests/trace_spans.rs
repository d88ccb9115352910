//! Tracing through the campaign engine: span nesting and ordering under
//! a real 2-thread [`adc_runtime::Campaign`], and the determinism of
//! span identity across reruns.
//!
//! The collector is process-global, so the tests in this binary share
//! one mutex — each installs its own session.

use std::sync::Mutex;

use adc_runtime::{Campaign, JobCtx, JobError, ResultCache};
use adc_trace::{Collector, EventKind, Trace};

static COLLECTOR_LOCK: Mutex<()> = Mutex::new(());

const JOBS: u64 = 8;

/// Runs a 2-thread campaign whose jobs open their own nested spans
/// inside the engine's per-job span, and drains the trace.
fn traced_campaign() -> Trace {
    let session = Collector::install().expect("no collector active");
    let values = Campaign::new("trace-probe", 0xADC)
        .jobs(0..JOBS)
        .threads(2)
        .run(|ctx, &job| {
            let _outer = adc_trace::span_with("work", job);
            for _ in 0..3 {
                let _inner = adc_trace::span("step");
            }
            ctx.record_samples(64);
            Ok::<_, JobError>(job)
        })
        .into_result()
        .expect("campaign runs");
    assert_eq!(values, (0..JOBS).collect::<Vec<_>>());
    session.finish()
}

#[test]
fn spans_nest_and_balance_on_every_lane() {
    let _guard = lock();
    let trace = traced_campaign();

    for (lane_idx, lane) in trace.lanes.iter().enumerate() {
        let mut stack: Vec<u64> = Vec::new();
        let mut last_ts = 0u64;
        for event in lane {
            assert!(
                event.ts_ns >= last_ts,
                "lane {lane_idx} timestamps must be monotonic"
            );
            last_ts = event.ts_ns;
            match event.kind {
                EventKind::Begin => stack.push(event.span_id),
                EventKind::End => {
                    // Guards drop in reverse creation order, so closes
                    // are strictly LIFO within a lane.
                    let open = stack.pop().unwrap_or_else(|| {
                        panic!("lane {lane_idx}: End of {} with no open span", event.name)
                    });
                    assert_eq!(
                        open, event.span_id,
                        "lane {lane_idx}: {} closed out of order",
                        event.name
                    );
                }
                EventKind::Instant | EventKind::Counter => {}
            }
        }
        assert!(
            stack.is_empty(),
            "lane {lane_idx}: {} span(s) never closed",
            stack.len()
        );
    }
}

#[test]
fn engine_opens_one_job_span_per_job_around_the_worker() {
    let _guard = lock();
    let trace = traced_campaign();
    let merged = trace.merged();

    // One engine-side "job" span per job, carrying the job id.
    let mut job_ids: Vec<u64> = merged
        .iter()
        .filter(|(_, e)| e.kind == EventKind::Begin && e.name == "job")
        .map(|(_, e)| e.value)
        .collect();
    job_ids.sort_unstable();
    assert_eq!(job_ids, (0..JOBS).collect::<Vec<_>>());

    // The worker's own spans sit inside it: per lane, every "work"
    // Begin appears while a "job" span is open.
    for lane in &trace.lanes {
        let mut jobs_open = 0u32;
        for event in lane {
            match (event.kind, event.name) {
                (EventKind::Begin, "job") => jobs_open += 1,
                (EventKind::End, "job") => jobs_open -= 1,
                (EventKind::Begin, "work") => {
                    assert!(jobs_open > 0, "worker span outside the engine's job span")
                }
                _ => {}
            }
        }
    }

    // record_samples feeds the trace counter too.
    let samples: u64 = merged
        .iter()
        .filter(|(_, e)| e.kind == EventKind::Counter && e.name == "samples")
        .map(|(_, e)| e.value)
        .sum();
    assert_eq!(samples, JOBS * 64);
}

#[test]
fn span_identity_is_reproducible_across_runs_and_schedules() {
    let _guard = lock();
    let ids = |trace: &Trace| -> Vec<(&'static str, u64, u64)> {
        let mut v: Vec<_> = trace
            .merged()
            .iter()
            .filter(|(_, e)| e.kind == EventKind::Begin)
            .map(|(_, e)| (e.name, e.span_id, e.value))
            .collect();
        // Lane assignment is scheduling-dependent; span identity is not.
        v.sort_unstable();
        v
    };
    assert_eq!(ids(&traced_campaign()), ids(&traced_campaign()));
}

#[test]
fn cached_misses_open_job_spans_under_their_own_ids() {
    let _guard = lock();
    let cache = ResultCache::in_memory();
    let worker = |_: &JobCtx, &job: &u64| Ok::<_, JobError>(job);
    // Pre-cache the even jobs, then trace a run of all of them.
    Campaign::new("trace-sparse", 0xADC)
        .jobs((0..JOBS).step_by(2))
        .threads(2)
        .run_cached(&cache, worker);
    let session = Collector::install().expect("no collector active");
    let values = Campaign::new("trace-sparse", 0xADC)
        .jobs(0..JOBS)
        .threads(2)
        .run_cached(&cache, worker)
        .into_result()
        .expect("campaign runs");
    let trace = session.finish();
    assert_eq!(values, (0..JOBS).collect::<Vec<_>>());

    let mut job_ids: Vec<u64> = trace
        .merged()
        .iter()
        .filter(|(_, e)| e.kind == EventKind::Begin && e.name == "job")
        .map(|(_, e)| e.value)
        .collect();
    job_ids.sort_unstable();
    assert_eq!(job_ids, vec![1, 3, 5, 7]);
}

fn lock() -> std::sync::MutexGuard<'static, ()> {
    COLLECTOR_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

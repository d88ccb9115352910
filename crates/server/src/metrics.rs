//! The server's metrics registry: lock-free counters, an in-flight
//! gauge, and a log-linear latency histogram.
//!
//! The registry counts digitizations only:
//!
//! * the reactor counts requests, connections, sheds, and error frames
//!   directly, and raises the in-flight gauge
//!   ([`MetricsRegistry::digitize_dispatched`]) when it puts a
//!   digitization on the job pool;
//! * the digitization's completion callback, on the pool worker, calls
//!   [`MetricsRegistry::digitize_finished`] *before* it posts the
//!   answer: it records the job's wall time into the histogram (one
//!   job serves one request), counts it completed when it succeeded,
//!   accumulates the samples of the record it converted, and lowers
//!   the gauge. A client holding its whole record therefore never
//!   reads a snapshot that still counts the job in flight.
//!
//! Cluster job batches and cache fills run on the same pool but are
//! counted only as `job_batches` and `cluster_cache_hits`: they never
//! reach the gauge, the histogram or `completed`.
//!
//! [`MetricsRegistry::snapshot`] freezes everything into the wire-level
//! [`MetricsSnapshot`] answered to a `Metrics` request, including
//! p50/p90/p99 latency estimated from the histogram (upper bucket
//! bounds, so estimates are conservative).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use adc_runtime::JobReport;

use crate::protocol::MetricsSnapshot;

/// Sub-buckets per octave (and the linear range's width): 16 gives a
/// worst-case relative quantile error of 1/16 = 6.25%.
const SUBS: usize = 16;
/// First octave exponent covered by log-linear buckets; values below
/// `2^LINEAR_BITS` µs get one exact bucket each.
const LINEAR_BITS: usize = 4;
/// Highest octave exponent covered (latencies to ~2^40 µs ≈ 12.7 days;
/// anything larger clamps into the final bucket).
const MAX_BITS: usize = 40;
/// Histogram bucket count: 16 exact sub-16 µs buckets plus 16 per
/// octave from 2^4 to 2^40 µs.
const BUCKETS: usize = SUBS + (MAX_BITS - LINEAR_BITS) * SUBS;

/// A fixed-layout log-linear latency histogram.
///
/// Latencies under 16 µs land in exact 1 µs buckets; above that each
/// power-of-two octave splits into 16 equal sub-buckets, so the upper
/// bound reported for any observation overshoots it by at most 6.25% —
/// fine-grained enough that a 2–4 ms serving distribution no longer
/// collapses into one "4095 µs" bucket.
#[derive(Debug)]
pub struct LatencyHistogram {
    counts: [AtomicU64; BUCKETS],
    total: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            total: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    fn bucket_for(us: u64) -> usize {
        if us < SUBS as u64 {
            return us as usize;
        }
        let octave = 63 - u64::leading_zeros(us) as usize;
        let shift = octave - LINEAR_BITS;
        // 2^octave <= us < 2^(octave+1), so (us >> shift) is in
        // [16, 31] and the subtraction below cannot underflow.
        let sub = ((us >> shift) as usize).saturating_sub(SUBS);
        (SUBS + (octave - LINEAR_BITS) * SUBS + sub).min(BUCKETS - 1)
    }

    /// Inclusive upper bound (µs) of bucket `i` — what quantile queries
    /// report, hence the ≤6.25% conservative overshoot.
    fn upper_bound_us(i: usize) -> u64 {
        if i < SUBS {
            return i as u64;
        }
        let octave = LINEAR_BITS + (i - SUBS) / SUBS;
        let sub = ((i - SUBS) % SUBS) as u64;
        let width = 1u64 << (octave - LINEAR_BITS);
        (SUBS as u64 + sub) * width + width - 1
    }

    /// Records one latency observation.
    pub fn record(&self, latency: Duration) {
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        self.counts[Self::bucket_for(us)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// The latency (microseconds, upper bucket bound) at or below which
    /// `quantile` of observations fall; `0` with no observations.
    pub fn quantile_us(&self, quantile: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((quantile.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.counts.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::upper_bound_us(i);
            }
        }
        Self::upper_bound_us(BUCKETS - 1)
    }
}

/// Counters and gauges for one server instance. All methods are cheap
/// and callable from any thread.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    connections: AtomicU64,
    pings: AtomicU64,
    digitizes: AtomicU64,
    metrics_requests: AtomicU64,
    errors: AtomicU64,
    in_flight: AtomicU64,
    completed: AtomicU64,
    samples_streamed: AtomicU64,
    job_batches: AtomicU64,
    cluster_cache_hits: AtomicU64,
    overloaded: AtomicU64,
    latency: LatencyHistogram,
}

impl MetricsRegistry {
    /// A fresh registry with every counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts an accepted connection.
    pub fn connection_opened(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a served ping.
    pub fn ping(&self) {
        self.pings.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an accepted digitize request.
    pub fn digitize(&self) {
        self.digitizes.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a served metrics request.
    pub fn metrics_request(&self) {
        self.metrics_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an error frame sent to a client.
    pub fn error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a request shed by admission control (an `Overloaded`
    /// frame sent).
    pub fn overloaded(&self) {
        self.overloaded.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an accepted cluster job batch.
    pub fn job_batch(&self) {
        self.job_batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a cluster job answered from the warm cache.
    pub fn cluster_cache_hit(&self) {
        self.cluster_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Raises the in-flight gauge for a digitization put on the pool.
    pub fn digitize_dispatched(&self) {
        let now = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        adc_trace::counter("in_flight", now);
    }

    /// Accounts a dispatched digitization from its job report: records
    /// its wall time, its samples and (when it succeeded) its
    /// completion, then lowers the in-flight gauge.
    pub fn digitize_finished(&self, report: &JobReport) {
        self.latency.record(report.wall);
        self.samples_streamed
            .fetch_add(report.samples, Ordering::Relaxed);
        self.completed
            .fetch_add(u64::from(report.error.is_none()), Ordering::Relaxed);
        let now = self
            .in_flight
            .fetch_sub(1, Ordering::Relaxed)
            .saturating_sub(1);
        // Mirror the gauge and the histogram's input into the trace
        // stream: the same wall time lands in both, so a trace profile
        // and a Metrics snapshot agree on request latency.
        adc_trace::counter("in_flight", now);
        adc_trace::counter(
            "request_latency_us",
            u64::try_from(report.wall.as_micros()).unwrap_or(u64::MAX),
        );
    }

    /// Freezes the registry into a wire snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            pings: self.pings.load(Ordering::Relaxed),
            digitizes: self.digitizes.load(Ordering::Relaxed),
            metrics_requests: self.metrics_requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            samples_streamed: self.samples_streamed.load(Ordering::Relaxed),
            job_batches: self.job_batches.load(Ordering::Relaxed),
            cluster_cache_hits: self.cluster_cache_hits.load(Ordering::Relaxed),
            p50_us: self.latency.quantile_us(0.50),
            p90_us: self.latency.quantile_us(0.90),
            p99_us: self.latency.quantile_us(0.99),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            coalesced: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_exact_below_16us_and_log_linear_above() {
        for us in 0..16u64 {
            assert_eq!(LatencyHistogram::bucket_for(us), us as usize);
            assert_eq!(LatencyHistogram::upper_bound_us(us as usize), us);
        }
        // 2^4..2^5 is the first split octave: 16 one-µs sub-buckets.
        assert_eq!(LatencyHistogram::bucket_for(16), 16);
        assert_eq!(LatencyHistogram::bucket_for(31), 31);
        assert_eq!(LatencyHistogram::bucket_for(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_relative_error_is_within_a_sixteenth() {
        // The reported upper bound never undershoots and overshoots by
        // at most us/16 — the ~10%-relative-error requirement.
        for us in (0..4096u64)
            .chain((1..200).map(|k| k * 4093))
            .chain((1..50).map(|k| k * 1_048_573))
        {
            let ub = LatencyHistogram::upper_bound_us(LatencyHistogram::bucket_for(us));
            assert!(ub >= us, "upper bound {ub} undershoots {us}");
            assert!(
                ub - us <= us / 16,
                "upper bound {ub} overshoots {us} by more than 6.25%"
            );
        }
    }

    #[test]
    fn bucket_upper_bounds_are_monotonic() {
        let mut prev = 0;
        for i in 1..BUCKETS {
            let ub = LatencyHistogram::upper_bound_us(i);
            assert!(ub > prev, "bucket {i}: {ub} <= {prev}");
            prev = ub;
        }
    }

    #[test]
    fn quantiles_are_tight_conservative_upper_bounds() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_us(0.5), 0, "empty histogram");
        for us in [100u64, 200, 400, 800, 100_000] {
            h.record(Duration::from_micros(us));
        }
        // p50 = 400 µs; its bucket spans 400..=415 µs.
        let p50 = h.quantile_us(0.5);
        assert!((400..=415).contains(&p50), "p50 {p50}");
        // p99 = 100000 µs; its bucket spans 98304..=102399 µs.
        let p99 = h.quantile_us(0.99);
        assert!((100_000..=102_399).contains(&p99), "p99 {p99}");
        assert!(h.quantile_us(1.0) >= h.quantile_us(0.5));
    }

    #[test]
    fn digitize_accounting_drives_gauge_histogram_and_counters() {
        use adc_runtime::{JobError, JobId};
        let reg = MetricsRegistry::new();
        reg.digitize_dispatched();
        assert_eq!(reg.snapshot().in_flight, 1);
        reg.digitize_finished(&JobReport {
            id: JobId(0),
            wall: Duration::from_micros(300),
            samples: 4096,
            error: None,
        });
        let snap = reg.snapshot();
        assert_eq!(snap.in_flight, 0);
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.samples_streamed, 4096);
        assert!(snap.p50_us >= 300);

        reg.digitize_dispatched();
        reg.digitize_finished(&JobReport {
            id: JobId(1),
            wall: Duration::from_micros(10),
            samples: 0,
            error: Some(JobError::TimedOut),
        });
        let snap = reg.snapshot();
        assert_eq!(snap.completed, 1, "failed job not completed");
        assert_eq!(snap.in_flight, 0);
    }

    #[test]
    fn request_counters_accumulate() {
        let reg = MetricsRegistry::new();
        reg.connection_opened();
        reg.ping();
        reg.ping();
        reg.digitize();
        reg.metrics_request();
        reg.error();
        reg.overloaded();
        let snap = reg.snapshot();
        assert_eq!(snap.connections, 1);
        assert_eq!(snap.pings, 2);
        assert_eq!(snap.digitizes, 1);
        assert_eq!(snap.metrics_requests, 1);
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.overloaded, 1);
        assert_eq!(snap.coalesced, 0, "nothing coalesces");
    }
}

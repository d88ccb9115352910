//! # adc-server
//!
//! A streaming digitization service over the behavioral pipeline ADC:
//! the simulator from `adc-pipeline`/`adc-testbench`, served over TCP
//! behind a length-prefixed, CRC-checked binary protocol.
//!
//! The paper's part is a *component* — other systems hand it a waveform
//! and clock and read back codes. This crate gives the behavioral model
//! the same shape: a client names a config preset, a fabrication seed,
//! and a stimulus; the server fabricates the die, converts the record,
//! and streams the codes back in batches. Because the server runs the
//! exact in-process code path (`MeasurementSession` on an
//! `adc-runtime` pool), the streamed samples are **bit-identical** to a
//! direct library call with the same config and seed — the service
//! boundary adds transport, not nondeterminism.
//!
//! ## Layers
//!
//! * [`protocol`] — the wire format: framing (magic, version, kind,
//!   length, CRC-32 trailer), request/response payload codecs, and
//!   total, panic-free decoding with typed [`protocol::WireError`]s.
//!   Every digitization travels as one [`Request::Submit`] under a
//!   nonzero correlation id and is answered in [`Response::Tagged`]
//!   frames.
//! * [`server`] — configuration, lifecycle, and the served
//!   computations, dispatched onto a [`adc_runtime::JobPool`] with
//!   cooperative per-request deadlines and graceful
//!   drain-then-shutdown. The socket side is a readiness-driven
//!   reactor: one thread multiplexes every connection over `poll(2)`,
//!   pipelines requests under client-chosen correlation ids (out-of-
//!   order completion), runs each admitted request as one pool job,
//!   and sheds overload from bounded admission queues with typed
//!   [`ErrorCode::Overloaded`] frames.
//! * [`metrics`] — lock-free request counters, an in-flight gauge, and
//!   a log-linear latency histogram (~6% relative error) fed from the
//!   pool's [`adc_runtime::RunObserver`] hooks; snapshots answer
//!   `Metrics` requests.
//! * [`client`] — a [`PipelinedClient`] that keeps many correlated
//!   requests in flight on one connection and yields verified
//!   completions in server finish order, and a blocking [`Client`]
//!   for one-at-a-time calls that is a thin wrapper over it.
//!
//! Besides single-die digitization, the server speaks a **ganged**
//! mode ([`GangedRequest`]): it fabricates an M-way time-interleaved
//! array (optionally with the typical skew/bandwidth mismatch draw),
//! aligns it raw / foreground / background-calibrated, and streams the
//! interleaved record as bit-exact `f64` values — identical to an
//! in-process [`adc_calib::GangedScenario`] capture of the same
//! request (see [`ganged_scenario`] for the exact mapping).
//!
//! A host can additionally opt into **cluster duty** by installing a
//! [`JobRunner`] (and optionally a cache directory) in its
//! [`ServerConfig`]: it then executes [`JobBatch`](Request::JobBatch)
//! campaign work on its job pool, answering jobs it already holds from
//! per-campaign warm caches ([`jobs::CampaignCaches`]), and merges
//! [`CacheFill`](Request::CacheFill) entries from peers. Results travel
//! as `CacheCodec`-encoded lines under `adc-runtime` canonical keys, so
//! remote and local results are interchangeable bit-for-bit; the
//! scheduling side lives in the `adc-cluster` crate.
//!
//! ## Quick start
//!
//! ```
//! use adc_server::{Client, DigitizeRequest, Server, ServerConfig};
//!
//! let (handle, join) = Server::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let result = client.digitize(&DigitizeRequest::tone(7, 10e6, 1024)).unwrap();
//! assert_eq!(result.samples.len(), 1024);
//! client.shutdown().unwrap();
//! join.join().unwrap().unwrap();
//! ```

pub mod client;
pub mod jobs;
pub mod metrics;
pub mod protocol;
mod reactor;
pub mod server;

pub use client::{
    Client, ClientError, DigitizeResult, GangedResult, PipelinedClient, PipelinedOutcome,
};
pub use jobs::{CampaignCaches, JobRunError, JobRunner};
pub use metrics::{LatencyHistogram, MetricsRegistry};
pub use protocol::{
    CacheFillRequest, ConfigOverrides, DigitizeDone, DigitizeRequest, ErrorCode, GangedCal,
    GangedDone, GangedRequest, JobBatchRequest, JobOutcome, JobResultBatch, JobSpec, JobStatus,
    MetricsSnapshot, Preset, Request, Response, SubmitBody, SubmitRequest, WaveformSpec, WireError,
    MAX_BATCH_JOBS, MAX_CACHE_ENTRIES,
};
pub use server::{
    ganged_scenario, preset_config, Server, ServerConfig, ServerHandle, GANGED_BACKGROUND_EPOCHS,
    GANGED_BACKGROUND_EPOCH_LEN, GANGED_FOREGROUND_AVERAGES,
};

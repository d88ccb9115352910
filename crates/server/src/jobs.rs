//! Remote campaign-job execution: the [`JobRunner`] capability.
//!
//! A cluster peer ships jobs as *rendered* canonical configs (the wire
//! cannot carry arbitrary `Debug` types), so a host needs a way to turn
//! `(kind, config, seed)` back into a computation. That mapping is the
//! [`JobRunner`]: a registry of named job kinds installed into
//! [`ServerConfig`](crate::ServerConfig) when the host opts into
//! cluster duty. The concrete registry lives in `adc-cluster` (it knows
//! the campaign workloads); this module only defines the capability so
//! the server stays workload-agnostic.
//!
//! Results are exchanged and stored as [`CacheCodec`]-encoded lines —
//! exactly the bytes `adc-runtime` persists — so a value computed here,
//! a value from another host's fill, and a value from a local on-disk
//! cache are interchangeable bit-for-bit.
//!
//! [`CacheCodec`]: adc_runtime::CacheCodec

/// Why a job runner could not produce a result.
///
/// Every variant is *deterministic*: the same `(kind, config, seed)`
/// fails identically on any host, so the server reports these as
/// [`JobStatus::Failed`](crate::protocol::JobStatus::Failed) (do not
/// resubmit) rather than `Rejected` (resubmit elsewhere).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobRunError {
    /// No runner is registered under the requested kind.
    UnknownKind(String),
    /// The rendered config did not decode for this kind.
    BadConfig(String),
    /// The computation itself reported an error (e.g. converter build).
    Failed(String),
}

impl std::fmt::Display for JobRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownKind(kind) => write!(f, "unknown job kind {kind:?}"),
            Self::BadConfig(detail) => write!(f, "bad job config: {detail}"),
            Self::Failed(detail) => write!(f, "job failed: {detail}"),
        }
    }
}

impl std::error::Error for JobRunError {}

/// The capability a host needs to execute [`Request::JobBatch`] work:
/// map a `(kind, rendered config, derived seed)` triple to an encoded
/// result line.
///
/// Implementations must be pure functions of their inputs — the cluster
/// layer's bit-identity guarantee (any host, any schedule, same bits)
/// holds exactly as far as this contract does.
///
/// [`Request::JobBatch`]: crate::protocol::Request::JobBatch
pub trait JobRunner: Send + Sync {
    /// Runs one job, returning the `CacheCodec`-encoded result line.
    ///
    /// # Errors
    ///
    /// A deterministic failure (unknown kind, malformed config, or a
    /// computation error); see [`JobRunError`].
    fn run(&self, kind: &str, config: &str, seed: u64) -> Result<String, JobRunError>;
}

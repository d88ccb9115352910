//! Rule scoping: which workspace paths each invariant binds.
//!
//! Paths are workspace-relative with `/` separators. The scopes mirror
//! the claims the repo actually makes: determinism is a property of
//! the simulation and campaign crates (the server and bench layers may
//! time things — latency histograms *are* wall-clock), while
//! panic-freedom binds exactly the code whose docs promise totality.
//!
//! Every entry here is verified against the scanned workspace by the
//! `config-drift` meta-diagnostic: a root directory with no scanned
//! files, a root file that does not exist, or a root symbol that names
//! no function is a deny-mode error — stale entries must not silently
//! check nothing.

/// Crates whose results must be a pure function of config and seed —
/// any `src/` file under these roots is in determinism scope.
pub const DETERMINISM_ROOTS: &[&str] = &[
    "crates/runtime/src",
    "crates/pipeline/src",
    "crates/spectral/src",
    "crates/testbench/src",
    "crates/bias/src",
    "crates/analog/src",
    // Background calibration feeds corrections back into conversion:
    // any nondeterminism here (wall-clock adaptation, hash-order state)
    // would make two ganged captures of one scenario differ.
    "crates/calib/src",
    // The tracing subsystem instruments the crates above, so it binds
    // the same rules: its one wall-clock site (the collector epoch) is
    // pragma-annotated, and span ids/lane numbering use no thread ids.
    "crates/trace/src",
    // The cluster executor promises bit-identical results regardless
    // of schedule, host count, or host loss; wall-clock reads, hash
    // iteration order, or thread-id dependence in its scheduling
    // would all be routes for the schedule to leak into results.
    // Timeouts go through `thread::sleep` / `Condvar::wait_timeout` /
    // socket read timeouts, which never feed values back into data.
    "crates/cluster/src",
];

/// Individual files in determinism scope inside crates that are
/// otherwise exempt. The server crate as a whole may time things —
/// latency histograms *are* wall-clock — but the reactor decides
/// dispatch order, admission shedding, and the accept back-off, and
/// every one of those decisions must be a function of arrival order
/// and config, never of wall-clock reads, thread identity, or hash
/// iteration order.
pub const DETERMINISM_FILES: &[&str] = &["crates/server/src/reactor.rs"];

/// A panic-freedom root: either a whole file (every function in it is
/// a root and the textual `no-panic` rule also binds the file), or one
/// named function given as `path::symbol` (the transitive pass alone
/// covers it, diagnosing as `panic-reach`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanicRoot {
    /// Workspace-relative file path.
    pub path: &'static str,
    /// `None` = every function in `path`; `Some(name)` = that one
    /// function (free fn or method — matched by name within the file).
    pub symbol: Option<&'static str>,
}

/// Functions whose documented contract is "total, never panics" — the
/// transitive panic-reachability pass denies any path from these to a
/// panicking construct anywhere in the workspace. This replaces the
/// old `PANIC_FREE_FILES` textual list: the whole-file entries keep
/// the exact per-file `no-panic` rule as before, and the call graph
/// extends the guarantee through every helper they reach.
pub const PANIC_ROOTS: &[PanicRoot] = &[
    // Protocol decode runs on untrusted bytes from the wire.
    PanicRoot {
        path: "crates/server/src/protocol.rs",
        symbol: None,
    },
    // The result cache parses on-disk state that may be from an older
    // epoch, truncated, or corrupt.
    PanicRoot {
        path: "crates/runtime/src/cache.rs",
        symbol: None,
    },
    // The analyzer meets its own bar: the surfaces documented as total
    // over arbitrary input (lexing any byte soup, parsing any pragma)
    // are panic-free transitively. The pass internals run only on
    // workspace source that compiles, so they are not rooted — a panic
    // there is a CI failure, not a prod decode crash.
    PanicRoot {
        path: "crates/lint/src/lexer.rs",
        symbol: Some("lex"),
    },
    PanicRoot {
        path: "crates/lint/src/pragma.rs",
        symbol: Some("parse_allows"),
    },
    // The workspace JSON parser reads BENCH_*.json files from disk in
    // `bench_compare`, so any document must parse or err. A symbol
    // root: as a whole-file root the per-file rule would take
    // `Parser::expect`, a workspace method, for `Option::expect`.
    PanicRoot {
        path: "crates/trace/src/json.rs",
        symbol: Some("parse"),
    },
    // The reactor's frame-ingest path runs on untrusted wire bytes
    // before any request is admitted; a panic here takes down every
    // pipelined connection on the reactor thread, not just the sender.
    PanicRoot {
        path: "crates/server/src/reactor.rs",
        symbol: Some("ingest"),
    },
    // The reactor frames every answer into bytes as the socket drains;
    // like ingest, a panic here would take down every connection.
    PanicRoot {
        path: "crates/server/src/reactor.rs",
        symbol: Some("stage_frames"),
    },
    // Every decoded frame crosses request handling on the reactor
    // thread, and every work request is admitted (or shed) there; a
    // panic would take down every connection, not just the sender.
    PanicRoot {
        path: "crates/server/src/reactor.rs",
        symbol: Some("handle_request"),
    },
    // Request validation is the one gate every decoded digitize request
    // crosses on the reactor thread before admission; like ingest, a
    // panic here would take down every connection, not just the sender.
    PanicRoot {
        path: "crates/server/src/server.rs",
        symbol: Some("validate"),
    },
];

/// The one place allowed to read process environment variables.
pub const ENV_EXEMPT_FILES: &[&str] = &["crates/bench/src/cli.rs"];

/// Crates the lock-order pass reports on (the graph itself is built
/// workspace-wide so cross-crate nesting is seen; diagnostics bind the
/// crates that actually share locks across threads).
pub const LOCK_SCOPES: &[&str] = &[
    "crates/runtime/src",
    "crates/server/src",
    "crates/trace/src",
    "crates/cluster/src",
];

/// `true` when `rel_path` falls under a determinism-scoped crate or
/// is one of the individually scoped [`DETERMINISM_FILES`].
pub fn in_determinism_scope(rel_path: &str) -> bool {
    under_any(rel_path, DETERMINISM_ROOTS) || DETERMINISM_FILES.contains(&rel_path)
}

/// `true` when the whole of `rel_path` must be panic-free (whole-file
/// panic roots — the textual `no-panic` rule binds these exactly as
/// the old `PANIC_FREE_FILES` list did).
pub fn in_panic_free_scope(rel_path: &str) -> bool {
    PANIC_ROOTS
        .iter()
        .any(|r| r.symbol.is_none() && r.path == rel_path)
}

/// `true` when `rel_path` may read environment variables.
pub fn is_env_exempt(rel_path: &str) -> bool {
    ENV_EXEMPT_FILES.contains(&rel_path)
}

/// `true` when `rel_path` is in lock-order reporting scope.
pub fn in_lock_scope(rel_path: &str) -> bool {
    under_any(rel_path, LOCK_SCOPES)
}

fn under_any(rel_path: &str, roots: &[&str]) -> bool {
    roots.iter().any(|root| {
        rel_path
            .strip_prefix(root)
            .is_some_and(|r| r.starts_with('/'))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_scope_is_prefix_per_directory() {
        assert!(in_determinism_scope("crates/runtime/src/pool.rs"));
        assert!(in_determinism_scope("crates/spectral/src/fft.rs"));
        // The planned-FFT machinery (plan cache, scratch buffers) is
        // hot-path *and* determinism-scoped: its global plan cache must
        // stay ordered (BTreeMap) and free of wall-clock or thread-id
        // dependence.
        assert!(in_determinism_scope("crates/spectral/src/plan.rs"));
        assert!(in_determinism_scope("crates/trace/src/collector.rs"));
        // The calibration engine and the interleaved array it corrects
        // are both load-bearing for ganged bit-identity.
        assert!(in_determinism_scope("crates/calib/src/engine.rs"));
        assert!(in_determinism_scope("crates/pipeline/src/interleave.rs"));
        // The cluster scheduler's promise is schedule-independence:
        // its sources sit in determinism scope so no wall-clock or
        // hash-order dependence can creep into work distribution.
        assert!(in_determinism_scope("crates/cluster/src/executor.rs"));
        // The reactor is file-scoped: its dispatch, shedding, and
        // accept back-off decisions must not depend on clocks or hash order,
        // while the rest of the server crate stays exempt (latency
        // metrics are wall-clock by design).
        assert!(in_determinism_scope("crates/server/src/reactor.rs"));
        assert!(!in_determinism_scope("crates/server/src/server.rs"));
        assert!(!in_determinism_scope("crates/bench/src/cli.rs"));
        // No false prefix matches on sibling names.
        assert!(!in_determinism_scope("crates/runtime/src2/x.rs"));
    }

    #[test]
    fn panic_free_and_env_scopes_are_exact_files() {
        assert!(in_panic_free_scope("crates/server/src/protocol.rs"));
        assert!(in_panic_free_scope("crates/runtime/src/cache.rs"));
        assert!(!in_panic_free_scope("crates/server/src/server.rs"));
        // Symbol-level roots do not put their whole file in textual
        // panic-free scope — only the named function, transitively.
        assert!(!in_panic_free_scope("crates/lint/src/lexer.rs"));
        assert!(!in_panic_free_scope("crates/server/src/reactor.rs"));
        assert!(is_env_exempt("crates/bench/src/cli.rs"));
        assert!(!is_env_exempt("crates/bench/src/lib.rs"));
    }

    #[test]
    fn lock_scope_covers_the_threaded_crates() {
        assert!(in_lock_scope("crates/runtime/src/pool.rs"));
        assert!(in_lock_scope("crates/server/src/jobs.rs"));
        assert!(in_lock_scope("crates/trace/src/collector.rs"));
        assert!(in_lock_scope("crates/cluster/src/executor.rs"));
        assert!(!in_lock_scope("crates/pipeline/src/converter.rs"));
    }
}

//! `adc-lint` — workspace-native static analysis for the pipeline-ADC
//! repo.
//!
//! The workspace makes three structural claims: campaign results are
//! **deterministic** (bit-identical at any thread count, cache state,
//! or build profile), the wire protocol's decoding is **total** (any
//! byte sequence parses or yields a typed error — never a panic), and
//! numeric code keeps **float discipline** (no exact equality, no
//! NaN-unsafe orderings). Runtime tests spot-check those claims; this
//! crate enforces them at the source level, so a stray
//! `Instant::now()` seed or `unwrap()` in a decode path fails CI
//! before it can fail a customer.
//!
//! The engine is std-only and from scratch, matching the workspace's
//! zero-external-deps ethos: a hand-written lexer ([`lexer`]) feeds
//! token-subsequence rules ([`rules`]) scoped by path ([`config`]),
//! with audited suppressions ([`pragma`]) and a human or JSON report
//! ([`report`]). On top of the token layer sits a symbol
//! layer: a lightweight item parser extracts functions, impls, and
//! imports; a workspace call graph resolves call sites across crates;
//! and three interprocedural passes — transitive panic-reachability,
//! determinism taint, and lock-order deadlock analysis — turn the
//! per-file rules into whole-program claims. See `DESIGN.md` §10 for
//! the rule catalogue and §15 for the interprocedural architecture.
//!
//! ```no_run
//! use adc_lint::scan_workspace;
//! let report = scan_workspace(std::path::Path::new(".")).unwrap();
//! assert!(report.is_clean(), "{}", report.render_human());
//! ```

pub mod config;
pub mod engine;
mod facts;
mod graph;
mod graphout;
mod items;
pub mod lexer;
mod locks;
pub mod pragma;
mod reach;
pub mod report;
pub mod rules;
mod taint;

pub use engine::{
    analyze_files, analyze_source, scan_workspace, scan_workspace_full, workspace_files,
    AnalyzedWorkspace,
};
pub use graph::ResolutionStats;
pub use graphout::GraphExports;
pub use report::{Diagnostic, Report};
pub use rules::{RuleInfo, RULES};

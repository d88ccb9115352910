//! The scan driver: file discovery, the two-layer analysis pipeline,
//! and suppression.
//!
//! [`scan_workspace`] walks the workspace's first-party source roots
//! (`src/` and `crates/*/src/`, recursively — integration tests,
//! benches, `vendor/` stand-ins, and `target/` are out of scope),
//! then runs both layers over the whole file set at once:
//!
//! 1. **Per-file token rules** ([`crate::rules`]) — exactly as before.
//! 2. **Interprocedural passes** — the item parser (`items`) and call
//!    graph (`graph`) feed panic-reachability (`reach`), determinism
//!    taint (`taint`), and lock-order analysis (`locks`), plus the
//!    `config-drift` meta-check that every scope entry in
//!    [`crate::config`] still names something real.
//!
//! Suppression is central: every diagnostic — textual or
//! interprocedural — is matched against the file's allow pragmas by
//! (rule, target line) in one allow table; facts discharged at their
//! source take from the same table, and any pragma that suppressed
//! nothing is an `unused-allow` error. Discovery sorts paths and every pass iterates
//! in stable order, so a report is byte-identical across runs and
//! machines — the engine holds itself to the determinism bar it
//! enforces.
//!
//! [`analyze_source`] is the single-file core kept for fixture tests;
//! [`analyze_files`] is the multi-file entry the workspace scan and
//! the interprocedural fixtures share.

use std::path::{Path, PathBuf};

use crate::config;
use crate::facts;
use crate::graph::{self, FileData, ResolutionStats};
use crate::graphout::{self, GraphExports};
use crate::items::{parse_file, token_maps};
use crate::lexer::lex;
use crate::locks;
use crate::pragma::AllowTable;
use crate::reach;
use crate::report::{Diagnostic, Report};
use crate::rules::{check_file, FileCtx};
use crate::taint;

/// Everything a full workspace analysis produces.
#[derive(Debug, Default)]
pub struct AnalyzedWorkspace {
    /// The diagnostic report (post-suppression, sorted, deduplicated).
    pub report: Report,
    /// Call-graph resolution statistics.
    pub stats: ResolutionStats,
    /// Rendered `--graph-out` artifacts.
    pub exports: GraphExports,
}

/// Analyzes one file's source text as if it lived at `rel_path`
/// (workspace-relative, `/`-separated). Returns the surviving
/// diagnostics: rule hits not covered by an allow pragma, plus
/// `bad-pragma` and `unused-allow` meta-diagnostics. Interprocedural
/// passes run over the single file's (degenerate) call graph;
/// `config-drift` is skipped — a one-file view proves nothing about
/// the workspace.
pub fn analyze_source(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    analyze_files(&[(rel_path, source)], false)
        .report
        .diagnostics
}

/// Analyzes a set of files as one workspace. `check_config` enables
/// the `config-drift` meta-check (full scans only — fixture subsets
/// would always look stale).
pub fn analyze_files(files: &[(&str, &str)], check_config: bool) -> AnalyzedWorkspace {
    // Layer 0: lex + per-file structures.
    let lexed: Vec<_> = files.iter().map(|(_, src)| lex(src)).collect();
    let maps: Vec<_> = lexed.iter().map(|l| token_maps(&l.tokens)).collect();
    let items: Vec<_> = files
        .iter()
        .zip(&lexed)
        .zip(&maps)
        .map(|(((path, _), l), m)| parse_file(path, &l.tokens, m))
        .collect();
    let data: Vec<FileData<'_>> = files
        .iter()
        .zip(&lexed)
        .zip(&maps)
        .zip(&items)
        .map(|((((path, _), l), m), it)| FileData {
            rel_path: path,
            tokens: &l.tokens,
            maps: m,
            items: it,
        })
        .collect();

    // Pragmas, then layer 1: per-file token rules.
    let mut raw: Vec<Diagnostic> = Vec::new();
    let mut allows = AllowTable::default();
    for (((path, _), l), m) in files.iter().zip(&lexed).zip(&maps) {
        raw.extend(allows.add_file(path, l));
        raw.extend(check_file(&FileCtx {
            rel_path: path,
            tokens: &l.tokens,
            comments: &l.comments,
            maps: m,
        }));
    }

    // Layer 2: call graph + interprocedural passes.
    let g = graph::build(&data);
    let fx = facts::collect(&g, &data, &mut allows);
    raw.extend(reach::run(&g, &data, &fx));
    raw.extend(taint::run(&g, &data, &fx));
    let (lock_diags, lock_graph) = locks::run(&g, &data, &fx);
    raw.extend(lock_diags);
    if check_config {
        raw.extend(config_drift(&data, &g));
    }
    let exports = graphout::render(&g, &data, &lock_graph);

    // Central suppression: a diagnostic survives unless a pragma takes
    // it; then every pragma nothing took is stale.
    let mut out: Vec<Diagnostic> = raw
        .into_iter()
        .filter(|d| !allows.take(&d.file, d.line, &[d.rule.as_str()]))
        .collect();
    out.extend(allows.unused());

    out.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then_with(|| a.line.cmp(&b.line))
            .then_with(|| a.rule.cmp(&b.rule))
    });
    out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.rule == b.rule);

    AnalyzedWorkspace {
        report: Report {
            files_scanned: files.len(),
            diagnostics: out,
        },
        stats: g.stats.clone(),
        exports,
    }
}

/// The `config-drift` meta-check: every scope entry in
/// [`crate::config`] must still name a scanned file, directory, or
/// resolvable symbol. A stale entry silently checks nothing, which in
/// deny mode must itself be an error.
fn config_drift(data: &[FileData<'_>], g: &graph::Graph) -> Vec<Diagnostic> {
    const CONFIG_FILE: &str = "crates/lint/src/config.rs";
    let rel_paths: Vec<&str> = data.iter().map(|f| f.rel_path).collect();
    let mut out = Vec::new();
    let mut drift = |message: String| {
        out.push(Diagnostic {
            rule: "config-drift".to_string(),
            file: CONFIG_FILE.to_string(),
            line: 1,
            message,
        });
    };
    for root in config::DETERMINISM_ROOTS {
        if !rel_paths.iter().any(|p| p.starts_with(&format!("{root}/"))) {
            drift(format!(
                "DETERMINISM_ROOTS entry `{root}` matches no scanned file; the scope \
                 silently checks nothing — fix or remove the entry"
            ));
        }
    }
    for file in config::DETERMINISM_FILES {
        if !rel_paths.contains(file) {
            drift(format!(
                "DETERMINISM_FILES entry `{file}` matches no scanned file; the scope \
                 silently checks nothing — fix or remove the entry"
            ));
        }
    }
    for root in config::LOCK_SCOPES {
        if !rel_paths.iter().any(|p| p.starts_with(&format!("{root}/"))) {
            drift(format!(
                "LOCK_SCOPES entry `{root}` matches no scanned file; the scope \
                 silently checks nothing — fix or remove the entry"
            ));
        }
    }
    for root in config::PANIC_ROOTS {
        if !rel_paths.contains(&root.path) {
            drift(format!(
                "PANIC_ROOTS entry `{}` matches no scanned file; the root anchors \
                 nothing — fix or remove the entry",
                root.path
            ));
            continue;
        }
        if g.roots_for(root.path, root.symbol, &rel_paths).is_empty() {
            drift(format!(
                "PANIC_ROOTS entry `{}::{}` names no function in that file; the root \
                 anchors nothing — fix or remove the entry",
                root.path,
                root.symbol.unwrap_or("*")
            ));
        }
    }
    for file in config::ENV_EXEMPT_FILES {
        if !rel_paths.contains(file) {
            drift(format!(
                "ENV_EXEMPT_FILES entry `{file}` matches no scanned file; the \
                 exemption covers nothing — fix or remove the entry"
            ));
        }
    }
    out
}

/// Discovers the `.rs` files in scope under `root`, sorted for
/// deterministic reports: `src/` and every `crates/<name>/src/` tree.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    collect_rs(&root.join("src"), &mut files)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        members.sort();
        for member in members {
            collect_rs(&member.join("src"), &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            collect_rs(&entry, out)?;
        } else if entry.extension().is_some_and(|x| x == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

/// Workspace-relative `/`-separated rendering of `path` under `root`.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Scans the whole workspace rooted at `root`, returning the full
/// analysis: report, resolution stats, and graph exports.
///
/// # Errors
///
/// Propagates I/O failures from discovery or reading; an unreadable
/// tree is a scan failure, never a silently shorter report.
pub fn scan_workspace_full(root: &Path) -> std::io::Result<AnalyzedWorkspace> {
    let paths = workspace_files(root)?;
    let mut sources = Vec::with_capacity(paths.len());
    for file in &paths {
        sources.push((rel_path(root, file), std::fs::read_to_string(file)?));
    }
    let views: Vec<(&str, &str)> = sources
        .iter()
        .map(|(p, s)| (p.as_str(), s.as_str()))
        .collect();
    Ok(analyze_files(&views, true))
}

/// Scans the whole workspace rooted at `root` (report only).
///
/// # Errors
///
/// Propagates I/O failures from discovery or reading.
pub fn scan_workspace(root: &Path) -> std::io::Result<Report> {
    scan_workspace_full(root).map(|a| a.report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_pragma_suppresses_and_is_marked_used() {
        let src = "\
// adc-lint: allow(no-hash-collections) reason=\"keys sorted before iteration\"
use std::collections::HashMap;
fn f() {}
";
        let diags = analyze_source("crates/runtime/src/x.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unused_allow_is_diagnosed() {
        let src = "// adc-lint: allow(no-panic) reason=\"placeholder\"\nfn f() {}\n";
        let diags = analyze_source("crates/server/src/protocol.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "unused-allow");
        assert_eq!(diags[0].line, 1);
    }

    #[test]
    fn pragma_for_the_wrong_rule_does_not_suppress() {
        let src = "\
// adc-lint: allow(no-wallclock) reason=\"wrong rule\"
use std::collections::HashMap;
";
        let diags = analyze_source("crates/runtime/src/x.rs", src);
        // The real violation survives AND the pragma is unused.
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().any(|d| d.rule == "no-hash-collections"));
        assert!(diags.iter().any(|d| d.rule == "unused-allow"));
    }

    #[test]
    fn diagnostics_are_line_sorted() {
        let src = "fn f() { let a = Instant::now(); }\nfn g() { let b = Instant::now(); }\n";
        let diags = analyze_source("crates/bias/src/x.rs", src);
        assert_eq!(diags.len(), 2);
        assert!(diags[0].line < diags[1].line);
    }

    #[test]
    fn interprocedural_panic_reach_crosses_files() {
        let a = analyze_files(
            &[
                (
                    "crates/server/src/protocol.rs",
                    "use crate::helpers::tail;\npub fn decode(v: &[u8]) -> u8 { tail(v) }\n",
                ),
                (
                    "crates/server/src/helpers.rs",
                    "pub fn tail(v: &[u8]) -> u8 { v.last().copied().unwrap() }\n",
                ),
            ],
            false,
        );
        let diags = &a.report.diagnostics;
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "panic-reach");
        assert_eq!(diags[0].file, "crates/server/src/helpers.rs");
    }

    #[test]
    fn panic_reach_allow_at_the_fact_site_suppresses_and_is_used() {
        let a = analyze_files(
            &[
                (
                    "crates/server/src/protocol.rs",
                    "use crate::helpers::tail;\npub fn decode(v: &[u8]) -> u8 { tail(v) }\n",
                ),
                (
                    "crates/server/src/helpers.rs",
                    "pub fn tail(v: &[u8]) -> u8 {\n    \
                     // adc-lint: allow(panic-reach) reason=\"caller checks non-empty\"\n    \
                     v.last().copied().unwrap()\n}\n",
                ),
            ],
            false,
        );
        assert!(
            a.report.diagnostics.is_empty(),
            "{:?}",
            a.report.diagnostics
        );
    }

    #[test]
    fn config_drift_fires_on_missing_scopes_in_full_scans() {
        // A tiny file set that clearly misses every configured scope.
        let a = analyze_files(&[("crates/server/src/other.rs", "pub fn f() {}\n")], true);
        let drift: Vec<_> = a
            .report
            .diagnostics
            .iter()
            .filter(|d| d.rule == "config-drift")
            .collect();
        assert!(!drift.is_empty());
        assert!(drift.iter().all(|d| d.file == "crates/lint/src/config.rs"));
    }
}

//! Determinism-taint propagation.
//!
//! A function is *tainted* when it contains an undischarged
//! nondeterminism source (wall-clock read, thread id, hash-order
//! collection, env read) or calls a tainted function. Sources inside
//! the determinism-scoped crates are already per-file errors; this
//! pass catches *laundering* — a determinism-scoped caller reaching a
//! source hidden in a helper crate outside the scope. One diagnostic
//! fires per scope-boundary call site, carrying the witness chain down
//! to the source.

use std::collections::{BTreeMap, VecDeque};

use crate::config;
use crate::facts::FnFacts;
use crate::graph::{FileData, Graph};
use crate::report::Diagnostic;

/// Runs the pass; returns raw (pre-suppression) diagnostics.
pub(crate) fn run(graph: &Graph, files: &[FileData<'_>], facts: &[FnFacts]) -> Vec<Diagnostic> {
    // next_hop[f] = callee on f's path to a source (None at sources).
    let mut next_hop: BTreeMap<usize, Option<usize>> = BTreeMap::new();
    let mut queue = VecDeque::new();
    for (idx, f) in facts.iter().enumerate() {
        if !f.taint_sites.is_empty() {
            next_hop.insert(idx, None);
            queue.push_back(idx);
        }
    }
    // Reverse edges.
    let mut callers: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (caller, sites) in graph.sites.iter().enumerate() {
        for site in sites {
            for &callee in &site.callees {
                callers.entry(callee).or_default().push(caller);
            }
        }
    }
    while let Some(cur) = queue.pop_front() {
        for &caller in callers.get(&cur).map(Vec::as_slice).unwrap_or(&[]) {
            if next_hop.contains_key(&caller) {
                continue;
            }
            next_hop.insert(caller, Some(cur));
            queue.push_back(caller);
        }
    }

    let mut out = Vec::new();
    for (caller_idx, sites) in graph.sites.iter().enumerate() {
        let Some(caller) = graph.syms.get(caller_idx) else {
            continue;
        };
        let Some(caller_fd) = files.get(caller.file) else {
            continue;
        };
        if !config::in_determinism_scope(caller_fd.rel_path) {
            continue;
        }
        for site in sites {
            for &callee_idx in &site.callees {
                if !next_hop.contains_key(&callee_idx) {
                    continue;
                }
                let Some(callee) = graph.syms.get(callee_idx) else {
                    continue;
                };
                let callee_path = files
                    .get(callee.file)
                    .map(|f| f.rel_path)
                    .unwrap_or_default();
                // In-scope callees are covered by the per-file source
                // rules; the boundary is where laundering happens.
                if config::in_determinism_scope(callee_path) {
                    continue;
                }
                let (chain, src) = trace(graph, files, facts, &next_hop, callee_idx);
                out.push(Diagnostic {
                    rule: "determinism-taint".to_string(),
                    file: caller_fd.rel_path.to_string(),
                    line: site.line,
                    message: format!(
                        "determinism-scoped code calls `{}`, which reaches {src} \
                         (via {chain}); results would stop being a pure function of \
                         config and seed",
                        callee.qname
                    ),
                });
            }
        }
    }
    out
}

/// Witness chain from `start` down to its source, plus the source
/// description.
fn trace(
    graph: &Graph,
    files: &[FileData<'_>],
    facts: &[FnFacts],
    next_hop: &BTreeMap<usize, Option<usize>>,
    start: usize,
) -> (String, String) {
    let mut chain = Vec::new();
    let mut cur = start;
    let mut guard = 0;
    loop {
        chain.push(
            graph
                .syms
                .get(cur)
                .map(|s| s.qname.clone())
                .unwrap_or_default(),
        );
        match next_hop.get(&cur) {
            Some(Some(next)) if guard < 32 => {
                cur = *next;
                guard += 1;
            }
            _ => break,
        }
    }
    let src = facts
        .get(cur)
        .and_then(|f| f.taint_sites.first())
        .map(|(line, desc)| {
            let path = graph
                .syms
                .get(cur)
                .and_then(|s| files.get(s.file))
                .map(|f| f.rel_path)
                .unwrap_or_default();
            format!("{desc} at {path}:{line}")
        })
        .unwrap_or_else(|| "a nondeterminism source".to_string());
    (chain.join(" -> "), src)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts;
    use crate::graph::{build, FileData};
    use crate::items::{parse_file, token_maps};
    use crate::lexer::lex;
    use crate::pragma::AllowTable;

    fn run_on(sources: &[(&str, &str)]) -> Vec<Diagnostic> {
        let lexed: Vec<_> = sources.iter().map(|(_, s)| lex(s)).collect();
        let maps: Vec<_> = lexed.iter().map(|l| token_maps(&l.tokens)).collect();
        let items: Vec<_> = sources
            .iter()
            .zip(&lexed)
            .zip(&maps)
            .map(|(((p, _), l), m)| parse_file(p, &l.tokens, m))
            .collect();
        let data: Vec<FileData<'_>> = sources
            .iter()
            .zip(&lexed)
            .zip(&maps)
            .zip(&items)
            .map(|((((p, _), l), m), it)| FileData {
                rel_path: p,
                tokens: &l.tokens,
                maps: m,
                items: it,
            })
            .collect();
        let graph = build(&data);
        let fx = facts::collect(&graph, &data, &mut AllowTable::default());
        run(&graph, &data, &fx)
    }

    #[test]
    fn laundered_wallclock_fires_at_the_scope_boundary() {
        let diags = run_on(&[
            (
                "crates/runtime/src/job.rs",
                "use adc_server::util::stamp;\npub fn seed_jobs() -> u64 { stamp() }\n",
            ),
            (
                "crates/server/src/util.rs",
                "pub fn stamp() -> u64 { ticks() }\n\
                 pub fn ticks() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n",
            ),
        ]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "determinism-taint");
        assert_eq!(diags[0].file, "crates/runtime/src/job.rs");
        assert!(diags[0].message.contains("Instant::now"));
        assert!(diags[0].message.contains("server::util::ticks"));
    }

    #[test]
    fn in_scope_sources_are_left_to_the_per_file_rule() {
        let diags = run_on(&[(
            "crates/runtime/src/job.rs",
            "pub fn seed() -> u64 { helper() }\n\
             pub fn helper() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n",
        )]);
        // Both fns are in scope: the textual no-wallclock rule owns the
        // source; no boundary diagnostic.
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn untainted_out_of_scope_helpers_are_fine() {
        let diags = run_on(&[
            (
                "crates/runtime/src/job.rs",
                "use adc_server::util::pure;\npub fn seed_jobs() -> u64 { pure(7) }\n",
            ),
            (
                "crates/server/src/util.rs",
                "pub fn pure(x: u64) -> u64 { x * 3 }\n",
            ),
        ]);
        assert!(diags.is_empty(), "{diags:?}");
    }
}

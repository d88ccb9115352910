//! Transitive panic-reachability from the declared panic roots.
//!
//! BFS from every root function over call *and* reference edges; any
//! undischarged panicking construct in a reached function is a
//! `panic-reach` error at the construct's own line, with the witness
//! call path in the message. Dynamic call sites reached from a root
//! degrade to `callgraph-opaque` — the pass cannot see through a
//! function value, so it says so instead of silently passing.

use std::collections::{BTreeMap, VecDeque};

use crate::config;
use crate::facts::FnFacts;
use crate::graph::{FileData, Graph};
use crate::report::Diagnostic;

/// Runs the pass; returns raw (pre-suppression) diagnostics.
pub(crate) fn run(graph: &Graph, files: &[FileData<'_>], facts: &[FnFacts]) -> Vec<Diagnostic> {
    let rel_paths: Vec<&str> = files.iter().map(|f| f.rel_path).collect();
    let mut queue = VecDeque::new();
    // parent[sym] = (caller sym, root sym) for witness reconstruction.
    let mut seen: BTreeMap<usize, Option<usize>> = BTreeMap::new();
    let mut root_of: BTreeMap<usize, usize> = BTreeMap::new();
    for root in config::PANIC_ROOTS {
        for idx in graph.roots_for(root.path, root.symbol, &rel_paths) {
            if seen.insert(idx, None).is_none() {
                root_of.insert(idx, idx);
                queue.push_back(idx);
            }
        }
    }
    while let Some(cur) = queue.pop_front() {
        let root = root_of.get(&cur).copied().unwrap_or(cur);
        for site in graph.sites.get(cur).map(Vec::as_slice).unwrap_or(&[]) {
            for &callee in &site.callees {
                if seen.contains_key(&callee) {
                    continue;
                }
                seen.insert(callee, Some(cur));
                root_of.insert(callee, root);
                queue.push_back(callee);
            }
        }
    }

    let mut out = Vec::new();
    for &sym_idx in seen.keys() {
        let Some(sym) = graph.syms.get(sym_idx) else {
            continue;
        };
        let Some(fd) = files.get(sym.file) else {
            continue;
        };
        let Some(f) = facts.get(sym_idx) else {
            continue;
        };
        let path = witness(graph, &seen, &root_of, sym_idx);
        for (line, what) in &f.panic_sites {
            out.push(Diagnostic {
                rule: "panic-reach".to_string(),
                file: fd.rel_path.to_string(),
                line: *line,
                message: format!(
                    "{what} is reachable from panic root `{}`: {path}; return a typed \
                     error along this path or allow(panic-reach) with a reason",
                    root_name(graph, &root_of, sym_idx),
                ),
            });
        }
        for line in &f.dynamic_sites {
            out.push(Diagnostic {
                rule: "callgraph-opaque".to_string(),
                file: fd.rel_path.to_string(),
                line: *line,
                message: format!(
                    "call through a function value is opaque to panic-reachability \
                     (reached from root `{}`: {path}); the pass cannot prove this \
                     path panic-free — restructure to a named fn or allow(callgraph-opaque)",
                    root_name(graph, &root_of, sym_idx),
                ),
            });
        }
    }
    out
}

fn root_name(graph: &Graph, root_of: &BTreeMap<usize, usize>, sym: usize) -> String {
    root_of
        .get(&sym)
        .and_then(|&r| graph.syms.get(r))
        .map(|s| s.qname.clone())
        .unwrap_or_default()
}

fn witness(
    graph: &Graph,
    seen: &BTreeMap<usize, Option<usize>>,
    _root_of: &BTreeMap<usize, usize>,
    sym: usize,
) -> String {
    let mut chain = Vec::new();
    let mut cur = Some(sym);
    while let Some(c) = cur {
        chain.push(
            graph
                .syms
                .get(c)
                .map(|s| s.qname.clone())
                .unwrap_or_default(),
        );
        cur = seen.get(&c).copied().flatten();
        if chain.len() > 32 {
            break;
        }
    }
    chain.reverse();
    chain.join(" -> ")
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
    fn unwrap_in_a_helper_called_by_a_root_is_caught() {
        let diags = run_on(&[
            (
                "crates/server/src/protocol.rs",
                "use crate::wire::grab;\npub fn decode(v: &[u8]) -> u8 { grab(v) }\n",
            ),
            (
                "crates/server/src/wire.rs",
                "pub fn grab(v: &[u8]) -> u8 { v.first().copied().unwrap() }\n",
            ),
        ]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "panic-reach");
        assert_eq!(diags[0].file, "crates/server/src/wire.rs");
        assert!(diags[0].message.contains("server::protocol::decode"));
        assert!(diags[0].message.contains("server::wire::grab"));
    }

    #[test]
    fn unreached_panics_are_not_reported() {
        let diags = run_on(&[
            (
                "crates/server/src/protocol.rs",
                "pub fn decode(v: &[u8]) -> u8 { v.first().copied().unwrap_or(0) }\n",
            ),
            (
                "crates/server/src/other.rs",
                "pub fn free_standing(v: &[u8]) -> u8 { v[0] }\n",
            ),
        ]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn dynamic_sites_on_root_paths_degrade_to_opaque() {
        let diags = run_on(&[(
            "crates/server/src/protocol.rs",
            "pub fn decode(v: &[u8], f: &dyn Fn(&[u8]) -> u8) -> u8 { f(v) }\n",
        )]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "callgraph-opaque");
    }

    #[test]
    fn symbol_roots_cover_only_the_named_fn() {
        let diags = run_on(&[
            (
                "crates/lint/src/lexer.rs",
                "pub fn lex(s: &str) -> u8 { helper(s) }\n\
                 pub fn debug_dump(s: &str) -> u8 { s.as_bytes()[0] }\n",
            ),
            (
                "crates/lint/src/util.rs",
                "pub fn helper(s: &str) -> u8 { s.as_bytes()[0] }\n",
            ),
        ]);
        // `lex` reaches helper's indexing; `debug_dump` is not a root
        // so its own indexing is not reported.
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].file, "crates/lint/src/util.rs");
    }
}

//! Per-function facts feeding the interprocedural passes: panicking
//! constructs, nondeterminism sources, blocking channel operations,
//! dynamic-call sites, and lock-guard acquisition spans.
//!
//! Facts are collected once per function. Panicking constructs and
//! nondeterminism sources come from [`crate::rules::construct_at`],
//! the table the per-file rules report from, so the two layers never
//! disagree on what counts as a panic or a wall-clock read: it holds
//! by construction. Facts are *discharged at the source* by allow
//! pragmas: a fact whose line carries a matching `adc-lint: allow(..)`
//! never enters propagation, and taking it from the
//! [`AllowTable`] marks the pragma used.

use crate::config;
use crate::graph::{FileData, Graph, RecvClass, Res};
use crate::lexer::TokenKind;
use crate::pragma::AllowTable;
use crate::rules::construct_at;

/// Identity of a lock as seen from inside one function.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum LockId {
    /// A workspace-global lock: `Owner.field` or a static's name.
    Concrete(String),
    /// The enclosing function's k-th parameter (resolved per call
    /// site by the lock pass).
    Param(usize),
}

/// What a guard span acquired.
#[derive(Debug, Clone)]
pub(crate) enum AcqKind {
    /// A direct `.lock()`/`.read()`/`.write()` on a known lock.
    Std(Vec<LockId>),
    /// A call to a guard-returning workspace fn — the held set is the
    /// callee's transitive acquisitions (site index into the caller's
    /// call-site list).
    CallEscape(usize),
}

/// One guard-holding span inside a function body (token indices).
#[derive(Debug, Clone)]
pub(crate) struct Acq {
    /// What was acquired.
    pub kind: AcqKind,
    /// Token index where the guard becomes live.
    pub start: usize,
    /// Token index where the guard drops (inclusive).
    pub end: usize,
    /// 1-based line of the acquisition.
    pub line: u32,
}

/// All facts for one function symbol.
#[derive(Debug, Clone, Default)]
pub(crate) struct FnFacts {
    /// Undischarged panicking constructs: `(line, description)`.
    pub panic_sites: Vec<(u32, String)>,
    /// Undischarged nondeterminism sources: `(line, description)`.
    pub taint_sites: Vec<(u32, String)>,
    /// Lines of dynamic (fn-value) call sites.
    pub dynamic_sites: Vec<u32>,
    /// Blocking channel ops: `(site token, line, op name)`.
    pub chan_ops: Vec<(usize, u32, String)>,
    /// Guard acquisition spans.
    pub acqs: Vec<Acq>,
}

/// Collects facts for every symbol in the graph. A fact whose line
/// carries a matching allow pragma is discharged: `allows` marks the
/// pragma used, and the fact never enters propagation.
pub(crate) fn collect(
    graph: &Graph,
    files: &[FileData<'_>],
    allows: &mut AllowTable<'_>,
) -> Vec<FnFacts> {
    let mut out = Vec::with_capacity(graph.syms.len());
    for (k, sym) in graph.syms.iter().enumerate() {
        let mut facts = FnFacts::default();
        let Some(fd) = files.get(sym.file) else {
            out.push(facts);
            continue;
        };
        let Some((open, close)) = sym.item.body else {
            out.push(facts);
            continue;
        };
        // Nested fns own their token ranges.
        let nested: Vec<(usize, usize)> = graph
            .syms
            .iter()
            .filter(|s| {
                s.file == sym.file
                    && s.item.sig_start > open
                    && s.item.body.is_some_and(|(_, c)| c < close)
                    && s.item.sig_start != sym.item.sig_start
            })
            .filter_map(|s| s.item.body.map(|(_, c)| (s.item.sig_start, c)))
            .collect();
        let skip = |i: usize| nested.iter().any(|&(a, b)| i >= a && i <= b) || fd.maps.in_attr(i);

        let toks = fd.tokens;
        // Whole-file panic roots are owned by the per-file `no-panic`
        // rule; recording their panics here would double-report.
        let whole_file_root = config::in_panic_free_scope(fd.rel_path);
        let env_exempt = config::is_env_exempt(fd.rel_path);
        // A `.expect(..)` that resolved to a *workspace* method is not
        // `Option::expect` — the callee's own body carries its facts;
        // flagging the call would be a false positive on any method
        // that shares the name.
        let resolved_method = |i: usize| {
            i.checked_sub(1)
                .and_then(|p| toks.get(p))
                .is_some_and(|p| p.text == ".")
                && graph.sites.get(k).is_some_and(|sites| {
                    sites
                        .iter()
                        .any(|s| s.tok == i + 1 && !s.callees.is_empty())
                })
        };
        for i in open + 1..close {
            if skip(i) {
                continue;
            }
            let Some(c) = construct_at(toks, i, env_exempt) else {
                continue;
            };
            let line = toks.get(i).map_or(0, |t| t.line);
            if c.rule != "no-panic" {
                if !allows.take(fd.rel_path, line, &[c.rule, "determinism-taint"]) {
                    facts.taint_sites.push((line, c.what));
                }
            } else if !whole_file_root
                && !resolved_method(i)
                && !allows.take(fd.rel_path, line, &["panic-reach"])
            {
                facts.panic_sites.push((line, c.what));
            }
        }

        // Call-site-derived facts: dynamic calls, channel ops, guard
        // acquisitions.
        let sites = graph.sites.get(k).map(Vec::as_slice).unwrap_or(&[]);
        for (sidx, site) in sites.iter().enumerate() {
            if site.is_ref {
                continue;
            }
            if site.res == Res::Dynamic {
                facts.dynamic_sites.push(site.line);
                continue;
            }
            // Blocking channel ops: `.send(..)`/`.recv()` that is not
            // a workspace method on a typed receiver. An untyped
            // receiver keeps both interpretations (conservative).
            if matches!(site.name.as_str(), "send" | "recv" | "recv_timeout")
                && (site.res == Res::External || site.recv == RecvClass::Unknown)
                && !allows.take(fd.rel_path, site.line, &["lock-across-send"])
            {
                facts
                    .chan_ops
                    .push((site.tok, site.line, site.name.clone()));
            }
            // Guard acquisitions.
            let std_ids: Option<Vec<LockId>> =
                if matches!(site.name.as_str(), "lock" | "read" | "write")
                    && site.args.is_empty()
                    && site.res == Res::External
                {
                    match &site.recv {
                        RecvClass::LockField(owner, field) => {
                            Some(vec![LockId::Concrete(format!("{owner}.{field}"))])
                        }
                        RecvClass::LockStatic(name) => Some(vec![LockId::Concrete(name.clone())]),
                        RecvClass::LockLocal(name) => {
                            Some(vec![LockId::Concrete(format!("{}::{name}", sym.qname))])
                        }
                        RecvClass::LockParam(kth) => Some(vec![LockId::Param(*kth)]),
                        _ => None,
                    }
                } else {
                    None
                };
            let escapes = site
                .callees
                .iter()
                .any(|&c| graph.syms.get(c).is_some_and(|s| s.item.returns_guard));
            let kind = match std_ids {
                Some(ids) => Some(AcqKind::Std(ids)),
                None if escapes => Some(AcqKind::CallEscape(sidx)),
                None => None,
            };
            if let Some(kind) = kind {
                let end = span_end(fd, (open, close), site.tok);
                facts.acqs.push(Acq {
                    kind,
                    start: site.tok,
                    end,
                    line: site.line,
                });
            }
        }
        out.push(facts);
    }
    out
}

/// Where the guard produced by the acquisition at `tok` drops.
///
/// The binding statement decides: `let g = ..` lives to the enclosing
/// brace close (shortened by an explicit `drop(g)`), `let _ = ..` and
/// plain expression statements are temporaries dropped at the next
/// `;`/`{`, and `match`/`for`/`if let`/`while let` scrutinees live to
/// the end of the following block. All approximations err long — a
/// longer span can only add lock-order edges, never hide one.
fn span_end(fd: &FileData<'_>, body: (usize, usize), tok: usize) -> usize {
    let toks = fd.tokens;
    let (body_open, body_close) = body;
    // Find the statement start: walk back to the nearest `;`/`{`/`}`
    // at reverse bracket depth 0, or an unmatched opener.
    let mut i = tok;
    let mut depth = 0i64;
    let stmt_start = loop {
        if i <= body_open {
            break body_open + 1;
        }
        i -= 1;
        match toks.get(i).map_or("", |t| t.text) {
            ")" | "]" | "}" if depth >= 0 => depth += 1,
            "(" | "[" | "{" => {
                depth -= 1;
                if depth < 0 {
                    break i + 1;
                }
            }
            ";" if depth == 0 => break i + 1,
            _ => {}
        }
    };
    let t0 = toks.get(stmt_start).map_or("", |t| t.text);
    let t1 = toks.get(stmt_start + 1).map_or("", |t| t.text);

    let enclosing_brace_close = || -> usize {
        let mut best: Option<(usize, usize)> = None;
        for o in body_open..tok {
            let c = fd.maps.brace.get(o).copied().unwrap_or(crate::items::NONE);
            if c == crate::items::NONE || toks.get(o).map_or("", |t| t.text) != "{" {
                continue;
            }
            if o < tok && tok < c && best.is_none_or(|(bo, bc)| c - o < bc - bo) {
                best = Some((o, c));
            }
        }
        best.map_or(body_close, |(_, c)| c)
    };
    let next_block_close = || -> usize {
        let mut depth = 0i64;
        let mut j = tok;
        while j < body_close {
            match toks.get(j).map_or("", |t| t.text) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    return fd
                        .maps
                        .brace
                        .get(j)
                        .copied()
                        .filter(|&c| c != crate::items::NONE)
                        .unwrap_or(body_close);
                }
                _ => {}
            }
            j += 1;
        }
        body_close
    };
    let next_terminator = || -> usize {
        let mut depth = 0i64;
        let mut j = tok;
        while j < body_close {
            match toks.get(j).map_or("", |t| t.text) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                ";" | "{" if depth <= 0 => return j,
                _ => {}
            }
            j += 1;
        }
        body_close
    };

    // A chain that continues past the guard consumes it as a
    // temporary: `let own = q.lock().expect("..").pop_front();` binds
    // the popped value, and the guard drops at the `;`. Only the
    // guard-preserving adapters `.unwrap()`/`.expect(..)` keep the
    // let-bound classification.
    let chained_past_guard = || -> bool {
        let mut j = fd
            .maps
            .paren
            .get(tok)
            .copied()
            .unwrap_or(crate::items::NONE);
        loop {
            if j == crate::items::NONE || j + 1 >= toks.len() {
                return false;
            }
            if toks.get(j + 1).map_or("", |t| t.text) != "." {
                return false;
            }
            let name = toks.get(j + 2).map_or("", |t| t.text);
            if !matches!(name, "unwrap" | "expect") || toks.get(j + 3).map_or("", |t| t.text) != "("
            {
                return true;
            }
            j = fd
                .maps
                .paren
                .get(j + 3)
                .copied()
                .unwrap_or(crate::items::NONE);
        }
    };

    if t0 == "let" {
        if chained_past_guard() {
            return next_terminator();
        }
        // Binding name: last lower-case ident in the pattern before
        // `=` (skipping `mut`); `_` alone is a temporary.
        let eq = (stmt_start..tok)
            .find(|&j| toks.get(j).is_some_and(|t| t.text == "="))
            .unwrap_or(tok);
        let name = (stmt_start + 1..eq)
            .filter_map(|j| toks.get(j))
            .rfind(|t| {
                t.kind == TokenKind::Ident
                    && t.text != "mut"
                    && t.text
                        .starts_with(|c: char| c.is_ascii_lowercase() || c == '_')
            })
            .map(|t| t.text);
        match name {
            None | Some("_") => return next_terminator(),
            Some(n) => {
                let close = enclosing_brace_close();
                // `drop(n)` releases early.
                let mut j = tok;
                while j + 3 <= close {
                    if toks.get(j).is_some_and(|t| t.text == "drop")
                        && toks.get(j + 1).is_some_and(|t| t.text == "(")
                        && toks.get(j + 2).is_some_and(|t| t.text == n)
                        && toks.get(j + 3).is_some_and(|t| t.text == ")")
                    {
                        return j;
                    }
                    j += 1;
                }
                return close;
            }
        }
    }
    if (t0 == "if" || t0 == "while") && t1 == "let" {
        return next_block_close();
    }
    if t0 == "match" || t0 == "for" {
        return next_block_close();
    }
    next_terminator()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{build, FileData};
    use crate::items::{parse_file, token_maps};
    use crate::lexer::lex;

    fn facts_for(src: &str, path: &str, fn_name: &str) -> FnFacts {
        let lexed = lex(src);
        let maps = token_maps(&lexed.tokens);
        let items = parse_file(path, &lexed.tokens, &maps);
        let fd = FileData {
            rel_path: path,
            tokens: &lexed.tokens,
            maps: &maps,
            items: &items,
        };
        let files = [fd];
        let graph = build(&files);
        let facts = collect(&graph, &files, &mut AllowTable::default());
        let idx = graph
            .syms
            .iter()
            .position(|s| s.item.name == fn_name)
            .unwrap_or_else(|| panic!("no fn {fn_name}"));
        facts.get(idx).cloned().unwrap_or_default()
    }

    #[test]
    fn panic_and_taint_facts_are_per_function() {
        let f = facts_for(
            "pub fn bad(v: &[u8]) -> u8 { v[0] }\n\
             pub fn worse(o: Option<u8>) -> u8 { o.unwrap() }\n\
             pub fn timed() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n",
            "crates/server/src/h.rs",
            "bad",
        );
        assert_eq!(f.panic_sites.len(), 1);
        assert!(f.panic_sites[0].1.contains("indexing"));
        let f2 = facts_for(
            "pub fn worse(o: Option<u8>) -> u8 { o.unwrap() }\n",
            "crates/server/src/h.rs",
            "worse",
        );
        assert_eq!(f2.panic_sites.len(), 1);
        let f3 = facts_for(
            "pub fn timed() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n",
            "crates/server/src/h.rs",
            "timed",
        );
        assert_eq!(f3.taint_sites.len(), 1);
        assert!(f3.taint_sites[0].1.contains("Instant"));
    }

    #[test]
    fn let_bound_guards_live_to_brace_close_and_drop_shortens() {
        let src = "pub struct S { m: Mutex<u32> }\n\
             impl S {\n\
             pub fn held(&self) {\n    let g = self.m.lock();\n    work();\n}\n\
             pub fn dropped(&self) {\n    let g = self.m.lock();\n    drop(g);\n    work();\n}\n\
             pub fn temp(&self) {\n    self.m.lock();\n    work();\n}\n\
             }\npub fn work() {}\n";
        let held = facts_for(src, "crates/runtime/src/s.rs", "held");
        assert_eq!(held.acqs.len(), 1);
        let dropped = facts_for(src, "crates/runtime/src/s.rs", "dropped");
        let temp = facts_for(src, "crates/runtime/src/s.rs", "temp");
        assert_eq!(dropped.acqs.len(), 1);
        assert!(
            dropped.acqs[0].end < held.acqs[0].end
                || dropped.acqs[0].end - dropped.acqs[0].start
                    < held.acqs[0].end - held.acqs[0].start,
            "drop(g) must shorten the span"
        );
        assert!(
            temp.acqs[0].end - temp.acqs[0].start < held.acqs[0].end - held.acqs[0].start,
            "temporary guard must be shorter than let-bound"
        );
        match &held.acqs[0].kind {
            AcqKind::Std(ids) => {
                assert_eq!(ids, &vec![LockId::Concrete("S.m".to_string())]);
            }
            other => panic!("expected Std acquisition, got {other:?}"),
        }
    }

    #[test]
    fn guard_consumed_by_a_chain_is_a_temporary() {
        // A queue pop through a temporary guard: the let binds the
        // popped element, not the guard, so the guard must not be
        // treated as held for the rest of the block.
        let src = "pub struct S { m: Mutex<Vec<u32>> }\n\
             impl S {\n\
             pub fn chained(&self) {\n    let own = self.m.lock().expect(\"q\").pop();\n    work();\n}\n\
             pub fn held(&self) {\n    let g = self.m.lock().expect(\"q\");\n    work();\n}\n\
             }\npub fn work() {}\n";
        let chained = facts_for(src, "crates/runtime/src/s.rs", "chained");
        let held = facts_for(src, "crates/runtime/src/s.rs", "held");
        assert_eq!(chained.acqs.len(), 1);
        assert_eq!(held.acqs.len(), 1);
        assert!(
            chained.acqs[0].end - chained.acqs[0].start < held.acqs[0].end - held.acqs[0].start,
            "chain-consumed guard must drop at the statement end"
        );
    }

    #[test]
    fn channel_ops_and_dynamic_sites_are_recorded() {
        let f = facts_for(
            "pub fn pump(tx: &Sender<u32>, f: &dyn Fn() -> u32) {\n    tx.send(f());\n}\n",
            "crates/runtime/src/c.rs",
            "pump",
        );
        assert_eq!(f.chan_ops.len(), 1);
        assert_eq!(f.chan_ops[0].2, "send");
        assert_eq!(f.dynamic_sites.len(), 1);
    }

    #[test]
    fn whole_file_panic_roots_leave_facts_to_the_textual_rule() {
        let f = facts_for(
            "pub fn decode(v: &[u8]) -> u8 { v[0] }\n",
            "crates/server/src/protocol.rs",
            "decode",
        );
        assert!(f.panic_sites.is_empty());
    }
}

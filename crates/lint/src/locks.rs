//! Interprocedural lock-order analysis.
//!
//! Guard spans from [`crate::facts`] give each function its directly
//! held locks; a fixpoint propagates acquisition sets and
//! blocking-send behaviour through the call graph, mapping lock-typed
//! parameters through call-site arguments (the `lock_ignore_poison(&M)`
//! and `fn lock(&self) -> MutexGuard` wrapper idioms both resolve to
//! the concrete lock at the call site). Nesting — span-over-span
//! within one function, or a call made while a guard is held whose
//! callee transitively acquires — becomes a directed edge in the
//! workspace lock-order graph. A cycle (including a self-loop: taking
//! a lock while already holding it) is a potential deadlock and is
//! denied, as is any blocking channel `send`/`recv` under a guard.
//!
//! Edges are collected workspace-wide; diagnostics bind the crates in
//! [`crate::config::LOCK_SCOPES`].
//!
//! Unlike reachability, this pass follows only **uniquely** resolved
//! calls. An ambiguous site fans out to every same-named candidate,
//! and one shared method name (`len`, `lock`, `get`) would import
//! unrelated acquisition sets and fabricate deadlock cycles on clean
//! code — a deny-mode false positive. Skipping non-unique edges is a
//! documented under-approximation in the direction this pass can
//! afford: a missed edge loses one witness, not soundness of the rest.

use std::collections::{BTreeMap, BTreeSet};

use crate::config;
use crate::facts::{Acq, AcqKind, FnFacts, LockId};
use crate::graph::{CallSite, FileData, Graph, RecvClass, Res};
use crate::report::Diagnostic;

/// Transitive acquisition summary for one function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Summary {
    /// Workspace-global lock ids this fn may acquire.
    concrete: BTreeSet<String>,
    /// Own parameters this fn may lock (mapped at call sites).
    params: BTreeSet<usize>,
    /// May perform a blocking channel op.
    sends: bool,
}

/// One witness for a lock-order edge.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Witness {
    file: String,
    line: u32,
    qname: String,
}

/// One edge witness: `(file, line, holder qname)`.
pub(crate) type LockWitness = (String, u32, String);

/// The exported lock-order graph: edges with their witnesses.
#[derive(Debug, Clone, Default)]
pub(crate) struct LockGraph {
    /// `(held, acquired)` → witnesses.
    pub edges: BTreeMap<(String, String), Vec<LockWitness>>,
}

/// Runs the pass; returns raw diagnostics plus the lock graph for
/// `--graph-out`.
pub(crate) fn run(
    graph: &Graph,
    files: &[FileData<'_>],
    facts: &[FnFacts],
) -> (Vec<Diagnostic>, LockGraph) {
    let summaries = fixpoint(graph, facts);
    let mut edges: BTreeMap<(String, String), BTreeSet<Witness>> = BTreeMap::new();
    let mut out = Vec::new();

    for (k, f) in facts.iter().enumerate() {
        let Some(sym) = graph.syms.get(k) else {
            continue;
        };
        let Some(fd) = files.get(sym.file) else {
            continue;
        };
        let sites = graph.sites.get(k).map(Vec::as_slice).unwrap_or(&[]);
        let in_scope = config::in_lock_scope(fd.rel_path);
        let spans: Vec<(usize, Vec<String>)> = f
            .acqs
            .iter()
            .enumerate()
            .map(|(a, acq)| (a, span_ids(graph, sym, sites, &summaries, acq)))
            .collect();

        // Span-over-span nesting.
        for (ai, acq_a) in f.acqs.iter().enumerate() {
            let a_ids = spans.get(ai).map(|(_, v)| v.as_slice()).unwrap_or(&[]);
            for (bi, acq_b) in f.acqs.iter().enumerate() {
                if ai == bi || acq_b.start <= acq_a.start || acq_b.start > acq_a.end {
                    continue;
                }
                let b_ids = spans.get(bi).map(|(_, v)| v.as_slice()).unwrap_or(&[]);
                for a in a_ids {
                    for b in b_ids {
                        edges
                            .entry((a.clone(), b.clone()))
                            .or_default()
                            .insert(Witness {
                                file: fd.rel_path.to_string(),
                                line: acq_b.line,
                                qname: sym.qname.clone(),
                            });
                    }
                }
            }
            // Calls made while this guard is held (unique only).
            for (sidx, site) in sites.iter().enumerate() {
                if site.is_ref
                    || site.res != Res::Unique
                    || site.tok <= acq_a.start
                    || site.tok > acq_a.end
                    || is_own_site(acq_a, sidx)
                {
                    continue;
                }
                let mut acquired: BTreeSet<String> = BTreeSet::new();
                let mut sends_under_lock = false;
                let mut sender = String::new();
                for &c in &site.callees {
                    let Some(cs) = summaries.get(c) else { continue };
                    acquired.extend(cs.concrete.iter().cloned());
                    for &p in &cs.params {
                        if let Some(id) = map_arg(sym, site, p) {
                            acquired.insert(id);
                        }
                    }
                    if cs.sends {
                        sends_under_lock = true;
                        sender = graph
                            .syms
                            .get(c)
                            .map(|s| s.qname.clone())
                            .unwrap_or_default();
                    }
                }
                for a in a_ids {
                    for b in &acquired {
                        edges
                            .entry((a.clone(), b.clone()))
                            .or_default()
                            .insert(Witness {
                                file: fd.rel_path.to_string(),
                                line: site.line,
                                qname: sym.qname.clone(),
                            });
                    }
                }
                if sends_under_lock && in_scope {
                    out.push(Diagnostic {
                        rule: "lock-across-send".to_string(),
                        file: fd.rel_path.to_string(),
                        line: site.line,
                        message: format!(
                            "call into `{sender}` performs a blocking channel op while \
                             {} is held; drop the guard first or make the send \
                             non-blocking",
                            held_desc(a_ids),
                        ),
                    });
                }
            }
            // Direct channel ops under this guard.
            if in_scope {
                for (tok, line, op) in &f.chan_ops {
                    if *tok > acq_a.start && *tok <= acq_a.end {
                        out.push(Diagnostic {
                            rule: "lock-across-send".to_string(),
                            file: fd.rel_path.to_string(),
                            line: *line,
                            message: format!(
                                "blocking channel `.{op}(..)` while {} is held; a full \
                                 or disconnected channel would park this thread with \
                                 the lock taken",
                                held_desc(a_ids),
                            ),
                        });
                    }
                }
            }
        }
    }

    // Cycle detection over the concrete-id digraph.
    out.extend(cycle_diagnostics(&edges));

    let lock_graph = LockGraph {
        edges: edges
            .into_iter()
            .map(|(k, ws)| {
                (
                    k,
                    ws.into_iter().map(|w| (w.file, w.line, w.qname)).collect(),
                )
            })
            .collect(),
    };
    (out, lock_graph)
}

fn is_own_site(acq: &Acq, sidx: usize) -> bool {
    matches!(acq.kind, AcqKind::CallEscape(s) if s == sidx)
}

fn held_desc(ids: &[String]) -> String {
    match ids.first() {
        Some(id) => format!("lock `{id}`"),
        None => "a lock guard".to_string(),
    }
}

/// Concrete lock ids held by one guard span.
fn span_ids(
    graph: &Graph,
    sym: &crate::graph::Sym,
    sites: &[CallSite],
    summaries: &[Summary],
    acq: &Acq,
) -> Vec<String> {
    let mut out = BTreeSet::new();
    match &acq.kind {
        AcqKind::Std(ids) => {
            for id in ids {
                match id {
                    LockId::Concrete(s) => {
                        out.insert(s.clone());
                    }
                    // A param lock has no workspace-global identity
                    // inside this fn; callers see it via arg mapping.
                    LockId::Param(_) => {}
                }
            }
        }
        AcqKind::CallEscape(sidx) => {
            if let Some(site) = sites.get(*sidx).filter(|s| s.res == Res::Unique) {
                for &c in &site.callees {
                    let Some(cs) = summaries.get(c) else { continue };
                    out.extend(cs.concrete.iter().cloned());
                    for &p in &cs.params {
                        if let Some(id) = map_arg(sym, site, p) {
                            out.insert(id);
                        }
                    }
                }
            }
        }
    }
    let _ = graph;
    out.into_iter().collect()
}

/// Maps a callee's lock-typed parameter `p` to a concrete id via the
/// call-site argument. Unknown arguments drop (documented
/// under-approximation).
fn map_arg(caller: &crate::graph::Sym, site: &CallSite, p: usize) -> Option<String> {
    match site.arg_class.get(p)? {
        RecvClass::LockField(owner, field) => Some(format!("{owner}.{field}")),
        RecvClass::LockStatic(name) => Some(name.clone()),
        RecvClass::LockLocal(name) => Some(format!("{}::{name}", caller.qname)),
        _ => None,
    }
}

/// Propagates acquisition sets and send behaviour to a fixpoint.
fn fixpoint(graph: &Graph, facts: &[FnFacts]) -> Vec<Summary> {
    let n = graph.syms.len();
    let mut summaries: Vec<Summary> = vec![Summary::default(); n];
    for (k, f) in facts.iter().enumerate() {
        let Some(s) = summaries.get_mut(k) else {
            continue;
        };
        s.sends = !f.chan_ops.is_empty();
        for acq in &f.acqs {
            if let AcqKind::Std(ids) = &acq.kind {
                for id in ids {
                    match id {
                        LockId::Concrete(c) => {
                            s.concrete.insert(c.clone());
                        }
                        LockId::Param(p) => {
                            s.params.insert(*p);
                        }
                    }
                }
            }
        }
    }
    for _ in 0..n.max(4) {
        let mut changed = false;
        for k in 0..n {
            let Some(sym) = graph.syms.get(k) else {
                continue;
            };
            let sites = graph.sites.get(k).map(Vec::as_slice).unwrap_or(&[]);
            let mut next = summaries.get(k).cloned().unwrap_or_default();
            for site in sites {
                if site.is_ref || site.res != Res::Unique {
                    continue;
                }
                for &c in &site.callees {
                    let Some(cs) = summaries.get(c).cloned() else {
                        continue;
                    };
                    next.concrete.extend(cs.concrete.iter().cloned());
                    for &p in &cs.params {
                        match map_arg(sym, site, p) {
                            Some(id) => {
                                next.concrete.insert(id);
                            }
                            None => {
                                // Caller passes its own param through.
                                if let Some(RecvClass::LockParam(j)) = site.arg_class.get(p) {
                                    next.params.insert(*j);
                                }
                            }
                        }
                    }
                    next.sends |= cs.sends;
                }
            }
            if summaries.get(k) != Some(&next) {
                if let Some(slot) = summaries.get_mut(k) {
                    *slot = next;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    summaries
}

/// One `lock-order` diagnostic per strongly-connected component that
/// contains a cycle, anchored at its lexicographically-first in-scope
/// witness.
fn cycle_diagnostics(edges: &BTreeMap<(String, String), BTreeSet<Witness>>) -> Vec<Diagnostic> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a.as_str()).or_default().insert(b.as_str());
        adj.entry(b.as_str()).or_default();
    }
    // A node is cyclic if it can reach itself through at least one edge.
    let reaches = |from: &str, to: &str| -> bool {
        let mut seen = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(cur) = stack.pop() {
            for &nxt in adj
                .get(cur)
                .map(|s| s.iter().collect::<Vec<_>>())
                .unwrap_or_default()
            {
                if nxt == to {
                    return true;
                }
                if seen.insert(nxt) {
                    stack.push(nxt);
                }
            }
        }
        false
    };
    let cyclic: BTreeSet<&str> = adj.keys().copied().filter(|&n| reaches(n, n)).collect();
    // Group cyclic nodes into components (mutual reachability).
    let mut assigned: BTreeSet<&str> = BTreeSet::new();
    let mut out = Vec::new();
    for &node in &cyclic {
        if assigned.contains(node) {
            continue;
        }
        let comp: Vec<&str> = cyclic
            .iter()
            .copied()
            .filter(|&m| m == node || (reaches(node, m) && reaches(m, node)))
            .collect();
        for &m in &comp {
            assigned.insert(m);
        }
        // Witnesses of in-component edges, in-scope files only.
        let mut witnesses: Vec<&Witness> = edges
            .iter()
            .filter(|((a, b), _)| comp.contains(&a.as_str()) && comp.contains(&b.as_str()))
            .flat_map(|(_, ws)| ws.iter())
            .filter(|w| config::in_lock_scope(&w.file))
            .collect();
        witnesses.sort();
        let Some(w) = witnesses.first() else {
            continue;
        };
        let ring = if comp.len() == 1 {
            format!("`{0}` -> `{0}` (re-entrant acquisition)", node)
        } else {
            let mut r = comp
                .iter()
                .map(|n| format!("`{n}`"))
                .collect::<Vec<_>>()
                .join(" -> ");
            r.push_str(&format!(" -> `{}`", comp.first().copied().unwrap_or("")));
            r
        };
        out.push(Diagnostic {
            rule: "lock-order".to_string(),
            file: w.file.clone(),
            line: w.line,
            message: format!(
                "lock-order cycle: {ring}; acquired here in `{}` — a concurrent \
                 thread taking these locks in the other order deadlocks. Establish \
                 one global order or merge the locks",
                w.qname
            ),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts;
    use crate::graph::{build, FileData};
    use crate::items::{parse_file, token_maps};
    use crate::lexer::lex;
    use crate::pragma::AllowTable;

    fn run_on(sources: &[(&str, &str)]) -> (Vec<Diagnostic>, LockGraph) {
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
    fn ab_ba_cycle_is_denied() {
        let (diags, lg) = run_on(&[(
            "crates/runtime/src/two.rs",
            "static A: Mutex<u32> = Mutex::new(0);\n\
             static B: Mutex<u32> = Mutex::new(0);\n\
             pub fn ab() {\n    let a = A.lock();\n    let b = B.lock();\n}\n\
             pub fn ba() {\n    let b = B.lock();\n    let a = A.lock();\n}\n",
        )]);
        let cycles: Vec<_> = diags.iter().filter(|d| d.rule == "lock-order").collect();
        assert_eq!(cycles.len(), 1, "{diags:?}");
        assert!(cycles[0].message.contains('A') && cycles[0].message.contains('B'));
        assert!(lg.edges.contains_key(&("A".to_string(), "B".to_string())));
        assert!(lg.edges.contains_key(&("B".to_string(), "A".to_string())));
    }

    #[test]
    fn consistent_order_is_clean() {
        let (diags, lg) = run_on(&[(
            "crates/runtime/src/two.rs",
            "static A: Mutex<u32> = Mutex::new(0);\n\
             static B: Mutex<u32> = Mutex::new(0);\n\
             pub fn ab() {\n    let a = A.lock();\n    let b = B.lock();\n}\n\
             pub fn ab_again() {\n    let a = A.lock();\n    let b = B.lock();\n}\n",
        )]);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(lg.edges.len(), 1);
    }

    #[test]
    fn interprocedural_cycle_through_a_wrapper_is_found() {
        let (diags, _) = run_on(&[
            (
                "crates/cluster/src/shared.rs",
                "pub struct Shared { pub sched: Mutex<u32> }\n\
                 impl Shared {\n    pub fn lock(&self) -> MutexGuard<'_, u32> { self.sched.lock().unwrap_or_else(e) }\n}\n",
            ),
            (
                "crates/cluster/src/user.rs",
                "static REGISTRY: Mutex<u32> = Mutex::new(0);\n\
                 pub fn one(s: &Shared) {\n    let g = s.lock();\n    let r = REGISTRY.lock();\n}\n\
                 pub fn two(s: &Shared) {\n    let r = REGISTRY.lock();\n    let g = s.lock();\n}\n",
            ),
        ]);
        let cycles: Vec<_> = diags.iter().filter(|d| d.rule == "lock-order").collect();
        assert_eq!(cycles.len(), 1, "{diags:?}");
        assert!(cycles[0].message.contains("Shared.sched"));
        assert!(cycles[0].message.contains("REGISTRY"));
    }

    #[test]
    fn param_locks_map_through_helper_calls() {
        let (diags, _) = run_on(&[(
            "crates/trace/src/h.rs",
            "static ACTIVE: Mutex<u32> = Mutex::new(0);\n\
             static LANES: Mutex<u32> = Mutex::new(0);\n\
             pub fn lock_ignore_poison(m: &Mutex<u32>) -> MutexGuard<'_, u32> { m.lock().unwrap_or_else(e) }\n\
             pub fn fwd() {\n    let a = lock_ignore_poison(&ACTIVE);\n    let l = lock_ignore_poison(&LANES);\n}\n\
             pub fn rev() {\n    let l = lock_ignore_poison(&LANES);\n    let a = lock_ignore_poison(&ACTIVE);\n}\n",
        )]);
        let cycles: Vec<_> = diags.iter().filter(|d| d.rule == "lock-order").collect();
        assert_eq!(cycles.len(), 1, "{diags:?}");
        assert!(cycles[0].message.contains("ACTIVE"));
        assert!(cycles[0].message.contains("LANES"));
    }

    #[test]
    fn guard_across_blocking_send_is_denied_and_drop_clears_it() {
        let (diags, _) = run_on(&[(
            "crates/runtime/src/s.rs",
            "pub struct P { pub queue: Mutex<u32> }\n\
             impl P {\n\
             pub fn bad(&self, tx: &Sender<u32>) {\n    let q = self.queue.lock();\n    tx.send(1);\n}\n\
             pub fn good(&self, tx: &Sender<u32>) {\n    let q = self.queue.lock();\n    drop(q);\n    tx.send(1);\n}\n\
             }\n",
        )]);
        let sends: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "lock-across-send")
            .collect();
        assert_eq!(sends.len(), 1, "{diags:?}");
        assert!(sends[0].message.contains("P.queue"));
    }

    #[test]
    fn transitive_send_under_guard_is_denied() {
        let (diags, _) = run_on(&[(
            "crates/server/src/t.rs",
            "pub struct S { pub m: Mutex<u32> }\n\
             pub fn notify(tx: &Sender<u32>) { tx.send(9); }\n\
             impl S {\n\
             pub fn pump(&self, tx: &Sender<u32>) {\n    let g = self.m.lock();\n    notify(tx);\n}\n\
             }\n",
        )]);
        let sends: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "lock-across-send")
            .collect();
        assert_eq!(sends.len(), 1, "{diags:?}");
        assert!(sends[0].message.contains("notify"));
    }

    #[test]
    fn out_of_scope_files_build_edges_but_stay_silent() {
        let (diags, lg) = run_on(&[(
            "crates/pipeline/src/two.rs",
            "static A: Mutex<u32> = Mutex::new(0);\n\
             static B: Mutex<u32> = Mutex::new(0);\n\
             pub fn ab() {\n    let a = A.lock();\n    let b = B.lock();\n}\n\
             pub fn ba() {\n    let b = B.lock();\n    let a = A.lock();\n}\n",
        )]);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(lg.edges.len(), 2, "edges are still exported");
    }
}

//! The workspace call graph: symbol table, call-site extraction, and
//! name resolution.
//!
//! Resolution is deliberately conservative in a documented direction:
//! a call that cannot be pinned to one function gets edges to **every**
//! candidate (sound for reachability-style passes), and a call through
//! a function-typed value gets no edges at all but is recorded as a
//! *dynamic* site so the panic-reachability pass can degrade to a
//! `callgraph-opaque` diagnostic instead of silently missing paths.
//! Sites whose name matches nothing in the workspace are *external*
//! (std/vendor) and assumed non-panicking — their panicking std forms
//! (`unwrap`, `panic!`, indexing) are caught as direct facts instead.

use std::collections::BTreeMap;

use crate::items::{normalize_seg, principal_ty, FileItems, FnItem, TokenMaps, NONE};
use crate::lexer::{Token, TokenKind};

/// Everything the graph needs about one file.
#[derive(Debug)]
pub(crate) struct FileData<'a> {
    /// Workspace-relative path.
    pub rel_path: &'a str,
    /// Code tokens.
    pub tokens: &'a [Token<'a>],
    /// Bracket maps.
    pub maps: &'a TokenMaps,
    /// Parsed items.
    pub items: &'a FileItems,
}

/// One function symbol in the workspace.
#[derive(Debug, Clone)]
pub(crate) struct Sym {
    /// Index into the file list.
    pub file: usize,
    /// The parsed item (cloned out of `FileItems`).
    pub item: FnItem,
    /// Display path, e.g. `runtime::pool::JobPool::submit`.
    pub qname: String,
}

/// How a call site resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Res {
    /// Exactly one workspace candidate.
    Unique,
    /// Multiple candidates — edges to all of them (conservative).
    Ambiguous,
    /// No workspace candidate (std / vendored dep).
    External,
    /// Call through a function value — no edges, reported as opaque.
    Dynamic,
}

/// How the receiver of a method call classified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum RecvClass {
    /// No receiver (free or path call).
    None,
    /// `self.method()`.
    SelfRecv,
    /// Receiver chain typed to this principal type.
    Typed(String),
    /// Receiver is a `Mutex`/`RwLock` struct field: `(owner, field)`.
    LockField(String, String),
    /// Receiver is a lock-typed static.
    LockStatic(String),
    /// Receiver is the caller's k-th parameter, lock-typed.
    LockParam(usize),
    /// Receiver is a fn-local `let` whose statement mentions a lock.
    LockLocal(String),
    /// Could not type the receiver.
    Unknown,
}

/// One extracted call (or function-reference) site.
#[derive(Debug, Clone)]
pub(crate) struct CallSite {
    /// Token index of the opening `(` (calls) or the path start (refs).
    pub tok: usize,
    /// 1-based line.
    pub line: u32,
    /// Callee name as written (`<dynamic>` for dynamic sites).
    pub name: String,
    /// Resolved callee symbol indices.
    pub callees: Vec<usize>,
    /// Resolution class.
    pub res: Res,
    /// A bare `path::to::fn` mention (passed as a value) rather than an
    /// invocation — propagates reachability/taint, ignored by locks.
    pub is_ref: bool,
    /// Receiver classification (method calls).
    pub recv: RecvClass,
    /// Token ranges of the top-level arguments.
    pub args: Vec<(usize, usize)>,
    /// Per-argument receiver-style classification (for mapping
    /// lock-typed params through call sites).
    pub arg_class: Vec<RecvClass>,
}

/// A fn-local binding's inferred type.
#[derive(Debug, Clone, Default)]
pub(crate) struct LocalInfo {
    /// Principal type ident; empty = unknown.
    pub ty: String,
    /// The `let` statement mentions `Mutex`/`RwLock`/a lock alias —
    /// treating the binding as a fn-local lock instance.
    pub is_lock: bool,
}

/// Aggregate resolution statistics, exported with `--graph-out` and
/// asserted by the live-workspace meta-test.
#[derive(Debug, Clone, Default)]
pub struct ResolutionStats {
    /// Functions in the symbol table.
    pub functions: usize,
    /// Total call edges (including conservative fan-out).
    pub edges: usize,
    /// Call sites whose name matches at least one workspace function,
    /// plus dynamic sites (the resolution denominator).
    pub sites: usize,
    /// Sites pinned to exactly one callee.
    pub unique: usize,
    /// Sites with conservative multi-candidate edges.
    pub ambiguous: usize,
    /// Calls through function values (no edges, reported not dropped).
    pub dynamic: usize,
    /// Sites resolved to std/vendor code (not in the denominator).
    pub external: usize,
    /// Human-readable `file:line` entries for every non-unique site.
    pub unresolved: Vec<String>,
}

impl ResolutionStats {
    /// Fraction of denominator sites resolved to a single callee.
    pub fn resolution_rate(&self) -> f64 {
        if self.sites == 0 {
            return 1.0;
        }
        self.unique as f64 / self.sites as f64
    }
}

/// The built call graph.
#[derive(Debug)]
pub(crate) struct Graph {
    /// All function symbols.
    pub syms: Vec<Sym>,
    /// Per-symbol call sites.
    pub sites: Vec<Vec<CallSite>>,
    /// Per-symbol local-binding types.
    pub locals: Vec<BTreeMap<String, LocalInfo>>,
    /// `(owner, field)` → `(principal type, is_lock)` across structs.
    pub fields: BTreeMap<(String, String), (String, bool)>,
    /// `(enum, variant)` → single tuple-payload principal type.
    pub variants: BTreeMap<(String, String), String>,
    /// Static name → `(principal type, is_lock)`.
    pub statics: BTreeMap<String, (String, bool)>,
    /// Lock alias names (workspace-wide union).
    pub lock_aliases: Vec<String>,
    /// Resolution statistics.
    pub stats: ResolutionStats,
}

impl Graph {
    /// Symbols matching `file` path and optional symbol name.
    pub fn roots_for(&self, rel_path: &str, symbol: Option<&str>, files: &[&str]) -> Vec<usize> {
        let Some(fidx) = files.iter().position(|p| *p == rel_path) else {
            return Vec::new();
        };
        self.syms
            .iter()
            .enumerate()
            .filter(|(_, s)| s.file == fidx && symbol.is_none_or(|n| s.item.name == n))
            .map(|(i, _)| i)
            .collect()
    }
}

const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "in", "as", "move", "fn", "let", "else", "loop",
    "break", "continue", "unsafe", "ref", "mut", "box", "await", "use", "pub", "where", "impl",
    "dyn", "type", "const", "static", "enum", "struct", "trait", "mod", "yield",
];

/// Sentinel receiver type for values known to be std/vendor (lock
/// guards, collection adapters, external call results). It can never
/// collide with a Rust identifier, so typed method resolution against
/// it always lands on [`Res::External`].
pub(crate) const EXT_TY: &str = "#ext";

/// Guard-preserving / identity adapters: when a typed receiver has no
/// workspace impl for one of these, the result keeps the receiver's
/// type instead of becoming external. Container accessors belong here
/// because the collapsed principal of `&[Token]` IS `Token` — getting
/// an element (or an iterator over elements) preserves the principal.
const IDENTITY_METHODS: &[&str] = &[
    "clone",
    "as_ref",
    "as_mut",
    "borrow",
    "borrow_mut",
    "get",
    "get_mut",
    "first",
    "last",
    "iter",
    "iter_mut",
    "into_iter",
];

/// Builds the graph over all files.
pub(crate) fn build(files: &[FileData<'_>]) -> Graph {
    let mut syms = Vec::new();
    let mut fields = BTreeMap::new();
    let mut variants = BTreeMap::new();
    let mut statics = BTreeMap::new();
    let mut lock_aliases = Vec::new();
    for (fidx, fd) in files.iter().enumerate() {
        for item in &fd.items.fns {
            let mut qname = item.module.join("::");
            if let Some(ty) = &item.self_ty {
                qname.push_str("::");
                qname.push_str(ty);
            }
            qname.push_str("::");
            qname.push_str(&item.name);
            syms.push(Sym {
                file: fidx,
                item: item.clone(),
                qname,
            });
        }
        for f in &fd.items.fields {
            fields
                .entry((f.owner.clone(), f.name.clone()))
                .or_insert((f.ty.clone(), f.is_lock));
        }
        for v in &fd.items.variants {
            variants
                .entry((v.owner.clone(), v.name.clone()))
                .or_insert_with(|| v.payload.clone());
        }
        for s in &fd.items.statics {
            statics
                .entry(s.name.clone())
                .or_insert((s.ty.clone(), s.is_lock));
        }
        for a in &fd.items.lock_aliases {
            if !lock_aliases.contains(a) {
                lock_aliases.push(a.clone());
            }
        }
    }
    let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, s) in syms.iter().enumerate() {
        by_name.entry(s.item.name.clone()).or_default().push(i);
    }
    // Re-export aliases: `pub use path::f as g` lets `g` (and
    // `mod::g`) resolve to `path::f`'s symbol.
    let aliases = build_aliases(files, &syms, &by_name);

    let mut graph = Graph {
        sites: Vec::with_capacity(syms.len()),
        locals: Vec::with_capacity(syms.len()),
        syms,
        fields,
        variants,
        statics,
        lock_aliases,
        stats: ResolutionStats::default(),
    };
    graph.stats.functions = graph.syms.len();

    for k in 0..graph.syms.len() {
        let sym = graph.syms.get(k).cloned();
        let Some(sym) = sym else { continue };
        let Some(fd) = files.get(sym.file) else {
            graph.sites.push(Vec::new());
            graph.locals.push(BTreeMap::new());
            continue;
        };
        let locals = collect_locals(&graph, files, &by_name, &aliases, &sym, fd);
        let sites = extract_sites(&graph, files, &by_name, &aliases, k, &sym, fd, &locals);
        graph.locals.push(locals);
        graph.sites.push(sites);
    }
    // Fold stats.
    let mut stats = std::mem::take(&mut graph.stats);
    for (k, sites) in graph.sites.iter().enumerate() {
        for s in sites {
            if s.is_ref {
                stats.edges += s.callees.len();
                continue;
            }
            match s.res {
                Res::Unique => {
                    stats.sites += 1;
                    stats.unique += 1;
                }
                Res::Ambiguous => {
                    stats.sites += 1;
                    stats.ambiguous += 1;
                    if let Some(sym) = graph.syms.get(k) {
                        if let Some(fd) = files.get(sym.file) {
                            stats.unresolved.push(format!(
                                "{}:{} `{}` ambiguous ({} candidates) in {}",
                                fd.rel_path,
                                s.line,
                                s.name,
                                s.callees.len(),
                                sym.qname
                            ));
                        }
                    }
                }
                Res::Dynamic => {
                    stats.sites += 1;
                    stats.dynamic += 1;
                    if let Some(sym) = graph.syms.get(k) {
                        if let Some(fd) = files.get(sym.file) {
                            stats.unresolved.push(format!(
                                "{}:{} dynamic call in {}",
                                fd.rel_path, s.line, sym.qname
                            ));
                        }
                    }
                }
                Res::External => stats.external += 1,
            }
            stats.edges += s.callees.len();
        }
    }
    graph.stats = stats;
    graph
}

/// `(alias module path + name)` → target symbol indices.
type AliasTable = Vec<(Vec<String>, String, Vec<usize>)>;

fn build_aliases(
    files: &[FileData<'_>],
    syms: &[Sym],
    by_name: &BTreeMap<String, Vec<usize>>,
) -> AliasTable {
    let mut out = AliasTable::new();
    for fd in files {
        for u in &fd.items.uses {
            if !u.is_pub || u.glob || u.name.is_empty() {
                continue;
            }
            let Some(target_name) = u.path.last() else {
                continue;
            };
            let Some(cands) = by_name.get(target_name.as_str()) else {
                continue;
            };
            let abs = resolve_use_path(&u.path, &fd.items.module);
            let matched: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&c| {
                    syms.get(c).is_some_and(|s| {
                        qual_matches(abs.get(..abs.len().saturating_sub(1)).unwrap_or(&[]), s)
                    })
                })
                .collect();
            if !matched.is_empty() {
                out.push((fd.items.module.clone(), u.name.clone(), matched));
            }
        }
    }
    out
}

/// Rewrites a use/import path's leading `crate`/`self`/`super` against
/// the declaring module; normalizes a crate-ish first segment.
fn resolve_use_path(path: &[String], module: &[String]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut rest = path;
    match path.first().map(String::as_str) {
        Some("crate") => {
            out.extend(module.first().cloned());
            rest = path.get(1..).unwrap_or(&[]);
        }
        Some("self") => {
            out.extend(module.iter().cloned());
            rest = path.get(1..).unwrap_or(&[]);
        }
        Some("super") => {
            let take = module.len().saturating_sub(1);
            out.extend(module.get(..take).unwrap_or(&[]).iter().cloned());
            rest = path.get(1..).unwrap_or(&[]);
        }
        Some(first) => {
            out.push(normalize_seg(first));
            rest = path.get(1..).unwrap_or(&[]);
        }
        None => {}
    }
    out.extend(rest.iter().cloned());
    out
}

/// `true` when `qual` (already rewritten/normalized) is an ordered
/// subsequence of the candidate's module-plus-self-type prefix. The
/// subsequence form tolerates re-export flattening
/// (`adc_runtime::ResultCache::load` vs. `runtime::cache::ResultCache`).
fn qual_matches(qual: &[String], sym: &Sym) -> bool {
    if qual.is_empty() {
        return true;
    }
    let mut prefix: Vec<&str> = sym.item.module.iter().map(String::as_str).collect();
    if let Some(ty) = &sym.item.self_ty {
        prefix.push(ty.as_str());
    }
    let mut qi = qual.iter();
    let mut want = qi.next();
    for seg in &prefix {
        if let Some(w) = want {
            if w == seg {
                want = qi.next();
            }
        }
    }
    want.is_none()
}

/// Infers local-binding types for one fn body.
///
/// Handles plain `let` statements, refutable `let Some(x)/Ok(x)`
/// bindings (`let .. else`, `if let`, `while let` — scopes are
/// flattened, shadowing keeps the last binding), and single-ident
/// `for` bindings. Initializers fall back to full chain typing via
/// [`receiver_class`] / [`call_result_ty`] against the bindings
/// collected so far.
fn collect_locals(
    graph: &Graph,
    files: &[FileData<'_>],
    by_name: &BTreeMap<String, Vec<usize>>,
    aliases: &AliasTable,
    sym: &Sym,
    fd: &FileData<'_>,
) -> BTreeMap<String, LocalInfo> {
    let item = &sym.item;
    let lock_aliases = &graph.lock_aliases;
    let mut out = BTreeMap::new();
    let Some((open, close)) = item.body else {
        return out;
    };
    let toks = fd.tokens;

    // Type + lock-ness of the expression whose last token is `last`,
    // resolved against the bindings collected so far. `?` peels off.
    let tail_ty = |mut last: usize, known: &BTreeMap<String, LocalInfo>| -> (String, bool) {
        let ctx = ResolveCtx {
            graph,
            files,
            by_name,
            aliases,
            caller: sym,
            locals: known,
        };
        while toks.get(last).is_some_and(|t| t.text == "?") {
            match last.checked_sub(1) {
                Some(l) => last = l,
                None => return (String::new(), false),
            }
        }
        if toks.get(last).is_some_and(|t| t.text == ")") {
            return (call_result_ty(&ctx, fd, toks, last), false);
        }
        match receiver_class(&ctx, fd, toks, Some(last)) {
            RecvClass::Typed(t) => (t, false),
            RecvClass::SelfRecv => (item.self_ty.clone().unwrap_or_default(), false),
            RecvClass::LockField(..)
            | RecvClass::LockStatic(_)
            | RecvClass::LockParam(_)
            | RecvClass::LockLocal(_) => (String::new(), true),
            _ => (String::new(), false),
        }
    };
    // First `else` / depth-0 `{` / depth-0 `;` from `from` — the end of
    // an initializer expression in any of the let shapes.
    let init_end = |from: usize, stop_brace: bool| -> usize {
        let mut depth = 0i64;
        let mut m = from;
        while m < close {
            match toks.get(m).map_or("", |t| t.text) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth <= 0 && stop_brace => return m,
                "{" => depth += 1,
                "}" => depth -= 1,
                "else" if depth <= 0 => return m,
                ";" if depth <= 0 => return m,
                _ => {}
            }
            m += 1;
        }
        close
    };

    let mut i = open + 1;
    while i < close {
        let text = toks.get(i).map_or("", |t| t.text);
        // `for x in expr {` — bind x to expr's (collapsed) type.
        if text == "for"
            && toks.get(i + 1).is_some_and(|t| {
                t.kind == TokenKind::Ident && !t.text.starts_with(char::is_uppercase)
            })
            && toks.get(i + 2).is_some_and(|t| t.text == "in")
        {
            let stop = init_end(i + 3, true);
            if let Some(last) = stop.checked_sub(1).filter(|&l| l > i + 2) {
                let (ty, is_lock) = tail_ty(last, &out);
                if !ty.is_empty() || is_lock {
                    let name = toks.get(i + 1).map_or("", |t| t.text).to_string();
                    out.insert(name, LocalInfo { ty, is_lock });
                }
            }
            i += 3;
            continue;
        }
        // `for (a, b) in chain.enumerate() {` — a is the usize index,
        // b carries the chain's element principal.
        if text == "for"
            && toks.get(i + 1).is_some_and(|t| t.text == "(")
            && toks.get(i + 2).is_some_and(|t| t.kind == TokenKind::Ident)
            && toks.get(i + 3).is_some_and(|t| t.text == ",")
            && toks.get(i + 4).is_some_and(|t| t.kind == TokenKind::Ident)
            && toks.get(i + 5).is_some_and(|t| t.text == ")")
            && toks.get(i + 6).is_some_and(|t| t.text == "in")
        {
            let stop = init_end(i + 7, true);
            let last = stop.saturating_sub(1);
            // `.. . enumerate ( )` — peel the adapter, type the rest.
            if toks.get(last).is_some_and(|t| t.text == ")")
                && toks
                    .get(last.wrapping_sub(2))
                    .is_some_and(|t| t.text == "enumerate")
                && toks
                    .get(last.wrapping_sub(3))
                    .is_some_and(|t| t.text == ".")
                && last >= i + 11
            {
                let idx = toks.get(i + 2).map_or("", |t| t.text).to_string();
                out.insert(
                    idx,
                    LocalInfo {
                        ty: EXT_TY.to_string(),
                        is_lock: false,
                    },
                );
                let (ty, is_lock) = tail_ty(last - 4, &out);
                if !ty.is_empty() || is_lock {
                    let name = toks.get(i + 4).map_or("", |t| t.text).to_string();
                    out.insert(name, LocalInfo { ty, is_lock });
                }
            }
            i += 7;
            continue;
        }
        // Single-param closure `(|x| ..` / `, |x| ..` — the param
        // carries the element principal of the adapter chain it hangs
        // off (`stmt.iter().position(|t| ..)` binds `t` to `Token`).
        if text == "|"
            && i.checked_sub(1)
                .and_then(|p| toks.get(p))
                .is_some_and(|t| matches!(t.text, "(" | "," | "move"))
            && toks.get(i + 1).is_some_and(|t| {
                t.kind == TokenKind::Ident && !t.text.starts_with(char::is_uppercase)
            })
            && toks.get(i + 2).is_some_and(|t| t.text == "|")
        {
            // Walk out to the unmatched `(` enclosing the closure, then
            // type the method-call receiver it belongs to.
            let mut depth = 0i64;
            let mut m = i;
            let open_paren = loop {
                let Some(p) = m.checked_sub(1).filter(|&p| p > open) else {
                    break None;
                };
                m = p;
                match toks.get(m).map_or("", |t| t.text) {
                    ")" | "]" | "}" => depth += 1,
                    "(" | "[" | "{" if depth > 0 => depth -= 1,
                    "(" => break Some(m),
                    "[" | "{" => break None,
                    _ => {}
                }
            };
            if let Some(p) = open_paren {
                let is_method = p >= 2
                    && toks.get(p - 1).is_some_and(|t| t.kind == TokenKind::Ident)
                    && toks.get(p - 2).is_some_and(|t| t.text == ".");
                if is_method {
                    let (ty, _) = tail_ty(p - 3, &out);
                    if !ty.is_empty() {
                        let name = toks.get(i + 1).map_or("", |t| t.text).to_string();
                        out.insert(name, LocalInfo { ty, is_lock: false });
                    }
                }
            }
            i += 3;
            continue;
        }
        // Match-arm variant patterns: `Enum::Variant(x) =>` binds the
        // tuple payload, `Enum::Variant { a, b } =>` binds the variant
        // fields (recorded under the enum's name). The trailing `=>`
        // is what separates patterns from constructor expressions.
        if text == "::" {
            let variant = toks
                .get(i + 1)
                .filter(|t| t.kind == TokenKind::Ident && t.text.starts_with(char::is_uppercase))
                .map(|t| t.text.to_string());
            let owner = i.checked_sub(1).and_then(|p| toks.get(p)).and_then(|t| {
                if t.text == "Self" {
                    item.self_ty.clone()
                } else if t.kind == TokenKind::Ident && t.text.starts_with(char::is_uppercase) {
                    Some(t.text.to_string())
                } else {
                    None
                }
            });
            if let (Some(variant), Some(owner)) = (variant, owner) {
                if toks.get(i + 2).is_some_and(|t| t.text == "(") {
                    let mut k = i + 3;
                    while toks
                        .get(k)
                        .is_some_and(|t| t.text == "ref" || t.text == "mut")
                    {
                        k += 1;
                    }
                    let bind = toks.get(k).filter(|t| {
                        t.kind == TokenKind::Ident && !t.text.starts_with(char::is_uppercase)
                    });
                    if let Some(bind) = bind {
                        if toks.get(k + 1).is_some_and(|t| t.text == ")")
                            && toks.get(k + 2).is_some_and(|t| t.text == "=>")
                        {
                            let ty = graph
                                .variants
                                .get(&(owner.clone(), variant.clone()))
                                .cloned()
                                .unwrap_or_default();
                            if !ty.is_empty() {
                                out.insert(bind.text.to_string(), LocalInfo { ty, is_lock: false });
                            }
                        }
                    }
                } else if toks.get(i + 2).is_some_and(|t| t.text == "{") {
                    let end = fd
                        .maps
                        .brace
                        .get(i + 2)
                        .copied()
                        .unwrap_or(crate::items::NONE);
                    if end != crate::items::NONE
                        && toks.get(end + 1).is_some_and(|t| t.text == "=>")
                    {
                        let mut m = i + 3;
                        while m < end {
                            let is_bind = toks.get(m).is_some_and(|t| {
                                t.kind == TokenKind::Ident
                                    && !t.text.starts_with(char::is_uppercase)
                            }) && toks
                                .get(m + 1)
                                .is_some_and(|t| t.text == "," || t.text == "}");
                            if is_bind {
                                let fname = toks.get(m).map_or("", |t| t.text);
                                if let Some((fty, flock)) =
                                    graph.fields.get(&(owner.clone(), fname.to_string()))
                                {
                                    out.insert(
                                        fname.to_string(),
                                        LocalInfo {
                                            ty: fty.clone(),
                                            is_lock: *flock,
                                        },
                                    );
                                }
                            }
                            m += 1;
                        }
                    }
                }
            }
            i += 1;
            continue;
        }
        if text == "let" {
            let cond_let = i
                .checked_sub(1)
                .and_then(|p| toks.get(p))
                .is_some_and(|t| t.text == "while" || t.text == "if");
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.text == "mut") {
                j += 1;
            }
            // Refutable single-binding pattern: `Some(x)` / `Ok(x)`.
            let pat = toks
                .get(j)
                .filter(|t| t.text == "Some" || t.text == "Ok")
                .and_then(|_| {
                    let mut k = j + 1;
                    if toks.get(k)?.text != "(" {
                        return None;
                    }
                    k += 1;
                    if toks.get(k).is_some_and(|t| t.text == "mut") {
                        k += 1;
                    }
                    let name = toks.get(k).filter(|t| {
                        t.kind == TokenKind::Ident && !t.text.starts_with(char::is_uppercase)
                    })?;
                    if toks.get(k + 1)?.text != ")" || toks.get(k + 2)?.text != "=" {
                        return None;
                    }
                    Some((name.text.to_string(), k + 3))
                });
            if let Some((name, from)) = pat {
                // `Option`/`Result` peeling is free: the collapsed
                // principal of the success value IS the chain's type.
                let stop = init_end(from, cond_let);
                if let Some(last) = stop.checked_sub(1).filter(|&l| l >= from) {
                    let (ty, is_lock) = tail_ty(last, &out);
                    out.insert(name, LocalInfo { ty, is_lock });
                }
                i = j + 1;
                continue;
            }
            if cond_let {
                i += 1;
                continue;
            }
            // `let [mut] name [:ty] = init ;`
            let name_tok = toks.get(j).filter(|t| t.kind == TokenKind::Ident);
            let after = toks.get(j + 1).map_or("", |t| t.text);
            if let Some(name) = name_tok {
                if after == ":" || after == "=" {
                    // Statement extent: to the `;` at relative depth 0.
                    let mut depth = 0i64;
                    let mut end = j;
                    while end < close {
                        match toks.get(end).map_or("", |t| t.text) {
                            "(" | "[" | "{" => depth += 1,
                            ")" | "]" | "}" => depth -= 1,
                            ";" if depth <= 0 => break,
                            _ => {}
                        }
                        end += 1;
                    }
                    let stmt = toks.get(i..end).unwrap_or(&[]);
                    let mut ty = infer_let_type(stmt, &out);
                    if ty.is_empty() {
                        ty = infer_call_ret(stmt, item, &graph.syms, by_name);
                    }
                    let mut chain_lock = false;
                    if ty.is_empty() {
                        (ty, chain_lock) = infer_field_chain(stmt, item, &out, &graph.fields);
                    }
                    // Chain-typing fallback — only when the initializer
                    // is a plain expression (a depth-0 `{` means a
                    // `match`/`if` arm result, whose tail token is not
                    // the value's type).
                    if ty.is_empty() && !chain_lock {
                        let eq = (j + 1..end)
                            .find(|&m| toks.get(m).is_some_and(|t| t.text == "="))
                            .map(|m| m + 1)
                            .unwrap_or(end);
                        if init_end(eq, true) >= end {
                            if let Some(last) = end.checked_sub(1).filter(|&l| l >= eq) {
                                (ty, chain_lock) = tail_ty(last, &out);
                            }
                        }
                    }
                    let is_lock = chain_lock
                        || stmt.iter().any(|t| {
                            t.kind == TokenKind::Ident
                                && (t.text == "Mutex"
                                    || t.text == "RwLock"
                                    || lock_aliases.iter().any(|a| a == t.text))
                        });
                    out.insert(name.text.to_string(), LocalInfo { ty, is_lock });
                    // Resume INSIDE the initializer, not past it: a
                    // `let x = match .. { .. };` init contains further
                    // `let`s (scopes are flattened; shadowing keeps the
                    // last binding, which is the close-enough answer).
                    i = j + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    out
}

/// Pointer-ish wrappers whose `::new`/`::clone` initializers should be
/// peeled to the wrapped value's type (matching [`principal_ty`]).
const WRAPPER_TYPES: &[&str] = &["Arc", "Rc", "Box", "RefCell", "Cell"];

/// Principal type of a `let` statement: the annotation if present,
/// else a `Type::ctor(..)` / `Type { .. }` initializer's type.
/// `Arc::new(Inner { .. })` peels to `Inner`; `Arc::clone(&x)` reuses
/// the already-collected type of `x`.
fn infer_let_type(stmt: &[Token<'_>], known: &BTreeMap<String, LocalInfo>) -> String {
    if let Some(colon) = stmt.iter().position(|t| t.text == ":") {
        let eq = stmt
            .iter()
            .position(|t| t.text == "=")
            .unwrap_or(stmt.len());
        if colon < eq {
            return principal_ty(stmt.get(colon + 1..eq).unwrap_or(&[]));
        }
    }
    if let Some(eq) = stmt.iter().position(|t| t.text == "=") {
        let init = stmt.get(eq + 1..).unwrap_or(&[]);
        let first = init.first();
        let starts_upper = first.is_some_and(|t| {
            t.kind == TokenKind::Ident && t.text.starts_with(|c: char| c.is_ascii_uppercase())
        });
        if starts_upper {
            let follows = init.get(1).map_or("", |t| t.text);
            let name = first.map_or("", |t| t.text);
            if WRAPPER_TYPES.contains(&name) && follows == "::" {
                // Look inside the ctor's parens: a named inner type, or
                // a `&local` whose type we already collected.
                let inner = init.get(4..).unwrap_or(&[]);
                if let Some(t) = inner.iter().find(|t| {
                    t.kind == TokenKind::Ident
                        && t.text.starts_with(|c: char| c.is_ascii_uppercase())
                        && !WRAPPER_TYPES.contains(&t.text)
                }) {
                    return t.text.to_string();
                }
                if let Some(t) = inner
                    .iter()
                    .find(|t| t.kind == TokenKind::Ident)
                    .and_then(|t| known.get(t.text))
                {
                    return t.ty.clone();
                }
                return String::new();
            }
            if follows == "::" || follows == "{" {
                return name.to_string();
            }
        }
    }
    String::new()
}

/// Types a `let x = f(..)` / `let x = self.m(..)` initializer from the
/// callee's declared return type, when the callee pins down uniquely.
fn infer_call_ret(
    stmt: &[Token<'_>],
    item: &FnItem,
    syms: &[Sym],
    by_name: &BTreeMap<String, Vec<usize>>,
) -> String {
    let Some(eq) = stmt.iter().position(|t| t.text == "=") else {
        return String::new();
    };
    let init = stmt.get(eq + 1..).unwrap_or(&[]);
    let ret_of = |want: &dyn Fn(&Sym) -> bool, name: &str| -> String {
        let hits: Vec<&Sym> = by_name
            .get(name)
            .map(|v| {
                v.iter()
                    .filter_map(|&c| syms.get(c))
                    .filter(|s| want(s))
                    .collect()
            })
            .unwrap_or_default();
        match hits.as_slice() {
            [one] => one.item.ret_ty.clone(),
            _ => String::new(),
        }
    };
    // `self.m(..)` — a method on the caller's own type.
    if init.first().is_some_and(|t| t.text == "self")
        && init.get(1).is_some_and(|t| t.text == ".")
        && init.get(3).is_some_and(|t| t.text == "(")
    {
        if let Some(m) = init.get(2).filter(|t| t.kind == TokenKind::Ident) {
            return ret_of(
                &|s: &Sym| s.item.has_self && s.item.self_ty == item.self_ty,
                m.text,
            );
        }
    }
    // `f(..)` — a free fn; same module first, then a globally unique one.
    if init.get(1).is_some_and(|t| t.text == "(") {
        if let Some(f) = init
            .first()
            .filter(|t| t.kind == TokenKind::Ident && !CALL_KEYWORDS.contains(&t.text))
        {
            let same = ret_of(
                &|s: &Sym| s.item.self_ty.is_none() && s.item.module == item.module,
                f.text,
            );
            if !same.is_empty() {
                return same;
            }
            return ret_of(&|s: &Sym| s.item.self_ty.is_none(), f.text);
        }
    }
    String::new()
}

/// Types a pure field-path initializer: `let toks = fd.tokens;`,
/// `let q = &self.workers[i].queue;`. The chain must be idents joined
/// by `.` with optional index suffixes — any call or literal bails.
/// Returns the final field's principal type and lock-ness.
fn infer_field_chain(
    stmt: &[Token<'_>],
    item: &FnItem,
    known: &BTreeMap<String, LocalInfo>,
    fields: &BTreeMap<(String, String), (String, bool)>,
) -> (String, bool) {
    let none = (String::new(), false);
    let Some(eq) = stmt.iter().position(|t| t.text == "=") else {
        return none;
    };
    let init = stmt.get(eq + 1..).unwrap_or(&[]);
    // Strip leading borrows/derefs.
    let mut k = 0;
    while init
        .get(k)
        .is_some_and(|t| t.text == "&" || t.text == "*" || t.text == "mut")
    {
        k += 1;
    }
    // Parse `ident (. ident | [ .. ])*` to the end of the initializer.
    let mut segs: Vec<&str> = Vec::new();
    let Some(root) = init.get(k).filter(|t| t.kind == TokenKind::Ident) else {
        return none;
    };
    segs.push(root.text);
    k += 1;
    while k < init.len() {
        match init.get(k).map_or("", |t| t.text) {
            "." => {
                match init.get(k + 1) {
                    Some(t) if t.kind == TokenKind::Ident => segs.push(t.text),
                    _ => return none,
                }
                k += 2;
            }
            "[" => {
                let mut depth = 1i64;
                k += 1;
                while k < init.len() && depth > 0 {
                    match init.get(k).map_or("", |t| t.text) {
                        "[" => depth += 1,
                        "]" => depth -= 1,
                        _ => {}
                    }
                    k += 1;
                }
            }
            _ => return none,
        }
    }
    let (first, rest) = match segs.split_first() {
        Some(x) => x,
        None => return none,
    };
    let mut ty = if *first == "self" {
        match &item.self_ty {
            Some(t) => t.clone(),
            None => return none,
        }
    } else if let Some(p) = item.params.iter().find(|p| p.name == *first) {
        if rest.is_empty() {
            return (p.ty.clone(), p.is_lock);
        }
        p.ty.clone()
    } else if let Some(info) = known.get(*first) {
        if rest.is_empty() {
            return (info.ty.clone(), info.is_lock);
        }
        info.ty.clone()
    } else {
        return none;
    };
    let mut is_lock = false;
    for seg in rest {
        let Some((fty, fl)) = fields.get(&(ty.clone(), (*seg).to_string())) else {
            return none;
        };
        is_lock = *fl;
        ty = fty.clone();
    }
    (ty, is_lock)
}

struct ResolveCtx<'a, 'b> {
    graph: &'a Graph,
    files: &'a [FileData<'b>],
    by_name: &'a BTreeMap<String, Vec<usize>>,
    aliases: &'a AliasTable,
    caller: &'a Sym,
    locals: &'a BTreeMap<String, LocalInfo>,
}

/// Extracts and resolves every call/reference site in one fn body.
#[allow(clippy::too_many_arguments)]
fn extract_sites(
    graph: &Graph,
    files: &[FileData<'_>],
    by_name: &BTreeMap<String, Vec<usize>>,
    aliases: &AliasTable,
    sym_idx: usize,
    sym: &Sym,
    fd: &FileData<'_>,
    locals: &BTreeMap<String, LocalInfo>,
) -> Vec<CallSite> {
    let mut out = Vec::new();
    let Some((open, close)) = sym.item.body else {
        return out;
    };
    // Nested fn items own their ranges — exclude them from this body.
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
    let ctx = ResolveCtx {
        graph,
        files,
        by_name,
        aliases,
        caller: sym,
        locals,
    };

    let toks = fd.tokens;
    let mut i = open + 1;
    while i < close {
        if skip(i) {
            i += 1;
            continue;
        }
        let Some(t) = toks.get(i) else { break };
        if t.text == "(" {
            if let Some(site) = classify_call(&ctx, fd, sym_idx, toks, i) {
                out.push(site);
            }
            i += 1;
            continue;
        }
        // Bare fn-reference path: `a::b::f` not followed by a call,
        // macro bang, struct literal, or more path.
        if t.kind == TokenKind::Ident
            && toks.get(i + 1).is_some_and(|n| n.text == "::")
            && !toks
                .get(i.wrapping_sub(1))
                .is_some_and(|p| p.text == "::" || p.text == ".")
        {
            let mut j = i;
            while toks.get(j + 1).is_some_and(|n| n.text == "::")
                && toks.get(j + 2).is_some_and(|n| n.kind == TokenKind::Ident)
            {
                j += 2;
            }
            let after = toks.get(j + 1).map_or("", |t| t.text);
            if j > i && after != "(" && after != "!" && after != "{" && after != "::" {
                let segs: Vec<String> = (i..=j)
                    .step_by(2)
                    .filter_map(|k| toks.get(k).map(|t| t.text.to_string()))
                    .collect();
                if let Some((name, quals)) = segs.split_last() {
                    let cands = resolve_qualified(&ctx, quals, name);
                    if !cands.is_empty() {
                        out.push(CallSite {
                            tok: i,
                            line: t.line,
                            name: name.clone(),
                            callees: cands,
                            res: Res::Unique,
                            is_ref: true,
                            recv: RecvClass::None,
                            args: Vec::new(),
                            arg_class: Vec::new(),
                        });
                    }
                }
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Lock-relevant classification of each argument expression (by its
/// trailing ident chain).
fn classify_args(
    ctx: &ResolveCtx<'_, '_>,
    fd: &FileData<'_>,
    toks: &[Token<'_>],
    args: &[(usize, usize)],
) -> Vec<RecvClass> {
    args.iter()
        .map(|&(s, e)| {
            let last = e.checked_sub(1).filter(|&l| l >= s);
            match last.and_then(|l| toks.get(l)) {
                Some(t) if t.kind == TokenKind::Ident || t.text == "]" => {
                    receiver_class(ctx, fd, toks, last)
                }
                _ => RecvClass::Unknown,
            }
        })
        .collect()
}

/// Classifies the call whose `(` sits at `paren`, if it is one.
fn classify_call(
    ctx: &ResolveCtx<'_, '_>,
    fd: &FileData<'_>,
    _sym_idx: usize,
    toks: &[Token<'_>],
    paren: usize,
) -> Option<CallSite> {
    let close = fd.maps.paren.get(paren).copied().unwrap_or(NONE);
    let args = if close == NONE {
        Vec::new()
    } else {
        split_args(toks, paren, close)
    };
    let arg_class = classify_args(ctx, fd, toks, &args);
    let mut j = paren.checked_sub(1)?;
    // Turbofish: `name::<T>(..)` — step back over the generic args.
    if toks.get(j).is_some_and(|t| t.text == ">") {
        let mut depth = 1i64;
        while j > 0 && depth > 0 {
            j -= 1;
            match toks.get(j).map_or("", |t| t.text) {
                "<" => depth -= 1,
                "<<" => depth -= 2,
                ">" => depth += 1,
                ">>" => depth += 2,
                _ => {}
            }
        }
        j = j.checked_sub(1)?; // the `::` before `<`
        if toks.get(j).is_none_or(|t| t.text != "::") {
            return None;
        }
        j = j.checked_sub(1)?;
    }
    let prev = toks.get(j)?;
    // Dynamic: `(f)(x)`, `}(`, or a call through a callable param.
    if prev.text == ")" {
        return Some(CallSite {
            tok: paren,
            line: prev.line,
            name: "<dynamic>".to_string(),
            callees: Vec::new(),
            res: Res::Dynamic,
            is_ref: false,
            recv: RecvClass::None,
            args,
            arg_class,
        });
    }
    if prev.kind != TokenKind::Ident || CALL_KEYWORDS.contains(&prev.text) {
        return None;
    }
    let name = prev.text.to_string();
    // Walk back `::`-separated qualifiers.
    let mut quals: Vec<String> = Vec::new();
    let mut q = j;
    while q >= 2
        && toks.get(q - 1).is_some_and(|t| t.text == "::")
        && toks
            .get(q - 2)
            .is_some_and(|t| t.kind == TokenKind::Ident || t.text == "crate")
    {
        quals.insert(0, toks.get(q - 2).map_or("", |t| t.text).to_string());
        q -= 2;
    }
    let line = prev.line;
    // Call through a callable parameter → dynamic.
    if quals.is_empty()
        && ctx
            .caller
            .item
            .params
            .iter()
            .any(|p| p.callable && p.name == name)
    {
        return Some(CallSite {
            tok: paren,
            line,
            name,
            callees: Vec::new(),
            res: Res::Dynamic,
            is_ref: false,
            recv: RecvClass::None,
            args,
            arg_class,
        });
    }
    let is_method = quals.is_empty() && q >= 1 && toks.get(q - 1).is_some_and(|t| t.text == ".");
    if is_method {
        let recv = receiver_class(ctx, fd, toks, q.checked_sub(2));
        let (callees, res) = resolve_method(ctx, &name, &recv);
        return Some(CallSite {
            tok: paren,
            line,
            name,
            callees,
            res,
            is_ref: false,
            recv,
            args,
            arg_class,
        });
    }
    // Free or qualified call.
    let (callees, res) = if quals.is_empty() {
        resolve_free(ctx, &name)
    } else {
        let cands = resolve_qualified(ctx, &quals, &name);
        match cands.len() {
            0 => (cands, Res::External),
            1 => (cands, Res::Unique),
            _ => (cands, Res::Ambiguous),
        }
    };
    Some(CallSite {
        tok: paren,
        line,
        name,
        callees,
        res,
        is_ref: false,
        recv: RecvClass::None,
        args,
        arg_class,
    })
}

fn split_args(toks: &[Token<'_>], open: usize, close: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0i64;
    let mut start = open + 1;
    for i in open + 1..close {
        match toks.get(i).map_or("", |t| t.text) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "," if depth <= 0 => {
                if i > start {
                    out.push((start, i));
                }
                start = i + 1;
            }
            _ => {}
        }
    }
    if close > start {
        out.push((start, close));
    }
    out
}

/// Types the receiver chain ending at token index `end` (inclusive),
/// walking field accesses left-to-right from the chain root.
fn receiver_class(
    ctx: &ResolveCtx<'_, '_>,
    fd: &FileData<'_>,
    toks: &[Token<'_>],
    end: Option<usize>,
) -> RecvClass {
    let Some(mut i) = end else {
        return RecvClass::Unknown;
    };
    // Collect the chain backwards: idents joined by `.`, allowing one
    // index step (`xs[i]`) per element. A `)` is a call-result root,
    // typed through the callee's declared return type. A `}` whose
    // matching `{` follows a type name is a struct-literal root
    // (`Lexer { .. }.run()`).
    let mut chain: Vec<&str> = Vec::new();
    let mut literal_ty: Option<&str> = None;
    let mut call_ty: Option<String> = None;
    loop {
        // Skip an index suffix.
        if toks.get(i).is_some_and(|t| t.text == "]") {
            let open = (0..i)
                .rev()
                .find(|&o| fd.maps.bracket.get(o).copied() == Some(i));
            match open.and_then(|o| o.checked_sub(1)) {
                Some(p) => i = p,
                None => return RecvClass::Unknown,
            }
        }
        let Some(t) = toks.get(i) else {
            return RecvClass::Unknown;
        };
        if t.text == ")" {
            let r = call_result_ty(ctx, fd, toks, i);
            if r.is_empty() {
                return RecvClass::Unknown;
            }
            call_ty = Some(r);
            break;
        }
        if t.text == "}" {
            let open = (0..i)
                .rev()
                .find(|&o| fd.maps.brace.get(o).copied() == Some(i));
            let before = open
                .and_then(|o| o.checked_sub(1))
                .and_then(|p| toks.get(p));
            match before {
                Some(b)
                    if b.kind == TokenKind::Ident
                        && b.text.starts_with(|c: char| c.is_ascii_uppercase()) =>
                {
                    literal_ty = Some(b.text);
                    break;
                }
                _ => return RecvClass::Unknown,
            }
        }
        if t.kind != TokenKind::Ident {
            return RecvClass::Unknown;
        }
        chain.insert(0, t.text);
        match i.checked_sub(1).and_then(|p| toks.get(p)) {
            Some(p) if p.text == "." => match i.checked_sub(2) {
                Some(p2) => i = p2,
                None => return RecvClass::Unknown,
            },
            _ => break,
        }
    }
    // Root of the chain.
    let mut ty: String;
    let mut lock_hit: Option<RecvClass> = None;
    let rest: &[&str];
    if let Some(ct) = call_ty {
        // Segments collected so far are fields of the call's result.
        ty = ct;
        rest = &chain;
    } else if let Some(lt) = literal_ty {
        // Every collected segment is a field of the literal's type.
        ty = lt.to_string();
        rest = &chain;
    } else {
        let (first, tail) = match chain.split_first() {
            Some(x) => x,
            None => return RecvClass::Unknown,
        };
        rest = tail;
        if *first == "self" {
            match &ctx.caller.item.self_ty {
                Some(t) => ty = t.clone(),
                None => return RecvClass::Unknown,
            }
            if rest.is_empty() {
                return RecvClass::SelfRecv;
            }
        } else if let Some((k, p)) = ctx
            .caller
            .item
            .params
            .iter()
            .enumerate()
            .find(|(_, p)| p.name == *first)
        {
            if rest.is_empty() && p.is_lock {
                return RecvClass::LockParam(k);
            }
            ty = p.ty.clone();
        } else if let Some(info) = ctx.locals.get(*first) {
            if rest.is_empty() && info.is_lock {
                return RecvClass::LockLocal((*first).to_string());
            }
            ty = info.ty.clone();
        } else if let Some((sty, is_lock)) = ctx.graph.statics.get(*first) {
            if rest.is_empty() && *is_lock {
                return RecvClass::LockStatic((*first).to_string());
            }
            ty = sty.clone();
        } else {
            return RecvClass::Unknown;
        }
    }
    // Walk fields.
    for (n, seg) in rest.iter().enumerate() {
        if ty.is_empty() {
            return RecvClass::Unknown;
        }
        let Some((fty, is_lock)) = ctx.graph.fields.get(&(ty.clone(), (*seg).to_string())) else {
            return RecvClass::Unknown;
        };
        if n + 1 == rest.len() && *is_lock {
            lock_hit = Some(RecvClass::LockField(ty.clone(), (*seg).to_string()));
        }
        ty = fty.clone();
    }
    if let Some(l) = lock_hit {
        return l;
    }
    if ty.is_empty() {
        RecvClass::Unknown
    } else {
        RecvClass::Typed(ty)
    }
}

/// Principal result type of the call expression whose closing `)` is
/// at `close`: a workspace callee's declared return type, [`EXT_TY`]
/// when the result is definitely std/vendor (lock guards included),
/// or empty when unknown. Mutually recursive with [`receiver_class`]
/// on the inner receiver chain; token indices strictly decrease, so
/// the recursion is bounded by the chain length.
fn call_result_ty(
    ctx: &ResolveCtx<'_, '_>,
    fd: &FileData<'_>,
    toks: &[Token<'_>],
    close: usize,
) -> String {
    let Some(open) = (0..close)
        .rev()
        .find(|&o| fd.maps.paren.get(o).copied() == Some(close))
    else {
        return String::new();
    };
    let Some(j) = open.checked_sub(1) else {
        return String::new();
    };
    let Some(prev) = toks.get(j) else {
        return String::new();
    };
    if prev.kind != TokenKind::Ident || CALL_KEYWORDS.contains(&prev.text) {
        return String::new();
    }
    let name = prev.text;
    // Method call: type the inner receiver first.
    if j >= 1 && toks.get(j - 1).is_some_and(|t| t.text == ".") {
        // A method name with no workspace impl at all is std whatever
        // the receiver is (`.parse()`, `.join()`, iterator adapters) —
        // except identity adapters, which keep the receiver's type.
        let any_impl = ctx.by_name.get(name).is_some_and(|v| {
            v.iter()
                .any(|&c| ctx.graph.syms.get(c).is_some_and(|s| s.item.has_self))
        });
        if !any_impl && !IDENTITY_METHODS.contains(&name) {
            return EXT_TY.to_string();
        }
        let inner = receiver_class(ctx, fd, toks, j.checked_sub(2));
        let want: Option<String> = match inner {
            RecvClass::LockField(..)
            | RecvClass::LockStatic(_)
            | RecvClass::LockParam(_)
            | RecvClass::LockLocal(_) => {
                // `.lock()`/`.read()`/`.write()` yield guards; anything
                // else on a raw Mutex/RwLock value is std too.
                return EXT_TY.to_string();
            }
            RecvClass::Typed(t) if t == EXT_TY => return EXT_TY.to_string(),
            RecvClass::Typed(t) => Some(t),
            RecvClass::SelfRecv => ctx.caller.item.self_ty.clone(),
            RecvClass::None | RecvClass::Unknown => None,
        };
        let Some(want) = want else {
            return String::new();
        };
        let matching: Vec<usize> = ctx
            .by_name
            .get(name)
            .map(|v| {
                v.iter()
                    .copied()
                    .filter(|&c| {
                        ctx.graph.syms.get(c).is_some_and(|s| {
                            s.item.has_self && s.item.self_ty.as_deref() == Some(want.as_str())
                        })
                    })
                    .collect()
            })
            .unwrap_or_default();
        return match matching.as_slice() {
            // `.clone()` etc. keep the receiver's type; any other
            // method with no workspace impl yields a std value.
            [] if IDENTITY_METHODS.contains(&name) => want,
            [] => EXT_TY.to_string(),
            [one] => ctx
                .graph
                .syms
                .get(*one)
                .map(|s| s.item.ret_ty.clone())
                .unwrap_or_default(),
            _ => String::new(),
        };
    }
    // Qualified path call `A::b(..)`.
    let mut quals: Vec<String> = Vec::new();
    let mut q = j;
    while q >= 2
        && toks.get(q - 1).is_some_and(|t| t.text == "::")
        && toks
            .get(q - 2)
            .is_some_and(|t| t.kind == TokenKind::Ident || t.text == "crate")
    {
        quals.insert(0, toks.get(q - 2).map_or("", |t| t.text).to_string());
        q -= 2;
    }
    if !quals.is_empty() {
        let cands = resolve_qualified(ctx, &quals, name);
        return match cands.as_slice() {
            [] => EXT_TY.to_string(),
            [one] => ctx
                .graph
                .syms
                .get(*one)
                .map(|s| s.item.ret_ty.clone())
                .unwrap_or_default(),
            _ => String::new(),
        };
    }
    // Free call.
    let (cands, res) = resolve_free(ctx, name);
    match (cands.as_slice(), res) {
        ([one], Res::Unique) => ctx
            .graph
            .syms
            .get(*one)
            .map(|s| s.item.ret_ty.clone())
            .unwrap_or_default(),
        ([], Res::External) => EXT_TY.to_string(),
        _ => String::new(),
    }
}

fn resolve_method(ctx: &ResolveCtx<'_, '_>, name: &str, recv: &RecvClass) -> (Vec<usize>, Res) {
    let cands: Vec<usize> = ctx
        .by_name
        .get(name)
        .map(|v| {
            v.iter()
                .copied()
                .filter(|&c| ctx.graph.syms.get(c).is_some_and(|s| s.item.has_self))
                .collect()
        })
        .unwrap_or_default();
    if cands.is_empty() {
        return (Vec::new(), Res::External);
    }
    let want_ty: Option<&str> = match recv {
        RecvClass::SelfRecv => ctx.caller.item.self_ty.as_deref(),
        RecvClass::Typed(t) => Some(t.as_str()),
        RecvClass::LockField(..)
        | RecvClass::LockStatic(_)
        | RecvClass::LockParam(_)
        | RecvClass::LockLocal(_) => {
            // Methods on raw lock values (`.lock()` handled separately;
            // anything else on a Mutex is std).
            return (Vec::new(), Res::External);
        }
        RecvClass::None | RecvClass::Unknown => None,
    };
    if let Some(want) = want_ty {
        let typed: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&c| {
                ctx.graph
                    .syms
                    .get(c)
                    .is_some_and(|s| s.item.self_ty.as_deref() == Some(want))
            })
            .collect();
        return match typed.len() {
            // A typed receiver matching no workspace impl is a std or
            // vendor method (e.g. `map.insert` on a BTreeMap).
            0 => (Vec::new(), Res::External),
            1 => (typed, Res::Unique),
            _ => (typed, Res::Ambiguous),
        };
    }
    // Unknown receiver: conservative fan-out to every method candidate.
    match cands.len() {
        1 => (cands, Res::Unique),
        _ => (cands, Res::Ambiguous),
    }
}

fn resolve_free(ctx: &ResolveCtx<'_, '_>, name: &str) -> (Vec<usize>, Res) {
    let all: Vec<usize> = ctx.by_name.get(name).cloned().unwrap_or_default();
    // 1. Same-module free fn (includes nested fns in this file).
    let same_module: Vec<usize> = all
        .iter()
        .copied()
        .filter(|&c| {
            ctx.graph.syms.get(c).is_some_and(|s| {
                s.item.self_ty.is_none() && s.item.module == ctx.caller.item.module
            })
        })
        .collect();
    if let [one] = same_module.as_slice() {
        return (vec![*one], Res::Unique);
    }
    // 2. This file's imports.
    let Some(fd) = ctx.files.get(ctx.caller.file) else {
        return (Vec::new(), Res::External);
    };
    for u in &fd.items.uses {
        if u.glob || u.name != name {
            continue;
        }
        let abs = resolve_use_path(&u.path, &fd.items.module);
        let is_workspace_path = abs
            .first()
            .is_some_and(|s| ctx.files.iter().any(|f| f.items.module.first() == Some(s)));
        if !is_workspace_path {
            // `use std::mem::take;` — the name is shadowed external.
            return (Vec::new(), Res::External);
        }
        let quals = abs.get(..abs.len().saturating_sub(1)).unwrap_or(&[]);
        let target = u.path.last().map_or(name, String::as_str);
        let cands = resolve_qualified(ctx, quals, target);
        return match cands.len() {
            0 => (Vec::new(), Res::External),
            1 => (cands, Res::Unique),
            _ => (cands, Res::Ambiguous),
        };
    }
    // 3. Glob imports.
    let mut from_globs: Vec<usize> = Vec::new();
    for u in &fd.items.uses {
        if !u.glob {
            continue;
        }
        let abs = resolve_use_path(&u.path, &fd.items.module);
        from_globs.extend(all.iter().copied().filter(|&c| {
            ctx.graph
                .syms
                .get(c)
                .is_some_and(|s| s.item.self_ty.is_none() && s.item.module == abs)
        }));
    }
    from_globs.dedup();
    if let [one] = from_globs.as_slice() {
        return (vec![*one], Res::Unique);
    }
    if from_globs.len() > 1 {
        return (from_globs, Res::Ambiguous);
    }
    // 4. Unique free fn anywhere in the workspace.
    let free: Vec<usize> = all
        .iter()
        .copied()
        .filter(|&c| {
            ctx.graph
                .syms
                .get(c)
                .is_some_and(|s| s.item.self_ty.is_none())
        })
        .collect();
    match free.len() {
        0 => (Vec::new(), Res::External),
        1 => (free, Res::Unique),
        _ => (free, Res::Ambiguous),
    }
}

/// Resolves a qualified path call `quals::name(..)`.
fn resolve_qualified(ctx: &ResolveCtx<'_, '_>, quals: &[String], name: &str) -> Vec<usize> {
    let mut abs: Vec<String> = Vec::new();
    let caller_mod = &ctx.caller.item.module;
    match quals.first().map(String::as_str) {
        Some("crate") => {
            abs.extend(caller_mod.first().cloned());
            abs.extend(quals.get(1..).unwrap_or(&[]).iter().cloned());
        }
        Some("self") => {
            abs.extend(caller_mod.iter().cloned());
            abs.extend(quals.get(1..).unwrap_or(&[]).iter().cloned());
        }
        Some("super") => {
            let take = caller_mod.len().saturating_sub(1);
            abs.extend(caller_mod.get(..take).unwrap_or(&[]).iter().cloned());
            abs.extend(quals.get(1..).unwrap_or(&[]).iter().cloned());
        }
        Some("Self") => {
            abs.extend(ctx.caller.item.self_ty.iter().cloned());
            abs.extend(quals.get(1..).unwrap_or(&[]).iter().cloned());
        }
        Some(first) => {
            abs.push(normalize_seg(first));
            abs.extend(quals.get(1..).unwrap_or(&[]).iter().cloned());
        }
        None => {}
    }
    let mut cands: Vec<usize> = ctx
        .by_name
        .get(name)
        .map(|v| {
            v.iter()
                .copied()
                .filter(|&c| ctx.graph.syms.get(c).is_some_and(|s| qual_matches(&abs, s)))
                .collect()
        })
        .unwrap_or_default();
    // Re-export aliases: `mod::alias(..)` where `pub use real as alias`.
    for (amod, aname, targets) in ctx.aliases {
        if aname != name {
            continue;
        }
        let mut full = amod.clone();
        full.push(aname.clone());
        // The qualifier must be a suffix-compatible subsequence of the
        // alias's module path.
        let dummy = Sym {
            file: 0,
            item: FnItem {
                name: aname.clone(),
                module: amod.clone(),
                self_ty: None,
                has_self: false,
                params: Vec::new(),
                returns_guard: false,
                ret_ty: String::new(),
                line: 0,
                sig_start: 0,
                body: None,
            },
            qname: String::new(),
        };
        if qual_matches(&abs, &dummy) {
            cands.extend(targets.iter().copied());
        }
    }
    cands.sort_unstable();
    cands.dedup();
    // A module-qualified call (`adc_trace::span(..)`) can only land on
    // a method if the path names the type explicitly (`Summary::span`).
    // When the last qualifier is NOT the candidate's self type, the
    // candidate would need a positional `self` — drop it in favour of
    // free functions on the same path.
    if cands.len() > 1 {
        let last = quals.last().map(|s| normalize_seg(s)).unwrap_or_default();
        let narrowed: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&c| {
                ctx.graph.syms.get(c).is_some_and(|s| {
                    !s.item.has_self || s.item.self_ty.as_deref() == Some(last.as_str())
                })
            })
            .collect();
        if !narrowed.is_empty() {
            return narrowed;
        }
    }
    cands
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::{parse_file, token_maps};
    use crate::lexer::lex;

    struct Built {
        graph: Graph,
        files: Vec<String>,
    }

    fn build_from(sources: &[(&str, &str)]) -> Built {
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
        Built {
            graph: build(&data),
            files: sources.iter().map(|(p, _)| (*p).to_string()).collect(),
        }
    }

    fn edges_of<'g>(b: &'g Built, qname_end: &str) -> Vec<&'g str> {
        let idx = b
            .graph
            .syms
            .iter()
            .position(|s| s.qname.ends_with(qname_end))
            .unwrap_or_else(|| panic!("no symbol {qname_end}"));
        b.graph
            .sites
            .get(idx)
            .map(|sites| {
                sites
                    .iter()
                    .flat_map(|s| s.callees.iter())
                    .filter_map(|&c| b.graph.syms.get(c).map(|s| s.qname.as_str()))
                    .collect()
            })
            .unwrap_or_default()
    }

    #[test]
    fn shadowed_names_resolve_per_module() {
        let b = build_from(&[
            (
                "crates/runtime/src/a.rs",
                "pub fn helper() {}\npub fn caller_a() { helper(); }\n",
            ),
            (
                "crates/server/src/b.rs",
                "pub fn helper() {}\npub fn caller_b() { helper(); }\n",
            ),
        ]);
        assert_eq!(
            edges_of(&b, "runtime::a::caller_a"),
            vec!["runtime::a::helper"]
        );
        assert_eq!(
            edges_of(&b, "server::b::caller_b"),
            vec!["server::b::helper"]
        );
        assert_eq!(b.graph.stats.unique, 2);
        assert_eq!(b.graph.stats.ambiguous, 0);
        let _ = b.files;
    }

    #[test]
    fn method_vs_free_fn_disambiguates_by_receiver_type() {
        let b = build_from(&[(
            "crates/runtime/src/m.rs",
            "pub fn run() {}\n\
             pub struct Engine;\nimpl Engine {\n    pub fn run(&self) {}\n    \
             pub fn go(&self) { self.run(); }\n}\n\
             pub fn free_caller() { run(); }\n\
             pub fn typed_caller(e: &Engine) { e.run(); }\n",
        )]);
        assert_eq!(edges_of(&b, "::go"), vec!["runtime::m::Engine::run"]);
        assert_eq!(edges_of(&b, "::free_caller"), vec!["runtime::m::run"]);
        assert_eq!(
            edges_of(&b, "::typed_caller"),
            vec!["runtime::m::Engine::run"]
        );
        assert_eq!(b.graph.stats.ambiguous, 0, "{:?}", b.graph.stats.unresolved);
    }

    #[test]
    fn pub_use_reexports_resolve_to_the_real_symbol() {
        let b = build_from(&[
            (
                "crates/server/src/protocol.rs",
                "pub fn decode_frame(b: &[u8]) -> u32 { b.len() as u32 }\n",
            ),
            (
                "crates/server/src/lib.rs",
                "pub mod protocol;\npub use protocol::decode_frame as decode;\n",
            ),
            (
                "crates/cluster/src/c.rs",
                "pub fn go(b: &[u8]) -> u32 { adc_server::decode(b) }\n",
            ),
        ]);
        assert_eq!(
            edges_of(&b, "cluster::c::go"),
            vec!["server::protocol::decode_frame"]
        );
    }

    #[test]
    fn qualified_calls_tolerate_reexport_flattening() {
        let b = build_from(&[
            (
                "crates/runtime/src/cache.rs",
                "pub struct ResultCache;\nimpl ResultCache {\n    pub fn on_disk(p: &str) -> Self { ResultCache }\n}\n",
            ),
            (
                "crates/server/src/jobs.rs",
                "pub fn open(p: &str) { let _c = adc_runtime::ResultCache::on_disk(p); }\n",
            ),
        ]);
        assert_eq!(
            edges_of(&b, "server::jobs::open"),
            vec!["runtime::cache::ResultCache::on_disk"]
        );
    }

    #[test]
    fn dynamic_calls_are_recorded_not_dropped() {
        let b = build_from(&[(
            "crates/server/src/d.rs",
            "pub fn apply(f: &dyn Fn() -> u32) -> u32 { f() }\n\
             pub fn iife() -> u32 { (|| 7)() }\n",
        )]);
        assert_eq!(b.graph.stats.dynamic, 2, "{:?}", b.graph.stats.unresolved);
        assert_eq!(b.graph.stats.unresolved.len(), 2);
    }

    #[test]
    fn imports_resolve_and_std_imports_shadow_to_external() {
        let b = build_from(&[
            (
                "crates/runtime/src/util.rs",
                "pub fn take(x: u32) -> u32 { x }\n",
            ),
            (
                "crates/runtime/src/a.rs",
                "use std::mem::take;\npub fn uses_std(v: &mut Vec<u32>) { let _ = take(&mut 1); }\n",
            ),
            (
                "crates/runtime/src/b.rs",
                "use crate::util::take;\npub fn uses_ws() { let _ = take(1); }\n",
            ),
        ]);
        assert!(edges_of(&b, "runtime::a::uses_std").is_empty());
        assert_eq!(
            edges_of(&b, "runtime::b::uses_ws"),
            vec!["runtime::util::take"]
        );
    }

    #[test]
    fn receiver_chains_type_through_fields_and_locks() {
        let b = build_from(&[(
            "crates/runtime/src/p.rs",
            "pub struct Inner { pub q: Mutex<Vec<u32>> }\n\
             pub struct State { pub inner: Inner }\n\
             impl State { pub fn poke(&self) { let _g = self.inner.q.lock(); } }\n",
        )]);
        let idx = b
            .graph
            .syms
            .iter()
            .position(|s| s.qname.ends_with("State::poke"))
            .expect("poke");
        let sites = b.graph.sites.get(idx).expect("sites");
        let lock_site = sites.iter().find(|s| s.name == "lock").expect("lock site");
        assert_eq!(
            lock_site.recv,
            RecvClass::LockField("Inner".to_string(), "q".to_string())
        );
        assert_eq!(lock_site.res, Res::External);
    }

    #[test]
    fn match_arm_variant_bindings_type_from_the_enum() {
        // Decoy impl makes `ping` ambiguous unless `r` is typed from
        // the `Req::Msg(PingReq)` tuple payload.
        let b = build_from(&[(
            "crates/server/src/e.rs",
            "pub struct PingReq;\nimpl PingReq {\n    pub fn ping(&self) {}\n}\n\
             pub struct Decoy;\nimpl Decoy {\n    pub fn ping(&self) {}\n}\n\
             pub enum Req { Msg(PingReq), Quit }\n\
             impl Req {\n    pub fn go(&self) {\n        match self {\n            \
             Self::Msg(r) => r.ping(),\n            Self::Quit => {}\n        }\n    }\n}\n",
        )]);
        assert_eq!(edges_of(&b, "Req::go"), vec!["server::e::PingReq::ping"]);
        assert_eq!(b.graph.stats.ambiguous, 0, "{:?}", b.graph.stats.unresolved);
    }

    #[test]
    fn struct_variant_field_bindings_type_from_the_variant_fields() {
        let b = build_from(&[(
            "crates/server/src/f.rs",
            "pub struct Job;\nimpl Job {\n    pub fn run(&self) {}\n}\n\
             pub struct Decoy;\nimpl Decoy {\n    pub fn run(&self) {}\n}\n\
             pub enum Cmd { Exec { job: Job }, Halt }\n\
             impl Cmd {\n    pub fn go(&self) {\n        match self {\n            \
             Self::Exec { job } => job.run(),\n            Self::Halt => {}\n        }\n    }\n}\n",
        )]);
        assert_eq!(edges_of(&b, "Cmd::go"), vec!["server::f::Job::run"]);
        assert_eq!(b.graph.stats.ambiguous, 0, "{:?}", b.graph.stats.unresolved);
    }

    #[test]
    fn module_qualified_calls_skip_method_candidates() {
        // `adc_trace::span(..)` must pin to the free fn even though a
        // method of the same name exists in the same crate.
        let b = build_from(&[
            (
                "crates/trace/src/lib.rs",
                "pub fn span(name: &str) -> u32 { name.len() as u32 }\n\
                 pub struct Summary;\nimpl Summary {\n    pub fn span(&self) {}\n}\n",
            ),
            (
                "crates/runtime/src/t.rs",
                "pub fn traced() { let _s = adc_trace::span(\"x\"); }\n",
            ),
        ]);
        assert_eq!(edges_of(&b, "runtime::t::traced"), vec!["trace::span"]);
    }

    #[test]
    fn closure_params_type_from_the_adapter_chain_receiver() {
        let b = build_from(&[(
            "crates/runtime/src/c.rs",
            "pub struct Tok;\nimpl Tok {\n    pub fn good(&self) -> bool { true }\n}\n\
             pub struct Decoy;\nimpl Decoy {\n    pub fn good(&self) -> bool { false }\n}\n\
             pub fn scan(toks: &[Tok]) -> usize {\n    \
             toks.iter().filter(|t| t.good()).count()\n}\n",
        )]);
        assert_eq!(
            edges_of(&b, "runtime::c::scan"),
            vec!["runtime::c::Tok::good"]
        );
        assert_eq!(b.graph.stats.ambiguous, 0, "{:?}", b.graph.stats.unresolved);
    }

    #[test]
    fn let_else_and_tuple_for_bindings_type_through() {
        let b = build_from(&[(
            "crates/runtime/src/l.rs",
            "pub struct Item;\nimpl Item {\n    pub fn touch(&self) {}\n}\n\
             pub struct Decoy;\nimpl Decoy {\n    pub fn touch(&self) {}\n}\n\
             pub fn first(items: &[Item]) {\n    \
             let Some(it) = items.first() else {\n        return;\n    };\n    \
             it.touch();\n}\n\
             pub fn walk(items: &[Item]) {\n    \
             for (n, it) in items.iter().enumerate() {\n        \
             let _ = n;\n        it.touch();\n    }\n}\n",
        )]);
        assert_eq!(
            edges_of(&b, "runtime::l::first"),
            vec!["runtime::l::Item::touch"]
        );
        assert_eq!(
            edges_of(&b, "runtime::l::walk"),
            vec!["runtime::l::Item::touch"]
        );
        assert_eq!(b.graph.stats.ambiguous, 0, "{:?}", b.graph.stats.unresolved);
    }

    #[test]
    fn question_mark_and_option_bindings_type_through_the_wrapper() {
        let b = build_from(&[(
            "crates/runtime/src/q.rs",
            "pub struct Cache;\nimpl Cache {\n    pub fn put(&self) {}\n}\n\
             pub struct Decoy;\nimpl Decoy {\n    pub fn put(&self) {}\n}\n\
             pub fn open() -> Result<Cache, String> { Ok(Cache) }\n\
             pub fn fill() -> Result<(), String> {\n    \
             let c = open()?;\n    c.put();\n    Ok(())\n}\n\
             pub struct Exec { pub cache: Option<Arc<Cache>> }\n\
             impl Exec {\n    pub fn flush(&self) {\n        \
             if let Some(c) = &self.cache {\n            c.put();\n        }\n    }\n}\n",
        )]);
        assert_eq!(
            edges_of(&b, "runtime::q::fill"),
            vec!["runtime::q::open", "runtime::q::Cache::put"]
        );
        assert_eq!(edges_of(&b, "Exec::flush"), vec!["runtime::q::Cache::put"]);
        assert_eq!(b.graph.stats.ambiguous, 0, "{:?}", b.graph.stats.unresolved);
    }
}

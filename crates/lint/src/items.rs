//! Item-level parsing: the lightweight structural layer between the
//! lexer and the call graph.
//!
//! This is deliberately **not** a Rust parser. It recognizes exactly
//! the item shapes the interprocedural passes need — `fn` signatures
//! with body token ranges, `impl`/`trait` self types, `use` imports
//! (including `pub use` re-exports and brace groups), struct fields,
//! statics, and lock-type aliases — by walking the token stream with
//! bracket-matching maps. Everything else (expressions, patterns,
//! generics) is skipped structurally. Malformed input degrades to
//! fewer recognized items, never to a panic: the passes built on top
//! are conservative about what they could not see.

use crate::lexer::{Token, TokenKind};

/// Sentinel for "no matching bracket".
pub(crate) const NONE: usize = usize::MAX;

/// Bracket-matching maps over one file's tokens, plus attribute and
/// `#[cfg(test)]` spans.
#[derive(Debug, Default)]
pub(crate) struct TokenMaps {
    /// `paren[i]` = index of the `)` matching the `(` at `i`.
    pub paren: Vec<usize>,
    /// `brace[i]` = index of the `}` matching the `{` at `i`.
    pub brace: Vec<usize>,
    /// `bracket[i]` = index of the `]` matching the `[` at `i`.
    pub bracket: Vec<usize>,
    /// Inclusive token-index ranges covered by `#[...]` attributes —
    /// their contents look like calls (`#[derive(Clone)]`) and must be
    /// invisible to call-site extraction.
    pub attrs: Vec<(usize, usize)>,
    /// Inclusive line ranges covered by `#[cfg(test)]` items — tests
    /// may panic, probe env vars, and hash freely, so every rule and
    /// the item parser skip them.
    pub tests: Vec<(u32, u32)>,
}

impl TokenMaps {
    /// `true` when token index `i` falls inside an attribute.
    pub fn in_attr(&self, i: usize) -> bool {
        self.attrs.iter().any(|&(a, b)| i >= a && i <= b)
    }

    /// `true` when `line` falls inside a `#[cfg(test)]` item.
    pub fn in_test(&self, line: u32) -> bool {
        self.tests.iter().any(|&(a, b)| line >= a && line <= b)
    }
}

/// Builds the bracket maps for `tokens`.
pub(crate) fn token_maps(tokens: &[Token<'_>]) -> TokenMaps {
    let n = tokens.len();
    let mut maps = TokenMaps {
        paren: vec![NONE; n],
        brace: vec![NONE; n],
        bracket: vec![NONE; n],
        ..TokenMaps::default()
    };
    let (mut ps, mut bs, mut ks) = (Vec::new(), Vec::new(), Vec::new());
    for (i, t) in tokens.iter().enumerate() {
        match t.text {
            "(" => ps.push(i),
            ")" => {
                if let Some(o) = ps.pop() {
                    if let Some(slot) = maps.paren.get_mut(o) {
                        *slot = i;
                    }
                }
            }
            "{" => bs.push(i),
            "}" => {
                if let Some(o) = bs.pop() {
                    if let Some(slot) = maps.brace.get_mut(o) {
                        *slot = i;
                    }
                }
            }
            "[" => ks.push(i),
            "]" => {
                if let Some(o) = ks.pop() {
                    if let Some(slot) = maps.bracket.get_mut(o) {
                        *slot = i;
                    }
                }
            }
            _ => {}
        }
    }
    let mut i = 0;
    while i < n {
        let is_attr = tokens.get(i).is_some_and(|t| t.text == "#")
            && tokens.get(i + 1).is_some_and(|t| t.text == "[");
        if is_attr {
            let close = maps.bracket.get(i + 1).copied().unwrap_or(NONE);
            if close != NONE {
                maps.attrs.push((i, close));
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    maps.tests = cfg_test_spans(tokens, &maps);
    maps
}

/// The line spans of `#[cfg(test)]` items: an attribute whose `cfg`
/// mentions `test` starts a span that runs past any further attributes
/// to the item's end — the `}` matching its first `{` (the file's end
/// when unmatched), or a `;` before any `{`. A `cfg` containing `not`
/// (`#[cfg(not(test))]`) is treated as non-test: skipping
/// production-only code would hide real violations, while scanning a
/// few extra test lines only costs an explicit pragma.
fn cfg_test_spans(tokens: &[Token<'_>], maps: &TokenMaps) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    for (k, &(open, close)) in maps.attrs.iter().enumerate() {
        let body = tokens.get(open + 2..close).unwrap_or(&[]);
        let texts = || body.iter().map(|t| t.text);
        if texts().next() != Some("cfg")
            || !texts().any(|t| t == "test")
            || texts().any(|t| t == "not")
        {
            continue;
        }
        let mut item = close + 1;
        for &(a, b) in maps.attrs.get(k + 1..).unwrap_or(&[]) {
            if a == item {
                item = b + 1;
            }
        }
        let end = (item..tokens.len()).find_map(|j| match tokens.get(j).map(|t| t.text) {
            Some(";") => Some(j),
            Some("{") => maps.brace.get(j).copied(),
            _ => None,
        });
        let end_line = end.and_then(|j| tokens.get(j)).or(tokens.last());
        if let Some(start) = tokens.get(open) {
            spans.push((start.line, end_line.map_or(0, |t| t.line)));
        }
    }
    spans
}

/// Index just past the `>` matching the `<` at `open` (handles `<<`
/// and `>>` shift tokens; `->`/`=>` do not affect depth).
pub(crate) fn skip_angles(tokens: &[Token<'_>], open: usize) -> usize {
    let mut depth = 0i64;
    let mut i = open;
    while let Some(t) = tokens.get(i) {
        match t.text {
            "<" => depth += 1,
            "<<" => depth += 2,
            ">" => depth -= 1,
            ">>" => depth -= 2,
            ">=" => depth -= 1,
            "<=" => depth += 1,
            _ => {}
        }
        if depth <= 0 {
            return i + 1;
        }
        i += 1;
    }
    tokens.len()
}

/// One function parameter, reduced to what resolution needs.
#[derive(Debug, Clone)]
pub(crate) struct Param {
    /// Binding name (last ident before the `:`).
    pub name: String,
    /// Principal type ident (see [`principal_ty`]); empty = unknown.
    pub ty: String,
    /// Type is `Fn`/`FnMut`/`FnOnce`/`fn(..)` or a generic bounded by
    /// one — calls through this parameter are dynamic.
    pub callable: bool,
    /// Type is `Mutex`/`RwLock` (possibly behind `&`/slices).
    pub is_lock: bool,
}

/// One parsed `fn` item.
#[derive(Debug, Clone)]
pub(crate) struct FnItem {
    /// Function name.
    pub name: String,
    /// Module path, crate key first (e.g. `["runtime", "pool"]`).
    pub module: Vec<String>,
    /// Enclosing `impl`/`trait` self type, if any.
    pub self_ty: Option<String>,
    /// Has a `self` receiver (method vs. free fn).
    pub has_self: bool,
    /// Parameters in order (excluding the receiver).
    pub params: Vec<Param>,
    /// Return type mentions a guard type — callers treat a call as a
    /// lock acquisition of everything this fn acquires.
    pub returns_guard: bool,
    /// Principal type of the return type (`Self` resolved to the impl
    /// type); empty for unit/unknown. Types `let x = f(..)` locals.
    pub ret_ty: String,
    /// 1-based line of the `fn` token.
    pub line: u32,
    /// Token index of the `fn` keyword.
    pub sig_start: usize,
    /// Token indices of the body `{` / `}` (`None` for trait decls).
    pub body: Option<(usize, usize)>,
}

/// One binding introduced by a `use` declaration.
#[derive(Debug, Clone)]
pub(crate) struct UseItem {
    /// `pub use` — creates a re-export alias others can path through.
    pub is_pub: bool,
    /// Path segments as written (`crate`/`self`/`super` unresolved).
    pub path: Vec<String>,
    /// Binding name (`as` alias or last path segment; empty for glob).
    pub name: String,
    /// `use foo::*`.
    pub glob: bool,
}

/// One struct field (used for receiver-chain typing and lock ids).
#[derive(Debug, Clone)]
pub(crate) struct FieldInfo {
    /// Owning struct name.
    pub owner: String,
    /// Field name.
    pub name: String,
    /// Principal type ident (wrappers like `Arc` skipped).
    pub ty: String,
    /// Field type mentions `Mutex`/`RwLock` (or a lock alias).
    pub is_lock: bool,
}

/// One enum variant (used to type match-arm payload bindings).
#[derive(Debug, Clone)]
pub(crate) struct VariantInfo {
    /// Owning enum name.
    pub owner: String,
    /// Variant name.
    pub name: String,
    /// Principal type of a single-field tuple payload; empty for unit,
    /// struct, and multi-field tuple variants.
    pub payload: String,
}

/// One `static` item.
#[derive(Debug, Clone)]
pub(crate) struct StaticInfo {
    /// Static name.
    pub name: String,
    /// Principal type ident.
    pub ty: String,
    /// Type mentions `Mutex`/`RwLock` (or a lock alias).
    pub is_lock: bool,
}

/// Everything item-level parsed out of one file.
#[derive(Debug, Default)]
pub(crate) struct FileItems {
    /// File module path, crate key first.
    pub module: Vec<String>,
    /// Functions (test-span items excluded).
    pub fns: Vec<FnItem>,
    /// Imports and re-exports.
    pub uses: Vec<UseItem>,
    /// Struct fields across all structs in the file (struct-variant
    /// enum fields included, keyed by the enum name).
    pub fields: Vec<FieldInfo>,
    /// Enum variants across all enums in the file.
    pub variants: Vec<VariantInfo>,
    /// Statics.
    pub statics: Vec<StaticInfo>,
    /// Names of `type X = ...Mutex...` aliases declared here.
    pub lock_aliases: Vec<String>,
}

/// Normalizes a crate-ish path segment: `-` → `_`, then the `adc_`
/// prefix stripped, so `adc_runtime` (the lib name) and `runtime`
/// (the directory) compare equal.
pub(crate) fn normalize_seg(seg: &str) -> String {
    let s = seg.replace('-', "_");
    s.strip_prefix("adc_").map_or(s.clone(), str::to_string)
}

/// Module path of a workspace file: crate key first, then the module
/// chain implied by the path (`lib`/`mod` segments elided).
pub(crate) fn module_path_of(rel_path: &str) -> Vec<String> {
    let (crate_key, rest) = if let Some(r) = rel_path.strip_prefix("crates/") {
        let mut it = r.splitn(2, '/');
        let dir = it.next().unwrap_or("");
        let tail = it.next().and_then(|t| t.strip_prefix("src/")).unwrap_or("");
        (normalize_seg(dir), tail)
    } else if let Some(r) = rel_path.strip_prefix("src/") {
        ("pipeline_adc".to_string(), r)
    } else {
        (String::new(), rel_path)
    };
    let mut path = vec![crate_key];
    let stem = rest.strip_suffix(".rs").unwrap_or(rest);
    for seg in stem.split('/') {
        if !seg.is_empty() && seg != "lib" && seg != "mod" && seg != "main" {
            path.push(seg.to_string());
        }
    }
    path
}

/// Idents that are type-syntax noise, skipped when looking for the
/// principal type ident.
const TY_NOISE: &[&str] = &["mut", "dyn", "impl", "ref", "const"];

/// Wrapper types seen through for receiver-chain typing (`Arc<T>`
/// derefs to `T`, so `self.shared.sched` types through the `Arc`;
/// `f()?` and `if let Some(x)` unwrap to the `T` of `Result<T, _>` and
/// `Option<T>`).
const TY_WRAPPERS: &[&str] = &["Arc", "Rc", "Box", "Result", "Option"];

/// First meaningful type ident of a type token slice, seeing through
/// references, slices, and the [`TY_WRAPPERS`].
pub(crate) fn principal_ty(toks: &[Token<'_>]) -> String {
    let mut skip_path_tail = false;
    for t in toks {
        if t.kind == TokenKind::Lifetime {
            continue;
        }
        if t.kind == TokenKind::Ident {
            if skip_path_tail {
                // `std::sync::Mutex` — earlier segments were path
                // qualifiers; keep walking to the last segment.
                skip_path_tail = false;
            }
            if TY_NOISE.contains(&t.text) || TY_WRAPPERS.contains(&t.text) {
                continue;
            }
            return t.text.to_string();
        }
        if t.text == "::" {
            skip_path_tail = true;
        }
    }
    String::new()
}

fn toks_mention_lock(toks: &[Token<'_>], aliases: &[String]) -> bool {
    toks.iter().any(|t| {
        t.kind == TokenKind::Ident
            && (t.text == "Mutex" || t.text == "RwLock" || aliases.iter().any(|a| a == t.text))
    })
}

const GUARD_TYPES: &[&str] = &["MutexGuard", "RwLockReadGuard", "RwLockWriteGuard"];

#[derive(Debug)]
enum Frame {
    Mod { name: String, end: usize },
    Impl { ty: Option<String>, end: usize },
    Fn { end: usize },
}

impl Frame {
    fn end(&self) -> usize {
        match self {
            Frame::Mod { end, .. } | Frame::Impl { end, .. } | Frame::Fn { end } => *end,
        }
    }
}

/// Parses the items of one file.
pub(crate) fn parse_file(rel_path: &str, tokens: &[Token<'_>], maps: &TokenMaps) -> FileItems {
    let base = module_path_of(rel_path);
    let mut out = FileItems {
        module: base.clone(),
        ..FileItems::default()
    };
    // Pre-pass: lock-type aliases, so fields/statics/lets declared
    // before (or after) the alias in the file still classify.
    let mut k = 0;
    while k < tokens.len() {
        if tokens.get(k).is_some_and(|t| t.text == "type") {
            if let (Some(name), Some(eq)) = (tokens.get(k + 1), tokens.get(k + 2)) {
                let eq_at = if eq.text == "=" {
                    Some(k + 2)
                } else if eq.text == "<" {
                    let after = skip_angles(tokens, k + 2);
                    tokens.get(after).filter(|t| t.text == "=").map(|_| after)
                } else {
                    None
                };
                if let Some(eq_at) = eq_at {
                    let end = (eq_at..tokens.len())
                        .find(|&j| tokens.get(j).is_some_and(|t| t.text == ";"))
                        .unwrap_or(tokens.len());
                    let rhs = tokens.get(eq_at..end).unwrap_or(&[]);
                    if toks_mention_lock(rhs, &[]) {
                        out.lock_aliases.push(name.text.to_string());
                    }
                }
            }
        }
        k += 1;
    }

    let mut frames: Vec<Frame> = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        while frames.last().is_some_and(|f| i > f.end()) {
            frames.pop();
        }
        if maps.in_attr(i) {
            i += 1;
            continue;
        }
        let Some(tok) = tokens.get(i) else { break };
        let next_text = tokens.get(i + 1).map_or("", |t| t.text);
        match tok.text {
            // Macro definitions: their bodies are token soup that would
            // confuse item recognition — skip the whole block.
            "macro_rules" if next_text == "!" => {
                let open =
                    (i..tokens.len()).find(|&j| tokens.get(j).is_some_and(|t| t.text == "{"));
                i = open
                    .and_then(|o| maps.brace.get(o).copied())
                    .filter(|&c| c != NONE)
                    .map_or(i + 1, |c| c + 1);
            }
            "mod"
                if tokens
                    .get(i + 1)
                    .is_some_and(|t| t.kind == TokenKind::Ident) =>
            {
                if tokens.get(i + 2).is_some_and(|t| t.text == "{") {
                    let end = maps.brace.get(i + 2).copied().unwrap_or(NONE);
                    if end != NONE {
                        frames.push(Frame::Mod {
                            name: next_text.to_string(),
                            end,
                        });
                    }
                    i += 3;
                } else {
                    i += 2; // `mod name;` — file module, handled by paths
                }
            }
            "impl" | "trait" => {
                let (self_ty, body_open) = parse_impl_header(tokens, i);
                if let Some(open) = body_open {
                    let end = maps.brace.get(open).copied().unwrap_or(NONE);
                    if end != NONE {
                        frames.push(Frame::Impl { ty: self_ty, end });
                    }
                    i = open + 1;
                } else {
                    i += 1;
                }
            }
            "fn" if tokens
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::Ident) =>
            {
                let module = module_with_frames(&base, &frames);
                let self_ty = current_self_ty(&frames);
                if let Some((item, resume)) = parse_fn(tokens, maps, i, module, self_ty, tok.line) {
                    let skip_item = maps.in_test(tok.line);
                    let resume_at = resume;
                    if let Some((open, close)) = item.body {
                        if !skip_item {
                            frames.push(Frame::Fn { end: close });
                            out.fns.push(item);
                        }
                        i = open + 1;
                        if skip_item {
                            // Skip the whole test fn body.
                            i = close + 1;
                        }
                    } else {
                        if !skip_item {
                            out.fns.push(item);
                        }
                        i = resume_at;
                    }
                } else {
                    i += 2;
                }
            }
            "use" => {
                let is_pub = prev_is_pub(tokens, i);
                let (items, resume) = parse_use(tokens, i + 1);
                if !maps.in_test(tok.line) {
                    out.uses
                        .extend(items.into_iter().map(|(path, name, glob)| UseItem {
                            is_pub,
                            path,
                            name,
                            glob,
                        }));
                }
                i = resume;
            }
            "struct"
                if tokens
                    .get(i + 1)
                    .is_some_and(|t| t.kind == TokenKind::Ident) =>
            {
                let name = next_text.to_string();
                let mut j = i + 2;
                if tokens.get(j).is_some_and(|t| t.text == "<") {
                    j = skip_angles(tokens, j);
                }
                // Skip a where clause to the body/`;`.
                while tokens
                    .get(j)
                    .is_some_and(|t| t.text != "{" && t.text != ";" && t.text != "(")
                {
                    j += 1;
                }
                if tokens.get(j).is_some_and(|t| t.text == "{") && !maps.in_test(tok.line) {
                    let close = maps.brace.get(j).copied().unwrap_or(NONE);
                    if close != NONE {
                        parse_fields(tokens, j, close, &name, &out.lock_aliases, &mut out.fields);
                    }
                }
                i = j.max(i + 2);
            }
            "enum"
                if tokens
                    .get(i + 1)
                    .is_some_and(|t| t.kind == TokenKind::Ident) =>
            {
                let name = next_text.to_string();
                let mut j = i + 2;
                if tokens.get(j).is_some_and(|t| t.text == "<") {
                    j = skip_angles(tokens, j);
                }
                while tokens
                    .get(j)
                    .is_some_and(|t| t.text != "{" && t.text != ";")
                {
                    j += 1;
                }
                if tokens.get(j).is_some_and(|t| t.text == "{") && !maps.in_test(tok.line) {
                    let close = maps.brace.get(j).copied().unwrap_or(NONE);
                    if close != NONE {
                        parse_variants(
                            tokens,
                            maps,
                            j,
                            close,
                            &name,
                            &out.lock_aliases,
                            &mut out.fields,
                            &mut out.variants,
                        );
                    }
                }
                i = j.max(i + 2);
            }
            "static" => {
                let mut j = i + 1;
                if tokens.get(j).is_some_and(|t| t.text == "mut") {
                    j += 1;
                }
                let name = tokens.get(j).filter(|t| t.kind == TokenKind::Ident);
                if let Some(name) = name {
                    if tokens.get(j + 1).is_some_and(|t| t.text == ":") {
                        let eq = (j + 2..tokens.len())
                            .find(|&m| {
                                tokens
                                    .get(m)
                                    .is_some_and(|t| t.text == "=" || t.text == ";")
                            })
                            .unwrap_or(tokens.len());
                        let ty_toks = tokens.get(j + 2..eq).unwrap_or(&[]);
                        if !maps.in_test(tok.line) {
                            out.statics.push(StaticInfo {
                                name: name.text.to_string(),
                                ty: principal_ty(ty_toks),
                                is_lock: toks_mention_lock(ty_toks, &out.lock_aliases),
                            });
                        }
                        i = eq;
                        continue;
                    }
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    out
}

fn module_with_frames(base: &[String], frames: &[Frame]) -> Vec<String> {
    let mut m = base.to_vec();
    for f in frames {
        if let Frame::Mod { name, .. } = f {
            m.push(name.clone());
        }
    }
    m
}

fn current_self_ty(frames: &[Frame]) -> Option<String> {
    // Innermost frame wins: a nested fn inside a method body loses the
    // impl's self type (it has no `self`).
    for f in frames.iter().rev() {
        match f {
            Frame::Impl { ty, .. } => return ty.clone(),
            Frame::Fn { .. } => return None,
            Frame::Mod { .. } => {}
        }
    }
    None
}

fn prev_is_pub(tokens: &[Token<'_>], i: usize) -> bool {
    // `pub use`, `pub(crate) use`, `pub(in path) use`.
    let prev = i.checked_sub(1).and_then(|p| tokens.get(p));
    if prev.is_some_and(|t| t.text == "pub") {
        return true;
    }
    if prev.is_some_and(|t| t.text == ")") {
        for back in 2..=5 {
            if i.checked_sub(back)
                .and_then(|p| tokens.get(p))
                .is_some_and(|t| t.text == "pub")
            {
                return true;
            }
        }
    }
    false
}

/// Parses an `impl`/`trait` header starting at the keyword; returns
/// the self-type principal ident and the body `{` index.
fn parse_impl_header(tokens: &[Token<'_>], at: usize) -> (Option<String>, Option<usize>) {
    let mut i = at + 1;
    if tokens.get(i).is_some_and(|t| t.text == "<") {
        i = skip_angles(tokens, i);
    }
    let mut last_ident: Option<String> = None;
    while let Some(t) = tokens.get(i) {
        match t.text {
            "{" => return (last_ident, Some(i)),
            ";" => return (last_ident, None),
            "for" => {
                last_ident = None; // `impl Trait for Type` — the type wins
                i += 1;
            }
            "where" => {
                // Skip bounds to the body.
                while tokens
                    .get(i)
                    .is_some_and(|t| t.text != "{" && t.text != ";")
                {
                    i += 1;
                }
            }
            "<" => i = skip_angles(tokens, i),
            _ => {
                if t.kind == TokenKind::Ident && !TY_NOISE.contains(&t.text) {
                    last_ident = Some(t.text.to_string());
                }
                i += 1;
            }
        }
    }
    (last_ident, None)
}

/// Parses one `fn` item starting at the `fn` keyword. Returns the item
/// and the token index to resume scanning from when there is no body.
#[allow(clippy::too_many_lines)]
fn parse_fn(
    tokens: &[Token<'_>],
    maps: &TokenMaps,
    at: usize,
    module: Vec<String>,
    self_ty: Option<String>,
    line: u32,
) -> Option<(FnItem, usize)> {
    let name = tokens.get(at + 1)?.text.to_string();
    let mut i = at + 2;
    let mut callable_generics: Vec<String> = Vec::new();
    if tokens.get(i).is_some_and(|t| t.text == "<") {
        let close = skip_angles(tokens, i);
        collect_callable_generics(tokens.get(i..close).unwrap_or(&[]), &mut callable_generics);
        i = close;
    }
    if tokens.get(i).is_none_or(|t| t.text != "(") {
        return None;
    }
    let params_close = maps.paren.get(i).copied().unwrap_or(NONE);
    if params_close == NONE {
        return None;
    }
    let (has_self, mut params) = parse_params(tokens, i + 1, params_close);
    i = params_close + 1;
    // Return type.
    let mut returns_guard = false;
    let mut ret_start = i;
    if tokens.get(i).is_some_and(|t| t.text == "->") {
        i += 1;
        ret_start = i;
        while let Some(t) = tokens.get(i) {
            match t.text {
                "{" | ";" | "where" => break,
                "<" => {
                    let close = skip_angles(tokens, i);
                    if tokens
                        .get(i..close)
                        .unwrap_or(&[])
                        .iter()
                        .any(|t| GUARD_TYPES.contains(&t.text))
                    {
                        returns_guard = true;
                    }
                    i = close;
                }
                _ => {
                    if GUARD_TYPES.contains(&t.text) {
                        returns_guard = true;
                    }
                    i += 1;
                }
            }
        }
    }
    let mut ret_ty = if ret_start < i {
        principal_ty(tokens.get(ret_start..i).unwrap_or(&[]))
    } else {
        String::new()
    };
    if ret_ty == "Self" {
        ret_ty = self_ty.clone().unwrap_or_default();
    }
    if tokens.get(i).is_some_and(|t| t.text == "where") {
        let start = i;
        while tokens
            .get(i)
            .is_some_and(|t| t.text != "{" && t.text != ";")
        {
            i += 1;
        }
        collect_callable_generics(tokens.get(start..i).unwrap_or(&[]), &mut callable_generics);
    }
    for p in &mut params {
        if callable_generics.contains(&p.ty) {
            p.callable = true;
        }
    }
    let (body, resume) = match tokens.get(i).map(|t| t.text) {
        Some("{") => {
            let close = maps.brace.get(i).copied().unwrap_or(NONE);
            if close == NONE {
                (None, i + 1)
            } else {
                (Some((i, close)), close + 1)
            }
        }
        _ => (None, i + 1),
    };
    Some((
        FnItem {
            name,
            module,
            self_ty,
            has_self,
            params,
            returns_guard,
            ret_ty,
            line,
            sig_start: at,
            body,
        },
        resume,
    ))
}

/// Records generic params bounded by `Fn`/`FnMut`/`FnOnce` (from a
/// generics list or where clause token slice).
fn collect_callable_generics(toks: &[Token<'_>], out: &mut Vec<String>) {
    // Split on top-level commas; chunk's first ident is the param.
    let mut depth = 0i64;
    let mut chunk_first: Option<&str> = None;
    let mut chunk_callable = false;
    for t in toks {
        match t.text {
            "<" => depth += 1,
            ">" => depth -= 1,
            "<<" => depth += 2,
            ">>" => depth -= 2,
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "," if depth <= 1 => {
                if let (Some(name), true) = (chunk_first, chunk_callable) {
                    out.push(name.to_string());
                }
                chunk_first = None;
                chunk_callable = false;
                continue;
            }
            _ => {}
        }
        if t.kind == TokenKind::Ident {
            if matches!(t.text, "Fn" | "FnMut" | "FnOnce") {
                chunk_callable = true;
            } else if chunk_first.is_none() && t.text != "where" {
                chunk_first = Some(t.text);
            }
        }
    }
    if let (Some(name), true) = (chunk_first, chunk_callable) {
        out.push(name.to_string());
    }
}

/// Parses a parameter list between `open..close` token indices.
fn parse_params(tokens: &[Token<'_>], open: usize, close: usize) -> (bool, Vec<Param>) {
    let mut has_self = false;
    let mut params = Vec::new();
    let mut depth = 0i64;
    let mut start = open;
    let mut i = open;
    while i <= close {
        let text = tokens.get(i).map_or("", |t| t.text);
        match text {
            "<" => depth += 1,
            ">" => depth -= 1,
            // The lexer fuses shift tokens: `Vec<Vec<usize>>` closes
            // two angle levels with one `>>`.
            "<<" => depth += 2,
            ">>" => depth -= 2,
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            _ => {}
        }
        let at_end = i == close;
        if (text == "," && depth <= 0) || at_end {
            let end = if at_end { close } else { i };
            let chunk = tokens.get(start..end).unwrap_or(&[]);
            if !chunk.is_empty() {
                if chunk.iter().any(|t| t.text == "self") && !chunk.iter().any(|t| t.text == ":") {
                    has_self = true;
                } else if let Some(p) = parse_one_param(chunk) {
                    params.push(p);
                }
            }
            start = i + 1;
        }
        i += 1;
    }
    (has_self, params)
}

fn parse_one_param(chunk: &[Token<'_>]) -> Option<Param> {
    let colon = chunk.iter().position(|t| t.text == ":")?;
    let name = chunk
        .get(..colon)?
        .iter()
        .rev()
        .find(|t| t.kind == TokenKind::Ident && t.text != "mut" && t.text != "ref")?
        .text
        .to_string();
    let ty_toks = chunk.get(colon + 1..)?;
    let ty = principal_ty(ty_toks);
    let callable = matches!(ty.as_str(), "Fn" | "FnMut" | "FnOnce")
        || ty_toks
            .iter()
            .any(|t| matches!(t.text, "Fn" | "FnMut" | "FnOnce" | "fn"));
    let is_lock = ty == "Mutex" || ty == "RwLock";
    Some(Param {
        name,
        ty,
        callable,
        is_lock,
    })
}

/// Parses a use tree starting just after the `use` keyword. Returns
/// `(path, binding_name, glob)` triples and the resume index (past the
/// terminating `;`).
fn parse_use(tokens: &[Token<'_>], start: usize) -> (Vec<(Vec<String>, String, bool)>, usize) {
    let mut out = Vec::new();
    let mut i = start;
    let mut prefix: Vec<String> = Vec::new();
    parse_use_tree(tokens, &mut i, &mut prefix, &mut out, 0);
    // Consume to the `;` if the tree parse stopped short.
    while tokens.get(i).is_some_and(|t| t.text != ";") {
        i += 1;
    }
    (out, i + 1)
}

fn parse_use_tree(
    tokens: &[Token<'_>],
    i: &mut usize,
    prefix: &mut Vec<String>,
    out: &mut Vec<(Vec<String>, String, bool)>,
    depth: usize,
) {
    if depth > 8 {
        return; // pathological nesting — bail conservatively
    }
    let base_len = prefix.len();
    loop {
        let Some(t) = tokens.get(*i) else { return };
        match t.text {
            ";" => {
                flush_use(prefix, base_len, out);
                return;
            }
            "::" => *i += 1,
            "*" => {
                out.push((prefix.get(..).unwrap_or(&[]).to_vec(), String::new(), true));
                prefix.truncate(base_len);
                *i += 1;
            }
            "{" => {
                *i += 1;
                loop {
                    parse_use_tree(tokens, i, prefix, out, depth + 1);
                    match tokens.get(*i).map(|t| t.text) {
                        Some(",") => {
                            *i += 1;
                            prefix.truncate(prefix.len().max(base_len));
                        }
                        Some("}") => {
                            *i += 1;
                            break;
                        }
                        _ => return,
                    }
                }
                prefix.truncate(base_len);
            }
            "," | "}" => {
                flush_use(prefix, base_len, out);
                prefix.truncate(base_len);
                return;
            }
            "as" => {
                let alias = tokens
                    .get(*i + 1)
                    .filter(|t| t.kind == TokenKind::Ident)
                    .map_or(String::new(), |t| t.text.to_string());
                if !alias.is_empty() {
                    out.push((prefix.clone(), alias, false));
                }
                prefix.truncate(base_len);
                *i += 2;
                // Skip to the separator; the alias is already emitted.
                while tokens
                    .get(*i)
                    .is_some_and(|t| t.text != "," && t.text != "}" && t.text != ";")
                {
                    *i += 1;
                }
                return;
            }
            _ if t.kind == TokenKind::Ident => {
                prefix.push(t.text.to_string());
                *i += 1;
            }
            _ => {
                *i += 1;
            }
        }
    }
}

fn flush_use(prefix: &[String], base_len: usize, out: &mut Vec<(Vec<String>, String, bool)>) {
    if prefix.len() > base_len {
        if let Some(name) = prefix.last().cloned() {
            out.push((prefix.to_vec(), name, false));
        }
    }
}

/// Scans named-struct fields between the body braces.
fn parse_fields(
    tokens: &[Token<'_>],
    open: usize,
    close: usize,
    owner: &str,
    aliases: &[String],
    out: &mut Vec<FieldInfo>,
) {
    let mut i = open + 1;
    while i < close {
        // Skip attributes and visibility.
        if tokens.get(i).is_some_and(|t| t.text == "#") {
            while i < close && tokens.get(i).is_some_and(|t| t.text != "]") {
                i += 1;
            }
            i += 1;
            continue;
        }
        if tokens.get(i).is_some_and(|t| t.text == "pub") {
            i += 1;
            if tokens.get(i).is_some_and(|t| t.text == "(") {
                while i < close && tokens.get(i).is_some_and(|t| t.text != ")") {
                    i += 1;
                }
                i += 1;
            }
            continue;
        }
        let name_ok = tokens.get(i).is_some_and(|t| t.kind == TokenKind::Ident)
            && tokens.get(i + 1).is_some_and(|t| t.text == ":");
        if name_ok {
            // Type runs to the top-level comma or the close brace.
            let mut depth = 0i64;
            let mut j = i + 2;
            while j < close {
                match tokens.get(j).map_or("", |t| t.text) {
                    "<" => depth += 1,
                    "<<" => depth += 2,
                    ">" => depth -= 1,
                    ">>" => depth -= 2,
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "," if depth <= 0 => break,
                    _ => {}
                }
                j += 1;
            }
            let ty_toks = tokens.get(i + 2..j).unwrap_or(&[]);
            out.push(FieldInfo {
                owner: owner.to_string(),
                name: tokens.get(i).map_or("", |t| t.text).to_string(),
                ty: principal_ty(ty_toks),
                is_lock: toks_mention_lock(ty_toks, aliases),
            });
            i = j + 1;
        } else {
            i += 1;
        }
    }
}

/// Scans enum variants between the body braces. Struct-variant fields
/// land in `fields` under the enum's name (field names are unique
/// enough across variants for receiver typing); tuple variants record
/// their single-payload principal for match-arm binding inference.
#[allow(clippy::too_many_arguments)]
fn parse_variants(
    tokens: &[Token<'_>],
    maps: &TokenMaps,
    open: usize,
    close: usize,
    owner: &str,
    aliases: &[String],
    fields: &mut Vec<FieldInfo>,
    variants: &mut Vec<VariantInfo>,
) {
    let mut i = open + 1;
    while i < close {
        let text = tokens.get(i).map_or("", |t| t.text);
        // Skip attributes.
        if text == "#" {
            while i < close && tokens.get(i).is_some_and(|t| t.text != "]") {
                i += 1;
            }
            i += 1;
            continue;
        }
        if !tokens.get(i).is_some_and(|t| t.kind == TokenKind::Ident) {
            i += 1;
            continue;
        }
        let name = text.to_string();
        let mut payload = String::new();
        let mut j = i + 1;
        match tokens.get(j).map_or("", |t| t.text) {
            "(" => {
                let end = maps.paren.get(j).copied().unwrap_or(NONE);
                if end == NONE {
                    break;
                }
                let inner = tokens.get(j + 1..end).unwrap_or(&[]);
                // Only single-field tuple payloads carry a principal: a
                // top-level comma means positional multi-binding this
                // model does not type.
                let mut depth = 0i64;
                let mut multi = false;
                for t in inner {
                    match t.text {
                        "<" => depth += 1,
                        "<<" => depth += 2,
                        ">" => depth -= 1,
                        ">>" => depth -= 2,
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "," if depth <= 0 => multi = true,
                        _ => {}
                    }
                }
                if !multi {
                    payload = principal_ty(inner);
                }
                j = end + 1;
            }
            "{" => {
                let end = maps.brace.get(j).copied().unwrap_or(NONE);
                if end == NONE {
                    break;
                }
                parse_fields(tokens, j, end, owner, aliases, fields);
                j = end + 1;
            }
            _ => {}
        }
        variants.push(VariantInfo {
            owner: owner.to_string(),
            name,
            payload,
        });
        // To the next top-level separator comma (also skips explicit
        // discriminants).
        while j < close && tokens.get(j).is_some_and(|t| t.text != ",") {
            j += 1;
        }
        i = j + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(path: &str, src: &str) -> FileItems {
        let lexed = lex(src);
        parse_file(path, &lexed.tokens, &token_maps(&lexed.tokens))
    }

    #[test]
    fn module_paths_normalize_crate_names() {
        assert_eq!(
            module_path_of("crates/runtime/src/pool.rs"),
            vec!["runtime", "pool"]
        );
        assert_eq!(module_path_of("crates/server/src/lib.rs"), vec!["server"]);
        assert_eq!(
            module_path_of("crates/bench/src/bin/fig4_power.rs"),
            vec!["bench", "bin", "fig4_power"]
        );
        assert_eq!(module_path_of("src/lib.rs"), vec!["pipeline_adc"]);
        assert_eq!(normalize_seg("adc_runtime"), "runtime");
        assert_eq!(normalize_seg("adc-server"), "server");
    }

    #[test]
    fn fns_impls_and_methods_are_extracted() {
        let items = parse(
            "crates/runtime/src/pool.rs",
            "pub fn free(x: u32) -> u32 { x }\n\
             struct Pool { queue: Mutex<Vec<u32>>, size: usize }\n\
             impl Pool {\n    fn push(&self, v: u32) { self.queue.lock().unwrap().push(v) }\n}\n\
             impl std::fmt::Display for Pool {\n    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }\n}\n",
        );
        let names: Vec<&str> = items.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["free", "push", "fmt"]);
        assert_eq!(items.fns[0].self_ty, None);
        assert!(!items.fns[0].has_self);
        assert_eq!(items.fns[1].self_ty.as_deref(), Some("Pool"));
        assert!(items.fns[1].has_self);
        assert_eq!(items.fns[2].self_ty.as_deref(), Some("Pool"));
        assert!(items
            .fields
            .iter()
            .any(|f| f.owner == "Pool" && f.name == "queue" && f.is_lock));
        assert!(items.fields.iter().any(|f| f.name == "size" && !f.is_lock));
    }

    #[test]
    fn use_trees_expand_groups_aliases_and_globs() {
        let items = parse(
            "crates/server/src/lib.rs",
            "pub use protocol::{decode_frame, Frame as WireFrame};\n\
             use std::collections::BTreeMap;\nuse crate::jobs::*;\n",
        );
        let named: Vec<(String, bool)> = items
            .uses
            .iter()
            .map(|u| (u.name.clone(), u.is_pub))
            .collect();
        assert!(named.contains(&("decode_frame".to_string(), true)));
        assert!(named.contains(&("WireFrame".to_string(), true)));
        assert!(named.contains(&("BTreeMap".to_string(), false)));
        assert!(items
            .uses
            .iter()
            .any(|u| u.glob && u.path == ["crate", "jobs"]));
        let aliased = items.uses.iter().find(|u| u.name == "WireFrame");
        assert_eq!(
            aliased.map(|u| u.path.clone()),
            Some(vec!["protocol".to_string(), "Frame".to_string()])
        );
    }

    #[test]
    fn lock_statics_aliases_and_guard_returns() {
        let items = parse(
            "crates/trace/src/collector.rs",
            "type Slot<T> = Mutex<Option<T>>;\n\
             static ACTIVE: Mutex<Option<u32>> = Mutex::new(None);\n\
             static COUNT: u64 = 0;\n\
             fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> { m.lock().unwrap() }\n",
        );
        assert_eq!(items.lock_aliases, vec!["Slot".to_string()]);
        assert!(items
            .statics
            .iter()
            .any(|s| s.name == "ACTIVE" && s.is_lock));
        assert!(items
            .statics
            .iter()
            .any(|s| s.name == "COUNT" && !s.is_lock));
        let f = &items.fns[0];
        assert!(f.returns_guard);
        assert_eq!(f.params.len(), 1);
        assert!(f.params[0].is_lock);
        assert_eq!(f.params[0].name, "m");
    }

    #[test]
    fn callable_params_via_bounds_and_fn_types() {
        let items = parse(
            "crates/runtime/src/job.rs",
            "fn run<F: Fn(u32) -> u32>(n: u32, worker: F) -> u32 { worker(n) }\n\
             fn apply(cb: &dyn Fn() -> u32, other: u32) -> u32 { cb() }\n\
             fn plain(x: u32) -> u32 { x }\n",
        );
        let run = &items.fns[0];
        assert!(run.params.iter().any(|p| p.name == "worker" && p.callable));
        assert!(items.fns[1]
            .params
            .iter()
            .any(|p| p.name == "cb" && p.callable));
        assert!(items.fns[2].params.iter().all(|p| !p.callable));
    }

    #[test]
    fn test_mod_items_are_skipped_and_nested_mods_path() {
        let items = parse(
            "crates/runtime/src/cache.rs",
            "mod inner { pub fn deep() {} }\n\
             #[cfg(test)]\nmod tests { fn helper() {} use super::*; }\n",
        );
        assert_eq!(items.fns.len(), 1);
        assert_eq!(items.fns[0].module, vec!["runtime", "cache", "inner"]);
        assert!(items.uses.is_empty());
    }

    #[test]
    fn nested_fn_loses_impl_self_type() {
        let items = parse(
            "crates/server/src/x.rs",
            "impl Widget { fn outer(&self) { fn inner(v: u32) -> u32 { v } } }",
        );
        let outer = items.fns.iter().find(|f| f.name == "outer");
        let inner = items.fns.iter().find(|f| f.name == "inner");
        assert_eq!(
            outer.and_then(|f| f.self_ty.clone()).as_deref(),
            Some("Widget")
        );
        assert_eq!(inner.and_then(|f| f.self_ty.clone()), None);
    }
}

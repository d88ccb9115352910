//! The rule catalogue: each rule encodes one invariant the workspace
//! claims to hold.
//!
//! | rule | invariant | scope |
//! |---|---|---|
//! | `no-wallclock` | no `Instant::now` / `SystemTime::now` | determinism crates |
//! | `no-thread-id` | no `thread::current()` identity | determinism crates |
//! | `no-hash-collections` | no `HashMap`/`HashSet`/`RandomState` | determinism crates |
//! | `no-env-read` | no `std::env::var*` reads | everywhere but `crates/bench/src/cli.rs` |
//! | `no-panic` | no `unwrap`/`expect`/panicking macros/slice indexing | panic-free files |
//! | `float-eq` | no `==`/`!=` against float literals / NaN | whole workspace |
//! | `nan-ord` | no `partial_cmp(..).unwrap()` — use `total_cmp` | whole workspace |
//! | `safety-comment` | every `unsafe` carries a `// SAFETY:` comment | whole workspace |
//! | `panic-reach` | no panic reachable from a panic root | call graph from `PANIC_ROOTS` |
//! | `callgraph-opaque` | no fn-value calls on root paths | call graph from `PANIC_ROOTS` |
//! | `determinism-taint` | no nondeterminism laundered via helpers | determinism crates' callees |
//! | `lock-order` | lock-order graph acyclic | `LOCK_SCOPES` crates |
//! | `lock-across-send` | no guard across blocking channel op | `LOCK_SCOPES` crates |
//!
//! The first eight are per-file token rules (this module); the last
//! five are interprocedural, computed over the workspace call graph
//! (see the crate's `graph` and pass modules). They share the allow
//! pragma mechanism and this catalogue.
//!
//! Rules are lexical: they match token subsequences, not syntax trees.
//! That makes them conservative in a specific, documented direction —
//! `float-eq` only fires when a literal (or NaN/INFINITY path) appears
//! beside the operator, because identifier-vs-identifier comparisons
//! are type-invisible at the token level. The suppression mechanism
//! for intentional sites is the allow pragma (see [`crate::pragma`]),
//! never an engine special case.
//!
//! `#[cfg(test)]` items are skipped entirely: tests may panic, probe
//! env vars, and hash freely — the invariants protect shipped code.

use crate::config;
use crate::lexer::{Comment, Token, TokenKind};
use crate::report::Diagnostic;

/// Static description of one rule, for `--list-rules` and docs.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable identifier used in diagnostics and allow pragmas.
    pub id: &'static str,
    /// One-line summary of the invariant.
    pub summary: &'static str,
}

/// Every rule the engine knows, in diagnostic-priority order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "no-wallclock",
        summary: "determinism crates must not read Instant::now/SystemTime::now",
    },
    RuleInfo {
        id: "no-thread-id",
        summary: "determinism crates must not branch on thread::current() identity",
    },
    RuleInfo {
        id: "no-hash-collections",
        summary: "determinism crates must not use HashMap/HashSet/RandomState (iteration order)",
    },
    RuleInfo {
        id: "no-env-read",
        summary: "std::env::var* reads are confined to crates/bench/src/cli.rs",
    },
    RuleInfo {
        id: "no-panic",
        summary: "panic-free files: no unwrap/expect/panicking macros/slice indexing",
    },
    RuleInfo {
        id: "float-eq",
        summary: "no ==/!= against float literals or NaN — compare with tolerance or to_bits",
    },
    RuleInfo {
        id: "nan-ord",
        summary: "no partial_cmp(..).unwrap() — use f64::total_cmp",
    },
    RuleInfo {
        id: "safety-comment",
        summary: "every `unsafe` must be annotated with a // SAFETY: comment",
    },
    RuleInfo {
        id: "panic-reach",
        summary: "no panicking construct reachable from a declared panic root (transitive)",
    },
    RuleInfo {
        id: "callgraph-opaque",
        summary: "no fn-value calls on panic-root paths — the call graph cannot see through them",
    },
    RuleInfo {
        id: "determinism-taint",
        summary: "determinism crates must not reach nondeterminism sources via helper crates",
    },
    RuleInfo {
        id: "lock-order",
        summary: "the workspace lock-order graph must be acyclic (deadlock freedom)",
    },
    RuleInfo {
        id: "lock-across-send",
        summary: "no guard held across a blocking channel send/recv",
    },
];

/// `true` when `id` names a real (non-meta) rule.
pub fn is_known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// Everything a rule can see about one file.
#[derive(Debug)]
pub struct FileCtx<'a> {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: &'a str,
    /// Code tokens.
    pub tokens: &'a [Token<'a>],
    /// Comment side channel.
    pub comments: &'a [Comment<'a>],
    /// Line ranges (inclusive) covered by `#[cfg(test)]` items.
    pub test_spans: &'a [(u32, u32)],
}

impl FileCtx<'_> {
    fn in_test(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(a, b)| line >= a && line <= b)
    }

    fn diag(&self, rule: &str, line: u32, message: String) -> Diagnostic {
        Diagnostic {
            rule: rule.to_string(),
            file: self.rel_path.to_string(),
            line,
            message,
        }
    }
}

/// Computes the `#[cfg(test)]` item spans of a token stream: the lines
/// covered by any item whose attribute list contains `cfg` with a
/// `test` token inside its parentheses (covers `#[cfg(test)]` and
/// `#[cfg(all(test, ...))]`).
pub fn test_spans(tokens: &[Token<'_>]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].text == "#" && matches(tokens, i + 1, &["["]) {
            let (is_test_cfg, after_attr) = parse_attr(tokens, i + 2);
            if is_test_cfg {
                // Skip any further attributes, then find the item's end:
                // the matching `}` of its first block, or a `;`.
                let mut j = after_attr;
                while j < tokens.len() && tokens[j].text == "#" {
                    let (_, next) = parse_attr(tokens, j + 2);
                    j = next;
                }
                let start_line = tokens[i].line;
                let end_line = item_end_line(tokens, j);
                spans.push((start_line, end_line));
            }
            i = after_attr;
        } else {
            i += 1;
        }
    }
    spans
}

/// Parses one attribute starting just after `#[`; returns whether it is
/// a test `cfg` and the index just past the closing `]`. A `cfg`
/// containing `not` anywhere (`#[cfg(not(test))]`) is conservatively
/// treated as non-test: skipping production-only code would hide real
/// violations, while scanning a few extra test lines only costs an
/// explicit pragma.
fn parse_attr(tokens: &[Token<'_>], start: usize) -> (bool, usize) {
    let is_cfg = tokens.get(start).is_some_and(|t| t.text == "cfg");
    let mut depth = 1usize; // the `[` already consumed
    let mut has_test = false;
    let mut has_not = false;
    let mut i = start;
    while i < tokens.len() && depth > 0 {
        match tokens[i].text {
            "[" => depth += 1,
            "]" => depth -= 1,
            "test" => has_test = true,
            "not" => has_not = true,
            _ => {}
        }
        i += 1;
    }
    (is_cfg && has_test && !has_not, i)
}

/// Finds the last line of the item starting at `start`: skips to the
/// first `{` (tracking none-yet), then to its matching `}`; a `;`
/// before any `{` ends the item immediately.
fn item_end_line(tokens: &[Token<'_>], start: usize) -> u32 {
    let mut i = start;
    let mut brace_depth = 0usize;
    let mut entered = false;
    while i < tokens.len() {
        match tokens[i].text {
            ";" if !entered => return tokens[i].line,
            "{" => {
                brace_depth += 1;
                entered = true;
            }
            "}" => {
                brace_depth = brace_depth.saturating_sub(1);
                if entered && brace_depth == 0 {
                    return tokens[i].line;
                }
            }
            _ => {}
        }
        i += 1;
    }
    tokens.last().map_or(0, |t| t.line)
}

fn matches(tokens: &[Token<'_>], at: usize, texts: &[&str]) -> bool {
    texts
        .iter()
        .enumerate()
        .all(|(k, want)| tokens.get(at + k).is_some_and(|t| t.text == *want))
}

/// Keywords that can legally precede a `[` that is *not* an index
/// expression (`let [a, b] = ...`, `if let [x] = ...`, `in [1, 2]`).
pub(crate) const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "if", "while", "match", "return", "else", "move", "box", "dyn",
    "as", "const", "static", "type", "where", "use", "impl", "for",
];

/// Runs every applicable rule over one file.
pub fn check_file(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let determinism = config::in_determinism_scope(ctx.rel_path);
    let panic_free = config::in_panic_free_scope(ctx.rel_path);
    let env_exempt = config::is_env_exempt(ctx.rel_path);
    let toks = ctx.tokens;

    for (i, tok) in toks.iter().enumerate() {
        if ctx.in_test(tok.line) {
            continue;
        }
        let prev = i.checked_sub(1).and_then(|p| toks.get(p));
        let prev2 = i.checked_sub(2).and_then(|p| toks.get(p));

        if determinism && tok.kind == TokenKind::Ident {
            // no-wallclock: `Instant::now` / `SystemTime::now`.
            if tok.text == "now"
                && prev.is_some_and(|p| p.text == "::")
                && prev2.is_some_and(|p| p.text == "Instant" || p.text == "SystemTime")
            {
                let source = prev2.map_or("", |p| p.text);
                out.push(ctx.diag(
                    "no-wallclock",
                    tok.line,
                    format!(
                        "`{source}::now()` is a wall-clock read; campaign results must be \
                         a pure function of config and seed"
                    ),
                ));
            }
            // no-thread-id: `thread::current`.
            if tok.text == "current"
                && prev.is_some_and(|p| p.text == "::")
                && prev2.is_some_and(|p| p.text == "thread")
            {
                out.push(
                    ctx.diag(
                        "no-thread-id",
                        tok.line,
                        "`thread::current()` exposes scheduler-dependent identity; derive \
                     per-job state from the campaign seed instead"
                            .to_string(),
                    ),
                );
            }
            // no-hash-collections.
            if matches!(tok.text, "HashMap" | "HashSet" | "RandomState") {
                out.push(ctx.diag(
                    "no-hash-collections",
                    tok.line,
                    format!(
                        "`{}` has randomized iteration order; use BTreeMap/BTreeSet or a \
                         sorted Vec so results cannot depend on hash seeding",
                        tok.text
                    ),
                ));
            }
        }

        // no-env-read: `env::var` family, workspace-wide except cli.rs.
        if !env_exempt
            && tok.kind == TokenKind::Ident
            && matches!(tok.text, "var" | "var_os" | "vars" | "vars_os")
            && prev.is_some_and(|p| p.text == "::")
            && prev2.is_some_and(|p| p.text == "env")
        {
            out.push(ctx.diag(
                "no-env-read",
                tok.line,
                format!(
                    "`env::{}` read outside crates/bench/src/cli.rs; route configuration \
                     through CampaignArgs so env handling stays in one tested place",
                    tok.text
                ),
            ));
        }

        if panic_free {
            // `.unwrap()` / `.expect(`.
            if tok.kind == TokenKind::Ident
                && matches!(tok.text, "unwrap" | "expect")
                && prev.is_some_and(|p| p.text == ".")
            {
                out.push(ctx.diag(
                    "no-panic",
                    tok.line,
                    format!(
                        "`.{}()` in a panic-free file; return a typed error instead",
                        tok.text
                    ),
                ));
            }
            // Panicking macros.
            if tok.kind == TokenKind::Ident
                && matches!(
                    tok.text,
                    "panic"
                        | "unreachable"
                        | "todo"
                        | "unimplemented"
                        | "assert"
                        | "assert_eq"
                        | "assert_ne"
                        | "debug_assert"
                        | "debug_assert_eq"
                        | "debug_assert_ne"
                )
                && toks.get(i + 1).is_some_and(|n| n.text == "!")
            {
                out.push(ctx.diag(
                    "no-panic",
                    tok.line,
                    format!(
                        "`{}!` in a panic-free file; decode paths must be total",
                        tok.text
                    ),
                ));
            }
            // Slice/array indexing: `expr[...]` — a `[` directly after
            // an identifier (non-keyword), `)`, `]`, or `?`.
            if tok.text == "[" {
                let indexes = match prev {
                    Some(p) if p.kind == TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&p.text),
                    Some(p) => matches!(p.text, ")" | "]" | "?"),
                    None => false,
                };
                if indexes {
                    out.push(
                        ctx.diag(
                            "no-panic",
                            tok.line,
                            "slice indexing in a panic-free file; use `.get(..)` and map the \
                         miss to a typed error"
                                .to_string(),
                        ),
                    );
                }
            }
        }

        // float-eq: `==`/`!=` with a float literal or NaN beside it.
        if tok.kind == TokenKind::Punct && (tok.text == "==" || tok.text == "!=") {
            let next = toks.get(i + 1);
            let next2 = toks.get(i + 2);
            let float_beside = prev.is_some_and(|p| p.kind == TokenKind::Float)
                || next.is_some_and(|n| n.kind == TokenKind::Float)
                || (next.is_some_and(|n| n.text == "-")
                    && next2.is_some_and(|n| n.kind == TokenKind::Float))
                || prev.is_some_and(|p| p.text == "NAN")
                || next.is_some_and(|n| n.text == "NAN")
                // `x == f64::NAN` — NAN three tokens after the operator.
                || (next2.is_some_and(|n| n.text == "::")
                    && toks.get(i + 3).is_some_and(|n| n.text == "NAN"));
            if float_beside {
                out.push(ctx.diag(
                    "float-eq",
                    tok.line,
                    format!(
                        "float compared with `{}`; exact float equality is almost never \
                         intended — compare with a tolerance, `.to_bits()`, or annotate \
                         the exact-comparison intent with an allow pragma",
                        tok.text
                    ),
                ));
            }
        }

        // nan-ord: `partial_cmp( ... ).unwrap()` / `.expect(`.
        if tok.kind == TokenKind::Ident
            && tok.text == "partial_cmp"
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
        {
            if let Some(close) = matching_paren(toks, i + 1) {
                if matches(toks, close + 1, &["."])
                    && toks
                        .get(close + 2)
                        .is_some_and(|t| t.text == "unwrap" || t.text == "expect")
                {
                    out.push(
                        ctx.diag(
                            "nan-ord",
                            tok.line,
                            "`partial_cmp(..).unwrap()` panics on NaN; use `f64::total_cmp` \
                         for a total, panic-free ordering"
                                .to_string(),
                        ),
                    );
                }
            }
        }

        // safety-comment: every `unsafe` needs a nearby `// SAFETY:`.
        if tok.kind == TokenKind::Ident && tok.text == "unsafe" {
            let annotated = ctx.comments.iter().any(|c| {
                c.text.trim_start().starts_with("SAFETY:")
                    && c.line + 3 >= tok.line
                    && c.line <= tok.line
            });
            if !annotated {
                out.push(
                    ctx.diag(
                        "safety-comment",
                        tok.line,
                        "`unsafe` without a `// SAFETY:` comment on the preceding lines; \
                     state the invariant that makes this sound"
                            .to_string(),
                    ),
                );
            }
        }
    }
    out
}

/// Index of the `)` matching the `(` at `open`, if balanced.
fn matching_paren(tokens: &[Token<'_>], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, tok) in tokens.iter().enumerate().skip(open) {
        match tok.text {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn check(path: &str, src: &str) -> Vec<Diagnostic> {
        let lexed = lex(src);
        let spans = test_spans(&lexed.tokens);
        check_file(&FileCtx {
            rel_path: path,
            tokens: &lexed.tokens,
            comments: &lexed.comments,
            test_spans: &spans,
        })
    }

    #[test]
    fn wallclock_fires_only_in_determinism_scope() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(check("crates/runtime/src/x.rs", src).len(), 1);
        assert_eq!(check("crates/server/src/x.rs", src).len(), 0);
    }

    #[test]
    fn cfg_test_items_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { let m = HashMap::new(); }\n}\n";
        assert!(check("crates/runtime/src/x.rs", src).is_empty());
    }

    #[test]
    fn indexing_heuristic_spares_patterns_and_macros() {
        let path = "crates/server/src/protocol.rs";
        assert!(check(path, "fn f() { let [a, b] = pair; }").is_empty());
        assert!(check(path, "fn f() { let v = vec![1, 2]; }").is_empty());
        assert!(check(path, "fn f(x: [u8; 4]) {}").is_empty());
        assert_eq!(check(path, "fn f() { let x = buf[0]; }").len(), 1);
        assert_eq!(check(path, "fn f() { g()?[0]; }").len(), 1);
    }

    #[test]
    fn float_eq_needs_a_literal_or_nan() {
        let path = "crates/analog/src/x.rs";
        assert_eq!(check(path, "fn f(x: f64) -> bool { x == 0.0 }").len(), 1);
        assert_eq!(check(path, "fn f(x: f64) -> bool { x == -1.5 }").len(), 1);
        assert_eq!(
            check(path, "fn f(x: f64) -> bool { x == f64::NAN }").len(),
            1
        );
        assert!(check(path, "fn f(a: u32, b: u32) -> bool { a == b }").is_empty());
        assert!(check(path, "fn f(x: f64) -> bool { x.to_bits() == 42 }").is_empty());
    }

    #[test]
    fn nan_ord_matches_through_closure_arguments() {
        let src = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
        assert_eq!(check("crates/spectral/src/x.rs", src).len(), 1);
        let fixed = "fn f(v: &mut Vec<f64>) { v.sort_by(f64::total_cmp); }";
        assert!(check("crates/spectral/src/x.rs", fixed).is_empty());
    }

    #[test]
    fn safety_comment_within_three_lines_satisfies() {
        let bad = "fn f() { unsafe { g() } }";
        assert_eq!(check("crates/digital/src/x.rs", bad).len(), 1);
        let good = "// SAFETY: g upholds the aliasing contract.\nfn f() { unsafe { g() } }";
        assert!(check("crates/digital/src/x.rs", good).is_empty());
    }

    #[test]
    fn env_read_exempt_in_cli() {
        let src = "fn f() { let v = std::env::var(\"X\"); }";
        assert_eq!(check("crates/testbench/src/x.rs", src).len(), 1);
        assert!(check("crates/bench/src/cli.rs", src).is_empty());
    }
}

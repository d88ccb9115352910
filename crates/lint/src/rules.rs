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
//! pragma mechanism, this catalogue, and the one table of panicking
//! constructs and nondeterminism sources, `construct_at`.
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
use crate::items::{TokenMaps, NONE};
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
pub(crate) struct FileCtx<'a> {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: &'a str,
    /// Code tokens.
    pub tokens: &'a [Token<'a>],
    /// Comment side channel.
    pub comments: &'a [Comment<'a>],
    /// Bracket maps and `#[cfg(test)]` spans of `tokens`.
    pub maps: &'a TokenMaps,
}

impl FileCtx<'_> {
    fn diag(&self, rule: &str, line: u32, message: String) -> Diagnostic {
        Diagnostic {
            rule: rule.to_string(),
            file: self.rel_path.to_string(),
            line,
            message,
        }
    }
}

/// Keywords that can legally precede a `[` that is *not* an index
/// expression (`let [a, b] = ...`, `if let [x] = ...`, `in [1, 2]`).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "if", "while", "match", "return", "else", "move", "box", "dyn",
    "as", "const", "static", "type", "where", "use", "impl", "for",
];

/// A panicking construct or nondeterminism source at one token.
#[derive(Debug)]
pub(crate) struct Construct {
    /// The per-file rule that owns it: `no-panic` or a determinism rule.
    pub rule: &'static str,
    /// The construct as diagnostics quote it (`` `.unwrap()` ``,
    /// `` `Instant::now()` ``, `slice indexing`).
    pub what: String,
    /// The rest of the per-file message: why it is denied, and the fix.
    pub why: &'static str,
}

/// The one table of panicking constructs and nondeterminism sources:
/// the construct starting at token `i`, if any. The per-file rules
/// report it inside their scope, and the call-graph facts record it
/// for the interprocedural passes, so the two layers cannot disagree
/// on what counts. `env_exempt` files have no env-read source.
pub(crate) fn construct_at(tokens: &[Token<'_>], i: usize, env_exempt: bool) -> Option<Construct> {
    let text = |k: usize| tokens.get(k).map_or("", |t| t.text);
    let prev = i.checked_sub(1).and_then(|p| tokens.get(p));
    let (next, next2) = (text(i + 1), text(i + 2));
    let tok = tokens.get(i)?.text;
    let (rule, what, why) = match tok {
        "unwrap" | "expect" | "unwrap_err" | "expect_err"
            if prev.is_some_and(|p| p.text == ".") && next == "(" =>
        {
            let why = "in a panic-free file; return a typed error instead";
            ("no-panic", format!("`.{tok}()`"), why)
        }
        "panic" | "unreachable" | "todo" | "unimplemented" | "assert" | "assert_eq"
        | "assert_ne" | "debug_assert" | "debug_assert_eq" | "debug_assert_ne"
            if next == "!" =>
        {
            let why = "in a panic-free file; decode paths must be total";
            ("no-panic", format!("`{tok}!`"), why)
        }
        // Slice/array indexing: `expr[...]` — a `[` directly after an
        // identifier (non-keyword), `)`, `]`, or `?`.
        "[" if prev.is_some_and(|p| match p.kind {
            TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&p.text),
            _ => matches!(p.text, ")" | "]" | "?"),
        }) =>
        {
            let why = "in a panic-free file; use `.get(..)` and map the miss to a typed error";
            ("no-panic", "slice indexing".to_string(), why)
        }
        "Instant" | "SystemTime" if next == "::" && next2 == "now" => {
            let why = "is a wall-clock read; campaign results must be a pure function of \
                       config and seed";
            ("no-wallclock", format!("`{tok}::now()`"), why)
        }
        "thread" if next == "::" && next2 == "current" => {
            let why = "exposes scheduler-dependent identity; derive per-job state from the \
                       campaign seed instead";
            ("no-thread-id", "`thread::current()`".to_string(), why)
        }
        "HashMap" | "HashSet" | "RandomState" => {
            let why = "has randomized iteration order; use BTreeMap/BTreeSet or a sorted Vec \
                       so results cannot depend on hash seeding";
            ("no-hash-collections", format!("`{tok}`"), why)
        }
        "env"
            if !env_exempt
                && next == "::"
                && matches!(next2, "var" | "var_os" | "vars" | "vars_os") =>
        {
            let why = "read outside crates/bench/src/cli.rs; route configuration through \
                       CampaignArgs so env handling stays in one tested place";
            ("no-env-read", format!("`env::{next2}`"), why)
        }
        _ => return None,
    };
    Some(Construct { rule, what, why })
}

/// Runs every applicable rule over one file.
pub(crate) fn check_file(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let determinism = config::in_determinism_scope(ctx.rel_path);
    let panic_free = config::in_panic_free_scope(ctx.rel_path);
    let env_exempt = config::is_env_exempt(ctx.rel_path);
    let toks = ctx.tokens;

    for (i, tok) in toks.iter().enumerate() {
        if ctx.maps.in_test(tok.line) {
            continue;
        }
        let prev = i.checked_sub(1).and_then(|p| toks.get(p));

        // The construct rules: `no-panic` binds panic-free files,
        // `no-env-read` the whole workspace, the rest determinism crates.
        if let Some(c) = construct_at(toks, i, env_exempt) {
            let in_scope = match c.rule {
                "no-panic" => panic_free,
                "no-env-read" => true,
                _ => determinism,
            };
            if in_scope {
                out.push(ctx.diag(c.rule, tok.line, format!("{} {}", c.what, c.why)));
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
        if tok.text == "partial_cmp" && toks.get(i + 1).is_some_and(|n| n.text == "(") {
            let close = ctx.maps.paren.get(i + 1).copied().filter(|&c| c != NONE);
            if close.is_some_and(|c| {
                toks.get(c + 1).is_some_and(|t| t.text == ".")
                    && toks
                        .get(c + 2)
                        .is_some_and(|t| t.text == "unwrap" || t.text == "expect")
            }) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::token_maps;
    use crate::lexer::lex;

    fn check(path: &str, src: &str) -> Vec<Diagnostic> {
        let lexed = lex(src);
        check_file(&FileCtx {
            rel_path: path,
            tokens: &lexed.tokens,
            comments: &lexed.comments,
            maps: &token_maps(&lexed.tokens),
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

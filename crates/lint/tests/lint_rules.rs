//! Fixture tests: every rule has a firing fixture and a
//! pragma-suppressed fixture, every panicking construct and
//! nondeterminism source fires in both layers, misuse of the pragma
//! machinery is itself diagnosed, and the JSON report carries every
//! diagnostic field.
//!
//! Fixtures live in `tests/fixtures/` and are analyzed under *virtual*
//! workspace paths, so scoped rules (determinism crates, panic-free
//! files) can be exercised without materializing files at the scoped
//! locations. The `fail_on_regression` tests are the acceptance demo:
//! the real `protocol.rs`, as committed, is clean — and injecting one
//! `unwrap()` (or deleting one `// SAFETY:` comment from the annotated
//! fixture) flips the verdict.

use std::path::PathBuf;

use adc_lint::{analyze_files, analyze_source, Diagnostic, Report, RULES};
use adc_trace::json::{self, Json};

/// A virtual path inside a determinism-scoped crate.
const DET: &str = "crates/runtime/src/fixture.rs";
/// A virtual path with panic-freedom enforced.
const PANIC_FREE: &str = "crates/server/src/protocol.rs";
/// A virtual path with no special scope (float/nan/safety rules only).
const PLAIN: &str = "crates/server/src/fixture.rs";
/// A virtual path with a symbol-level panic root (`lex`).
const SYM_ROOT: &str = "crates/lint/src/lexer.rs";

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path:?}: {e}"))
}

fn rules_hit(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.rule.as_str()).collect()
}

/// A fixture file set: (fixture file, virtual workspace path).
/// Interprocedural rules need more than one file — the point is that
/// the violation and the contract live in *different* files.
type FileSet = &'static [(&'static str, &'static str)];

/// Analyzes a fixture set as one (virtual) workspace.
fn analyze_set(set: FileSet) -> Vec<Diagnostic> {
    let sources: Vec<(String, String)> = set
        .iter()
        .map(|(file, path)| (path.to_string(), fixture(file)))
        .collect();
    let views: Vec<(&str, &str)> = sources
        .iter()
        .map(|(p, s)| (p.as_str(), s.as_str()))
        .collect();
    analyze_files(&views, false).report.diagnostics
}

/// (rule, firing file set, allowed file set) — one row per rule, so
/// adding a rule without fixtures fails the coverage test.
const MATRIX: &[(&str, FileSet, FileSet)] = &[
    (
        "no-wallclock",
        &[("no_wallclock_fire.rs", DET)],
        &[("no_wallclock_allow.rs", DET)],
    ),
    (
        "no-thread-id",
        &[("no_thread_id_fire.rs", DET)],
        &[("no_thread_id_allow.rs", DET)],
    ),
    (
        "no-hash-collections",
        &[("no_hash_collections_fire.rs", DET)],
        &[("no_hash_collections_allow.rs", DET)],
    ),
    (
        "no-env-read",
        &[("no_env_read_fire.rs", PLAIN)],
        &[("no_env_read_allow.rs", PLAIN)],
    ),
    (
        "no-panic",
        &[("no_panic_fire.rs", PANIC_FREE)],
        &[("no_panic_allow.rs", PANIC_FREE)],
    ),
    (
        "float-eq",
        &[("float_eq_fire.rs", PLAIN)],
        &[("float_eq_allow.rs", PLAIN)],
    ),
    (
        "nan-ord",
        &[("nan_ord_fire.rs", PLAIN)],
        &[("nan_ord_allow.rs", PLAIN)],
    ),
    (
        "safety-comment",
        &[("safety_comment_fire.rs", PLAIN)],
        &[("safety_comment_allow.rs", PLAIN)],
    ),
    (
        "panic-reach",
        &[("panic_reach_fire.rs", SYM_ROOT)],
        &[("panic_reach_allow.rs", SYM_ROOT)],
    ),
    (
        "callgraph-opaque",
        &[("callgraph_opaque_fire.rs", SYM_ROOT)],
        &[("callgraph_opaque_allow.rs", SYM_ROOT)],
    ),
    (
        "determinism-taint",
        &[
            ("determinism_taint_fire_a.rs", DET),
            (
                "determinism_taint_fire_b.rs",
                "crates/server/src/stamp_fixture.rs",
            ),
        ],
        &[
            ("determinism_taint_allow_a.rs", DET),
            (
                "determinism_taint_fire_b.rs",
                "crates/server/src/stamp_fixture.rs",
            ),
        ],
    ),
    (
        "lock-order",
        &[("lock_order_fire.rs", DET)],
        &[("lock_order_allow.rs", DET)],
    ),
    (
        "lock-across-send",
        &[("lock_across_send_fire.rs", DET)],
        &[("lock_across_send_allow.rs", DET)],
    ),
];

#[test]
fn every_rule_fires_on_its_fixture() {
    for (rule, fire, _) in MATRIX {
        let diags = analyze_set(fire);
        assert!(
            diags.iter().any(|d| d.rule == *rule),
            "{fire:?} should fire {rule}; got {:?}",
            rules_hit(&diags)
        );
        // A firing fixture must not trip the meta rules: its pragmaless
        // diagnostics are genuine.
        assert!(
            diags
                .iter()
                .all(|d| d.rule != "unused-allow" && d.rule != "bad-pragma"),
            "{fire:?}: {:?}",
            rules_hit(&diags)
        );
    }
}

#[test]
fn every_rule_is_suppressed_by_its_allow_fixture() {
    for (rule, _, allow) in MATRIX {
        let diags = analyze_set(allow);
        assert!(
            diags.is_empty(),
            "{allow:?} should be clean (pragma suppresses {rule}); got {:?}",
            rules_hit(&diags)
        );
    }
}

#[test]
fn matrix_covers_the_whole_catalogue() {
    let covered: Vec<&str> = MATRIX.iter().map(|(rule, ..)| *rule).collect();
    for rule in RULES {
        assert!(
            covered.contains(&rule.id),
            "rule {} has no fixture row — add firing and allowed fixtures",
            rule.id
        );
    }
    assert_eq!(covered.len(), RULES.len(), "stale fixture rows");
}

#[test]
fn scope_exemptions_hold() {
    // The env-read fixture is clean when it *is* the CLI module…
    let env_src = fixture("no_env_read_fire.rs");
    assert!(analyze_source("crates/bench/src/cli.rs", &env_src).is_empty());
    // …and determinism fixtures are clean outside determinism scope.
    let clock_src = fixture("no_wallclock_fire.rs");
    assert!(analyze_source("crates/server/src/metrics.rs", &clock_src).is_empty());
}

#[test]
fn safety_comment_annotation_is_the_pragmaless_fix() {
    let diags = analyze_source(PLAIN, &fixture("safety_comment_annotated.rs"));
    assert!(diags.is_empty(), "{:?}", rules_hit(&diags));
}

#[test]
fn deleting_the_safety_comment_flips_the_verdict() {
    let annotated = fixture("safety_comment_annotated.rs");
    let stripped: String = annotated
        .lines()
        .filter(|l| !l.trim_start().starts_with("// SAFETY:"))
        .collect::<Vec<_>>()
        .join("\n");
    let diags = analyze_source(PLAIN, &stripped);
    assert_eq!(rules_hit(&diags), vec!["safety-comment"]);
}

#[test]
fn unused_allow_is_reported() {
    let diags = analyze_source(PANIC_FREE, &fixture("unused_allow.rs"));
    assert_eq!(rules_hit(&diags), vec!["unused-allow"]);
}

#[test]
fn bad_pragma_is_reported() {
    let diags = analyze_source(PANIC_FREE, &fixture("bad_pragma.rs"));
    assert_eq!(rules_hit(&diags), vec!["bad-pragma"]);
}

#[test]
fn cfg_test_items_are_fully_exempt() {
    let diags = analyze_source(DET, &fixture("test_mod_skipped.rs"));
    assert!(diags.is_empty(), "{:?}", rules_hit(&diags));
}

#[test]
fn the_committed_protocol_file_is_clean_and_one_unwrap_breaks_it() {
    let real = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../server/src/protocol.rs");
    let source = std::fs::read_to_string(&real).unwrap();
    let clean = analyze_source(PANIC_FREE, &source);
    assert!(
        clean.is_empty(),
        "committed protocol.rs must be lint-clean: {:?}",
        rules_hit(&clean)
    );
    // Inject a single unwrap into non-test code (appended after the
    // test module, which ends the file): the file must now fail.
    let broken = format!("{source}\nfn injected(x: Option<u8>) -> u8 {{ x.unwrap() }}\n");
    let diags = analyze_source(PANIC_FREE, &broken);
    assert_eq!(
        rules_hit(&diags),
        vec!["no-panic"],
        "one unwrap() must produce exactly one no-panic diagnostic"
    );
}

#[test]
fn unwrap_in_a_helper_called_by_protocol_is_caught() {
    // The acceptance fixture from the issue: the panic is NOT in
    // protocol.rs — it is in a helper protocol.rs calls, so only the
    // transitive pass can see it.
    let proto = "use crate::framing::take_first;\n\
                 pub fn decode(v: &[u8]) -> Option<u8> { take_first(v) }\n";
    let helper_ok = "pub fn take_first(v: &[u8]) -> Option<u8> {\n    \
                     Some(*v.first()?)\n}\n";
    let framing = "crates/server/src/framing.rs";
    let clean = analyze_files(&[(PANIC_FREE, proto), (framing, helper_ok)], false)
        .report
        .diagnostics;
    assert!(clean.is_empty(), "{:?}", rules_hit(&clean));
    // Swap the helper's `?` for `unwrap()` — protocol.rs is untouched,
    // yet the workspace must now fail, anchored at the helper.
    let helper_bad = "pub fn take_first(v: &[u8]) -> Option<u8> {\n    \
                      Some(*v.first().unwrap())\n}\n";
    let diags = analyze_files(&[(PANIC_FREE, proto), (framing, helper_bad)], false)
        .report
        .diagnostics;
    assert_eq!(rules_hit(&diags), vec!["panic-reach"], "{diags:?}");
    assert_eq!(diags[0].file, framing);
    assert!(
        diags[0].message.contains("protocol"),
        "witness chain should name the root: {}",
        diags[0].message
    );
}

#[test]
fn fixture_reports_round_trip_through_json() {
    let mut diagnostics = Vec::new();
    for (_, fire, _) in MATRIX {
        diagnostics.extend(analyze_set(fire));
    }
    let report = Report {
        files_scanned: MATRIX.len(),
        diagnostics,
    };
    assert!(!report.is_clean());
    let doc = json::parse(&report.to_json()).expect("emitted JSON must parse");
    assert_eq!(doc.get("version").and_then(Json::as_f64), Some(1.0));
    assert_eq!(doc.get("clean"), Some(&Json::Bool(false)));
    assert_eq!(
        doc.get("files_scanned").and_then(Json::as_f64),
        Some(MATRIX.len() as f64)
    );
    let items = doc.get("diagnostics").and_then(Json::as_arr).unwrap();
    assert_eq!(items.len(), report.diagnostics.len());
    for (item, d) in items.iter().zip(&report.diagnostics) {
        let text = |key: &str| item.get(key).and_then(Json::as_str);
        assert_eq!(text("rule"), Some(d.rule.as_str()));
        assert_eq!(text("file"), Some(d.file.as_str()));
        assert_eq!(
            item.get("line").and_then(Json::as_f64),
            Some(f64::from(d.line))
        );
        assert_eq!(text("message"), Some(d.message.as_str()));
    }
}

#[test]
fn unwrap_err_and_expect_err_fire_in_a_whole_file_root() {
    let diags = analyze_source(PANIC_FREE, &fixture("no_panic_fire.rs"));
    for what in ["`.unwrap_err()`", "`.expect_err()`"] {
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "no-panic" && d.message.starts_with(what)),
            "{what} must fire as no-panic: {diags:?}"
        );
    }
}

const UNWRAP: &str = "in a panic-free file; return a typed error instead";
const MACRO: &str = "in a panic-free file; decode paths must be total";
const INDEX: &str = "in a panic-free file; use `.get(..)` and map the miss to a typed error";
const CLOCK: &str =
    "is a wall-clock read; campaign results must be a pure function of config and seed";
const THREAD: &str = "exposes scheduler-dependent identity; derive per-job state from the \
                      campaign seed instead";
const HASH: &str = "has randomized iteration order; use BTreeMap/BTreeSet or a sorted Vec so \
                    results cannot depend on hash seeding";
const ENV: &str = "read outside crates/bench/src/cli.rs; route configuration through \
                   CampaignArgs so env handling stays in one tested place";

/// Every panicking construct and nondeterminism source:
/// (statement, per-file rule, quoted construct, rest of the message).
#[rustfmt::skip]
const CONSTRUCTS: &[(&str, &str, &str, &str)] = &[
    ("o.unwrap()", "no-panic", "`.unwrap()`", UNWRAP),
    ("o.expect(\"x\")", "no-panic", "`.expect()`", UNWRAP),
    ("r.unwrap_err()", "no-panic", "`.unwrap_err()`", UNWRAP),
    ("r.expect_err(\"x\")", "no-panic", "`.expect_err()`", UNWRAP),
    ("panic!(\"x\")", "no-panic", "`panic!`", MACRO),
    ("unreachable!()", "no-panic", "`unreachable!`", MACRO),
    ("todo!()", "no-panic", "`todo!`", MACRO),
    ("unimplemented!()", "no-panic", "`unimplemented!`", MACRO),
    ("assert!(b)", "no-panic", "`assert!`", MACRO),
    ("assert_eq!(b, true)", "no-panic", "`assert_eq!`", MACRO),
    ("assert_ne!(b, false)", "no-panic", "`assert_ne!`", MACRO),
    ("debug_assert!(b)", "no-panic", "`debug_assert!`", MACRO),
    ("debug_assert_eq!(b, true)", "no-panic", "`debug_assert_eq!`", MACRO),
    ("debug_assert_ne!(b, false)", "no-panic", "`debug_assert_ne!`", MACRO),
    ("v[0]", "no-panic", "slice indexing", INDEX),
    ("Instant::now()", "no-wallclock", "`Instant::now()`", CLOCK),
    ("SystemTime::now()", "no-wallclock", "`SystemTime::now()`", CLOCK),
    ("thread::current()", "no-thread-id", "`thread::current()`", THREAD),
    ("HashMap::<u8, u8>::new()", "no-hash-collections", "`HashMap`", HASH),
    ("HashSet::<u8>::new()", "no-hash-collections", "`HashSet`", HASH),
    ("RandomState::new()", "no-hash-collections", "`RandomState`", HASH),
    ("env::var(\"X\")", "no-env-read", "`env::var`", ENV),
    ("env::var_os(\"X\")", "no-env-read", "`env::var_os`", ENV),
    ("env::vars()", "no-env-read", "`env::vars`", ENV),
    ("env::vars_os()", "no-env-read", "`env::vars_os`", ENV),
];

/// A helper whose body is the one statement `stmt`, on line 2.
fn helper(stmt: &str) -> String {
    format!(
        "pub fn helper(v: &[u8], o: Option<u8>, r: Result<u8, u8>, b: bool) -> u8 {{\n    \
         let _ = {stmt};\n    0\n}}\n"
    )
}

#[test]
fn every_construct_fires_per_file_and_through_a_helper() {
    for &(stmt, rule, what, why) in CONSTRUCTS {
        // The per-file rule, inside its scope, with its message.
        let scope = match rule {
            "no-panic" => PANIC_FREE,
            "no-env-read" => PLAIN,
            _ => DET,
        };
        let diags = analyze_source(scope, &helper(stmt));
        let want = Diagnostic {
            rule: rule.to_string(),
            file: scope.to_string(),
            line: 2,
            message: format!("{what} {why}"),
        };
        assert_eq!(diags, vec![want], "{stmt} in {scope}");

        // The interprocedural rule, through a helper in another file.
        let (caller, helper_path, via) = if rule == "no-panic" {
            let lex = "use crate::helper::helper;\n\
                       pub fn lex(s: &str) -> u8 { helper(&[], None, Ok(0), true) }\n";
            (lex, "crates/lint/src/helper.rs", "panic-reach")
        } else {
            let run = "use adc_server::helper::helper;\n\
                       pub fn run() -> u8 { helper(&[], None, Ok(0), true) }\n";
            (run, "crates/server/src/helper.rs", "determinism-taint")
        };
        let root = if via == "panic-reach" { SYM_ROOT } else { DET };
        let body = helper(stmt);
        let diags = analyze_files(&[(root, caller), (helper_path, &body)], false)
            .report
            .diagnostics;
        assert!(
            diags
                .iter()
                .any(|d| d.rule == via && d.message.contains(what)),
            "{stmt}: {via} through {helper_path} expected, got {diags:?}"
        );
    }
}

#[test]
fn cfg_test_spans_cover_exactly_the_test_items() {
    let hash = |src: &str| {
        let diags = analyze_source(DET, src);
        diags
            .iter()
            .map(|d| (d.line, d.rule.clone()))
            .collect::<Vec<_>>()
    };
    let fired = |line: u32| vec![(line, "no-hash-collections".to_string())];
    // `not(test)` is production code and is scanned.
    assert_eq!(
        hash("#[cfg(not(test))]\nfn f() { let m = HashMap::new(); }\n"),
        fired(2)
    );
    // `all(test, ..)` is test-only.
    assert!(
        hash("#[cfg(all(test, unix))]\nmod t {\n    fn f() { HashMap::new(); }\n}\n").is_empty()
    );
    // Stacked attributes: the whole item after them is skipped.
    assert!(hash(
        "#[cfg(test)]\n#[allow(dead_code)]\nmod t {\n    fn f() { HashMap::new(); }\n}\n"
    )
    .is_empty());
    // A `;`-terminated item ends the span at its `;`.
    assert_eq!(
        hash("#[cfg(test)]\nuse std::collections::HashMap;\nfn g() { HashSet::new(); }\n"),
        fired(3)
    );
}

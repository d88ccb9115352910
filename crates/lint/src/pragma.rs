//! Allow pragmas: scoped, audited suppressions.
//!
//! Grammar (one pragma per comment):
//!
//! ```text
//! // adc-lint: allow(<rule-id>) reason="<non-empty free text>"
//! ```
//!
//! A **trailing** pragma (code earlier on the same line) suppresses
//! matching diagnostics on its own line; a **standalone** pragma
//! suppresses them on the next line that carries code. The reason is
//! mandatory — a suppression without a recorded justification is
//! exactly the kind of silent exception this engine exists to prevent.
//!
//! Misuse is itself diagnosed: a pragma that fails to parse, names an
//! unknown rule, or omits the reason yields `bad-pragma`; a
//! well-formed pragma that suppresses nothing yields `unused-allow`
//! (so stale suppressions die with the violation they excused).
//!
//! One `AllowTable` holds a scan's pragmas: call-graph facts
//! discharged at their source and diagnostics suppressed centrally
//! both `take` from it, and what nothing took is `unused-allow`.

use crate::lexer::{Comment, Lexed};
use crate::report::Diagnostic;
use crate::rules::is_known_rule;

/// The marker every pragma comment starts with (after trimming).
pub const PRAGMA_PREFIX: &str = "adc-lint:";

/// One parsed allow pragma.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// The rule being suppressed.
    pub rule: String,
    /// The recorded justification.
    pub reason: String,
    /// Line the pragma comment starts on.
    pub line: u32,
    /// Whether the pragma trails code on its own line.
    pub trailing: bool,
}

impl Allow {
    /// The source line this pragma suppresses, given the sorted list of
    /// lines that carry code tokens.
    pub fn target_line(&self, code_lines: &[u32]) -> Option<u32> {
        if self.trailing {
            Some(self.line)
        } else {
            code_lines.iter().copied().find(|&l| l > self.line)
        }
    }
}

/// Parses every pragma comment in a file. Returns the well-formed
/// allows and a `bad-pragma` diagnostic for each malformed one.
pub fn parse_allows(rel_path: &str, comments: &[Comment<'_>]) -> (Vec<Allow>, Vec<Diagnostic>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for comment in comments {
        let text = comment.text.trim();
        let Some(rest) = text.strip_prefix(PRAGMA_PREFIX) else {
            continue;
        };
        match parse_one(rest.trim()) {
            Ok((rule, reason)) => allows.push(Allow {
                rule,
                reason,
                line: comment.line,
                trailing: comment.trailing,
            }),
            Err(why) => bad.push(Diagnostic {
                rule: "bad-pragma".to_string(),
                file: rel_path.to_string(),
                line: comment.line,
                message: format!(
                    "malformed pragma ({why}); expected \
                     `// adc-lint: allow(<rule>) reason=\"...\"`"
                ),
            }),
        }
    }
    (allows, bad)
}

/// Every allow pragma of a scan as (file, target line, allow, used).
#[derive(Debug, Default)]
pub(crate) struct AllowTable<'a> {
    entries: Vec<(&'a str, Option<u32>, Allow, bool)>,
}

impl<'a> AllowTable<'a> {
    /// Adds `rel_path`'s pragmas, each resolved to its target line;
    /// returns a `bad-pragma` diagnostic for each malformed one.
    pub(crate) fn add_file(&mut self, rel_path: &'a str, lexed: &Lexed<'_>) -> Vec<Diagnostic> {
        let (allows, bad) = parse_allows(rel_path, &lexed.comments);
        let mut code_lines: Vec<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        code_lines.dedup();
        for allow in allows {
            let target = allow.target_line(&code_lines);
            self.entries.push((rel_path, target, allow, false));
        }
        bad
    }

    /// Marks used every pragma of `file` that targets `line` and
    /// allows one of `rules`; `true` when there was one.
    pub(crate) fn take(&mut self, file: &str, line: u32, rules: &[&str]) -> bool {
        let mut hit = false;
        for (f, target, allow, used) in &mut self.entries {
            if *f == file && *target == Some(line) && rules.contains(&allow.rule.as_str()) {
                *used = true;
                hit = true;
            }
        }
        hit
    }

    /// An `unused-allow` diagnostic for each pragma nothing took.
    pub(crate) fn unused(&self) -> Vec<Diagnostic> {
        self.entries
            .iter()
            .filter(|(.., used)| !used)
            .map(|(file, _, allow, _)| Diagnostic {
                rule: "unused-allow".to_string(),
                file: (*file).to_string(),
                line: allow.line,
                message: format!(
                    "allow({}) suppresses nothing; delete the stale pragma (reason \
                     was: \"{}\")",
                    allow.rule, allow.reason
                ),
            })
            .collect()
    }
}

fn parse_one(text: &str) -> Result<(String, String), String> {
    let rest = text
        .strip_prefix("allow(")
        .ok_or("missing `allow(`".to_string())?;
    let close = rest.find(')').ok_or("unclosed `allow(`".to_string())?;
    let rule = rest.get(..close).unwrap_or("").trim().to_string();
    if !is_known_rule(&rule) {
        return Err(format!("unknown rule `{rule}`"));
    }
    let after = rest.get(close + 1..).unwrap_or("").trim();
    let reason_body = after
        .strip_prefix("reason=\"")
        .ok_or("missing `reason=\"...\"`".to_string())?;
    let end = reason_body
        .find('"')
        .ok_or("unterminated reason string".to_string())?;
    let reason = reason_body.get(..end).unwrap_or("").trim().to_string();
    if reason.is_empty() {
        return Err("empty reason".to_string());
    }
    if !reason_body.get(end + 1..).unwrap_or("").trim().is_empty() {
        return Err("trailing text after reason".to_string());
    }
    Ok((rule, reason))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> (Vec<Allow>, Vec<Diagnostic>) {
        let lexed = lex(src);
        parse_allows("crates/x/src/y.rs", &lexed.comments)
    }

    #[test]
    fn well_formed_pragma_parses() {
        let (allows, bad) = parse(
            "// adc-lint: allow(no-wallclock) reason=\"latency metric, not in result path\"\n\
             let t = Instant::now();",
        );
        assert!(bad.is_empty());
        assert_eq!(allows.len(), 1);
        assert_eq!(allows[0].rule, "no-wallclock");
        assert!(!allows[0].trailing);
        assert_eq!(allows[0].target_line(&[2]), Some(2));
    }

    #[test]
    fn trailing_pragma_targets_its_own_line() {
        let (allows, _) =
            parse("let x = 0.0 == y; // adc-lint: allow(float-eq) reason=\"exact sentinel\"");
        assert_eq!(allows.len(), 1);
        assert!(allows[0].trailing);
        assert_eq!(allows[0].target_line(&[1]), Some(1));
    }

    #[test]
    fn malformed_pragmas_are_diagnosed() {
        for bad_src in [
            "// adc-lint: allow(no-wallclock)",                    // no reason
            "// adc-lint: allow(no-wallclock) reason=\"\"",        // empty reason
            "// adc-lint: allow(not-a-rule) reason=\"x\"",         // unknown rule
            "// adc-lint: allowno-wallclock) reason=\"x\"",        // no paren
            "// adc-lint: allow(no-wallclock) reason=\"x\" extra", // trailing junk
        ] {
            let (allows, bad) = parse(bad_src);
            assert!(allows.is_empty(), "{bad_src}");
            assert_eq!(bad.len(), 1, "{bad_src}");
            assert_eq!(bad[0].rule, "bad-pragma");
        }
    }

    #[test]
    fn ordinary_comments_are_ignored() {
        let (allows, bad) = parse("// just a comment mentioning allow(no-panic)\nlet x = 1;");
        assert!(allows.is_empty());
        assert!(bad.is_empty());
    }
}

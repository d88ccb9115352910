//! Diagnostics and the machine-readable report.
//!
//! A [`Diagnostic`] is one rule violation at one `file:line`. A
//! [`Report`] aggregates a whole scan and renders two ways: the
//! compiler-style human listing (`file:line: [rule] message`) and a
//! JSON document for tooling. The JSON codec is symmetric —
//! [`Report::to_json`] / [`Report::from_json`] round-trip exactly,
//! which the fixture tests assert — so CI artifacts can be parsed back
//! without an external JSON dependency. Both directions go through the
//! workspace's one JSON codec, `adc_trace::json`.

use std::fmt::Write as _;

use adc_trace::json::{escape, parse, Json};

/// One rule violation (or pragma problem) at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule identifier (`no-panic`, `float-eq`, ... or the meta rules
    /// `unused-allow` / `bad-pragma`).
    pub rule: String,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Compiler-style one-line rendering.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The outcome of scanning a workspace (or a single virtual file).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Report {
    /// Number of files scanned.
    pub files_scanned: usize,
    /// All diagnostics, ordered by file then line.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// `true` when the scan produced no diagnostics of any kind.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Human listing: one line per diagnostic plus a summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{}", d.render());
        }
        let _ = writeln!(
            out,
            "adc-lint: {} file(s) scanned, {} diagnostic(s)",
            self.files_scanned,
            self.diagnostics.len()
        );
        out
    }

    /// Serializes the report as a stable JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"version\": 1,");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"clean\": {},", self.is_clean());
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
                escape(&d.rule),
                escape(&d.file),
                d.line,
                escape(&d.message)
            );
        }
        if self.diagnostics.is_empty() {
            out.push_str("]\n");
        } else {
            out.push_str("\n  ]\n");
        }
        out.push_str("}\n");
        out
    }

    /// Parses a document produced by [`Report::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem: any JSON
    /// syntax error, or a document that is not a version-1 report (keys
    /// may come in any order).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = parse(text).map_err(|e| e.to_string())?;
        let Json::Obj(fields) = value else {
            return Err("top level is not an object".into());
        };
        let mut report = Report::default();
        let mut clean: Option<bool> = None;
        for (key, value) in fields {
            match (key.as_str(), value) {
                ("version", Json::Num(v)) if count(v) == Some(1) => {}
                ("version", Json::Num(v)) => {
                    return Err(format!("unsupported report version {v}"));
                }
                ("files_scanned", Json::Num(n)) => {
                    report.files_scanned = count(n).ok_or("bad files_scanned")? as usize;
                }
                ("clean", Json::Bool(b)) => clean = Some(b),
                ("diagnostics", Json::Arr(items)) => {
                    for item in items {
                        report.diagnostics.push(diagnostic_from(item)?);
                    }
                }
                (other, _) => return Err(format!("unexpected key {other:?}")),
            }
        }
        if clean.is_some_and(|c| c != report.is_clean()) {
            return Err("`clean` flag contradicts the diagnostics list".into());
        }
        Ok(report)
    }
}

/// A JSON number as a count: a non-negative integer that fits a `u32`.
fn count(n: f64) -> Option<u32> {
    let c = n as u32;
    (f64::from(c) == n).then_some(c)
}

fn diagnostic_from(value: Json) -> Result<Diagnostic, String> {
    let Json::Obj(fields) = value else {
        return Err("diagnostic is not an object".into());
    };
    let mut d = Diagnostic {
        rule: String::new(),
        file: String::new(),
        line: 0,
        message: String::new(),
    };
    for (key, value) in fields {
        match (key.as_str(), value) {
            ("rule", Json::Str(s)) => d.rule = s,
            ("file", Json::Str(s)) => d.file = s,
            ("line", Json::Num(n)) => d.line = count(n).ok_or("bad line number")?,
            ("message", Json::Str(s)) => d.message = s,
            (other, _) => return Err(format!("unexpected diagnostic key {other:?}")),
        }
    }
    if d.rule.is_empty() || d.file.is_empty() {
        return Err("diagnostic missing rule or file".into());
    }
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            files_scanned: 3,
            diagnostics: vec![
                Diagnostic {
                    rule: "no-panic".into(),
                    file: "crates/server/src/protocol.rs".into(),
                    line: 42,
                    message: "`.unwrap()` in a panic-free file".into(),
                },
                Diagnostic {
                    rule: "float-eq".into(),
                    file: "crates/analog/src/mos.rs".into(),
                    line: 7,
                    message: "float compared with `==` — quote \"and\\backslash\"".into(),
                },
            ],
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let report = sample();
        let parsed = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn empty_report_round_trips() {
        let report = Report::default();
        assert!(report.is_clean());
        let parsed = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn malformed_json_is_an_error_not_a_panic() {
        for bad in ["", "{", "[1,2", "{\"version\": 2}", "{\"x\": nope}"] {
            assert!(Report::from_json(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn human_rendering_is_compiler_style() {
        let text = sample().render_human();
        assert!(text.contains("crates/server/src/protocol.rs:42: [no-panic]"));
        assert!(text.contains("3 file(s) scanned, 2 diagnostic(s)"));
    }
}

//! Diagnostics and the machine-readable report.
//!
//! A [`Diagnostic`] is one rule violation at one `file:line`. A
//! [`Report`] aggregates a whole scan and renders two ways: the
//! compiler-style human listing (`file:line: [rule] message`) and a
//! JSON document for tooling ([`Report::to_json`]), escaped by the
//! workspace's one JSON codec, `adc_trace::json`. Nothing reads a
//! report back; the fixture tests parse the emitted document with
//! `adc_trace::json::parse` to check that it carries every field.

use std::fmt::Write as _;

use adc_trace::json::escape;

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use adc_trace::json::{parse, Json};

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

    /// Reads an emitted report back with the workspace JSON parser.
    fn read_back(text: &str) -> Report {
        let doc = parse(text).expect("emitted JSON parses");
        assert_eq!(doc.get("version").and_then(Json::as_f64), Some(1.0));
        let num = |d: &Json, key: &str| d.get(key).and_then(Json::as_f64).expect(key);
        let text = |d: &Json, key: &str| d.get(key).and_then(Json::as_str).expect(key).to_string();
        let items = doc
            .get("diagnostics")
            .and_then(Json::as_arr)
            .expect("diagnostics");
        let report = Report {
            files_scanned: num(&doc, "files_scanned") as usize,
            diagnostics: items
                .iter()
                .map(|d| Diagnostic {
                    rule: text(d, "rule"),
                    file: text(d, "file"),
                    line: num(d, "line") as u32,
                    message: text(d, "message"),
                })
                .collect(),
        };
        assert_eq!(doc.get("clean"), Some(&Json::Bool(report.is_clean())));
        report
    }

    #[test]
    fn json_round_trips_exactly() {
        let report = sample();
        assert_eq!(read_back(&report.to_json()), report);
    }

    #[test]
    fn empty_report_round_trips() {
        let report = Report::default();
        assert!(report.is_clean());
        assert_eq!(read_back(&report.to_json()), report);
    }

    #[test]
    fn malformed_json_is_an_error_not_a_panic() {
        let cut = sample().to_json();
        let cut = cut.get(..cut.len() / 2).unwrap_or("");
        for bad in ["", "{", "[1,2", "{\"x\": nope}", cut] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn human_rendering_is_compiler_style() {
        let text = sample().render_human();
        assert!(text.contains("crates/server/src/protocol.rs:42: [no-panic]"));
        assert!(text.contains("3 file(s) scanned, 2 diagnostic(s)"));
    }
}

//! Provenance stamp for benchmark artifacts.
//!
//! Every `BENCH_*.json` carries a `provenance` object identifying the
//! commit and host that produced the numbers, so a perf diff
//! ([`bench_compare`]) can refuse to compare figures from incomparable
//! machines and a reviewer can see at a glance where a baseline came
//! from.
//!
//! [`bench_compare`]: ../bench_compare/index.html

use std::process::Command;

/// Where and on what a benchmark artifact was produced.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// `git rev-parse HEAD` of the working tree, `"unknown"` when the
    /// binary runs outside a checkout (or git itself is absent).
    pub git_commit: String,
    /// Whether the working tree differed from `git_commit` when the
    /// figures were taken (`git status --porcelain` printed anything):
    /// a dirty stamp names the parent of the code that was measured.
    /// `false` outside a checkout.
    pub dirty: bool,
    /// Logical CPUs visible to the process — the figure perf diffs key
    /// their comparability check on.
    pub host_cpus: usize,
    /// Operating system (`std::env::consts::OS`).
    pub os: &'static str,
}

impl Provenance {
    /// Captures the provenance of the current process: commit and
    /// tree state from `git`, CPU count from the scheduler, OS from the
    /// target triple.
    pub fn capture() -> Self {
        let git = |args: &[&str]| {
            Command::new("git")
                .args(args)
                .output()
                .ok()
                .filter(|out| out.status.success())
                .and_then(|out| String::from_utf8(out.stdout).ok())
        };
        let git_commit = git(&["rev-parse", "HEAD"])
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        let dirty = git(&["status", "--porcelain"]).is_some_and(|s| !s.trim().is_empty());
        let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
        Self {
            git_commit,
            dirty,
            host_cpus,
            os: std::env::consts::OS,
        }
    }

    /// The stamp as a JSON object line, e.g.
    /// `"provenance": { "git_commit": "abc...", "dirty": false, "host_cpus": 8, "os": "linux" }`
    /// — ready to splice into a hand-formatted benchmark report.
    pub fn json_entry(&self) -> String {
        format!(
            "\"provenance\": {{ \"git_commit\": \"{}\", \"dirty\": {}, \"host_cpus\": {}, \"os\": \"{}\" }}",
            self.git_commit, self.dirty, self.host_cpus, self.os
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_is_well_formed() {
        let p = Provenance::capture();
        assert!(p.host_cpus >= 1);
        assert!(!p.git_commit.is_empty());
        assert!(!p.os.is_empty());
        // Commit is either a 40-hex SHA or the explicit fallback.
        assert!(p.git_commit == "unknown" || p.git_commit.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn json_entry_parses_as_object_member() {
        let p = Provenance {
            git_commit: "deadbeef".into(),
            dirty: true,
            host_cpus: 4,
            os: "linux",
        };
        let doc = format!("{{ {} }}", p.json_entry());
        let parsed = adc_trace::json::parse(&doc).expect("valid json");
        let prov = parsed.get("provenance").expect("provenance key");
        assert_eq!(
            prov.get("git_commit").and_then(|v| v.as_str()),
            Some("deadbeef")
        );
        assert_eq!(prov.get("dirty"), Some(&adc_trace::json::Json::Bool(true)));
        assert_eq!(prov.get("host_cpus").and_then(|v| v.as_f64()), Some(4.0));
    }
}

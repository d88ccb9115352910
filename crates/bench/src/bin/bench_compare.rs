//! Perf-regression gate: diffs freshly generated `BENCH_runtime.json`,
//! `BENCH_service.json`, `BENCH_dsp.json`, `BENCH_interleave.json`,
//! and `BENCH_cluster.json` against committed baselines.
//!
//! ```text
//! bench_compare [--baseline-dir DIR] [--fresh-dir DIR]
//!               [--tolerance PCT] [--deny-perf]
//! ```
//!
//! Every gated figure is one entry of the [`GATES`] table: a report
//! file, the row array holding the figure (or the report's top level),
//! the field that matches a baseline row to its fresh counterpart, the
//! figure's path within the row, which way is worse, and a tolerance
//! multiplier. A figure regresses when it is worse than the baseline by
//! more than the tolerance (default 30%) times that multiplier:
//! throughput lower, latency higher. Improvements always pass. A
//! baseline row with no fresh counterpart (a deleted or renamed row) is
//! printed as vanished and counts as a regression, so a change that
//! drops a row refreshes the baseline with it.
//!
//! The reports compared are the ones present in the fresh directory,
//! so one refreshed report can be checked on its own; the comparison
//! prints which. A fresh directory with no report, a fresh report with
//! no baseline, and an unparsable report are errors. Benchmarks are
//! only comparable between like machines, so when the
//! `provenance.host_cpus` stamps differ (or one is missing) the
//! comparison is *exempt*: the diff is still printed but regressions
//! cannot fail the gate.
//!
//! Exit status: `0` when clean, exempt, or regressions found without
//! `--deny-perf`; `1` on regressions under `--deny-perf`; `2` on
//! usage, load, and parse errors. CI runs the gate non-fatally by
//! default (`./ci.sh perf`, which first requires all five fresh
//! reports) and hardens it with `./ci.sh --deny-perf perf`.

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use adc_trace::json::{self, Json};

/// Default regression tolerance, percent.
const DEFAULT_TOLERANCE_PCT: f64 = 30.0;

struct Options {
    baseline_dir: String,
    fresh_dir: String,
    tolerance_pct: f64,
    deny_perf: bool,
}

fn usage() -> String {
    "usage: bench_compare [--baseline-dir DIR] [--fresh-dir DIR] \
     [--tolerance PCT] [--deny-perf]"
        .to_string()
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        baseline_dir: "baseline".to_string(),
        fresh_dir: ".".to_string(),
        tolerance_pct: DEFAULT_TOLERANCE_PCT,
        deny_perf: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "--baseline-dir" => opts.baseline_dir = value("--baseline-dir")?,
            "--fresh-dir" => opts.fresh_dir = value("--fresh-dir")?,
            "--tolerance" => {
                let raw = value("--tolerance")?;
                opts.tolerance_pct = raw
                    .parse::<f64>()
                    .ok()
                    .filter(|t| t.is_finite() && *t >= 0.0)
                    .ok_or_else(|| {
                        format!("--tolerance wants a non-negative percent, got {raw}")
                    })?;
            }
            "--deny-perf" => opts.deny_perf = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    Ok(opts)
}

/// Walks `doc` down a `.`-separated path of object keys.
fn lookup<'a>(doc: &'a Json, path: &str) -> Option<&'a Json> {
    path.split('.').try_fold(doc, |node, key| node.get(key))
}

fn lookup_f64(doc: &Json, path: &str) -> Option<f64> {
    lookup(doc, path).and_then(Json::as_f64)
}

/// Which way "worse" points for a figure.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Bigger is better (throughput): a drop is a regression.
    Higher,
    /// Smaller is better (latency, time per call): a rise is a
    /// regression.
    Lower,
}

use Direction::{Higher, Lower};

/// One gated figure family.
struct Gate {
    /// Report file name.
    file: &'static str,
    /// `(row array, key field)` holding the figure, or `None` for one
    /// figure at the report's top level.
    rows: Option<(&'static str, &'static str)>,
    /// `.`-separated path to the figure within a row (or the report).
    value: &'static str,
    dir: Direction,
    /// Multiplier on the tolerance; 2.0 gates at twice the tolerance.
    tol_mult: f64,
}

const fn gate(
    file: &'static str,
    rows: Option<(&'static str, &'static str)>,
    value: &'static str,
    dir: Direction,
    tol_mult: f64,
) -> Gate {
    Gate {
        file,
        rows,
        value,
        dir,
        tol_mult,
    }
}

const RUNTIME: &str = "BENCH_runtime.json";
const SERVICE: &str = "BENCH_service.json";
const DSP: &str = "BENCH_dsp.json";
const INTERLEAVE: &str = "BENCH_interleave.json";
const CLUSTER: &str = "BENCH_cluster.json";

/// Every gated figure, grouped by report in the order reports are read.
#[rustfmt::skip]
const GATES: &[Gate] = &[
    gate(RUNTIME, Some(("campaigns", "name")), "parallel.samples_per_sec", Higher, 1.0),
    gate(SERVICE, None, "samples_per_sec", Higher, 1.0),
    gate(SERVICE, None, "requests_per_sec", Higher, 1.0),
    gate(SERVICE, None, "saturation_rps", Higher, 1.0),
    // Client-observed open-loop tail latency counts generator-side
    // scheduling noise on a shared host (multi-ms ambient stalls land
    // right at the p99 rank), so it swings ~2x between otherwise
    // identical runs: double tolerance. The server-side default-load
    // p99 is the stable tail gate.
    gate(SERVICE, None, "client_latency_us.p99", Lower, 2.0),
    gate(SERVICE, None, "default_load.server_latency_us.p99", Lower, 1.0),
    gate(DSP, Some(("conversion", "name")), "samples_per_sec", Higher, 1.0),
    gate(DSP, Some(("fft", "n")), "us_per_call", Lower, 1.0),
    gate(DSP, Some(("kernels", "name")), "us_per_call", Lower, 1.0),
    gate(INTERLEAVE, Some(("convert", "name")), "samples_per_sec", Higher, 1.0),
    gate(INTERLEAVE, Some(("calib", "name")), "us_per_epoch", Lower, 1.0),
    gate(CLUSTER, Some(("cluster", "name")), "jobs_per_sec", Higher, 1.0),
];

struct Comparison {
    label: String,
    baseline: f64,
    /// The fresh figure and its change in percent; `None` when the
    /// fresh report has no counterpart row (the row vanished).
    fresh: Option<(f64, f64)>,
    regressed: bool,
}

/// Compares one figure; `None` when the baseline is not positive (no
/// relative change exists).
fn compare(
    label: String,
    baseline: f64,
    fresh: f64,
    dir: Direction,
    tolerance_pct: f64,
) -> Option<Comparison> {
    if baseline <= 0.0 {
        return None;
    }
    let delta_pct = (fresh - baseline) / baseline * 100.0;
    let worse_pct = match dir {
        Higher => -delta_pct,
        Lower => delta_pct,
    };
    Some(Comparison {
        label,
        baseline,
        fresh: Some((fresh, delta_pct)),
        regressed: worse_pct > tolerance_pct,
    })
}

impl Gate {
    /// The gate's figures in one report as `(row id, value)`; the row
    /// id is the key field's value (`""` at top level).
    fn figures(&self, doc: &Json) -> Vec<(String, f64)> {
        let Some((array, key)) = self.rows else {
            return lookup_f64(doc, self.value)
                .map(|v| (String::new(), v))
                .into_iter()
                .collect();
        };
        let id = |row: &Json| {
            let field = row.get(key)?;
            field
                .as_str()
                .map(str::to_string)
                .or_else(|| field.as_f64().map(|n| n.to_string()))
        };
        lookup(doc, array)
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|row| Some((id(row)?, lookup_f64(row, self.value)?)))
            .collect()
    }

    /// A row's label, e.g. `dsp fft[8192] us_per_call`.
    fn label(&self, id: &str) -> String {
        let report = self
            .file
            .trim_start_matches("BENCH_")
            .trim_end_matches(".json");
        match self.rows {
            Some((array, _)) => format!("{report} {array}[{id}] {}", self.value),
            None => format!("{report} {}", self.value),
        }
    }

    /// Compares every baseline figure with its fresh counterpart; one
    /// without a counterpart vanished and regresses.
    fn diff(&self, baseline: &Json, fresh: &Json, tolerance_pct: f64) -> Vec<Comparison> {
        let fresh = self.figures(fresh);
        self.figures(baseline)
            .into_iter()
            .filter_map(|(id, b)| {
                let label = self.label(&id);
                match fresh.iter().find(|(fid, _)| *fid == id) {
                    Some(&(_, f)) => compare(label, b, f, self.dir, tolerance_pct * self.tol_mult),
                    None => Some(Comparison {
                        label,
                        baseline: b,
                        fresh: None,
                        regressed: true,
                    }),
                }
            })
            .collect()
    }
}

fn load(dir: &str, file: &str) -> Result<Json, String> {
    let path = format!("{}/{file}", dir.trim_end_matches('/'));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn render(rows: &[Comparison]) -> String {
    let mut out = String::new();
    let width = rows.iter().map(|r| r.label.len()).max().unwrap_or(0);
    for r in rows {
        let (fresh, delta, verdict) = match r.fresh {
            Some((fresh, delta_pct)) => (
                format!("{fresh:.1}"),
                format!("{delta_pct:+.1}%"),
                if r.regressed { "REGRESSED" } else { "ok" },
            ),
            None => ("-".to_string(), String::new(), "VANISHED"),
        };
        let _ = writeln!(
            out,
            "  {:<width$}  baseline {:>12.1}  fresh {fresh:>12}  {delta:>8}  {verdict}",
            r.label, r.baseline,
        );
    }
    out
}

/// Diffs every report and returns the exit status (`Err` is a usage
/// or load error, exit 2).
fn run(opts: &Options) -> Result<u8, String> {
    let mut files: Vec<&str> = GATES.iter().map(|g| g.file).collect();
    files.dedup();
    files.retain(|file| Path::new(&opts.fresh_dir).join(file).exists());
    if files.is_empty() {
        return Err(format!("no BENCH_*.json report in {}", opts.fresh_dir));
    }
    println!("comparing {}", files.join(", "));
    let mut rows = Vec::new();
    let mut host_mismatch = false;
    for file in files {
        let baseline = load(&opts.baseline_dir, file)?;
        let fresh = load(&opts.fresh_dir, file)?;
        let b_cpus = lookup_f64(&baseline, "provenance.host_cpus");
        let f_cpus = lookup_f64(&fresh, "provenance.host_cpus");
        if b_cpus.is_none() || b_cpus != f_cpus {
            println!(
                "{file}: host_cpus differ (baseline {b_cpus:?}, fresh {f_cpus:?}) -- figures \
                 are not comparable, regressions exempt"
            );
            host_mismatch = true;
        }
        for gate in GATES.iter().filter(|g| g.file == file) {
            rows.extend(gate.diff(&baseline, &fresh, opts.tolerance_pct));
        }
    }

    println!(
        "perf diff vs baseline ({}% tolerance):\n{}",
        opts.tolerance_pct,
        render(&rows)
    );
    let regressions = rows.iter().filter(|r| r.regressed).count();
    let vanished = rows.iter().filter(|r| r.fresh.is_none()).count();
    if vanished > 0 {
        println!(
            "{vanished} baseline row(s) VANISHED from the fresh reports, counted as regressions"
        );
    }
    if regressions == 0 {
        println!("no perf regressions");
        return Ok(0);
    }
    if host_mismatch {
        println!("{regressions} regression(s) IGNORED: baseline from a different host");
        return Ok(0);
    }
    if opts.deny_perf {
        println!("{regressions} perf regression(s) beyond tolerance (--deny-perf)");
        return Ok(1);
    }
    println!(
        "{regressions} perf regression(s) beyond tolerance (advisory; pass --deny-perf to fail)"
    );
    Ok(0)
}

fn exit_status(args: &[String]) -> u8 {
    parse_options(args)
        .and_then(|opts| run(&opts))
        .unwrap_or_else(|msg| {
            eprintln!("bench_compare: {msg}");
            2
        })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(exit_status(&args))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> Json {
        json::parse(text).expect("test json parses")
    }

    #[test]
    fn throughput_drop_beyond_tolerance_regresses() {
        let c = |fresh| compare("t".into(), 1000.0, fresh, Higher, 30.0);
        assert!(c(600.0).expect("comparable").regressed);
        assert!(!c(800.0).expect("comparable").regressed);
    }

    #[test]
    fn latency_rise_beyond_tolerance_regresses() {
        let c = |fresh| compare("l".into(), 100.0, fresh, Lower, 30.0);
        assert!(c(150.0).expect("comparable").regressed);
        // A latency *improvement* of any size passes.
        assert!(!c(20.0).expect("comparable").regressed);
    }

    /// `(report, baseline, fresh, expected (label, regressed) rows)`.
    type Case = (
        &'static str,
        &'static str,
        &'static str,
        &'static [(&'static str, bool)],
    );

    /// One input per report: every gate of the report runs over the
    /// pair, and the rows come out in table order, matched by key (a
    /// baseline row with no fresh counterpart regresses), each with
    /// its verdict.
    #[test]
    fn every_report_matches_rows_by_key_and_gates_in_both_directions() {
        let cases: &[Case] = &[
            (
                RUNTIME,
                r#"{"campaigns":[{"name":"a","parallel":{"samples_per_sec":1000}},
                                 {"name":"gone","parallel":{"samples_per_sec":1}}]}"#,
                r#"{"campaigns":[{"name":"a","parallel":{"samples_per_sec":500}}]}"#,
                &[
                    ("runtime campaigns[a] parallel.samples_per_sec", true),
                    ("runtime campaigns[gone] parallel.samples_per_sec", true),
                ],
            ),
            (
                SERVICE,
                r#"{"samples_per_sec":1000,"requests_per_sec":100,"saturation_rps":500,
                    "client_latency_us":{"p99":1000},
                    "default_load":{"server_latency_us":{"p99":100}}}"#,
                r#"{"samples_per_sec":1100,"requests_per_sec":60,"saturation_rps":500,
                    "client_latency_us":{"p99":1500},
                    "default_load":{"server_latency_us":{"p99":150}}}"#,
                &[
                    ("service samples_per_sec", false),
                    ("service requests_per_sec", true),
                    ("service saturation_rps", false),
                    // +50% is inside the client p99's doubled tolerance...
                    ("service client_latency_us.p99", false),
                    // ...but not the server p99's single one.
                    ("service default_load.server_latency_us.p99", true),
                ],
            ),
            (
                DSP,
                r#"{"conversion":[{"name":"nominal","samples_per_sec":1000000},
                                  {"name":"gone","samples_per_sec":1}],
                    "fft":[{"n":4096,"us_per_call":30.0},{"n":8192,"us_per_call":70.0}],
                    "kernels":[{"name":"eq1_master_current","us_per_call":0.01},
                               {"name":"sample_fill_3072","us_per_call":20.0},
                               {"name":"fig4_power_sweep_26pt","us_per_call":900.0}]}"#,
                r#"{"conversion":[{"name":"nominal","samples_per_sec":500000}],
                    "fft":[{"n":4096,"us_per_call":29.0},{"n":8192,"us_per_call":200.0}],
                    "kernels":[{"name":"eq1_master_current","us_per_call":0.011},
                               {"name":"sample_fill_3072","us_per_call":30.0},
                               {"name":"fig4_power_sweep_26pt","us_per_call":2000.0}]}"#,
                &[
                    ("dsp conversion[nominal] samples_per_sec", true),
                    ("dsp conversion[gone] samples_per_sec", true),
                    ("dsp fft[4096] us_per_call", false),
                    ("dsp fft[8192] us_per_call", true),
                    ("dsp kernels[eq1_master_current] us_per_call", false),
                    // The record kernel's per-chunk pre-draw: +50%.
                    ("dsp kernels[sample_fill_3072] us_per_call", true),
                    ("dsp kernels[fig4_power_sweep_26pt] us_per_call", true),
                ],
            ),
            (
                INTERLEAVE,
                r#"{"convert":[{"name":"m2_matched","samples_per_sec":2000000},
                               {"name":"gone","samples_per_sec":1}],
                    "calib":[{"name":"m2","us_per_epoch":900.0}]}"#,
                r#"{"convert":[{"name":"m2_matched","samples_per_sec":1000000}],
                    "calib":[{"name":"m2","us_per_epoch":2000.0}]}"#,
                &[
                    ("interleave convert[m2_matched] samples_per_sec", true),
                    ("interleave convert[gone] samples_per_sec", true),
                    ("interleave calib[m2] us_per_epoch", true),
                ],
            ),
            (
                CLUSTER,
                r#"{"cluster":[{"name":"hosts1","jobs_per_sec":1000.0},
                               {"name":"hosts2","jobs_per_sec":1700.0},
                               {"name":"gone","jobs_per_sec":1.0}]}"#,
                r#"{"cluster":[{"name":"hosts1","jobs_per_sec":950.0},
                               {"name":"hosts2","jobs_per_sec":400.0}]}"#,
                &[
                    ("cluster cluster[hosts1] jobs_per_sec", false),
                    ("cluster cluster[hosts2] jobs_per_sec", true),
                    ("cluster cluster[gone] jobs_per_sec", true),
                ],
            ),
        ];
        for (file, baseline, fresh, want) in cases {
            let (baseline, fresh) = (doc(baseline), doc(fresh));
            let got: Vec<(String, bool)> = GATES
                .iter()
                .filter(|g| g.file == *file)
                .flat_map(|g| g.diff(&baseline, &fresh, 30.0))
                .map(|c| (c.label, c.regressed))
                .collect();
            let want: Vec<(String, bool)> = want.iter().map(|&(l, r)| (l.to_string(), r)).collect();
            assert_eq!(got, want, "{file}");
        }
    }

    /// A scratch baseline/fresh pair of directories holding all five
    /// reports; every report carries one DSP `nominal` row, which only
    /// the DSP gates read.
    struct Dirs {
        root: std::path::PathBuf,
    }

    impl Dirs {
        fn new(tag: &str) -> Self {
            let root =
                std::env::temp_dir().join(format!("bench_compare_{}_{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            Self { root }
        }

        fn dir(&self, side: &str) -> String {
            self.root.join(side).to_string_lossy().into_owned()
        }

        fn write(&self, side: &str, host_cpus: u32, nominal_sps: u32) {
            let dir = self.root.join(side);
            std::fs::create_dir_all(&dir).expect("scratch dir");
            let text = format!(
                r#"{{"provenance":{{"host_cpus":{host_cpus}}},
                    "conversion":[{{"name":"nominal","samples_per_sec":{nominal_sps}}}]}}"#
            );
            for file in [RUNTIME, SERVICE, DSP, INTERLEAVE, CLUSTER] {
                std::fs::write(dir.join(file), &text).expect("write report");
            }
        }

        fn exit_status(&self, extra: &[&str]) -> u8 {
            let mut args = vec![
                "--baseline-dir".to_string(),
                self.dir("baseline"),
                "--fresh-dir".to_string(),
                self.dir("fresh"),
            ];
            args.extend(extra.iter().map(|s| s.to_string()));
            exit_status(&args)
        }
    }

    impl Drop for Dirs {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.root);
        }
    }

    #[test]
    fn a_fresh_report_without_its_baseline_is_an_error() {
        let dirs = Dirs::new("missing");
        dirs.write("baseline", 2, 1000);
        dirs.write("fresh", 2, 1000);
        assert_eq!(dirs.exit_status(&[]), 0);
        let path = dirs.root.join("baseline").join(INTERLEAVE);
        std::fs::remove_file(&path).expect("remove report");
        assert_eq!(dirs.exit_status(&[]), 2, "{INTERLEAVE} has no baseline");
    }

    #[test]
    fn only_the_fresh_reports_present_are_compared() {
        let dirs = Dirs::new("partial");
        dirs.write("baseline", 2, 1000);
        std::fs::create_dir_all(dirs.root.join("fresh")).expect("scratch dir");
        assert_eq!(dirs.exit_status(&[]), 2, "no fresh report");
        // A lone fresh cluster report is compared alone: its gate
        // passes, and the DSP regression the other reports would show
        // (a 10x drop in the nominal row) is not read.
        dirs.write("fresh", 2, 100);
        for file in [RUNTIME, SERVICE, DSP, INTERLEAVE] {
            std::fs::remove_file(dirs.root.join("fresh").join(file)).expect("remove report");
        }
        assert_eq!(dirs.exit_status(&["--deny-perf"]), 0);
        std::fs::copy(
            dirs.root.join("fresh").join(CLUSTER),
            dirs.root.join("fresh").join(DSP),
        )
        .expect("copy report");
        assert_eq!(
            dirs.exit_status(&["--deny-perf"]),
            1,
            "fresh DSP report gated"
        );
    }

    #[test]
    fn a_vanished_baseline_row_is_printed_and_fails_only_under_deny_perf() {
        let vanished = Comparison {
            label: "dsp conversion[gone] samples_per_sec".to_string(),
            baseline: 1000.0,
            fresh: None,
            regressed: true,
        };
        let printed = render(&[vanished]);
        assert!(printed.contains("conversion[gone]"), "{printed}");
        assert!(printed.trim_end().ends_with("VANISHED"), "{printed}");

        let dirs = Dirs::new("vanished");
        dirs.write("baseline", 2, 1000);
        dirs.write("fresh", 2, 1000);
        let dsp =
            |rows: &str| format!(r#"{{"provenance":{{"host_cpus":2}},"conversion":[{rows}]}}"#);
        let nominal = r#"{"name":"nominal","samples_per_sec":1000}"#;
        let gone = r#"{"name":"gone","samples_per_sec":1000}"#;
        let baseline_dsp = dirs.root.join("baseline").join(DSP);
        std::fs::write(&baseline_dsp, dsp(&format!("{nominal},{gone}"))).expect("write report");
        assert_eq!(dirs.exit_status(&[]), 0, "advisory without --deny-perf");
        assert_eq!(dirs.exit_status(&["--deny-perf"]), 1, "vanished row gated");
        std::fs::write(&baseline_dsp, dsp(nominal)).expect("write report");
        assert_eq!(dirs.exit_status(&["--deny-perf"]), 0, "refreshed baseline");
    }

    #[test]
    fn differing_host_cpus_exempt_the_run() {
        let dirs = Dirs::new("hosts");
        dirs.write("baseline", 2, 1000);
        dirs.write("fresh", 2, 100);
        assert_eq!(dirs.exit_status(&["--deny-perf"]), 1, "same host: gated");
        assert_eq!(dirs.exit_status(&[]), 0, "advisory without --deny-perf");
        dirs.write("fresh", 1, 100);
        assert_eq!(dirs.exit_status(&["--deny-perf"]), 0, "other host: exempt");
    }

    #[test]
    fn options_parse_and_reject_bad_tolerance() {
        let opts = parse_options(&[
            "--baseline-dir".into(),
            "b".into(),
            "--tolerance".into(),
            "12.5".into(),
            "--deny-perf".into(),
        ])
        .expect("parses");
        assert_eq!(opts.baseline_dir, "b");
        assert_eq!(opts.tolerance_pct, 12.5);
        assert!(opts.deny_perf);
        assert!(parse_options(&["--tolerance".into(), "-3".into()]).is_err());
        assert!(parse_options(&["--bogus".into()]).is_err());
        assert!(parse_options(&["--lanes".into()]).is_err());
    }
}

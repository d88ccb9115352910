//! Same-path A/B harness for the benchmark `BENCHMARK.json` declares:
//! `ab <rev> [pairs]` (6 pairs by default). Builds `<rev>`'s perfbench,
//! then the working tree's, from one fixed path, `target/ab/src`, into
//! `target/ab/{base,change}` (a crate's source path feeds its hash, so
//! building both at one path leaves only the layout the change causes:
//! `ab HEAD` on a clean tree builds identical binaries). Then runs
//! alternating pairs of each workload at `run_seconds` (pair i: seed
//! 901 + i, the change first in odd pairs) and prints, per end-to-end
//! metric and `failed_frac`, both medians, the pairs the change won and
//! each side's min–max. It pins no CPU and changes no system setting.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use adc_testbench::report::TextTable;
use adc_trace::json::{self, Json};

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The pairs in which `change[i]` beats `base[i]`.
fn wins(base: &[f64], change: &[f64], lower_is_better: bool) -> usize {
    let pairs = base.iter().zip(change);
    pairs
        .filter(|&(b, c)| if lower_is_better { c < b } else { c > b })
        .count()
}

/// `min-max` of `values`.
fn range(values: &[f64]) -> String {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("{min:.6}-{max:.6}")
}

/// Runs `cmd` in `dir` with `stdin` and returns its stdout.
fn run(dir: &Path, cmd: &[&str], stdin: &[u8]) -> Result<Vec<u8>, String> {
    let fail = |e: &dyn std::fmt::Display| format!("{}: {e}", cmd.join(" "));
    let mut command = Command::new(cmd[0]);
    let command = command.args(&cmd[1..]).current_dir(dir);
    let command = command.stdin(Stdio::piped()).stdout(Stdio::piped());
    let mut child = command.spawn().map_err(|e| fail(&e))?;
    if let Some(pipe) = child.stdin.as_mut() {
        std::io::Write::write_all(pipe, stdin).map_err(|e| fail(&e))?;
    }
    let out = child.wait_with_output().map_err(|e| fail(&e))?;
    let ok = out.status.success().then_some(out.stdout);
    ok.ok_or_else(|| fail(&out.status))
}

/// Replaces `src` with `rev`'s tree, or with `root`'s working tree when
/// `rev` is `None`. Files get the current time, so a target directory
/// kept from an earlier run rebuilds what changed.
fn write_tree(root: &Path, src: &Path, rev: Option<&str>) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", src.display());
    if src.exists() {
        std::fs::remove_dir_all(src).map_err(io)?;
    }
    std::fs::create_dir_all(src).map_err(io)?;
    if let Some(rev) = rev {
        let tar = run(root, &["git", "archive", "--format=tar", rev], &[])?;
        return run(src, &["tar", "-x", "-m", "-f", "-"], &tar).map(drop);
    }
    let listed = ["git", "ls-files", "-z", "-co", "--exclude-standard"];
    for name in run(root, &listed, &[])?.split(|&b| b == 0) {
        let rel = String::from_utf8_lossy(name);
        let (from, to) = (root.join(&*rel), src.join(&*rel));
        if !name.is_empty() && from.is_file() {
            std::fs::create_dir_all(to.parent().unwrap_or(src)).map_err(io)?;
            std::fs::copy(from, to).map_err(io)?;
        }
    }
    Ok(())
}

/// Builds the perfbench in `src` into `target_dir`; returns the binary.
fn build(src: &Path, target_dir: &Path) -> Result<String, String> {
    let target = target_dir.to_string_lossy();
    let cargo = "cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml";
    let cmd: Vec<&str> = cargo.split(' ').chain(["--target-dir", &target]).collect();
    run(src, &cmd, &[])?;
    let bin = target_dir.join("release/perfbench");
    Ok(bin.to_string_lossy().into_owned())
}

/// `metric` in a run's result line; `failed_frac` from its counts.
fn value(line: &Json, metric: &str) -> f64 {
    let num = |key: &str| line.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    if metric == "failed_frac" {
        return num("failed") / num("attempted");
    }
    let m = line.get("metrics").and_then(|m| m.get(metric));
    m.and_then(|m| m.get("value")?.as_f64()).unwrap_or(f64::NAN)
}

/// The string at `key` of `j` ("" when absent).
fn text<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key).and_then(Json::as_str).unwrap_or_default()
}

fn main_inner(args: &[String]) -> Result<(), String> {
    let usage = "usage: ab <rev> [pairs]";
    let rev = args.first().ok_or(usage)?;
    let pairs = args.get(1).map_or(Ok(6), |p| p.parse::<usize>());
    let pairs = pairs.map_err(|_| usage)?;
    let top = ["git", "rev-parse", "--show-toplevel"];
    let top = run(Path::new("."), &top, &[])?;
    let root = PathBuf::from(String::from_utf8_lossy(&top).trim());
    let spec = std::fs::read_to_string(root.join("BENCHMARK.json")).map_err(|e| e.to_string())?;
    let spec = json::parse(&spec).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let ab = root.join("target/ab");
    write_tree(&root, &ab.join("src"), Some(rev))?;
    let base = build(&ab.join("src"), &ab.join("base"))?;
    write_tree(&root, &ab.join("src"), None)?;
    let change = build(&ab.join("src"), &ab.join("change"))?;
    let same = std::fs::read(&base).ok() == std::fs::read(&change).ok();
    let verdict = if same { "identical" } else { "different" };
    println!("perfbench binaries of {rev} and the working tree: {verdict}");

    let run_dir = ab.join("run");
    std::fs::create_dir_all(&run_dir).map_err(|e| e.to_string())?;
    let seconds = spec.get("run_seconds").and_then(Json::as_f64);
    let seconds = seconds.ok_or("BENCHMARK.json: no numeric run_seconds")?;
    let list = |key: &str| spec.get(key).and_then(Json::as_arr).unwrap_or_default();
    let mut metrics: Vec<(&str, bool)> = list("end_to_end")
        .iter()
        .map(|m| (text(m, "name"), text(m, "better") == "lower"))
        .collect();
    metrics.push(("failed_frac", true));
    for workload in list("workloads").iter().map(|w| text(w, "name")) {
        let mut runs: [Vec<Json>; 2] = [Vec::new(), Vec::new()];
        for i in 0..pairs {
            let seed = 901 + i;
            for side in [i % 2, 1 - i % 2] {
                let bin = [&base, &change][side].as_str();
                let flags = format!("--workload {workload} --seed {seed} --seconds {seconds}");
                // A run with failed operations exits non-zero but still
                // prints its result line, which counts the failures.
                let mut perfbench = Command::new(bin);
                perfbench.args(flags.split(' ').chain(["--trace", "0"]));
                let out = perfbench
                    .current_dir(&run_dir)
                    .output()
                    .map_err(|e| e.to_string())?;
                let stdout = String::from_utf8_lossy(&out.stdout);
                let line = json::parse(stdout.lines().last().unwrap_or_default()).map_err(|e| {
                    let stderr = String::from_utf8_lossy(&out.stderr);
                    let why = format!("no result line ({e:?}); perfbench {}", out.status);
                    format!("{workload} seed {seed}: {why}:\n{}", stderr.trim_end())
                })?;
                runs[side].push(line);
            }
        }
        let header = "metric,base median,change median,change better,base min-max,change min-max";
        let mut table = TextTable::new(header.split(','));
        for &(metric, lower_is_better) in &metrics {
            let of = |side: &Vec<Json>| side.iter().map(|r| value(r, metric)).collect();
            let [b, c]: [Vec<f64>; 2] = [of(&runs[0]), of(&runs[1])];
            let won = format!("{} of {pairs}", wins(&b, &c, lower_is_better));
            let [mb, mc] = [&b, &c].map(|v| format!("{:.6}", median(v)));
            table.push_row([metric.to_string(), mb, mc, won, range(&b), range(&c)]);
        }
        let title = format!("{workload}: {rev} (base) against the working tree (change)");
        let plan = format!("{pairs} pairs of {seconds} s, seeds 901-{}", 900 + pairs);
        println!("\n{title}, {plan}\n{}", table.render());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Err(e) = main_inner(&args) else {
        return ExitCode::SUCCESS;
    };
    eprintln!("ab: {e}");
    ExitCode::from(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn wins_follow_the_better_direction_and_a_tie_is_no_win() {
        let (base, change) = ([1.0, 2.0, 3.0], [0.5, 2.5, 3.0]);
        assert_eq!(wins(&base, &change, true), 1);
        assert_eq!(wins(&base, &change, false), 1);
        assert_eq!(wins(&[1.0], &[0.0, 5.0], true), 1, "pairs only");
        assert_eq!(range(&change), "0.500000-3.000000");
    }

    #[test]
    fn metrics_come_from_the_result_line_and_failed_frac_from_its_counts() {
        let line = json::parse(
            r#"{"correct": false, "attempted": 8, "failed": 2,
                "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#,
        )
        .expect("a run line");
        assert_eq!(value(&line, "failed_frac"), 0.25);
        assert_eq!(value(&line, "setup_s"), 0.5);
        assert!(value(&line, "p50_ms.low").is_nan());
    }
}

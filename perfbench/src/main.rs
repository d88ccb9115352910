//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of stdout, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: every
//! end-to-end metric untraced, every per-layer metric traced. Exits 0
//! only when every operation succeeded and every output checked out.

use std::process::ExitCode;

use perfbench::sched::{self, KeepAwake};
use perfbench::{campaign, report, serve, Output};

const USAGE: &str =
    "usage: perfbench --workload <serve_tone|campaign> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(30.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace
    );
    let out = Output::new(&args.workload);
    // The generator, the server's threads and the campaign pool share
    // one CPU (see `sched`).
    if !sched::pin_to_one_cpu() {
        eprintln!("perfbench: could not pin to one CPU; figures will be noisier");
    }
    let awake = KeepAwake::start();
    let result = match (args.workload.as_str(), args.trace) {
        ("serve_tone", false) => serve::run_untraced(args.seed, args.seconds),
        ("serve_tone", true) => serve::run_traced(args.seed, args.seconds, &out),
        ("campaign", false) => campaign::run_untraced(args.seed, args.seconds, &out),
        ("campaign", true) => campaign::run_traced(args.seed, args.seconds, &out),
        (other, _) => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    drop(awake);
    let run = match result {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    match report::line(&run, args.trace) {
        Ok(line) => {
            eprintln!(
                "perfbench: seed {} attempted {} failed {}",
                args.seed, run.attempted, run.failed
            );
            println!("{line}");
            if run.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

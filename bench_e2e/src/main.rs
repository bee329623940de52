//! Layer-attributed end-to-end benchmark of the QuTracer workspace.
//!
//! ```text
//! qt-bench-e2e --workload <suite_exact|qaoa_sampled|service_zipf>
//!              [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Untraced (`--trace 0`) it prints the end-to-end metrics; traced
//! (`--trace 1`) the per-layer ones. Either way the last line of standard
//! output is one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`, and the process exits non-zero when any output check
//! failed. See `README.md` for the workloads and the metric table.

mod layers;
mod offline;
mod service;
mod util;

use offline::Workload;
use std::process::ExitCode;

/// The default workload seed (README.md names the held-out one).
const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} threads {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let (seed, secs) = (args.seed, args.seconds);
    let outcome = match (args.workload.as_str(), args.trace) {
        ("suite_exact", false) => offline::run(Workload::SuiteExact, seed, secs),
        ("suite_exact", true) => offline::run_traced(Workload::SuiteExact, seed, secs),
        ("qaoa_sampled", false) => offline::run(Workload::QaoaSampled, seed, secs),
        ("qaoa_sampled", true) => offline::run_traced(Workload::QaoaSampled, seed, secs),
        ("service_zipf", false) => service::run(seed, secs),
        ("service_zipf", true) => service::run_traced(seed, secs),
        (other, _) => Err(format!(
            "unknown workload {other:?} (suite_exact, qaoa_sampled, service_zipf)"
        )),
    };
    match outcome {
        Ok(out) => {
            let correct = out.print();
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

//! Benchmark harness for the jocal serving stack.
//!
//! ```text
//! jocal-perfbench --workload <paper-rhc|sparse-1k|gateway-observed>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a table of every figure with its unit and sample count, then,
//! as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` is the separate traced run that reports the per-layer
//! metrics. A guard that refuses the run (too few samples for a
//! percentile, no traffic, a load generator that fell behind) exits
//! non-zero without a result line. See `perfbench/README.md`.

mod gateway;
mod layers;
mod probe;
mod report;
mod serve;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    work: PathBuf,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad {flag} value `{value}`: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.unwrap_or(30.0);
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err(format!("--seconds must be positive, got {seconds}"));
        }
        let workload = workload.ok_or("--workload is required")?;
        let work = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
        Ok(Args {
            workload,
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
            work,
        })
    }

    /// The measuring budget of one run.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Scratch space for this run's files (sinks, flight recorders);
    /// removed when the run ends.
    pub fn work_dir(&self) -> PathBuf {
        self.work.clone()
    }

    /// Where traced runs leave their span logs and folded stacks.
    pub fn trace_dir(&self) -> PathBuf {
        PathBuf::from(".bench_work").join("traces")
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "paper-rhc" => serve::run(serve::PAPER_RHC, &args),
        "sparse-1k" => serve::run(serve::SPARSE_1K, &args),
        "gateway-observed" => gateway::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(args.work_dir());
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = report.print(&args.workload, args.seed, args.trace) {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

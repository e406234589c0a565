//! `afg-benchmark` — the repository benchmark.
//!
//! ```text
//! afg-benchmark --workload table1|classroom|hot-http --seed N --seconds N
//!               --trace 0|1 [--serve PATH-TO-afg-serve]
//! ```
//!
//! Runs one workload, checks every verdict it produces, and prints as the
//! last line of standard output one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the workload runs with
//! the benchmark's own layer timing and the metrics are the per-layer ones
//! (see `report.rs` for both lists).  Lines before the result start with
//! `#` and explain it.  `benchmark/run.sh` builds everything and passes
//! `--serve`.

mod classroom;
mod daemon;
mod hot_http;
mod pipeline;
mod report;
mod table1;

use std::process::ExitCode;

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measured duration.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Path of the `afg-serve` binary, for the serve workloads.
    pub serve: Option<String>,
}

const USAGE: &str = "usage: afg-benchmark --workload table1|classroom|hot-http --seed N \
                     --seconds N --trace 0|1 [--serve PATH]";

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        serve: None,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("option '{flag}' requires a value"))
        };
        match flag.as_str() {
            "--workload" => options.workload = value()?,
            "--seed" => {
                options.seed = value()?
                    .parse()
                    .map_err(|_| "option '--seed' expects a non-negative integer")?
            }
            "--seconds" => {
                options.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("option '--seconds' expects a positive number")?
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("option '--trace' expects 0 or 1".into()),
                }
            }
            "--serve" => options.serve = Some(value()?),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = report::Report::default();
    let outcome = match options.workload.as_str() {
        "table1" => {
            table1::run(&options, &mut report);
            Ok(())
        }
        "classroom" => classroom::run(&options, &mut report),
        "hot-http" => hot_http::run(&options, &mut report),
        other => Err(format!("unknown workload '{other}'\n{USAGE}")),
    };
    match outcome {
        Ok(()) => {
            report.print(options.trace);
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("afg-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

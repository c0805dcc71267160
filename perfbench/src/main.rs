//! The benchmark of `mnc-server`.
//!
//! Starts an in-process reactor on an ephemeral port, drives one workload
//! over the wire from one closed-loop connection with requests generated
//! from `--seed`, checks every answer against the reference evaluator and
//! the properties of a Pareto front, and prints the metrics. The last line
//! of standard output is the result as one JSON object.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot_replay --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` replays the same
//! inputs with spans around the benchmark's calls into each layer, writes
//! the spans to `perfbench/out/`, and prints the per-layer metrics. See
//! `perfbench/README.md`.

mod checks;
mod run;
mod sys;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use run::{Params, Report};
use workload::Workload;

const USAGE: &str = "usage: mnc-perfbench --workload <hot_replay|cold_search|design_session> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    params: Params,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        params: Params {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
        },
        trace: trace.unwrap_or(false),
    })
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let params = &args.params;
    let outcome = if args.trace {
        let path = PathBuf::from(format!(
            "perfbench/out/trace-{}-seed{}.jsonl",
            params.workload.name(),
            params.seed
        ));
        run::traced(params, &path)
    } else {
        run::untraced(params)
    };
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{} seed {}: {} requests attempted, {} failed",
        params.workload.name(),
        params.seed,
        report.attempted,
        report.failed
    );
    for failure in &report.failures {
        println!("  check failed: {failure}");
    }
    for m in &report.metrics {
        println!("  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(&report));
    if report.correct && report.failed == 0 && report.metrics.iter().all(|m| m.value.is_finite()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

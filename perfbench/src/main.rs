//! End-to-end and per-layer benchmark of the pagefeed feedback loop.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_scan --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints one `{"info": ...}` line (input sizes, seeds, sample counts,
//! the determinism digest) and, as the last line, the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` with
//! the end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`). Exits non-zero when any output check fails. See
//! `perfbench/README.md` for the workloads and the metric map.

mod bench;
mod data;
mod stats;

use bench::{RunArgs, Workload};
use stats::{metrics_json, Json};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <paper_scan|paper_join|online_durable> \
--seed <n> --seconds <s> --trace <0|1> [--scale tiny]";

fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            "--scale" => {
                tiny = match value {
                    "tiny" => true,
                    "full" => false,
                    _ => return Err(format!("--scale must be tiny or full, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        tiny,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work_root = Path::new(env!("CARGO_MANIFEST_DIR")).join(".work");
    let report = match bench::run(&args, &work_root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    println!("{}", Json::obj([("info", report.info)]).render());
    let correct = report.failed == 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(report.attempted)),
        ("failed", Json::Int(report.failed)),
        ("metrics", metrics_json(&report.metrics)),
    ]);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

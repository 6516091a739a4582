//! End-to-end and per-layer benchmark of `probdb-serve`.
//!
//! ```text
//! perfbench --server PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics against real server
//! processes on loopback. `--trace 1` repeats the run for the end-of-run
//! `metrics` scrape, then replays the same seeded inputs in-process through
//! each layer's public functions with spans, and reports the per-layer
//! metrics. The last line of standard output is one JSON object; see
//! `perfbench/README.md` for every metric. `perfbench/run.sh` builds the
//! server and this program and runs it.

mod check;
mod e2e;
mod gen;
mod layers;
mod net;
mod spans;
mod stats;

use gen::{Inputs, Workload};
use std::path::PathBuf;

struct Args {
    server: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut server = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value)),
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed: not a number")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds: not a number")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: expected 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Formats the result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(attempted: u64, failed: u64, metrics: &[(String, f64, String)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let inputs = Inputs::new(args.workload, args.seed);
    let work = net::work_dir().join(args.workload.name());
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let out = e2e::run(&inputs, &args.server, &work, args.seconds, args.trace)?;
    println!("workload {} seed {}", args.workload.name(), args.seed);
    for line in e2e::report(&out) {
        println!("{line}");
    }
    let metrics: Vec<(String, f64, String)> = if args.trace {
        layers::run(&inputs, &out, &work)?
    } else {
        e2e::metrics(&out)
            .into_iter()
            .map(|(n, v, u)| (n.to_string(), v, u.to_string()))
            .collect()
    };
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    if metrics.iter().any(|(_, v, _)| !v.is_finite()) {
        return Err("a metric had no samples".into());
    }
    println!("{}", result_json(out.attempted, out.failed, &metrics));
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

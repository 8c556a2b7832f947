//! Recovery-trajectory benchmark of the bounded-POMDP recovery stack.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload through the program's public API and prints, as
//! its last line, one JSON object with the run's failure accounting
//! and its metrics: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. `--corrupt-bound` raises one
//! bound hyperplane above the certified ceiling; the run must then
//! report itself incorrect. See `README.md` beside this crate.

mod campaign;
mod cpu;
mod serve;
mod stats;

use stats::RunResult;
use std::path::PathBuf;

/// Every per-layer metric, in print order. A traced run prints all of
/// them; a layer its workload does not run reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("sim.world_us_per_step", "us"),
    ("sim.decisions_per_fault", "count"),
    ("core.begin_us_p50", "us"),
    ("core.observe_us_p50", "us"),
    ("backup.ms_p50", "ms"),
    ("backup.vectors_added_per_call", "ratio"),
    ("bound.vectors_p50", "count"),
    ("evict.us_p50", "us"),
    ("leaf.us_p50", "us"),
    ("expand.ms_p50", "ms"),
    ("expand.nodes_per_decision", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.epoch_changes_per_decision", "ratio"),
    ("tau.us_p50", "us"),
    ("spmv.us_p50", "us"),
    ("model.build_s", "s"),
    ("ra_bound.s", "s"),
    ("bootstrap.s", "s"),
    ("bootstrap.backups", "count"),
    ("controller.build_s", "s"),
    ("serve.prototypes_s", "s"),
    ("transport.decode_ns_per_frame", "ns"),
    ("transport.ingest_s", "s"),
    ("checkpoint.s", "s"),
    ("checkpoint.writes", "count"),
    ("admission.degraded_ratio", "ratio"),
    ("ladder.escalations", "count"),
    ("serve.decisions_per_incident", "count"),
    ("tracing.overhead_ratio", "ratio"),
    ("tracing.unexplained_ratio", "ratio"),
];

fn arg<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{name} needs a valid value")),
    }
}

fn run(args: &[String]) -> Result<RunResult, String> {
    let workload: String = arg(args, "--workload")?.ok_or("--workload is required")?;
    let seed: u64 = arg(args, "--seed")?.unwrap_or(1);
    let seconds: f64 = arg(args, "--seconds")?.unwrap_or(10.0);
    let trace = arg::<u8>(args, "--trace")?.unwrap_or(0) == 1;
    let scratch: PathBuf = arg(args, "--scratch")?.unwrap_or_else(std::env::temp_dir);
    let opts = campaign::Options {
        seed,
        trace,
        corrupt_bound: args.iter().any(|a| a == "--corrupt-bound"),
    };
    let mut result = match workload.as_str() {
        "table1-emn" => campaign::run(&opts),
        "serve-emn-socket" => serve::run(seed, seconds, trace, &scratch),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    if trace {
        for (name, unit) in PER_LAYER {
            if !result.metrics.iter().any(|(n, _, _)| n == name) {
                result.metric(name, 0.0, unit);
            }
        }
    }
    println!(
        "{workload}: attempted {} operations, {} failed",
        result.attempted, result.failed
    );
    Ok(result)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let result = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("[perfbench] {e}");
            std::process::exit(2);
        }
    };
    for (name, value, unit) in &result.metrics {
        println!("{name} = {value} {unit}");
    }
    println!("{}", result.json());
    if !result.correct() {
        std::process::exit(1);
    }
}

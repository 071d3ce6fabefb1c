//! The repository's benchmark: one command per workload and seed.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mine|serve_cold|serve_mixed --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --manifest > BENCHMARK.json
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The lines before it carry the run's provenance and, when
//! traced, the per-layer table. See `perfbench/README.md`.

mod data;
mod layers;
mod load;
mod mine;
mod report;
mod serve;
mod stats;

use report::Report;
use std::process::ExitCode;

/// How far the traced layer self times may sit from the in-process
/// answer p50 (`bench.layer_sum_gap_frac`); a larger gap fails the run.
pub const LAYER_SUM_TOLERANCE: f64 = 0.15;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |key: &str| -> Result<Option<String>, String> {
        match argv.iter().position(|a| a == key) {
            None => Ok(None),
            Some(i) => argv.get(i + 1).cloned().map(Some).ok_or(format!("{key} needs a value")),
        }
    };
    let workload = value("--workload")?.ok_or("--workload is required")?;
    if !report::WORKLOADS.iter().any(|w| w.0 == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = value("--seed")?.unwrap_or_else(|| "1".into());
    let seconds = value("--seconds")?.unwrap_or_else(|| report::RUN_SECONDS.to_string());
    let trace = value("--trace")?.unwrap_or_else(|| "0".into());
    Ok(Args {
        workload,
        seed: seed.parse().map_err(|e| format!("--seed {seed:?}: {e}"))?,
        seconds: seconds.parse().map_err(|e| format!("--seconds {seconds:?}: {e}"))?,
        trace: match trace.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    })
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--manifest") {
        print!("{}", report::manifest());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    report.note("workload", &args.workload);
    report.note("seed", args.seed);
    report.note("seconds", args.seconds);
    report.note("trace", u8::from(args.trace));
    report.note("git_revision", report::git_revision());
    report.note("nproc", std::thread::available_parallelism().map_or(1, |n| n.get()));
    match args.workload.as_str() {
        "mine" => mine::run(&args, &mut report),
        "serve_cold" => serve::run_cold(&args, &mut report),
        _ => serve::run_mixed(&args, &mut report),
    }
    report.set("peak_rss_mb", report::peak_rss_mb());
    report.set(
        "ok_frac",
        stats::ratio((report.attempted - report.failed) as f64, report.attempted as f64),
    );
    report.print(args.trace);
    ExitCode::SUCCESS
}

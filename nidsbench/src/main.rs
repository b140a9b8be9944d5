//! Benchmark of the CyberHD workspace.
//!
//! ```text
//! cargo run --release --manifest-path nidsbench/Cargo.toml -- \
//!     --workload <train_nids|serve_fleet|adapt_durable> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run prints the host fingerprint, its output checks and report
//! lines, and as its last line one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`).  See `README.md`.

mod adapt_durable;
mod host;
mod layers;
mod report;
mod serve_fleet;
mod stats;
mod trace;
mod train_nids;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One run's settings.
pub struct Run {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory under the current directory, removed when the run
    /// ends.
    pub work: PathBuf,
}

impl Run {
    /// Whether a measuring loop that started at `start` and has completed
    /// `done` iterations should run another: at least `min` iterations, and
    /// more while the window lasts.
    pub fn another(&self, start: Instant, done: usize, min: usize) -> bool {
        done < min || start.elapsed() < Duration::from_secs_f64(self.seconds)
    }
}

/// Runs `setup` `reps` times; returns its median wall time in seconds, the
/// last result, and whether every result has the same `digest` (inputs
/// must regenerate identically from the seed).
pub fn timed_setups<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, layers::BoxError>,
    digest: impl Fn(&T) -> u64,
) -> Result<(f64, T, bool), layers::BoxError> {
    let mut times = Vec::with_capacity(reps);
    let mut last: Option<(T, u64)> = None;
    let mut same = true;
    for _ in 0..reps {
        let start = Instant::now();
        let result = setup()?;
        times.push(start.elapsed().as_secs_f64());
        let d = digest(&result);
        same &= last.as_ref().is_none_or(|(_, previous)| *previous == d);
        last = Some((result, d));
    }
    println!("setup: {reps} set-ups, seconds {times:.4?}");
    let (result, _) = last.expect("at least one set-up");
    Ok((stats::median(&times), result, same))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
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
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: nidsbench --workload <train_nids|serve_fleet|adapt_durable> --seed <n> \
                 [--seconds <s>] [--trace <0|1>]"
            );
            std::process::exit(2);
        }
    };
    let workload: fn(&Run) -> Result<Outcome, layers::BoxError> = match args.workload.as_str() {
        "train_nids" => train_nids::run,
        "serve_fleet" => serve_fleet::run,
        "adapt_durable" => adapt_durable::run,
        other => {
            eprintln!("error: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    println!("fingerprint {}", host::fingerprint());
    println!(
        "run {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let work = PathBuf::from(".nidsbench").join(format!("work-{}", std::process::id()));
    let run = Run { seed: args.seed, seconds: args.seconds, trace: args.trace, work };
    let result =
        std::fs::create_dir_all(&run.work).map_err(Into::into).and_then(|()| workload(&run));
    let _ = std::fs::remove_dir_all(&run.work);
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    outcome.set("peak_rss_mb", report::peak_rss_mb());
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if !args.trace {
        for &(name, unit) in names {
            if let Some(&(_, value)) = outcome.metrics.iter().find(|(n, _)| *n == name) {
                println!("metric {name} = {value} {unit}");
            }
        }
    }
    println!("{}", outcome.result_line(names));
    if !outcome.mismatches.is_empty() {
        std::process::exit(1);
    }
}

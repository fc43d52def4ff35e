//! Regenerates every table and figure of the paper in one command, each
//! scenario on its own worker thread. It is the one way to run a
//! registered scenario.
//!
//! ```text
//! run_all [--quick] [--threads N] [--seed S] [--out-dir DIR] [--filter SUB]
//!         [--scale N] [--trace-out PATH] [--metrics-out PATH]
//! ```
//!
//! - `--quick` runs the shrunk sweeps (seconds, the CI smoke gate);
//!   the default is the paper-scale runs.
//! - `--threads N` caps the worker pool (default: all cores).
//! - `--seed S` mixes `S` into every workload RNG (default 0 keeps the
//!   historical per-experiment seeds).
//! - `--out-dir DIR` receives the `BENCH_<name>.json` files (default:
//!   current directory).
//! - `--filter SUB` runs only scenarios whose registry name contains the
//!   substring `SUB` (e.g. `--filter serve` runs `serve_fleet` and
//!   `serve_sweep`).
//! - `--scale N` overrides the scenario's headline count (writes per
//!   cell for `fig3`, transactions for the TPC-C scenarios, crash points
//!   per Q for `crash_campaign`, …).
//! - `--trace-out PATH` writes a Chrome trace-event JSON of every layer
//!   (load it in Perfetto); `--metrics-out PATH` writes the aggregated
//!   metrics JSON.
//!
//! `--scale`, `--trace-out` and `--metrics-out` need a `--filter` that
//! selects exactly one scenario; anything else is a usage error (exit
//! status 2).
//!
//! Reports print and JSON files are written in registry order from the
//! main thread, so the artifacts are byte-identical at any thread count.

use std::process::ExitCode;

use trail_bench::{run_all_scenarios, RunAllOptions};

const USAGE: &str = "usage: run_all [--quick] [--threads N] [--seed S] [--out-dir DIR] \
[--filter SUB] [--scale N] [--trace-out PATH] [--metrics-out PATH]";

fn main() -> ExitCode {
    let opts = match RunAllOptions::from_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("run_all: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let summary = run_all_scenarios(&opts).expect("write bench artifacts");
    for r in &summary.results {
        println!();
        println!("######## {} — {}", r.name, r.title);
        println!();
        print!("{}", r.report);
        eprintln!(
            "wrote {} ({:.2} s on its worker)",
            r.json_path.display(),
            r.wall.as_secs_f64()
        );
        if let Some(events) = r.recorded_events {
            if let Some(p) = &opts.trace_out {
                eprintln!("wrote Chrome trace ({events} events) to {}", p.display());
            }
            if let Some(p) = &opts.metrics_out {
                eprintln!("wrote metrics to {}", p.display());
            }
        }
    }
    println!();
    println!(
        "== run_all: {} scenarios on {} thread(s): serial estimate {:.1} s, elapsed {:.1} s — wall-clock speedup {:.2}x ==",
        summary.results.len(),
        summary.threads,
        summary.serial_estimate.as_secs_f64(),
        summary.elapsed.as_secs_f64(),
        summary.speedup()
    );
    ExitCode::SUCCESS
}

//! One repetition of a benchmark workload: set-up, then the timed phase.
//!
//! ```text
//! perfbench --workload <tpcc_trail|replay_raid5|crash_recovery>
//!           [--seed N] [--trace 0|1]
//! ```
//!
//! Prints one JSON object: host timings, the virtual-time results, the
//! counts that must repeat exactly for the same seed (`witness`), failed
//! output checks (`problems`), and, with `--trace 1`, the per-layer
//! metrics of an instrumented repetition. `run.py` runs repetitions in
//! fresh processes, checks them against each other and reports medians;
//! see `README.md`.

mod crash;
mod layers;
mod replay;
mod tpcc;

use std::collections::BTreeMap;
use trail_sim::SimDuration;

use layers::{Counts, Role, LAYERS};

/// Named metric values, in name order.
pub type Metrics = BTreeMap<String, f64>;

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// Virtual-time results of one repetition.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Vt {
    pub mean_ms: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub ops_per_min: f64,
}

/// One repetition: set-up, then the timed phase.
pub struct Iteration {
    pub setup_s: f64,
    /// Operations in the timed phase.
    pub ops: u64,
    /// Operations among them that failed their check.
    pub failed: u64,
    /// Host seconds of the timed phase.
    pub timed_s: f64,
    /// Simulator events the timed phase executed on this thread.
    pub events: u64,
    pub vt: Vt,
    /// Counts that must repeat exactly across repetitions.
    pub witness: Vec<u64>,
    /// An output check that did not hold.
    pub problem: Option<String>,
    /// Per-layer metrics (set-up steps always; the rest when traced).
    pub layer: Metrics,
}

/// Fills the metrics a counting recorder yields: per-role disk work,
/// block-layer queueing, and events per telemetry layer. `elapsed` is
/// the virtual span the recorder watched.
pub fn recorder_metrics(layer: &mut Metrics, c: &Counts, elapsed: SimDuration) {
    for role in Role::ALL {
        let (w, disks) = c.by_role(role);
        let per_cmd = |d: SimDuration| d.as_millis_f64() / w.commands.max(1) as f64;
        let busy = (w.seek + w.rotation + w.transfer).as_secs_f64();
        let capacity = disks as f64 * elapsed.as_secs_f64();
        let values = [
            ("commands", w.commands as f64),
            ("sectors", w.sectors as f64),
            (
                "busy_frac",
                if capacity > 0.0 { busy / capacity } else { 0.0 },
            ),
            ("seek_ms_mean", per_cmd(w.seek)),
            ("rotation_ms_mean", per_cmd(w.rotation)),
            ("transfer_ms_mean", per_cmd(w.transfer)),
        ];
        for (metric, v) in values {
            layer.insert(format!("disk.{metric}.{}", role.name()), v);
        }
    }
    layer.extend(named([
        ("blockio.requests", c.enqueues as f64),
        (
            "blockio.queue_wait_ms_mean",
            c.queue_wait.as_millis_f64() / c.completes.max(1) as f64,
        ),
        ("blockio.max_queue_depth", f64::from(c.max_queue_depth)),
    ]));
    for (l, n) in LAYERS.iter().zip(c.events) {
        layer.insert(format!("telemetry.events.{}", l.as_str()), n as f64);
    }
}

/// `(name, value)` pairs as metric entries.
pub fn named<const N: usize>(
    pairs: [(&'static str, f64); N],
) -> impl Iterator<Item = (String, f64)> {
    pairs.into_iter().map(|(k, v)| (k.to_string(), v))
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Peak resident memory of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed: cannot parse {value:?}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(args)
}

/// A JSON number; a value that is not finite is written as 0 and noted.
fn num(v: f64, problems: &mut Vec<String>, what: &str) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        problems.push(format!("{what} is not finite"));
        "0.0".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let iteration: fn(u64, bool) -> Iteration = match args.workload.as_str() {
        "tpcc_trail" => tpcc::iteration,
        "replay_raid5" => replay::iteration,
        "crash_recovery" => crash::iteration,
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let mut it = iteration(args.seed, args.trace);
    if args.trace {
        let rate = it.ops as f64 / it.timed_s;
        // A workload whose simulations run on worker threads reports no
        // events here, and so no per-event cost.
        let ns_per_event = if it.events > 0 {
            it.timed_s * 1e9 / it.events as f64
        } else {
            0.0
        };
        it.layer.extend(named([
            ("sim.events", it.events as f64),
            ("sim.events_per_op", it.events as f64 / it.ops.max(1) as f64),
            ("sim.host_ns_per_event", ns_per_event),
        ]));
        match args.workload.as_str() {
            "replay_raid5" => {
                it.layer.insert(
                    "trace.decode_ns_per_record".into(),
                    replay::decode_ns_per_record(args.seed),
                );
            }
            "crash_recovery" => crash::extras(args.seed, rate, &mut it.layer),
            _ => {}
        }
    }
    let mut problems: Vec<String> = it.problem.into_iter().collect();
    let vt = [it.vt.mean_ms, it.vt.p50_ms, it.vt.p99_ms, it.vt.ops_per_min]
        .map(|v| num(v, &mut problems, "a virtual-time result"));
    let layer: Vec<String> = it
        .layer
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", num(*v, &mut problems, k)))
        .collect();
    let witness: Vec<String> = it.witness.iter().map(u64::to_string).collect();
    let problems: Vec<String> = problems.iter().map(|p| format!("{p:?}")).collect();
    println!(
        "{{\"setup_s\": {:?}, \"ops\": {}, \"failed\": {}, \"timed_s\": {:?}, \
         \"events\": {}, \"peak_rss_mb\": {:?}, \"vt\": [{}], \"witness\": [{}], \
         \"problems\": [{}], \"layer\": {{{}}}}}",
        it.setup_s,
        it.ops,
        it.failed,
        it.timed_s,
        it.events,
        peak_rss_mb(),
        vt.join(", "),
        witness.join(", "),
        problems.join(", "),
        layer.join(", "),
    );
}

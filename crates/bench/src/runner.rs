//! The parallel scenario runner behind `run_all`, the one entry point
//! to the scenario registry.
//!
//! Scenarios are embarrassingly parallel: each one builds its own
//! single-threaded [`trail_sim::Simulator`] and never touches shared
//! state, so the runner just drains the registry through a work queue
//! with one OS thread per slot. Determinism is preserved by
//! construction: worker threads only *compute*; all `BENCH_<name>.json`
//! files are written by the calling thread, in registry order, from the
//! scenarios' virtual-time results (wall-clock times never enter the
//! JSON). Running with 1 thread or N produces byte-identical artifacts.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use trail_telemetry::{chrome_trace_string, metrics_json_string, MemoryRecorder, RecorderHandle};

pub use trail_sim::parallel_map;

use crate::report::write_bench_json_in;
use crate::scenarios::{all_scenarios, ScenarioConfig, ScenarioSpec};

/// Options for [`run_all_scenarios`], parsed from `run_all`'s command
/// line by [`RunAllOptions::from_args`].
#[derive(Clone, Debug)]
pub struct RunAllOptions {
    /// Run the shrunk quick sweeps instead of the paper-scale ones.
    pub quick: bool,
    /// Base seed mixed into every scenario's workload RNG.
    pub seed: u64,
    /// Worker threads (clamped to at least 1 and at most the number of
    /// scenarios).
    pub threads: usize,
    /// Directory receiving the `BENCH_<name>.json` files.
    pub out_dir: PathBuf,
    /// Run only scenarios whose registry name contains this substring
    /// (`None` runs the whole registry).
    pub filter: Option<String>,
    /// Overrides the scenario's headline count ([`ScenarioConfig::scale`]).
    /// Single-scenario runs only.
    pub scale: Option<usize>,
    /// Where to write a Chrome trace-event JSON of the scenario (loadable
    /// in Perfetto). Single-scenario runs only.
    pub trace_out: Option<PathBuf>,
    /// Where to write the scenario's compact metrics JSON.
    /// Single-scenario runs only.
    pub metrics_out: Option<PathBuf>,
}

impl Default for RunAllOptions {
    fn default() -> Self {
        RunAllOptions {
            quick: false,
            seed: 0,
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            out_dir: PathBuf::from("."),
            filter: None,
            scale: None,
            trace_out: None,
            metrics_out: None,
        }
    }
}

impl RunAllOptions {
    /// Parses `run_all`'s arguments (excluding `argv[0]`).
    ///
    /// # Errors
    ///
    /// A usage message for an unknown flag, a missing or malformed
    /// operand, or a single-scenario flag (`--scale`, `--trace-out`,
    /// `--metrics-out`) whose `--filter` does not select exactly one
    /// scenario.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut opts = RunAllOptions::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut operand = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--quick" => opts.quick = true,
                "--threads" => opts.threads = number(&flag, &operand()?)?,
                "--seed" => opts.seed = number(&flag, &operand()?)?,
                "--scale" => opts.scale = Some(number(&flag, &operand()?)?),
                "--out-dir" => opts.out_dir = PathBuf::from(operand()?),
                "--filter" => opts.filter = Some(operand()?),
                "--trace-out" => opts.trace_out = Some(PathBuf::from(operand()?)),
                "--metrics-out" => opts.metrics_out = Some(PathBuf::from(operand()?)),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        opts.scenarios()?;
        Ok(opts)
    }

    /// Whether the run attaches a telemetry recorder (either output was
    /// requested); otherwise scenarios run with the zero-cost
    /// `NullRecorder`.
    #[must_use]
    pub fn wants_recorder(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some()
    }

    /// The registry entries the filter selects, in registry order.
    ///
    /// # Errors
    ///
    /// When a single-scenario flag is set and the selection is not
    /// exactly one scenario.
    pub fn scenarios(&self) -> Result<Vec<ScenarioSpec>, String> {
        let specs: Vec<_> = all_scenarios()
            .into_iter()
            .filter(|s| self.filter.as_deref().is_none_or(|f| s.name.contains(f)))
            .collect();
        let single = [
            ("--scale", self.scale.is_some()),
            ("--trace-out", self.trace_out.is_some()),
            ("--metrics-out", self.metrics_out.is_some()),
        ]
        .into_iter()
        .find_map(|(flag, set)| set.then_some(flag));
        match single {
            Some(flag) if specs.len() != 1 => Err(format!(
                "{flag} needs a --filter that selects exactly one scenario (this one selects {})",
                specs.len()
            )),
            _ => Ok(specs),
        }
    }
}

fn number<T: std::str::FromStr>(flag: &str, operand: &str) -> Result<T, String> {
    operand
        .parse()
        .map_err(|_| format!("{flag} needs a number, got {operand:?}"))
}

/// One scenario's outcome in a [`RunAllSummary`].
pub struct ScenarioResult {
    /// Registry name (the `BENCH_<name>.json` stem).
    pub name: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// The human-readable report.
    pub report: String,
    /// Where the JSON payload was written.
    pub json_path: PathBuf,
    /// Wall-clock time this scenario took on its worker thread.
    pub wall: Duration,
    /// Simulator events the scenario executed — a *virtual-time* quantity,
    /// deterministic for a fixed seed regardless of thread count or host
    /// speed (unlike `wall`).
    pub events_executed: u64,
    /// Telemetry events recorded, when [`RunAllOptions::wants_recorder`].
    pub recorded_events: Option<usize>,
}

/// What a full [`run_all_scenarios`] call produced.
pub struct RunAllSummary {
    /// Per-scenario outcomes, in registry order.
    pub results: Vec<ScenarioResult>,
    /// Wall-clock time for the whole parallel run.
    pub elapsed: Duration,
    /// Sum of the per-scenario wall times — what a serial run would have
    /// cost (measured on this run; no second run needed).
    pub serial_estimate: Duration,
    /// Worker threads actually used.
    pub threads: usize,
}

impl RunAllSummary {
    /// Wall-clock speedup of the parallel run over the serial estimate.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.serial_estimate.as_secs_f64() / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Runs the scenarios [`RunAllOptions::scenarios`] selects, one per
/// worker thread, and writes each `BENCH_<name>.json` into
/// `opts.out_dir` (plus the requested trace and metrics files).
///
/// # Errors
///
/// [`std::io::ErrorKind::InvalidInput`] when a single-scenario option is
/// set and the filter does not select exactly one scenario; otherwise
/// file-system errors from creating the output directory or writing the
/// files.
///
/// # Panics
///
/// Panics if a scenario panics on its worker thread (the panic is
/// propagated when the thread scope joins).
pub fn run_all_scenarios(opts: &RunAllOptions) -> std::io::Result<RunAllSummary> {
    let specs = opts
        .scenarios()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    if specs.is_empty() {
        return Ok(RunAllSummary {
            results: Vec::new(),
            elapsed: Duration::ZERO,
            serial_estimate: Duration::ZERO,
            threads: 0,
        });
    }
    let threads = opts.threads.clamp(1, specs.len());
    let start = Instant::now();
    // Per scenario: its output, wall time, executed events and, when
    // recording, the event count plus the rendered telemetry files.
    let outcomes = parallel_map((0..specs.len()).collect(), threads, |idx: usize| {
        // The config and recorder are minted per task: a telemetry
        // recorder is an `Rc` (single-simulator affinity), so it lives
        // and is rendered on the worker that runs the scenario.
        let recorder = opts.wants_recorder().then(MemoryRecorder::shared);
        let cfg = ScenarioConfig {
            quick: opts.quick,
            seed: opts.seed,
            scale: opts.scale,
            recorder: recorder.clone().map(|r| r as RecorderHandle),
        };
        // Each scenario runs start-to-finish on one thread, so the
        // thread-local event counter's delta is exactly its count.
        let events_before = trail_sim::thread_events_executed();
        let t0 = Instant::now();
        let out = (specs[idx].run)(&cfg);
        let events = trail_sim::thread_events_executed() - events_before;
        let rendered = recorder.map(|r| {
            let events = r.snapshot();
            let mut files = Vec::new();
            if let Some(path) = &opts.trace_out {
                files.push((path, chrome_trace_string(&events)));
            }
            if let Some(path) = &opts.metrics_out {
                files.push((path, metrics_json_string(&events)));
            }
            (events.len(), files)
        });
        (out, t0.elapsed(), events, rendered)
    });
    let elapsed = start.elapsed();

    std::fs::create_dir_all(&opts.out_dir)?;
    let mut results = Vec::with_capacity(specs.len());
    let mut serial_estimate = Duration::ZERO;
    for (spec, (out, wall, events_executed, rendered)) in specs.iter().zip(outcomes) {
        serial_estimate += wall;
        let json_path = write_bench_json_in(&opts.out_dir, spec.artifact, &out.json)?;
        let recorded_events = match rendered {
            Some((events, files)) => {
                for (path, text) in files {
                    std::fs::write(path, text)?;
                }
                Some(events)
            }
            None => None,
        };
        results.push(ScenarioResult {
            name: spec.name,
            title: spec.title,
            report: out.report,
            json_path,
            wall,
            events_executed,
            recorded_events,
        });
    }
    Ok(RunAllSummary {
        results,
        elapsed,
        serial_estimate,
        threads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunAllOptions, String> {
        RunAllOptions::from_args(args.iter().map(|a| (*a).to_string()))
    }

    #[test]
    fn parses_single_scenario_flags() {
        let opts = parse(&[
            "--filter",
            "fig3",
            "--scale",
            "500",
            "--trace-out",
            "t.json",
            "--metrics-out",
            "m.json",
        ])
        .expect("fig3 is one scenario");
        assert_eq!(opts.scale, Some(500));
        assert_eq!(
            opts.trace_out.as_deref(),
            Some(std::path::Path::new("t.json"))
        );
        assert_eq!(
            opts.metrics_out.as_deref(),
            Some(std::path::Path::new("m.json"))
        );
        assert!(opts.wants_recorder());
    }

    #[test]
    fn no_flags_means_no_recorder() {
        let opts = parse(&["--quick", "--filter", "fig3", "--scale", "5000"]).expect("parses");
        assert!(!opts.wants_recorder());
        assert_eq!(opts.scale, Some(5000));
    }

    #[test]
    fn single_scenario_flags_need_exactly_one_match() {
        for flags in [
            &["--trace-out", "t.json"][..],
            &["--metrics-out", "m.json"],
            &["--scale", "8"],
        ] {
            for filter in [None, Some("no-such-scenario"), Some("serve")] {
                let mut args = flags.to_vec();
                args.extend(filter.iter().flat_map(|f| ["--filter", f]));
                let err = parse(&args).expect_err("selection is not one scenario");
                assert!(err.contains(flags[0]), "{err}");
            }
        }
        // Without them a filter may select any number of scenarios.
        assert!(parse(&["--filter", "serve"]).is_ok());
        assert!(parse(&["--filter", "no-such-scenario"]).is_ok());
    }

    #[test]
    fn malformed_arguments_are_usage_errors() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--threads"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(
            parse(&["500"]).is_err(),
            "the scale is a flag, not a positional"
        );
    }
}

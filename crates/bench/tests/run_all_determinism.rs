//! Acceptance for the `run_all` runner: a fixed seed must produce
//! byte-identical `BENCH_<name>.json` artifacts no matter how many worker
//! threads execute the scenarios, and a different seed must actually
//! change the workloads.

use std::path::{Path, PathBuf};

use trail_bench::{run_all_scenarios, RunAllOptions};

fn run_into(dir: &Path, threads: usize, seed: u64) -> (Vec<PathBuf>, Vec<(&'static str, u64)>) {
    let summary = run_all_scenarios(&RunAllOptions {
        quick: true,
        seed,
        threads,
        out_dir: dir.to_path_buf(),
        ..RunAllOptions::default()
    })
    .expect("runner writes artifacts");
    assert_eq!(
        summary.results.len(),
        trail_bench::all_scenarios().len(),
        "every registered scenario must run"
    );
    assert_eq!(summary.threads, threads.clamp(1, summary.results.len()));
    for r in &summary.results {
        assert!(r.json_path.exists(), "{} missing", r.json_path.display());
        assert!(!r.report.is_empty(), "{} produced no report", r.name);
        assert!(r.events_executed > 0, "{} executed no events", r.name);
    }
    (
        summary
            .results
            .iter()
            .map(|r| r.json_path.clone())
            .collect(),
        summary
            .results
            .iter()
            .map(|r| (r.name, r.events_executed))
            .collect(),
    )
}

#[test]
fn replay_scenarios_are_registered() {
    // The trace-replay experiments ride the same registry (and therefore
    // the same determinism guarantee) as the paper scenarios.
    let names: Vec<&str> = trail_bench::all_scenarios()
        .iter()
        .map(|s| s.name)
        .collect();
    for required in ["replay_synthetic", "replay_tpcc"] {
        assert!(names.contains(&required), "{required} not registered");
    }
}

#[test]
fn filter_selects_matching_scenarios_and_tolerates_no_match() {
    let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join("run_all_filter");
    let opts = RunAllOptions {
        quick: true,
        out_dir: base.clone(),
        filter: Some("serve".into()),
        ..RunAllOptions::default()
    };
    let summary = run_all_scenarios(&opts).expect("filtered run writes artifacts");
    let names: Vec<&str> = summary.results.iter().map(|r| r.name).collect();
    assert_eq!(names, ["serve_fleet", "serve_sweep"]);
    // The fleet scenario publishes under the shorter `serve` artifact stem.
    assert!(base.join("BENCH_serve.json").exists());
    assert!(base.join("BENCH_serve_sweep.json").exists());

    // A filter matching nothing is an empty run, not a panic.
    let none = run_all_scenarios(&RunAllOptions {
        filter: Some("no-such-scenario".into()),
        out_dir: base,
        ..RunAllOptions::default()
    })
    .expect("empty run succeeds");
    assert!(none.results.is_empty());
}

#[test]
fn fixed_seed_is_byte_identical_across_thread_counts() {
    let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join("run_all_det");
    let (serial, serial_events) = run_into(&base.join("t1"), 1, 0);
    let (parallel, parallel_events) = run_into(&base.join("t4"), 4, 0);
    let (reseeded, _) = run_into(&base.join("t1s9"), 1, 9);
    assert_eq!(serial.len(), parallel.len());
    // The executed-event counts are virtual-time quantities: like the JSON
    // artifacts, they must not move with the worker-thread count.
    assert_eq!(
        serial_events, parallel_events,
        "events_executed drifted between 1 and 4 threads"
    );
    let mut any_seed_sensitive = false;
    for (a, b) in serial.iter().zip(&parallel) {
        let left = std::fs::read(a).expect("read serial artifact");
        let right = std::fs::read(b).expect("read parallel artifact");
        assert_eq!(
            left,
            right,
            "{} differs between 1 and 4 threads",
            a.file_name().unwrap().to_string_lossy()
        );
        let c = base.join("t1s9").join(a.file_name().unwrap());
        if std::fs::read(&c).expect("read reseeded artifact") != left {
            any_seed_sensitive = true;
        }
    }
    let _ = reseeded;
    // The seed knob must not be vacuous: at least one scenario's numbers
    // have to move when the base seed changes.
    assert!(any_seed_sensitive, "--seed changed nothing");
}

#[test]
fn traced_single_scenario_run_leaves_its_artifact_unchanged() {
    let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join("run_all_traced");
    let run = |dir: &str, traced: bool| {
        let out_dir = base.join(dir);
        let opts = RunAllOptions {
            quick: true,
            out_dir: out_dir.clone(),
            filter: Some("fig3".into()),
            trace_out: traced.then(|| out_dir.join("trace.json")),
            ..RunAllOptions::default()
        };
        let summary = run_all_scenarios(&opts).expect("fig3 runs");
        assert_eq!(summary.results.len(), 1);
        assert_eq!(
            summary.results[0].recorded_events.is_some(),
            traced,
            "a recorder exactly when an output was asked for"
        );
        out_dir
    };
    let traced = run("traced", true);
    let plain = run("plain", false);

    let text = std::fs::read_to_string(traced.join("trace.json")).expect("trace written");
    let trace = trail_telemetry::JsonValue::parse(&text).expect("trace parses");
    let events = trace
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    // Every recorded event names its layer's lane as its category (the
    // lane-label metadata events carry none).
    for layer in ["disk", "blockio", "core"] {
        assert!(
            events
                .iter()
                .any(|e| e.get("cat").and_then(|c| c.as_str()) == Some(layer)),
            "trace has no {layer} lane events"
        );
    }
    assert!(!plain.join("trace.json").exists());
    // Recording must not perturb the virtual-time results.
    assert_eq!(
        std::fs::read(traced.join("BENCH_fig3.json")).expect("traced artifact"),
        std::fs::read(plain.join("BENCH_fig3.json")).expect("plain artifact"),
        "BENCH_fig3.json differs between traced and untraced runs"
    );
}

//! Machine-readable bench artifacts: the `BENCH_<name>.json` result
//! files that `run_all`, `perf_suite`, `trace_tool replay`,
//! `replay_stream` and `replay_giga` publish, so the perf trajectory is
//! tracked across changes. (`run_all`'s `--trace-out` / `--metrics-out`
//! telemetry files are written by [`crate::runner`].)

use std::path::{Path, PathBuf};

use trail_telemetry::JsonValue;

/// Serializes one bench run's headline results to `BENCH_<name>.json` in
/// `dir`, silently (each caller prints its own `wrote …` line). Returns
/// the path written.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_bench_json_in(
    dir: &Path,
    name: &str,
    results: &JsonValue,
) -> std::io::Result<PathBuf> {
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, results.to_json())?;
    Ok(path)
}

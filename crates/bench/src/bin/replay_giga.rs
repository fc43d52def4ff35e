//! `replay_giga` — the giga-trace scale demonstration: generate a
//! 10⁸-record synthetic trace, delta-compress it, and replay it both
//! single-engine and sharded, reporting throughput, on-disk size, and
//! the peak-resident memory proxy.
//!
//! ```text
//! replay_giga [--records N] [--shards N] [--threads N]
//!             [--out-dir DIR] [--keep]
//! ```
//!
//! The workload is fixed (seed 42, four streams round-robin over four
//! devices, Poisson arrivals at 20 ms mean, 30 % reads, 4-KB requests,
//! standard target) so every run — and every machine — replays the
//! same trace. Routing is shared-nothing: each stream owns one device,
//! so the sharded replay's merged latency artifacts must equal the
//! single-engine replay's exactly, and the run asserts that they do.
//!
//! Console output (wall-clock, machine-dependent):
//!
//! - trace size raw vs delta-compressed, with the ratio,
//! - records/sec single-engine vs sharded, with a `speedup:` line,
//! - the peak-resident-records proxy for both runs,
//! - a `peak rss: N MB` line: the process's peak resident memory
//!   (`VmHWM` in `/proc/self/status`), or `peak rss: unavailable` where
//!   that file does not exist.
//!
//! The JSON artifact (`BENCH_replaystream.json` in `--out-dir`) holds
//! only virtual-time-derived fields plus the two file sizes — it is
//! byte-identical across runs, thread counts, and machines.
//!
//! CI runs a 10⁷-record slice (`--records 10000000`); the default is
//! the full 10⁸, sized for a multi-gigabyte raw trace that never fits
//! in memory — generation, conversion, and both replays all stream.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::PathBuf;
use std::time::Instant;

use trail_bench::{replay_stream_json, write_bench_json_in};
use trail_sim::SimDuration;
use trail_telemetry::JsonValue;
use trail_trace::{
    generate_stream, replay_stream, replay_stream_sharded, ArrivalModel, ChunkEncoding,
    ReplayOptions, ShardPlan, SpatialModel, SyntheticSpec, TargetKind, TraceError, TraceReader,
    TraceWriter, DEFAULT_CHUNK_RECORDS,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut records: usize = 100_000_000;
    let mut shards: u32 = 4;
    let mut threads: Option<usize> = None;
    let mut out_dir = PathBuf::from(".");
    let mut keep = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--records" => {
                records = it
                    .next()
                    .expect("--records needs a count")
                    .parse()
                    .expect("--records takes a number");
            }
            "--shards" => {
                shards = it
                    .next()
                    .expect("--shards needs a count")
                    .parse()
                    .expect("--shards takes a number");
            }
            "--threads" => {
                threads = Some(
                    it.next()
                        .expect("--threads needs a count")
                        .parse()
                        .expect("--threads takes a number"),
                );
            }
            "--out-dir" => {
                out_dir = PathBuf::from(it.next().expect("--out-dir needs a path"));
            }
            "--keep" => keep = true,
            other => panic!("unknown argument {other:?}"),
        }
    }
    std::fs::create_dir_all(&out_dir).expect("create --out-dir");
    let raw_path = out_dir.join("giga_raw.trace");
    let delta_path = out_dir.join("giga_delta.trace");

    let spec = SyntheticSpec {
        seed: 42,
        requests: records,
        devices: 4,
        capacity_sectors: 2 * 1024 * 1024,
        read_fraction: 0.3,
        request_sectors: 8,
        streams: 4,
        arrivals: ArrivalModel::Poisson {
            mean_iat: SimDuration::from_millis(20),
        },
        spatial: SpatialModel::Uniform,
    };

    let wall = Instant::now();
    let file = File::create(&raw_path).expect("create raw trace");
    generate_stream(&spec, DEFAULT_CHUNK_RECORDS, BufWriter::new(file))
        .expect("generate raw trace");
    let raw_bytes = std::fs::metadata(&raw_path).expect("stat raw trace").len();
    println!(
        "generated {records} records in {:.1}s: {raw_bytes} bytes raw",
        wall.elapsed().as_secs_f64()
    );

    let wall = Instant::now();
    let delta_bytes = compress(&raw_path, &delta_path).expect("compress trace");
    let ratio = delta_bytes as f64 / raw_bytes as f64;
    println!(
        "delta-compressed in {:.1}s: {delta_bytes} bytes ({:.1}% of raw)",
        wall.elapsed().as_secs_f64(),
        ratio * 100.0,
    );

    let opts = ReplayOptions {
        target: TargetKind::Standard,
        ..ReplayOptions::default()
    };

    let open = || {
        let f = File::open(&delta_path).map_err(|e| TraceError::Io(e.to_string()))?;
        TraceReader::new(BufReader::new(f))
    };

    let wall = Instant::now();
    let single = replay_stream(open().expect("open delta trace"), &opts).expect("single replay");
    let single_wall = wall.elapsed();
    let single_rps = single.requests as f64 / single_wall.as_secs_f64().max(1e-9);
    println!(
        "single engine: {:.0} records/s wall, peak resident {} records",
        single_rps, single.peak_resident_records
    );

    let mut plan = ShardPlan::new(shards);
    if let Some(t) = threads {
        plan.threads = t;
    }
    let wall = Instant::now();
    let sharded = replay_stream_sharded(open, plan, &opts).expect("sharded replay");
    let sharded_wall = wall.elapsed();
    let sharded_rps = sharded.requests as f64 / sharded_wall.as_secs_f64().max(1e-9);
    println!(
        "sharded ({} shards, {} threads): {:.0} records/s wall, peak resident {} records/shard",
        plan.shards, plan.threads, sharded_rps, sharded.peak_resident_records
    );
    println!("speedup: {:.2}x", sharded_rps / single_rps.max(1e-9));

    assert_eq!(single.requests, sharded.requests, "request counts differ");
    assert_eq!(
        single.latency_fingerprint, sharded.latency_fingerprint,
        "shared-nothing routing must make the sharded replay's latency \
         fingerprint equal the single engine's"
    );
    assert_eq!(
        single.latency.to_json().to_json(),
        sharded.latency.to_json().to_json(),
        "merged latency histogram differs from the single engine's"
    );
    println!(
        "fingerprint: {:016x} (single == sharded)",
        single.latency_fingerprint
    );
    match peak_rss_mb() {
        Some(mb) => println!("peak rss: {mb} MB"),
        None => println!("peak rss: unavailable"),
    }

    let chunk = DEFAULT_CHUNK_RECORDS;
    let mut json = replay_stream_json(&sharded, chunk, delta_bytes);
    if let JsonValue::Obj(fields) = &mut json {
        fields.push(("shards".to_string(), JsonValue::Num(f64::from(plan.shards))));
        fields.push((
            "trace_bytes_raw".to_string(),
            JsonValue::Num(raw_bytes as f64),
        ));
        fields.push(("compression_ratio".to_string(), JsonValue::Num(ratio)));
    }
    let path = write_bench_json_in(&out_dir, "replaystream", &json)
        .expect("write BENCH_replaystream.json");
    eprintln!("wrote {}", path.display());

    if !keep {
        let _ = std::fs::remove_file(&raw_path);
        let _ = std::fs::remove_file(&delta_path);
    }
}

/// Streams `src` into `dst` with delta-compressed chunks; returns the
/// compressed file's size in bytes.
fn compress(src: &std::path::Path, dst: &std::path::Path) -> Result<u64, String> {
    let file = File::open(src).map_err(|e| e.to_string())?;
    let mut reader = TraceReader::new(BufReader::new(file)).map_err(|e| e.to_string())?;
    let mut meta = reader.meta().clone();
    meta.encoding = ChunkEncoding::Delta;
    let out = File::create(dst).map_err(|e| e.to_string())?;
    let mut w = TraceWriter::new(BufWriter::new(out), &meta).map_err(|e| e.to_string())?;
    for r in reader.records() {
        let r = r.map_err(|e| e.to_string())?;
        w.write_record(&r).map_err(|e| e.to_string())?;
    }
    w.finish().map_err(|e| e.to_string())?;
    Ok(std::fs::metadata(dst).map_err(|e| e.to_string())?.len())
}

/// The process's peak resident memory in whole MB, from `VmHWM` in
/// `/proc/self/status`; `None` where that file or field does not exist.
fn peak_rss_mb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb.div_ceil(1024))
}

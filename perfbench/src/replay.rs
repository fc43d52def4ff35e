//! `replay_raid5`: a synthetic block trace, generated and
//! delta-compressed in memory, replayed open-loop through
//! `replay_stream` against Trail-fronted RAID-5 volumes.

use std::io::Cursor;
use std::rc::Rc;
use std::time::Instant;

use trail::volume::VolumeLayout;
use trail_sim::{thread_events_executed, SimDuration};
use trail_telemetry::DurationHistogram;
use trail_trace::{
    generate, replay_stream, ArrivalModel, ChunkEncoding, ReplayOptions, SpatialModel,
    SyntheticSpec, TargetKind, TraceReader, TraceWriter,
};

use crate::layers::CountingRecorder;
use crate::{Iteration, Metrics, Vt};

/// Records in the trace: 4 streams at 20 ms mean inter-arrival each span
/// about 500 s of virtual time.
const RECORDS: usize = 100_000;

fn spec(seed: u64) -> SyntheticSpec {
    SyntheticSpec {
        seed,
        requests: RECORDS,
        devices: 4,
        capacity_sectors: 2 * 1024 * 1024,
        read_fraction: 0.3,
        request_sectors: 8,
        streams: 4,
        arrivals: ArrivalModel::Poisson {
            mean_iat: SimDuration::from_millis(20),
        },
        spatial: SpatialModel::Uniform,
    }
}

fn options() -> ReplayOptions {
    ReplayOptions {
        target: TargetKind::Raid {
            layout: VolumeLayout::Raid5 { chunk_sectors: 8 },
            members: 3,
            trail: true,
        },
        speed: 1.0,
        ..ReplayOptions::default()
    }
}

/// Generates the trace and encodes it with delta-compressed chunks.
fn encoded(seed: u64, layer: &mut Metrics) -> Vec<u8> {
    let t = Instant::now();
    let trace = generate(&spec(seed));
    layer.insert("trace.generate_s".into(), t.elapsed().as_secs_f64());

    let t = Instant::now();
    let mut meta = trace.meta.clone();
    meta.encoding = ChunkEncoding::Delta;
    let mut w = TraceWriter::new(Vec::new(), &meta).expect("in-memory trace header");
    for r in &trace.records {
        w.write_record(r).expect("in-memory trace record");
    }
    let bytes = w.finish().expect("in-memory trace footer");
    layer.extend(crate::named([
        ("trace.encode_s", t.elapsed().as_secs_f64()),
        (
            "trace.bytes_per_record",
            bytes.len() as f64 / RECORDS as f64,
        ),
    ]));
    bytes
}

/// The percentile `p` of `h`, linearly interpolated inside the log2
/// bucket that holds it (the histogram keeps no finer detail).
fn bucket_percentile_ms(h: &DurationHistogram, p: f64) -> f64 {
    let rank = ((p / 100.0) * h.count() as f64).ceil().max(1.0);
    let mut seen = 0.0;
    for (upper, n) in h.nonzero_buckets() {
        let n = n as f64;
        if seen + n >= rank {
            let lower = (upper / 2 + 1) as f64;
            let lo = lower.max(h.min().as_nanos() as f64);
            let hi = (upper as f64).min(h.max().as_nanos() as f64);
            return (lo + (hi - lo) * (rank - seen) / n) / 1e6;
        }
        seen += n;
    }
    h.max().as_millis_f64()
}

/// Sums a numeric field over the report's per-volume JSON objects.
fn volume_sum(volumes: &[trail_telemetry::JsonValue], field: &str) -> f64 {
    volumes
        .iter()
        .filter_map(|v| v.get(field).and_then(|x| x.as_f64()))
        .sum()
}

/// Member I/Os (reads plus writes) over every member of every volume.
fn member_ios(volumes: &[trail_telemetry::JsonValue]) -> f64 {
    volumes
        .iter()
        .filter_map(|v| v.get("members").and_then(|m| m.as_arr()))
        .flatten()
        .map(|m| {
            ["reads", "writes"]
                .iter()
                .filter_map(|k| m.get(k).and_then(|x| x.as_f64()))
                .sum::<f64>()
        })
        .sum()
}

/// One set-up plus timed phase.
pub fn iteration(seed: u64, traced: bool) -> Iteration {
    let mut layer = Metrics::new();
    let setup = Instant::now();
    let bytes = encoded(seed, &mut layer);
    let setup_s = setup.elapsed().as_secs_f64();

    let recorder = Rc::new(CountingRecorder::default());
    let mut opts = options();
    if traced {
        opts.recorder = Some(recorder.clone());
    }
    let reader = TraceReader::new(Cursor::new(bytes)).expect("trace header decodes");
    let events0 = thread_events_executed();
    let timed = Instant::now();
    let report = replay_stream(reader, &opts).expect("replay runs");
    let timed_s = timed.elapsed().as_secs_f64();
    let events = thread_events_executed() - events0;

    let problem = (report.requests != RECORDS as u64).then(|| {
        format!(
            "replay issued {} requests for {RECORDS} records",
            report.requests
        )
    });
    let vols = &report.volume_stats;
    let counts = [
        events,
        report.requests,
        report.reads,
        report.writes,
        report.errors,
        report.latency_fingerprint,
        report.latency.count(),
        report.latency.mean().as_nanos(),
        report.duration.as_nanos(),
        report.peak_resident_records,
        u64::from(report.max_queue_depth),
        volume_sum(vols, "rmw_cycles") as u64,
        member_ios(vols) as u64,
    ];

    if traced {
        let logical = volume_sum(vols, "logical_reads") + volume_sum(vols, "logical_writes");
        let c = recorder.take();
        layer.extend(crate::named([
            ("volume.logical_writes", volume_sum(vols, "logical_writes")),
            ("volume.rmw_cycles", volume_sum(vols, "rmw_cycles")),
            (
                "volume.full_stripe_writes",
                volume_sum(vols, "full_stripe_writes"),
            ),
            (
                "volume.member_ios_per_logical",
                member_ios(vols) / logical.max(1.0),
            ),
            ("volume.retried_ops", volume_sum(vols, "retried_ops")),
            (
                "trace.peak_resident_records",
                report.peak_resident_records as f64,
            ),
            ("trace.max_queue_depth", f64::from(report.max_queue_depth)),
            (
                "trace.p50_bucket_ms",
                report.latency.percentile(50.0).as_millis_f64(),
            ),
            (
                "trace.p99_bucket_ms",
                report.latency.percentile(99.0).as_millis_f64(),
            ),
            ("core.log_records", c.batch_flushes as f64),
            ("core.repositions", c.repositions as f64),
            ("core.writebacks", c.writebacks as f64),
        ]));
        crate::recorder_metrics(&mut layer, &c, report.duration);
    }

    Iteration {
        setup_s,
        ops: report.requests,
        failed: report.errors,
        timed_s,
        events,
        vt: Vt {
            mean_ms: report.latency.mean().as_millis_f64(),
            p50_ms: bucket_percentile_ms(&report.latency, 50.0),
            p99_ms: bucket_percentile_ms(&report.latency, 99.0),
            ops_per_min: report.requests as f64 / (report.duration.as_secs_f64() / 60.0),
        },
        witness: counts.to_vec(),
        problem,
        layer,
    }
}

/// A decode-only pass over the encoded trace, in host nanoseconds per
/// record (median of three passes).
pub fn decode_ns_per_record(seed: u64) -> f64 {
    let bytes = encoded(seed, &mut Metrics::new());
    let mut passes: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut reader = TraceReader::new(bytes.as_slice()).expect("trace header decodes");
            let mut n = 0u64;
            for r in reader.records() {
                std::hint::black_box(r.expect("record decodes"));
                n += 1;
            }
            assert_eq!(n, RECORDS as u64, "decode pass must see every record");
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    crate::median(&mut passes)
}

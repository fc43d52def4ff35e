//! `crash_recovery`: a crash campaign over Trail fronting a three-member
//! RAID-5 volume. Each crash point replays a burst of about 256 writes,
//! cuts the log disk's power at its midpoint instant, reboots, recovers
//! from the log through the volume, and verifies every acknowledged
//! write and every touched parity stripe.
//!
//! The RAID-5 flavor rather than raw disks: on raw disks a point's
//! recovery time takes a handful of discrete values (the locate scan
//! dominates), so its p99 is the same for every burst size and point
//! count and cannot vary with the seed.

use std::time::Instant;

use trail::volume::VolumeLayout;
use trail::StackBuilder;
use trail_bench::{run_campaign, CampaignFlavor, CampaignSpec};
use trail_sim::LatencySummary;

use crate::{Iteration, Metrics, Vt};

const CRASH_POINTS: usize = 1024;
const THREADS: usize = 2;

/// The campaign for `seed`. Recovery is deterministic for a given burst
/// and cut instant, so the seed picks the burst size (252 to 260 writes
/// of 4 KB): each size moves every midpoint cut instant.
fn spec(seed: u64, crash_points: usize) -> CampaignSpec {
    // SplitMix64 finalizer: nearby seeds land far apart.
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    CampaignSpec {
        flavor: CampaignFlavor::Raid5,
        writes: 252 + (z % 9) as usize,
        crash_points,
        seed,
    }
}

/// Crash points recovered and verified per host second.
fn rate(seed: u64, threads: usize) -> f64 {
    let n = CRASH_POINTS;
    let t = Instant::now();
    let outcomes = run_campaign(&spec(seed, n), threads);
    assert_eq!(outcomes.len(), n, "campaign ran every crash point");
    n as f64 / t.elapsed().as_secs_f64()
}

/// One set-up plus timed phase. The set-up is the campaign's probe run
/// alone: a campaign with no crash points.
pub fn iteration(seed: u64, traced: bool) -> Iteration {
    let n = CRASH_POINTS;
    let setup = Instant::now();
    let probe = run_campaign(&spec(seed, 0), THREADS);
    let setup_s = setup.elapsed().as_secs_f64();
    assert!(probe.is_empty(), "a zero-point campaign only probes");

    let timed = Instant::now();
    let outcomes = run_campaign(&spec(seed, n), THREADS);
    let timed_s = timed.elapsed().as_secs_f64();

    let mut total = LatencySummary::new();
    let mut sums = [0u64; 9];
    for o in &outcomes {
        let r = &o.report;
        total.record(r.total_time());
        for (s, v) in sums.iter_mut().zip([
            o.acked as u64,
            o.pending as u64,
            r.locate_time.as_nanos(),
            r.rebuild_time.as_nanos(),
            r.writeback_time.as_nanos(),
            r.tracks_scanned,
            r.active_log_sectors,
            r.torn_records_dropped,
            o.violations as u64,
        ]) {
            *s += v;
        }
    }
    let failed = outcomes.iter().filter(|o| o.violations > 0).count() as u64;
    let problem = (outcomes.len() != n)
        .then(|| format!("campaign returned {} of {n} crash points", outcomes.len()));

    let mut layer = Metrics::new();
    if traced {
        let per_point = |s: u64| s as f64 / outcomes.len().max(1) as f64;
        layer.extend(crate::named([
            ("core.recover_locate_ms", per_point(sums[2]) / 1e6),
            ("core.recover_rebuild_ms", per_point(sums[3]) / 1e6),
            ("core.recover_writeback_ms", per_point(sums[4]) / 1e6),
            ("core.recover_tracks_scanned", per_point(sums[5])),
            ("core.recover_active_log_sectors", per_point(sums[6])),
            ("core.torn_records_dropped", sums[7] as f64),
        ]));
    }
    Iteration {
        setup_s,
        ops: n as u64,
        failed,
        timed_s,
        // Crash points run on worker threads, whose event counters the
        // calling thread cannot read.
        events: 0,
        vt: Vt {
            mean_ms: total.mean().as_millis_f64(),
            p50_ms: total.percentile(50.0).as_millis_f64(),
            p99_ms: total.percentile(99.0).as_millis_f64(),
            ops_per_min: outcomes.len() as f64 / (total.total().as_secs_f64() / 60.0),
        },
        witness: sums.into_iter().chain([outcomes.len() as u64]).collect(),
        problem,
        layer,
    }
}

/// Traced-run extras: the Trail stack build each crash point pays, and
/// the campaign's two-thread over one-thread point rate.
pub fn extras(seed: u64, two_thread_rate: f64, layer: &mut Metrics) {
    let mut builds: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            let built = StackBuilder::new()
                .seed(seed)
                .trail_default()
                .data_disks(1)
                .volumes(VolumeLayout::Raid5 { chunk_sectors: 8 }, 3)
                .build()
                .expect("campaign stack boots");
            std::hint::black_box(built);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    layer.extend(crate::named([
        ("trail.build_ms", crate::median(&mut builds)),
        (
            "bench.campaign_parallel_eff",
            two_thread_rate / rate(seed, 1),
        ),
    ]));
}

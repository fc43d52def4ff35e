//! `tpcc_trail`: the paper's §5.2 TPC-C rig on the Trail stack.
//!
//! The rig is `trail_bench::tpcc_setup(true, &TpccRig::default())`
//! rebuilt step by step from the same public calls, so each set-up step
//! (format, boot, populate, poke, warm, warm-up transactions) can be
//! timed on its own and the traced run can wrap the stack's boundaries.
//! Four closed-loop terminals each start their next transaction when the
//! previous one is durable (`ChainOn::Durable`), as `trail_tpcc::run`
//! does.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use trail_bench::TpccRig;
use trail_blockio::{Clook, Priority, SharedBlockDevice, StandardDriver};
use trail_core::{format_log_disk, FormatOptions, TrailConfig, TrailDriver, TrailStats};
use trail_db::{BlockStack, Database, DbConfig, TrailStack, TxnResult};
use trail_disk::{profiles, Disk, SECTOR_SIZE};
use trail_sim::{thread_events_executed, Delivered, LatencySummary, SimTime, Simulator};
use trail_tpcc::{populate, CpuModel, Workload};

use crate::layers::{self, CountingRecorder, Span, TimedDevice, TimedStack};
use crate::{Iteration, Metrics, Vt};

/// Transactions run before timing starts (counted in `setup_s`).
const WARMUP_TXNS: usize = 1_000;
/// Transactions in the timed phase.
const TIMED_TXNS: usize = 20_000;
const TERMINALS: usize = 4;

struct Rig {
    sim: Simulator,
    db: Database,
    workload: Rc<RefCell<Workload>>,
    trail: TrailDriver,
    disks: Vec<Disk>,
    log: Disk,
}

/// `tpcc_setup`'s engine configuration for the default rig.
fn db_config(rig: &TpccRig) -> DbConfig {
    DbConfig {
        cache_pages: rig.cache_pages,
        flush_policy: rig.policy,
        log_dev: 0,
        log_region_start: 64,
        log_region_sectors: 2_000_000,
        flush_write_bytes: rig.flush_write_bytes,
        table_devices: vec![1, 2],
        dirty_high_watermark: usize::MAX / 2,
        flush_batch: 16,
        log_before_images: true,
        single_cpu: true,
    }
}

/// Builds, populates and warms the rig, timing each step into `split`.
fn build(seed: u64, traced: bool, split: &mut Metrics) -> Rig {
    let rig = TpccRig::default();
    let mut step = Instant::now();
    let mut lap = |name: &str, split: &mut Metrics| {
        split.insert(name.into(), step.elapsed().as_secs_f64());
        step = Instant::now();
    };

    let mut sim = Simulator::new();
    let disks: Vec<Disk> = (0..3)
        .map(|i| Disk::new(format!("data{i}"), profiles::wd_caviar_10gb()))
        .collect();
    let log = Disk::new("trail-log", profiles::seagate_st41601n());
    format_log_disk(&mut sim, &log, FormatOptions::default()).expect("format the log disk");
    lap("tpcc.setup_format_s", split);

    // The drivers `TrailDriver::start` would build, made here so the
    // traced run can time the Trail driver's submissions into them.
    let targets: Vec<SharedBlockDevice> = disks
        .iter()
        .map(|d| {
            let drv: SharedBlockDevice = Rc::new(StandardDriver::with_policy(
                d.clone(),
                Box::new(Clook::default()),
                Priority::ReadsFirst,
            ));
            if traced {
                Rc::new(TimedDevice(drv))
            } else {
                drv
            }
        })
        .collect();
    let (trail, _) =
        TrailDriver::start_with_targets(&mut sim, log.clone(), targets, TrailConfig::default())
            .expect("boot Trail");
    let stack: Rc<dyn BlockStack> = Rc::new(TrailStack::new(trail.clone(), disks.len()));
    let stack = if traced {
        Rc::new(TimedStack(stack))
    } else {
        stack
    };
    let db = Database::new(stack, db_config(&rig));
    lap("tpcc.setup_boot_s", split);

    let images = populate(&db, &rig.scale);
    lap("tpcc.populate_s", split);

    for (pid, bytes) in &images {
        let disk = &disks[pid.dev as usize];
        for (i, chunk) in bytes.chunks(SECTOR_SIZE).enumerate() {
            let mut sector = [0u8; SECTOR_SIZE];
            sector[..chunk.len()].copy_from_slice(chunk);
            disk.poke_sector(pid.first_lba() + i as u64, &sector);
        }
    }
    lap("disk.poke_s", split);

    let mut ordered: Vec<_> = images.iter().collect();
    ordered.sort_by_key(|(pid, _)| (pid.dev, pid.page_no));
    for (pid, bytes) in ordered {
        db.warm(*pid, bytes);
    }
    drop(images);
    lap("db.warm_s", split);

    let mut rig = Rig {
        sim,
        db,
        workload: Rc::new(RefCell::new(Workload::new(
            rig.scale,
            seed,
            CpuModel::default(),
        ))),
        trail,
        disks,
        log,
    };
    let warm = drive(&mut rig, WARMUP_TXNS);
    assert_eq!(
        warm.durable, WARMUP_TXNS as u64,
        "warm-up transactions must all be durable"
    );
    lap("tpcc.warmup_s", split);
    rig
}

struct Terminals {
    to_issue: usize,
    durable: u64,
    failed: u64,
    half: u64,
    half_at: Option<Instant>,
    response: LatencySummary,
    started_at: SimTime,
    last_durable: SimTime,
}

struct Drive {
    durable: u64,
    failed: u64,
    response: LatencySummary,
    vt_elapsed_min: f64,
    first_half_s: f64,
    second_half_s: f64,
}

/// Runs `txns` transactions on the closed-loop terminals to durability.
fn drive(rig: &mut Rig, txns: usize) -> Drive {
    let start = Instant::now();
    let t = Rc::new(RefCell::new(Terminals {
        to_issue: txns,
        durable: 0,
        failed: 0,
        half: (txns / 2) as u64,
        half_at: None,
        response: LatencySummary::new(),
        started_at: rig.sim.now(),
        last_durable: rig.sim.now(),
    }));
    for _ in 0..TERMINALS {
        issue_next(&mut rig.sim, &rig.db, &rig.workload, &t);
    }
    let total = txns as u64;
    loop {
        let settled = {
            let t = t.borrow();
            t.durable + t.failed
        };
        if settled >= total {
            break;
        }
        if !rig.sim.step() {
            // A partial group is parked in the log buffer; force it.
            rig.db.force_log(&mut rig.sim);
            if rig.db.pending_work() == 0 && !rig.sim.step() {
                break;
            }
        }
    }
    let end = Instant::now();
    rig.db.run_until_quiescent(&mut rig.sim);
    let t = t.borrow();
    let half_at = t.half_at.unwrap_or(end);
    Drive {
        durable: t.durable,
        failed: total - t.durable,
        vt_elapsed_min: t.last_durable.duration_since(t.started_at).as_secs_f64() / 60.0,
        response: t.response.clone(),
        first_half_s: half_at.duration_since(start).as_secs_f64(),
        second_half_s: end.duration_since(half_at).as_secs_f64(),
    }
}

fn issue_next(
    sim: &mut Simulator,
    db: &Database,
    workload: &Rc<RefCell<Workload>>,
    t: &Rc<RefCell<Terminals>>,
) {
    {
        let mut t = t.borrow_mut();
        if t.to_issue == 0 {
            return;
        }
        t.to_issue -= 1;
    }
    let (_, spec) = workload.borrow_mut().next_txn();
    let on_control = sim.completion(|_: &mut Simulator, _: Delivered<()>| {});
    let (db2, w2, t2) = (db.clone(), Rc::clone(workload), Rc::clone(t));
    let on_durable = sim.completion(move |sim: &mut Simulator, del: Delivered<TxnResult>| {
        let Ok(res) = del else {
            t2.borrow_mut().failed += 1;
            return;
        };
        {
            let mut t = t2.borrow_mut();
            t.durable += 1;
            t.response.record(res.response());
            t.last_durable = sim.now();
            if t.durable == t.half {
                t.half_at = Some(Instant::now());
            }
        }
        issue_next(sim, &db2, &w2, &t2);
    });
    layers::span(Span::Db, || db.execute(sim, spec, on_control, on_durable))
        .expect("the engine accepts transactions");
}

fn mean<T: Copy + Into<f64>>(xs: &[T]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().map(|&x| x.into()).sum::<f64>() / xs.len() as f64
    }
}

/// Trail driver counters: log records, repositions, write-backs,
/// superseded write-backs, read hits, read misses, stalls.
fn trail_counters(s: &TrailStats) -> [u64; 7] {
    [
        s.log_records,
        s.repositions,
        s.writebacks,
        s.superseded_writebacks,
        s.read_hits,
        s.read_misses,
        s.stalls,
    ]
}

/// One set-up plus timed phase.
pub fn iteration(seed: u64, traced: bool) -> Iteration {
    let setup = Instant::now();
    let mut layer = Metrics::new();
    let mut rig = build(seed, traced, &mut layer);
    let setup_s = setup.elapsed().as_secs_f64();

    let recorder = Rc::new(CountingRecorder::default());
    if traced {
        rig.db.set_recorder(recorder.clone());
        layers::spans_start();
    }
    let cache0 = rig.db.cache_stats();
    let wal0 = rig.db.wal_stats();
    let (batches0, utils0, sync0) = rig.trail.with_stats(|s| {
        (
            s.batch_sizes.len(),
            s.track_utilization.len(),
            s.sync_write_latency.count(),
        )
    });
    let core0 = rig.trail.with_stats(trail_counters);
    let vt0 = rig.sim.now();

    let events0 = thread_events_executed();
    let timed = Instant::now();
    let mut run = drive(&mut rig, TIMED_TXNS);
    let timed_s = timed.elapsed().as_secs_f64();
    let events = thread_events_executed() - events0;
    let vt_elapsed = rig.sim.now().duration_since(vt0);

    let cache = rig.db.cache_stats();
    let wal = rig.db.wal_stats();
    let hits = cache.hits - cache0.hits;
    let lookups = hits + cache.misses - cache0.misses;
    let core = rig.trail.with_stats(trail_counters);
    let [records, repositions, writebacks, superseded, read_hits, read_misses, stalls] =
        std::array::from_fn(|i| core[i] - core0[i]);
    let (batch_mean, util_mean, sync_ms) = rig.trail.with_stats(|s| {
        let sync: Vec<f64> = s
            .sync_write_latency
            .iter()
            .skip(sync0)
            .map(|d| d.as_millis_f64())
            .collect();
        (
            mean(&s.batch_sizes[batches0..]),
            mean(&s.track_utilization[utils0..]),
            mean(&sync),
        )
    });
    let txns = run.durable;
    let vt = Vt {
        mean_ms: run.response.mean().as_millis_f64(),
        p50_ms: run.response.percentile(50.0).as_millis_f64(),
        p99_ms: run.response.percentile(99.0).as_millis_f64(),
        ops_per_min: txns as f64 / run.vt_elapsed_min,
    };
    let counts = [
        events,
        txns,
        hits,
        lookups,
        cache.evictions - cache0.evictions,
        wal.flushes - wal0.flushes,
        wal.bytes_flushed - wal0.bytes_flushed,
        records,
        repositions,
        writebacks,
        superseded,
        read_hits,
        read_misses,
        stalls,
    ];

    if traced {
        let spans = layers::spans_stop();
        let c = recorder.take();
        let frac = |d: std::time::Duration| d.as_secs_f64() / timed_s;
        let per = |n: u64, d: u64| n as f64 / d.max(1) as f64;
        layer.extend(crate::named([
            ("db.host_self_frac", frac(spans.own[Span::Db as usize])),
            ("core.host_self_frac", frac(spans.own[Span::Core as usize])),
            (
                "blockio.host_frac",
                frac(spans.total[Span::Blockio as usize]),
            ),
            (
                "tpcc.late_over_early_rate",
                run.first_half_s / run.second_half_s,
            ),
            ("db.cache_hit_frac", per(hits, lookups)),
            (
                "db.cache_evictions",
                (cache.evictions - cache0.evictions) as f64,
            ),
            ("db.log_forces", (wal.flushes - wal0.flushes) as f64),
            (
                "db.log_bytes_per_txn",
                per(wal.bytes_flushed - wal0.bytes_flushed, txns),
            ),
            (
                "db.logging_io_ms",
                (wal.logging_io_time - wal0.logging_io_time).as_millis_f64(),
            ),
            ("core.log_records", records as f64),
            ("core.batch_sectors_mean", batch_mean),
            ("core.repositions", repositions as f64),
            ("core.track_util_mean", util_mean),
            ("core.writebacks", writebacks as f64),
            ("core.superseded_frac", per(superseded, writebacks)),
            (
                "core.read_hit_frac",
                per(read_hits, read_hits + read_misses),
            ),
            ("core.sync_write_ms_mean", sync_ms),
            ("core.stalls", stalls as f64),
        ]));
        crate::recorder_metrics(&mut layer, &c, vt_elapsed);
    }
    // The data and log disks stay reachable here; their counters are
    // part of the determinism witness.
    let disk_counts: Vec<u64> = rig
        .disks
        .iter()
        .chain(std::iter::once(&rig.log))
        .flat_map(|d| d.with_stats(|s| [s.reads, s.writes, s.sectors_read, s.sectors_written]))
        .collect();

    Iteration {
        setup_s,
        ops: TIMED_TXNS as u64,
        failed: run.failed,
        timed_s,
        events,
        vt,
        witness: counts.into_iter().chain(disk_counts).collect(),
        problem: None,
        layer,
    }
}

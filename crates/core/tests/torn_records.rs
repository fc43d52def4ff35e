//! Hostile log media, torn-record slice: damage one payload sector of the
//! youngest record on the log disk (a bit flip, or stale bytes from an
//! earlier use of the sector) and recovery must detect it through the
//! payload checksum, drop exactly that record, and replay exactly the
//! writes logged before it.
//!
//! The damaged record stands for the one in flight at a power cut: its
//! header reached the medium but one of its payload sectors did not. Its
//! write was never acknowledged, so the acknowledged prefix is every
//! write before it.

use std::cell::Cell;
use std::rc::Rc;

use proptest::prelude::*;
use trail_core::format::RecordHeader;
use trail_core::{
    format_log_disk, read_header, recover, FormatOptions, RecoveryOptions, TrailConfig, TrailDriver,
};
use trail_disk::{profiles, Disk, SectorBuf, SECTOR_SIZE};
use trail_sim::{Delivered, Simulator};

/// Where write `i` lands on the data disk: far enough apart that no two
/// writes touch the same block.
fn write_lba(i: usize) -> u64 {
    100 + 16 * i as u64
}

/// Contents of sector `s` of write `i`; the first byte is nonzero so
/// first-byte transposition is exercised.
fn write_sector(i: usize, s: usize) -> SectorBuf {
    let mut b = [(i * 16 + s) as u8 ^ 0x5C; SECTOR_SIZE];
    b[0] = 0xA0 | i as u8;
    b
}

/// How the youngest record's payload sector is damaged.
#[derive(Clone, Copy, Debug)]
enum Damage {
    /// Flip one bit of the sector.
    BitFlip { bit: usize },
    /// Replace the sector with stale payload bytes (first byte already
    /// the payload marker, as a payload sector from an older record).
    Stale { fill: u8 },
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        (0..SECTOR_SIZE * 8).prop_map(|bit| Damage::BitFlip { bit }),
        any::<u8>().prop_map(|fill| Damage::Stale { fill }),
    ]
}

/// Writes `sizes.len()` records (one write each, waiting for every
/// acknowledgement) and cuts power on every disk at the instant the last
/// one is acknowledged, before its write-back can reach the data disk.
fn log_writes_then_cut(sizes: &[usize]) -> (Disk, Disk) {
    let mut sim = Simulator::new();
    let log = Disk::new("log", profiles::tiny_test_disk());
    let data = Disk::new("d0", profiles::tiny_test_disk());
    format_log_disk(&mut sim, &log, FormatOptions::default()).unwrap();
    let (drv, _) = TrailDriver::start(
        &mut sim,
        log.clone(),
        vec![data.clone()],
        TrailConfig::default(),
    )
    .unwrap();
    for (i, &n) in sizes.iter().enumerate() {
        let acked = Rc::new(Cell::new(false));
        let flag = Rc::clone(&acked);
        let done = sim.completion(move |_, d: Delivered<_>| flag.set(d.is_ok()));
        let bytes: Vec<u8> = (0..n).flat_map(|s| write_sector(i, s)).collect();
        drv.write(&mut sim, 0, write_lba(i), bytes, done).unwrap();
        while !acked.get() {
            assert!(sim.step(), "write {i} was never acknowledged");
        }
    }
    log.power_cut(sim.now());
    data.power_cut(sim.now());
    log.power_on();
    data.power_on();
    (log, data)
}

/// The current-epoch record with the highest sequence id, found by
/// scanning every sector of the log disk.
fn youngest_record(log: &Disk, epoch: u64) -> RecordHeader {
    (0..log.geometry().total_sectors())
        .filter_map(|lba| RecordHeader::decode(&log.peek_sector(lba)).ok().flatten())
        .filter(|h| h.epoch == epoch)
        .max_by_key(|h| h.sequence_id)
        .expect("the log holds records")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn damaged_youngest_record_is_dropped(
        sizes in proptest::collection::vec(1usize..=4, 1..=5),
        victim in any::<u32>(),
        damage in arb_damage(),
    ) {
        let (log, data) = log_writes_then_cut(&sizes);
        let mut sim = Simulator::new();
        let header = read_header(&mut sim, &log).unwrap();
        let youngest = youngest_record(&log, header.epoch);
        prop_assert_eq!(youngest.entries.len(), *sizes.last().unwrap());
        let entry = youngest.entries[victim as usize % youngest.entries.len()];
        let lba = u64::from(entry.log_lba);
        let mut sector = log.peek_sector(lba);
        match damage {
            Damage::BitFlip { bit } => sector[bit / 8] ^= 1 << (bit % 8),
            Damage::Stale { fill } => {
                let mut stale = [fill; SECTOR_SIZE];
                stale[0] = 0;
                prop_assume!(stale != sector);
                sector = stale;
            }
        }
        log.poke_sector(lba, &sector);

        let data_disks = std::slice::from_ref(&data);
        let report = recover(&mut sim, &log, data_disks, &header, RecoveryOptions::default())
            .unwrap();
        prop_assert_eq!(report.torn_records_dropped, 1);
        // Exactly the prefix: every earlier write reads back, and the
        // damaged record's write left its blocks as they were (never
        // written).
        let last = sizes.len() - 1;
        for (i, &n) in sizes.iter().enumerate() {
            for s in 0..n {
                let want = if i < last { write_sector(i, s) } else { [0u8; SECTOR_SIZE] };
                let got = data.peek_sector(write_lba(i) + s as u64);
                prop_assert!(got == want, "write {} sector {}", i, s);
            }
        }
    }
}

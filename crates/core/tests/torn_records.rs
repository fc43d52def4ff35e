//! Hostile log media: damage the youngest record on the log disk and
//! recovery must replay exactly the writes logged before it — no panic,
//! no error, nothing more. Three kinds of damage:
//!
//! - one payload sector (a bit flip, or stale bytes from an earlier use
//!   of the sector), caught by the payload checksum;
//! - one bit of the header sector, caught by the header checksum;
//! - a valid record of the previous epoch written where the youngest
//!   record was, ignored for its epoch.
//!
//! The damaged record stands for the one in flight at a power cut: its
//! sectors did not all reach the medium as written. Its write was never
//! acknowledged, so the acknowledged prefix is every write before it.

use std::cell::Cell;
use std::rc::Rc;

use proptest::prelude::*;
use trail_blockio::{SharedBlockDevice, StandardDriver};
use trail_core::format::{build_record, LogDiskHeader, PayloadRun, RecordHeader};
use trail_core::{
    format_log_disk, read_header, recover, FormatOptions, RecoveryOptions, RecoveryReport,
    TrailConfig, TrailDriver,
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

/// The current-epoch record with the highest sequence id and the LBA of
/// its header, found by scanning every sector of the log disk.
fn youngest_record(log: &Disk, epoch: u64) -> (u64, RecordHeader) {
    (0..log.geometry().total_sectors())
        .filter_map(|lba| {
            let h = RecordHeader::decode(&log.peek_sector(lba)).ok().flatten()?;
            Some((lba, h))
        })
        .filter(|(_, h)| h.epoch == epoch)
        .max_by_key(|(_, h)| h.sequence_id)
        .expect("the log holds records")
}

/// Recovers `data` from the damaged `log` through a plain driver.
fn recover_onto(
    sim: &mut Simulator,
    log: &Disk,
    data: &Disk,
    header: &LogDiskHeader,
) -> RecoveryReport {
    let targets = [Rc::new(StandardDriver::new(data.clone())) as SharedBlockDevice];
    recover(sim, log, &targets, header, RecoveryOptions::default())
        .expect("recovery over a damaged log returns the acknowledged prefix")
}

/// Checks the data disk holds exactly the writes before the last one:
/// each of them reads back, and no other sector of the disk was written.
fn holds_exactly_the_prefix(data: &Disk, sizes: &[usize]) -> Result<(), TestCaseError> {
    let last = sizes.len() - 1;
    for (i, &n) in sizes[..last].iter().enumerate() {
        for s in 0..n {
            let got = data.peek_sector(write_lba(i) + s as u64);
            prop_assert!(got == write_sector(i, s), "write {} sector {}", i, s);
        }
    }
    let written = (0..data.geometry().total_sectors())
        .filter(|&lba| data.peek_sector(lba) != [0u8; SECTOR_SIZE])
        .count();
    prop_assert_eq!(written, sizes[..last].iter().sum::<usize>());
    Ok(())
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
        let (_, youngest) = youngest_record(&log, header.epoch);
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

        let report = recover_onto(&mut sim, &log, &data, &header);
        prop_assert_eq!(report.torn_records_dropped, 1);
        holds_exactly_the_prefix(&data, &sizes)?;
    }

    #[test]
    fn bit_flipped_youngest_header_is_ignored(
        sizes in proptest::collection::vec(1usize..=4, 1..=5),
        bit in 0..SECTOR_SIZE * 8,
    ) {
        let (log, data) = log_writes_then_cut(&sizes);
        let mut sim = Simulator::new();
        let header = read_header(&mut sim, &log).unwrap();
        let (lba, _) = youngest_record(&log, header.epoch);
        let mut sector = log.peek_sector(lba);
        sector[bit / 8] ^= 1 << (bit % 8);
        log.poke_sector(lba, &sector);

        let report = recover_onto(&mut sim, &log, &data, &header);
        prop_assert!(report.records_found < sizes.len());
        holds_exactly_the_prefix(&data, &sizes)?;
    }

    #[test]
    fn prior_epoch_record_in_the_youngest_slot_is_ignored(
        sizes in proptest::collection::vec(1usize..=4, 1..=5),
        fill in 1u8..=255,
    ) {
        let (log, data) = log_writes_then_cut(&sizes);
        let mut sim = Simulator::new();
        let header = read_header(&mut sim, &log).unwrap();
        let (lba, youngest) = youngest_record(&log, header.epoch);
        // A complete, self-consistent record of the previous mount, in
        // exactly the youngest record's sectors, that would overwrite the
        // youngest write's blocks if it were replayed.
        let bytes = vec![fill; youngest.entries.len() * SECTOR_SIZE];
        let record = build_record(
            header.epoch - 1,
            youngest.sequence_id + 1,
            youngest.prev_sect,
            youngest.log_head_lba,
            youngest.log_head_seq,
            lba as u32,
            [PayloadRun {
                data_major: 0,
                data_minor: 0,
                data_lba: write_lba(sizes.len() - 1) as u32,
                data: &bytes,
            }],
        )
        .unwrap();
        for (i, chunk) in record.chunks_exact(SECTOR_SIZE).enumerate() {
            log.poke_sector(lba + i as u64, chunk.try_into().unwrap());
        }

        let report = recover_onto(&mut sim, &log, &data, &header);
        prop_assert_eq!(report.torn_records_dropped, 0);
        holds_exactly_the_prefix(&data, &sizes)?;
    }
}

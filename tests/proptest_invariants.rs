//! Property-based tests over the core data structures and the end-to-end
//! durability invariant.

use proptest::prelude::*;

use trail::core::format::{
    build_record, payload_checksum, restore_payload, PayloadRun, RecordHeader,
};
use trail::core::{HeadPredictor, TrackPool};
use trail::db::Page;
use trail::disk::{DiskGeometry, SectorBuf, Zone, SECTOR_SIZE};
use trail::sim::{SimDuration, SimTime};

fn arb_geometry() -> impl Strategy<Value = DiskGeometry> {
    (
        1u32..8,
        proptest::collection::vec((1u32..40, 4u32..120), 1..4),
        0u32..16,
        0u32..16,
    )
        .prop_map(|(heads, zones, track_skew, cyl_skew)| {
            DiskGeometry::new(
                heads,
                zones
                    .into_iter()
                    .map(|(cylinders, spt)| Zone { cylinders, spt })
                    .collect(),
                track_skew,
                cyl_skew,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// LBA -> CHS -> LBA is the identity everywhere on the disk.
    #[test]
    fn geometry_round_trips(geometry in arb_geometry(), frac in 0.0f64..1.0) {
        let lba = ((geometry.total_sectors() - 1) as f64 * frac) as u64;
        let chs = geometry.lba_to_chs(lba).expect("in range");
        prop_assert_eq!(geometry.chs_to_lba(chs), Some(lba));
        // Track accessors agree with the address mapping.
        let track = geometry.track_index(chs);
        prop_assert!(geometry.track_first_lba(track) <= lba);
        prop_assert!(
            lba < geometry.track_first_lba(track) + u64::from(geometry.spt_of_track(track))
        );
    }

    /// Sector angles are a bijection per track (skew is a rotation).
    #[test]
    fn sector_angles_are_distinct(geometry in arb_geometry(), tfrac in 0.0f64..1.0) {
        let track = ((geometry.total_tracks() - 1) as f64 * tfrac) as u64;
        let spt = geometry.spt_of_track(track);
        let mut seen = std::collections::HashSet::new();
        for s in 0..spt {
            let a = geometry.sector_angle(track, s);
            prop_assert!((0.0..1.0).contains(&a));
            // Quantized to a sector index, each angle is unique.
            prop_assert!(seen.insert((a * f64::from(spt)).round() as u32 % spt));
        }
    }

    /// Write records survive encode -> raw sectors -> decode -> restore.
    #[test]
    fn record_format_round_trips(
        payload_bytes in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), SECTOR_SIZE),
            1..=32
        ),
        epoch in any::<u64>(),
        seq in any::<u64>(),
        header_lba in 0u32..1_000_000,
    ) {
        let payload = payload_bytes.iter().enumerate().map(|(i, bytes)| PayloadRun {
            data_major: (i % 3) as u8,
            data_minor: 0,
            data_lba: i as u32 * 8,
            data: bytes,
        });
        let raw = build_record(epoch, seq, Some(7), 3, 1, header_lba, payload).expect("builds");
        prop_assert_eq!(raw.len(), (payload_bytes.len() + 1) * SECTOR_SIZE);
        let hsec: SectorBuf = raw[..SECTOR_SIZE].try_into().expect("sector");
        let parsed = RecordHeader::decode(&hsec).expect("valid").expect("is header");
        prop_assert_eq!(parsed.encode().expect("encodes"), hsec);
        prop_assert_eq!(
            (parsed.epoch, parsed.sequence_id, parsed.prev_sect),
            (epoch, seq, Some(7))
        );
        prop_assert_eq!((parsed.log_head_lba, parsed.log_head_seq), (3, 1));
        prop_assert_eq!(parsed.entries.len(), payload_bytes.len());
        for (i, entry) in parsed.entries.iter().enumerate() {
            prop_assert_eq!(entry.data_major, (i % 3) as u8);
            prop_assert_eq!(entry.data_lba, i as u32 * 8);
            prop_assert_eq!(entry.log_lba, header_lba + 1 + i as u32);
            let mut sector: SectorBuf = raw
                [(i + 1) * SECTOR_SIZE..(i + 2) * SECTOR_SIZE]
                .try_into()
                .expect("sector");
            prop_assert_eq!(sector[0], 0);
            restore_payload(entry, &mut sector);
            prop_assert_eq!(&sector[..], &payload_bytes[i][..]);
        }
        // The checksum covers the on-disk payload: flipping any byte in it
        // must be detected.
        prop_assert_eq!(parsed.payload_checksum, payload_checksum(&raw[SECTOR_SIZE..]));
        let flip = (epoch as usize % (payload_bytes.len() * SECTOR_SIZE)) + SECTOR_SIZE;
        let mut torn = raw.clone();
        torn[flip] ^= 0xFF;
        prop_assert_ne!(payload_checksum(&torn[SECTOR_SIZE..]), parsed.payload_checksum);
    }

    /// The predictor's same-track output is always a sector on the
    /// reference's track, regardless of elapsed time.
    #[test]
    fn predictor_stays_on_track(
        ref_lba in 0u64..3_000_000,
        elapsed_ns in 0u64..1_000_000_000,
        delta in 0u32..32,
    ) {
        let p = trail::disk::profiles::seagate_st41601n();
        let total = p.geometry.total_sectors();
        let ref_lba = ref_lba % total;
        let mut predictor =
            HeadPredictor::new(p.geometry.clone(), p.mech.rotation_period, delta);
        predictor.set_reference(SimTime::ZERO, ref_lba);
        let t1 = SimTime::ZERO + SimDuration::from_nanos(elapsed_ns);
        let predicted = predictor.predict_same_track(t1).expect("has reference");
        prop_assert_eq!(
            p.geometry.track_of_lba(predicted),
            p.geometry.track_of_lba(ref_lba)
        );
    }

    /// TrackPool against a reference model: FIFO reclamation, exact free
    /// counts, no lost tracks.
    #[test]
    fn track_pool_matches_model(ops in proptest::collection::vec(0u8..3, 1..200)) {
        let first = 2u64;
        let last = 17u64;
        let mut pool = TrackPool::new(first, last);
        // Model: queue of (track, outstanding) in allocation order.
        let mut model: std::collections::VecDeque<(u64, u32)> = Default::default();
        for op in ops {
            match op {
                0 => {
                    let expected_full = model.len() as u64 > last - first;
                    match pool.allocate_next() {
                        Some(t) => {
                            prop_assert!(!expected_full);
                            model.push_back((t, 0));
                        }
                        None => prop_assert!(expected_full),
                    }
                }
                1 => {
                    if let Some(entry) = model.back_mut() {
                        pool.add_record(entry.0);
                        entry.1 += 1;
                    }
                }
                _ => {
                    // Commit a record on the oldest track that has one.
                    if let Some(pos) = model.iter().position(|&(_, n)| n > 0) {
                        let track = model[pos].0;
                        pool.commit_record(track);
                        model[pos].1 -= 1;
                        // FIFO reclaim in the model (keep the newest track).
                        while model.len() > 1 && model.front().is_some_and(|&(_, n)| n == 0) {
                            model.pop_front();
                        }
                    }
                }
            }
            prop_assert_eq!(pool.active_tracks(), model.len() as u64);
        }
    }

    /// Slotted pages against a HashMap model.
    #[test]
    fn page_matches_model(
        ops in proptest::collection::vec((0u8..3, 1usize..200), 1..60)
    ) {
        let mut page = Page::new();
        let mut model: std::collections::HashMap<u16, Vec<u8>> = Default::default();
        let mut slots: Vec<u16> = Vec::new();
        for (i, (op, len)) in ops.into_iter().enumerate() {
            let value = vec![(i % 251) as u8; len];
            match op {
                0 => {
                    if let Some(slot) = page.insert(&value) {
                        model.insert(slot, value);
                        slots.push(slot);
                    }
                }
                1 => {
                    if let Some(&slot) = slots.get(i % slots.len().max(1)) {
                        let updated = page.update(slot, &value);
                        if updated {
                            model.insert(slot, value);
                        }
                    }
                }
                _ => {
                    if let Some(&slot) = slots.get(i % slots.len().max(1)) {
                        if page.delete(slot) {
                            model.remove(&slot);
                        }
                    }
                }
            }
            for (&slot, expect) in &model {
                prop_assert_eq!(page.get(slot), Some(&expect[..]));
            }
        }
        prop_assert_eq!(page.live_records(), model.len());
    }
}

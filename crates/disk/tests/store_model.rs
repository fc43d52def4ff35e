//! Model-based test of the recording medium: random sequences of
//! single-sector and ranged reads and writes against a
//! `BTreeMap<Lba, SectorBuf>` reference, including overwrites, reads of
//! never-written sectors and requests past the capacity.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use trail_disk::{Lba, SectorBuf, SectorStore, SECTOR_SIZE};

/// Small enough that random LBAs collide (overwrites), large enough that
/// a case fills many slabs.
const CAPACITY: u64 = 160;

#[derive(Clone, Debug)]
enum Op {
    WriteSector { lba: Lba, fill: u8 },
    WriteRange { lba: Lba, count: u32, fill: u8 },
    ReadSector { lba: Lba },
    ReadInto { lba: Lba, count: u32 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    // LBAs run a little past the end so some requests must panic.
    let lba = 0..CAPACITY + 6;
    prop_oneof![
        (lba.clone(), any::<u8>()).prop_map(|(lba, fill)| Op::WriteSector { lba, fill }),
        (lba.clone(), 1u32..=20, any::<u8>()).prop_map(|(lba, count, fill)| Op::WriteRange {
            lba,
            count,
            fill
        }),
        lba.clone().prop_map(|lba| Op::ReadSector { lba }),
        (lba, 1u32..=20).prop_map(|(lba, count)| Op::ReadInto { lba, count }),
    ]
}

/// Distinct contents per (fill, lba), so a sector landing in the wrong
/// slot cannot go unnoticed.
fn sector(fill: u8, lba: Lba) -> SectorBuf {
    let mut s = [fill; SECTOR_SIZE];
    s[1..9].copy_from_slice(&lba.to_le_bytes());
    s
}

fn in_range(lba: Lba, count: u32) -> bool {
    lba + u64::from(count) <= CAPACITY
}

fn model_read(model: &BTreeMap<Lba, SectorBuf>, lba: Lba) -> SectorBuf {
    model.get(&lba).copied().unwrap_or([0u8; SECTOR_SIZE])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn store_matches_model(ops in proptest::collection::vec(arb_op(), 1..200)) {
        let mut store = SectorStore::new(CAPACITY);
        let mut model: BTreeMap<Lba, SectorBuf> = BTreeMap::new();
        for op in &ops {
            match *op {
                Op::WriteSector { lba, fill } => {
                    let data = sector(fill, lba);
                    let r = catch_unwind(AssertUnwindSafe(|| store.write_sector(lba, &data)));
                    prop_assert!(r.is_ok() == in_range(lba, 1), "{:?}", op);
                    if r.is_ok() {
                        model.insert(lba, data);
                    }
                }
                Op::WriteRange { lba, count, fill } => {
                    let data: Vec<u8> = (0..u64::from(count))
                        .flat_map(|i| sector(fill, lba + i))
                        .collect();
                    let r = catch_unwind(AssertUnwindSafe(|| store.write_range(lba, &data)));
                    prop_assert!(r.is_ok() == in_range(lba, count), "{:?}", op);
                    if r.is_ok() {
                        for i in 0..u64::from(count) {
                            model.insert(lba + i, sector(fill, lba + i));
                        }
                    }
                }
                Op::ReadSector { lba } => {
                    let r = catch_unwind(AssertUnwindSafe(|| store.read_sector(lba)));
                    prop_assert!(r.is_ok() == in_range(lba, 1), "{:?}", op);
                    if let Ok(got) = r {
                        prop_assert!(got == model_read(&model, lba), "{:?}", op);
                    }
                }
                Op::ReadInto { lba, count } => {
                    // Stale bytes in the destination must be overwritten,
                    // zeros included.
                    let mut out = vec![0xEE; count as usize * SECTOR_SIZE];
                    let r = catch_unwind(AssertUnwindSafe(|| store.read_into(lba, &mut out)));
                    prop_assert!(r.is_ok() == in_range(lba, count), "{:?}", op);
                    if r.is_ok() {
                        for (i, got) in out.chunks_exact(SECTOR_SIZE).enumerate() {
                            let want = model_read(&model, lba + i as u64);
                            prop_assert!(got == &want[..], "{:?} sector {}", op, i);
                        }
                    }
                }
            }
            // A rejected request leaves the medium untouched.
            prop_assert!(store.written_sectors() == model.len(), "after {:?}", op);
        }
        let image = store.read_range(0, CAPACITY as u32);
        for (lba, got) in image.chunks_exact(SECTOR_SIZE).enumerate() {
            prop_assert!(got == &model_read(&model, lba as u64)[..], "final lba {}", lba);
        }
    }
}

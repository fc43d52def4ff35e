//! Model-based test of the recording medium: random sequences of
//! single-sector and ranged reads and writes against a
//! `BTreeMap<Lba, SectorBuf>` reference, including overwrites, reads of
//! never-written sectors and requests past the capacity.
//!
//! Written sectors mix byte images with the shapes the store holds as
//! pattern entries (constant and displaced-first-byte sectors) and with
//! near-misses one byte away from a pattern, and ranges cross the
//! store's 16-sector group boundaries. A `Cycle` op overwrites one range
//! byte image → pattern → byte image.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use trail_disk::{Lba, SectorBuf, SectorStore, SECTOR_SIZE};

/// Small enough that random LBAs collide (overwrites), large enough that
/// a case fills many slabs and index rows.
const CAPACITY: u64 = 160;

/// The shape of a written sector's bytes.
#[derive(Clone, Copy, Debug)]
enum Content {
    /// Distinct per (fill, lba): never a pattern.
    Image,
    /// All 512 bytes equal `fill`.
    Constant,
    /// Bytes 1..512 equal `fill`, byte 0 is `first` (Trail's log copy
    /// of a constant sector).
    Displaced { first: u8 },
    /// Constant except one byte at `at`, which differs.
    NearMiss { at: usize },
    /// Each sector picks one of the shapes above by its LBA.
    Mixed,
}

#[derive(Clone, Debug)]
enum Op {
    WriteSector {
        lba: Lba,
        fill: u8,
        content: Content,
    },
    WriteRange {
        lba: Lba,
        count: u32,
        fill: u8,
        content: Content,
    },
    /// Writes the range as byte images, then constants, then byte images
    /// with a different fill.
    Cycle {
        lba: Lba,
        count: u32,
        fill: u8,
    },
    ReadSector {
        lba: Lba,
    },
    ReadInto {
        lba: Lba,
        count: u32,
    },
}

/// Store rows hold 16 sectors.
const GROUP: u64 = 16;

fn arb_content() -> impl Strategy<Value = Content> {
    prop_oneof![
        Just(Content::Image),
        Just(Content::Constant),
        any::<u8>().prop_map(|first| Content::Displaced { first }),
        (0usize..4).prop_map(|i| Content::NearMiss {
            at: [1, 7, 8, 511][i]
        }),
        Just(Content::Mixed),
    ]
}

/// A run that starts up to 8 sectors before a group boundary and ends
/// past it, up to two groups on.
fn arb_crossing() -> impl Strategy<Value = (Lba, u32)> {
    (1..=CAPACITY / GROUP, 1u64..=8).prop_flat_map(|(group, back)| {
        let lba = group * GROUP - back;
        (
            Just(lba),
            (back as u32 + 1)..=(back as u32 + 2 * GROUP as u32),
        )
    })
}

fn arb_op() -> impl Strategy<Value = Op> {
    // LBAs run a little past the end so some requests must panic.
    let lba = 0..CAPACITY + 6;
    prop_oneof![
        (lba.clone(), any::<u8>(), arb_content())
            .prop_map(|(lba, fill, content)| Op::WriteSector { lba, fill, content }),
        (lba.clone(), 1u32..=20, any::<u8>(), arb_content()).prop_map(
            |(lba, count, fill, content)| Op::WriteRange {
                lba,
                count,
                fill,
                content
            }
        ),
        (arb_crossing(), any::<u8>(), arb_content()).prop_map(|((lba, count), fill, content)| {
            Op::WriteRange {
                lba,
                count,
                fill,
                content,
            }
        }),
        (arb_crossing(), any::<u8>()).prop_map(|((lba, count), fill)| Op::Cycle {
            lba,
            count,
            fill
        }),
        lba.clone().prop_map(|lba| Op::ReadSector { lba }),
        (lba, 1u32..=20).prop_map(|(lba, count)| Op::ReadInto { lba, count }),
        arb_crossing().prop_map(|(lba, count)| Op::ReadInto { lba, count }),
    ]
}

fn sector(content: Content, fill: u8, lba: Lba) -> SectorBuf {
    let mut s = [fill; SECTOR_SIZE];
    match content {
        // Distinct contents per (fill, lba), so a sector landing in the
        // wrong slot cannot go unnoticed.
        Content::Image => s[1..9].copy_from_slice(&lba.to_le_bytes()),
        Content::Constant => {}
        Content::Displaced { first } => s[0] = first,
        Content::NearMiss { at } => s[at] = fill ^ (lba as u8 | 1),
        Content::Mixed => {
            let shape = match lba % 4 {
                0 => Content::Image,
                1 => Content::Constant,
                2 => Content::Displaced { first: lba as u8 },
                _ => Content::NearMiss { at: 8 },
            };
            return sector(shape, fill, lba);
        }
    }
    s
}

fn range(content: Content, fill: u8, lba: Lba, count: u32) -> Vec<u8> {
    (0..u64::from(count))
        .flat_map(|i| sector(content, fill, lba + i))
        .collect()
}

fn in_range(lba: Lba, count: u32) -> bool {
    lba + u64::from(count) <= CAPACITY
}

/// Applies a ranged write to the store and, if the store accepts it, to
/// the model; returns whether it was accepted.
fn write_range(
    store: &mut SectorStore,
    model: &mut BTreeMap<Lba, SectorBuf>,
    lba: Lba,
    data: &[u8],
) -> bool {
    let ok = catch_unwind(AssertUnwindSafe(|| store.write_range(lba, data))).is_ok();
    if ok {
        for (i, chunk) in data.chunks_exact(SECTOR_SIZE).enumerate() {
            model.insert(lba + i as u64, chunk.try_into().expect("one sector"));
        }
    }
    ok
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
                Op::WriteSector { lba, fill, content } => {
                    let data = sector(content, fill, lba);
                    let r = catch_unwind(AssertUnwindSafe(|| store.write_sector(lba, &data)));
                    prop_assert!(r.is_ok() == in_range(lba, 1), "{:?}", op);
                    if r.is_ok() {
                        model.insert(lba, data);
                    }
                }
                Op::WriteRange { lba, count, fill, content } => {
                    let data = range(content, fill, lba, count);
                    let r = write_range(&mut store, &mut model, lba, &data);
                    prop_assert!(r == in_range(lba, count), "{:?}", op);
                }
                Op::Cycle { lba, count, fill } => {
                    let steps = [
                        (Content::Image, fill),
                        (Content::Constant, fill),
                        (Content::Image, fill ^ 0x80),
                    ];
                    for (content, fill) in steps {
                        let data = range(content, fill, lba, count);
                        let r = write_range(&mut store, &mut model, lba, &data);
                        prop_assert!(r == in_range(lba, count), "{:?}", op);
                        for i in 0..u64::from(count).min(CAPACITY.saturating_sub(lba)) {
                            prop_assert!(
                                store.read_sector(lba + i) == model_read(&model, lba + i),
                                "{:?} {:?} sector {}", op, content, i
                            );
                        }
                        prop_assert!(
                            store.written_sectors() == model.len(),
                            "{:?} {:?}", op, content
                        );
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

//! The recording medium: a sparse, sector-atomic byte store.
//!
//! Sectors are the atomic persistence unit: a power failure either persists
//! a sector completely or not at all (torn *multi*-sector writes are the
//! interesting failure mode; torn intra-sector writes are prevented by drive
//! ECC on the hardware the paper targets).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::geometry::{Lba, SECTOR_SIZE};

/// One sector's payload.
pub type SectorBuf = [u8; SECTOR_SIZE];

/// Sectors per index row and per slab. A slab is 8 KB, small enough that
/// slabs come from the allocator's ordinary free lists (large blocks grow
/// its arenas) and a sparsely written disk wastes little.
const GROUP: usize = 16;

/// Row entry of a never-written sector.
const UNWRITTEN: u32 = 0;

/// Tag bit of a pattern entry. Below it, bits 8..16 hold the sector's
/// first byte and bits 0..8 the byte that fills the other 511. Entries
/// without the tag hold a slab slot plus one.
const PATTERN: u32 = 1 << 31;

/// One index row: the entries of the 16 sectors of one group.
type Row = [u32; GROUP];

/// A sparse map from LBA to sector contents. Unwritten sectors read as
/// zeros, matching a freshly formatted drive.
///
/// The index maps each 16-sector group (`lba / 16`) to a row of
/// per-sector entries, so a run read or write pays one hash lookup per
/// group. An entry says one of three things:
///
/// - the sector was never written;
/// - the sector is a *pattern*: bytes 1..512 all equal one byte. The
///   entry holds that byte and byte 0, and the sector takes no other
///   memory. Zero sectors, constant fills and their RAID-5 parity are
///   patterns, and so are Trail's log copies of them, whose first byte
///   is displaced;
/// - the sector's bytes are in slab slot `n`. Slabs hold 16 sectors and
///   are allocated as slots run out; a slot freed by a pattern overwrite
///   goes on a free list and is the next one handed out.
///
/// # Examples
///
/// ```
/// use trail_disk::{SectorStore, SECTOR_SIZE};
///
/// let mut s = SectorStore::new(100);
/// assert_eq!(s.read_sector(5), [0u8; SECTOR_SIZE]);
/// s.write_sector(5, &[7u8; SECTOR_SIZE]);
/// assert_eq!(s.read_sector(5)[0], 7);
/// // Constant sectors live in their index entries: sector 6 shares
/// // sector 5's row and takes no slab.
/// let rows_only = s.resident_bytes();
/// s.write_sector(6, &[9u8; SECTOR_SIZE]);
/// assert_eq!(s.resident_bytes(), rows_only);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SectorStore {
    index: HashMap<u64, Row, BuildHasherDefault<GroupHasher>>,
    slabs: Slabs,
    written: usize,
    capacity: u64,
}

/// Byte-image sector storage: fixed 16-sector slabs plus a free list of
/// slots released by pattern overwrites.
#[derive(Clone, Debug, Default)]
struct Slabs {
    slabs: Vec<Box<[SectorBuf]>>,
    free: Vec<u32>,
    /// Slots handed out from the slabs so far, freed ones included.
    used: u32,
}

impl Slabs {
    fn alloc(&mut self) -> u32 {
        if let Some(slot) = self.free.pop() {
            return slot;
        }
        let slot = self.used;
        assert!(
            slot + 1 < PATTERN,
            "sector store holds at most 2^31 - 1 byte-image sectors"
        );
        if (slot as usize).is_multiple_of(GROUP) {
            self.slabs
                .push(vec![[0u8; SECTOR_SIZE]; GROUP].into_boxed_slice());
        }
        self.used += 1;
        slot
    }

    fn sector(&self, slot: u32) -> &SectorBuf {
        &self.slabs[slot as usize / GROUP][slot as usize % GROUP]
    }

    fn sector_mut(&mut self, slot: u32) -> &mut SectorBuf {
        &mut self.slabs[slot as usize / GROUP][slot as usize % GROUP]
    }
}

/// Hashes a group number with one multiply (Fibonacci hashing), folding
/// the high product bits down so strided groups still spread over the
/// table. LBAs can come from imported traces, but crafted collisions
/// could only slow that trace's own replay, never change its results, so
/// the default keyed hasher's flooding protection is not worth its cost
/// here.
#[derive(Default)]
struct GroupHasher(u64);

impl Hasher for GroupHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("the sector index only hashes u64 group numbers")
    }

    fn write_u64(&mut self, group: u64) {
        let h = group.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

/// The pattern entry for `data` if bytes 1..512 all equal one byte.
/// Compares eight bytes at a time and stops at the first 56-byte block
/// that differs, so byte-image sectors are rejected early.
fn pattern_entry(data: &SectorBuf) -> Option<u32> {
    let fill = data[1];
    let splat = u64::from_le_bytes([fill; 8]);
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8-byte word")) ^ splat;
    let (head, tail) = data.split_at(8);
    // Little-endian, so shifting out the low byte ignores byte 0.
    if word(head) >> 8 != 0 {
        return None;
    }
    for block in tail.chunks_exact(56) {
        if block.chunks_exact(8).fold(0, |acc, w| acc | word(w)) != 0 {
            return None;
        }
    }
    Some(PATTERN | u32::from(data[0]) << 8 | u32::from(fill))
}

/// Stores `data` under `entry`; returns whether the sector was unwritten.
fn write_entry(entry: &mut u32, data: &SectorBuf, slabs: &mut Slabs) -> bool {
    let old = *entry;
    let had_slot = old != UNWRITTEN && old & PATTERN == 0;
    if let Some(pattern) = pattern_entry(data) {
        if had_slot {
            slabs.free.push(old - 1);
        }
        *entry = pattern;
    } else {
        let slot = if had_slot { old - 1 } else { slabs.alloc() };
        *slabs.sector_mut(slot) = *data;
        *entry = slot + 1;
    }
    old == UNWRITTEN
}

/// Writes the contents `entry` stands for into `out` (one sector).
fn read_entry(entry: u32, slabs: &Slabs, out: &mut [u8]) {
    if entry == UNWRITTEN {
        out.fill(0);
    } else if entry & PATTERN != 0 {
        out.fill(entry as u8);
        out[0] = (entry >> 8) as u8;
    } else {
        out.copy_from_slice(slabs.sector(entry - 1));
    }
}

/// Splits the run of `count` sectors at `lba` at group boundaries:
/// yields each group, the first row index in it, and the run's sector
/// count there.
fn groups(lba: Lba, count: u64) -> impl Iterator<Item = (u64, usize, usize)> {
    let end = lba + count;
    let mut at = lba;
    std::iter::from_fn(move || {
        (at < end).then(|| {
            let first = (at % GROUP as u64) as usize;
            let n = (GROUP - first).min((end - at) as usize);
            let group = at / GROUP as u64;
            at += n as u64;
            (group, first, n)
        })
    })
}

impl SectorStore {
    /// Creates an all-zero store of `capacity` sectors.
    pub fn new(capacity: u64) -> Self {
        SectorStore {
            capacity,
            ..SectorStore::default()
        }
    }

    /// The store's capacity in sectors.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The number of sectors that have ever been written.
    pub fn written_sectors(&self) -> usize {
        self.written
    }

    /// Bytes held for sector contents: the slabs plus the index's row
    /// table at its current capacity. Grows with the byte-image sectors
    /// written and the groups touched, not with the pattern sectors.
    pub fn resident_bytes(&self) -> usize {
        self.slabs.slabs.len() * GROUP * SECTOR_SIZE
            + self.index.capacity() * std::mem::size_of::<(u64, Row)>()
    }

    /// Reads one sector (zeros if never written).
    ///
    /// # Panics
    ///
    /// Panics if `lba` is beyond the capacity.
    pub fn read_sector(&self, lba: Lba) -> SectorBuf {
        let mut out = [0u8; SECTOR_SIZE];
        self.read_into(lba, &mut out);
        out
    }

    /// Overwrites one sector.
    ///
    /// # Panics
    ///
    /// Panics if `lba` is beyond the capacity.
    pub fn write_sector(&mut self, lba: Lba, data: &SectorBuf) {
        self.write_range(lba, data);
    }

    /// Reads consecutive sectors directly into `out` (one whole number of
    /// sectors), without intermediate per-sector copies. Unwritten sectors
    /// read as zeros.
    ///
    /// This is the borrowed-read primitive the data path is built on:
    /// callers that already own a destination buffer (device DMA targets,
    /// file-system block caches) fill it in place instead of paying
    /// [`read_range`](Self::read_range)'s allocation.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not a whole number of sectors or the range
    /// exceeds the capacity.
    pub fn read_into(&self, lba: Lba, out: &mut [u8]) {
        assert!(
            out.len().is_multiple_of(SECTOR_SIZE),
            "buffer must be sector-aligned, got {} bytes",
            out.len()
        );
        let count = (out.len() / SECTOR_SIZE) as u64;
        assert!(
            lba + count <= self.capacity,
            "read beyond capacity: lba {lba} count {count}"
        );
        let mut rest = out;
        for (group, first, n) in groups(lba, count) {
            let (part, tail) = rest.split_at_mut(n * SECTOR_SIZE);
            rest = tail;
            match self.index.get(&group) {
                Some(row) => {
                    for (entry, chunk) in row[first..first + n]
                        .iter()
                        .zip(part.chunks_exact_mut(SECTOR_SIZE))
                    {
                        read_entry(*entry, &self.slabs, chunk);
                    }
                }
                None => part.fill(0),
            }
        }
    }

    /// Reads `count` consecutive sectors into one contiguous buffer.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the capacity.
    pub fn read_range(&self, lba: Lba, count: u32) -> Vec<u8> {
        let mut out = vec![0u8; count as usize * SECTOR_SIZE];
        self.read_into(lba, &mut out);
        out
    }

    /// Writes a contiguous buffer as consecutive sectors.
    ///
    /// # Panics
    ///
    /// Panics, before writing anything, if `data` is not a whole number of
    /// sectors or the range exceeds the capacity.
    pub fn write_range(&mut self, lba: Lba, data: &[u8]) {
        assert!(
            data.len().is_multiple_of(SECTOR_SIZE),
            "data must be sector-aligned, got {} bytes",
            data.len()
        );
        let count = (data.len() / SECTOR_SIZE) as u64;
        assert!(
            lba + count <= self.capacity,
            "write beyond capacity: lba {lba} count {count}"
        );
        let mut sectors = data.chunks_exact(SECTOR_SIZE);
        for (group, first, n) in groups(lba, count) {
            let row = self.index.entry(group).or_insert([UNWRITTEN; GROUP]);
            for (entry, chunk) in row[first..first + n].iter_mut().zip(&mut sectors) {
                let buf: &SectorBuf = chunk.try_into().expect("chunk is exactly one sector");
                self.written += usize::from(write_entry(entry, buf, &mut self.slabs));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_sectors_read_zero() {
        let s = SectorStore::new(10);
        assert_eq!(s.read_sector(9), [0u8; SECTOR_SIZE]);
        assert_eq!(s.written_sectors(), 0);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut s = SectorStore::new(10);
        let mut buf = [0u8; SECTOR_SIZE];
        buf[0] = 0xAB;
        buf[511] = 0xCD;
        s.write_sector(3, &buf);
        assert_eq!(s.read_sector(3), buf);
        assert_eq!(s.written_sectors(), 1);
        // Overwrite in place.
        buf[0] = 0xEF;
        s.write_sector(3, &buf);
        assert_eq!(s.read_sector(3)[0], 0xEF);
        assert_eq!(s.written_sectors(), 1);
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn read_past_capacity_panics() {
        SectorStore::new(10).read_sector(10);
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn write_past_capacity_panics() {
        SectorStore::new(10).write_sector(10, &[0u8; SECTOR_SIZE]);
    }

    #[test]
    fn range_io_round_trips() {
        let mut s = SectorStore::new(10);
        let data: Vec<u8> = (0..3 * SECTOR_SIZE).map(|i| (i % 251) as u8).collect();
        s.write_range(2, &data);
        assert_eq!(s.read_range(2, 3), data);
        // Partially overlapping read sees zeros before the write.
        let r = s.read_range(1, 2);
        assert_eq!(&r[..SECTOR_SIZE], &[0u8; SECTOR_SIZE]);
        assert_eq!(&r[SECTOR_SIZE..], &data[..SECTOR_SIZE]);
    }

    #[test]
    #[should_panic(expected = "sector-aligned")]
    fn unaligned_range_write_panics() {
        SectorStore::new(10).write_range(0, &[1, 2, 3]);
    }

    fn constant(fill: u8) -> SectorBuf {
        [fill; SECTOR_SIZE]
    }

    fn displaced(first: u8, fill: u8) -> SectorBuf {
        let mut s = constant(fill);
        s[0] = first;
        s
    }

    fn image(seed: u8) -> SectorBuf {
        let mut s = constant(seed);
        s[300] = seed ^ 0x5A;
        s
    }

    #[test]
    fn pattern_check_ignores_byte_zero_only() {
        assert!(pattern_entry(&constant(0)).is_some());
        assert!(pattern_entry(&constant(0xFF)).is_some());
        assert!(pattern_entry(&displaced(0x00, 0xA5)).is_some());
        for at in 1..SECTOR_SIZE {
            let mut s = constant(0x3C);
            s[at] ^= 1;
            assert_eq!(pattern_entry(&s), None, "differing byte at {at}");
        }
    }

    #[test]
    fn pattern_sectors_allocate_no_slab() {
        let n = 1000;
        let mut s = SectorStore::new(n);
        for lba in 0..n {
            let data = match lba % 3 {
                0 => constant(0),
                1 => constant(lba as u8),
                _ => displaced(0, lba as u8),
            };
            s.write_sector(lba, &data);
        }
        s.write_range(0, &[0x77; 40 * SECTOR_SIZE]);
        assert!(s.slabs.slabs.is_empty());
        assert_eq!(s.written_sectors(), n as usize);
        assert_eq!(
            s.resident_bytes(),
            s.index.capacity() * std::mem::size_of::<(u64, Row)>()
        );
        assert_eq!(s.read_sector(500), displaced(0, 500u64 as u8));
        assert_eq!(s.read_sector(39), constant(0x77));
    }

    #[test]
    fn pattern_churn_reuses_freed_slots() {
        let lbas = 0..64u64;
        let mut s = SectorStore::new(64);
        for lba in lbas.clone() {
            s.write_sector(lba, &image(lba as u8));
        }
        let resident = s.resident_bytes();
        assert_eq!(s.slabs.slabs.len(), 4);
        for round in 0..5u8 {
            for lba in lbas.clone() {
                s.write_sector(lba, &displaced(round, lba as u8));
            }
            assert_eq!(s.slabs.free.len(), 64);
            assert_eq!(s.written_sectors(), 64);
            assert_eq!(s.read_sector(9), displaced(round, 9));
            // Byte images come back in the opposite order, through ranges.
            let data: Vec<u8> = lbas
                .clone()
                .rev()
                .flat_map(|lba| image(lba as u8 ^ round))
                .collect();
            s.write_range(0, &data);
            assert!(s.slabs.free.is_empty());
            assert_eq!(s.resident_bytes(), resident);
            assert_eq!(s.written_sectors(), 64);
            assert_eq!(s.read_sector(0), image(63 ^ round));
        }
    }
}

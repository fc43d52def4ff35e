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

/// Sectors per slab: 8 KB, small enough that slabs come from the
/// allocator's ordinary free lists (large blocks grow its arenas) and a
/// sparsely written disk wastes little.
const SLAB_SECTORS: usize = 16;

/// A sparse map from LBA to sector contents. Unwritten sectors read as
/// zeros, matching a freshly formatted drive.
///
/// Sector bytes live in fixed-size slabs of 16 sectors (8 KB), filled in
/// first-write order; an `Lba → slot` index with a multiplicative hasher
/// locates them. Writing a new sector allocates nothing except, once per
/// slab, the slab itself.
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
/// ```
#[derive(Clone, Debug, Default)]
pub struct SectorStore {
    index: HashMap<Lba, u32, BuildHasherDefault<LbaHasher>>,
    slabs: Vec<Box<[SectorBuf]>>,
    capacity: u64,
}

/// Hashes an LBA with one multiply (Fibonacci hashing), folding the high
/// product bits down so strided LBAs still spread over the table. LBAs
/// can come from imported traces, but crafted collisions could only slow
/// that trace's own replay, never change its results, so the default
/// keyed hasher's flooding protection is not worth its cost here.
#[derive(Default)]
struct LbaHasher(u64);

impl Hasher for LbaHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("the sector index only hashes u64 LBAs")
    }

    fn write_u64(&mut self, lba: u64) {
        let h = lba.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
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
        self.index.len()
    }

    fn sector(&self, lba: Lba) -> Option<&SectorBuf> {
        let slot = *self.index.get(&lba)? as usize;
        Some(&self.slabs[slot / SLAB_SECTORS][slot % SLAB_SECTORS])
    }

    /// Reads one sector (zeros if never written).
    ///
    /// # Panics
    ///
    /// Panics if `lba` is beyond the capacity.
    pub fn read_sector(&self, lba: Lba) -> SectorBuf {
        assert!(lba < self.capacity, "read beyond capacity: lba {lba}");
        self.sector(lba).copied().unwrap_or([0u8; SECTOR_SIZE])
    }

    /// Overwrites one sector.
    ///
    /// # Panics
    ///
    /// Panics if `lba` is beyond the capacity.
    pub fn write_sector(&mut self, lba: Lba, data: &SectorBuf) {
        assert!(lba < self.capacity, "write beyond capacity: lba {lba}");
        let next = self.index.len();
        let slot = *self.index.entry(lba).or_insert_with(|| {
            u32::try_from(next).expect("sector store holds at most u32::MAX sectors")
        }) as usize;
        if slot == next && slot.is_multiple_of(SLAB_SECTORS) {
            self.slabs
                .push(vec![[0u8; SECTOR_SIZE]; SLAB_SECTORS].into_boxed_slice());
        }
        self.slabs[slot / SLAB_SECTORS][slot % SLAB_SECTORS] = *data;
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
        for (i, chunk) in out.chunks_exact_mut(SECTOR_SIZE).enumerate() {
            match self.sector(lba + i as u64) {
                Some(b) => chunk.copy_from_slice(b),
                None => chunk.fill(0),
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
        for (i, chunk) in data.chunks_exact(SECTOR_SIZE).enumerate() {
            let buf: &SectorBuf = chunk.try_into().expect("chunk is exactly one sector");
            self.write_sector(lba + i as u64, buf);
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
}

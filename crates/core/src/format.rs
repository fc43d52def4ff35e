//! The self-describing on-disk log organization (paper §3.2).
//!
//! Trail's log disk holds two sector formats, both recognizable from raw
//! bytes alone — recovery never consults in-memory state:
//!
//! - the **log disk header** (`log_disk_header`): written by the formatter
//!   at well-known locations, carrying the signature, the epoch counter,
//!   the crash flag, and the drive's probed geometry/calibration;
//! - **write records** (`record_header` + payload): one header sector whose
//!   first byte is `0xFF`, followed by `batch_size` payload sectors whose
//!   first bytes are forced to `0x00` (the displaced bytes ride in the
//!   header's `first_data_byte[]` array). This first-byte transposition is
//!   the paper's trick for distinguishing headers from arbitrary user data
//!   without bit stuffing.
//!
//! A record is *valid* only under the current epoch; formatting or driver
//! restart bumps the epoch, which retires every older record without
//! touching the medium.

use std::fmt;

use trail_disk::{DiskGeometry, SectorBuf, Zone, SECTOR_SIZE};
use trail_sim::SimDuration;

/// Length of the on-disk signature fields (the paper's `MAX_SIG_LEN`).
pub const MAX_SIG_LEN: usize = 8;

/// Signature identifying a formatted Trail log disk.
pub const DISK_SIGNATURE: [u8; MAX_SIG_LEN] = *b"TRAILFMT";

/// Signature identifying a write-record header sector.
pub const RECORD_SIGNATURE: [u8; MAX_SIG_LEN] = *b"TRAILREC";

/// Maximum payload sectors per write record (the paper's
/// `MAX_TRAIL_BATCH`). Sized so a record header fits one sector.
pub const MAX_TRAIL_BATCH: usize = 32;

/// First byte of every record-header sector (`first_byte_of_header`).
pub const HEADER_FIRST_BYTE: u8 = 0xFF;

/// First byte forced onto every payload sector.
pub const PAYLOAD_FIRST_BYTE: u8 = 0x00;

/// `prev_sect` encoding for "no previous record".
pub const NO_PREV_SECT: u32 = u32::MAX;

const HEADER_FIXED_LEN: usize = 49;
const ENTRY_LEN: usize = 11;

/// Where a record header sector keeps the checksum of its own bytes: the
/// last four bytes, past the largest entry array.
const HEADER_CHECKSUM_AT: usize = SECTOR_SIZE - 4;
const _: () = assert!(HEADER_FIXED_LEN + MAX_TRAIL_BATCH * ENTRY_LEN <= HEADER_CHECKSUM_AT);

/// The payload checksum: a 64-bit FNV-style multiply-xor hash taken one
/// little-endian 8-byte word at a time (a trailing partial word is
/// zero-padded), folded to 32 bits as `h ^ (h >> 32)`.
///
/// This field is an extension over the paper's format: the record header
/// is the *first* sector of the physical record write, so a power failure
/// mid-record can persist a valid header with torn payload. The checksum
/// lets recovery detect and drop such a torn youngest record (only the
/// in-flight record can be torn — the log disk serializes record writes).
/// The same checksum over the header sector's first 508 bytes, stored in
/// its last four, lets recovery reject a damaged header instead of
/// replaying the wrong blocks.
///
/// Each step `h = (h ^ word) * P` is a bijection of the state for a fixed
/// word, so payloads differing in exactly one word always reach different
/// 64-bit states. The fold keeps that guarantee for a difference confined
/// to the upper four bytes of the word (low state halves never see upper
/// input halves, and the multiplier is odd); any other difference gets
/// through with probability about 2^-32, like any 32-bit checksum.
pub fn payload_checksum(data: &[u8]) -> u32 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut words = data.chunks_exact(8);
    let mut h = OFFSET;
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().expect("8-byte chunk"))).wrapping_mul(PRIME);
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        h = (h ^ u64::from_le_bytes(last)).wrapping_mul(PRIME);
    }
    (h ^ (h >> 32)) as u32
}

/// Errors decoding on-disk structures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FormatError {
    /// The sector does not carry the expected signature.
    BadSignature,
    /// A length or count field is inconsistent.
    Corrupt,
    /// The geometry table does not fit the header sector.
    TooManyZones,
    /// A record would exceed [`MAX_TRAIL_BATCH`] payload sectors.
    BatchTooLarge,
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::BadSignature => write!(f, "sector does not carry a Trail signature"),
            FormatError::Corrupt => write!(f, "on-disk structure is internally inconsistent"),
            FormatError::TooManyZones => write!(f, "zone table does not fit the header sector"),
            FormatError::BatchTooLarge => {
                write!(f, "record exceeds {MAX_TRAIL_BATCH} payload sectors")
            }
        }
    }
}

impl std::error::Error for FormatError {}

/// The global log-disk header (the paper's `log_disk_header`), extended
/// with the probed geometry and calibration the prediction formula needs.
#[derive(Clone, Debug, PartialEq)]
pub struct LogDiskHeader {
    /// Incremented each time the Trail driver initializes; write records
    /// from older epochs are dead.
    pub epoch: u64,
    /// The paper's `crash_var`: `true` after a clean shutdown; `false`
    /// while mounted (so a reboot seeing `false` triggers recovery).
    pub clean: bool,
    /// Probed spindle rotation period.
    pub rotation_period: SimDuration,
    /// Calibrated prediction offset δ, in sectors.
    pub delta: u32,
    /// The drive's physical geometry ("stored right next to the global
    /// disk header").
    pub geometry: DiskGeometry,
}

impl LogDiskHeader {
    /// Serializes the header into one sector.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::TooManyZones`] if the zone table overflows
    /// the sector.
    pub fn encode(&self) -> Result<SectorBuf, FormatError> {
        let zones = self.geometry.zones();
        if HEADER_FIXED_LEN + zones.len() * 8 > SECTOR_SIZE {
            return Err(FormatError::TooManyZones);
        }
        let mut b = [0u8; SECTOR_SIZE];
        b[0..8].copy_from_slice(&DISK_SIGNATURE);
        b[8..16].copy_from_slice(&self.epoch.to_le_bytes());
        b[16] = u8::from(self.clean);
        b[17..25].copy_from_slice(&self.rotation_period.as_nanos().to_le_bytes());
        b[25..29].copy_from_slice(&self.delta.to_le_bytes());
        b[29..33].copy_from_slice(&self.geometry.heads().to_le_bytes());
        b[33..37].copy_from_slice(&self.geometry.track_skew().to_le_bytes());
        b[37..41].copy_from_slice(&self.geometry.cyl_skew().to_le_bytes());
        b[41..45].copy_from_slice(&(zones.len() as u32).to_le_bytes());
        let mut off = HEADER_FIXED_LEN;
        for z in zones {
            b[off..off + 4].copy_from_slice(&z.cylinders.to_le_bytes());
            b[off + 4..off + 8].copy_from_slice(&z.spt.to_le_bytes());
            off += 8;
        }
        Ok(b)
    }

    /// Parses a header sector.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::BadSignature`] if the sector is not a Trail
    /// disk header, or [`FormatError::Corrupt`] if its fields are
    /// inconsistent.
    pub fn decode(b: &SectorBuf) -> Result<Self, FormatError> {
        if b[0..8] != DISK_SIGNATURE {
            return Err(FormatError::BadSignature);
        }
        let epoch = u64::from_le_bytes(b[8..16].try_into().expect("slice len"));
        let clean = match b[16] {
            0 => false,
            1 => true,
            _ => return Err(FormatError::Corrupt),
        };
        let rotation =
            SimDuration::from_nanos(u64::from_le_bytes(b[17..25].try_into().expect("slice len")));
        let delta = u32::from_le_bytes(b[25..29].try_into().expect("slice len"));
        let heads = u32::from_le_bytes(b[29..33].try_into().expect("slice len"));
        let track_skew = u32::from_le_bytes(b[33..37].try_into().expect("slice len"));
        let cyl_skew = u32::from_le_bytes(b[37..41].try_into().expect("slice len"));
        let n_zones = u32::from_le_bytes(b[41..45].try_into().expect("slice len")) as usize;
        if heads == 0 || n_zones == 0 || HEADER_FIXED_LEN + n_zones * 8 > SECTOR_SIZE {
            return Err(FormatError::Corrupt);
        }
        let mut zones = Vec::with_capacity(n_zones);
        let mut off = HEADER_FIXED_LEN;
        for _ in 0..n_zones {
            let cylinders = u32::from_le_bytes(b[off..off + 4].try_into().expect("slice len"));
            let spt = u32::from_le_bytes(b[off + 4..off + 8].try_into().expect("slice len"));
            if cylinders == 0 || spt == 0 {
                return Err(FormatError::Corrupt);
            }
            zones.push(Zone { cylinders, spt });
            off += 8;
        }
        Ok(LogDiskHeader {
            epoch,
            clean,
            rotation_period: rotation,
            delta,
            geometry: DiskGeometry::new(heads, zones, track_skew, cyl_skew),
        })
    }
}

/// One per-sector entry of a write record's arrays.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RecordEntry {
    /// The payload sector's original first byte (displaced by the
    /// [`PAYLOAD_FIRST_BYTE`] marker).
    pub first_data_byte: u8,
    /// Target data-disk major number (the data-disk index in this
    /// reproduction).
    pub data_major: u8,
    /// Target data-disk minor number.
    pub data_minor: u8,
    /// Target sector on the data disk.
    pub data_lba: u32,
    /// Where this payload sector lives on the log disk.
    pub log_lba: u32,
}

impl RecordEntry {
    /// Writes the entry into slot `i` of a header sector.
    fn put(&self, b: &mut [u8], i: usize) {
        let off = HEADER_FIXED_LEN + i * ENTRY_LEN;
        b[off] = self.first_data_byte;
        b[off + 1] = self.data_major;
        b[off + 2] = self.data_minor;
        b[off + 3..off + 7].copy_from_slice(&self.data_lba.to_le_bytes());
        b[off + 7..off + 11].copy_from_slice(&self.log_lba.to_le_bytes());
    }
}

/// Checks a record's payload sector count against the header's limits.
fn check_batch(sectors: usize) -> Result<(), FormatError> {
    if sectors > MAX_TRAIL_BATCH {
        return Err(FormatError::BatchTooLarge);
    }
    if sectors == 0 {
        return Err(FormatError::Corrupt);
    }
    Ok(())
}

/// A parsed write-record header (the paper's `record_header` /
/// `sect_head_t`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RecordHeader {
    /// Epoch under which the record was written.
    pub epoch: u64,
    /// Monotone per-epoch record counter.
    pub sequence_id: u64,
    /// Log-disk LBA of the previous record's header, or `None` for the
    /// first record of an epoch.
    pub prev_sect: Option<u32>,
    /// Log-disk LBA of the oldest record not yet committed to the data
    /// disks when this record was written (bounds recovery back-scanning).
    pub log_head_lba: u32,
    /// Sequence id of that oldest record.
    pub log_head_seq: u64,
    /// Checksum of the on-disk payload bytes (after first-byte
    /// transposition); see [`payload_checksum`].
    pub payload_checksum: u32,
    /// Per-payload-sector bookkeeping.
    pub entries: Vec<RecordEntry>,
}

impl RecordHeader {
    /// Serializes the header into one sector (first byte `0xFF`).
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::BatchTooLarge`] if there are more than
    /// [`MAX_TRAIL_BATCH`] entries, or [`FormatError::Corrupt`] if there
    /// are none.
    pub fn encode(&self) -> Result<SectorBuf, FormatError> {
        check_batch(self.entries.len())?;
        let mut b = [0u8; SECTOR_SIZE];
        self.put_fixed(&mut b, self.entries.len());
        for (i, e) in self.entries.iter().enumerate() {
            e.put(&mut b, i);
        }
        seal_header(&mut b);
        Ok(b)
    }

    /// Writes every field but the entries into a zeroed header sector,
    /// recording `batch` entries.
    fn put_fixed(&self, b: &mut [u8], batch: usize) {
        b[0] = HEADER_FIRST_BYTE;
        b[1..9].copy_from_slice(&RECORD_SIGNATURE);
        b[9..17].copy_from_slice(&self.epoch.to_le_bytes());
        b[17..25].copy_from_slice(&self.sequence_id.to_le_bytes());
        b[25..29].copy_from_slice(&self.prev_sect.unwrap_or(NO_PREV_SECT).to_le_bytes());
        b[29..33].copy_from_slice(&self.log_head_lba.to_le_bytes());
        b[33..41].copy_from_slice(&self.log_head_seq.to_le_bytes());
        b[41..45].copy_from_slice(&(batch as u32).to_le_bytes());
        b[45..49].copy_from_slice(&self.payload_checksum.to_le_bytes());
    }

    /// Parses a sector as a record header.
    ///
    /// Returns `None` if the sector is not a record header (wrong first
    /// byte or signature) — the normal case while scanning — and an error
    /// if it carries the signature but is internally inconsistent.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::Corrupt`] for a signed but malformed header,
    /// including one whose bytes fail the header checksum.
    pub fn decode(b: &SectorBuf) -> Result<Option<Self>, FormatError> {
        if b[0] != HEADER_FIRST_BYTE || b[1..9] != RECORD_SIGNATURE {
            return Ok(None);
        }
        if b[HEADER_CHECKSUM_AT..] != payload_checksum(&b[..HEADER_CHECKSUM_AT]).to_le_bytes() {
            return Err(FormatError::Corrupt);
        }
        let epoch = u64::from_le_bytes(b[9..17].try_into().expect("slice len"));
        let sequence_id = u64::from_le_bytes(b[17..25].try_into().expect("slice len"));
        let prev_raw = u32::from_le_bytes(b[25..29].try_into().expect("slice len"));
        let log_head_lba = u32::from_le_bytes(b[29..33].try_into().expect("slice len"));
        let log_head_seq = u64::from_le_bytes(b[33..41].try_into().expect("slice len"));
        let batch = u32::from_le_bytes(b[41..45].try_into().expect("slice len")) as usize;
        let payload_checksum = u32::from_le_bytes(b[45..49].try_into().expect("slice len"));
        if batch == 0 || batch > MAX_TRAIL_BATCH {
            return Err(FormatError::Corrupt);
        }
        let mut entries = Vec::with_capacity(batch);
        let mut off = HEADER_FIXED_LEN;
        for _ in 0..batch {
            entries.push(RecordEntry {
                first_data_byte: b[off],
                data_major: b[off + 1],
                data_minor: b[off + 2],
                data_lba: u32::from_le_bytes(b[off + 3..off + 7].try_into().expect("slice len")),
                log_lba: u32::from_le_bytes(b[off + 7..off + 11].try_into().expect("slice len")),
            });
            off += ENTRY_LEN;
        }
        Ok(Some(RecordHeader {
            epoch,
            sequence_id,
            prev_sect: (prev_raw != NO_PREV_SECT).then_some(prev_raw),
            log_head_lba,
            log_head_seq,
            payload_checksum,
            entries,
        }))
    }
}

/// Consecutive payload sectors bound for consecutive sectors of one data
/// disk, before transposition.
#[derive(Clone, Copy, Debug)]
pub struct PayloadRun<'a> {
    /// Target data-disk major number.
    pub data_major: u8,
    /// Target data-disk minor number.
    pub data_minor: u8,
    /// Target sector on the data disk of the run's first sector.
    pub data_lba: u32,
    /// The sector contents: a whole number of sectors.
    pub data: &'a [u8],
}

/// Builds the raw bytes of a complete write record: the header sector
/// followed by the transposed payload sectors, laid out contiguously from
/// `header_lba` on the log disk.
///
/// The record is assembled in its one output buffer: each payload byte is
/// copied once, first bytes are transposed in place, the checksum runs
/// over the payload sectors and the header is encoded into the first
/// sector last.
///
/// # Errors
///
/// Returns [`FormatError::BatchTooLarge`] / [`FormatError::Corrupt`] under
/// the same conditions as [`RecordHeader::encode`], and
/// [`FormatError::Corrupt`] if a run is not a whole number of sectors.
pub fn build_record<'a, I>(
    epoch: u64,
    sequence_id: u64,
    prev_sect: Option<u32>,
    log_head_lba: u32,
    log_head_seq: u64,
    header_lba: u32,
    payload: I,
) -> Result<Vec<u8>, FormatError>
where
    I: IntoIterator<Item = PayloadRun<'a>>,
    I::IntoIter: Clone,
{
    let runs = payload.into_iter();
    let mut sectors = 0;
    for run in runs.clone() {
        if !run.data.len().is_multiple_of(SECTOR_SIZE) {
            return Err(FormatError::Corrupt);
        }
        sectors += run.data.len() / SECTOR_SIZE;
    }
    check_batch(sectors)?;
    let mut bytes = Vec::with_capacity((sectors + 1) * SECTOR_SIZE);
    bytes.resize(SECTOR_SIZE, 0);
    for run in runs.clone() {
        bytes.extend_from_slice(run.data);
    }
    let (head, body) = bytes.split_at_mut(SECTOR_SIZE);
    let targets = runs.flat_map(|run| (0..run.data.len() / SECTOR_SIZE).map(move |k| (run, k)));
    for (i, (sector, (run, k))) in body.chunks_exact_mut(SECTOR_SIZE).zip(targets).enumerate() {
        RecordEntry {
            first_data_byte: sector[0],
            data_major: run.data_major,
            data_minor: run.data_minor,
            data_lba: run.data_lba + k as u32,
            log_lba: header_lba + 1 + i as u32,
        }
        .put(head, i);
        sector[0] = PAYLOAD_FIRST_BYTE;
    }
    let header = RecordHeader {
        epoch,
        sequence_id,
        prev_sect,
        log_head_lba,
        log_head_seq,
        payload_checksum: payload_checksum(body),
        entries: Vec::new(),
    };
    header.put_fixed(head, sectors);
    seal_header(head);
    Ok(bytes)
}

/// Stores the checksum of a complete header sector in its last bytes.
fn seal_header(b: &mut [u8]) {
    let sum = payload_checksum(&b[..HEADER_CHECKSUM_AT]);
    b[HEADER_CHECKSUM_AT..SECTOR_SIZE].copy_from_slice(&sum.to_le_bytes());
}

/// Restores a payload sector read back from the log disk: puts the
/// displaced first byte back.
pub fn restore_payload(entry: &RecordEntry, sector: &mut SectorBuf) {
    sector[0] = entry.first_data_byte;
}

#[cfg(test)]
mod tests {
    use super::*;
    use trail_disk::profiles;

    fn sample_header() -> LogDiskHeader {
        LogDiskHeader {
            epoch: 7,
            clean: true,
            rotation_period: SimDuration::from_nanos(11_111_111),
            delta: 12,
            geometry: profiles::seagate_st41601n().geometry,
        }
    }

    #[test]
    fn disk_header_round_trips() {
        let h = sample_header();
        let sector = h.encode().unwrap();
        let back = LogDiskHeader::decode(&sector).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn disk_header_rejects_garbage() {
        let zeros = [0u8; SECTOR_SIZE];
        assert_eq!(
            LogDiskHeader::decode(&zeros),
            Err(FormatError::BadSignature)
        );
        let mut bad_flag = sample_header().encode().unwrap();
        bad_flag[16] = 9;
        assert_eq!(LogDiskHeader::decode(&bad_flag), Err(FormatError::Corrupt));
    }

    /// `n` payload sectors with nonzero first bytes (to transpose).
    fn payload(n: usize) -> Vec<u8> {
        let mut bytes = vec![0u8; n * SECTOR_SIZE];
        for (i, sector) in bytes.chunks_exact_mut(SECTOR_SIZE).enumerate() {
            sector[0] = 0xAA ^ (i as u8);
            sector[1] = i as u8;
            sector[SECTOR_SIZE - 1] = 0x5A;
        }
        bytes
    }

    /// The payload as one run bound for data disk 1 from sector 1000.
    fn run(data: &[u8]) -> [PayloadRun<'_>; 1] {
        [PayloadRun {
            data_major: 1,
            data_minor: 0,
            data_lba: 1000,
            data,
        }]
    }

    #[test]
    fn record_round_trips_with_transposition() {
        let p = payload(3);
        // Split across two runs to two disks: entries follow run order.
        let runs = [
            PayloadRun {
                data_major: 1,
                data_minor: 0,
                data_lba: 1000,
                data: &p[..2 * SECTOR_SIZE],
            },
            PayloadRun {
                data_major: 2,
                data_minor: 0,
                data_lba: 77,
                data: &p[2 * SECTOR_SIZE..],
            },
        ];
        let bytes = build_record(5, 42, Some(900), 880, 40, 2000, runs).unwrap();
        assert_eq!(bytes.len(), 4 * SECTOR_SIZE);
        // Header sector parses back.
        let hsec: SectorBuf = bytes[0..SECTOR_SIZE].try_into().unwrap();
        let parsed = RecordHeader::decode(&hsec).unwrap().expect("is a header");
        assert_eq!(parsed.epoch, 5);
        assert_eq!(parsed.sequence_id, 42);
        assert_eq!(parsed.prev_sect, Some(900));
        assert_eq!(parsed.log_head_lba, 880);
        assert_eq!(parsed.log_head_seq, 40);
        assert_eq!(
            parsed.payload_checksum,
            payload_checksum(&bytes[SECTOR_SIZE..])
        );
        // Re-encoding the parsed header reproduces the sector exactly.
        assert_eq!(parsed.encode().unwrap(), hsec);
        let targets: Vec<(u8, u32)> = parsed
            .entries
            .iter()
            .map(|e| (e.data_major, e.data_lba))
            .collect();
        assert_eq!(targets, [(1, 1000), (1, 1001), (2, 77)]);
        // Payload sectors all start 0x00 on disk.
        for i in 0..3 {
            assert_eq!(bytes[(i + 1) * SECTOR_SIZE], PAYLOAD_FIRST_BYTE);
        }
        // log_lba is contiguous after the header.
        assert_eq!(parsed.entries[0].log_lba, 2001);
        assert_eq!(parsed.entries[2].log_lba, 2003);
        // Restoring puts the displaced byte back.
        for (i, e) in parsed.entries.iter().enumerate() {
            let mut sec: SectorBuf = bytes[(i + 1) * SECTOR_SIZE..(i + 2) * SECTOR_SIZE]
                .try_into()
                .unwrap();
            restore_payload(e, &mut sec);
            assert_eq!(
                &sec[..],
                &p[i * SECTOR_SIZE..(i + 1) * SECTOR_SIZE],
                "payload sector {i} restored exactly"
            );
        }
    }

    #[test]
    fn payload_checksum_known_answers() {
        // Pinned values, computed by an independent implementation of the
        // definition: the checksum is part of the on-disk format, so a
        // change here invalidates every log written before it.
        assert_eq!(payload_checksum(&[]), 0x4fd0_bfc1);
        assert_eq!(payload_checksum(&[0u8; SECTOR_SIZE]), 0xff4f_371f);
        let ramp: Vec<u8> = (0..=255u8).collect();
        assert_eq!(payload_checksum(&ramp), 0xcb07_a0a9);
        // A partial trailing word is zero-padded into one last step.
        assert_eq!(payload_checksum(b"trail"), 0xf9f2_6108);
        assert_eq!(payload_checksum(b"trail"), payload_checksum(b"trail\0\0\0"));
    }

    #[test]
    fn payload_checksum_sees_every_single_bit_flip() {
        let mut sector = payload(1);
        let clean = payload_checksum(&sector);
        for bit in 0..SECTOR_SIZE * 8 {
            sector[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(payload_checksum(&sector), clean, "bit {bit}");
            sector[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn record_decode_ignores_non_headers() {
        // Payload-looking sector: first byte 0x00.
        let zeros = [0u8; SECTOR_SIZE];
        assert_eq!(RecordHeader::decode(&zeros), Ok(None));
        // 0xFF first byte but wrong signature: user data that happens to
        // start with 0xFF can never exist on the log disk (transposition),
        // but stale garbage might; it must not parse.
        let mut fake = [0u8; SECTOR_SIZE];
        fake[0] = HEADER_FIRST_BYTE;
        assert_eq!(RecordHeader::decode(&fake), Ok(None));
    }

    #[test]
    fn record_decode_flags_corrupt_signed_header() {
        let bytes = build_record(1, 1, None, 0, 0, 100, run(&payload(1))).unwrap();
        let mut hsec: SectorBuf = bytes[0..SECTOR_SIZE].try_into().unwrap();
        hsec[41..45].copy_from_slice(&0u32.to_le_bytes()); // batch = 0
        seal_header(&mut hsec);
        assert_eq!(RecordHeader::decode(&hsec), Err(FormatError::Corrupt));
        hsec[41..45].copy_from_slice(&1000u32.to_le_bytes()); // batch too big
        seal_header(&mut hsec);
        assert_eq!(RecordHeader::decode(&hsec), Err(FormatError::Corrupt));
    }

    #[test]
    fn record_decode_rejects_every_single_bit_flip_of_a_header() {
        let bytes = build_record(3, 9, Some(40), 20, 5, 100, run(&payload(4))).unwrap();
        let mut hsec: SectorBuf = bytes[0..SECTOR_SIZE].try_into().unwrap();
        assert!(matches!(RecordHeader::decode(&hsec), Ok(Some(_))));
        for bit in 0..SECTOR_SIZE * 8 {
            hsec[bit / 8] ^= 1 << (bit % 8);
            assert!(
                !matches!(RecordHeader::decode(&hsec), Ok(Some(_))),
                "bit {bit}"
            );
            hsec[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn record_limits_enforced() {
        assert_eq!(
            build_record(1, 1, None, 0, 0, 0, run(&payload(MAX_TRAIL_BATCH + 1))),
            Err(FormatError::BatchTooLarge)
        );
        assert_eq!(
            build_record(1, 1, None, 0, 0, 0, run(&payload(0))),
            Err(FormatError::Corrupt)
        );
        assert_eq!(
            build_record(1, 1, None, 0, 0, 0, run(&[0u8; 100])),
            Err(FormatError::Corrupt)
        );
        // Exactly MAX_TRAIL_BATCH fits a sector.
        let bytes = build_record(1, 1, None, 0, 0, 0, run(&payload(MAX_TRAIL_BATCH))).unwrap();
        let hsec: SectorBuf = bytes[..SECTOR_SIZE].try_into().unwrap();
        let parsed = RecordHeader::decode(&hsec).unwrap().unwrap();
        assert_eq!(parsed.entries.len(), MAX_TRAIL_BATCH);
    }

    #[test]
    fn no_prev_sect_round_trips() {
        let bytes = build_record(1, 0, None, 0, 0, 64, run(&payload(1))).unwrap();
        let hsec: SectorBuf = bytes[0..SECTOR_SIZE].try_into().unwrap();
        let parsed = RecordHeader::decode(&hsec).unwrap().unwrap();
        assert_eq!(parsed.prev_sect, None);
    }
}

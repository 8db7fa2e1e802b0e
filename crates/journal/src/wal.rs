//! A write-ahead log over raw disk pages.
//!
//! The log is a byte stream laid across fixed-size pages of a
//! [`Disk`], so durability I/O is charged to the same page-transfer
//! ledger as everything else in the workspace. Layout:
//!
//! ```text
//! offset 0:  magic "NDJW" (4 bytes) | version u32 LE (=1)
//! then:      records, back to back, each
//!            [payload len u32 LE][crc32(payload) u32 LE][payload]
//! tail:      zeroes (len == 0 marks the clean end of the log)
//! ```
//!
//! Records may span page boundaries. Recovery scans from the header and
//! stops at the first zero length, short record, or checksum mismatch —
//! everything before that point is the *committed prefix*; everything
//! after is discarded. A record is durable exactly when [`Wal::append`]
//! returns: the append path writes every touched page through the disk
//! before returning (the "fsync").

use netdir_pager::disk::{Disk, MemDisk};
use netdir_pager::{IoStats, PagerError, PagerResult};

/// First bytes of every log: identifies the file and pins the format.
pub const WAL_MAGIC: [u8; 4] = *b"NDJW";

/// On-disk format version.
pub const WAL_VERSION: u32 = 1;

const HEADER_BYTES: u64 = 8;
const RECORD_HEADER_BYTES: u64 = 8;

/// CRC-32 (IEEE 802.3, reflected), bit-serial — small and dependency-free.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

/// One recovered record and where it ends in the log's byte stream.
#[derive(Debug, Clone)]
pub struct WalRecord {
    /// The record's payload, checksum-verified.
    pub payload: Vec<u8>,
    /// Byte offset just past this record (a valid truncation point).
    pub end: u64,
}

/// An append-only, checksummed log on a page device.
pub struct Wal {
    disk: Box<dyn Disk>,
    page_size: u64,
    /// Next byte offset to write.
    tail: u64,
    /// Full image of the page containing `tail`, zeroed past `tail`.
    tail_image: Vec<u8>,
    /// Page index of `tail_image`.
    tail_page: u64,
    appends: u64,
    fsyncs: u64,
    page_writes: u64,
}

impl Wal {
    /// Start a fresh log on an empty device, writing the header durably.
    pub fn create(disk: Box<dyn Disk>) -> PagerResult<Wal> {
        let page_size = disk.page_size() as u64;
        let mut image = vec![0u8; page_size as usize];
        image[..4].copy_from_slice(&WAL_MAGIC);
        image[4..8].copy_from_slice(&WAL_VERSION.to_le_bytes());
        let mut wal = Wal {
            disk,
            page_size,
            tail: HEADER_BYTES,
            tail_image: image,
            tail_page: 0,
            appends: 0,
            fsyncs: 0,
            page_writes: 0,
        };
        wal.ensure_allocated(0)?;
        wal.flush_tail_page()?;
        wal.fsyncs += 1;
        Ok(wal)
    }

    /// Reopen an existing log, returning the committed prefix in order.
    ///
    /// The log's tail is positioned after the last valid record, so
    /// subsequent appends overwrite any torn garbage.
    pub fn open(disk: Box<dyn Disk>) -> PagerResult<(Wal, Vec<WalRecord>)> {
        if disk.num_pages() == 0 {
            return Ok((Wal::create(disk)?, Vec::new()));
        }
        let page_size = disk.page_size() as u64;
        let mut buf = Vec::with_capacity((disk.num_pages() * page_size) as usize);
        for p in 0..disk.num_pages() {
            buf.extend_from_slice(&disk.read_page(p)?);
        }
        if buf.get(..4) != Some(&WAL_MAGIC[..]) {
            return Err(PagerError::CorruptRecord {
                detail: "not a journal WAL (bad magic)".into(),
            });
        }
        let version = le_u32(&buf, 4).unwrap_or(0);
        if version != WAL_VERSION {
            return Err(PagerError::CorruptRecord {
                detail: format!("unsupported WAL version {version}"),
            });
        }

        let mut records = Vec::new();
        let mut pos = HEADER_BYTES as usize;
        // Stops where no room is left for another record header.
        while let (Some(len), Some(crc)) = (le_u32(&buf, pos), le_u32(&buf, pos + 4)) {
            if len == 0 {
                break; // clean end of log
            }
            let body_start = pos + RECORD_HEADER_BYTES as usize;
            let Some(payload) = buf.get(body_start..body_start + len as usize) else {
                break; // torn: record runs past the device
            };
            if crc32(payload) != crc {
                break; // torn or corrupt: checksum mismatch
            }
            pos = body_start + payload.len();
            records.push(WalRecord {
                payload: payload.to_vec(),
                end: pos as u64,
            });
        }

        let tail = pos as u64;
        let tail_page = tail / page_size;
        let mut tail_image = vec![0u8; page_size as usize];
        if tail_page < disk.num_pages() {
            let in_page = (tail % page_size) as usize;
            let start = (tail_page * page_size) as usize;
            // Keep only bytes before the tail; anything after is garbage
            // from a torn write and must not survive the next flush.
            tail_image[..in_page].copy_from_slice(&buf[start..start + in_page]);
        }
        let wal = Wal {
            disk,
            page_size,
            tail,
            tail_image,
            tail_page,
            appends: 0,
            fsyncs: 0,
            page_writes: 0,
        };
        Ok((wal, records))
    }

    /// Append one record durably. When this returns, the record survives
    /// a crash: every touched page has been written through the disk.
    pub fn append(&mut self, payload: &[u8]) -> PagerResult<()> {
        if payload.is_empty() {
            return Err(PagerError::CorruptRecord {
                detail: "empty WAL payload".into(),
            });
        }
        let mut rec = Vec::with_capacity(RECORD_HEADER_BYTES as usize + payload.len());
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rec.extend_from_slice(&crc32(payload).to_le_bytes());
        rec.extend_from_slice(payload);

        let mut written = 0usize;
        while written < rec.len() {
            let off = self.tail + written as u64;
            let page = off / self.page_size;
            let in_page = (off % self.page_size) as usize;
            if page != self.tail_page {
                // Crossing into a fresh page: flush the filled one.
                self.flush_tail_page()?;
                self.tail_page = page;
                self.tail_image.fill(0);
            }
            let n = (self.page_size as usize - in_page).min(rec.len() - written);
            self.tail_image[in_page..in_page + n].copy_from_slice(&rec[written..written + n]);
            written += n;
        }
        self.flush_tail_page()?;
        self.tail += rec.len() as u64;
        // The record may end exactly at a page boundary; keep the image
        // pointed at the page that will receive the next byte.
        let next_page = self.tail / self.page_size;
        if next_page != self.tail_page {
            self.tail_page = next_page;
            self.tail_image.fill(0);
        }
        self.appends += 1;
        self.fsyncs += 1;
        Ok(())
    }

    /// Discard everything after `offset` (a record boundary from
    /// [`Wal::open`]); later appends overwrite the discarded bytes.
    pub fn truncate_to(&mut self, offset: u64) -> PagerResult<()> {
        debug_assert!(offset >= HEADER_BYTES && offset <= self.tail);
        self.tail = offset;
        self.tail_page = offset / self.page_size;
        self.tail_image.fill(0);
        if self.tail_page < self.disk.num_pages() {
            let page = self.disk.read_page(self.tail_page)?;
            let keep = (offset % self.page_size) as usize;
            self.tail_image[..keep].copy_from_slice(&page[..keep]);
        }
        self.flush_tail_page()?;
        Ok(())
    }

    fn ensure_allocated(&self, page: u64) -> PagerResult<()> {
        while self.disk.num_pages() <= page {
            self.disk.allocate();
        }
        Ok(())
    }

    fn flush_tail_page(&mut self) -> PagerResult<()> {
        self.ensure_allocated(self.tail_page)?;
        self.disk
            .write_page(self.tail_page, bytes::Bytes::from(self.tail_image.clone()))?;
        self.page_writes += 1;
        Ok(())
    }

    /// Bytes appended so far (including the 8-byte header).
    pub fn tail(&self) -> u64 {
        self.tail
    }

    /// Records appended through this handle.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Durability barriers issued (one per create/append).
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Pages written through the disk by this handle.
    pub fn page_writes(&self) -> u64 {
        self.page_writes
    }

    /// The underlying device's I/O ledger.
    pub fn io(&self) -> &IoStats {
        self.disk.stats()
    }

    /// The raw log image: every allocated page, concatenated. Used by
    /// the crash-recovery tests to truncate at arbitrary byte boundaries.
    pub fn raw_bytes(&self) -> PagerResult<Vec<u8>> {
        let mut out = Vec::with_capacity((self.disk.num_pages() * self.page_size) as usize);
        for p in 0..self.disk.num_pages() {
            out.extend_from_slice(&self.disk.read_page(p)?);
        }
        Ok(out)
    }

    /// Build a device holding `bytes` (zero-padded to whole pages) —
    /// the reopen side of the crash-recovery tests.
    pub fn disk_from_bytes(bytes: &[u8], page_size: usize) -> PagerResult<Box<dyn Disk>> {
        let disk = MemDisk::new(page_size, IoStats::new());
        let pages = bytes.len().div_ceil(page_size);
        for p in 0..pages {
            let id = disk.allocate();
            let start = p * page_size;
            let end = (start + page_size).min(bytes.len());
            let mut img = vec![0u8; page_size];
            img[..end - start].copy_from_slice(&bytes[start..end]);
            disk.write_page(id, bytes::Bytes::from(img))?;
        }
        Ok(Box::new(disk))
    }
}

/// The little-endian `u32` at `buf[at..at + 4]`, if `buf` holds it.
fn le_u32(buf: &[u8], at: usize) -> Option<u32> {
    let bytes: [u8; 4] = buf.get(at..at.checked_add(4)?)?.try_into().ok()?;
    Some(u32::from_le_bytes(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(page_size: usize) -> Box<dyn Disk> {
        Box::new(MemDisk::new(page_size, IoStats::new()))
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xcbf43926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_then_open_recovers_everything() {
        let mut w = Wal::create(mem(64)).unwrap();
        let payloads: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; 3 + i as usize * 7]).collect();
        for p in &payloads {
            w.append(p).unwrap();
        }
        let bytes = w.raw_bytes().unwrap();
        let (w2, recs) = Wal::open(Wal::disk_from_bytes(&bytes, 64).unwrap()).unwrap();
        assert_eq!(recs.len(), payloads.len());
        for (r, p) in recs.iter().zip(&payloads) {
            assert_eq!(&r.payload, p);
        }
        assert_eq!(w2.tail(), w.tail());
    }

    #[test]
    fn records_span_pages() {
        let mut w = Wal::create(mem(32)).unwrap();
        let big = vec![0xabu8; 200]; // many pages worth
        w.append(&big).unwrap();
        w.append(&[1, 2, 3]).unwrap();
        let bytes = w.raw_bytes().unwrap();
        let (_, recs) = Wal::open(Wal::disk_from_bytes(&bytes, 32).unwrap()).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].payload, big);
        assert_eq!(recs[1].payload, vec![1, 2, 3]);
    }

    #[test]
    fn truncation_recovers_a_committed_prefix() {
        let mut w = Wal::create(mem(64)).unwrap();
        let payloads: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i + 1; 10 + i as usize * 13]).collect();
        let mut ends = Vec::new();
        for p in &payloads {
            w.append(p).unwrap();
            ends.push(w.tail());
        }
        let bytes = w.raw_bytes().unwrap();
        for cut in 8..bytes.len() {
            let (_, recs) = Wal::open(Wal::disk_from_bytes(&bytes[..cut], 64).unwrap()).unwrap();
            // The recovered records must be exactly the committed prefix:
            // every record wholly before `cut` survives, nothing after.
            let expect = ends.iter().filter(|&&e| e <= cut as u64).count();
            assert_eq!(recs.len(), expect, "cut at {cut}");
            for (r, p) in recs.iter().zip(&payloads) {
                assert_eq!(&r.payload, p, "cut at {cut}");
            }
        }
    }

    #[test]
    fn append_after_recovery_overwrites_torn_tail() {
        let mut w = Wal::create(mem(64)).unwrap();
        w.append(&[9u8; 50]).unwrap();
        let keep = w.tail();
        w.append(&[7u8; 40]).unwrap();
        let bytes = w.raw_bytes().unwrap();
        // Cut mid-way through the second record.
        let cut = keep as usize + 20;
        let (mut w2, recs) = Wal::open(Wal::disk_from_bytes(&bytes[..cut], 64).unwrap()).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(w2.tail(), keep);
        w2.append(&[5u8; 30]).unwrap();
        let bytes2 = w2.raw_bytes().unwrap();
        let (_, recs2) = Wal::open(Wal::disk_from_bytes(&bytes2, 64).unwrap()).unwrap();
        assert_eq!(recs2.len(), 2);
        assert_eq!(recs2[0].payload, vec![9u8; 50]);
        assert_eq!(recs2[1].payload, vec![5u8; 30]);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let disk = mem(64);
        disk.allocate();
        assert!(Wal::open(disk).is_err());
    }

    #[test]
    fn counters_track_durability_work() {
        let mut w = Wal::create(mem(64)).unwrap();
        let f0 = w.fsyncs();
        w.append(&[1u8; 10]).unwrap();
        w.append(&[2u8; 100]).unwrap(); // spans pages
        assert_eq!(w.appends(), 2);
        assert_eq!(w.fsyncs(), f0 + 2);
        assert!(w.page_writes() >= 3);
        assert!(w.io().snapshot().writes >= 3);
    }
}

//! Page-addressed storage devices.
//!
//! The device is deliberately dumb: it stores and retrieves whole pages by
//! [`PageId`] and charges one I/O per transfer. All cleverness (caching,
//! pinning, eviction) lives in the [`crate::pool::BufferPool`] above it.

use crate::error::{PagerError, PagerResult};
use crate::stats::IoStats;
use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;

/// Identifier of a page on a device. Dense, starting at 0.
pub type PageId = u64;

/// Bytes reserved at the start of every page for the page header
/// (currently: a 4-byte record count maintained by the record layer).
pub const PAGE_HEADER_BYTES: usize = 4;

/// A page-addressed storage device with I/O accounting.
///
/// Implementations must charge exactly one read per [`Disk::read_page`] and
/// one write per [`Disk::write_page`] to their [`IoStats`] ledger — the
/// experiments depend on this being exact.
pub trait Disk: Send + Sync {
    /// Page size in bytes.
    fn page_size(&self) -> usize;

    /// Number of allocated pages.
    fn num_pages(&self) -> u64;

    /// Allocate a fresh zeroed page and return its id.
    fn allocate(&self) -> PageId;

    /// Read a whole page. Charges one read I/O.
    fn read_page(&self, id: PageId) -> PagerResult<Bytes>;

    /// Write a whole page. Charges one write I/O.
    ///
    /// `data` must be exactly `page_size` bytes.
    fn write_page(&self, id: PageId, data: Bytes) -> PagerResult<()>;

    /// The ledger this device charges to.
    fn stats(&self) -> &IoStats;
}

/// An in-memory page device.
///
/// The paper's cost model counts page transfers, not seek times, so an
/// in-memory "disk" with exact transfer counting measures precisely the
/// quantity the theorems bound (see DESIGN.md §5, substitutions).
pub struct MemDisk {
    page_size: usize,
    pages: Mutex<Vec<Bytes>>,
    stats: IoStats,
}

impl MemDisk {
    /// Create an empty device with the given page size, charging to `stats`.
    pub fn new(page_size: usize, stats: IoStats) -> Self {
        assert!(
            page_size > PAGE_HEADER_BYTES + 8,
            "page size {page_size} too small to hold any record"
        );
        MemDisk {
            page_size,
            pages: Mutex::new(Vec::new()),
            stats,
        }
    }
}

impl Disk for MemDisk {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u64 {
        self.pages.lock().len() as u64
    }

    fn allocate(&self) -> PageId {
        let mut pages = self.pages.lock();
        let id = pages.len() as PageId;
        pages.push(BytesMut::zeroed(self.page_size).freeze());
        self.stats.record_alloc();
        id
    }

    fn read_page(&self, id: PageId) -> PagerResult<Bytes> {
        let pages = self.pages.lock();
        let page = pages
            .get(id as usize)
            .ok_or(PagerError::PageOutOfBounds {
                page: id,
                pages: pages.len() as u64,
            })?
            .clone();
        self.stats.record_read();
        Ok(page)
    }

    fn write_page(&self, id: PageId, data: Bytes) -> PagerResult<()> {
        if data.len() != self.page_size {
            return Err(PagerError::CorruptPage {
                page: id,
                detail: format!(
                    "write of {} bytes to a {}-byte page",
                    data.len(),
                    self.page_size
                ),
            });
        }
        let mut pages = self.pages.lock();
        let len = pages.len() as u64;
        let slot = pages
            .get_mut(id as usize)
            .ok_or(PagerError::PageOutOfBounds { page: id, pages: len })?;
        *slot = data;
        self.stats.record_write();
        Ok(())
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }
}

/// A decorator that charges wall-clock time per transfer on top of an
/// inner device.
///
/// The paper's cost model counts page transfers; `LatencyDisk` gives each
/// transfer a (simulated) seek-and-transfer *duration* as well, so a
/// sweep can report wall time beside the counts and a test can widen the
/// window in which threads race for one page. I/O accounting is
/// delegated unchanged to the inner device.
pub struct LatencyDisk {
    inner: Box<dyn Disk>,
    read_delay: std::time::Duration,
    write_delay: std::time::Duration,
}

impl LatencyDisk {
    /// Wrap `inner`, sleeping `read_delay` per page read and `write_delay`
    /// per page write. Allocations stay free, as in the paper's model.
    pub fn new(
        inner: Box<dyn Disk>,
        read_delay: std::time::Duration,
        write_delay: std::time::Duration,
    ) -> Self {
        LatencyDisk {
            inner,
            read_delay,
            write_delay,
        }
    }
}

impl Disk for LatencyDisk {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn allocate(&self) -> PageId {
        self.inner.allocate()
    }

    fn read_page(&self, id: PageId) -> PagerResult<Bytes> {
        if !self.read_delay.is_zero() {
            std::thread::sleep(self.read_delay);
        }
        self.inner.read_page(id)
    }

    fn write_page(&self, id: PageId, data: Bytes) -> PagerResult<()> {
        if !self.write_delay.is_zero() {
            std::thread::sleep(self.write_delay);
        }
        self.inner.write_page(id, data)
    }

    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> MemDisk {
        MemDisk::new(128, IoStats::new())
    }

    #[test]
    fn latency_disk_delegates_and_charges_inner_ledger() {
        let stats = IoStats::new();
        let inner = MemDisk::new(128, stats.clone());
        let d = LatencyDisk::new(
            Box::new(inner),
            std::time::Duration::from_micros(50),
            std::time::Duration::ZERO,
        );
        let p = d.allocate();
        let t0 = std::time::Instant::now();
        d.read_page(p).unwrap();
        assert!(t0.elapsed() >= std::time::Duration::from_micros(50));
        d.write_page(p, BytesMut::zeroed(128).freeze()).unwrap();
        let snap = d.stats().snapshot();
        assert_eq!((snap.reads, snap.writes, snap.allocs), (1, 1, 1));
        assert_eq!(stats.snapshot(), snap);
    }

    #[test]
    fn allocate_read_write_roundtrip() {
        let d = disk();
        let p0 = d.allocate();
        let p1 = d.allocate();
        assert_eq!((p0, p1), (0, 1));
        assert_eq!(d.num_pages(), 2);

        let mut buf = BytesMut::zeroed(128);
        buf[0] = 0xAB;
        d.write_page(p1, buf.freeze()).unwrap();
        let back = d.read_page(p1).unwrap();
        assert_eq!(back[0], 0xAB);
        // fresh page is zeroed
        assert!(d.read_page(p0).unwrap().iter().all(|&b| b == 0));
    }

    #[test]
    fn io_is_charged_exactly() {
        let d = disk();
        let p = d.allocate();
        let snap0 = d.stats().snapshot();
        d.read_page(p).unwrap();
        d.read_page(p).unwrap();
        d.write_page(p, BytesMut::zeroed(128).freeze()).unwrap();
        let delta = d.stats().snapshot().since(snap0);
        assert_eq!((delta.reads, delta.writes), (2, 1));
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let d = disk();
        assert!(matches!(
            d.read_page(7),
            Err(PagerError::PageOutOfBounds { page: 7, .. })
        ));
        assert!(d
            .write_page(7, BytesMut::zeroed(128).freeze())
            .is_err());
    }

    #[test]
    fn wrong_sized_write_is_rejected() {
        let d = disk();
        let p = d.allocate();
        let err = d.write_page(p, Bytes::from_static(b"short")).unwrap_err();
        assert!(matches!(err, PagerError::CorruptPage { .. }));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_page_size_panics() {
        MemDisk::new(8, IoStats::new());
    }
}

//! # netdir-pager — external-memory substrate
//!
//! The algorithms of *Querying Network Directories* (SIGMOD 1999) are
//! analysed in the classical external-memory model: data lives on disk in
//! pages of a fixed size, a page holds `B` directory entries (the *blocking
//! factor*), main memory holds only a constant number of pages, and cost is
//! the number of page transfers (I/Os).
//!
//! This crate is a faithful, instrumented implementation of that model:
//!
//! * [`disk`] — a page-addressed storage device ([`disk::MemDisk`]) that
//!   counts every page read and write in an [`stats::IoStats`] ledger.
//! * [`pool`] — a bounded [`pool::BufferPool`] of page frames with LRU
//!   eviction and pin counting. The frame budget is the paper's "constant
//!   size of main memory"; algorithms that respect it can be *proven* to,
//!   because exceeding the pin budget is a hard error.
//! * [`record`] — length-prefixed serialization of records onto pages.
//! * [`list`] — append-only paged sequential lists, the currency of the
//!   query-evaluation operators ("each of L1 and L2 are sorted lists of
//!   directory entries").
//! * [`stack`] — a paged stack whose cold pages spill to disk, exactly the
//!   structure whose "entries may be swapped out (and eventually re-fetched)
//!   from the memory multiple times when the stack repeatedly grows and
//!   shrinks" (Section 5.3).
//! * [`extsort`] — multiway external merge sort, used by the embedded-
//!   reference operators of L3 (Algorithm `ComputeERAggDV`, Figure 3) and
//!   responsible for their `N log N` I/O term (Theorem 7.1); input that
//!   fits in memory sorts there.
//! * [`budget`] — the main memory *M* intermediates share: frames × page
//!   size. Operator outputs, chain blocks and sort inputs stay in memory
//!   while it lasts and spill to pages past it.
//!
//! All structures share one [`Pager`], so an experiment reads a single I/O
//! ledger and a single memory budget for an entire operator tree.

pub mod budget;
pub mod chain;
pub mod disk;
pub mod error;
pub mod extsort;
pub mod intern;
pub mod list;
pub mod pool;
pub mod record;
pub mod stack;
pub mod stats;

pub use budget::Reservation;
pub use chain::{Chain, ChainArena};
pub use disk::{Disk, LatencyDisk, MemDisk, PageId, PAGE_HEADER_BYTES};
pub use error::{PagerError, PagerResult};
pub use extsort::{external_sort, external_sort_by, ExtSortConfig};
pub use intern::Interner;
pub use list::{
    ListReader, ListWriter, Operand, OperandReader, OperandWriter, PagedList, RawListReader,
    RawOperandReader, RawRecord, Run,
};
pub use pool::{
    BufferPool, FrameGuard, PoolConfig, PoolMetricsSnapshot, ReplacementPolicy,
};
pub use record::{PageCtx, Record};
pub use stack::PagedStack;
pub use stats::{IoSnapshot, IoStats};

use budget::RunBudget;
use std::sync::Arc;

/// On-page record layout written by the list/chain writers.
///
/// v1 is the seed format: a `u32` record count then `[u32 len][bytes]`
/// records. v2 marks the header word with [`list::PAGE_V2_MARKER`] and
/// stores each record as a prefix-delta-compressed sort key plus a slim
/// body (attribute names interned through [`Interner`]). Readers always
/// dispatch on the per-page header, so lists of both formats coexist on
/// one device; the knob only selects what *writers* produce. v1 stays
/// the default so the seed's exact blocking-factor and I/O-count
/// contracts are untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PageFormat {
    /// Length-prefixed records, no compression (the seed format).
    #[default]
    V1,
    /// Prefix-compressed keys + interned attribute names.
    V2,
}

/// Shared handle over a disk + buffer pool + I/O ledger.
///
/// A `Pager` is cheap to clone; clones share the same underlying device,
/// pool and counters. One `Pager` per experiment gives a single ledger for
/// everything that ran.
#[derive(Clone)]
pub struct Pager {
    inner: Arc<PagerInner>,
}

struct PagerInner {
    pool: BufferPool,
    page_size: usize,
    format: PageFormat,
    interner: Interner,
    budget: Arc<RunBudget>,
}

impl Pager {
    /// Create a pager over a fresh in-memory disk.
    ///
    /// * `page_size` — bytes per page (including the small page header);
    ///   together with the record size this determines the blocking factor
    ///   `B` of the paper's cost formulas.
    /// * `frames` — buffer-pool frame budget, the "constant size of main
    ///   memory". The linear-I/O algorithms in this repository run happily
    ///   with budgets as small as 8 frames.
    pub fn new(page_size: usize, frames: usize) -> Self {
        Pager::custom(page_size, PoolConfig::new(frames), PageFormat::V1)
    }

    /// Create a pager writing the v2 (prefix-compressed) page format.
    pub fn compressed(page_size: usize, frames: usize) -> Self {
        Pager::custom(page_size, PoolConfig::new(frames), PageFormat::V2)
    }

    /// Full-control constructor: pool policy and page format.
    pub fn custom(page_size: usize, config: PoolConfig, format: PageFormat) -> Self {
        let stats = IoStats::new();
        let disk = MemDisk::new(page_size, stats.clone());
        Pager::over(BufferPool::new(Box::new(disk), config, stats), page_size, format)
    }

    fn over(pool: BufferPool, page_size: usize, format: PageFormat) -> Self {
        let budget = RunBudget::new(pool.capacity() * page_size);
        Pager {
            inner: Arc::new(PagerInner {
                pool,
                page_size,
                format,
                interner: Interner::new(),
                budget,
            }),
        }
    }

    /// Create a pager over an in-memory disk that additionally charges
    /// wall-clock latency per transfer (see [`LatencyDisk`]).
    ///
    /// Used by the concurrent-pool tests, where a page read must cost
    /// time as well as a count.
    pub fn with_latency(
        page_size: usize,
        frames: usize,
        read_delay: std::time::Duration,
        write_delay: std::time::Duration,
    ) -> Self {
        Pager::with_latency_format(page_size, frames, read_delay, write_delay, PageFormat::V1)
    }

    /// [`Pager::with_latency`] with an explicit page format.
    pub fn with_latency_format(
        page_size: usize,
        frames: usize,
        read_delay: std::time::Duration,
        write_delay: std::time::Duration,
        format: PageFormat,
    ) -> Self {
        let stats = IoStats::new();
        let disk = MemDisk::new(page_size, stats.clone());
        let disk = LatencyDisk::new(Box::new(disk), read_delay, write_delay);
        let pool = BufferPool::new(Box::new(disk), PoolConfig::new(frames), stats);
        Pager::over(pool, page_size, format)
    }

    /// The page format new list/chain pages are written in.
    pub fn format(&self) -> PageFormat {
        self.inner.format
    }

    /// The directory-wide attribute-name interner.
    pub fn interner(&self) -> &Interner {
        &self.inner.interner
    }

    /// Codec context for the v2 record hooks.
    pub fn ctx(&self) -> PageCtx<'_> {
        PageCtx {
            interner: &self.inner.interner,
        }
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.inner.page_size
    }

    /// Usable payload bytes per page (page size minus page header).
    pub fn payload_size(&self) -> usize {
        self.inner.page_size - PAGE_HEADER_BYTES
    }

    /// The buffer pool.
    pub fn pool(&self) -> &BufferPool {
        &self.inner.pool
    }

    /// The shared I/O ledger.
    pub fn stats(&self) -> &IoStats {
        self.inner.pool.stats()
    }

    /// Snapshot the I/O counters (reads, writes, allocations).
    pub fn io(&self) -> IoSnapshot {
        self.stats().snapshot()
    }

    /// Reset the I/O counters to zero. Useful between experiment phases:
    /// build the inputs, reset, run the operator, read the ledger.
    pub fn reset_io(&self) {
        self.stats().reset();
    }

    /// The memory budget *M* in bytes: frames × page size. In-memory
    /// intermediates written on this pager share it ([`budget`]).
    pub fn run_budget(&self) -> usize {
        self.inner.budget.limit()
    }

    /// Bytes the live in-memory intermediates hold now.
    pub fn run_bytes_held(&self) -> usize {
        self.inner.budget.held()
    }

    /// The most bytes in-memory intermediates ever held at once; never
    /// above [`Pager::run_budget`].
    pub fn run_bytes_peak(&self) -> usize {
        self.inner.budget.peak()
    }

    /// Hold `bytes` of the budget until the returned reservation drops,
    /// or `None` if they are not free. Whatever is held here is memory
    /// no intermediate can use, so holding the whole budget makes every
    /// write on this pager spill.
    pub fn reserve(&self, bytes: usize) -> Option<Reservation> {
        let mut held = self.reservation();
        held.grow(bytes).then_some(held)
    }

    /// An empty reservation against this pager's budget.
    pub(crate) fn reservation(&self) -> Reservation {
        Reservation::empty(&self.inner.budget)
    }

    /// Flush all dirty frames to disk (counted as writes).
    pub fn flush(&self) -> PagerResult<()> {
        self.inner.pool.flush_all()
    }

    /// The paper's blocking factor `B` for records of `record_bytes` bytes:
    /// how many such records fit on one page.
    pub fn blocking_factor(&self, record_bytes: usize) -> usize {
        if record_bytes == 0 {
            return self.payload_size();
        }
        // Each record costs a 4-byte length prefix on the page.
        (self.payload_size() / (record_bytes + record::LEN_PREFIX_BYTES)).max(1)
    }
}

impl std::fmt::Debug for Pager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pager")
            .field("page_size", &self.inner.page_size)
            .field("frames", &self.inner.pool.capacity())
            .field("io", &self.io())
            .finish()
    }
}

/// A reasonable default pager for tests and examples: 4 KiB pages, 64 frames.
pub fn default_pager() -> Pager {
    Pager::new(4096, 64)
}

/// A deliberately tiny pager (small pages, few frames) that makes I/O
/// behaviour visible at small input sizes; used throughout the test suite
/// to exercise spill paths.
pub fn tiny_pager() -> Pager {
    Pager::new(256, 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_factor_counts_prefix_overhead() {
        let p = Pager::new(4096, 8);
        let b = p.blocking_factor(60);
        // 4096 - header, divided by 64 per record.
        assert_eq!(b, (4096 - PAGE_HEADER_BYTES) / 64);
        assert!(p.blocking_factor(0) > 0);
        assert_eq!(p.blocking_factor(1_000_000), 1);
    }

    #[test]
    fn the_budget_is_the_pool() {
        assert_eq!(default_pager().run_budget(), 256 * 1024);
        assert_eq!(tiny_pager().run_budget(), 2 * 1024);
        let p = tiny_pager();
        let all = p.reserve(p.run_budget()).unwrap();
        assert!(p.reserve(1).is_none());
        drop(all);
        assert_eq!((p.run_bytes_held(), p.run_bytes_peak()), (0, 2048));
    }

    #[test]
    fn pager_clone_shares_ledger() {
        let p = Pager::new(512, 8);
        let q = p.clone();
        p.stats().record_read();
        assert_eq!(q.io().reads, 1);
        q.reset_io();
        assert_eq!(p.io().reads, 0);
    }
}

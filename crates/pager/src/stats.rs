//! I/O accounting.
//!
//! Every theorem in the paper is a statement about the number of page
//! transfers. [`IoStats`] is the shared ledger in which the disk layer
//! records each transfer; experiments read a [`IoSnapshot`] before and after
//! an operator to obtain its exact I/O cost.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, thread-safe I/O counters.
///
/// Cloning is cheap and clones share the same counters.
#[derive(Clone, Default)]
pub struct IoStats {
    inner: Arc<Counters>,
}

#[derive(Default)]
struct Counters {
    reads: AtomicU64,
    writes: AtomicU64,
    allocs: AtomicU64,
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    /// Pages transferred disk → memory.
    pub reads: u64,
    /// Pages transferred memory → disk.
    pub writes: u64,
    /// Pages allocated on the device.
    pub allocs: u64,
}

impl IoSnapshot {
    /// Total page transfers (reads + writes) — the quantity the paper's
    /// `O(|L|/B)` bounds count.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }

    /// Component-wise difference `self - earlier`; the cost of whatever ran
    /// between the two snapshots.
    pub fn since(&self, earlier: IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            allocs: self.allocs - earlier.allocs,
        }
    }
}

impl std::fmt::Display for IoSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} reads + {} writes = {} I/Os ({} pages allocated)",
            self.reads,
            self.writes,
            self.total(),
            self.allocs
        )
    }
}

impl IoStats {
    /// Fresh ledger with all counters at zero.
    pub fn new() -> Self {
        IoStats::default()
    }

    /// Count one page read.
    pub fn record_read(&self) {
        self.inner.reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one page write.
    pub fn record_write(&self) {
        self.inner.writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one page allocation.
    pub fn record_alloc(&self) {
        self.inner.allocs.fetch_add(1, Ordering::Relaxed);
    }

    /// Copy out the current counter values.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            reads: self.inner.reads.load(Ordering::Relaxed),
            writes: self.inner.writes.load(Ordering::Relaxed),
            allocs: self.inner.allocs.load(Ordering::Relaxed),
        }
    }

    /// Zero all counters.
    pub fn reset(&self) {
        self.inner.reads.store(0, Ordering::Relaxed);
        self.inner.writes.store(0, Ordering::Relaxed);
        self.inner.allocs.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for IoStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "IoStats({:?})", self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let s = IoStats::new();
        s.record_read();
        s.record_read();
        s.record_write();
        s.record_alloc();
        let snap = s.snapshot();
        assert_eq!(snap.reads, 2);
        assert_eq!(snap.writes, 1);
        assert_eq!(snap.allocs, 1);
        assert_eq!(snap.total(), 3);
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn since_subtracts() {
        let s = IoStats::new();
        s.record_read();
        let before = s.snapshot();
        s.record_read();
        s.record_write();
        let delta = s.snapshot().since(before);
        assert_eq!(delta.reads, 1);
        assert_eq!(delta.writes, 1);
    }

    #[test]
    fn clones_share_counters() {
        let a = IoStats::new();
        let b = a.clone();
        a.record_write();
        assert_eq!(b.snapshot().writes, 1);
    }
}

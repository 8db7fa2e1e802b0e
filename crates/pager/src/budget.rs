//! The memory budget intermediates share: the paper's *M*.
//!
//! Theorem 8.3 evaluates in constant memory: a list stays in memory
//! while it fits in *M*, and only a list larger than *M* goes to pages.
//! Here *M* is the scratch pager's own pool, frames × page size (256 KiB
//! for [`crate::default_pager`], 2 KiB for [`crate::tiny_pager`]), and
//! every in-memory intermediate written on that pager — an operator's
//! output run, a chain block, a sorted pair list — holds a
//! [`Reservation`] against it. Bytes are reserved as a run grows and
//! released when the run drops; a write that cannot reserve spills to
//! pages instead. Nothing sets the budget but the pager's geometry.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The bytes one pager lends to in-memory intermediates.
#[derive(Debug)]
pub(crate) struct RunBudget {
    limit: usize,
    held: AtomicUsize,
    peak: AtomicUsize,
}

impl RunBudget {
    pub(crate) fn new(limit: usize) -> Arc<RunBudget> {
        Arc::new(RunBudget {
            limit,
            held: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        })
    }

    pub(crate) fn limit(&self) -> usize {
        self.limit
    }

    pub(crate) fn held(&self) -> usize {
        self.held.load(Ordering::Acquire)
    }

    pub(crate) fn peak(&self) -> usize {
        self.peak.load(Ordering::Acquire)
    }

    fn try_take(&self, bytes: usize) -> bool {
        let taken = self
            .held
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |held| {
                held.checked_add(bytes).filter(|&after| after <= self.limit)
            });
        match taken {
            Ok(before) => {
                self.peak.fetch_max(before + bytes, Ordering::AcqRel);
                true
            }
            Err(_) => false,
        }
    }
}

/// Bytes held against a pager's budget, returned when this drops.
#[derive(Debug)]
pub struct Reservation {
    budget: Arc<RunBudget>,
    bytes: usize,
}

impl Reservation {
    pub(crate) fn empty(budget: &Arc<RunBudget>) -> Reservation {
        Reservation {
            budget: Arc::clone(budget),
            bytes: 0,
        }
    }

    /// Hold `bytes` more, or nothing if the budget cannot lend them.
    pub(crate) fn grow(&mut self, bytes: usize) -> bool {
        let ok = self.budget.try_take(bytes);
        if ok {
            self.bytes += bytes;
        }
        ok
    }

    /// Return everything held.
    pub(crate) fn release(&mut self) {
        self.budget.held.fetch_sub(self.bytes, Ordering::AcqRel);
        self.bytes = 0;
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservations_share_one_limit_and_return_on_drop() {
        let budget = RunBudget::new(100);
        let mut a = Reservation::empty(&budget);
        let mut b = Reservation::empty(&budget);
        assert!(a.grow(60));
        assert!(!b.grow(41), "past the limit");
        assert!(b.grow(40));
        assert_eq!((budget.held(), budget.peak()), (100, 100));
        drop(a);
        assert_eq!(budget.held(), 40);
        assert!(b.grow(60));
        b.release();
        assert_eq!((budget.held(), b.bytes, budget.peak()), (0, 0, 100));
    }
}

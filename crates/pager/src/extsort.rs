//! Multiway external merge sort.
//!
//! Algorithm `ComputeERAggDV` (Figure 3) sorts its pair list `LP` "based on
//! the lexicographic ordering of the reverse of the dn's in the first
//! column"; with inputs larger than memory that sort is external, and it is
//! the source of the `(|L2|/B · m) · log(|L2|/B · m)` term in Theorem 7.1.
//!
//! Classic two-phase design:
//!   1. **Run formation** — read the input, filling an in-memory buffer of
//!      roughly `fan_in` pages' worth of records, sort it, write a run.
//!   2. **Merge passes** — merge up to `fan_in` runs at a time (one page of
//!      each run resident, courtesy of [`crate::list::ListReader`]'s page-at-a-time
//!      buffering) until one run remains.
//!
//! With `R` initial runs the number of passes is `⌈log_fan_in(R)⌉`, matching
//! the textbook `O(N/B · log_{M/B}(N/B))` bound the paper cites.
//!
//! Input that fits in memory — a run, or a list no larger than the
//! pager's free budget — is sorted there instead: no run files and no
//! merge pass, and the sorted records come back as an [`Operand`] written
//! through an [`OperandWriter`], so they stay a run while the budget
//! holds them.

use crate::error::PagerResult;
use crate::list::{ListWriter, Operand, OperandWriter, PagedList};
use crate::record::Record;
use crate::Pager;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Tuning for the external sort.
#[derive(Debug, Clone, Copy)]
pub struct ExtSortConfig {
    /// Maximum runs merged at once, and the page budget for run formation.
    /// Should be at most `pool frames - 2` to honor the memory budget.
    pub fan_in: usize,
}

impl Default for ExtSortConfig {
    fn default() -> Self {
        ExtSortConfig { fan_in: 6 }
    }
}

/// Sort `input` by the records' natural order.
pub fn external_sort<T>(pager: &Pager, input: impl Into<Operand<T>>) -> PagerResult<Operand<T>>
where
    T: Record + Ord,
{
    external_sort_by(pager, input, ExtSortConfig::default(), |a, b| a.cmp(b))
}

/// Sort `input` by `cmp` with explicit configuration: in memory if it
/// fits there, externally otherwise.
///
/// The sort is stable across equal keys (ties broken by input order within
/// a run and by run index across runs), so both paths give the same
/// records in the same order.
pub fn external_sort_by<T, F>(
    pager: &Pager,
    input: impl Into<Operand<T>>,
    config: ExtSortConfig,
    cmp: F,
) -> PagerResult<Operand<T>>
where
    T: Record,
    F: Fn(&T, &T) -> Ordering + Copy,
{
    let input = input.into();
    let free = pager.run_budget() - pager.run_bytes_held().min(pager.run_budget());
    match input {
        Operand::List(list) if list.num_pages() as usize * pager.payload_size() > free => {
            sort_paged(pager, &list, config, cmp).map(Operand::List)
        }
        input => {
            let mut items = input.to_vec()?;
            // A run's bytes return before its sorted copy takes them.
            drop(input);
            items.sort_by(cmp);
            let mut out = OperandWriter::new(pager);
            for item in &items {
                out.push(item)?;
            }
            out.finish()
        }
    }
}

/// The external path of [`external_sort_by`]: sorted runs on pages,
/// merged `fan_in` at a time.
fn sort_paged<T, F>(
    pager: &Pager,
    input: &PagedList<T>,
    config: ExtSortConfig,
    cmp: F,
) -> PagerResult<PagedList<T>>
where
    T: Record,
    F: Fn(&T, &T) -> Ordering + Copy,
{
    // Clamp from below (a 1-way merge never terminates) AND from above:
    // a merge holds one resident page per input run plus the output
    // page, so `fan_in` beyond `frames - 2` busts the Theorem 7.1
    // memory budget the pool was sized for. A caller-requested fan-in
    // larger than the pool delivers extra merge passes, not extra
    // memory.
    let frame_cap = pager.pool().capacity().saturating_sub(2).max(2);
    let fan_in = config.fan_in.clamp(2, frame_cap);
    let budget_bytes = fan_in * pager.payload_size();

    // Phase 1: run formation.
    let runs = form_runs(pager, input.iter(), budget_bytes, cmp)?;
    merge_all(pager, runs, fan_in, cmp)
}

/// Phase 1: read `input`, cutting sorted runs of roughly `budget_bytes`.
fn form_runs<T, F, I>(
    pager: &Pager,
    input: I,
    budget_bytes: usize,
    cmp: F,
) -> PagerResult<Vec<PagedList<T>>>
where
    T: Record,
    F: Fn(&T, &T) -> Ordering + Copy,
    I: Iterator<Item = PagerResult<T>>,
{
    let mut runs: Vec<PagedList<T>> = Vec::new();
    let mut buf: Vec<T> = Vec::new();
    let mut buf_bytes = 0usize;
    for item in input {
        let item = item?;
        buf_bytes += item.encoded_len() + 4;
        buf.push(item);
        if buf_bytes >= budget_bytes {
            runs.push(write_sorted_run(pager, &mut buf, cmp)?);
            buf_bytes = 0;
        }
    }
    if !buf.is_empty() {
        runs.push(write_sorted_run(pager, &mut buf, cmp)?);
    }
    Ok(runs)
}

/// Phase 2: merge `fan_in` runs at a time until one remains.
fn merge_all<T, F>(
    pager: &Pager,
    mut runs: Vec<PagedList<T>>,
    fan_in: usize,
    cmp: F,
) -> PagerResult<PagedList<T>>
where
    T: Record,
    F: Fn(&T, &T) -> Ordering + Copy,
{
    if runs.is_empty() {
        return Ok(PagedList::empty(pager));
    }
    while runs.len() > 1 {
        let mut next: Vec<PagedList<T>> = Vec::new();
        for group in runs.chunks(fan_in) {
            next.push(merge_runs(pager, group, cmp)?);
        }
        runs = next;
    }
    Ok(runs.pop().expect("at least one run"))
}

fn write_sorted_run<T, F>(
    pager: &Pager,
    buf: &mut Vec<T>,
    cmp: F,
) -> PagerResult<PagedList<T>>
where
    T: Record,
    F: Fn(&T, &T) -> Ordering,
{
    buf.sort_by(&cmp);
    let mut w = ListWriter::new(pager);
    for item in buf.drain(..) {
        w.push(&item)?;
    }
    w.finish()
}

struct HeapEntry<T> {
    item: T,
    run: usize,
    seq: u64,
}

fn merge_runs<T, F>(pager: &Pager, runs: &[PagedList<T>], cmp: F) -> PagerResult<PagedList<T>>
where
    T: Record,
    F: Fn(&T, &T) -> Ordering + Copy,
{
    struct Wrapped<T, F> {
        entry: HeapEntry<T>,
        cmp: F,
    }
    impl<T, F: Fn(&T, &T) -> Ordering> PartialEq for Wrapped<T, F> {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl<T, F: Fn(&T, &T) -> Ordering> Eq for Wrapped<T, F> {}
    impl<T, F: Fn(&T, &T) -> Ordering> Wrapped<T, F> {
        fn cmp(&self, other: &Self) -> Ordering {
            // BinaryHeap is a max-heap; reverse for ascending output.
            // Stability: tie-break on (run, seq) ascending.
            (self.cmp)(&self.entry.item, &other.entry.item)
                .then_with(|| self.entry.run.cmp(&other.entry.run))
                .then_with(|| self.entry.seq.cmp(&other.entry.seq))
                .reverse()
        }
    }
    #[allow(clippy::non_canonical_partial_ord_impl)] // inherent cmp shadows Ord::cmp
    impl<T, F: Fn(&T, &T) -> Ordering> PartialOrd for Wrapped<T, F> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<T, F: Fn(&T, &T) -> Ordering> Ord for Wrapped<T, F> {
        fn cmp(&self, other: &Self) -> Ordering {
            Wrapped::cmp(self, other)
        }
    }

    let mut readers: Vec<_> = runs.iter().map(|r| r.iter()).collect();
    let mut heap: BinaryHeap<Wrapped<T, F>> = BinaryHeap::new();
    let mut seq = 0u64;
    for (run, reader) in readers.iter_mut().enumerate() {
        if let Some(item) = reader.next() {
            heap.push(Wrapped {
                entry: HeapEntry {
                    item: item?,
                    run,
                    seq,
                },
                cmp,
            });
            seq += 1;
        }
    }
    let mut out = ListWriter::new(pager);
    while let Some(Wrapped { entry, .. }) = heap.pop() {
        out.push(&entry.item)?;
        if let Some(item) = readers[entry.run].next() {
            heap.push(Wrapped {
                entry: HeapEntry {
                    item: item?,
                    run: entry.run,
                    seq,
                },
                cmp,
            });
            seq += 1;
        }
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::OperandWriter;
    use crate::tiny_pager;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn sorts_random_input() {
        let pager = tiny_pager();
        let mut rng = StdRng::seed_from_u64(7);
        let items: Vec<u64> = (0..5000).map(|_| rng.gen_range(0..100_000)).collect();
        let list = PagedList::from_iter(&pager, items.clone()).unwrap();
        let sorted = external_sort(&pager, &list).unwrap();
        let mut expect = items;
        expect.sort();
        assert_eq!(sorted.to_vec().unwrap(), expect);
    }

    #[test]
    fn sorts_with_custom_comparator() {
        let pager = tiny_pager();
        let list = PagedList::from_iter(&pager, 0u64..1000).unwrap();
        let desc = external_sort_by(&pager, &list, ExtSortConfig { fan_in: 3 }, |a, b| {
            b.cmp(a)
        })
        .unwrap();
        let got = desc.to_vec().unwrap();
        let expect: Vec<u64> = (0..1000).rev().collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn empty_and_single() {
        let pager = tiny_pager();
        let empty: PagedList<u64> = PagedList::empty(&pager);
        assert!(external_sort(&pager, &empty).unwrap().is_empty());
        let one = PagedList::from_iter(&pager, [42u64]).unwrap();
        assert_eq!(external_sort(&pager, &one).unwrap().to_vec().unwrap(), [42]);
    }

    #[test]
    fn stability_for_equal_keys() {
        let pager = tiny_pager();
        // (key, original index); compare by key only.
        let items: Vec<(u64, u64)> = (0..2000).map(|i| (i % 7, i)).collect();
        let list = PagedList::from_iter(&pager, items).unwrap();
        let sorted = external_sort_by(&pager, &list, ExtSortConfig { fan_in: 3 }, |a, b| {
            a.0.cmp(&b.0)
        })
        .unwrap();
        let got = sorted.to_vec().unwrap();
        for w in got.windows(2) {
            assert!(w[0].0 <= w[1].0, "keys out of order");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "equal keys reordered: not stable");
            }
        }
    }

    #[test]
    fn oversized_fan_in_is_clamped_to_the_pool_budget() {
        // A caller asking for a 10_000-way merge on an 8-frame pool must
        // get the budget-respecting merge (frames − 2 = 6 runs at a
        // time), not a single pass that holds 10_000 decoded run pages
        // in memory at once.
        let pager = tiny_pager();
        let frames = pager.pool().capacity();
        let budget = frames - 2;
        let mut rng = StdRng::seed_from_u64(11);
        let items: Vec<u64> = (0..20_000).map(|_| rng.gen()).collect();
        let list = PagedList::from_iter(&pager, items.clone()).unwrap();
        pager.flush().unwrap();

        // Resident pages stay within the pool's frame budget *during*
        // the merge: the comparator runs on every heap operation of
        // every pass, so it observes the working set mid-merge.
        let greedy = ExtSortConfig { fan_in: 10_000 };
        pager.reset_io();
        let sorted = external_sort_by(&pager, &list, greedy, |a: &u64, b: &u64| {
            assert!(
                pager.pool().resident() <= frames,
                "merge holds {} resident pages on a {frames}-frame pool",
                pager.pool().resident()
            );
            a.cmp(b)
        })
        .unwrap();
        pager.flush().unwrap();
        let greedy_io = pager.io();

        let mut expect = items;
        expect.sort();
        assert_eq!(sorted.to_vec().unwrap(), expect);

        // The clamp is observable in the I/O ledger: run formation under
        // a 6-page buffer yields far more than `budget` runs, so a
        // budget-respecting sort needs at least two merge passes —
        // strictly more page traffic than the one-pass sort an
        // unclamped 10_000-way merge would do.
        let n_pages = list.num_pages();
        assert!(n_pages > budget as u64 * 2, "input too small to force runs");
        assert!(
            greedy_io.total() > 3 * n_pages,
            "io {} vs {n_pages} input pages: merge ran as a single pass, \
             fan_in was not clamped",
            greedy_io.total()
        );

        // And the clamped sort is *identical* in I/O shape to explicitly
        // asking for the budget.
        let fresh = tiny_pager();
        let list2 = PagedList::from_iter(&fresh, sorted.to_vec().unwrap()).unwrap();
        fresh.flush().unwrap();
        fresh.reset_io();
        external_sort_by(&fresh, &list2, ExtSortConfig { fan_in: 10_000 }, |a, b| a.cmp(b))
            .unwrap();
        let clamped = fresh.io();
        fresh.flush().unwrap();
        fresh.reset_io();
        external_sort_by(&fresh, &list2, ExtSortConfig { fan_in: budget }, |a, b| a.cmp(b))
            .unwrap();
        let explicit = fresh.io();
        assert_eq!(
            (clamped.reads, clamped.writes),
            (explicit.reads, explicit.writes),
            "clamped oversize fan_in must behave exactly like fan_in = frames - 2"
        );
    }

    #[test]
    fn io_grows_superlinearly_but_bounded() {
        // Sanity-check the N log N shape: pages touched per input page grows
        // with the number of merge passes.
        let pager = tiny_pager();
        let cfg = ExtSortConfig { fan_in: 2 };
        let mut rng = StdRng::seed_from_u64(3);
        let items: Vec<u64> = (0..20_000).map(|_| rng.gen()).collect();
        let list = PagedList::from_iter(&pager, items).unwrap();
        pager.flush().unwrap();
        pager.reset_io();
        let sorted = external_sort_by(&pager, &list, cfg, |a, b| a.cmp(b)).unwrap();
        pager.flush().unwrap();
        let io = pager.io();
        let n_pages = list.num_pages();
        // At least two passes happened.
        assert!(io.total() > 3 * n_pages, "io {} vs pages {n_pages}", io.total());
        // But bounded by ~2 * passes * pages with passes <= log2(runs)+1.
        assert!(io.total() < 60 * n_pages);
        assert_eq!(sorted.len(), list.len());
    }

    #[test]
    fn input_that_fits_sorts_in_memory_like_the_paged_path() {
        // (key, original index) pairs: any instability would show.
        let mut rng = StdRng::seed_from_u64(23);
        let items: Vec<(u64, u64)> = (0..400).map(|i| (rng.gen_range(0..20), i)).collect();
        let by_key = |a: &(u64, u64), b: &(u64, u64)| a.0.cmp(&b.0);
        let cfg = ExtSortConfig { fan_in: 3 };
        // The paged path: no budget free.
        let paged = tiny_pager();
        let list = PagedList::from_iter(&paged, items.clone()).unwrap();
        let all = paged.reserve(paged.run_budget()).unwrap();
        let external = external_sort_by(&paged, list, cfg, by_key).unwrap();
        assert!(matches!(external, Operand::List(_)));
        drop(all);
        // In memory: a run in, a run out, and not one page touched.
        let roomy = Pager::new(4096, 8);
        let mut w = OperandWriter::new(&roomy);
        for item in &items {
            w.push(item).unwrap();
        }
        let run = w.finish().unwrap();
        let sorted = external_sort_by(&roomy, run, cfg, by_key).unwrap();
        assert!(matches!(sorted, Operand::Run(_)));
        let pool = roomy.pool().metrics();
        assert_eq!((pool.hits + pool.misses, roomy.io().allocs), (0, 0));
        assert_eq!(sorted.to_vec().unwrap(), external.to_vec().unwrap());
        // The input's bytes went back before the output took its own.
        assert_eq!(roomy.run_bytes_peak(), roomy.run_bytes_held());
        // A list that fits the budget sorts in memory too: read once.
        let small = PagedList::from_iter(&roomy, items.clone()).unwrap();
        roomy.reset_io();
        let from_list = external_sort_by(&roomy, small, cfg, by_key).unwrap();
        assert!(matches!(from_list, Operand::Run(_)));
        assert_eq!(roomy.io().allocs, 0);
        assert_eq!(from_list.to_vec().unwrap(), external.to_vec().unwrap());
    }
}

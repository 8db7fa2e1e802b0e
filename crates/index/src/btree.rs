//! A bulk-loaded, paged, static B+-tree over `(i64, Posting)` pairs.
//!
//! One tree per integer attribute turns the paper's integer comparison
//! filters (`SLARulePriority < 3`) into a leaf-range scan: `O(1 + t/B)`
//! page reads for `t` matches — the "B-trees indices for integer …
//! filters" of Section 4.1.
//!
//! The tree is built once from sorted pairs (directories here are loaded,
//! then queried; updates go through a rebuild). Its leaves are pages of
//! sorted `(key: i64, id: u64)` pairs, 16 bytes each, after the pager
//! layer's 4-byte count header. The inner levels are held in memory as
//! each leaf's first key — a fence key, as the DN table keeps its sort
//! keys — so finding the leaves of an interval reads no page, and the
//! walk reads exactly the leaves it sizes.

use crate::Posting;
use netdir_pager::{PagerError, PagerResult, Pager, PAGE_HEADER_BYTES};

const PAIR_BYTES: usize = 16;

/// A static B+-tree. Keys are `i64`, payloads are postings; duplicate
/// keys are fine (the posting disambiguates).
pub struct StaticBTree {
    pager: Pager,
    /// The leaf pages, in key order.
    leaves: Vec<netdir_pager::PageId>,
    /// First key of each leaf (in-memory metadata, like the DN table's
    /// keys): finds and sizes a key interval without reading a page.
    leaf_first_keys: Vec<i64>,
    per_page: usize,
    len: u64,
}

impl StaticBTree {
    /// Bulk-load from pairs sorted by `(key, id)`.
    pub fn build(pager: &Pager, pairs: &[(i64, Posting)]) -> PagerResult<StaticBTree> {
        debug_assert!(pairs.windows(2).all(|w| w[0] <= w[1]), "input must be sorted");
        let per_page = (pager.payload_size() / PAIR_BYTES).max(2);

        let mut leaves = Vec::new();
        let mut leaf_first_keys = Vec::new();
        for chunk in pairs.chunks(per_page) {
            leaves.push(write_pairs_page(pager, chunk)?);
            leaf_first_keys.push(chunk[0].0);
        }

        Ok(StaticBTree {
            pager: pager.clone(),
            leaves,
            leaf_first_keys,
            per_page,
            len: pairs.len() as u64,
        })
    }

    /// Number of indexed pairs.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True iff no pairs are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The number of pairs on the leaves [`StaticBTree::range`] walks
    /// for `[lo, hi]`, from in-memory metadata alone: exactly the
    /// postings it reads, and so an upper bound on what it returns.
    pub fn range_bound(&self, lo: i64, hi: i64) -> u64 {
        let leaves = self.leaves(lo, hi);
        // Leaves are full but for the last.
        let pairs_before = |leaf: usize| (leaf as u64 * self.per_page as u64).min(self.len);
        pairs_before(leaves.end) - pairs_before(leaves.start)
    }

    /// The leaves that can hold a key in `[lo, hi]`, from the in-memory
    /// leaf fence keys.
    fn leaves(&self, lo: i64, hi: i64) -> std::ops::Range<usize> {
        if lo > hi {
            return 0..0;
        }
        // Duplicates of `lo` may start on the leaf before the first one
        // whose first key reaches it.
        let first = self
            .leaf_first_keys
            .partition_point(|&k| k < lo)
            .saturating_sub(1);
        let end = self.leaf_first_keys.partition_point(|&k| k <= hi);
        first..end.max(first)
    }

    /// The ids whose key lies in `[lo, hi]` (inclusive) and that fall
    /// `within` a window of postings, in key order; the window is
    /// applied during the leaf walk, so nothing outside it is collected.
    /// Also returns the number of postings the walk read: exactly
    /// [`StaticBTree::range_bound`].
    pub fn range(
        &self,
        lo: i64,
        hi: i64,
        within: std::ops::Range<Posting>,
    ) -> PagerResult<(Vec<Posting>, u64)> {
        let mut out = Vec::new();
        let mut read = 0u64;
        // The leaves the fence keys select, in order: up to the first
        // whose first key is past `hi`.
        for &leaf in &self.leaves[self.leaves(lo, hi)] {
            let entries = read_pairs_page(&self.pager, leaf)?;
            read += entries.len() as u64;
            out.extend(
                entries
                    .into_iter()
                    .filter(|&(k, id)| lo <= k && k <= hi && within.contains(&id))
                    .map(|(_, id)| id),
            );
        }
        Ok((out, read))
    }
}

fn write_pairs_page(pager: &Pager, pairs: &[(i64, u64)]) -> PagerResult<netdir_pager::PageId> {
    let page = pager.pool().allocate();
    let guard = pager.pool().fetch_zeroed(page)?;
    guard.with_mut(|data| {
        data[..4].copy_from_slice(&(pairs.len() as u32).to_le_bytes());
        let mut pos = PAGE_HEADER_BYTES;
        for &(k, v) in pairs {
            data[pos..pos + 8].copy_from_slice(&k.to_le_bytes());
            data[pos + 8..pos + 16].copy_from_slice(&v.to_le_bytes());
            pos += PAIR_BYTES;
        }
    });
    Ok(page)
}

fn read_pairs_page(pager: &Pager, page: netdir_pager::PageId) -> PagerResult<Vec<(i64, u64)>> {
    let guard = pager.pool().fetch(page)?;
    guard.with(|data| {
        let count = u32::from_le_bytes(data[..4].try_into().unwrap()) as usize;
        let mut out = Vec::with_capacity(count);
        let mut pos = PAGE_HEADER_BYTES;
        for _ in 0..count {
            if pos + PAIR_BYTES > data.len() {
                return Err(PagerError::CorruptPage {
                    page,
                    detail: "pair past page end".into(),
                });
            }
            let k = i64::from_le_bytes(data[pos..pos + 8].try_into().unwrap());
            let v = u64::from_le_bytes(data[pos + 8..pos + 16].try_into().unwrap());
            out.push((k, v));
            pos += PAIR_BYTES;
        }
        Ok(out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdir_pager::tiny_pager;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Every id keyed in `[lo, hi]`, checking that the walk reads
    /// exactly the postings `range_bound` promised.
    fn walk(t: &StaticBTree, lo: i64, hi: i64) -> Vec<Posting> {
        let (ids, read) = t.range(lo, hi, 0..Posting::MAX).unwrap();
        assert_eq!(read, t.range_bound(lo, hi), "[{lo},{hi}]");
        ids
    }

    fn build(pairs: &[(i64, Posting)]) -> (StaticBTree, Pager) {
        let pager = tiny_pager();
        let t = StaticBTree::build(&pager, pairs).unwrap();
        (t, pager)
    }

    #[test]
    fn empty_tree() {
        let (t, _) = build(&[]);
        assert!(t.is_empty());
        assert!(t.leaves.is_empty());
        assert_eq!(walk(&t, i64::MIN, i64::MAX), Vec::<u64>::new());
    }

    #[test]
    fn small_lookups() {
        let pairs: Vec<(i64, u64)> = vec![(1, 10), (2, 20), (2, 21), (5, 50)];
        let (t, _) = build(&pairs);
        assert_eq!(walk(&t, 2, 2), vec![20, 21]);
        assert_eq!(walk(&t, 3, 3), Vec::<u64>::new());
        assert_eq!(walk(&t, 2, 5), vec![20, 21, 50]);
        assert_eq!(walk(&t, i64::MIN, 1), vec![10]);
        assert_eq!(walk(&t, 3, i64::MAX), vec![50]);
    }

    #[test]
    fn multilevel_tree_against_oracle() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut pairs: Vec<(i64, u64)> = (0..5000u64)
            .map(|id| (rng.gen_range(-1000..1000), id))
            .collect();
        pairs.sort();
        let (t, _) = build(&pairs);
        assert!(t.leaves.len() > t.per_page, "an inner level would need two pages");
        for (lo, hi) in [(-1000, 1000), (0, 0), (-50, 70), (999, 1200), (-2000, -1001)] {
            let expect: Vec<u64> = pairs
                .iter()
                .filter(|&&(k, _)| k >= lo && k <= hi)
                .map(|&(_, id)| id)
                .collect();
            assert_eq!(walk(&t, lo, hi), expect, "range [{lo},{hi}]");
            // The in-memory bound holds and is tight to a leaf or two.
            let bound = t.range_bound(lo, hi);
            assert!(bound >= expect.len() as u64, "bound [{lo},{hi}]");
            assert!(bound <= expect.len() as u64 + 3 * t.per_page as u64);
        }
    }

    #[test]
    fn range_io_is_logarithmic_plus_output() {
        let pairs: Vec<(i64, u64)> = (0..100_000u64).map(|i| (i as i64, i)).collect();
        let pager = tiny_pager();
        let t = StaticBTree::build(&pager, &pairs).unwrap();
        pager.flush().unwrap();
        pager.pool().clear_cache().unwrap();
        pager.reset_io();
        let hits = walk(&t, 50_000, 50_010);
        assert_eq!(hits.len(), 11);
        // The fence keys find the leaves in memory: the walk reads the
        // two or three leaves the interval's keys can lie on, and no
        // inner page, out of thousands.
        let io = pager.io();
        assert!(t.leaves.len() > 1_000, "{} leaves", t.leaves.len());
        assert!(io.reads <= 3, "point-ish range read {} pages", io.reads);
    }

    #[test]
    fn heavy_duplicates_spanning_many_leaves() {
        // Regression: duplicates of one key filling multiple leaves once
        // made the walk start past the first leaf of the run.
        let mut pairs: Vec<(i64, u64)> = Vec::new();
        for id in 0..3000u64 {
            pairs.push(((id % 7) as i64 + 1, id));
        }
        pairs.sort();
        let (t, _) = build(&pairs);
        assert!(t.leaves.len() > 2);
        for key in 1..=7i64 {
            let expect: Vec<u64> = pairs
                .iter()
                .filter(|&&(k, _)| k == key)
                .map(|&(_, id)| id)
                .collect();
            assert_eq!(walk(&t, key, key), expect, "key {key}");
            assert!(t.range_bound(key, key) >= expect.len() as u64);
        }
        let expect_3_5 = pairs.iter().filter(|&&(k, _)| (3..=5).contains(&k)).count();
        assert_eq!(walk(&t, 3, 5).len(), expect_3_5);
        assert_eq!(walk(&t, 1, 7).len(), 3000);
    }

    #[test]
    fn the_window_cuts_postings_during_the_walk() {
        let mut pairs: Vec<(i64, u64)> = (0..2000u64).map(|id| ((id % 10) as i64, id)).collect();
        pairs.sort();
        let (t, _) = build(&pairs);
        let (ids, read) = t.range(3, 4, 500..700).unwrap();
        let expect: Vec<u64> = pairs
            .iter()
            .filter(|&&(k, id)| (3..=4).contains(&k) && (500..700).contains(&id))
            .map(|&(_, id)| id)
            .collect();
        assert_eq!(ids, expect);
        // The walk still reads every posting keyed in the interval.
        assert_eq!(read, t.range_bound(3, 4));
        assert!(read >= 400, "{read}");
    }

    #[test]
    fn boundary_keys() {
        let pairs = vec![(i64::MIN, 1u64), (0, 2), (i64::MAX, 3)];
        let (t, _) = build(&pairs);
        assert_eq!(walk(&t, i64::MIN, i64::MAX), vec![1, 2, 3]);
        assert_eq!(walk(&t, i64::MIN, i64::MIN), vec![1]);
        assert_eq!(walk(&t, i64::MAX, i64::MAX), vec![3]);
        assert_eq!(t.range_bound(i64::MIN, i64::MAX), 3);
        assert_eq!(t.range_bound(1, 0), 0);
    }
}

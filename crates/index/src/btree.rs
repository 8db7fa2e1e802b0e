//! A bulk-loaded, paged, static B+-tree over `(i64, Posting)` pairs.
//!
//! One tree per integer attribute turns the paper's integer comparison
//! filters (`SLARulePriority < 3`) into a descent plus a leaf-range scan:
//! `O(height + t/B)` page reads for `t` matches — the "B-trees indices for
//! integer … filters" of Section 4.1.
//!
//! The tree is built once from sorted pairs (directories here are loaded,
//! then queried; updates go through a rebuild). Layout:
//!
//! * **Leaf pages** — sorted `(key: i64, id: u64)` pairs, 16 bytes each.
//! * **Internal pages** — `(first_key_of_child, child_page)` pairs, built
//!   level by level until one root remains.
//!
//! Page format: 4-byte count header (provided by the pager layer's
//! convention), then fixed-width pairs; internal and leaf pages share the
//! shape, distinguished by level.

use crate::Posting;
use netdir_pager::{PagerError, PagerResult, Pager, PAGE_HEADER_BYTES};

const PAIR_BYTES: usize = 16;

/// A static B+-tree. Keys are `i64`, payloads are postings; duplicate
/// keys are fine (the posting disambiguates).
pub struct StaticBTree {
    pager: Pager,
    /// Levels bottom-up: `levels[0]` = leaf pages, last = root level
    /// (single page). Page ids per level, in key order.
    levels: Vec<Vec<netdir_pager::PageId>>,
    /// First key of each leaf (in-memory metadata, like the DN table's
    /// keys): sizes a key interval without reading a page.
    leaf_first_keys: Vec<i64>,
    per_page: usize,
    len: u64,
}

impl StaticBTree {
    /// Bulk-load from pairs sorted by `(key, id)`.
    pub fn build(pager: &Pager, pairs: &[(i64, Posting)]) -> PagerResult<StaticBTree> {
        debug_assert!(pairs.windows(2).all(|w| w[0] <= w[1]), "input must be sorted");
        let per_page = (pager.payload_size() / PAIR_BYTES).max(2);

        // Leaf level.
        let mut levels: Vec<Vec<netdir_pager::PageId>> = Vec::new();
        let mut current: Vec<(i64, u64)> = Vec::new(); // (separator key, page id)
        {
            let mut leaf_pages = Vec::new();
            for chunk in pairs.chunks(per_page) {
                let page = write_pairs_page(
                    pager,
                    chunk.iter().map(|&(k, id)| (k, id)),
                    chunk.len(),
                )?;
                current.push((chunk[0].0, page));
                leaf_pages.push(page);
            }
            levels.push(leaf_pages);
        }
        let leaf_first_keys = current.iter().map(|&(k, _)| k).collect();

        // Internal levels until one page remains.
        while current.len() > 1 {
            let mut next: Vec<(i64, u64)> = Vec::new();
            let mut level_pages = Vec::new();
            for chunk in current.chunks(per_page) {
                let page = write_pairs_page(
                    pager,
                    chunk.iter().map(|&(k, child)| (k, child)),
                    chunk.len(),
                )?;
                next.push((chunk[0].0, page));
                level_pages.push(page);
            }
            levels.push(level_pages);
            current = next;
        }

        Ok(StaticBTree {
            pager: pager.clone(),
            levels,
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

    /// Tree height in levels (0 for an empty tree).
    pub fn height(&self) -> usize {
        if self.len == 0 {
            0
        } else {
            self.levels.len()
        }
    }

    /// An upper bound on `range(lo, hi).len()` from in-memory metadata
    /// alone: the capacity of the leaves the interval can touch.
    pub fn range_bound(&self, lo: i64, hi: i64) -> u64 {
        if lo > hi {
            return 0;
        }
        // Duplicates of `lo` may start on the leaf before the first one
        // whose first key reaches it.
        let first = self
            .leaf_first_keys
            .partition_point(|&k| k < lo)
            .saturating_sub(1);
        let end = self.leaf_first_keys.partition_point(|&k| k <= hi);
        (end.saturating_sub(first) as u64 * self.per_page as u64).min(self.len)
    }

    /// All ids whose key lies in `[lo, hi]` (inclusive), in key order.
    pub fn range(&self, lo: i64, hi: i64) -> PagerResult<Vec<Posting>> {
        let mut out = Vec::new();
        if self.len == 0 || lo > hi {
            return Ok(out);
        }
        // Descend to the first leaf that can contain `lo`.
        let mut leaf_idx = 0usize;
        if self.levels.len() > 1 {
            // Start from the root level and narrow down the child index.
            let mut page = *self.levels.last().expect("non-empty levels").first().unwrap();
            for _level in (1..self.levels.len()).rev() {
                let entries = read_pairs_page(&self.pager, page)?;
                // First child that can contain `lo`: duplicates of a key
                // may span several children, and a child's separator is
                // its *first* key — so descend into the last child whose
                // separator is strictly below `lo` (children at or after
                // it may all start with `lo` itself).
                let pos = entries.partition_point(|&(k, _)| k < lo);
                let child_slot = pos.saturating_sub(1);
                let child = entries[child_slot].1;
                // Find the child's index within the level below to allow
                // subsequent sequential leaf walks.
                page = child;
                if _level == 1 {
                    leaf_idx = self.levels[0]
                        .iter()
                        .position(|&p| p == child)
                        .expect("child is a leaf of this tree");
                }
            }
        }
        // Sequential leaf scan from leaf_idx.
        for &leaf in &self.levels[0][leaf_idx..] {
            let entries = read_pairs_page(&self.pager, leaf)?;
            let mut past_end = false;
            for (k, id) in entries {
                if k < lo {
                    continue;
                }
                if k > hi {
                    past_end = true;
                    break;
                }
                out.push(id);
            }
            if past_end {
                break;
            }
        }
        Ok(out)
    }
}

fn write_pairs_page(
    pager: &Pager,
    pairs: impl Iterator<Item = (i64, u64)>,
    count: usize,
) -> PagerResult<netdir_pager::PageId> {
    let page = pager.pool().allocate();
    let guard = pager.pool().fetch_zeroed(page)?;
    guard.with_mut(|data| {
        data[..4].copy_from_slice(&(count as u32).to_le_bytes());
        let mut pos = PAGE_HEADER_BYTES;
        for (k, v) in pairs {
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

    fn build(pairs: &[(i64, Posting)]) -> (StaticBTree, Pager) {
        let pager = tiny_pager();
        let t = StaticBTree::build(&pager, pairs).unwrap();
        (t, pager)
    }

    #[test]
    fn empty_tree() {
        let (t, _) = build(&[]);
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert_eq!(t.range(i64::MIN, i64::MAX).unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn small_lookups() {
        let pairs: Vec<(i64, u64)> = vec![(1, 10), (2, 20), (2, 21), (5, 50)];
        let (t, _) = build(&pairs);
        assert_eq!(t.range(2, 2).unwrap(), vec![20, 21]);
        assert_eq!(t.range(3, 3).unwrap(), Vec::<u64>::new());
        assert_eq!(t.range(2, 5).unwrap(), vec![20, 21, 50]);
        assert_eq!(t.range(i64::MIN, 1).unwrap(), vec![10]);
        assert_eq!(t.range(3, i64::MAX).unwrap(), vec![50]);
    }

    #[test]
    fn multilevel_tree_against_oracle() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut pairs: Vec<(i64, u64)> = (0..5000u64)
            .map(|id| (rng.gen_range(-1000..1000), id))
            .collect();
        pairs.sort();
        let (t, _) = build(&pairs);
        assert!(t.height() >= 2, "tree should have internal levels");
        for (lo, hi) in [(-1000, 1000), (0, 0), (-50, 70), (999, 1200), (-2000, -1001)] {
            let expect: Vec<u64> = pairs
                .iter()
                .filter(|&&(k, _)| k >= lo && k <= hi)
                .map(|&(_, id)| id)
                .collect();
            assert_eq!(t.range(lo, hi).unwrap(), expect, "range [{lo},{hi}]");
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
        let hits = t.range(50_000, 50_010).unwrap();
        assert_eq!(hits.len(), 11);
        let io = pager.io();
        // Descent (height) + a couple of leaves; far less than a full scan.
        assert!(
            io.reads <= (t.height() as u64) + 3,
            "point-ish range read {} pages (height {})",
            io.reads,
            t.height()
        );
    }

    #[test]
    fn heavy_duplicates_spanning_many_leaves() {
        // Regression: duplicates of one key filling multiple leaves used
        // to make the descent land past the first leaf of the run.
        let mut pairs: Vec<(i64, u64)> = Vec::new();
        for id in 0..3000u64 {
            pairs.push(((id % 7) as i64 + 1, id));
        }
        pairs.sort();
        let (t, _) = build(&pairs);
        assert!(t.height() >= 2);
        for key in 1..=7i64 {
            let expect: Vec<u64> = pairs
                .iter()
                .filter(|&&(k, _)| k == key)
                .map(|&(_, id)| id)
                .collect();
            assert_eq!(t.range(key, key).unwrap(), expect, "key {key}");
            assert!(t.range_bound(key, key) >= expect.len() as u64);
        }
        let expect_3_5 = pairs.iter().filter(|&&(k, _)| (3..=5).contains(&k)).count();
        assert_eq!(t.range(3, 5).unwrap().len(), expect_3_5);
        assert_eq!(t.range(1, 7).unwrap().len(), 3000);
    }

    #[test]
    fn boundary_keys() {
        let pairs = vec![(i64::MIN, 1u64), (0, 2), (i64::MAX, 3)];
        let (t, _) = build(&pairs);
        assert_eq!(t.range(i64::MIN, i64::MAX).unwrap(), vec![1, 2, 3]);
        assert_eq!(t.range(i64::MIN, i64::MIN).unwrap(), vec![1]);
        assert_eq!(t.range(i64::MAX, i64::MAX).unwrap(), vec![3]);
        assert_eq!(t.range_bound(i64::MIN, i64::MAX), 3);
        assert_eq!(t.range_bound(1, 0), 0);
    }
}

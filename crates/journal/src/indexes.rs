//! Incremental maintenance of the attribute indices.
//!
//! Mirrors the index set `IndexedDirectory` builds statically — tries
//! for equality, B-trees for integer comparisons, suffix indexes for
//! substrings, a presence map, and the id → sort-key table used for
//! scope filtering — but maintained entry-by-entry as mutations land.
//! Probe semantics are kept identical so query plans behave the same
//! against a live store as against a bulk-loaded one: candidates may
//! over-approximate (they are verified at fetch), never miss.

use netdir_filter::atomic::IntOp;
use netdir_filter::AtomicFilter;
use netdir_index::{LiveIntIndex, LiveSuffixIndex, Trie};
use netdir_model::{AttrName, Entry, EntryId, SortKey, Value};
use netdir_pager::{Pager, PagerResult};
use std::collections::BTreeMap;

/// The live composite index over all attributes.
pub struct LiveIndexes {
    pager: Pager,
    ints: BTreeMap<AttrName, LiveIntIndex>,
    tries: BTreeMap<AttrName, Trie>,
    suffixes: BTreeMap<AttrName, LiveSuffixIndex>,
    presence: BTreeMap<AttrName, Vec<EntryId>>,
    keys: BTreeMap<EntryId, SortKey>,
}

impl LiveIndexes {
    /// Empty indexes; int-index compactions spill through `pager`.
    pub fn new(pager: &Pager) -> LiveIndexes {
        LiveIndexes {
            pager: pager.clone(),
            ints: BTreeMap::new(),
            tries: BTreeMap::new(),
            suffixes: BTreeMap::new(),
            presence: BTreeMap::new(),
            keys: BTreeMap::new(),
        }
    }

    /// Build from existing entries (the bootstrap path).
    pub fn build<'a>(
        pager: &Pager,
        entries: impl Iterator<Item = &'a Entry>,
    ) -> PagerResult<LiveIndexes> {
        let mut idx = LiveIndexes::new(pager);
        for e in entries {
            idx.insert_entry(e)?;
        }
        Ok(idx)
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True iff no entries are indexed.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The sort key of an indexed entry.
    pub fn key_of(&self, id: EntryId) -> Option<&SortKey> {
        self.keys.get(&id)
    }

    /// Index every pair of `entry` (pairs are sorted by attribute, as
    /// the builder guarantees).
    pub fn insert_entry(&mut self, entry: &Entry) -> PagerResult<()> {
        self.keys.insert(entry.id(), entry.dn().sort_key().clone());
        let pager = &self.pager;
        let mut seen: Option<&AttrName> = None;
        for (a, v) in entry.pairs() {
            if seen != Some(a) {
                seen = Some(a);
                let ids = self.presence.entry(a.clone()).or_default();
                if let Err(pos) = ids.binary_search(&entry.id()) {
                    ids.insert(pos, entry.id());
                }
            }
            let canonical = v.canonical();
            self.tries
                .entry(a.clone())
                .or_default()
                .insert(&canonical, entry.id());
            self.suffixes
                .entry(a.clone())
                .or_default()
                .insert(&canonical, entry.id());
            if let Value::Int(i) = v {
                self.ints
                    .entry(a.clone())
                    .or_insert_with(|| LiveIntIndex::new(pager))
                    .insert(*i, entry.id())?;
            }
        }
        Ok(())
    }

    /// Un-index every pair of `entry` (the exact inverse of
    /// [`Self::insert_entry`] with the same entry).
    pub fn remove_entry(&mut self, entry: &Entry) -> PagerResult<()> {
        self.keys.remove(&entry.id());
        let mut seen: Option<&AttrName> = None;
        for (a, v) in entry.pairs() {
            if seen != Some(a) {
                seen = Some(a);
                if let Some(ids) = self.presence.get_mut(a.canonical()) {
                    if let Ok(pos) = ids.binary_search(&entry.id()) {
                        ids.remove(pos);
                    }
                    if ids.is_empty() {
                        self.presence.remove(a.canonical());
                    }
                }
            }
            let canonical = v.canonical();
            if let Some(t) = self.tries.get_mut(a.canonical()) {
                t.remove(&canonical, entry.id());
                if t.is_empty() {
                    self.tries.remove(a.canonical());
                }
            }
            if let Some(s) = self.suffixes.get_mut(a.canonical()) {
                s.remove(&canonical, entry.id());
            }
            if let Value::Int(i) = v {
                if let Some(tree) = self.ints.get_mut(a.canonical()) {
                    tree.remove(*i, entry.id())?;
                }
            }
        }
        Ok(())
    }

    /// Candidate entry ids for `filter`, or `None` when no index
    /// applies. Candidates are verified against the filter at fetch.
    pub fn probe(&self, filter: &AtomicFilter) -> Option<Vec<EntryId>> {
        match filter {
            AtomicFilter::True => None,
            // Constant false: the empty candidate list, no scan needed.
            AtomicFilter::False => Some(Vec::new()),
            AtomicFilter::Present(a) => Some(
                self.presence
                    .get(a.canonical())
                    .cloned()
                    .unwrap_or_default(),
            ),
            AtomicFilter::Eq(a, v) => Some(
                self.tries
                    .get(a.canonical())
                    .map(|t| t.lookup_exact(v))
                    .unwrap_or_default(),
            ),
            AtomicFilter::DnEq(a, dn) => Some(
                self.tries
                    .get(a.canonical())
                    .map(|t| t.lookup_exact(&dn.canonical()))
                    .unwrap_or_default(),
            ),
            AtomicFilter::Substring(a, pat) => {
                let frag = pat
                    .initial
                    .as_deref()
                    .into_iter()
                    .chain(pat.any.iter().map(String::as_str))
                    .chain(pat.final_.as_deref())
                    .max_by_key(|s| s.len())?;
                Some(
                    self.suffixes
                        .get(a.canonical())
                        .map(|s| s.contains(frag))
                        .unwrap_or_default(),
                )
            }
            AtomicFilter::IntCmp(a, op, v) => {
                let tree = self.ints.get(a.canonical())?;
                let ids = match op {
                    IntOp::Lt => tree.below(*v, false),
                    IntOp::Le => tree.below(*v, true),
                    IntOp::Gt => tree.above(*v, false),
                    IntOp::Ge => tree.above(*v, true),
                    IntOp::Eq => tree.lookup(*v),
                };
                match ids {
                    Ok(mut ids) => {
                        ids.sort_unstable();
                        ids.dedup();
                        Some(ids)
                    }
                    Err(_) => None,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdir_model::Dn;
    use netdir_pager::tiny_pager;

    fn dn(s: &str) -> Dn {
        Dn::parse(s).unwrap()
    }

    fn e(i: u64, sur: &str, pri: i64) -> Entry {
        let mut entry = Entry::builder(dn(&format!("uid=u{i}, dc=com")))
            .class("person")
            .attr("surName", sur)
            .attr("priority", pri)
            .build()
            .unwrap();
        // Tests drive ids directly; the store normally assigns them via
        // the directory.
        entry = {
            let mut d = netdir_model::Directory::new();
            for k in 0..i {
                d.insert(
                    Entry::builder(dn(&format!("uid=pad{k}, dc=org")))
                        .class("thing")
                        .build()
                        .unwrap(),
                )
                .unwrap();
            }
            let id = d.insert(entry).unwrap();
            d.get(id).unwrap().clone()
        };
        entry
    }

    #[test]
    fn insert_then_probe_matches_filters() {
        let pager = tiny_pager();
        let mut idx = LiveIndexes::new(&pager);
        let a = e(0, "jagadish", 2);
        let b = e(1, "srivastava", 5);
        idx.insert_entry(&a).unwrap();
        idx.insert_entry(&b).unwrap();

        assert_eq!(
            idx.probe(&AtomicFilter::eq("surName", "jagadish")),
            Some(vec![a.id()])
        );
        assert_eq!(
            idx.probe(&AtomicFilter::present("priority")),
            Some(vec![a.id(), b.id()])
        );
        assert_eq!(
            idx.probe(&AtomicFilter::int_cmp("priority", IntOp::Lt, 3)),
            Some(vec![a.id()])
        );
        assert_eq!(idx.probe(&AtomicFilter::True), None);
        let sub = netdir_filter::parse_atomic("surName=*vast*").unwrap();
        assert_eq!(idx.probe(&sub), Some(vec![b.id()]));
    }

    #[test]
    fn remove_is_the_inverse_of_insert() {
        let pager = tiny_pager();
        let mut idx = LiveIndexes::new(&pager);
        let a = e(0, "jagadish", 2);
        let b = e(1, "milo", 9);
        idx.insert_entry(&a).unwrap();
        idx.insert_entry(&b).unwrap();
        idx.remove_entry(&a).unwrap();

        assert_eq!(idx.len(), 1);
        assert_eq!(
            idx.probe(&AtomicFilter::eq("surName", "jagadish")),
            Some(vec![])
        );
        assert_eq!(
            idx.probe(&AtomicFilter::present("priority")),
            Some(vec![b.id()])
        );
        assert_eq!(
            idx.probe(&AtomicFilter::int_cmp("priority", IntOp::Eq, 2)),
            Some(vec![])
        );
        assert!(idx.key_of(a.id()).is_none());
        assert!(idx.key_of(b.id()).is_some());
    }

    #[test]
    fn modify_as_remove_plus_insert() {
        let pager = tiny_pager();
        let mut idx = LiveIndexes::new(&pager);
        let old = e(3, "before", 1);
        idx.insert_entry(&old).unwrap();
        // Same id, new values.
        let mut d = netdir_model::Directory::new();
        for k in 0..3 {
            d.insert(
                Entry::builder(dn(&format!("uid=pad{k}, dc=org")))
                    .class("thing")
                    .build()
                    .unwrap(),
            )
            .unwrap();
        }
        let id = d
            .insert(
                Entry::builder(dn("uid=u3, dc=com"))
                    .class("person")
                    .attr("surName", "after")
                    .attr("priority", 8i64)
                    .build()
                    .unwrap(),
            )
            .unwrap();
        let new = d.get(id).unwrap().clone();
        idx.remove_entry(&old).unwrap();
        idx.insert_entry(&new).unwrap();

        assert_eq!(idx.probe(&AtomicFilter::eq("surName", "before")), Some(vec![]));
        assert_eq!(
            idx.probe(&AtomicFilter::eq("surName", "after")),
            Some(vec![new.id()])
        );
        assert_eq!(
            idx.probe(&AtomicFilter::int_cmp("priority", IntOp::Ge, 5)),
            Some(vec![new.id()])
        );
    }
}

//! A zone's sorted delta: the DNs written since its base table was built.
//!
//! A base table is immutable and expensive to build; a delta is the
//! small, sorted list of what changed on top of it, one record per
//! touched DN in reverse-DN key order. A record holds either the entry
//! now stored under its DN, with the entry's frozen [`Record::encode`]
//! image (the bytes a hit ships), or a tombstone for a base entry that
//! was deleted. Reads merge the delta into the base's hits
//! ([`IndexedDirectory::visit_atomic`](crate::IndexedDirectory::visit_atomic)):
//! where both hold a DN, the delta wins.
//!
//! Records are immutable and shared by the deltas of successive
//! generations, so extending a delta copies pointers, never entries.

use crate::dn_table::{RawHit, ScopeRange};
use netdir_filter::Scope;
use netdir_model::{Dn, Entry};
use netdir_pager::record::Record;
use std::sync::Arc;

/// One DN of a delta.
pub struct DeltaRecord {
    key: Vec<u8>,
    /// The entry stored under the DN and its image; `None` is a
    /// tombstone.
    upsert: Option<(Entry, Vec<u8>)>,
    /// Whether the base table holds the DN (its record is then
    /// shadowed). A tombstone always shadows one.
    in_base: bool,
}

impl DeltaRecord {
    /// The DN's sort key.
    pub fn key(&self) -> &[u8] {
        &self.key
    }

    /// The entry stored under the DN; `None` for a tombstone.
    pub fn entry(&self) -> Option<&Entry> {
        self.upsert.as_ref().map(|(e, _)| e)
    }

    /// The record as a hit, unless it is a tombstone.
    fn hit(&self) -> Option<RawHit<'_>> {
        let (_, image) = self.upsert.as_ref()?;
        Some(RawHit::encoded(&self.key, image.clone()))
    }
}

/// One DN a batch wrote, as a zone sees it.
pub struct DeltaWrite<'a> {
    /// The DN.
    pub dn: &'a Dn,
    /// The entry now stored under it; `None` once deleted.
    pub entry: Option<&'a Entry>,
    /// Whether the zone held the DN before the batch.
    pub existed: bool,
}

/// A key-sorted list of [`DeltaRecord`]s, one per DN. Cloning shares
/// it.
#[derive(Clone, Default)]
pub struct Delta {
    records: Arc<[Arc<DeltaRecord>]>,
}

impl Delta {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True iff the delta holds no record.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records, in key order.
    pub fn records(&self) -> impl Iterator<Item = &DeltaRecord> + '_ {
        self.records.iter().map(|r| &**r)
    }

    /// This delta with `writes` applied: `O(|writes| log |writes| +
    /// |self|)`, and only the written DNs' records are built. A DN the
    /// base never held leaves no tombstone when deleted.
    pub fn with(&self, mut writes: Vec<DeltaWrite<'_>>) -> Delta {
        writes.sort_by(|a, b| a.dn.sort_key().cmp(b.dn.sort_key()));
        writes.dedup_by(|a, b| a.dn.sort_key() == b.dn.sort_key());
        let mut out = Vec::with_capacity(self.len() + writes.len());
        let mut old = self.records.iter().peekable();
        for w in writes {
            let key = w.dn.sort_key().as_bytes();
            while let Some(r) = old.next_if(|r| r.key() < key) {
                out.push(Arc::clone(r));
            }
            // With no record yet, the zone's view of the DN is the base's.
            let in_base = old
                .next_if(|r| r.key() == key)
                .map_or(w.existed, |r| r.in_base);
            let upsert = w.entry.map(|e| {
                let mut image = Vec::new();
                e.encode(&mut image);
                (e.clone(), image)
            });
            if upsert.is_some() || in_base {
                out.push(Arc::new(DeltaRecord {
                    key: key.to_vec(),
                    upsert,
                    in_base,
                }));
            }
        }
        out.extend(old.cloned());
        Delta {
            records: out.into(),
        }
    }

    /// The change this delta makes to its base's entry count.
    pub fn net_entries(&self) -> isize {
        self.records()
            .map(|r| isize::from(r.upsert.is_some()) - isize::from(r.in_base))
            .sum()
    }

    /// The records `(base, scope)` can reach, and the range they were
    /// resolved as (for its one-level test).
    pub(crate) fn scope(&self, base: &Dn, scope: Scope) -> (ScopeRange, &[Arc<DeltaRecord>]) {
        let range = ScopeRange::resolve(
            self.len() as u64,
            |i| self.records[i as usize].key(),
            base,
            scope,
        );
        let span = range.positions();
        let slice = &self.records[span.start as usize..span.end as usize];
        (range, slice)
    }
}

/// The delta records of a scope, walked beside the base's hits.
#[derive(Clone)]
pub(crate) struct DeltaCursor<'d> {
    range: ScopeRange,
    records: &'d [Arc<DeltaRecord>],
    /// Records before this index are emitted or passed over.
    next: usize,
    /// Records before this index are known to sort below the last base
    /// key asked about.
    shadow: usize,
}

impl<'d> DeltaCursor<'d> {
    pub(crate) fn new(delta: &'d Delta, base: &Dn, scope: Scope) -> DeltaCursor<'d> {
        let (range, records) = if delta.is_empty() {
            (ScopeRange::resolve(0, |_| &[], base, scope), &[][..])
        } else {
            delta.scope(base, scope)
        };
        DeltaCursor {
            range,
            records,
            next: 0,
            shadow: 0,
        }
    }

    /// True iff no record lies in the scope.
    pub(crate) fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Does the delta hold `key` (so the base's record is skipped)? Keys
    /// must be asked in ascending order.
    pub(crate) fn shadows(&mut self, key: &[u8]) -> bool {
        while self.shadow < self.records.len() && self.records[self.shadow].key() < key {
            self.shadow += 1;
        }
        self.records
            .get(self.shadow)
            .is_some_and(|r| r.key() == key)
    }

    /// Hand every in-scope upsert sorting before `until` (all, for
    /// `None`) that passes `matches` to `visit`, in key order.
    pub(crate) fn emit<E>(
        &mut self,
        until: Option<&[u8]>,
        matches: &dyn Fn(&Entry) -> bool,
        visit: &mut impl FnMut(RawHit<'d>) -> Result<(), E>,
    ) -> Result<(), E> {
        while let Some(rec) = self.records.get(self.next) {
            if until.is_some_and(|k| rec.key() >= k) {
                break;
            }
            self.next += 1;
            if !self.range.admits(rec.key()) || !rec.entry().is_some_and(matches) {
                continue;
            }
            if let Some(hit) = rec.hit() {
                visit(hit)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn(s: &str) -> Dn {
        Dn::parse(s).unwrap()
    }

    fn entry(s: &str) -> Entry {
        Entry::builder(dn(s)).class("thing").build().unwrap()
    }

    /// `e` written: stored (`present`) or deleted.
    fn write(e: &Entry, present: bool, existed: bool) -> DeltaWrite<'_> {
        DeltaWrite {
            dn: e.dn(),
            entry: present.then_some(e),
            existed,
        }
    }

    /// Each record as `+` (upsert) or `-` (tombstone) and its key's
    /// position among `all`.
    fn shape(d: &Delta, all: &[&Entry]) -> Vec<String> {
        d.records()
            .map(|r| {
                let tag = if r.entry().is_some() { '+' } else { '-' };
                let at = all
                    .iter()
                    .position(|e| e.dn().sort_key().as_bytes() == r.key());
                format!("{tag}{}", at.unwrap())
            })
            .collect()
    }

    #[test]
    fn writes_merge_in_key_order_and_elide_unneeded_tombstones() {
        let (a, b, c) = (
            entry("cn=a, dc=x"),
            entry("cn=b, dc=x"),
            entry("cn=c, dc=x"),
        );
        let all = [&a, &b, &c];
        // c modified (in the base), a added, b deleted from the base.
        let d1 = Delta::default().with(vec![
            write(&c, true, true),
            write(&a, true, false),
            write(&b, false, true),
        ]);
        assert_eq!(shape(&d1, &all), ["+0", "-1", "+2"]);
        assert_eq!(d1.net_entries(), 0);
        assert_eq!(d1.records().next().unwrap().entry(), Some(&a));
        // Deleting the added a leaves nothing; re-adding b replaces its
        // tombstone; deleting c leaves one.
        let d2 = d1.with(vec![
            write(&a, false, true),
            write(&b, true, false),
            write(&c, false, true),
        ]);
        assert_eq!(shape(&d2, &all), ["+1", "-2"]);
        assert_eq!(d2.net_entries(), -1);
        // The earlier delta is untouched.
        assert_eq!(shape(&d1, &all), ["+0", "-1", "+2"]);
    }
}

//! Atomic-query evaluation over an indexed directory.
//!
//! [`IndexedDirectory`] packages the paged [`DnTable`] with per-attribute
//! indices (B+-trees for ints, tries for equality, suffix arrays for
//! substrings, a presence map) and evaluates atomic queries
//! `(base ? scope ? filter)` into reverse-DN-sorted entry lists — the
//! inputs of every L0–L3 operator.
//!
//! Evaluation is **scope first**. Lists are sorted by reverse DN, so a
//! scope is one contiguous range of table positions, found by binary
//! search over in-memory keys ([`DnTable::scope_range`]); and every
//! posting list holds table *positions*, so cutting a filter's
//! candidates to the scope is two more binary searches. One core
//! ([`IndexedDirectory::visit_atomic`]) then reads the surviving
//! positions in table (= DN = page) order as undecoded on-page images
//! and hands them to a visitor; an entry is decoded only to *verify* a
//! candidate the index cannot vouch for. The cost is
//! `O(log N + |scope ∩ candidates|)` — independent of the directory's
//! size for a point lookup.
//!
//! Where do candidates come from?
//!
//! * **Postings held in memory, sorted by position** (presence,
//!   equality): sliced to the range, exact, never decoded.
//! * **Postings that must be materialized** (an integer interval from
//!   the paged B+-tree, a substring fragment from the suffix array) cost
//!   work proportional to their size whatever the scope. Both indices
//!   can bound that size from memory; when the scope range is no larger
//!   than the bound, the node reads the range instead and verifies each
//!   record against the filter — at most `|range|` records, where the
//!   probe would have produced at least as many postings to sift.
//! * **No index** (a composite filter, a pattern with no fragment): the
//!   range, verified. `objectClass=*` needs no verification at all.
//!
//! The rule compares two sizes already in memory; there is nothing to
//! tune (DESIGN.md §3c).

use crate::btree::StaticBTree;
use crate::delta::{Delta, DeltaCursor};
use crate::dn_table::{DnTable, RawHit, ScopeRange};
use crate::suffix::SuffixIndex;
use crate::trie::Trie;
use crate::Posting;
use netdir_filter::atomic::IntOp;
use netdir_filter::{AtomicFilter, CompositeFilter, LdapQuery, Scope};
use netdir_model::{AttrName, Directory, Dn, Entry, Value};
use netdir_pager::{ListWriter, PagedList, Pager, PagerResult};
use std::borrow::{Borrow, Cow};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// A directory bulk-loaded into the paged DN table plus attribute indices.
pub struct IndexedDirectory {
    table: DnTable,
    int_trees: BTreeMap<AttrName, StaticBTree>,
    tries: BTreeMap<AttrName, Trie>,
    suffixes: BTreeMap<AttrName, SuffixIndex>,
    /// Positions of the entries holding each attribute, ascending.
    presence: BTreeMap<AttrName, Vec<Posting>>,
    examined: AtomicU64,
    decoded: AtomicU64,
}

/// Work the evaluation core has done since the index was built, in
/// records — counts, not times, so they repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AtomicCost {
    /// Candidate positions looked at (a key check or a record read).
    pub examined: u64,
    /// Records decoded to verify a candidate.
    pub decoded: u64,
}

/// The positions an atomic query may match within its scope range.
enum Candidates<'a> {
    /// Every position of the range.
    Range,
    /// These positions of the range, ascending and distinct.
    Postings(Cow<'a, [Posting]>),
}

/// The inclusive key interval `op rhs` selects, or `None` when empty.
fn int_interval(op: IntOp, rhs: i64) -> Option<(i64, i64)> {
    match op {
        IntOp::Lt => rhs.checked_sub(1).map(|hi| (i64::MIN, hi)),
        IntOp::Le => Some((i64::MIN, rhs)),
        IntOp::Gt => rhs.checked_add(1).map(|lo| (lo, i64::MAX)),
        IntOp::Ge => Some((rhs, i64::MAX)),
        IntOp::Eq => Some((rhs, rhs)),
    }
}

impl IndexedDirectory {
    /// Build table and indices from a directory instance.
    pub fn build(pager: &Pager, dir: &Directory) -> PagerResult<IndexedDirectory> {
        IndexedDirectory::from_sorted(pager, &dir.iter_sorted().collect::<Vec<_>>())
    }

    /// Build table and indices from entries sorted by reverse-DN key,
    /// each DN once (else [`DnTable::build`]'s error). Entries are stored
    /// as they are, ids included.
    pub fn from_sorted<E: Borrow<Entry>>(
        pager: &Pager,
        entries: &[E],
    ) -> PagerResult<IndexedDirectory> {
        let table = DnTable::build(pager, entries.iter().map(Borrow::borrow))?;

        let mut int_pairs: BTreeMap<AttrName, Vec<(i64, Posting)>> = BTreeMap::new();
        let mut tries: BTreeMap<AttrName, Trie> = BTreeMap::new();
        let mut string_occurrences: BTreeMap<AttrName, Vec<(String, Posting)>> =
            BTreeMap::new();
        let mut presence: BTreeMap<AttrName, Vec<Posting>> = BTreeMap::new();

        // Entries arrive in table order, so every posting list below is
        // born sorted by position.
        for (pos, e) in entries.iter().map(Borrow::<Entry>::borrow).enumerate() {
            let pos = pos as Posting;
            for (a, v) in e.pairs() {
                let holders = presence.entry(a.clone()).or_default();
                if holders.last() != Some(&pos) {
                    holders.push(pos);
                }
                let canonical = v.canonical();
                let trie = tries.entry(a.clone()).or_default();
                // Two spellings of one canonical value post once.
                if trie.postings(&canonical).last() != Some(&pos) {
                    trie.insert(&canonical, pos);
                }
                string_occurrences
                    .entry(a.clone())
                    .or_default()
                    .push((canonical, pos));
                if let Value::Int(i) = v {
                    int_pairs.entry(a.clone()).or_default().push((*i, pos));
                }
            }
        }

        let mut int_trees = BTreeMap::new();
        for (a, mut pairs) in int_pairs {
            pairs.sort_unstable();
            int_trees.insert(a, StaticBTree::build(pager, &pairs)?);
        }
        let suffixes = string_occurrences
            .into_iter()
            .map(|(a, occ)| {
                let idx =
                    SuffixIndex::build(occ.iter().map(|(s, pos)| (s.as_str(), *pos)));
                (a, idx)
            })
            .collect();

        Ok(IndexedDirectory {
            table,
            int_trees,
            tries,
            suffixes,
            presence,
            examined: AtomicU64::new(0),
            decoded: AtomicU64::new(0),
        })
    }

    /// The underlying DN table.
    pub fn table(&self) -> &DnTable {
        &self.table
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.table.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Records examined and decoded by every evaluation so far.
    pub fn cost(&self) -> AtomicCost {
        AtomicCost {
            examined: self.examined.load(Ordering::Relaxed),
            decoded: self.decoded.load(Ordering::Relaxed),
        }
    }

    /// The candidates of `filter` within `range`, and whether each is a
    /// certain match (`true`) or must be verified against the filter.
    fn candidates<'a>(
        &'a self,
        filter: &AtomicFilter,
        range: &ScopeRange,
    ) -> PagerResult<(Candidates<'a>, bool)> {
        let within = range.positions();
        // A position-sorted posting list held in memory, cut to the range.
        let held = |postings: Option<&'a [Posting]>| {
            let postings = postings.unwrap_or_default();
            let lo = postings.partition_point(|&p| p < within.start);
            let hi = postings.partition_point(|&p| p < within.end);
            Candidates::Postings(Cow::Borrowed(&postings[lo..hi]))
        };
        let none = Candidates::Postings(Cow::Borrowed(&[]));
        Ok(match filter {
            AtomicFilter::True => (Candidates::Range, true),
            AtomicFilter::False => (none, true),
            AtomicFilter::Present(a) => (
                held(self.presence.get(a.canonical()).map(Vec::as_slice)),
                true,
            ),
            AtomicFilter::Eq(a, v) => (
                held(self.tries.get(a.canonical()).map(|t| t.postings(v))),
                true,
            ),
            // The trie also posts string values that merely spell the
            // DN; only a DN-typed value matches.
            AtomicFilter::DnEq(a, dn) => (
                held(
                    self.tries
                        .get(a.canonical())
                        .map(|t| t.postings(&dn.canonical())),
                ),
                false,
            ),
            AtomicFilter::Substring(a, pat) => {
                // Pull candidates on the most selective fragment, verify
                // the full pattern on each.
                let Some(frag) = pat
                    .initial
                    .as_deref()
                    .into_iter()
                    .chain(pat.any.iter().map(String::as_str))
                    .chain(pat.final_.as_deref())
                    .max_by_key(|s| s.len())
                else {
                    return Ok((Candidates::Range, false));
                };
                let Some(index) = self.suffixes.get(a.canonical()) else {
                    return Ok((none, true));
                };
                if range.len() <= index.occurrences(frag) as u64 {
                    return Ok((Candidates::Range, false));
                }
                let mut postings = index.contains(frag);
                postings.retain(|p| within.contains(p));
                (Candidates::Postings(Cow::Owned(postings)), false)
            }
            AtomicFilter::IntCmp(a, op, rhs) => {
                let (Some(tree), Some((lo, hi))) =
                    (self.int_trees.get(a.canonical()), int_interval(*op, *rhs))
                else {
                    return Ok((none, true));
                };
                if range.len() <= tree.range_bound(lo, hi) {
                    return Ok((Candidates::Range, false));
                }
                // Key order, not position order; an entry with several
                // values in the interval posts once per value.
                let mut postings = tree.range(lo, hi)?;
                postings.retain(|p| within.contains(p));
                postings.sort_unstable();
                postings.dedup();
                (Candidates::Postings(Cow::Owned(postings)), true)
            }
        })
    }

    /// Read `candidates` of `range` in table order and hand those in
    /// scope — and, when `verify`, passing `matches` once decoded — to
    /// `visit`, merged in key order with the in-scope upserts of `delta`
    /// that pass `matches`. A table record whose DN the delta holds is
    /// skipped: the delta wins. The single place records leave the
    /// table; with an empty delta it does nothing more than read it.
    fn visit_candidates(
        &self,
        range: &ScopeRange,
        candidates: Candidates<'_>,
        verify: bool,
        matches: &dyn Fn(&Entry) -> bool,
        mut delta: DeltaCursor<'_>,
        mut visit: impl FnMut(RawHit<'_>) -> PagerResult<()>,
    ) -> PagerResult<()> {
        let ctx = self.table.pager().ctx();
        let mut examined = 0u64;
        let mut decoded = 0u64;
        let merging = !delta.is_empty();
        // Ascending positions, so the delta's shadow cursor only moves
        // forward; it is cloned off before emission starts.
        let mut shadow = delta.clone();
        let in_scope = |&pos: &Posting| {
            examined += 1;
            self.table.in_scope(range, pos) && !(merging && shadow.shadows(self.table.key(pos)))
        };
        let mut read = |hit: RawHit<'_>| {
            if merging {
                delta.emit(Some(hit.key()), matches, &mut visit)?;
            }
            if verify {
                decoded += 1;
                if !matches(&hit.decode(&ctx)?) {
                    return Ok(());
                }
            }
            visit(hit)
        };
        let done = match candidates {
            Candidates::Range => self.table.read_raw(range.positions().filter(in_scope), &mut read),
            Candidates::Postings(postings) => self
                .table
                .read_raw(postings.iter().copied().filter(in_scope), &mut read),
        };
        self.examined.fetch_add(examined, Ordering::Relaxed);
        self.decoded.fetch_add(decoded, Ordering::Relaxed);
        done?;
        if merging {
            delta.emit(None, matches, &mut visit)?;
        }
        Ok(())
    }

    /// Evaluate an atomic query over this table with `delta` merged in,
    /// handing each matching entry to `visit` in reverse-DN order as an
    /// undecoded [`RawHit`] — the core both
    /// [`IndexedDirectory::evaluate_atomic`] (no delta) and a zone's
    /// answer path wrap.
    pub fn visit_atomic(
        &self,
        delta: &Delta,
        base: &Dn,
        scope: Scope,
        filter: &AtomicFilter,
        visit: impl FnMut(RawHit<'_>) -> PagerResult<()>,
    ) -> PagerResult<()> {
        let range = self.table.scope_range(base, scope);
        let delta = DeltaCursor::new(delta, base, scope);
        if range.is_empty() && delta.is_empty() {
            return Ok(());
        }
        let (candidates, exact) = self.candidates(filter, &range)?;
        let matches = |e: &Entry| filter.matches(e);
        self.visit_candidates(&range, candidates, !exact, &matches, delta, visit)
    }

    /// Without the attribute indices: the scope range, every record
    /// verified against `matches`.
    fn visit_scan(
        &self,
        delta: &Delta,
        base: &Dn,
        scope: Scope,
        matches: &dyn Fn(&Entry) -> bool,
        visit: impl FnMut(RawHit<'_>) -> PagerResult<()>,
    ) -> PagerResult<()> {
        let range = self.table.scope_range(base, scope);
        let delta = DeltaCursor::new(delta, base, scope);
        self.visit_candidates(&range, Candidates::Range, true, matches, delta, visit)
    }

    /// As [`IndexedDirectory::visit_atomic`] for a composite filter,
    /// which no index serves.
    pub fn visit_composite(
        &self,
        delta: &Delta,
        base: &Dn,
        scope: Scope,
        filter: &CompositeFilter,
        visit: impl FnMut(RawHit<'_>) -> PagerResult<()>,
    ) -> PagerResult<()> {
        self.visit_scan(delta, base, scope, &|e| filter.matches(e), visit)
    }

    /// Collect a visit into a result list on the table's pager.
    fn collect(
        &self,
        run: impl FnOnce(&mut dyn FnMut(RawHit<'_>) -> PagerResult<()>) -> PagerResult<()>,
    ) -> PagerResult<PagedList<Entry>> {
        let mut w = ListWriter::new(self.table.pager());
        run(&mut |hit| hit.push_to(&mut w))?;
        w.finish()
    }

    /// Evaluate an atomic query into a sorted list.
    pub fn evaluate_atomic(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &AtomicFilter,
    ) -> PagerResult<PagedList<Entry>> {
        self.collect(|visit| self.visit_atomic(&Delta::default(), base, scope, filter, visit))
    }

    /// Evaluate an atomic query without consulting the attribute
    /// indices: the scope range, every record verified. The baseline the
    /// ablation experiments compare the indexed path against.
    pub fn evaluate_scan(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &AtomicFilter,
    ) -> PagerResult<PagedList<Entry>> {
        let matches = |e: &Entry| filter.matches(e);
        self.collect(|visit| self.visit_scan(&Delta::default(), base, scope, &matches, visit))
    }

    /// Evaluate a composite-filter LDAP query (the baseline language).
    pub fn evaluate_ldap(&self, q: &LdapQuery) -> PagerResult<PagedList<Entry>> {
        self.evaluate_composite(&q.base, q.scope, &q.filter)
    }

    /// Evaluate a composite filter at (base, scope) — like
    /// [`Self::evaluate_ldap`] but from parts.
    pub fn evaluate_composite(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &CompositeFilter,
    ) -> PagerResult<PagedList<Entry>> {
        self.collect(|visit| self.visit_composite(&Delta::default(), base, scope, filter, visit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdir_pager::tiny_pager;

    fn dn(s: &str) -> Dn {
        Dn::parse(s).unwrap()
    }

    fn dir() -> Directory {
        let mut d = Directory::new();
        let mut add = |s: &str, f: &dyn Fn(netdir_model::EntryBuilder) -> netdir_model::EntryBuilder| {
            d.insert(f(Entry::builder(dn(s))).build().unwrap()).unwrap();
        };
        add("dc=com", &|b| b.class("dcObject"));
        add("dc=att, dc=com", &|b| b.class("dcObject"));
        add("ou=people, dc=att, dc=com", &|b| b.class("organizationalUnit"));
        add("uid=jag, ou=people, dc=att, dc=com", &|b| {
            b.class("person")
                .attr("surName", "jagadish")
                .attr("commonName", "h jagadish")
                .attr("priority", 2i64)
        });
        add("uid=divesh, ou=people, dc=att, dc=com", &|b| {
            b.class("person")
                .attr("surName", "srivastava")
                .attr("priority", 5i64)
        });
        add("uid=tova, ou=people, dc=att, dc=com", &|b| {
            b.class("person").attr("surName", "milo")
        });
        d
    }

    fn indexed() -> (IndexedDirectory, Pager) {
        let pager = tiny_pager();
        let d = dir();
        let idx = IndexedDirectory::build(&pager, &d).unwrap();
        (idx, pager)
    }

    fn dns(list: &PagedList<Entry>) -> Vec<String> {
        list.to_vec()
            .unwrap()
            .iter()
            .map(|e| e.dn().to_string())
            .collect()
    }

    #[test]
    fn eq_probe_and_scan_agree() {
        let (idx, _) = indexed();
        let f = AtomicFilter::eq("surName", "jagadish");
        let probe = idx
            .evaluate_atomic(&dn("dc=com"), Scope::Sub, &f)
            .unwrap();
        let scan = idx.evaluate_scan(&dn("dc=com"), Scope::Sub, &f).unwrap();
        assert_eq!(dns(&probe), dns(&scan));
        assert_eq!(probe.len(), 1);
    }

    #[test]
    fn int_cmp_probe() {
        let (idx, _) = indexed();
        let f = AtomicFilter::int_cmp("priority", IntOp::Lt, 3);
        let out = idx
            .evaluate_atomic(&dn("dc=com"), Scope::Sub, &f)
            .unwrap();
        assert_eq!(
            dns(&out),
            vec!["uid=jag, ou=people, dc=att, dc=com".to_string()]
        );
    }

    #[test]
    fn presence_probe() {
        let (idx, _) = indexed();
        let f = AtomicFilter::present("priority");
        let out = idx
            .evaluate_atomic(&dn("dc=com"), Scope::Sub, &f)
            .unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn substring_probe_verifies_full_pattern() {
        let (idx, _) = indexed();
        // *jag* matches both "jagadish" (surName) and "h jagadish".
        let f = netdir_filter::parse_atomic("surName=*jag*").unwrap();
        let out = idx
            .evaluate_atomic(&dn("dc=com"), Scope::Sub, &f)
            .unwrap();
        assert_eq!(out.len(), 1);
        // Anchored pattern: jag* — "jagadish" yes.
        let f = netdir_filter::parse_atomic("surName=jag*").unwrap();
        assert_eq!(
            idx.evaluate_atomic(&dn("dc=com"), Scope::Sub, &f)
                .unwrap()
                .len(),
            1
        );
        // mil* on surName matches milo only.
        let f = netdir_filter::parse_atomic("surName=*ilo").unwrap();
        assert_eq!(
            idx.evaluate_atomic(&dn("dc=com"), Scope::Sub, &f)
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn scope_restricts_probe_hits() {
        let (idx, _) = indexed();
        let f = AtomicFilter::eq("objectClass", "person");
        // Scope one from ou=people includes the three persons.
        let out = idx
            .evaluate_atomic(&dn("ou=people, dc=att, dc=com"), Scope::One, &f)
            .unwrap();
        assert_eq!(out.len(), 3);
        // Scope one from dc=att excludes them (two levels down).
        let out = idx
            .evaluate_atomic(&dn("dc=att, dc=com"), Scope::One, &f)
            .unwrap();
        assert_eq!(out.len(), 0);
        // Base scope.
        let out = idx
            .evaluate_atomic(&dn("uid=jag, ou=people, dc=att, dc=com"), Scope::Base, &f)
            .unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn true_filter_falls_back_to_scan() {
        let (idx, _) = indexed();
        let out = idx
            .evaluate_atomic(&Dn::root(), Scope::Sub, &AtomicFilter::True)
            .unwrap();
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn results_sorted_by_reverse_dn() {
        let (idx, _) = indexed();
        let out = idx
            .evaluate_atomic(&dn("dc=com"), Scope::Sub, &AtomicFilter::present("uid"))
            .unwrap();
        let v = out.to_vec().unwrap();
        for w in v.windows(2) {
            assert!(w[0].dn() < w[1].dn());
        }
    }

    #[test]
    fn ldap_query_evaluation() {
        let (idx, _) = indexed();
        let q = LdapQuery::new(
            dn("dc=att, dc=com"),
            Scope::Sub,
            netdir_filter::parse_composite("(&(objectClass=person)(!(priority=*)))")
                .unwrap(),
        );
        let out = idx.evaluate_ldap(&q).unwrap();
        assert_eq!(
            dns(&out),
            vec!["uid=tova, ou=people, dc=att, dc=com".to_string()]
        );
    }
}

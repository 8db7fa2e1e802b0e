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
//!   a read per posting whatever the scope. The node prices the probe
//!   against the scan — verifying each record in scope — in counted
//!   work, and takes the cheaper ([`VERIFY_COST`]). An integer probe
//!   is priced from memory before it runs; a fragment counts the
//!   candidates it must verify as it walks, and gives up once they
//!   make it the dearer path.
//! * **No index** (a composite filter, a pattern with no fragment): the
//!   range, verified. `objectClass=*` needs no verification at all.
//!
//! DESIGN.md §3c gives the rule and the measured constant.

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
    postings: AtomicU64,
    decoded: AtomicU64,
}

/// What verifying one candidate costs, in posting reads: the ratio of
/// one `Entry::decode` of the daemon benchmark's entry shape to one
/// posting read and cut to the scope by an integer probe, as
/// `cargo bench -p netdir-bench --bench verify_cost` measures it
/// (DESIGN.md §3c). It prices a probe against a range scan.
pub const VERIFY_COST: u64 = 700;

/// Work the evaluation core has done since the index was built —
/// counts, not times, so they repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AtomicCost {
    /// Candidate positions looked at (a key check or a record read).
    pub examined: u64,
    /// Postings a probe read off an index it had to materialize.
    pub postings: u64,
    /// Records decoded to verify a candidate.
    pub decoded: u64,
}

impl std::ops::Add for AtomicCost {
    type Output = AtomicCost;

    fn add(self, other: AtomicCost) -> AtomicCost {
        AtomicCost {
            examined: self.examined + other.examined,
            postings: self.postings + other.postings,
            decoded: self.decoded + other.decoded,
        }
    }
}

/// The positions an atomic query may match within its scope range.
enum Candidates<'a> {
    /// Every position of the range.
    Range,
    /// These positions of the range, ascending and distinct.
    Postings(Cow<'a, [Posting]>),
}

/// An index whose postings for a leaf must be materialized before they
/// can be cut to the scope: an integer interval's B+-tree leaves, or a
/// substring fragment's suffix interval.
enum Probe<'a> {
    Int(&'a StaticBTree, i64, i64),
    Fragment(&'a SuffixIndex, &'a str),
}

impl Probe<'_> {
    /// The postings the probe reads, known from memory before it runs.
    fn postings(&self) -> u64 {
        match *self {
            Probe::Int(tree, lo, hi) => tree.range_bound(lo, hi),
            Probe::Fragment(index, frag) => index.occurrences(frag) as u64,
        }
    }

    /// True iff every posting it yields in scope matches the filter.
    fn exact(&self) -> bool {
        matches!(self, Probe::Int(..))
    }
}

/// Where a leaf's candidates come from.
enum Access<'a> {
    /// Decided without pricing: candidates, and whether they are exact.
    Fixed(Candidates<'a>, bool),
    /// A probe, priced against scanning the range.
    Priced(Probe<'a>),
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
            postings: AtomicU64::new(0),
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

    /// Records examined, postings read and records decoded by every
    /// evaluation so far.
    pub fn cost(&self) -> AtomicCost {
        AtomicCost {
            examined: self.examined.load(Ordering::Relaxed),
            postings: self.postings.load(Ordering::Relaxed),
            decoded: self.decoded.load(Ordering::Relaxed),
        }
    }

    /// The candidates of `filter` within `range`, and whether each is a
    /// certain match (`true`) or must be verified against the filter: a
    /// priced leaf probes unless that counts more work than the scan.
    fn candidates<'a>(
        &'a self,
        filter: &'a AtomicFilter,
        range: &ScopeRange,
    ) -> PagerResult<(Candidates<'a>, bool)> {
        Ok(match self.access(filter, range) {
            Access::Fixed(candidates, exact) => (candidates, exact),
            Access::Priced(probe) => {
                match self.probe(&probe, range, self.scan_cost(&probe, range))? {
                    Some(candidates) => (candidates, probe.exact()),
                    None => (Candidates::Range, false),
                }
            }
        })
    }

    /// What the scan of `range` costs in counted work: its records in
    /// scope, each verified at [`VERIFY_COST`]. A `one` range's records
    /// are counted from the in-memory keys only as far as can matter to
    /// `probe`: past that many the scan loses even if every posting the
    /// probe reads is a candidate to verify.
    fn scan_cost(&self, probe: &Probe<'_>, range: &ScopeRange) -> u64 {
        let postings = probe.postings();
        let verified = if probe.exact() { 0 } else { postings };
        let enough = postings.div_ceil(VERIFY_COST).saturating_add(verified);
        self.table.admitted(range, enough).saturating_mul(VERIFY_COST)
    }

    /// Where the candidates of `filter` within `range` come from.
    fn access<'a>(&'a self, filter: &'a AtomicFilter, range: &ScopeRange) -> Access<'a> {
        let within = range.positions();
        // A position-sorted posting list held in memory, cut to the range.
        let held = |postings: Option<&'a [Posting]>| {
            let postings = postings.unwrap_or_default();
            let lo = postings.partition_point(|&p| p < within.start);
            let hi = postings.partition_point(|&p| p < within.end);
            Candidates::Postings(Cow::Borrowed(&postings[lo..hi]))
        };
        let none = Access::Fixed(Candidates::Postings(Cow::Borrowed(&[])), true);
        match filter {
            AtomicFilter::True => Access::Fixed(Candidates::Range, true),
            AtomicFilter::False => none,
            AtomicFilter::Present(a) => Access::Fixed(
                held(self.presence.get(a.canonical()).map(Vec::as_slice)),
                true,
            ),
            AtomicFilter::Eq(a, v) => Access::Fixed(
                held(self.tries.get(a.canonical()).map(|t| t.postings(v))),
                true,
            ),
            // The trie also posts string values that merely spell the
            // DN; only a DN-typed value matches.
            AtomicFilter::DnEq(a, dn) => Access::Fixed(
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
                    return Access::Fixed(Candidates::Range, false);
                };
                match self.suffixes.get(a.canonical()) {
                    Some(index) => Access::Priced(Probe::Fragment(index, frag)),
                    None => none,
                }
            }
            AtomicFilter::IntCmp(a, op, rhs) => {
                match (self.int_trees.get(a.canonical()), int_interval(*op, *rhs)) {
                    (Some(tree), Some((lo, hi))) => Access::Priced(Probe::Int(tree, lo, hi)),
                    _ => none,
                }
            }
        }
    }

    /// The access-path rule. Run `probe` and return its candidates in
    /// `range`, ascending and distinct — or `None`, reading nothing more,
    /// once its counted work (postings read plus candidates to verify,
    /// each at [`VERIFY_COST`]) is known to pass the `scan`'s. An integer
    /// interval is exact and knows its postings from memory, so it
    /// decides before it reads. A fragment must verify its candidates
    /// in scope, which only its postings tell: it counts them as it
    /// walks, and gives up at the first that tips the balance.
    fn probe(
        &self,
        probe: &Probe<'_>,
        range: &ScopeRange,
        scan: u64,
    ) -> PagerResult<Option<Candidates<'static>>> {
        let postings = probe.postings();
        if postings > scan {
            return Ok(None);
        }
        let within = range.positions();
        let (candidates, read) = match *probe {
            Probe::Int(tree, lo, hi) => {
                // Key order, not position order; an entry with several
                // values in the interval posts once per value.
                let (mut candidates, read) = tree.range(lo, hi, within)?;
                candidates.sort_unstable();
                candidates.dedup();
                (Some(candidates), read)
            }
            Probe::Fragment(index, frag) => {
                // One bit a position of the range: a posting is cut to
                // the scope and deduplicated as it is read.
                let mut seen = vec![0u64; range.len().div_ceil(64) as usize];
                let mut candidates = Vec::new();
                let (mut read, mut affordable) = (0, true);
                for pos in index.postings(frag) {
                    read += 1;
                    if !within.contains(&pos) {
                        continue;
                    }
                    let at = pos - within.start;
                    let (word, bit) = ((at / 64) as usize, 1 << (at % 64));
                    if seen[word] & bit != 0 || !self.table.in_scope(range, pos) {
                        continue;
                    }
                    seen[word] |= bit;
                    candidates.push(pos);
                    let to_verify = candidates.len() as u64;
                    if postings.saturating_add(to_verify.saturating_mul(VERIFY_COST)) > scan {
                        affordable = false;
                        break;
                    }
                }
                let candidates = affordable.then(|| {
                    candidates.sort_unstable();
                    candidates
                });
                (candidates, read)
            }
        };
        self.postings.fetch_add(read, Ordering::Relaxed);
        Ok(candidates.map(|c| Candidates::Postings(Cow::Owned(c))))
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// `dc=big` → 16 zones → 24 teams each → leaves, `entries` in all.
    /// Every entry carries a `weight` in `0..100`; leaves also a `kind`
    /// and a unique `cn`: `e00079` is the first leaf of `ou=t07, ou=z03`.
    fn zoned(entries: usize) -> Directory {
        let mut rng = StdRng::seed_from_u64(entries as u64);
        let mut d = Directory::new();
        let mut add = |dn_text: String, kind: Option<&str>| {
            let mut b = Entry::builder(dn(&dn_text)).attr("weight", rng.gen_range(0..100i64));
            if let Some(kind) = kind {
                b = b.attr("kind", kind);
            }
            d.insert(b.build().unwrap()).unwrap();
        };
        add("dc=big".into(), None);
        for z in 0..16 {
            add(format!("ou=z{z:02}, dc=big"), None);
            for t in 0..24 {
                add(format!("ou=t{t:02}, ou=z{z:02}, dc=big"), None);
            }
        }
        for i in 0..entries - (1 + 16 * 25) {
            let (z, t) = (i % 384 / 24, i % 24);
            let kind = if i % 3 == 0 { "blue" } else { "red" };
            add(format!("cn=e{i:05}, ou=t{t:02}, ou=z{z:02}, dc=big"), Some(kind));
        }
        d
    }

    /// The work the access-path rule prices, in posting reads.
    fn work(cost: AtomicCost) -> u64 {
        cost.postings + cost.decoded * VERIFY_COST
    }

    /// What `idx` has counted since `before`.
    fn spent(idx: &IndexedDirectory, before: AtomicCost) -> AtomicCost {
        let now = idx.cost();
        AtomicCost {
            examined: now.examined - before.examined,
            postings: now.postings - before.postings,
            decoded: now.decoded - before.decoded,
        }
    }

    /// Both paths of every priced leaf over a grid of bases (a leaf, a
    /// team, a zone, the whole base) under `one` and `sub`, and posting
    /// counts (1 % to 100 % of the entries), at 5k and 50k entries: the
    /// hits agree, and `visit_atomic` runs the path that counts less
    /// work: both sides of the rule are counted, not bounded, so its
    /// pick never counts more than the other path. A fragment probe that
    /// gives up has read some postings for nothing: at most its
    /// occurrences, which the rule never lets pass the scan, so the leaf
    /// does at most twice the cheaper path.
    #[test]
    fn the_priced_rule_picks_the_cheaper_path() {
        let ints = [
            AtomicFilter::int_cmp("weight", IntOp::Eq, 42),
            AtomicFilter::int_cmp("weight", IntOp::Lt, 10),
            AtomicFilter::int_cmp("weight", IntOp::Le, 49),
            AtomicFilter::int_cmp("weight", IntOp::Ge, 0),
        ];
        let fragments = ["kind=*e*", "kind=r*", "cn=*123*", "cn=e0000*"]
            .map(|f| netdir_filter::parse_atomic(f).unwrap());
        let bases = [
            "cn=e00079, ou=t07, ou=z03, dc=big",
            "ou=t07, ou=z03, dc=big",
            "ou=z03, dc=big",
            "dc=big",
        ]
        .map(dn);
        // (probed, scanned) per scope, and leaves that gave up a probe.
        let mut picks = BTreeMap::new();
        let mut gave_up = 0;
        for entries in [5_000usize, 50_000] {
            let idx = IndexedDirectory::build(&Pager::new(4096, 64), &zoned(entries)).unwrap();
            for base in &bases {
                for scope in [Scope::One, Scope::Sub] {
                    let range = idx.table.scope_range(base, scope);
                    assert!(!range.is_empty(), "{base}");
                    for filter in ints.iter().chain(&fragments) {
                        let what = format!("{entries}: ({base} ? {scope} ? {filter})");
                        let Access::Priced(probe) = idx.access(filter, &range) else {
                            panic!("{what}: not priced");
                        };
                        let matches = |e: &Entry| filter.matches(e);
                        // The hits' keys and the work counted, down one path.
                        let run = |by_probe: bool| {
                            let before = idx.cost();
                            let (candidates, exact) = if by_probe {
                                let all = idx.probe(&probe, &range, u64::MAX).unwrap();
                                (all.expect("an unbounded probe runs"), probe.exact())
                            } else {
                                (Candidates::Range, false)
                            };
                            let delta = Delta::default();
                            let cursor = DeltaCursor::new(&delta, base, scope);
                            let mut keys = Vec::new();
                            idx.visit_candidates(&range, candidates, !exact, &matches, cursor, |hit| {
                                keys.push(hit.key().to_vec());
                                Ok(())
                            })
                            .unwrap();
                            (keys, spent(&idx, before))
                        };
                        let (probe_hits, by_probe) = run(true);
                        let (scan_hits, by_scan) = run(false);
                        assert_eq!(probe_hits, scan_hits, "{what}");
                        let before = idx.cost();
                        idx.visit_atomic(&Delta::default(), base, scope, filter, |_| Ok(()))
                            .unwrap();
                        let ran = spent(&idx, before);
                        let costs = format!("ran {ran:?}, probe {by_probe:?}, scan {by_scan:?}");
                        let probes = ran == by_probe;
                        let (chosen, other) = if probes {
                            (by_probe, by_scan)
                        } else {
                            (by_scan, by_probe)
                        };
                        assert!(work(chosen) <= work(other), "{what}: {costs}");
                        if !probes {
                            assert_eq!(ran.decoded, by_scan.decoded, "{what}: {costs}");
                            assert_eq!(ran.examined, by_scan.examined, "{what}: {costs}");
                            assert!(ran.postings <= by_probe.postings, "{what}: {costs}");
                            assert!(work(ran) <= 2 * work(chosen), "{what}: {costs}");
                            gave_up += usize::from(ran.postings > 0);
                        }
                        let tally: &mut (u32, u32) = picks.entry(scope.to_string()).or_default();
                        if probes {
                            tally.0 += 1;
                        } else {
                            tally.1 += 1;
                        }
                    }
                }
            }
        }
        // The grid reaches both sides of the rule under either scope,
        // and a fragment giving up its probe part-way.
        for (scope, (probed, scanned)) in &picks {
            assert!(*probed > 5 && *scanned > 5, "{scope}: {probed} probed, {scanned} scanned");
        }
        assert!(gave_up > 0);
    }

    /// A selective integer leaf over a whole base probes, however small
    /// the base: over one zone's ~150 entries, every one carrying
    /// `weight` and all on one B+-tree leaf, `weight=n` reads that leaf
    /// and decodes nothing. (The leaf's postings used to be clamped to
    /// the tree's length, which tied them with the range: a scan.)
    #[test]
    fn a_selective_int_leaf_over_a_whole_base_decodes_nothing() {
        let dir = zoned(2_500);
        let zone = dn("ou=z03, dc=big");
        let entries: Vec<&Entry> = dir
            .iter_sorted()
            .filter(|e| Scope::Sub.contains(&zone, e.dn()))
            .collect();
        let idx = IndexedDirectory::from_sorted(&Pager::new(4096, 64), &entries).unwrap();
        let held = entries[7].first_int(&"weight".into()).unwrap();
        let selective = AtomicFilter::int_cmp("weight", IntOp::Eq, held);
        for base in [zone, Dn::root()] {
            let before = idx.cost();
            let hits = idx.evaluate_atomic(&base, Scope::Sub, &selective).unwrap().len();
            let after = idx.cost();
            assert!(hits > 0, "{base}");
            assert_eq!(after.decoded, before.decoded, "{base}");
            assert_eq!(after.postings - before.postings, entries.len() as u64, "{base}");
        }
    }
}

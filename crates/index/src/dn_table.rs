//! The paged DN table.
//!
//! All entries, serialized in reverse-DN order onto pages, plus every
//! entry's sort key kept in memory in the same order. Because a subtree
//! is a contiguous key range (see `netdir_model::dn`), resolving a scope
//! touches no page: two binary searches over the keys turn
//! `(base, scope)` into a [`ScopeRange`] of table *positions*, and a
//! position is a page and a slot by arithmetic on the list's per-page
//! counts. Reading `t` of those positions costs the pages they lie on —
//! `O(log N)` to find the range plus `O(pages(hits))` I/O. This is the
//! "distinguishedName B-tree" of Section 4.1 in bulk-loaded form, with
//! the key level held in memory.
//!
//! Records come back as [`RawHit`]s: the undecoded on-page image plus
//! the in-memory key, so a consumer that only forwards entries (into a
//! result list, onto the wire) never decodes one.

use netdir_filter::Scope;
use netdir_model::dn::KEY_SEPARATOR;
use netdir_model::{Dn, Entry};
use netdir_pager::record::{PageCtx, Record};
use netdir_pager::{ListWriter, PagedList, Pager, PagerError, PagerResult};

/// A static, sorted, paged table of entries with in-memory sort keys.
pub struct DnTable {
    pager: Pager,
    list: PagedList<Entry>,
    /// Every record's sort key, concatenated in table order (in-memory
    /// metadata, like a B-tree's inner levels: not charged I/O).
    key_bytes: Vec<u8>,
    /// `key_ends[pos]` = end of record `pos`'s key within `key_bytes`.
    key_ends: Vec<usize>,
}

/// The table positions a `(base, scope)` pair can match, resolved from
/// the in-memory keys alone.
///
/// `positions()` is the base's whole subtree for `sub` **and** `one`;
/// under `one` only the records passing [`DnTable::in_scope`] (the base
/// and its children) belong to the scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScopeRange {
    lo: u64,
    hi: u64,
    /// Scope `one` only: the length of the base's key. A record of the
    /// range is in scope iff its key continues it by at most one
    /// component.
    one_prefix: Option<usize>,
}

impl ScopeRange {
    /// Resolve `(base, scope)` over `len` ascending keys, `key(i)` the
    /// `i`-th: `O(log len)` comparisons. The one rule a table and a
    /// delta both resolve scopes by; the base need not be stored.
    pub(crate) fn resolve<'k>(
        len: u64,
        key: impl Fn(u64) -> &'k [u8],
        base: &Dn,
        scope: Scope,
    ) -> ScopeRange {
        let prefix = base.sort_key().as_bytes();
        let lo = partition(0, len, &key, |k| k < prefix);
        let hi = match scope {
            // The base itself sorts at the head of its subtree.
            Scope::Base => lo + u64::from(lo < len && key(lo) == prefix),
            Scope::One | Scope::Sub => partition(lo, len, &key, |k| k.starts_with(prefix)),
        };
        ScopeRange {
            lo,
            hi,
            one_prefix: (scope == Scope::One).then_some(prefix.len()),
        }
    }

    /// Is a record keyed `key`, lying in the range, within the scope the
    /// range was resolved for? Agrees with [`Scope::contains`].
    pub(crate) fn admits(&self, key: &[u8]) -> bool {
        match self.one_prefix {
            None => true,
            Some(n) => key[n..].iter().filter(|&&b| b == KEY_SEPARATOR).count() <= 1,
        }
    }

    /// The candidate positions, ascending.
    pub fn positions(&self) -> std::ops::Range<u64> {
        self.lo..self.hi
    }

    /// Number of candidate positions.
    pub fn len(&self) -> u64 {
        self.hi - self.lo
    }

    /// True iff no record can be in scope.
    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }
}

/// First position in `lo..hi` whose key fails `pred` (keys passing it
/// must form a prefix of the span, as for `partition_point`).
fn partition<'k>(
    mut lo: u64,
    mut hi: u64,
    key: &impl Fn(u64) -> &'k [u8],
    pred: impl Fn(&[u8]) -> bool,
) -> u64 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(key(mid)) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// As [`partition`], probing `lo`, `lo + 1`, `lo + 3`, … before the
/// binary search: `O(log d)` comparisons when `d` keys pass `pred`.
fn gallop<'k>(
    lo: u64,
    hi: u64,
    key: &impl Fn(u64) -> &'k [u8],
    pred: impl Fn(&[u8]) -> bool,
) -> u64 {
    let (mut passed, mut probe, mut step) = (lo, lo, 1);
    while probe < hi && pred(key(probe)) {
        passed = probe + 1;
        probe += step;
        step *= 2;
    }
    partition(passed, probe.min(hi), key, pred)
}

/// One record lifted off the table undecoded: its sort key (borrowed
/// from the table's memory) and its on-page image.
pub struct RawHit<'a> {
    key: &'a [u8],
    body: Vec<u8>,
    /// True when `body` is a v2 [`Record::encode_body`] image; false when
    /// it is the full v1 [`Record::encode`] image — the wire format.
    split: bool,
}

impl<'a> RawHit<'a> {
    /// A record held outside the table as its [`Record::encode`] image.
    pub(crate) fn encoded(key: &'a [u8], image: Vec<u8>) -> RawHit<'a> {
        RawHit {
            key,
            body: image,
            split: false,
        }
    }

    /// The record's sort key, as the table (or delta) holds it in memory.
    pub fn key(&self) -> &'a [u8] {
        self.key
    }

    /// Fully decode the entry.
    pub fn decode(&self, ctx: &PageCtx) -> PagerResult<Entry> {
        if self.split {
            Entry::decode_body(self.key, &self.body, ctx)
        } else {
            Entry::decode(&self.body)
        }
    }

    /// The entry's frozen [`Record::encode`] image. A v1 page stores
    /// exactly that, so it leaves verbatim; a v2 body is decoded and
    /// re-encoded.
    pub fn into_encoded(self, ctx: &PageCtx) -> PagerResult<Vec<u8>> {
        if !self.split {
            return Ok(self.body);
        }
        let mut out = Vec::new();
        self.decode(ctx)?.encode(&mut out);
        Ok(out)
    }

    /// Append the record to `w` (bytes pass through when the image
    /// matches the writer's page format).
    pub fn push_to(&self, w: &mut ListWriter<Entry>) -> PagerResult<()> {
        w.push_raw_parts(self.key, &self.body, self.split)
    }
}

impl DnTable {
    /// Bulk-load from entries **already sorted** by reverse-DN key, each
    /// DN once. Usually obtained from
    /// [`netdir_model::Directory::iter_sorted`]. Input out of order or
    /// with a repeated DN is refused: binary search over such a table
    /// would answer wrongly.
    pub fn build<'a, I>(pager: &Pager, entries: I) -> PagerResult<DnTable>
    where
        I: IntoIterator<Item = &'a Entry>,
    {
        let mut w: ListWriter<Entry> = ListWriter::new(pager);
        let mut key_bytes: Vec<u8> = Vec::new();
        let mut key_ends: Vec<usize> = Vec::new();
        let mut prev_start = 0;
        for e in entries {
            let key = e.dn().sort_key().as_bytes();
            if !key_ends.is_empty() && key_bytes[prev_start..] >= *key {
                return Err(PagerError::CorruptRecord {
                    detail: format!("DN table input unsorted or repeated at {}", e.dn()),
                });
            }
            prev_start = key_bytes.len();
            key_bytes.extend_from_slice(key);
            key_ends.push(key_bytes.len());
            w.push(e)?;
        }
        Ok(DnTable {
            pager: pager.clone(),
            list: w.finish()?,
            key_bytes,
            key_ends,
        })
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.list.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Number of pages.
    pub fn num_pages(&self) -> u64 {
        self.list.num_pages()
    }

    /// The pager.
    pub fn pager(&self) -> &Pager {
        &self.pager
    }

    /// Scan the whole table in sorted order.
    pub fn scan(&self) -> impl Iterator<Item = PagerResult<Entry>> + '_ {
        self.list.iter()
    }

    /// The sort key of the record at `pos` (which must be `< len`).
    pub(crate) fn key(&self, pos: u64) -> &[u8] {
        let pos = pos as usize;
        let start = if pos == 0 { 0 } else { self.key_ends[pos - 1] };
        &self.key_bytes[start..self.key_ends[pos]]
    }

    /// Resolve `(base, scope)` to table positions: `O(log N)` key
    /// comparisons, no I/O. The base need not be stored; its descendants
    /// still form the range.
    pub fn scope_range(&self, base: &Dn, scope: Scope) -> ScopeRange {
        ScopeRange::resolve(self.len(), |pos| self.key(pos), base, scope)
    }

    /// Is the record at `pos` (a position of `range`) within the scope
    /// `range` was resolved for? Agrees with [`Scope::contains`]; reads
    /// only the in-memory key.
    pub fn in_scope(&self, range: &ScopeRange, pos: u64) -> bool {
        debug_assert!(range.positions().contains(&pos));
        range.admits(self.key(pos))
    }

    /// How many records of `range` are in scope, counted up to `cap`:
    /// all of them for `base` and `sub`; for `one`, the base and its
    /// children, found in the in-memory keys by stepping over each
    /// child's subtree with a galloping search — `O(log)` comparisons a
    /// child, not a key check a record. No page is read.
    pub(crate) fn admitted(&self, range: &ScopeRange, cap: u64) -> u64 {
        let Some(n) = range.one_prefix else {
            return range.len().min(cap);
        };
        let (mut count, mut pos) = (0, range.lo);
        while pos < range.hi && count < cap {
            let key = self.key(pos);
            // Every component ends in a separator, so the key's first
            // one past the base's ends the child this record lies under.
            let Some(end) = key[n..].iter().position(|&b| b == KEY_SEPARATOR) else {
                // The base itself.
                count += 1;
                pos += 1;
                continue;
            };
            let child = &key[..n + end + 1];
            count += u64::from(key.len() == child.len());
            pos = gallop(pos + 1, range.hi, &|p| self.key(p), |k| k.starts_with(child));
        }
        count
    }

    /// Lift the records at `positions` (ascending) off their pages,
    /// undecoded, in table order: each touched page is read once and
    /// parsed only up to the last wanted slot.
    pub fn read_raw(
        &self,
        positions: impl IntoIterator<Item = u64>,
        mut f: impl FnMut(RawHit<'_>) -> PagerResult<()>,
    ) -> PagerResult<()> {
        self.list.raw_at(positions, |pos, _, body, split| {
            f(RawHit {
                key: self.key(pos),
                body,
                split,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdir_model::Directory;
    use netdir_pager::tiny_pager;

    fn dn(s: &str) -> Dn {
        Dn::parse(s).unwrap()
    }

    fn dir() -> Directory {
        let mut d = Directory::new();
        for s in [
            "dc=com",
            "dc=att, dc=com",
            "ou=people, dc=att, dc=com",
            "uid=a, ou=people, dc=att, dc=com",
            "uid=b, ou=people, dc=att, dc=com",
            "ou=policies, dc=att, dc=com",
            "dc=org",
            "dc=ieee, dc=org",
        ] {
            d.insert(Entry::builder(dn(s)).class("thing").build().unwrap())
                .unwrap();
        }
        d
    }

    fn table() -> (DnTable, Directory) {
        let d = dir();
        let pager = tiny_pager();
        let t = DnTable::build(&pager, d.iter_sorted()).unwrap();
        (t, d)
    }

    /// DNs in scope, read through the range + raw path.
    fn in_scope(t: &DnTable, base: &str, scope: Scope) -> Vec<String> {
        let base = if base.is_empty() {
            Dn::root()
        } else {
            dn(base)
        };
        let range = t.scope_range(&base, scope);
        let ctx = t.pager().ctx();
        let mut out = Vec::new();
        t.read_raw(
            range.positions().filter(|&p| t.in_scope(&range, p)),
            |hit| {
                out.push(hit.decode(&ctx)?.dn().to_string());
                Ok(())
            },
        )
        .unwrap();
        out
    }

    #[test]
    fn build_and_full_scan() {
        let (t, d) = table();
        assert_eq!(t.len(), 8);
        let got: Vec<String> = t.scan().map(|r| r.unwrap().dn().to_string()).collect();
        let expect: Vec<String> = d.iter_sorted().map(|e| e.dn().to_string()).collect();
        assert_eq!(got, expect);
        // The in-memory keys are the entries' keys, in table order.
        for (pos, e) in d.iter_sorted().enumerate() {
            assert_eq!(t.key(pos as u64), e.dn().sort_key().as_bytes());
        }
    }

    #[test]
    fn unsorted_or_repeated_input_is_refused() {
        let d = dir();
        let sorted: Vec<&Entry> = d.iter_sorted().collect();
        let mut swapped = sorted.clone();
        swapped.swap(2, 3);
        let mut repeated = sorted.clone();
        repeated.insert(4, sorted[4]);
        for bad in [swapped, repeated] {
            let err = DnTable::build(&tiny_pager(), bad).err().expect("refused");
            assert!(
                matches!(err, netdir_pager::PagerError::CorruptRecord { .. }),
                "{err}"
            );
        }
        assert_eq!(DnTable::build(&tiny_pager(), sorted).unwrap().len(), 8);
    }

    /// `admitted` counts what `in_scope` admits, for every scope and
    /// base (stored, absent, the root), over a table missing the parent
    /// of some records — and stops at its cap.
    #[test]
    fn admitted_counts_the_records_in_scope() {
        let mut entries: Vec<Entry> = dir().iter_sorted().cloned().collect();
        for orphan in ["uid=c, ou=gone, dc=att, dc=com", "cn=x, uid=d, ou=gone, dc=att, dc=com"] {
            entries.push(Entry::builder(dn(orphan)).class("thing").build().unwrap());
        }
        entries.sort_by(|a, b| a.dn().sort_key().cmp(b.dn().sort_key()));
        let t = DnTable::build(&tiny_pager(), &entries).unwrap();
        let mut bases: Vec<Dn> = entries.iter().map(|e| e.dn().clone()).collect();
        bases.extend([Dn::root(), dn("ou=gone, dc=att, dc=com"), dn("dc=net")]);
        for base in &bases {
            for scope in [Scope::Base, Scope::One, Scope::Sub] {
                let range = t.scope_range(base, scope);
                let admitted = range.positions().filter(|&p| t.in_scope(&range, p)).count();
                let what = format!("({base} ? {scope})");
                assert_eq!(t.admitted(&range, u64::MAX), admitted as u64, "{what}");
                assert_eq!(t.admitted(&range, 1), admitted.min(1) as u64, "{what}");
            }
        }
        let att_one = t.scope_range(&dn("dc=att, dc=com"), Scope::One);
        assert_eq!(t.admitted(&att_one, u64::MAX), 3, "dc=att, people, policies");
        let gone_one = t.scope_range(&dn("ou=gone, dc=att, dc=com"), Scope::One);
        assert_eq!(t.admitted(&gone_one, u64::MAX), 1, "uid=c only");
    }

    #[test]
    fn scope_ranges() {
        let (t, _) = table();
        assert_eq!(
            in_scope(&t, "ou=people, dc=att, dc=com", Scope::Sub),
            vec![
                "ou=people, dc=att, dc=com",
                "uid=a, ou=people, dc=att, dc=com",
                "uid=b, ou=people, dc=att, dc=com",
            ]
        );
        assert_eq!(
            in_scope(&t, "dc=att, dc=com", Scope::One),
            vec![
                "dc=att, dc=com",
                "ou=people, dc=att, dc=com",
                "ou=policies, dc=att, dc=com",
            ]
        );
        assert_eq!(in_scope(&t, "dc=org", Scope::Base), vec!["dc=org"]);
        // One position resolved for a base lookup, wherever it sorts.
        assert_eq!(t.scope_range(&dn("dc=org"), Scope::Base).len(), 1);
    }

    #[test]
    fn missing_base() {
        let (t, _) = table();
        for scope in [Scope::Base, Scope::One, Scope::Sub] {
            assert!(t.scope_range(&dn("dc=net"), scope).is_empty());
        }
        // An absent base still scopes its stored descendants.
        assert!(t
            .scope_range(&dn("ou=ghost, dc=org"), Scope::Sub)
            .is_empty());
        let mut d = dir();
        d.insert(
            Entry::builder(dn("cn=x, ou=ghost, dc=org"))
                .class("thing")
                .build()
                .unwrap(),
        )
        .unwrap();
        let t = DnTable::build(&tiny_pager(), d.iter_sorted()).unwrap();
        assert_eq!(
            in_scope(&t, "ou=ghost, dc=org", Scope::Sub),
            vec!["cn=x, ou=ghost, dc=org"]
        );
        assert_eq!(
            in_scope(&t, "ou=ghost, dc=org", Scope::One),
            vec!["cn=x, ou=ghost, dc=org"]
        );
        assert!(in_scope(&t, "ou=ghost, dc=org", Scope::Base).is_empty());
        // Grandchildren of an absent base are not its children.
        assert_eq!(in_scope(&t, "dc=org", Scope::One).len(), 2);
    }

    #[test]
    fn root_scope_is_everything() {
        let (t, _) = table();
        assert_eq!(in_scope(&t, "", Scope::Sub).len(), 8);
        assert_eq!(in_scope(&t, "", Scope::One), vec!["dc=com", "dc=org"]);
        assert!(in_scope(&t, "", Scope::Base).is_empty());
    }

    #[test]
    fn raw_hits_encode_to_the_wire_image() {
        for pager in [tiny_pager(), Pager::compressed(256, 8)] {
            let d = dir();
            let t = DnTable::build(&pager, d.iter_sorted()).unwrap();
            let ctx = pager.ctx();
            let mut got = Vec::new();
            t.read_raw(0..t.len(), |hit| {
                got.push(hit.into_encoded(&ctx)?);
                Ok(())
            })
            .unwrap();
            let want: Vec<Vec<u8>> = d
                .iter_sorted()
                .map(|e| {
                    let mut buf = Vec::new();
                    e.encode(&mut buf);
                    buf
                })
                .collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn scoped_read_touches_fewer_pages_than_full_scan() {
        // Build a bigger directory so it spans many pages.
        let mut d = Directory::new();
        for i in 0..50 {
            d.insert(
                Entry::builder(dn(&format!("dc=d{i:03}")))
                    .class("dcObject")
                    .build()
                    .unwrap(),
            )
            .unwrap();
            for j in 0..20 {
                d.insert(
                    Entry::builder(dn(&format!("cn=c{j:02}, dc=d{i:03}")))
                        .class("person")
                        .build()
                        .unwrap(),
                )
                .unwrap();
            }
        }
        let pager = tiny_pager();
        let t = DnTable::build(&pager, d.iter_sorted()).unwrap();
        pager.flush().unwrap();
        pager.pool().clear_cache().unwrap();
        pager.reset_io();
        assert_eq!(in_scope(&t, "dc=d025", Scope::Sub).len(), 21);
        let scoped_reads = pager.io().reads;
        assert!(
            scoped_reads * 4 < t.num_pages(),
            "scoped scan read {scoped_reads} of {} pages",
            t.num_pages()
        );
        // A base lookup reads the one page its record lies on.
        pager.pool().clear_cache().unwrap();
        pager.reset_io();
        assert_eq!(in_scope(&t, "cn=c07, dc=d031", Scope::Base).len(), 1);
        assert_eq!(pager.io().reads, 1);
    }
}

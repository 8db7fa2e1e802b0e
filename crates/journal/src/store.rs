//! [`JournalStore`]: the live directory — validate, log, apply, publish.
//!
//! The write protocol per batch:
//!
//! 1. **Validate** every mutation against a private overlay of the
//!    current state (so later mutations in the batch see earlier ones).
//!    Any violation rejects the whole batch before anything is logged —
//!    batches are atomic.
//! 2. **Log**: encode the batch and append it to the WAL. When the
//!    append returns, the batch is durable; replay after a crash
//!    re-applies it through this same code path, so entry-id assignment
//!    is deterministic.
//! 3. **Apply**: update the in-memory [`Directory`] mirror, splice the
//!    copy-on-write entry list, and incrementally maintain the
//!    attribute indexes.
//! 4. **Publish**: advance the epoch. Readers that pinned the previous
//!    epoch keep their page-table snapshot; superseded pages reclaim
//!    once the last such reader drains.
//!
//! Reads come in two flavors: [`JournalStore::evaluate_atomic`] answers
//! against the *current* state under the store lock (index probe with
//! scan fallback, mirroring `IndexedDirectory`), while
//! [`JournalStore::snapshot`] pins an epoch and hands back a
//! [`Snapshot`] implementing [`AtomicSource`] — a long `evaluate` or
//! `evaluate_parallel` run sees one consistent directory no matter how
//! many batches land meanwhile.

use crate::epoch::{EpochRegistry, EpochStats};
use crate::indexes::LiveIndexes;
use crate::live_list::LiveList;
use crate::mutation::{Mutation, MutationBatch};
use crate::wal::Wal;
use netdir_filter::{AtomicFilter, Scope};
use netdir_model::{
    AttrName, Directory, Dn, Entry, ModelError, SortKey, Value,
};
use netdir_obs::{names, Clock, MetricsRegistry, MonotonicClock};
use netdir_pager::disk::{Disk, MemDisk};
use netdir_pager::record::Record;
use netdir_pager::{
    IoStats, ListWriter, PagedList, Pager, PagerError, PagerResult,
};
use netdir_query::AtomicSource;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Everything that can go wrong on the write path.
#[derive(Debug)]
pub enum JournalError {
    /// A mutation violated the data model (unknown DN, duplicate DN,
    /// schema violation, …). Nothing was logged or applied.
    Model(ModelError),
    /// Storage-layer failure.
    Pager(PagerError),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Model(e) => write!(f, "rejected: {e}"),
            JournalError::Pager(e) => write!(f, "storage: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<ModelError> for JournalError {
    fn from(e: ModelError) -> Self {
        JournalError::Model(e)
    }
}

impl From<PagerError> for JournalError {
    fn from(e: PagerError) -> Self {
        JournalError::Pager(e)
    }
}

/// What one committed batch did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApplyOutcome {
    /// The epoch at which the batch became visible.
    pub epoch: u64,
    /// Mutations applied.
    pub mutations: usize,
}

/// What reopening a WAL recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Committed batches replayed.
    pub batches: usize,
    /// Individual mutations replayed.
    pub mutations: usize,
    /// Replay wall-clock, microseconds.
    pub replay_us: u64,
    /// Bytes of log discarded past the committed prefix.
    pub truncated_bytes: u64,
}

/// Counters the store accumulates across its lifetime.
#[derive(Debug, Clone, Copy, Default)]
pub struct JournalStats {
    /// Batches durably applied (excluding replay).
    pub batches_applied: u64,
    /// Mutations durably applied (excluding replay).
    pub mutations_applied: u64,
    /// WAL appends (one per batch, plus replayed history on reopen).
    pub wal_appends: u64,
    /// WAL durability barriers.
    pub wal_fsyncs: u64,
    /// Pages written through the WAL disk.
    pub wal_page_writes: u64,
    /// Epoch census.
    pub epochs: EpochStats,
}

/// A mutation validated against the overlay and ready to apply.
enum PlannedOp {
    Insert(Entry),
    Replace {
        dn: Dn,
        add: Vec<(AttrName, Value)>,
        remove: Vec<(AttrName, Value)>,
    },
    Remove(Dn),
}

struct StoreInner {
    wal: Wal,
    dir: Directory,
    list: LiveList,
    indexes: LiveIndexes,
}

/// The live directory store. Clone-free sharing via `Arc` outside.
pub struct JournalStore {
    pager: Pager,
    epochs: Arc<EpochRegistry>,
    inner: Mutex<StoreInner>,
    batches_applied: AtomicU64,
    mutations_applied: AtomicU64,
    last_replay_us: AtomicU64,
}

impl JournalStore {
    /// Open a store over a seed directory with a fresh (empty) WAL on an
    /// in-memory device with the pager's page size.
    pub fn create(pager: &Pager, seed: Directory) -> PagerResult<JournalStore> {
        let disk: Box<dyn Disk> =
            Box::new(MemDisk::new(pager.page_size(), IoStats::new()));
        let (store, _report) = JournalStore::open(pager, seed, disk)?;
        Ok(store)
    }

    /// Open a store over a seed directory plus a WAL device, replaying
    /// the committed prefix of the log on top of the seed.
    ///
    /// Replay stops at the first batch that fails to decode or apply
    /// (a torn tail the checksum happened to pass cannot re-validate);
    /// the log is truncated back to the last good batch so the next
    /// append overwrites the garbage.
    pub fn open(
        pager: &Pager,
        seed: Directory,
        disk: Box<dyn Disk>,
    ) -> PagerResult<(JournalStore, RecoveryReport)> {
        JournalStore::open_with_clock(pager, seed, disk, &MonotonicClock::new())
    }

    /// [`JournalStore::open`] with an injected time source for the
    /// recovery-report replay timing.
    pub fn open_with_clock(
        pager: &Pager,
        seed: Directory,
        disk: Box<dyn Disk>,
        clock: &dyn Clock,
    ) -> PagerResult<(JournalStore, RecoveryReport)> {
        let t0 = clock.now();
        let (wal, records) = Wal::open(disk)?;
        let epochs = EpochRegistry::new();
        let list = LiveList::bulk_load(pager, Arc::clone(&epochs), seed.iter_sorted())?;
        let indexes = LiveIndexes::build(pager, seed.iter_sorted())?;
        let mut inner = StoreInner {
            wal,
            dir: seed,
            list,
            indexes,
        };

        let mut report = RecoveryReport::default();
        let full_tail = inner.wal.tail();
        let mut good_end = None;
        for rec in &records {
            let Ok(batch) = MutationBatch::decode(&rec.payload) else {
                break;
            };
            let Ok(plan) = plan_batch(&inner, &batch) else {
                break;
            };
            apply_plan(&mut inner, plan)?;
            epochs.advance();
            report.batches += 1;
            report.mutations += batch.len();
            good_end = Some(rec.end);
        }
        if report.batches < records.len() {
            let keep = good_end.unwrap_or(8);
            report.truncated_bytes = full_tail - keep;
            inner.wal.truncate_to(keep)?;
        }
        report.replay_us = clock.now().saturating_sub(t0).as_micros() as u64;

        // Replay must not double-count "applied" work.
        let store = JournalStore {
            pager: pager.clone(),
            epochs,
            inner: Mutex::new(inner),
            batches_applied: AtomicU64::new(0),
            mutations_applied: AtomicU64::new(0),
            last_replay_us: AtomicU64::new(report.replay_us),
        };
        Ok((store, report))
    }

    /// Reopen from a raw WAL byte image (the crash-recovery tests
    /// truncate this at arbitrary byte boundaries).
    pub fn open_from_wal_bytes(
        pager: &Pager,
        seed: Directory,
        bytes: &[u8],
        wal_page_size: usize,
    ) -> PagerResult<(JournalStore, RecoveryReport)> {
        JournalStore::open(pager, seed, Wal::disk_from_bytes(bytes, wal_page_size))
    }

    /// Validate, durably log, and apply one batch. Atomic: on any
    /// validation error nothing is logged or applied.
    pub fn apply(&self, batch: &MutationBatch) -> Result<ApplyOutcome, JournalError> {
        let mut inner = self.lock();
        let plan = plan_batch(&inner, batch)?;
        let mut payload = Vec::new();
        batch.encode(&mut payload);
        inner.wal.append(&payload)?; // ── durability point ──
        apply_plan(&mut inner, plan)?;
        drop(inner);
        let epoch = self.epochs.advance();
        self.batches_applied.fetch_add(1, Ordering::Relaxed);
        self.mutations_applied
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        Ok(ApplyOutcome {
            epoch,
            mutations: batch.len(),
        })
    }

    /// Pin the current epoch and capture an immutable view. Cheap:
    /// clones page-table metadata, reads no pages.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        let guard = self.epochs.pin();
        let (list, fences) = inner.list.snapshot();
        Snapshot {
            pager: self.pager.clone(),
            list,
            fences,
            guard,
        }
    }

    /// Evaluate an atomic query against the *current* state under the
    /// store lock: index probe with scope filtering and fetch-time
    /// verification, scan fallback — `IndexedDirectory` semantics.
    pub fn evaluate_atomic(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &AtomicFilter,
    ) -> PagerResult<PagedList<Entry>> {
        let inner = self.lock();
        match inner.indexes.probe(filter) {
            Some(mut ids) => {
                let base_key = base.sort_key().clone();
                ids.sort_unstable();
                ids.dedup();
                let mut hits: Vec<(&SortKey, netdir_model::EntryId)> = ids
                    .iter()
                    .filter_map(|&id| inner.indexes.key_of(id).map(|k| (k, id)))
                    .filter(|(k, _)| match scope {
                        Scope::Base => **k == base_key,
                        Scope::Sub => base_key.subsumes(k),
                        Scope::One => {
                            base_key.subsumes(k) && k.depth() <= base_key.depth() + 1
                        }
                    })
                    .collect();
                hits.sort_by(|a, b| a.0.cmp(b.0));
                let mut w = ListWriter::new(&self.pager);
                for (k, _) in hits {
                    if let Some(e) = inner.list.fetch(k.as_bytes())? {
                        if filter.matches(&e) {
                            w.push(&e)?;
                        }
                    }
                }
                w.finish()
            }
            None => {
                let (list, fences) = inner.list.snapshot();
                drop(inner);
                select_scope(&self.pager, &list, &fences, base, scope, |e| {
                    filter.matches(e)
                })
            }
        }
    }

    /// Look up one entry by DN in the current state.
    pub fn lookup(&self, dn: &Dn) -> Option<Entry> {
        self.lock().dir.lookup(dn).cloned()
    }

    /// Number of live entries.
    pub fn len(&self) -> u64 {
        self.lock().list.len()
    }

    /// True iff the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The writer's current epoch.
    pub fn epoch(&self) -> u64 {
        self.epochs.current()
    }

    /// Run `f` over the current directory mirror under the store lock
    /// (e.g. to rebuild static query structures after a batch).
    pub fn with_directory<R>(&self, f: impl FnOnce(&Directory) -> R) -> R {
        f(&self.lock().dir)
    }

    /// The raw WAL image (testing and backup).
    pub fn wal_bytes(&self) -> PagerResult<Vec<u8>> {
        self.lock().wal.raw_bytes()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> JournalStats {
        let inner = self.lock();
        JournalStats {
            batches_applied: self.batches_applied.load(Ordering::Relaxed),
            mutations_applied: self.mutations_applied.load(Ordering::Relaxed),
            wal_appends: inner.wal.appends(),
            wal_fsyncs: inner.wal.fsyncs(),
            wal_page_writes: inner.wal.page_writes(),
            epochs: self.epochs.stats(),
        }
    }

    /// Export the write-path counters into a metrics registry under the
    /// stable names in [`netdir_obs::names`].
    pub fn sync_metrics(&self, m: &MetricsRegistry) {
        let s = self.stats();
        m.counter(names::WAL_FSYNCS).set(s.wal_fsyncs);
        m.counter(names::WAL_PAGE_WRITES).set(s.wal_page_writes);
        m.counter(names::MUTATION_BATCHES).set(s.batches_applied);
        m.counter(names::MUTATIONS_APPLIED).set(s.mutations_applied);
        m.gauge(names::EPOCH_LAG)
            .set(s.epochs.current - s.epochs.min_pinned.unwrap_or(s.epochs.current));
        m.counter(names::JOURNAL_PAGES_RECLAIMED)
            .set(s.epochs.reclaimed_total);
        let replay = self.last_replay_us.load(Ordering::Relaxed);
        if replay > 0 {
            m.histogram(names::WAL_REPLAY_US).observe(replay);
            self.last_replay_us.store(0, Ordering::Relaxed);
        }
    }

    fn lock(&self) -> MutexGuard<'_, StoreInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Dry-run the batch against an overlay of the current state. Returns
/// the concrete operations to apply, or the first violation.
fn plan_batch(
    inner: &StoreInner,
    batch: &MutationBatch,
) -> Result<Vec<PlannedOp>, ModelError> {
    // key → Some(entry) (exists, possibly pending) | None (pending delete)
    let mut overlay: BTreeMap<Vec<u8>, Option<Entry>> = BTreeMap::new();
    let current = |overlay: &BTreeMap<Vec<u8>, Option<Entry>>, dn: &Dn| -> Option<Entry> {
        let key = dn.sort_key().as_bytes().to_vec();
        match overlay.get(&key) {
            Some(slot) => slot.clone(),
            None => inner.dir.lookup(dn).cloned(),
        }
    };
    let mut plan = Vec::with_capacity(batch.len());
    for m in batch.mutations() {
        match m {
            Mutation::Add(e) => {
                if let Some(schema) = inner.dir.schema() {
                    e.validate(schema)?;
                } else {
                    e.check_rdn_in_values()?;
                }
                if current(&overlay, e.dn()).is_some() {
                    return Err(ModelError::DuplicateDn {
                        dn: e.dn().to_string(),
                    });
                }
                overlay.insert(e.dn().sort_key().as_bytes().to_vec(), Some(e.clone()));
                plan.push(PlannedOp::Insert(e.clone()));
            }
            Mutation::Modify {
                dn,
                add,
                remove,
                remove_attrs,
            } => {
                let cur = current(&overlay, dn).ok_or_else(|| ModelError::NoSuchEntry {
                    dn: dn.to_string(),
                })?;
                // Expand whole-attribute removals into concrete pairs
                // against the current value set, so apply and replay run
                // the exact same pair-level edit.
                let mut remove_all: Vec<(AttrName, Value)> = remove.clone();
                for (a, v) in cur.pairs() {
                    if remove_attrs.iter().any(|ra| ra == a) {
                        remove_all.push((a.clone(), v.clone()));
                    }
                }
                // Rebuild through the builder exactly like
                // `Directory::modify` will.
                let mut b = Entry::builder(cur.dn().clone());
                'pairs: for (a, v) in cur.pairs() {
                    for (ra, rv) in &remove_all {
                        if a == ra && v.canonical() == rv.canonical() {
                            continue 'pairs;
                        }
                    }
                    b = b.attr(a.clone(), v.clone());
                }
                for (a, v) in add {
                    b = b.attr(a.clone(), v.clone());
                }
                let rebuilt = b.build()?;
                if let Some(schema) = inner.dir.schema() {
                    rebuilt.validate(schema)?;
                }
                overlay.insert(dn.sort_key().as_bytes().to_vec(), Some(rebuilt));
                plan.push(PlannedOp::Replace {
                    dn: dn.clone(),
                    add: add.clone(),
                    remove: remove_all,
                });
            }
            Mutation::Delete(dn) => {
                if current(&overlay, dn).is_none() {
                    return Err(ModelError::NoSuchEntry {
                        dn: dn.to_string(),
                    });
                }
                overlay.insert(dn.sort_key().as_bytes().to_vec(), None);
                plan.push(PlannedOp::Remove(dn.clone()));
            }
        }
    }
    Ok(plan)
}

/// Apply a validated plan to the directory mirror, the entry list, and
/// the indexes. Must not fail post-validation; a storage error here is
/// surfaced but leaves the batch partially applied (callers treat it as
/// fatal).
fn apply_plan(inner: &mut StoreInner, plan: Vec<PlannedOp>) -> PagerResult<()> {
    for op in plan {
        match op {
            PlannedOp::Insert(e) => {
                let id = inner.dir.insert(e).map_err(storage_invariant)?;
                let stored = inner.dir.get(id).expect("just inserted").clone();
                inner.list.insert(&stored)?;
                inner.indexes.insert_entry(&stored)?;
            }
            PlannedOp::Replace { dn, add, remove } => {
                let old = inner
                    .dir
                    .lookup(&dn)
                    .expect("validated to exist")
                    .clone();
                inner
                    .dir
                    .modify(&dn, &add, &remove)
                    .map_err(storage_invariant)?;
                let new = inner.dir.lookup(&dn).expect("still exists").clone();
                inner.list.replace(&new)?;
                inner.indexes.remove_entry(&old)?;
                inner.indexes.insert_entry(&new)?;
            }
            PlannedOp::Remove(dn) => {
                let old = inner.dir.remove(&dn).map_err(storage_invariant)?;
                inner.list.remove(old.dn().sort_key().as_bytes())?;
                inner.indexes.remove_entry(&old)?;
            }
        }
    }
    Ok(())
}

/// A model error after successful validation means the plan and the
/// mirror disagree — report it as corruption, not as a user error.
fn storage_invariant(e: ModelError) -> PagerError {
    PagerError::CorruptRecord {
        detail: format!("planned mutation failed to apply: {e}"),
    }
}

/// Scope-scan `list` (with `fences` as page lower bounds): start at the
/// last page whose fence does not exceed the base's key, stop when the
/// keys leave the subtree, writing matches to a fresh result list.
fn select_scope(
    pager: &Pager,
    list: &PagedList<Entry>,
    fences: &[Vec<u8>],
    base: &Dn,
    scope: Scope,
    mut pred: impl FnMut(&Entry) -> bool,
) -> PagerResult<PagedList<Entry>> {
    let prefix = base.sort_key().as_bytes().to_vec();
    let start_page = match fences.binary_search_by(|f| f[..].cmp(&prefix)) {
        Ok(p) => p,
        Err(0) => 0,
        Err(p) => p - 1,
    };
    let mut w = ListWriter::new(pager);
    'outer: for r in list.iter_from_page(start_page) {
        let e = r?;
        let key = e.dn().sort_key().as_bytes().to_vec();
        if key < prefix {
            continue;
        }
        if !key.starts_with(&prefix) {
            break 'outer;
        }
        if scope.contains(base, e.dn()) && pred(&e) {
            w.push(&e)?;
        }
    }
    w.finish()
}

/// An immutable, epoch-pinned view of the store.
///
/// Holding the snapshot keeps every page it references readable; the
/// pin releases on drop. Implements [`AtomicSource`], so the full
/// query stack — including `evaluate_parallel` — runs unchanged against
/// it.
pub struct Snapshot {
    pager: Pager,
    list: PagedList<Entry>,
    fences: Vec<Vec<u8>>,
    guard: crate::epoch::EpochGuard,
}

impl Snapshot {
    /// The epoch this snapshot pins.
    pub fn epoch(&self) -> u64 {
        self.guard.epoch()
    }

    /// Number of entries visible.
    pub fn len(&self) -> u64 {
        self.list.len()
    }

    /// True iff the snapshot sees no entries.
    pub fn is_empty(&self) -> bool {
        self.list.len() == 0
    }

    /// All visible entries, sorted by reverse DN.
    pub fn to_vec(&self) -> PagerResult<Vec<Entry>> {
        self.list.to_vec()
    }

    /// Evaluate `(base ? scope ? pred)` by fence-guided scope scan.
    pub fn select_scope(
        &self,
        base: &Dn,
        scope: Scope,
        pred: impl FnMut(&Entry) -> bool,
    ) -> PagerResult<PagedList<Entry>> {
        select_scope(&self.pager, &self.list, &self.fences, base, scope, pred)
    }
}

impl AtomicSource for Snapshot {
    /// Scope scan only: probing the *live* indexes from a snapshot could
    /// miss entries deleted after the pin, so the snapshot answers from
    /// its own pinned pages exclusively.
    fn evaluate_atomic(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &AtomicFilter,
    ) -> PagerResult<PagedList<Entry>> {
        self.select_scope(base, scope, |e| filter.matches(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdir_pager::tiny_pager;

    fn dn(s: &str) -> Dn {
        Dn::parse(s).unwrap()
    }

    fn seed() -> Directory {
        let mut d = Directory::new();
        for s in ["dc=com", "dc=att, dc=com", "ou=people, dc=att, dc=com"] {
            d.insert(Entry::builder(dn(s)).class("container").build().unwrap())
                .unwrap();
        }
        d
    }

    fn person(i: usize) -> Entry {
        Entry::builder(dn(&format!("uid=u{i:02}, ou=people, dc=att, dc=com")))
            .class("person")
            .attr("surName", format!("sur{i:02}"))
            .attr("priority", i as i64)
            .build()
            .unwrap()
    }

    fn add_batch(range: std::ops::Range<usize>) -> MutationBatch {
        MutationBatch::from_mutations(range.map(|i| Mutation::Add(person(i))).collect())
    }

    #[test]
    fn apply_makes_entries_queryable() {
        let pager = tiny_pager();
        let store = JournalStore::create(&pager, seed()).unwrap();
        store.apply(&add_batch(0..5)).unwrap();
        let out = store
            .evaluate_atomic(&dn("dc=com"), Scope::Sub, &AtomicFilter::present("uid"))
            .unwrap();
        assert_eq!(out.len(), 5);
        // Probe path and scan path agree.
        let scan = store
            .evaluate_atomic(&dn("dc=com"), Scope::Sub, &AtomicFilter::True)
            .unwrap();
        assert_eq!(scan.len(), 8); // 3 containers + 5 people
    }

    #[test]
    fn batches_are_atomic() {
        let pager = tiny_pager();
        let store = JournalStore::create(&pager, seed()).unwrap();
        let mut bad = add_batch(0..3);
        bad.push(Mutation::Delete(dn("uid=ghost, dc=com"))); // fails validation
        let err = store.apply(&bad).unwrap_err();
        assert!(matches!(err, JournalError::Model(_)));
        assert_eq!(store.len(), 3, "nothing from the failed batch applied");
        assert_eq!(store.stats().wal_appends, 0, "nothing logged either");
    }

    #[test]
    fn modify_and_delete_flow_through() {
        let pager = tiny_pager();
        let store = JournalStore::create(&pager, seed()).unwrap();
        store.apply(&add_batch(0..3)).unwrap();
        let target = dn("uid=u01, ou=people, dc=att, dc=com");
        store
            .apply(&MutationBatch::from_mutations(vec![Mutation::Modify {
                dn: target.clone(),
                add: vec![("title".into(), Value::Str("chief".into()))],
                remove: vec![],
                remove_attrs: vec!["priority".into()],
            }]))
            .unwrap();
        let e = store.lookup(&target).unwrap();
        assert_eq!(e.first_str(&"title".into()), Some("chief"));
        assert!(!e.has_attr(&"priority".into()));
        // The int index no longer finds it.
        let out = store
            .evaluate_atomic(
                &dn("dc=com"),
                Scope::Sub,
                &AtomicFilter::int_cmp("priority", netdir_filter::atomic::IntOp::Eq, 1),
            )
            .unwrap();
        assert_eq!(out.len(), 0);

        store
            .apply(&MutationBatch::from_mutations(vec![Mutation::Delete(
                target.clone(),
            )]))
            .unwrap();
        assert!(store.lookup(&target).is_none());
        assert_eq!(store.len(), 5);
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let pager = tiny_pager();
        let store = JournalStore::create(&pager, seed()).unwrap();
        store.apply(&add_batch(0..4)).unwrap();
        let snap = store.snapshot();
        let before = snap.len();
        store.apply(&add_batch(4..9)).unwrap();
        store
            .apply(&MutationBatch::from_mutations(vec![Mutation::Delete(dn(
                "uid=u00, ou=people, dc=att, dc=com",
            ))]))
            .unwrap();
        assert_eq!(snap.len(), before, "snapshot length drifted");
        let out = snap
            .evaluate_atomic(&dn("dc=com"), Scope::Sub, &AtomicFilter::present("uid"))
            .unwrap();
        assert_eq!(out.len(), 4, "snapshot sees exactly its epoch's entries");
        // Current state moved on.
        assert_eq!(store.len(), 3 + 8);
    }

    #[test]
    fn replay_reconstructs_state_and_ids() {
        let pager = tiny_pager();
        let store = JournalStore::create(&pager, seed()).unwrap();
        store.apply(&add_batch(0..6)).unwrap();
        store
            .apply(&MutationBatch::from_mutations(vec![
                Mutation::Delete(dn("uid=u02, ou=people, dc=att, dc=com")),
                Mutation::Modify {
                    dn: dn("uid=u03, ou=people, dc=att, dc=com"),
                    add: vec![("note".into(), Value::Str("kept".into()))],
                    remove: vec![],
                    remove_attrs: vec![],
                },
            ]))
            .unwrap();
        let bytes = store.wal_bytes().unwrap();

        let pager2 = tiny_pager();
        let (re, report) =
            JournalStore::open_from_wal_bytes(&pager2, seed(), &bytes, pager.page_size())
                .unwrap();
        assert_eq!(report.batches, 2);
        assert_eq!(report.mutations, 8);
        assert_eq!(re.len(), store.len());
        // Entries identical, including assigned ids.
        let a = store.snapshot().to_vec().unwrap();
        let b = re.snapshot().to_vec().unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id(), y.id(), "replay changed id of {}", x.dn());
            assert_eq!(x.pairs(), y.pairs());
        }
    }

    #[test]
    fn metrics_sync_exports_stable_names() {
        let pager = tiny_pager();
        let store = JournalStore::create(&pager, seed()).unwrap();
        store.apply(&add_batch(0..2)).unwrap();
        let m = MetricsRegistry::new();
        store.sync_metrics(&m);
        let flat: std::collections::BTreeMap<String, u64> =
            m.flatten().into_iter().collect();
        assert_eq!(flat[names::MUTATION_BATCHES], 1);
        assert_eq!(flat[names::MUTATIONS_APPLIED], 2);
        assert!(flat[names::WAL_FSYNCS] >= 1);
    }
}

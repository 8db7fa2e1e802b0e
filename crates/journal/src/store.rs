//! [`JournalStore`]: the write path — validate, log, apply.
//!
//! The write protocol per batch, all under the store lock:
//!
//! 1. **Validate** every mutation against a private overlay of the
//!    directory mirror (so later mutations in the batch see earlier
//!    ones). Any violation rejects the whole batch before anything is
//!    logged — batches are atomic.
//! 2. **Log**: encode the batch and append it to the WAL. When the
//!    append returns, the batch is durable; replay after a crash
//!    re-applies it through this same code path, so entry-id assignment
//!    is deterministic.
//! 3. **Apply** the validated plan to the in-memory [`Directory`] mirror.
//! 4. **Bump the epoch**: a plain count of the batches in the mirror,
//!    replayed and applied, reported back as [`ApplyOutcome::epoch`].
//!
//! The store answers no queries. Readers are isolated one level up: a
//! server publishes its next query generation inside
//! [`JournalStore::with_directory`] — under the store lock, so from
//! exactly one committed state — as an immutable `Arc` that later
//! batches never touch.

use crate::mutation::{Mutation, MutationBatch};
use crate::wal::Wal;
use netdir_model::{AttrName, Directory, Dn, Entry, ModelError, Value};
use netdir_obs::{names, Clock, MetricsRegistry, MonotonicClock};
use netdir_pager::disk::{Disk, MemDisk};
use netdir_pager::record::Record;
use netdir_pager::{IoStats, Pager, PagerError, PagerResult};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

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
    /// Batches in the mirror, replayed and applied.
    epoch: u64,
    /// Batches and mutations applied since open (replay excluded).
    batches_applied: u64,
    mutations_applied: u64,
    /// Replay time not yet exported by `sync_metrics` (0 once taken).
    pending_replay_us: u64,
}

/// The write-ahead log and the directory mirror it protects. Clone-free
/// sharing via `Arc` outside.
pub struct JournalStore {
    inner: Mutex<StoreInner>,
}

impl JournalStore {
    /// Open a store over a seed directory with a fresh (empty) WAL on an
    /// in-memory device with the pager's page size.
    pub fn create(pager: &Pager, seed: Directory) -> PagerResult<JournalStore> {
        let disk: Box<dyn Disk> = Box::new(MemDisk::new(pager.page_size(), IoStats::new()));
        let (store, _report) = JournalStore::open(pager, seed, disk)?;
        Ok(store)
    }

    /// Open a store over a seed directory plus a WAL device, replaying
    /// the committed prefix of the log on top of the seed. The store
    /// keeps no pages of its own: the WAL lives on `disk`, and `pager`
    /// is unused.
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
        _pager: &Pager,
        seed: Directory,
        disk: Box<dyn Disk>,
        clock: &dyn Clock,
    ) -> PagerResult<(JournalStore, RecoveryReport)> {
        let t0 = clock.now();
        let (wal, records) = Wal::open(disk)?;
        let mut inner = StoreInner {
            wal,
            dir: seed,
            epoch: 0,
            batches_applied: 0,
            mutations_applied: 0,
            pending_replay_us: 0,
        };

        let mut report = RecoveryReport::default();
        let full_tail = inner.wal.tail();
        let mut good_end = None;
        for rec in &records {
            let Ok(batch) = MutationBatch::decode(&rec.payload) else {
                break;
            };
            let Ok(plan) = plan_batch(&inner.dir, &batch) else {
                break;
            };
            apply_plan(&mut inner.dir, plan)?;
            inner.epoch += 1;
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
        // Replay is not "applied" work; only its timing is exported.
        inner.pending_replay_us = report.replay_us;
        let store = JournalStore {
            inner: Mutex::new(inner),
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
        JournalStore::open(pager, seed, Wal::disk_from_bytes(bytes, wal_page_size)?)
    }

    /// Validate, durably log, and apply one batch. Atomic: on any
    /// validation error nothing is logged or applied.
    pub fn apply(&self, batch: &MutationBatch) -> Result<ApplyOutcome, JournalError> {
        let mut inner = self.lock();
        let plan = plan_batch(&inner.dir, batch)?;
        let mut payload = Vec::new();
        batch.encode(&mut payload);
        inner.wal.append(&payload)?; // ── durability point ──
        apply_plan(&mut inner.dir, plan)?;
        inner.epoch += 1;
        inner.batches_applied += 1;
        inner.mutations_applied += batch.len() as u64;
        Ok(ApplyOutcome {
            epoch: inner.epoch,
            mutations: batch.len(),
        })
    }

    /// Look up one entry by DN in the current state.
    pub fn lookup(&self, dn: &Dn) -> Option<Entry> {
        self.lock().dir.lookup(dn).cloned()
    }

    /// Number of live entries.
    pub fn len(&self) -> u64 {
        self.lock().dir.len() as u64
    }

    /// True iff the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current epoch: batches in the mirror, replayed and applied.
    pub fn epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// Run `f` over the directory mirror under the store lock, so `f`
    /// sees exactly one committed state (e.g. to build the next query
    /// generation after a batch).
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
            batches_applied: inner.batches_applied,
            mutations_applied: inner.mutations_applied,
            wal_appends: inner.wal.appends(),
            wal_fsyncs: inner.wal.fsyncs(),
            wal_page_writes: inner.wal.page_writes(),
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
        let replay = std::mem::take(&mut self.lock().pending_replay_us);
        if replay > 0 {
            m.histogram(names::WAL_REPLAY_US).observe(replay);
        }
    }

    fn lock(&self) -> MutexGuard<'_, StoreInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Dry-run the batch against an overlay of the current state. Returns
/// the concrete operations to apply, or the first violation.
fn plan_batch(dir: &Directory, batch: &MutationBatch) -> Result<Vec<PlannedOp>, ModelError> {
    // key → Some(entry) (exists, possibly pending) | None (pending delete)
    let mut overlay: BTreeMap<Vec<u8>, Option<Entry>> = BTreeMap::new();
    let current = |overlay: &BTreeMap<Vec<u8>, Option<Entry>>, dn: &Dn| -> Option<Entry> {
        let key = dn.sort_key().as_bytes().to_vec();
        match overlay.get(&key) {
            Some(slot) => slot.clone(),
            None => dir.lookup(dn).cloned(),
        }
    };
    let mut plan = Vec::with_capacity(batch.len());
    for m in batch.mutations() {
        match m {
            Mutation::Add(e) => {
                if let Some(schema) = dir.schema() {
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
                let cur = current(&overlay, dn)
                    .ok_or_else(|| ModelError::NoSuchEntry { dn: dn.to_string() })?;
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
                if let Some(schema) = dir.schema() {
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
                    return Err(ModelError::NoSuchEntry { dn: dn.to_string() });
                }
                overlay.insert(dn.sort_key().as_bytes().to_vec(), None);
                plan.push(PlannedOp::Remove(dn.clone()));
            }
        }
    }
    Ok(plan)
}

/// Apply a validated plan to the directory mirror. Must not fail
/// post-validation; an error here means the plan and the mirror
/// disagree and leaves the batch partially applied (callers treat it as
/// fatal).
fn apply_plan(dir: &mut Directory, plan: Vec<PlannedOp>) -> PagerResult<()> {
    for op in plan {
        match op {
            PlannedOp::Insert(e) => dir.insert(e).map(drop),
            PlannedOp::Replace { dn, add, remove } => dir.modify(&dn, &add, &remove),
            PlannedOp::Remove(dn) => dir.remove(&dn).map(drop),
        }
        .map_err(storage_invariant)?;
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

    /// Every entry of the mirror, in reverse-DN order.
    fn entries(store: &JournalStore) -> Vec<Entry> {
        store.with_directory(|d| d.iter_sorted().cloned().collect())
    }

    /// Entries under `dc=com` holding the pair `attr=value`.
    fn holding(store: &JournalStore, attr: &str, value: Value) -> usize {
        let attr = AttrName::from(attr);
        store.with_directory(|d| {
            d.subtree(&dn("dc=com"))
                .filter(|e| e.pairs().iter().any(|(a, v)| *a == attr && *v == value))
                .count()
        })
    }

    #[test]
    fn apply_makes_entries_visible_in_the_mirror() {
        let pager = tiny_pager();
        let store = JournalStore::create(&pager, seed()).unwrap();
        store.apply(&add_batch(0..5)).unwrap();
        let uid = AttrName::from("uid");
        let people = store.with_directory(|d| {
            d.subtree(&dn("dc=com"))
                .filter(|e| e.has_attr(&uid))
                .count()
        });
        assert_eq!(people, 5);
        let all = store.with_directory(|d| d.subtree(&dn("dc=com")).count());
        assert_eq!(all, 8); // 3 containers + 5 people
        assert_eq!(store.epoch(), 1);
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
        assert_eq!(store.epoch(), 0, "a rejected batch publishes no epoch");
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
        // No entry carries the removed value any more.
        assert_eq!(holding(&store, "priority", Value::Int(1)), 0);
        assert_eq!(holding(&store, "priority", Value::Int(2)), 1);

        store
            .apply(&MutationBatch::from_mutations(vec![Mutation::Delete(
                target.clone(),
            )]))
            .unwrap();
        assert!(store.lookup(&target).is_none());
        assert_eq!(store.len(), 5);
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
            JournalStore::open_from_wal_bytes(&pager2, seed(), &bytes, pager.page_size()).unwrap();
        assert_eq!(report.batches, 2);
        assert_eq!(report.mutations, 8);
        assert_eq!(re.len(), store.len());
        assert_eq!(re.epoch(), store.epoch());
        // Entries identical, including assigned ids.
        let a = entries(&store);
        let b = entries(&re);
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
        let flat: std::collections::BTreeMap<String, u64> = m.flatten().into_iter().collect();
        assert_eq!(flat[names::MUTATION_BATCHES], 1);
        assert_eq!(flat[names::MUTATIONS_APPLIED], 2);
        assert!(flat[names::WAL_FSYNCS] >= 1);
    }
}

//! One directory server's zone: its configuration, a shared base, and a
//! sorted delta.
//!
//! A [`ZoneStore`] answers atomic queries (and baseline LDAP searches)
//! on the caller's thread — there is no store thread and no channel.
//! Hits leave the base table undecoded ([`IndexedDirectory::visit_atomic`])
//! and are handed out as their frozen [`Entry::encode`] images
//! ([`RawHit::into_encoded`]; on a v1 store the on-page bytes verbatim),
//! each beside the sort key the table (or the delta) holds for it in
//! memory ([`KeyedImage`]). So answering decodes nothing and writes no
//! page, a caller merging or operating on the answer never derives a
//! key, and shipped bytes are measured with the same codec the pager
//! uses.
//!
//! A zone is two parts:
//!
//! * the **base**: the entries partitioned to the server when the
//!   cluster was last built, and, once first asked, the indexed store
//!   built from them. Building is the expensive part of a zone (every
//!   index over every entry), so it happens on first use, by whichever
//!   request needs it first, and consumes the partition: a zone never
//!   holds its base entries twice. The base sits behind an `Arc` that
//!   every later generation of the zone shares until the next
//!   compaction, so it is built at most once however many generations
//!   are published on top of it;
//! * the **delta**: the DNs written since, as a key-sorted list of
//!   upserts and tombstones ([`Delta`]), merged into every answer. A
//!   published batch extends it ([`ZoneStore::with_writes`]) and builds
//!   nothing else.

use netdir_filter::{AtomicFilter, CompositeFilter, Scope};
use netdir_index::{AtomicCost, Delta, DeltaWrite, IndexedDirectory, RawHit};
use netdir_model::{Dn, Entry};
use netdir_pager::record::Record;
use netdir_pager::{Pager, PagerError, PagerResult};
use std::sync::{Arc, Mutex, OnceLock};

/// Configuration of one server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Human-readable name (e.g. `research-dsa`).
    pub name: String,
    /// The naming context this server owns.
    pub context: Dn,
    /// Page size of the server's local store.
    pub page_size: usize,
    /// Buffer-pool frames of the server's local store.
    pub frames: usize,
}

impl ServerConfig {
    /// Config with default store sizing.
    pub fn new(name: impl Into<String>, context: Dn) -> ServerConfig {
        ServerConfig {
            name: name.into(),
            context,
            page_size: 4096,
            frames: 64,
        }
    }
}

/// A zone's base: its partition until first asked, then the indexed
/// store built from it.
struct Base {
    /// Entries in the partition.
    len: usize,
    pager: Pager,
    /// The partition, until the store is built from it.
    partition: Mutex<Vec<Entry>>,
    /// The store, or the reason it could not be built (which every
    /// request is then answered with).
    store: OnceLock<Result<IndexedDirectory, String>>,
}

impl Base {
    /// The store, built by the first caller; later callers wait for that
    /// build rather than start their own.
    fn store(&self) -> Result<&IndexedDirectory, String> {
        let built = self.store.get_or_init(|| {
            let entries = std::mem::take(
                &mut *self.partition.lock().unwrap_or_else(|e| e.into_inner()),
            );
            // A build that panicked took the partition with it; serving
            // an empty zone instead would be a silent wrong answer.
            if entries.len() != self.len {
                return Err("store build failed: an earlier build did not finish".into());
            }
            IndexedDirectory::from_sorted(&self.pager, &entries)
                .map_err(|e| format!("store build failed: {e}"))
        });
        built.as_ref().map_err(String::clone)
    }
}

/// One entry of a zone's answer: its frozen [`Entry::encode`] image
/// beside its sort key. A zone answers with these in key order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyedImage {
    /// The entry's reverse-DN sort key.
    pub key: Vec<u8>,
    /// The entry's image.
    pub image: Vec<u8>,
}

/// The images of `answer`, in its order: what an answer frame carries.
pub fn images(answer: Vec<KeyedImage>) -> Vec<Vec<u8>> {
    answer.into_iter().map(|hit| hit.image).collect()
}

/// One server's zone: a shared base plus the delta written over it.
/// Cloning shares both.
#[derive(Clone)]
pub struct ZoneStore {
    /// The server's configuration.
    pub config: ServerConfig,
    /// Number of entries the server owns.
    pub num_entries: usize,
    base: Arc<Base>,
    delta: Delta,
}

impl ZoneStore {
    /// A zone owning `entries`, sorted by reverse-DN key, each DN once
    /// (they must belong to the server's context; the cluster builder
    /// partitions accordingly). Nothing is built yet.
    pub fn new(config: ServerConfig, entries: Vec<Entry>) -> ZoneStore {
        ZoneStore {
            num_entries: entries.len(),
            base: Arc::new(Base {
                len: entries.len(),
                pager: Pager::new(config.page_size, config.frames),
                partition: Mutex::new(entries),
                store: OnceLock::new(),
            }),
            config,
            delta: Delta::default(),
        }
    }

    /// This zone with `writes` merged into its delta, on the same base:
    /// `O(|writes| log |writes| + |delta|)`, and nothing is built.
    pub fn with_writes(&self, writes: Vec<DeltaWrite<'_>>) -> ZoneStore {
        let delta = self.delta.with(writes);
        ZoneStore {
            config: self.config.clone(),
            num_entries: self.base.len.saturating_add_signed(delta.net_entries()),
            base: Arc::clone(&self.base),
            delta,
        }
    }

    /// Entries in the base, written or not since.
    pub fn base_len(&self) -> usize {
        self.base.len
    }

    /// The delta over the base.
    pub fn delta(&self) -> &Delta {
        &self.delta
    }

    /// True iff both zones read the same base (one built, at most once,
    /// for both).
    pub fn shares_base(&self, other: &ZoneStore) -> bool {
        Arc::ptr_eq(&self.base, &other.base)
    }

    /// The work the base's index has done since it was built; zero
    /// while it is unbuilt (asking builds nothing).
    pub fn index_cost(&self) -> AtomicCost {
        match self.base.store.get() {
            Some(Ok(idx)) => idx.cost(),
            _ => AtomicCost::default(),
        }
    }

    /// The pager under the zone's base store (its I/O ledger and page
    /// count are the server's storage footprint; no pages until first
    /// use).
    pub fn pager(&self) -> &Pager {
        &self.base.pager
    }

    /// The entries `visit` yields, in their frozen wire encoding, with
    /// their keys.
    fn answer(
        &self,
        visit: impl FnOnce(
            &IndexedDirectory,
            &mut dyn FnMut(RawHit<'_>) -> PagerResult<()>,
        ) -> PagerResult<()>,
    ) -> Result<Vec<KeyedImage>, String> {
        let idx = self.base.store()?;
        let ctx = idx.table().pager().ctx();
        let mut out = Vec::new();
        visit(idx, &mut |hit| {
            out.push(KeyedImage {
                key: hit.key().to_vec(),
                image: hit.into_encoded(&ctx)?,
            });
            Ok(())
        })
        .map_err(|e| e.to_string())?;
        Ok(out)
    }

    /// Evaluate an atomic query: the matching entries' images, sorted by
    /// reverse DN, with their keys.
    pub fn atomic(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &AtomicFilter,
    ) -> Result<Vec<KeyedImage>, String> {
        self.answer(|idx, visit| idx.visit_atomic(&self.delta, base, scope, filter, visit))
    }

    /// Evaluate a baseline LDAP query (one base, one scope, a composite
    /// filter) against this zone alone.
    pub fn ldap(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &CompositeFilter,
    ) -> Result<Vec<KeyedImage>, String> {
        self.answer(|idx, visit| idx.visit_composite(&self.delta, base, scope, filter, visit))
    }
}

/// Decode wire-format entries.
pub fn decode_entries(encoded: &[Vec<u8>]) -> Result<Vec<Entry>, PagerError> {
    encoded.iter().map(|b| Entry::decode(b)).collect()
}

/// Total wire bytes of an answer: its images (keys do not ship).
pub fn wire_bytes(answer: &[KeyedImage]) -> u64 {
    answer.iter().map(|hit| hit.image.len() as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn(s: &str) -> Dn {
        Dn::parse(s).unwrap()
    }

    fn entries() -> Vec<Entry> {
        ["dc=att, dc=com", "ou=p, dc=att, dc=com", "uid=a, ou=p, dc=att, dc=com"]
            .iter()
            .map(|s| {
                Entry::builder(dn(s))
                    .class("thing")
                    .attr("surName", "jagadish")
                    .build()
                    .unwrap()
            })
            .collect()
    }

    fn zone() -> ZoneStore {
        ZoneStore::new(ServerConfig::new("att", dn("dc=att, dc=com")), entries())
    }

    fn image(e: &Entry) -> Vec<u8> {
        let mut buf = Vec::new();
        e.encode(&mut buf);
        buf
    }

    #[test]
    fn zone_answers_atomic_queries() {
        let hits = zone()
            .atomic(
                &dn("dc=att, dc=com"),
                Scope::Sub,
                &AtomicFilter::eq("surName", "jagadish"),
            )
            .unwrap();
        let hits = decode_entries(&images(hits)).unwrap();
        assert_eq!(hits.len(), 3);
        // Sorted on the wire.
        for w in hits.windows(2) {
            assert!(w[0].dn() < w[1].dn());
        }
    }

    #[test]
    fn zone_answers_ldap_queries() {
        let f = netdir_filter::parse_composite("(&(surName=jagadish)(uid=a))").unwrap();
        let hits = zone().ldap(&dn("dc=att, dc=com"), Scope::Sub, &f).unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn shipped_bytes_are_the_frozen_entry_encoding() {
        // The entries as given, ids included: a zone renumbers nothing.
        let want: Vec<Vec<u8>> = entries()[1..].iter().map(image).collect();
        let got = zone()
            .atomic(
                &dn("ou=p, dc=att, dc=com"),
                Scope::Sub,
                &AtomicFilter::present("surName"),
            )
            .unwrap();
        assert_eq!(images(got), want);
    }

    #[test]
    fn a_written_zone_shares_its_base_and_answers_through_its_delta() {
        let first = zone();
        let built = first.atomic(&dn("dc=att, dc=com"), Scope::Sub, &AtomicFilter::True);
        assert_eq!(built.unwrap().len(), 3);
        let pages = first.pager().pool().num_pages();
        // Delete a base entry, modify another, add a new one.
        let base = entries();
        let modified = Entry::builder(base[1].dn().clone())
            .class("thing")
            .attr("surName", "srivastava")
            .build()
            .unwrap();
        let added = Entry::builder(dn("uid=b, ou=p, dc=att, dc=com"))
            .class("thing")
            .attr("surName", "jagadish")
            .build()
            .unwrap();
        let write = |dn, entry, existed| DeltaWrite { dn, entry, existed };
        let next = first.with_writes(vec![
            write(base[0].dn(), None, true),
            write(base[1].dn(), Some(&modified), true),
            write(added.dn(), Some(&added), false),
        ]);
        assert!(next.shares_base(&first));
        assert_eq!((next.num_entries, next.delta().len()), (3, 3));
        let got = next
            .atomic(&dn("dc=att, dc=com"), Scope::Sub, &AtomicFilter::True)
            .unwrap();
        assert_eq!(images(got), vec![image(&modified), image(&base[2]), image(&added)]);
        let f = netdir_filter::parse_composite("(surName=jagadish)").unwrap();
        let jag = next.ldap(&dn("dc=att, dc=com"), Scope::Sub, &f).unwrap();
        assert_eq!(images(jag), vec![image(&base[2]), image(&added)]);
        // Nothing was rebuilt, and the first generation is unchanged.
        assert_eq!(next.pager().pool().num_pages(), pages);
        let old = first.atomic(&dn("dc=att, dc=com"), Scope::Sub, &AtomicFilter::True);
        assert_eq!(images(old.unwrap()), base.iter().map(image).collect::<Vec<_>>());
    }

    #[test]
    fn the_store_is_built_on_first_use_and_answering_allocates_no_pages() {
        // Regression: every answer used to be materialised as a fresh
        // list on the store's never-freeing device, a page or more each.
        let zone = zone();
        assert_eq!(zone.pager().pool().num_pages(), 0, "nothing built yet");
        let ask = |scope, filter: &AtomicFilter| {
            zone.atomic(&dn("dc=att, dc=com"), scope, filter).unwrap().len()
        };
        assert_eq!(ask(Scope::Sub, &AtomicFilter::True), 3);
        let pages = zone.pager().pool().num_pages();
        assert!(pages > 0);
        for i in 0..1000 {
            let scope = [Scope::Base, Scope::One, Scope::Sub][i % 3];
            ask(scope, &AtomicFilter::eq("surName", "jagadish"));
            ask(scope, &AtomicFilter::True);
        }
        let f = netdir_filter::parse_composite("(surName=jagadish)").unwrap();
        let hits = zone.ldap(&dn("dc=att, dc=com"), Scope::Sub, &f).unwrap();
        assert_eq!(hits.len(), 3);
        assert_eq!(zone.pager().pool().num_pages(), pages);
    }

    #[test]
    fn concurrent_first_requests_build_once() {
        let shared = zone();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let hits = shared
                        .atomic(&dn("dc=att, dc=com"), Scope::Sub, &AtomicFilter::True)
                        .unwrap();
                    assert_eq!(hits.len(), 3);
                });
            }
        });
        let alone = zone();
        alone
            .atomic(&dn("dc=att, dc=com"), Scope::Base, &AtomicFilter::True)
            .unwrap();
        assert_eq!(
            shared.pager().pool().num_pages(),
            alone.pager().pool().num_pages()
        );
    }

    #[test]
    fn failed_store_build_answers_every_request_with_the_cause() {
        let mut twice = entries();
        twice.push(twice[0].clone());
        let zone = ZoneStore::new(ServerConfig::new("att", dn("dc=att, dc=com")), twice);
        for _ in 0..2 {
            let err = zone
                .atomic(&dn("dc=att, dc=com"), Scope::Sub, &AtomicFilter::True)
                .unwrap_err();
            assert!(err.contains("store build failed"), "{err}");
        }
        let f = netdir_filter::parse_composite("(uid=a)").unwrap();
        let err = zone.ldap(&dn("dc=att, dc=com"), Scope::Sub, &f).unwrap_err();
        assert!(err.contains("store build failed"), "{err}");
    }
}

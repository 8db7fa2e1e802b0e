//! One directory server's zone: its configuration and its indexed store.
//!
//! A [`ZoneStore`] holds the entries partitioned to one server and
//! answers atomic queries (and baseline LDAP searches) on the caller's
//! thread — there is no store thread and no channel. Hits leave the
//! table undecoded ([`IndexedDirectory::visit_atomic`]) and are handed
//! out as their frozen [`Entry::encode`] images ([`RawHit::into_encoded`];
//! on a v1 store the on-page bytes verbatim), so answering decodes
//! nothing and writes no page, and shipped bytes are measured with the
//! same codec the pager uses.
//!
//! The store is built **on first use**, by whichever request needs it
//! first, and the build consumes the partition, so a zone never holds its
//! entries twice. Building is the expensive part of a zone (every index
//! over every entry); a cluster generation that is replaced before anyone
//! reads it — a mutation published on top of another — never pays it.

use netdir_filter::{AtomicFilter, CompositeFilter, Scope};
use netdir_index::{IndexedDirectory, RawHit};
use netdir_model::{Directory, Dn, Entry};
use netdir_pager::record::Record;
use netdir_pager::{Pager, PagerError, PagerResult};
use std::sync::{Mutex, OnceLock};

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

/// One server's zone: the entries it owns and, once first asked, the
/// indexed store built from them.
pub struct ZoneStore {
    /// The server's configuration.
    pub config: ServerConfig,
    /// Number of entries the server owns.
    pub num_entries: usize,
    pager: Pager,
    /// The partition, until the store is built from it.
    partition: Mutex<Vec<Entry>>,
    /// The store, or the reason it could not be built (which every
    /// request is then answered with).
    store: OnceLock<Result<IndexedDirectory, String>>,
}

impl ZoneStore {
    /// A zone owning `entries` (they must belong to the server's context;
    /// the cluster builder partitions accordingly). Nothing is built yet.
    pub fn new(config: ServerConfig, entries: Vec<Entry>) -> ZoneStore {
        ZoneStore {
            num_entries: entries.len(),
            pager: Pager::new(config.page_size, config.frames),
            config,
            partition: Mutex::new(entries),
            store: OnceLock::new(),
        }
    }

    /// The pager under the zone's store (its I/O ledger and page count
    /// are the server's storage footprint; no pages until first use).
    pub fn pager(&self) -> &Pager {
        &self.pager
    }

    /// The store, built by the first caller; later callers wait for that
    /// build rather than start their own.
    fn store(&self) -> Result<&IndexedDirectory, String> {
        let built = self.store.get_or_init(|| {
            let entries = std::mem::take(
                &mut *self.partition.lock().unwrap_or_else(|e| e.into_inner()),
            );
            // A build that panicked took the partition with it; serving
            // an empty zone instead would be a silent wrong answer.
            if entries.len() != self.num_entries {
                return Err("store build failed: an earlier build did not finish".into());
            }
            build_store(&self.pager, entries)
        });
        built.as_ref().map_err(String::clone)
    }

    /// The entries `visit` yields, in their frozen wire encoding.
    fn answer(
        &self,
        visit: impl FnOnce(
            &IndexedDirectory,
            &mut dyn FnMut(RawHit<'_>) -> PagerResult<()>,
        ) -> PagerResult<()>,
    ) -> Result<Vec<Vec<u8>>, String> {
        let idx = self.store()?;
        let ctx = idx.table().pager().ctx();
        let mut out = Vec::new();
        visit(idx, &mut |hit| {
            out.push(hit.into_encoded(&ctx)?);
            Ok(())
        })
        .map_err(|e| e.to_string())?;
        Ok(out)
    }

    /// Evaluate an atomic query: the matching entries' images, sorted by
    /// reverse DN.
    pub fn atomic(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &AtomicFilter,
    ) -> Result<Vec<Vec<u8>>, String> {
        self.answer(|idx, visit| idx.visit_atomic(base, scope, filter, visit))
    }

    /// Evaluate a baseline LDAP query (one base, one scope, a composite
    /// filter) against this zone alone.
    pub fn ldap(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &CompositeFilter,
    ) -> Result<Vec<Vec<u8>>, String> {
        self.answer(|idx, visit| idx.visit_composite(base, scope, filter, visit))
    }
}

/// Build a zone's store; the error is what every request is answered
/// with if it cannot be built.
fn build_store(pager: &Pager, entries: Vec<Entry>) -> Result<IndexedDirectory, String> {
    let mut dir = Directory::new();
    for e in entries {
        // Partitioned input is disjoint; a duplicate is a builder bug.
        dir.insert(e)
            .map_err(|e| format!("store build failed: invalid partition: {e}"))?;
    }
    IndexedDirectory::build(pager, &dir).map_err(|e| format!("store build failed: {e}"))
}

/// Decode wire-format entries.
pub fn decode_entries(encoded: &[Vec<u8>]) -> Result<Vec<Entry>, PagerError> {
    encoded.iter().map(|b| Entry::decode(b)).collect()
}

/// Total wire bytes of an encoded response.
pub fn wire_bytes(encoded: &[Vec<u8>]) -> u64 {
    encoded.iter().map(|b| b.len() as u64).sum()
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

    #[test]
    fn zone_answers_atomic_queries() {
        let hits = zone()
            .atomic(
                &dn("dc=att, dc=com"),
                Scope::Sub,
                &AtomicFilter::eq("surName", "jagadish"),
            )
            .unwrap();
        let hits = decode_entries(&hits).unwrap();
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
        let mut dir = Directory::new();
        for e in entries() {
            dir.insert(e).unwrap();
        }
        let want: Vec<Vec<u8>> = dir
            .subtree(&dn("ou=p, dc=att, dc=com"))
            .map(|e| {
                let mut buf = Vec::new();
                e.encode(&mut buf);
                buf
            })
            .collect();
        let got = zone()
            .atomic(
                &dn("ou=p, dc=att, dc=com"),
                Scope::Sub,
                &AtomicFilter::present("surName"),
            )
            .unwrap();
        assert_eq!(got, want);
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
        assert_eq!(zone.ldap(&dn("dc=att, dc=com"), Scope::Sub, &f).unwrap().len(), 3);
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

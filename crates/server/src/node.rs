//! A directory server node: one thread, one naming context, one indexed
//! store.
//!
//! Nodes answer atomic queries (and baseline LDAP queries) over a
//! crossbeam channel. Entries cross the "wire" in their on-page encoding,
//! so shipped bytes are measured with the same codec the pager uses.

use crossbeam::channel::{unbounded, Receiver, Sender};
use netdir_filter::{AtomicFilter, CompositeFilter, Scope};
use netdir_index::{IndexedDirectory, RawHit};
use netdir_model::{Directory, Dn, Entry};
use netdir_pager::record::Record;
use netdir_pager::{Pager, PagerError, PagerResult};
use std::thread::JoinHandle;

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

/// A request to a server node.
pub enum Request {
    /// Evaluate an atomic query; respond with encoded sorted entries.
    Atomic {
        /// Base DN.
        base: Dn,
        /// Scope.
        scope: Scope,
        /// Filter.
        filter: AtomicFilter,
        /// Reply channel.
        reply: Sender<Result<Vec<Vec<u8>>, String>>,
    },
    /// Evaluate a baseline LDAP query (single base/scope/composite filter).
    Ldap {
        /// Base DN.
        base: Dn,
        /// Scope.
        scope: Scope,
        /// Composite filter.
        filter: CompositeFilter,
        /// Reply channel.
        reply: Sender<Result<Vec<Vec<u8>>, String>>,
    },
    /// Stop the node thread.
    Shutdown,
}

/// Handle to a running server node.
pub struct ServerNode {
    /// The node's configuration.
    pub config: ServerConfig,
    /// Number of entries this node stores.
    pub num_entries: usize,
    sender: Sender<Request>,
    pager: Pager,
    handle: Option<JoinHandle<()>>,
}

impl ServerNode {
    /// Spawn a node owning `entries` (they must belong to the node's
    /// context; the cluster builder partitions accordingly).
    pub fn spawn(config: ServerConfig, entries: Vec<Entry>) -> ServerNode {
        let num_entries = entries.len();
        let (sender, receiver) = unbounded::<Request>();
        let pager = Pager::new(config.page_size, config.frames);
        let store_pager = pager.clone();
        let handle = std::thread::Builder::new()
            .name(format!("dsa-{}", config.name))
            .spawn(move || node_loop(store_pager, entries, receiver))
            .expect("spawn server thread");
        ServerNode {
            config,
            num_entries,
            sender,
            pager,
            handle: Some(handle),
        }
    }

    /// The pager under the node's local store (its I/O ledger and page
    /// count are the node's storage footprint).
    pub fn pager(&self) -> &Pager {
        &self.pager
    }

    /// The request channel.
    pub fn sender(&self) -> Sender<Request> {
        self.sender.clone()
    }

    /// Synchronously run an atomic query against this node, returning
    /// decoded entries (test/convenience path; the distributed evaluator
    /// speaks the channel protocol directly).
    pub fn atomic(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &AtomicFilter,
    ) -> Result<Vec<Entry>, String> {
        let (reply, rx) = unbounded();
        self.sender
            .send(Request::Atomic {
                base: base.clone(),
                scope,
                filter: filter.clone(),
                reply,
            })
            .map_err(|e| e.to_string())?;
        let encoded = rx.recv().map_err(|e| e.to_string())??;
        decode_entries(&encoded).map_err(|e| e.to_string())
    }

    /// Synchronously run a baseline LDAP query against this node.
    pub fn ldap(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &CompositeFilter,
    ) -> Result<Vec<Entry>, String> {
        let (reply, rx) = unbounded();
        self.sender
            .send(Request::Ldap {
                base: base.clone(),
                scope,
                filter: filter.clone(),
                reply,
            })
            .map_err(|e| e.to_string())?;
        let encoded = rx.recv().map_err(|e| e.to_string())??;
        decode_entries(&encoded).map_err(|e| e.to_string())
    }
}

impl Drop for ServerNode {
    fn drop(&mut self) {
        let _ = self.sender.send(Request::Shutdown);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Build the node's local store; the error is what every request is
/// answered with if it cannot be built.
fn build_store(pager: &Pager, entries: Vec<Entry>) -> Result<IndexedDirectory, String> {
    let mut dir = Directory::new();
    for e in entries {
        // Partitioned input is disjoint; a duplicate is a builder bug.
        dir.insert(e)
            .map_err(|e| format!("store build failed: invalid partition: {e}"))?;
    }
    IndexedDirectory::build(pager, &dir).map_err(|e| format!("store build failed: {e}"))
}

/// One request's answer: the entries `visit` yields, in their frozen
/// wire encoding — on a v1 store the on-page image verbatim, so
/// answering decodes nothing and writes no page.
fn answer(
    store: &Result<IndexedDirectory, String>,
    visit: impl FnOnce(
        &IndexedDirectory,
        &mut dyn FnMut(RawHit<'_>) -> PagerResult<()>,
    ) -> PagerResult<()>,
) -> Result<Vec<Vec<u8>>, String> {
    let idx = store.as_ref().map_err(String::clone)?;
    let ctx = idx.table().pager().ctx();
    let mut out = Vec::new();
    visit(idx, &mut |hit| {
        out.push(hit.into_encoded(&ctx)?);
        Ok(())
    })
    .map_err(|e| e.to_string())?;
    Ok(out)
}

fn node_loop(pager: Pager, entries: Vec<Entry>, receiver: Receiver<Request>) {
    // A store that fails to build keeps the thread serving: each request
    // is answered with the build error rather than a dead channel.
    let store = build_store(&pager, entries);

    while let Ok(req) = receiver.recv() {
        match req {
            Request::Shutdown => break,
            Request::Atomic {
                base,
                scope,
                filter,
                reply,
            } => {
                let result = answer(&store, |idx, visit| {
                    idx.visit_atomic(&base, scope, &filter, visit)
                });
                let _ = reply.send(result);
            }
            Request::Ldap {
                base,
                scope,
                filter,
                reply,
            } => {
                let result = answer(&store, |idx, visit| {
                    idx.visit_composite(&base, scope, &filter, visit)
                });
                let _ = reply.send(result);
            }
        }
    }
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

    #[test]
    fn node_answers_atomic_queries() {
        let node = ServerNode::spawn(
            ServerConfig::new("att", dn("dc=att, dc=com")),
            entries(),
        );
        let hits = node
            .atomic(
                &dn("dc=att, dc=com"),
                Scope::Sub,
                &AtomicFilter::eq("surName", "jagadish"),
            )
            .unwrap();
        assert_eq!(hits.len(), 3);
        // Sorted on the wire.
        for w in hits.windows(2) {
            assert!(w[0].dn() < w[1].dn());
        }
    }

    #[test]
    fn node_answers_ldap_queries() {
        let node = ServerNode::spawn(
            ServerConfig::new("att", dn("dc=att, dc=com")),
            entries(),
        );
        let f = netdir_filter::parse_composite("(&(surName=jagadish)(uid=a))").unwrap();
        let hits = node.ldap(&dn("dc=att, dc=com"), Scope::Sub, &f).unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn shipped_bytes_are_the_frozen_entry_encoding() {
        let node = ServerNode::spawn(
            ServerConfig::new("att", dn("dc=att, dc=com")),
            entries(),
        );
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
        let (reply, rx) = unbounded();
        node.sender()
            .send(Request::Atomic {
                base: dn("ou=p, dc=att, dc=com"),
                scope: Scope::Sub,
                filter: AtomicFilter::present("surName"),
                reply,
            })
            .unwrap();
        assert_eq!(rx.recv().unwrap().unwrap(), want);
    }

    #[test]
    fn answering_allocates_no_pages() {
        // Regression: every answer used to be materialised as a fresh
        // list on the node's never-freeing device, a page or more each.
        let node = ServerNode::spawn(
            ServerConfig::new("att", dn("dc=att, dc=com")),
            entries(),
        );
        let ask = |scope, filter: &AtomicFilter| {
            node.atomic(&dn("dc=att, dc=com"), scope, filter).unwrap().len()
        };
        assert_eq!(ask(Scope::Sub, &AtomicFilter::True), 3);
        let pages = node.pager().pool().num_pages();
        for i in 0..1000 {
            let scope = [Scope::Base, Scope::One, Scope::Sub][i % 3];
            ask(scope, &AtomicFilter::eq("surName", "jagadish"));
            ask(scope, &AtomicFilter::True);
        }
        let f = netdir_filter::parse_composite("(surName=jagadish)").unwrap();
        assert_eq!(node.ldap(&dn("dc=att, dc=com"), Scope::Sub, &f).unwrap().len(), 3);
        assert_eq!(node.pager().pool().num_pages(), pages);
    }

    #[test]
    fn failed_store_build_answers_every_request_with_the_cause() {
        let mut twice = entries();
        twice.push(twice[0].clone());
        let node = ServerNode::spawn(ServerConfig::new("att", dn("dc=att, dc=com")), twice);
        for _ in 0..2 {
            let err = node
                .atomic(&dn("dc=att, dc=com"), Scope::Sub, &AtomicFilter::True)
                .unwrap_err();
            assert!(err.contains("store build failed"), "{err}");
        }
        let f = netdir_filter::parse_composite("(uid=a)").unwrap();
        let err = node.ldap(&dn("dc=att, dc=com"), Scope::Sub, &f).unwrap_err();
        assert!(err.contains("store build failed"), "{err}");
    }

    #[test]
    fn shutdown_on_drop_joins_thread() {
        let node = ServerNode::spawn(ServerConfig::new("x", dn("dc=com")), vec![]);
        drop(node); // must not hang
    }
}

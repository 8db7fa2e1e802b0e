//! [`DirectoryService`] — the one service every daemon runs.
//!
//! The paper's Section 8.3 server answers the atomic sub-queries
//! delegated to it from its own zone, and evaluates the queries posed to
//! it by shipping sub-queries to the zones' owners. `netdird` runs one
//! over an in-process [`Cluster`]; a [`WireCluster`](crate::WireCluster)
//! runs one per daemon, all sharing one [`Cluster`] routed over sockets.
//!
//! * `Atomic` and `Ldap` are answered from the home zone
//!   (`cluster.store(home)`): they are the server side of
//!   [`SocketTransport`](crate::SocketTransport), so routing them again
//!   would recurse. A routed single-atomic answer is a `Query` frame.
//! * `Query`, `QueryPartial` and `QueryAnalyze` run the cluster's router
//!   as posed to the server the frame names (empty: the home server).
//! * `Mutate` goes through the journal, or is refused without one. A
//!   committed batch is published in `O(batch)`: the next generation
//!   shares every zone's base with the current one and carries the
//!   batch's DNs in the written zones' sorted deltas. Only the first
//!   read after start-up or after a compaction builds a base.
//!   Batches apply and publish one at a time, in commit order.

use crate::codec::{WireRequest, WireResponse};
use crate::server::WireService;
use netdir_journal::{JournalStore, MutationBatch};
use netdir_model::Dn;
use netdir_obs::{names, Clock, MetricsRegistry, MonotonicClock};
use netdir_pager::Pager;
use netdir_query::parse_query;
use netdir_server::delegation::ServerId;
use netdir_server::metrics as bridge;
use netdir_server::node::images;
use netdir_server::{Cluster, ClusterBuilder, ConsistencyMode, KeyedImage};
use std::sync::{Arc, Mutex, RwLock};

/// The write side of a daemon that owns one.
struct Writer {
    /// The shape every generation is built to: contexts and zone-fetch
    /// concurrency.
    shape: ClusterBuilder,
    /// Validation, the WAL, and the directory mirror every generation is
    /// published from. It answers no query.
    journal: JournalStore,
    /// Where the WAL image persists between runs, if anywhere.
    wal_path: Option<String>,
    /// Held from a batch's apply to its publish, so generations publish
    /// in commit order: each one's delta builds on the one before.
    commit: Mutex<()>,
}

/// One directory server's request handler.
///
/// The read side is a generation — a [`Cluster`] of zones over one
/// state of the directory — swapped wholesale behind a lock: queries
/// clone the `Arc` and keep evaluating against their generation even
/// while a mutation publishes the next one. A zone is a base, built by
/// the first request that reaches it and shared by every later
/// generation, plus a small sorted delta of the DNs written since. The
/// optional write side is the journal: every `Mutate` frame validates
/// and durably logs its batch there, then publishes the next generation
/// as the previous one with the batch's DNs in its deltas
/// ([`ClusterBuilder::publish`]): no partition is copied and no index
/// built, except at a compaction.
pub struct DirectoryService {
    /// The current generation.
    cluster: RwLock<Arc<Cluster>>,
    /// The server this service answers as.
    home: ServerId,
    /// The write path; `None` on a read-only service.
    writer: Option<Writer>,
    /// Daemon-wide metrics, served by `Stats` frames.
    metrics: MetricsRegistry,
    /// Time source for query-latency metrics.
    clock: Arc<dyn Clock>,
}

/// A zone's answer as a frame: the images only (a peer derives keys).
fn entries_frame(answer: Result<Vec<KeyedImage>, String>) -> WireResponse {
    match answer {
        Ok(answer) => WireResponse::Entries(images(answer)),
        Err(e) => WireResponse::Error(e),
    }
}

impl DirectoryService {
    /// A read-only service answering as server `home` of `cluster`,
    /// recording into `metrics` (every tracked name is registered).
    pub fn new(
        cluster: Arc<Cluster>,
        home: ServerId,
        metrics: MetricsRegistry,
    ) -> DirectoryService {
        bridge::register_all(&metrics);
        DirectoryService {
            cluster: RwLock::new(cluster),
            home,
            writer: None,
            metrics,
            clock: Arc::new(MonotonicClock::new()),
        }
    }

    /// A service owning the write path, answering as the first server of
    /// `shape`. Its first generation is `shape` built from the journal's
    /// mirror; each batch publishes the next. With `wal_path`, the WAL
    /// image is written there after every batch.
    pub fn journaled(
        journal: JournalStore,
        shape: ClusterBuilder,
        wal_path: Option<String>,
        metrics: MetricsRegistry,
    ) -> DirectoryService {
        let first = journal.with_directory(|dir| shape.clone().build(dir));
        DirectoryService {
            writer: Some(Writer {
                shape,
                journal,
                wal_path,
                commit: Mutex::new(()),
            }),
            ..DirectoryService::new(Arc::new(first), 0, metrics)
        }
    }

    /// The current generation.
    pub fn cluster(&self) -> Arc<Cluster> {
        self.cluster
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The journal, on a service that owns the write path. Batches go
    /// through `Mutate` frames: one applied here directly would not be
    /// published.
    pub fn journal(&self) -> Option<&JournalStore> {
        self.writer.as_ref().map(|w| &w.journal)
    }

    /// The server a query frame's `home` names (empty: this service's).
    fn resolve_home(&self, cluster: &Cluster, home: &str) -> Result<ServerId, WireResponse> {
        if home.is_empty() {
            return Ok(self.home);
        }
        cluster
            .server_id(home)
            .ok_or_else(|| WireResponse::Error(format!("no such server: {home}")))
    }

    /// Apply one batch: journal first (validate → WAL → apply), then
    /// publish the next generation — the current one with the batch's
    /// DNs merged into its zones' deltas — and swap it in. In-flight
    /// queries finish on the old generation; the next query sees the
    /// mutation.
    fn mutate(&self, batch: MutationBatch) -> WireResponse {
        let Some(writer) = &self.writer else {
            return WireResponse::Error("this node is read-only; mutate the primary daemon".into());
        };
        let _commit = writer.commit.lock().unwrap_or_else(|e| e.into_inner());
        // Which DNs the batch writes, and which of them exist before it.
        let touched: Vec<(Dn, bool)> = writer.journal.with_directory(|dir| {
            batch
                .mutations()
                .iter()
                .map(|m| (m.dn().clone(), dir.contains(m.dn())))
                .collect()
        });
        let outcome = match writer.journal.apply(&batch) {
            Ok(o) => o,
            Err(e) => return WireResponse::Error(e.to_string()),
        };
        if let Some(path) = &writer.wal_path {
            match writer.journal.wal_bytes() {
                Ok(bytes) => {
                    if let Err(e) = std::fs::write(path, bytes) {
                        eprintln!("netdird: warning: cannot persist WAL to {path}: {e}");
                    }
                }
                Err(e) => eprintln!("netdird: warning: cannot snapshot WAL: {e}"),
            }
        }
        // Published under the commit lock from the mirror this batch
        // left, so each generation is one committed state.
        let previous = self.cluster();
        let next = writer
            .journal
            .with_directory(|dir| writer.shape.clone().publish(&previous, dir, &touched));
        *self.cluster.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(next);
        WireResponse::Mutated {
            epoch: outcome.epoch,
            mutations: outcome.mutations as u32,
        }
    }

    /// Feed one finished query into the daemon metrics (each query runs
    /// on a fresh scratch pager, so its whole ledger is this query's).
    fn observe_query(&self, pager: &Pager, elapsed_nanos: u64) {
        let io = pager.io();
        bridge::absorb_io(&self.metrics, io);
        bridge::absorb_pool(&self.metrics, pager.pool().metrics());
        bridge::record_query(&self.metrics, elapsed_nanos, io.total());
    }

    /// Evaluate a query frame under `mode`, with its per-operator trace
    /// when `analyze`. Partial outcomes with nothing skipped answer as
    /// plain `Entries`, so a healthy daemon's responses are identical in
    /// both modes.
    fn query(&self, home: &str, text: &str, mode: ConsistencyMode, analyze: bool) -> WireResponse {
        let cluster = self.cluster();
        let home = match self.resolve_home(&cluster, home) {
            Ok(id) => id,
            Err(resp) => return resp,
        };
        let query = match parse_query(text) {
            Ok(q) => q,
            Err(e) => return WireResponse::Error(format!("bad query: {e}")),
        };
        let pager = netdir_pager::default_pager();
        let router = cluster.router();
        let started = self.clock.now();
        let answer = if analyze {
            router
                .query_analyzed(home, &pager, &query, mode)
                .map(|(outcome, trace)| (outcome, Some(trace)))
        } else {
            router
                .query_with(home, &pager, &query, mode)
                .map(|outcome| (outcome, None))
        };
        let (outcome, trace) = match answer {
            Ok(answer) => answer,
            Err(e) => return WireResponse::Error(e.to_string()),
        };
        let elapsed = match &trace {
            Some(trace) => trace.elapsed_nanos,
            None => u64::try_from(self.clock.now().saturating_sub(started).as_nanos())
                .unwrap_or(u64::MAX),
        };
        self.observe_query(&pager, elapsed);
        match trace {
            Some(trace) => WireResponse::Analyzed {
                entries: outcome.entries,
                trace,
            },
            None if outcome.is_complete() => WireResponse::Entries(outcome.entries),
            None => WireResponse::Partial {
                entries: outcome.entries,
                skipped: outcome.partial,
            },
        }
    }

    /// Refresh the registry from every subsystem and render the
    /// Prometheus exposition.
    fn stats(&self) -> WireResponse {
        let cluster = self.cluster();
        let router = cluster.router();
        bridge::sync_net(&self.metrics, router.net().snapshot());
        bridge::sync_retry(&self.metrics, router.retry_stats().snapshot());
        bridge::sync_health(&self.metrics, router.health().transitions());
        if let Some(faults) = router.transport().faults() {
            bridge::sync_fault(&self.metrics, faults.snapshot());
        }
        if let Some(writer) = &self.writer {
            writer.journal.sync_metrics(&self.metrics);
        }
        self.metrics
            .gauge(names::DELTA_ENTRIES)
            .set(cluster.delta_entries() as u64);
        self.metrics
            .counter(names::COMPACTIONS)
            .set(cluster.compactions());
        let index = cluster.index_cost();
        self.metrics
            .counter(names::INDEX_EXAMINED)
            .set(index.examined);
        self.metrics
            .counter(names::INDEX_POSTINGS)
            .set(index.postings);
        self.metrics.counter(names::INDEX_DECODED).set(index.decoded);
        WireResponse::Stats(self.metrics.render_prometheus())
    }
}

impl WireService for DirectoryService {
    fn handle(&self, req: WireRequest) -> WireResponse {
        use ConsistencyMode::{Partial, Strict};
        match req {
            WireRequest::Ping | WireRequest::Shutdown => WireResponse::Pong,
            WireRequest::Atomic { base, scope, filter } => {
                entries_frame(self.cluster().store(self.home).atomic(&base, scope, &filter))
            }
            WireRequest::Ldap { base, scope, filter } => {
                entries_frame(self.cluster().store(self.home).ldap(&base, scope, &filter))
            }
            WireRequest::Query { home, text } => self.query(&home, &text, Strict, false),
            WireRequest::QueryPartial { home, text } => self.query(&home, &text, Partial, false),
            WireRequest::QueryAnalyze { home, text } => self.query(&home, &text, Strict, true),
            WireRequest::Stats => self.stats(),
            WireRequest::Mutate { batch } => self.mutate(batch),
        }
    }
}

//! A loopback cluster of TCP daemons sharing one partitioning rule with
//! the in-process [`Cluster`].
//!
//! [`WireCluster::launch`] takes the same [`ClusterBuilder`] an
//! in-process cluster takes, partitions the directory with
//! [`ClusterBuilder::into_parts`] (so TCP and in-process deployments can
//! never partition differently), then gives every server its own
//! [`WireServer`] on an ephemeral loopback port. Each daemon answers
//! `Atomic` and `Ldap` frames from its own [`ZoneStore`] on the worker
//! thread that read the frame. A shared [`Router`] over
//! [`SocketTransport`] provides distributed evaluation; each daemon also
//! answers full `Query` frames by running that router itself, shipping
//! its remote atomic sub-queries over real sockets.
//!
//! [`Cluster`]: netdir_server::Cluster

use crate::client::{ClientOptions, WireClient};
use crate::codec::{WireRequest, WireResponse};
use crate::server::{ServerOptions, WireServer, WireService};
use crate::socket::SocketTransport;
use netdir_model::{Directory, Entry};
use netdir_obs::{Clock, MetricsRegistry, MonotonicClock};
use netdir_pager::record::Record;
use netdir_pager::Pager;
use netdir_query::parse_query;
use netdir_query::{Query, QueryError, QueryResult};
use netdir_server::delegation::ServerId;
use netdir_server::metrics as bridge;
use netdir_server::{
    BreakerConfig, ClusterBuilder, ConsistencyMode, FaultConfig, FaultStats, FaultTransport,
    NetStats, QueryOutcome, RetryPolicy, RetryStats, Router, ZoneStore,
};
use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, OnceLock};

/// Encode records the way they live on v1 pages and cross every
/// transport: each one's frozen [`Record::encode`] image. Images already
/// in that encoding (`Vec<u8>`) come back as they are.
pub fn encode_entries<T: Record>(entries: &[T]) -> Vec<Vec<u8>> {
    entries
        .iter()
        .map(|e| {
            let mut buf = Vec::new();
            e.encode(&mut buf);
            buf
        })
        .collect()
}

/// A store's answer as a frame.
fn entries_frame(answer: Result<Vec<Vec<u8>>, String>) -> WireResponse {
    match answer {
        Ok(encoded) => WireResponse::Entries(encoded),
        Err(e) => WireResponse::Error(e),
    }
}

/// The per-daemon service: its own zone called directly, full queries
/// via the shared router.
struct NodeService {
    /// Every daemon's zone, indexed by id (this daemon serves
    /// `stores[home]`; the names resolve `Query { home }`).
    stores: Arc<[ZoneStore]>,
    /// This daemon's server id (default `home` for queries).
    home: ServerId,
    /// Distributed evaluator over socket transport; set once all
    /// listeners are bound (requests racing launch get a clean error).
    router: Arc<OnceLock<Router>>,
    /// Cluster-wide metrics, served by `Stats` frames.
    metrics: MetricsRegistry,
    /// Fault-injection counters, set at launch when a [`FaultPlan`] is
    /// active (same race rules as `router`).
    fault: Arc<OnceLock<FaultStats>>,
    /// Time source for query-latency metrics.
    clock: Arc<dyn Clock>,
}

impl NodeService {
    /// This daemon's own zone.
    fn zone(&self) -> &ZoneStore {
        &self.stores[self.home]
    }

    /// Resolve a `Query` frame's `home` field (empty = this daemon).
    fn resolve_home(&self, home: &str) -> Result<ServerId, WireResponse> {
        if home.is_empty() {
            return Ok(self.home);
        }
        self.stores
            .iter()
            .position(|s| s.config.name == home)
            .ok_or_else(|| WireResponse::Error(format!("no such server: {home}")))
    }

    /// Feed one finished query into the cluster metrics: the scratch
    /// pager's whole ledger is this query's I/O (each query gets a
    /// fresh pager).
    fn observe_query(&self, pager: &Pager, elapsed_nanos: u64) {
        let io = pager.io();
        bridge::absorb_io(&self.metrics, io);
        bridge::absorb_pool(&self.metrics, pager.pool().metrics());
        bridge::record_query(&self.metrics, elapsed_nanos, io.total());
    }

    /// Answer a full distributed query under `mode`. A partial outcome
    /// with nothing skipped answers as a plain `Entries` frame, so a
    /// healthy cluster's traffic is indistinguishable from strict mode.
    fn distributed(&self, home: &str, text: &str, mode: ConsistencyMode) -> WireResponse {
        let Some(router) = self.router.get() else {
            return WireResponse::Error("cluster still launching".into());
        };
        let home_id = match self.resolve_home(home) {
            Ok(id) => id,
            Err(resp) => return resp,
        };
        let query = match parse_query(text) {
            Ok(q) => q,
            Err(e) => return WireResponse::Error(format!("bad query: {e}")),
        };
        let pager = netdir_pager::default_pager();
        let started = self.clock.now();
        match router.query_with(home_id, &pager, &query, mode) {
            Ok(outcome) => {
                let elapsed = u64::try_from(
                    self.clock.now().saturating_sub(started).as_nanos(),
                )
                .unwrap_or(u64::MAX);
                self.observe_query(&pager, elapsed);
                if outcome.is_complete() {
                    WireResponse::Entries(outcome.entries)
                } else {
                    WireResponse::Partial {
                        entries: outcome.entries,
                        skipped: outcome.partial,
                    }
                }
            }
            Err(e) => WireResponse::Error(e.to_string()),
        }
    }

    /// Answer a `QueryAnalyze` frame: strict distributed evaluation
    /// plus the per-operator trace.
    fn analyzed(&self, home: &str, text: &str) -> WireResponse {
        let Some(router) = self.router.get() else {
            return WireResponse::Error("cluster still launching".into());
        };
        let home_id = match self.resolve_home(home) {
            Ok(id) => id,
            Err(resp) => return resp,
        };
        let query = match parse_query(text) {
            Ok(q) => q,
            Err(e) => return WireResponse::Error(format!("bad query: {e}")),
        };
        let pager = netdir_pager::default_pager();
        match router.query_analyzed(home_id, &pager, &query, ConsistencyMode::Strict) {
            Ok((outcome, trace)) => {
                self.observe_query(&pager, trace.elapsed_nanos);
                WireResponse::Analyzed {
                    entries: outcome.entries,
                    trace,
                }
            }
            Err(e) => WireResponse::Error(e.to_string()),
        }
    }

    /// Answer a `Stats` frame: refresh the registry from every live
    /// subsystem, then render the Prometheus exposition.
    fn stats(&self) -> WireResponse {
        if let Some(router) = self.router.get() {
            bridge::sync_net(&self.metrics, router.net().snapshot());
            bridge::sync_retry(&self.metrics, router.retry_stats().snapshot());
            bridge::sync_health(&self.metrics, router.health().transitions());
        }
        if let Some(fault) = self.fault.get() {
            bridge::sync_fault(&self.metrics, fault.snapshot());
        }
        WireResponse::Stats(self.metrics.render_prometheus())
    }
}

impl WireService for NodeService {
    fn handle(&self, req: WireRequest) -> WireResponse {
        match req {
            WireRequest::Ping | WireRequest::Shutdown => WireResponse::Pong,
            WireRequest::Atomic { base, scope, filter } => {
                entries_frame(self.zone().atomic(&base, scope, &filter))
            }
            WireRequest::Ldap { base, scope, filter } => {
                entries_frame(self.zone().ldap(&base, scope, &filter))
            }
            WireRequest::Query { home, text } => {
                self.distributed(&home, &text, ConsistencyMode::Strict)
            }
            WireRequest::QueryPartial { home, text } => {
                self.distributed(&home, &text, ConsistencyMode::Partial)
            }
            WireRequest::QueryAnalyze { home, text } => self.analyzed(&home, &text),
            WireRequest::Stats => self.stats(),
            // The loopback cluster's nodes are bulk-loaded read replicas;
            // the single-daemon `netdird` owns the write path.
            WireRequest::Mutate { .. } => {
                WireResponse::Error("this node is read-only; mutate the primary daemon".into())
            }
        }
    }
}

/// Fault-tolerance knobs for [`WireCluster::launch_with_faults`].
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Deterministic fault injection wrapped around the socket
    /// transport (above the TCP clients, so injected faults never race
    /// real sockets and a fixed seed replays bit-identically).
    pub faults: FaultConfig,
    /// Zone-fetch retry policy for the shared router.
    pub retry: RetryPolicy,
    /// Per-server circuit-breaker configuration.
    pub breaker: BreakerConfig,
}

/// A running cluster of loopback TCP daemons.
pub struct WireCluster {
    /// Every daemon's zone, indexed by server id.
    stores: Arc<[ZoneStore]>,
    addrs: Vec<SocketAddr>,
    router: Arc<OnceLock<Router>>,
    servers: Vec<WireServer>,
    orphaned: usize,
    client_opts: ClientOptions,
    /// Fault-injection counters, when launched with a [`FaultPlan`].
    fault_stats: Option<FaultStats>,
    /// Cluster-wide metrics registry (shared with every daemon's
    /// service; served by `Stats` frames).
    metrics: MetricsRegistry,
}

impl WireCluster {
    /// Partition `dir` across the builder's declared contexts and start
    /// one TCP daemon per server on `127.0.0.1:0`.
    pub fn launch(
        builder: ClusterBuilder,
        dir: &Directory,
        server_opts: ServerOptions,
        client_opts: ClientOptions,
    ) -> io::Result<WireCluster> {
        WireCluster::launch_inner(builder, dir, server_opts, client_opts, None)
    }

    /// Like [`WireCluster::launch`], but with deterministic fault
    /// injection between the router and the sockets, plus explicit
    /// retry/breaker configuration — the chaos-test entry point.
    pub fn launch_with_faults(
        builder: ClusterBuilder,
        dir: &Directory,
        server_opts: ServerOptions,
        client_opts: ClientOptions,
        plan: FaultPlan,
    ) -> io::Result<WireCluster> {
        WireCluster::launch_inner(builder, dir, server_opts, client_opts, Some(plan))
    }

    fn launch_inner(
        builder: ClusterBuilder,
        dir: &Directory,
        server_opts: ServerOptions,
        client_opts: ClientOptions,
        plan: Option<FaultPlan>,
    ) -> io::Result<WireCluster> {
        let parts = builder.into_parts(dir);
        let orphaned = parts.orphaned;
        let (delegation, stores) = parts.into_stores();
        let router: Arc<OnceLock<Router>> = Arc::new(OnceLock::new());
        let metrics = MetricsRegistry::default();
        bridge::register_all(&metrics);
        let fault_slot: Arc<OnceLock<FaultStats>> = Arc::new(OnceLock::new());
        let mut servers = Vec::with_capacity(stores.len());
        let mut addrs = Vec::with_capacity(stores.len());
        for id in 0..stores.len() {
            let service = Arc::new(NodeService {
                stores: stores.clone(),
                home: id,
                router: router.clone(),
                metrics: metrics.clone(),
                fault: fault_slot.clone(),
                clock: Arc::new(MonotonicClock::new()),
            });
            let server = WireServer::bind("127.0.0.1:0", service, server_opts.clone())?;
            addrs.push(server.local_addr());
            servers.push(server);
        }
        let transport = SocketTransport::connect(&addrs, client_opts.clone());
        let (fault_stats, shared_router) = match plan {
            None => (None, Router::new(delegation, Box::new(transport))),
            Some(plan) => {
                let fault = FaultTransport::new(Box::new(transport), plan.faults);
                let stats = fault.stats();
                let r = Router::new(delegation, Box::new(fault))
                    .with_retry(plan.retry)
                    .with_breaker(plan.breaker);
                (Some(stats), r)
            }
        };
        let _ = router.set(shared_router);
        if let Some(stats) = &fault_stats {
            let _ = fault_slot.set(stats.clone());
        }
        Ok(WireCluster {
            stores,
            addrs,
            router,
            servers,
            orphaned,
            client_opts,
            fault_stats,
            metrics,
        })
    }

    /// Launch with default server/client options.
    pub fn launch_default(builder: ClusterBuilder, dir: &Directory) -> io::Result<WireCluster> {
        WireCluster::launch(
            builder,
            dir,
            ServerOptions::default(),
            ClientOptions::default(),
        )
    }

    /// The shared distributed evaluator (delegation + transport +
    /// health + retry accounting).
    pub fn router(&self) -> &Router {
        self.router.get().expect("router is set before launch returns")
    }

    /// Fault-injection counters (present when launched with a
    /// [`FaultPlan`]).
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.fault_stats.as_ref()
    }

    /// The cluster-wide metrics registry (what `Stats` frames serve).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Zone-fetch retry counters of the shared router.
    pub fn retry_stats(&self) -> &RetryStats {
        self.router().retry_stats()
    }

    /// Number of daemons.
    pub fn num_servers(&self) -> usize {
        self.servers.len()
    }

    /// Server id by name.
    pub fn server_id(&self, name: &str) -> Option<ServerId> {
        self.stores.iter().position(|s| s.config.name == name)
    }

    fn home_id(&self, home: &str) -> QueryResult<ServerId> {
        self.server_id(home).ok_or_else(|| QueryError::Parse {
            input: home.into(),
            detail: "no such server".into(),
        })
    }

    /// The loopback address server `id` listens on.
    pub fn addr(&self, id: ServerId) -> SocketAddr {
        self.addrs[id]
    }

    /// All daemon addresses, indexed by server id.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Entries that matched no context at partition time.
    pub fn orphaned(&self) -> usize {
        self.orphaned
    }

    /// Cluster-wide network counters: real frame bytes shipped between
    /// daemons by distributed evaluation.
    pub fn net(&self) -> &NetStats {
        self.router().net()
    }

    /// A fresh pooled client for daemon `id` (an external caller's view
    /// of the cluster).
    pub fn client(&self, id: ServerId) -> WireClient {
        WireClient::connect(self.addrs[id], self.client_opts.clone())
    }

    /// Evaluate `query` as posed to server `home` (by name), shipping
    /// remote sub-queries over the loopback sockets, and decode the
    /// answer.
    pub fn query_from(
        &self,
        home: &str,
        pager: &netdir_pager::Pager,
        query: &Query,
    ) -> QueryResult<Vec<Entry>> {
        self.router().query(self.home_id(home)?, pager, query)
    }

    /// Like [`WireCluster::query_from`], but under an explicit
    /// [`ConsistencyMode`] — `Partial` skips and reports unreachable
    /// zones instead of failing the query.
    pub fn query_from_with(
        &self,
        home: &str,
        pager: &netdir_pager::Pager,
        query: &Query,
        mode: ConsistencyMode,
    ) -> QueryResult<QueryOutcome> {
        self.router().query_with(self.home_id(home)?, pager, query, mode)
    }

    /// Like [`WireCluster::query_from`], but also returns the
    /// per-operator [`netdir_obs::QueryTrace`] of the evaluation.
    pub fn query_analyzed_from(
        &self,
        home: &str,
        pager: &netdir_pager::Pager,
        query: &Query,
        mode: ConsistencyMode,
    ) -> QueryResult<(QueryOutcome, netdir_obs::QueryTrace)> {
        self.router()
            .query_analyzed(self.home_id(home)?, pager, query, mode)
    }

    /// Stop every daemon gracefully.
    pub fn shutdown(&mut self) {
        for server in &mut self.servers {
            server.shutdown();
        }
    }
}

impl Drop for WireCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

//! The distributed evaluator of Section 8.3.
//!
//! "First, each atomic query, whose base dn is managed by a directory
//! server different from the queried server, is issued to the directory
//! server that manages the base dn … The results of those atomic queries
//! are shipped to the original queried directory server, which then
//! computes the query result using the algorithms described previously."
//!
//! The evaluator itself is transport-agnostic: [`Router`] pairs a
//! [`Delegation`] table with any [`Transport`] and evaluates a full
//! L0–L3 query *as posed to one server*. A routing [`AtomicSource`]
//! ships each atomic sub-query to every server whose zone can intersect
//! its scope (the owner of the base plus carved-out subdomains), merges
//! the disjoint sorted responses, and the ordinary [`Evaluator`] runs
//! the operator tree locally.
//!
//! [`Cluster`] packages every server's [`ZoneStore`] with a [`Router`]
//! reaching them. [`ClusterBuilder::build`] routes over the
//! [`LocalTransport`], so a zone — the queried server's own or
//! another's — is a function call on the querying thread;
//! [`ClusterBuilder::build_with`] routes over any other transport, which
//! is how the `netdir-wire` crate builds the same cluster over TCP
//! sockets. Both partition a directory afresh; after a committed
//! mutation batch, [`ClusterBuilder::publish`] makes the next in-process
//! generation from the previous one in `O(batch)`, sharing its zones'
//! bases and extending their deltas.
//!
//! Entries stay in their frozen `Entry::encode` encoding from page to
//! answer. A zone's response is a list of images, each with the sort key
//! the zone's table holds for it, vetted by [`Entry::validate_encoded`]
//! without building an entry. The zones' answers merge by those keys into
//! one in-memory **run** ([`Operand::Run`]) that the operator above reads
//! directly: a routed leaf is never staged on the queried server's
//! scratch pages and its keys are never derived again. Operators write
//! their outputs as runs while the scratch pager's budget holds them and
//! to its pages past it, and the final result's images are moved out
//! ([`QueryOutcome::entries`]), the bytes an answer frame carries; a
//! query that is one atomic leaf answers straight from its run.
//! In-process callers that want [`Entry`]s decode at their own edge
//! ([`Router::query`], [`Cluster::query_from`]).

use crate::delegation::{Delegation, ServerId};
use crate::health::{BreakerConfig, HealthTracker};
use crate::net::NetStats;
use crate::node::{decode_entries, ServerConfig, ZoneStore};
use crate::retry::{RetryPolicy, RetryStats};
use crate::transport::{LocalTransport, Transport};
use netdir_filter::{AtomicFilter, Scope};
use netdir_index::{AtomicCost, DeltaWrite};
use netdir_model::{Directory, Dn, Entry};
use netdir_obs::{Clock, MonotonicClock};
use netdir_pager::{Operand, Pager, PagerError, PagerResult, RawRecord};
use netdir_query::eval::{AtomicSource, Evaluator};
use netdir_query::{Query, QueryError, QueryResult};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// How a distributed query treats unreachable partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConsistencyMode {
    /// Any unreachable zone fails the whole query (the paper's §8.3
    /// shipping model assumes every sub-result arrives). The default.
    #[default]
    Strict,
    /// Unreachable zones are skipped: the query returns the surviving
    /// partitions' entries plus a precise account of what was missed.
    /// Note the semantics: results are a *subset* view of the directory
    /// with the dead zones' entries absent, so negation over a dead zone
    /// can return entries Strict mode would have excluded.
    Partial,
}

/// One zone a degraded query could not reach.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionError {
    /// The naming context of the unreachable zone.
    pub zone: Dn,
    /// The zone's owner group (primary + secondaries), all unavailable
    /// or failing.
    pub servers: Vec<ServerId>,
    /// Why the last attempt failed.
    pub detail: String,
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "zone {} (servers {:?}) unavailable: {}",
            self.zone, self.servers, self.detail
        )
    }
}

/// The result of a query evaluated with an explicit
/// [`ConsistencyMode`]: entries plus the zones that were skipped
/// (always empty under [`ConsistencyMode::Strict`]).
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Sorted result entries from the reachable partitions, each as its
    /// frozen `Entry::encode` image — what an answer frame carries.
    /// Decode with [`decode_entries`] where [`Entry`]s are wanted.
    pub entries: Vec<Vec<u8>>,
    /// Zones skipped by graceful degradation, in first-failure order.
    pub partial: Vec<PartitionError>,
}

impl QueryOutcome {
    /// True iff no zone was skipped — the answer is exact.
    pub fn is_complete(&self) -> bool {
        self.partial.is_empty()
    }
}

/// Builder for a [`Cluster`]: declare contexts, then partition a
/// directory across them. Cloneable, so a daemon keeps one as the shape
/// every new generation is built to.
#[derive(Default, Clone)]
pub struct ClusterBuilder {
    configs: Vec<ServerConfig>,
    /// Indices of configs that are secondaries (replicas) of an earlier
    /// context registration.
    secondaries: Vec<bool>,
    /// Zone-fetch concurrency for the built router (0 → 1).
    eval_threads: usize,
}

/// The outcome of partitioning a directory across declared contexts,
/// before any store exists. [`ClusterBuilder::build_with`] makes the
/// zones of every cluster from this, in process or behind sockets, so
/// all deployments share one partitioning rule.
pub struct ClusterParts {
    /// One config per declared server, in declaration order.
    pub configs: Vec<ServerConfig>,
    /// The delegation table (primaries head their owner groups).
    pub delegation: Delegation,
    /// Entries owned by each server (replicas hold full zone copies).
    pub partitions: Vec<Vec<Entry>>,
    /// Entries that matched no declared context.
    pub orphaned: usize,
}

impl ClusterBuilder {
    /// Start with no servers.
    pub fn new() -> ClusterBuilder {
        ClusterBuilder::default()
    }

    /// Add a server owning `context` as primary.
    pub fn server(mut self, name: impl Into<String>, context: Dn) -> Self {
        self.configs.push(ServerConfig::new(name, context));
        self.secondaries.push(false);
        self
    }

    /// Add a **secondary** server replicating `context` (Section 3.3:
    /// "secondary directory servers ensure that one unreachable network
    /// will not necessarily cut off network directory service"). It
    /// receives a full copy of the zone and answers when the primary is
    /// down.
    pub fn secondary(mut self, name: impl Into<String>, context: Dn) -> Self {
        self.configs.push(ServerConfig::new(name, context));
        self.secondaries.push(true);
        self
    }

    /// Set the zone-fetch concurrency of the built cluster's router
    /// (see [`Router::with_eval_threads`]). Defaults to 1 (one zone
    /// after another).
    pub fn eval_threads(mut self, threads: usize) -> Self {
        self.eval_threads = threads;
        self
    }

    /// Number of servers declared so far.
    pub fn num_servers(&self) -> usize {
        self.configs.len()
    }

    /// The delegation table of the declared servers.
    fn delegation(&self) -> Delegation {
        let mut delegation = Delegation::new();
        // Primaries register first so they head their owner groups.
        for (id, cfg) in self.configs.iter().enumerate() {
            if !self.secondaries[id] {
                delegation.register(cfg.context.clone(), id);
            }
        }
        for (id, cfg) in self.configs.iter().enumerate() {
            if self.secondaries[id] {
                delegation.register(cfg.context.clone(), id);
            }
        }
        delegation
    }

    /// Partition `dir` by longest-matching context without making any
    /// store.
    ///
    /// Entries matching no context are dropped with a count returned in
    /// [`ClusterParts::orphaned`] (a real deployment would reject them
    /// at registration).
    pub fn into_parts(self, dir: &Directory) -> ClusterParts {
        let delegation = self.delegation();
        let mut partitions: Vec<Vec<Entry>> = vec![Vec::new(); self.configs.len()];
        let mut orphaned = 0usize;
        for e in dir.iter_sorted() {
            match delegation.owner_group_of(e.dn()) {
                Some(group) => {
                    // Every replica of the zone stores the entry.
                    for &owner in group {
                        partitions[owner].push(e.clone());
                    }
                }
                None => orphaned += 1,
            }
        }
        ClusterParts {
            configs: self.configs,
            delegation,
            partitions,
            orphaned,
        }
    }

    /// Partition `dir` by longest-matching context into an in-process
    /// cluster. No thread starts and no store is built: each zone builds
    /// its store when a query first reaches it.
    pub fn build(self, dir: &Directory) -> Cluster {
        self.build_with(dir, |delegation, stores| {
            Router::new(delegation, Box::new(LocalTransport::new(stores)))
        })
    }

    /// Partition `dir` like [`ClusterBuilder::build`], but reach the
    /// zones through the router `route` makes from the delegation table
    /// and the zones (server `i` is element `i`): any transport, retry
    /// policy and breaker configuration. The builder's zone-fetch
    /// concurrency is then set on that router.
    pub fn build_with(
        self,
        dir: &Directory,
        route: impl FnOnce(Delegation, Arc<[ZoneStore]>) -> Router,
    ) -> Cluster {
        let eval_threads = self.eval_threads;
        let parts = self.into_parts(dir);
        let stores: Arc<[ZoneStore]> = parts
            .configs
            .into_iter()
            .zip(parts.partitions)
            .map(|(cfg, entries)| ZoneStore::new(cfg, entries))
            .collect();
        let router = route(parts.delegation, stores.clone());
        Cluster {
            stores,
            router: router.with_eval_threads(eval_threads),
            orphaned: parts.orphaned,
            compactions: 0,
        }
    }

    /// The in-process generation after a committed batch, from `prev`
    /// (this shape's previous generation) and `dir` (the directory the
    /// batch left). `touched` names every DN the batch wrote, each with
    /// whether the directory held it before the batch.
    ///
    /// Each written DN is routed by the rule [`ClusterBuilder::build`]
    /// partitions by, and its owners' zones get delta records for it
    /// ([`ZoneStore::with_writes`]); every other zone, and every base, is
    /// `prev`'s. That costs `O(|touched| log N + |delta|)`: no partition
    /// is copied and no index is built. Once some zone's delta holds more
    /// than [`COMPACT_MIN`] records and more than 1/[`COMPACT_FRACTION`]
    /// of its base, the generation is instead rebuilt from `dir` (a
    /// **compaction**, counted in [`Cluster::compactions`]), whose cost
    /// the batches since the last one amortise.
    pub fn publish(self, prev: &Cluster, dir: &Directory, touched: &[(Dn, bool)]) -> Cluster {
        let delegation = self.delegation();
        let mut touched: Vec<&(Dn, bool)> = touched.iter().collect();
        touched.sort_by(|a, b| a.0.sort_key().cmp(b.0.sort_key()));
        touched.dedup_by(|a, b| a.0 == b.0);
        let mut writes: Vec<Vec<DeltaWrite<'_>>> = prev.stores.iter().map(|_| Vec::new()).collect();
        let mut orphaned = prev.orphaned;
        for (dn, existed) in touched {
            let entry = dir.lookup(dn);
            let Some(group) = delegation.owner_group_of(dn) else {
                orphaned =
                    (orphaned + usize::from(entry.is_some())).saturating_sub(usize::from(*existed));
                continue;
            };
            for &id in group {
                if let Some(w) = writes.get_mut(id) {
                    w.push(DeltaWrite {
                        dn,
                        entry,
                        existed: *existed,
                    });
                }
            }
        }
        let stores: Vec<ZoneStore> = prev
            .stores
            .iter()
            .zip(writes)
            .map(|(zone, w)| {
                if w.is_empty() {
                    zone.clone()
                } else {
                    zone.with_writes(w)
                }
            })
            .collect();
        let compact = stores.len() != self.configs.len()
            || stores
                .iter()
                .any(|z| z.delta().len() > COMPACT_MIN.max(z.base_len() / COMPACT_FRACTION));
        if compact {
            Cluster {
                compactions: prev.compactions + 1,
                ..self.build(dir)
            }
        } else {
            let stores: Arc<[ZoneStore]> = stores.into();
            let router = Router::new(delegation, Box::new(LocalTransport::new(stores.clone())));
            Cluster {
                stores,
                router: router.with_eval_threads(self.eval_threads),
                orphaned,
                compactions: prev.compactions,
            }
        }
    }
}

/// A zone's delta may hold this many records before its size relative
/// to its base can trigger a compaction ([`ClusterBuilder::publish`]).
pub const COMPACT_MIN: usize = 64;

/// A zone compacts once its delta (past [`COMPACT_MIN`] records) exceeds
/// its base's entry count divided by this.
pub const COMPACT_FRACTION: usize = 8;

/// The transport-agnostic distributed evaluator: a [`Delegation`] table
/// plus a [`Transport`], with per-server circuit breakers
/// ([`HealthTracker`]) for §3.3 failover and a shared [`RetryPolicy`]
/// for transient transport failures.
pub struct Router {
    delegation: Delegation,
    transport: Box<dyn Transport>,
    health: HealthTracker,
    retry: RetryPolicy,
    retry_stats: RetryStats,
    /// Zone-fetch concurrency: an atomic sub-query reaching several
    /// zones fetches them on up to this many threads. 1 (the default)
    /// fetches them one after another.
    eval_threads: usize,
    /// Time source for retry backoff and EXPLAIN ANALYZE timings.
    clock: Arc<dyn Clock>,
}

impl Router {
    /// Route over `transport` according to `delegation`, with the
    /// default retry policy and breaker configuration.
    pub fn new(delegation: Delegation, transport: Box<dyn Transport>) -> Router {
        let health = HealthTracker::new(transport.num_servers(), BreakerConfig::default());
        Router {
            delegation,
            transport,
            health,
            retry: RetryPolicy::default(),
            retry_stats: RetryStats::new(),
            eval_threads: 1,
            clock: Arc::new(MonotonicClock::new()),
        }
    }

    /// Replace the time source driving retry backoff and traced-query
    /// timings (builder-style). Tests inject a
    /// [`netdir_obs::ManualClock`] so backoff runs instantly.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Router {
        self.clock = clock;
        self
    }

    /// Replace the retry policy (builder-style, before first use).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Router {
        self.retry = retry;
        self
    }

    /// Set the zone-fetch concurrency (builder-style).
    ///
    /// With `threads > 1`, an atomic sub-query whose scope spans several
    /// zones fetches them on up to `threads` threads, which hides the
    /// round trips of remote zones behind one another. The query tree
    /// itself is still evaluated one node at a time. Results are
    /// byte-identical to the sequential fetch (zone responses are
    /// collected in delegation order); under Strict mode the first error
    /// in zone order is reported, exactly as sequentially. The default of
    /// 1 fetches zones one after another — fault-injection harnesses that
    /// seed per-call fault schedules rely on the deterministic call order
    /// only that provides, so concurrency is opt-in.
    pub fn with_eval_threads(mut self, threads: usize) -> Router {
        self.eval_threads = threads.max(1);
        self
    }

    /// The configured zone-fetch concurrency.
    pub fn eval_threads(&self) -> usize {
        self.eval_threads
    }

    /// Replace the circuit-breaker configuration (builder-style, before
    /// first use). Resets all breakers to Closed.
    pub fn with_breaker(mut self, cfg: BreakerConfig) -> Router {
        self.health = HealthTracker::new(self.transport.num_servers(), cfg);
        self
    }

    /// The delegation table.
    pub fn delegation(&self) -> &Delegation {
        &self.delegation
    }

    /// The transport's network counters.
    pub fn net(&self) -> &NetStats {
        self.transport.net()
    }

    /// The underlying transport.
    pub fn transport(&self) -> &dyn Transport {
        self.transport.as_ref()
    }

    /// Number of servers.
    pub fn num_servers(&self) -> usize {
        self.transport.num_servers()
    }

    /// Per-server health (circuit breakers + forced outages).
    pub fn health(&self) -> &HealthTracker {
        &self.health
    }

    /// The active retry policy.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.retry
    }

    /// Retry-effort counters (attempts, backoff rounds, abandoned
    /// fetches).
    pub fn retry_stats(&self) -> &RetryStats {
        &self.retry_stats
    }

    /// Force a server down/up (operator-controlled outage): subsequent
    /// routing skips forced-down servers, falling back to secondaries of
    /// their zones. Unlike a tripped breaker, a forced outage never
    /// recovers on its own.
    pub fn force_down(&self, id: ServerId, down: bool) {
        self.health.force_down(id, down);
    }

    /// Is the server currently unavailable (forced down or breaker
    /// open)?
    pub fn is_down(&self, id: ServerId) -> bool {
        !self.health.available(id)
    }

    /// Evaluate `query` as posed to server `home` and decode the answer
    /// (the in-process caller's edge; [`Router::query_with`] hands out
    /// the images). Operator evaluation happens on `pager` (the queried
    /// server's scratch space); remote atomic results are counted on the
    /// transport's [`NetStats`].
    pub fn query(
        &self,
        home: ServerId,
        pager: &Pager,
        query: &Query,
    ) -> QueryResult<Vec<Entry>> {
        let outcome = self.query_with(home, pager, query, ConsistencyMode::Strict)?;
        Ok(decode_entries(&outcome.entries)?)
    }

    /// Evaluate `query` as posed to server `home` under an explicit
    /// [`ConsistencyMode`]. Under [`ConsistencyMode::Partial`], zones
    /// that stay unreachable after failover and retries are skipped and
    /// reported in [`QueryOutcome::partial`] instead of failing the
    /// query.
    pub fn query_with(
        &self,
        home: ServerId,
        pager: &Pager,
        query: &Query,
        mode: ConsistencyMode,
    ) -> QueryResult<QueryOutcome> {
        let source = RoutingSource::new(self, home, mode);
        let out = Evaluator::new(&source, pager).evaluate(query)?;
        Ok(QueryOutcome {
            entries: out.into_encoded()?,
            partial: source.into_partial(),
        })
    }

    /// Evaluate `query` as posed to server `home` and return its result
    /// together with a per-operator [`QueryTrace`] — `EXPLAIN ANALYZE`
    /// over the distributed evaluator. The trace's I/O ledger covers the
    /// queried server's local operator evaluation (remote shipping is
    /// counted separately on [`Router::net`]).
    pub fn query_analyzed(
        &self,
        home: ServerId,
        pager: &Pager,
        query: &Query,
        mode: ConsistencyMode,
    ) -> QueryResult<(QueryOutcome, netdir_obs::QueryTrace)> {
        let source = RoutingSource::new(self, home, mode);
        // Evaluation walks the tree one node at a time, so each node's
        // span can snapshot the shared ledger around itself; only a
        // leaf's zone fetches may overlap (`eval_threads`).
        let started = self.clock.now();
        let (out, traces) = Evaluator::new(&source, pager).evaluate_traced(query)?;
        let elapsed =
            u64::try_from(self.clock.now().saturating_sub(started).as_nanos()).unwrap_or(u64::MAX);
        let trace = netdir_query::build_trace(query, &traces, pager, elapsed);
        Ok((
            QueryOutcome {
                entries: out.into_encoded()?,
                partial: source.into_partial(),
            },
            trace,
        ))
    }

    /// Evaluate one atomic query as posed to server `home`: ship it to
    /// every zone intersecting its scope and merge the sorted responses,
    /// as entry images. The merge happens in memory, so the scratch
    /// space `_pager` is never touched; it stays in the signature for
    /// symmetry with [`Router::query_with`].
    pub fn atomic(
        &self,
        home: ServerId,
        _pager: &Pager,
        base: &Dn,
        scope: Scope,
        filter: &AtomicFilter,
    ) -> PagerResult<Vec<Vec<u8>>> {
        RoutingSource::new(self, home, ConsistencyMode::Strict)
            .evaluate_atomic(base, scope, filter)?
            .into_encoded()
    }

    /// Fetch one zone's share of an atomic query, with failover across
    /// the owner group and retries with backoff for transient failures.
    ///
    /// Each round tries every currently-available replica once (failures
    /// feed the circuit breakers); between rounds the shared
    /// [`RetryPolicy`] sleeps. Fatal errors (protocol violations, remote
    /// evaluation failures, mis-addressing) abort immediately — retrying
    /// reproduces them. A response holding an image
    /// [`Entry::decode`] would reject is a corrupt payload: it charges
    /// the server and is fetched again. The images are vetted, never
    /// decoded, and come back as records keyed by the keys they came
    /// with.
    fn fetch_zone(
        &self,
        zone: &Dn,
        group: &[ServerId],
        home: ServerId,
        base: &Dn,
        scope: Scope,
        filter: &AtomicFilter,
    ) -> Result<Vec<RawRecord<Entry>>, PartitionError> {
        let fail = |detail: String| PartitionError {
            zone: zone.clone(),
            servers: group.to_vec(),
            detail,
        };
        let mut last_detail = format!("no live server for zone {zone}");
        for attempt in 0..self.retry.max_attempts.max(1) {
            let candidates: Vec<ServerId> = group
                .iter()
                .copied()
                .filter(|&id| self.health.available(id))
                .collect();
            if candidates.is_empty() {
                // Sleeping will not conjure a replica: every member is
                // forced down or inside its breaker cooldown.
                break;
            }
            for id in candidates {
                self.retry_stats.record_attempt();
                match self.transport.atomic(id, home, base, scope, filter) {
                    Ok(resp) => match resp
                        .entries
                        .iter()
                        .try_for_each(|hit| Entry::validate_encoded(&hit.image).map(|_dn| ()))
                    {
                        Ok(()) => {
                            self.health.record_success(id);
                            return Ok(resp
                                .entries
                                .into_iter()
                                .map(|hit| RawRecord::keyed(hit.key, hit.image))
                                .collect());
                        }
                        Err(e) => {
                            // Corrupt payload: charge the server and let
                            // the next attempt re-fetch.
                            self.health.record_failure(id);
                            last_detail = format!("server {id}: corrupt response: {e}");
                        }
                    },
                    Err(e) if e.kind.is_retryable() => {
                        self.health.record_failure(id);
                        last_detail = format!("server {id}: {e}");
                    }
                    Err(e) => return Err(fail(e.to_string())),
                }
            }
            if attempt + 1 < self.retry.max_attempts {
                self.retry_stats.record_retry();
                let delay = self.retry.backoff(attempt, home as u64);
                if !delay.is_zero() {
                    self.clock.sleep(delay);
                }
            }
        }
        self.retry_stats.record_give_up();
        Err(fail(last_detail))
    }
}

/// A cluster of directory servers: one [`ZoneStore`] per server and a
/// [`Router`] reaching them (through a [`LocalTransport`] unless built
/// with [`ClusterBuilder::build_with`]).
pub struct Cluster {
    stores: Arc<[ZoneStore]>,
    router: Router,
    orphaned: usize,
    /// Compactions since the generation [`ClusterBuilder::build`] made,
    /// carried across published generations.
    compactions: u64,
}

impl Cluster {
    /// Delta records over every zone's base (replicas counted per
    /// zone): what the next compaction folds in.
    pub fn delta_entries(&self) -> usize {
        self.stores.iter().map(|z| z.delta().len()).sum()
    }

    /// The work every zone's base index has done since it was built,
    /// summed over the zones (a base a compaction replaced starts again
    /// from zero).
    pub fn index_cost(&self) -> AtomicCost {
        self.stores
            .iter()
            .map(ZoneStore::index_cost)
            .fold(AtomicCost::default(), std::ops::Add::add)
    }

    /// Compactions [`ClusterBuilder::publish`] ran on the way from the
    /// last [`ClusterBuilder::build`] to this generation.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Network counters (messages, shipped entries/bytes).
    pub fn net(&self) -> &NetStats {
        self.router.net()
    }

    /// The delegation table.
    pub fn delegation(&self) -> &Delegation {
        self.router.delegation()
    }

    /// The routing layer (delegation + transport + liveness).
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Entries that matched no context at build time.
    pub fn orphaned(&self) -> usize {
        self.orphaned
    }

    /// Number of servers.
    pub fn num_servers(&self) -> usize {
        self.stores.len()
    }

    /// Server id by name.
    pub fn server_id(&self, name: &str) -> Option<ServerId> {
        self.stores.iter().position(|s| s.config.name == name)
    }

    /// Server `id`'s zone (tests, baseline measurements).
    pub fn store(&self, id: ServerId) -> &ZoneStore {
        &self.stores[id]
    }

    /// Force an outage of `server` (by name): subsequent routing skips
    /// it, falling back to secondaries of its zones, until forced back
    /// up.
    pub fn force_down(&self, server: &str, down: bool) {
        if let Some(id) = self.server_id(server) {
            self.router.force_down(id, down);
        }
    }

    /// Is the server currently unavailable (forced down or breaker
    /// open)?
    pub fn is_down(&self, id: ServerId) -> bool {
        self.router.is_down(id)
    }

    fn home_id(&self, home: &str) -> QueryResult<ServerId> {
        self.server_id(home).ok_or_else(|| QueryError::Parse {
            input: home.into(),
            detail: "no such server".into(),
        })
    }

    /// Evaluate `query` as posed to server `home` (by name) and decode
    /// the answer.
    pub fn query_from(
        &self,
        home: &str,
        pager: &Pager,
        query: &Query,
    ) -> QueryResult<Vec<Entry>> {
        self.router.query(self.home_id(home)?, pager, query)
    }

    /// Evaluate `query` as posed to server `home` (by name) under an
    /// explicit [`ConsistencyMode`].
    pub fn query_from_with(
        &self,
        home: &str,
        pager: &Pager,
        query: &Query,
        mode: ConsistencyMode,
    ) -> QueryResult<QueryOutcome> {
        self.router.query_with(self.home_id(home)?, pager, query, mode)
    }
}

/// [`AtomicSource`] that routes atomic queries across the cluster. Its
/// leaves are runs: the zones' keyed answers, merged in memory.
struct RoutingSource<'r> {
    router: &'r Router,
    home: ServerId,
    mode: ConsistencyMode,
    /// Zones skipped so far (Partial mode), deduplicated by context.
    /// A `Mutex` (not `RefCell`) so the source is `Sync`: a leaf's
    /// zones may be fetched on several threads at once.
    partial: Mutex<Vec<PartitionError>>,
}

impl<'r> RoutingSource<'r> {
    fn new(router: &'r Router, home: ServerId, mode: ConsistencyMode) -> RoutingSource<'r> {
        RoutingSource {
            router,
            home,
            mode,
            partial: Mutex::new(Vec::new()),
        }
    }

    fn record_skip(&self, err: PartitionError) {
        let mut partial = self.partial.lock().unwrap_or_else(|e| e.into_inner());
        if !partial.iter().any(|p| p.zone == err.zone) {
            partial.push(err);
        }
    }

    fn into_partial(self) -> Vec<PartitionError> {
        self.partial
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
    }
}

impl AtomicSource for RoutingSource<'_> {
    fn evaluate_atomic(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &AtomicFilter,
    ) -> PagerResult<Operand<Entry>> {
        let zones: Vec<(&Dn, &[ServerId])> = match scope {
            Scope::Base => self.router.delegation.zone_of(base).into_iter().collect(),
            Scope::One | Scope::Sub => self.router.delegation.zones_for_subtree(base),
        };
        // Fetch each zone from its owner group (§3.3 failover + retry);
        // under Partial mode a zone that stays unreachable is skipped
        // and accounted for instead of failing the query. With
        // `eval_threads > 1` the zones are fetched concurrently, but
        // outcomes are *collected in zone (delegation) order*, so the
        // merged bytes, the Strict-mode first error, and the Partial-mode
        // skip accounting are identical to the sequential loop.
        let fetch = |(zone, group): (&Dn, &[ServerId])| {
            self.router
                .fetch_zone(zone, group, self.home, base, scope, filter)
        };
        let threads = self.router.eval_threads.min(zones.len());
        let outcomes: Vec<Result<Vec<RawRecord<Entry>>, PartitionError>> = if threads > 1 {
            // Each thread claims the next unfetched zone in delegation
            // order; the calling thread fetches alongside the ones it
            // spawns.
            let next = AtomicUsize::new(0);
            let claim = || {
                let mut fetched = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&zone) = zones.get(i) else {
                        return fetched;
                    };
                    fetched.push((i, fetch(zone)));
                }
            };
            let mut fetched = std::thread::scope(|s| {
                let helpers: Vec<_> = (1..threads).map(|_| s.spawn(claim)).collect();
                let mut fetched = claim();
                for helper in helpers {
                    match helper.join() {
                        Ok(more) => fetched.extend(more),
                        Err(panic) => std::panic::resume_unwind(panic),
                    }
                }
                fetched
            });
            fetched.sort_unstable_by_key(|&(i, _)| i);
            fetched.into_iter().map(|(_, outcome)| outcome).collect()
        } else {
            zones.into_iter().map(fetch).collect()
        };
        let (mut run, mut answering) = (Vec::new(), 0);
        for outcome in outcomes {
            match outcome {
                Ok(records) => {
                    answering += usize::from(!records.is_empty());
                    run.extend(records);
                }
                Err(err) => match self.mode {
                    ConsistencyMode::Strict => {
                        return Err(PagerError::CorruptRecord {
                            detail: format!("required by base {base}: {err}"),
                        })
                    }
                    ConsistencyMode::Partial => self.record_skip(err),
                },
            }
        }
        if answering > 1 {
            // Zones interleave in key order (a carved-out subzone sorts
            // inside its parent zone's range), so merge by the keys the
            // zones sent. Zones are disjoint; the stable sort keeps
            // delegation order on a tie all the same.
            run.sort_by(|a, b| a.key().cmp(b.key()));
        }
        Ok(Operand::run(run))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdir_query::parse_query;

    fn dn(s: &str) -> Dn {
        Dn::parse(s).unwrap()
    }

    /// A directory spanning three zones.
    fn dir() -> Directory {
        let mut d = Directory::new();
        let mut add = |s: &str, sn: Option<&str>| {
            let mut b = Entry::builder(dn(s)).class("thing");
            if let Some(sn) = sn {
                b = b.attr("surName", sn);
            }
            d.insert(b.build().unwrap()).unwrap();
        };
        add("dc=com", None);
        add("dc=att, dc=com", None);
        add("ou=people, dc=att, dc=com", None);
        add("uid=jag, ou=people, dc=att, dc=com", Some("jagadish"));
        add("dc=research, dc=att, dc=com", None);
        add("ou=people, dc=research, dc=att, dc=com", None);
        add(
            "uid=jag2, ou=people, dc=research, dc=att, dc=com",
            Some("jagadish"),
        );
        add("dc=org", None);
        d
    }

    fn cluster() -> Cluster {
        ClusterBuilder::new()
            .server("root", dn("dc=com"))
            .server("att", dn("dc=att, dc=com"))
            .server("research", dn("dc=research, dc=att, dc=com"))
            .server("org", dn("dc=org"))
            .build(&dir())
    }

    #[test]
    fn partitioning_respects_zone_cuts() {
        let c = cluster();
        assert_eq!(c.orphaned(), 0);
        assert_eq!(c.store(0).num_entries, 1); // dc=com only
        assert_eq!(c.store(1).num_entries, 3); // att minus research zone
        assert_eq!(c.store(2).num_entries, 3); // research zone
        assert_eq!(c.store(3).num_entries, 1); // org
    }

    #[test]
    fn into_parts_matches_build_partitioning() {
        let parts = ClusterBuilder::new()
            .server("root", dn("dc=com"))
            .server("att", dn("dc=att, dc=com"))
            .server("research", dn("dc=research, dc=att, dc=com"))
            .server("org", dn("dc=org"))
            .into_parts(&dir());
        assert_eq!(parts.orphaned, 0);
        let sizes: Vec<usize> = parts.partitions.iter().map(|p| p.len()).collect();
        assert_eq!(sizes, vec![1, 3, 3, 1]);
        assert_eq!(parts.configs.len(), 4);
        assert!(parts.delegation.owner_group_of(&dn("dc=org")).is_some());
    }

    #[test]
    fn distributed_equals_single_server() {
        let c = cluster();
        let single = ClusterBuilder::new()
            .server("all", Dn::root())
            .build(&dir());
        let q = parse_query(
            "(- (dc=att, dc=com ? sub ? surName=jagadish) \
               (dc=research, dc=att, dc=com ? sub ? surName=jagadish))",
        )
        .unwrap();
        let pager = netdir_pager::default_pager();
        let a = c.query_from("att", &pager, &q).unwrap();
        let b = single.query_from("all", &pager, &q).unwrap();
        let names = |v: &[Entry]| -> Vec<String> {
            v.iter().map(|e| e.dn().to_string()).collect()
        };
        assert_eq!(names(&a), names(&b));
        assert_eq!(names(&a), vec!["uid=jag, ou=people, dc=att, dc=com"]);
    }

    #[test]
    fn concurrent_zone_fetch_pins_strict_bytes_and_partial_accounts() {
        let seq = cluster();
        let par = ClusterBuilder::new()
            .server("root", dn("dc=com"))
            .server("att", dn("dc=att, dc=com"))
            .server("research", dn("dc=research, dc=att, dc=com"))
            .server("org", dn("dc=org"))
            .eval_threads(4)
            .build(&dir());
        assert_eq!(par.router().eval_threads(), 4);
        let pager = netdir_pager::default_pager();
        let queries = [
            "(- (dc=att, dc=com ? sub ? surName=jagadish) \
               (dc=research, dc=att, dc=com ? sub ? surName=jagadish))",
            "(null-dn ? sub ? objectClass=thing)",
            "(c (dc=com ? sub ? objectClass=thing) \
                (dc=research, dc=att, dc=com ? base ? objectClass=thing))",
        ];
        for text in queries {
            let q = parse_query(text).unwrap();
            // Strict mode: the encoded entry stream must be byte-identical.
            let a = seq.query_from("att", &pager, &q).unwrap();
            let b = par.query_from("att", &pager, &q).unwrap();
            assert_eq!(a, b, "strict results diverged for {text}");
        }
        // Partial mode with a dead unreplicated zone: same surviving
        // entries, same skip account, at any degree.
        seq.force_down("research", true);
        par.force_down("research", true);
        let q = parse_query("(null-dn ? sub ? objectClass=thing)").unwrap();
        let a = seq
            .query_from_with("att", &pager, &q, ConsistencyMode::Partial)
            .unwrap();
        let b = par
            .query_from_with("att", &pager, &q, ConsistencyMode::Partial)
            .unwrap();
        assert_eq!(a.entries, b.entries);
        assert_eq!(a.partial.len(), 1);
        assert_eq!(a.partial[0].zone, b.partial[0].zone);
        assert_eq!(a.partial[0].servers, b.partial[0].servers);
    }

    #[test]
    fn network_shipping_is_counted() {
        let c = cluster();
        let pager = netdir_pager::default_pager();
        let q = parse_query("(null-dn ? sub ? surName=jagadish)").unwrap();
        c.net().reset();
        let hits = c.query_from("att", &pager, &q).unwrap();
        assert_eq!(hits.len(), 2);
        let net = c.net().snapshot();
        // Sub from the forest root touches all four servers; three are
        // remote from "att".
        assert_eq!(net.requests, 3);
        assert!(net.entries_shipped >= 1); // jag2 ships from research
        assert!(net.bytes_shipped > 0);
    }

    #[test]
    fn local_queries_ship_nothing() {
        let c = cluster();
        let pager = netdir_pager::default_pager();
        let q = parse_query(
            "(dc=research, dc=att, dc=com ? sub ? surName=jagadish)",
        )
        .unwrap();
        c.net().reset();
        let hits = c.query_from("research", &pager, &q).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(c.net().snapshot().requests, 0);
    }

    #[test]
    fn merged_results_are_globally_sorted() {
        let c = cluster();
        let pager = netdir_pager::default_pager();
        let q = parse_query("(null-dn ? sub ? objectClass=thing)").unwrap();
        let hits = c.query_from("org", &pager, &q).unwrap();
        assert_eq!(hits.len(), 8);
        for w in hits.windows(2) {
            assert!(w[0].dn() < w[1].dn());
        }
    }

    #[test]
    fn hierarchy_ops_across_zones() {
        // Children relation crossing a zone cut: dc=att (att zone) has
        // child dc=research (research zone).
        let c = cluster();
        let pager = netdir_pager::default_pager();
        let q = parse_query(
            "(c (dc=com ? sub ? objectClass=thing) \
                (dc=research, dc=att, dc=com ? base ? objectClass=thing))",
        )
        .unwrap();
        let hits = c.query_from("root", &pager, &q).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].dn(), &dn("dc=att, dc=com"));
    }

    #[test]
    fn secondary_takes_over_when_primary_is_down() {
        let c = ClusterBuilder::new()
            .server("root", dn("dc=com"))
            .server("att", dn("dc=att, dc=com"))
            .secondary("att-backup", dn("dc=att, dc=com"))
            .build(&dir());
        // The replica holds the same zone data.
        assert_eq!(
            c.store(c.server_id("att").unwrap()).num_entries,
            c.store(c.server_id("att-backup").unwrap()).num_entries
        );
        let q = parse_query("(dc=att, dc=com ? sub ? surName=jagadish)").unwrap();
        let pager = netdir_pager::default_pager();
        let before = c.query_from("root", &pager, &q).unwrap();
        assert_eq!(before.len(), 2);
        // Primary down → the secondary answers; results identical.
        c.force_down("att", true);
        let after = c.query_from("root", &pager, &q).unwrap();
        assert_eq!(
            before.iter().map(|e| e.dn().to_string()).collect::<Vec<_>>(),
            after.iter().map(|e| e.dn().to_string()).collect::<Vec<_>>()
        );
        // Both replicas down → the zone is unreachable.
        c.force_down("att-backup", true);
        assert!(c.query_from("root", &pager, &q).is_err());
        // Recovery.
        c.force_down("att", false);
        assert_eq!(c.query_from("root", &pager, &q).unwrap().len(), 2);
    }

    #[test]
    fn concurrent_clients_get_consistent_answers() {
        // Many clients hammer the cluster in parallel; every one must see
        // the same answer (each zone's store is shared by every caller and
        // built by whichever asks first).
        let c = cluster();
        let q = parse_query("(null-dn ? sub ? surName=jagadish)").unwrap();
        let expected: Vec<String> = {
            let pager = netdir_pager::default_pager();
            c.query_from("att", &pager, &q)
                .unwrap()
                .iter()
                .map(|e| e.dn().to_string())
                .collect()
        };
        assert_eq!(expected.len(), 2);
        std::thread::scope(|s| {
            for i in 0..8 {
                let c = &c;
                let q = &q;
                let expected = &expected;
                let home = ["root", "att", "research", "org"][i % 4];
                s.spawn(move || {
                    let pager = netdir_pager::default_pager();
                    for _ in 0..5 {
                        let got: Vec<String> = c
                            .query_from(home, &pager, q)
                            .unwrap()
                            .iter()
                            .map(|e| e.dn().to_string())
                            .collect();
                        assert_eq!(&got, expected, "client at {home} diverged");
                    }
                });
            }
        });
    }

    #[test]
    fn analyzed_distributed_query_matches_plain_and_traces_every_node() {
        let c = cluster();
        let pager = netdir_pager::default_pager();
        let q = parse_query(
            "(c (dc=com ? sub ? objectClass=thing) \
                (dc=research, dc=att, dc=com ? base ? objectClass=thing))",
        )
        .unwrap();
        let plain = c.query_from("root", &pager, &q).unwrap();
        let (out, trace) = c
            .router()
            .query_analyzed(0, &pager, &q, ConsistencyMode::Strict)
            .unwrap();
        assert!(out.is_complete());
        assert_eq!(plain.len(), out.entries.len());
        assert_eq!(trace.spans.len(), q.num_nodes());
        assert_eq!(trace.root_entries(), out.entries.len() as u64);
        // Both leaves are routed runs and the root's output fits the
        // budget: no edge occupies a page, and none is predicted to.
        assert!(trace.spans.iter().all(|s| s.pages_out == 0));
        assert_eq!(trace.predicted_io, 0.0);
        // With the budget held elsewhere the operators' outputs spill,
        // and an operator reading a paged output predicts its pages.
        let spilling = netdir_pager::default_pager();
        let _held = spilling.reserve(spilling.run_budget()).unwrap();
        let nested = parse_query(
            "(- (c (dc=com ? sub ? objectClass=thing) \
                   (dc=research, dc=att, dc=com ? base ? objectClass=thing)) \
                (dc=org ? base ? objectClass=thing))",
        )
        .unwrap();
        let (_, trace) = c
            .router()
            .query_analyzed(0, &spilling, &nested, ConsistencyMode::Strict)
            .unwrap();
        assert_eq!(trace.spans[1].pages_out, 1);
        assert_eq!(trace.spans[0].predicted_io, 1.0);
        assert_eq!(trace.predicted_io, 1.0);
    }

    #[test]
    fn unknown_home_server_errors() {
        let c = cluster();
        let pager = netdir_pager::default_pager();
        let q = parse_query("(dc=com ? base ? objectClass=*)").unwrap();
        assert!(c.query_from("nope", &pager, &q).is_err());
    }

    #[test]
    fn force_down_needs_no_mut() {
        let c = cluster(); // note: not `mut`
        let org = c.server_id("org").unwrap();
        c.force_down("org", true);
        assert!(c.is_down(org));
        c.force_down("org", false);
        assert!(!c.is_down(org));
    }

    #[test]
    fn partial_mode_returns_surviving_partitions_with_account() {
        let c = cluster();
        c.force_down("research", true);
        let pager = netdir_pager::default_pager();
        let q = parse_query("(null-dn ? sub ? objectClass=thing)").unwrap();
        // Strict: the dead non-replicated zone fails the query.
        assert!(c.query_from("att", &pager, &q).is_err());
        // Partial: every entry owned by surviving partitions, sorted,
        // plus a precise account of the skipped zone.
        let out = c
            .query_from_with("att", &pager, &q, ConsistencyMode::Partial)
            .unwrap();
        assert!(!out.is_complete());
        assert_eq!(out.entries.len(), 5, "8 entries minus research's 3");
        let research_zone = dn("dc=research, dc=att, dc=com");
        let entries = decode_entries(&out.entries).unwrap();
        for e in &entries {
            assert!(
                !research_zone.sort_key().subsumes(e.dn().sort_key()),
                "entry {} belongs to the dead zone",
                e.dn()
            );
        }
        for w in entries.windows(2) {
            assert!(w[0].dn() < w[1].dn(), "partial results must stay sorted");
        }
        assert_eq!(out.partial.len(), 1, "one zone skipped, reported once");
        assert_eq!(out.partial[0].zone, research_zone);
        assert_eq!(
            out.partial[0].servers,
            vec![c.server_id("research").unwrap()]
        );
        // A replicated zone's forced-down primary is NOT a partial
        // result: the secondary answers.
        let out = c
            .query_from_with("root", &pager, &q, ConsistencyMode::Partial)
            .unwrap();
        assert_eq!(out.partial.len(), 1, "only the unreplicated zone is lost");
    }

    #[test]
    fn partial_equals_strict_on_healthy_cluster() {
        let c = cluster();
        let pager = netdir_pager::default_pager();
        let q = parse_query("(null-dn ? sub ? surName=jagadish)").unwrap();
        let strict = c.query_from("att", &pager, &q).unwrap();
        let out = c
            .query_from_with("att", &pager, &q, ConsistencyMode::Partial)
            .unwrap();
        assert!(out.is_complete());
        let names = |v: &[Entry]| -> Vec<String> {
            v.iter().map(|e| e.dn().to_string()).collect()
        };
        assert_eq!(names(&strict), names(&decode_entries(&out.entries).unwrap()));
    }

    /// A cluster whose transport is wrapped in a seeded [`FaultTransport`].
    fn faulty_cluster(
        cfg: crate::FaultConfig,
        retry: crate::RetryPolicy,
        breaker: crate::BreakerConfig,
    ) -> Cluster {
        ClusterBuilder::new()
            .server("root", dn("dc=com"))
            .server("att", dn("dc=att, dc=com"))
            .server("research", dn("dc=research, dc=att, dc=com"))
            .server("org", dn("dc=org"))
            .build_with(&dir(), |delegation, stores| {
                let local = Box::new(LocalTransport::new(stores));
                Router::new(delegation, Box::new(crate::FaultTransport::new(local, cfg)))
                    .with_retry(retry)
                    .with_breaker(breaker)
            })
    }

    #[test]
    fn breaker_trips_on_hard_outage_and_short_circuits_later_fetches() {
        use crate::{BreakerConfig, BreakerState, FaultConfig, RetryPolicy};
        let c = faulty_cluster(
            FaultConfig::seeded(11).with_server_fail(2, 1.0), // research dead
            RetryPolicy::immediate(2),
            BreakerConfig {
                failure_threshold: 2,
                cooldown: std::time::Duration::from_secs(600),
            },
        );
        let router = c.router();
        let stats = router.transport().faults().unwrap();
        let pager = netdir_pager::default_pager();
        let q = parse_query("(null-dn ? sub ? objectClass=thing)").unwrap();
        let first = router
            .query_with(0, &pager, &q, ConsistencyMode::Partial)
            .unwrap();
        assert_eq!(first.partial.len(), 1);
        assert_eq!(router.health().state(2), BreakerState::Open);
        assert!(router.retry_stats().snapshot().gave_up >= 1);
        let calls_before = stats.snapshot().calls;
        // Second query: the open breaker short-circuits — no transport
        // calls reach the dead server, yet the answer is identical.
        let second = router
            .query_with(0, &pager, &q, ConsistencyMode::Partial)
            .unwrap();
        assert_eq!(
            first.entries.len(),
            second.entries.len(),
            "degraded answers must be stable"
        );
        // The skipped zone is identical; only the detail string differs
        // (attempted-and-failed vs breaker-short-circuited).
        assert_eq!(first.partial[0].zone, second.partial[0].zone);
        assert_eq!(first.partial[0].servers, second.partial[0].servers);
        assert_eq!(
            stats.snapshot().unreachable,
            2,
            "breaker must stop probing the dead server"
        );
        assert!(stats.snapshot().calls > calls_before, "live zones still fetched");
    }

    #[test]
    fn retry_refetches_a_corrupted_response() {
        use crate::{BreakerConfig, FaultConfig, RetryPolicy};
        // Call 0 (the first zone fetch) returns a truncated payload;
        // the retry layer re-fetches and the query still succeeds.
        let c = faulty_cluster(
            FaultConfig::seeded(5).with_truncate_nth(0),
            RetryPolicy::immediate(3),
            BreakerConfig::default(),
        );
        let router = c.router();
        let stats = router.transport().faults().unwrap();
        let pager = netdir_pager::default_pager();
        let q = parse_query("(null-dn ? sub ? objectClass=thing)").unwrap();
        let hits = router.query(0, &pager, &q).unwrap();
        assert_eq!(hits.len(), 8);
        assert_eq!(stats.snapshot().truncated, 1);
        let retry = router.retry_stats().snapshot();
        assert!(retry.retries >= 1, "corrupt response must cost a retry");
        assert_eq!(retry.gave_up, 0);
    }
}

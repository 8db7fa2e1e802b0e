//! A loopback fleet of TCP daemons: one [`Cluster`] routed over sockets.
//!
//! [`WireCluster::launch`] takes the same [`ClusterBuilder`] an
//! in-process cluster takes. It binds one listener per declared server
//! on an ephemeral loopback port, builds one [`Cluster`] whose router
//! reaches the zones through a [`SocketTransport`] to those listeners
//! ([`ClusterBuilder::build_with`], so TCP and in-process deployments
//! can never partition differently), then starts a [`DirectoryService`]
//! per listener with `home = i`. Each daemon answers `Atomic` and `Ldap`
//! frames from its own zone on the worker thread that read the frame,
//! and answers full `Query` frames by running the shared router itself,
//! shipping its remote atomic sub-queries over real sockets.

use crate::client::{ClientOptions, WireClient};
use crate::server::{ServerOptions, WireServer};
use crate::service::DirectoryService;
use crate::socket::SocketTransport;
use netdir_model::Directory;
use netdir_obs::MetricsRegistry;
use netdir_pager::record::Record;
use netdir_server::delegation::ServerId;
use netdir_server::{
    BreakerConfig, Cluster, ClusterBuilder, FaultConfig, FaultStats, FaultTransport,
    RetryPolicy, Router, Transport,
};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

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
    /// The zones and the router over the sockets, shared with every
    /// daemon's service.
    cluster: Arc<Cluster>,
    addrs: Vec<SocketAddr>,
    servers: Vec<WireServer>,
    client_opts: ClientOptions,
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
        // Every address is known before any daemon answers, so the
        // router exists before the first frame arrives.
        let listeners = (0..builder.num_servers())
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<io::Result<Vec<_>>>()?;
        let addrs = listeners
            .iter()
            .map(TcpListener::local_addr)
            .collect::<io::Result<Vec<_>>>()?;
        let cluster = Arc::new(builder.build_with(dir, |delegation, _zones| {
            let sockets: Box<dyn Transport> =
                Box::new(SocketTransport::connect(&addrs, client_opts.clone()));
            match plan {
                None => Router::new(delegation, sockets),
                Some(plan) => {
                    Router::new(delegation, Box::new(FaultTransport::new(sockets, plan.faults)))
                        .with_retry(plan.retry)
                        .with_breaker(plan.breaker)
                }
            }
        }));
        let metrics = MetricsRegistry::default();
        let servers = listeners
            .into_iter()
            .enumerate()
            .map(|(home, listener)| {
                let service = DirectoryService::new(cluster.clone(), home, metrics.clone());
                WireServer::serve(listener, Arc::new(service), server_opts.clone())
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(WireCluster {
            cluster,
            addrs,
            servers,
            client_opts,
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

    /// The cluster every daemon serves: its zones, and the router that
    /// reaches them over the loopback sockets.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Fault-injection counters (present when launched with a
    /// [`FaultPlan`]).
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.cluster.router().transport().faults()
    }

    /// The cluster-wide metrics registry (what `Stats` frames serve).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The loopback address server `id` listens on.
    pub fn addr(&self, id: ServerId) -> SocketAddr {
        self.addrs[id]
    }

    /// All daemon addresses, indexed by server id.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// A fresh pooled client for daemon `id` (an external caller's view
    /// of the cluster).
    pub fn client(&self, id: ServerId) -> WireClient {
        WireClient::connect(self.addrs[id], self.client_opts.clone())
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

//! # netdir-wire — the directory protocol on a real network
//!
//! The paper's Section 8.3 plan — ship each atomic sub-query to the
//! server owning its base, ship the sorted results back, evaluate the
//! operator tree at the queried server — is transport-independent, and
//! `netdir-server` keeps it that way behind its `Transport` trait. This
//! crate supplies the other side of that trait: a real TCP wire
//! protocol, so the distributed evaluator's shipped-byte accounting can
//! be measured against actual sockets instead of in-process calls.
//!
//! Layers, bottom up:
//!
//! * [`frame`] — length-prefixed frames (4-byte big-endian header) with
//!   max-size guards in both directions.
//! * [`codec`] — request/response payloads: DNs and L0–L3 queries as
//!   canonical text, filters structurally, entries in their on-page
//!   [`Record`](netdir_pager::record::Record) encoding (byte-identical
//!   to what the in-process transport ships and a v1 page stores).
//! * [`server`] — a blocking multi-threaded frame server (`std::net`
//!   accept thread + crossbeam worker pool, no async runtime) with
//!   per-connection timeouts and graceful shutdown.
//! * [`service`] — [`DirectoryService`], the one request handler every
//!   daemon runs: atomic and LDAP frames from its own zone, full queries
//!   through the cluster's router, mutations through an optional
//!   journal. The `netdird` binary is argument parsing around it.
//! * [`client`] — [`WireClient`], a pooled blocking client with request
//!   timeouts and one-shot `query()`/`search()` helpers; also the
//!   `ndquery` binary.
//! * [`socket`] — [`SocketTransport`], plugging TCP under
//!   `netdir_server::Router` unchanged.
//! * [`cluster`] — [`WireCluster`], a loopback fleet: one `Cluster`
//!   routed over [`SocketTransport`], one [`DirectoryService`] per
//!   daemon.

pub mod client;
pub mod cluster;
pub mod codec;
pub mod frame;
pub mod server;
pub mod service;
pub mod socket;

pub use client::{ClientOptions, WireClient, WireError, WireResult};
pub use cluster::{encode_entries, FaultPlan, WireCluster};
pub use codec::{WireRequest, WireResponse};
pub use frame::DEFAULT_MAX_FRAME;
pub use server::{ServerOptions, WireServer, WireService};
pub use service::DirectoryService;
pub use socket::SocketTransport;

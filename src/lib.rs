//! # netdir — Querying Network Directories
//!
//! A from-scratch Rust implementation of the data model, query languages
//! (L0–L3), and I/O-efficient external-memory evaluation algorithms of
//!
//! > H. V. Jagadish, L. V. S. Lakshmanan, T. Milo, D. Srivastava, D. Vista.
//! > *Querying Network Directories*. SIGMOD 1999.
//!
//! This crate is a facade: it re-exports the public API of every workspace
//! crate under stable module names. See `README.md` for a tour and
//! `DESIGN.md` for the system inventory.
//!
//! ```
//! use netdir::model::{Dn, Directory};
//! let dn = Dn::parse("dc=att, dc=com").unwrap();
//! assert_eq!(dn.depth(), 2);
//! ```

/// Observability: metrics registry, injectable clocks, query traces.
pub use netdir_obs as obs;

/// External-memory substrate: pages, buffer pool, I/O ledger, lists,
/// chains, external sort.
pub use netdir_pager as pager;

/// The directory data model: DNs, schemas, entries, the directory forest.
pub use netdir_model as model;

/// Atomic filters and the baseline LDAP query language.
pub use netdir_filter as filter;

/// Indices backing efficient atomic-query evaluation.
pub use netdir_index as index;

/// The query languages L0–L3 and their evaluation engine.
pub use netdir_query as query;

/// Directory servers, delegation, and distributed evaluation.
pub use netdir_server as server;

/// TCP wire protocol: framed codec, the `netdird` daemon machinery,
/// the `WireClient` library, and the socket transport.
pub use netdir_wire as wire;

/// Seeded workload generators (Figures 1, 11, 12 and scalable variants).
pub use netdir_workloads as workloads;

/// The two DEN applications: QoS policy decisions and TOPS call routing.
pub use netdir_apps as apps;

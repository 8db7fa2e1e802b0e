//! # netdir-server — directory servers and distributed evaluation
//!
//! Sections 3.3 and 8.3 of the paper describe the deployment model this
//! crate implements:
//!
//! * The namespace is delegated DNS-style: each **server** owns a naming
//!   context (a subtree), possibly with subdomains split out to other
//!   servers ([`delegation`]).
//! * A query is posed to one server. Each *atomic sub-query* whose base DN
//!   is managed elsewhere is shipped to the owning server(s); the sorted
//!   results come back and the operator tree is evaluated locally at the
//!   queried server ([`distributed`]), exactly the plan of Section 8.3.
//!
//! Each server's zone is a store answering on the caller's thread
//! ([`node`]); sub-queries reach it through a [`Transport`] — a function
//! call in process, a socket between daemons — and the "network" counts
//! every message and shipped byte that crosses from one server to
//! another ([`net`]), which is what experiment E12 measures. The paper's
//! DNS-based server location is an in-process longest-prefix match — the
//! resolution mechanism is not part of any theorem (DESIGN.md §5).

pub mod admission;
pub mod delegation;
pub mod distributed;
pub mod fault;
pub mod health;
pub mod metrics;
pub mod net;
pub mod node;
pub mod retry;
pub mod transport;

pub use admission::{
    AdmissionConfig, AdmissionController, AdmissionSnapshot, EnumCap, RateLimit, Rejection,
};
pub use delegation::Delegation;
pub use distributed::{
    Cluster, ClusterBuilder, ClusterParts, ConsistencyMode, PartitionError, QueryOutcome, Router,
    COMPACT_FRACTION, COMPACT_MIN,
};
pub use fault::{FaultConfig, FaultSnapshot, FaultStats, FaultTransport};
pub use health::{BreakerConfig, BreakerState, BreakerTransitions, HealthTracker};
pub use net::{NetSnapshot, NetStats};
pub use node::{KeyedImage, ServerConfig, ZoneStore};
pub use retry::{RetryPolicy, RetrySnapshot, RetryStats, Retryable};
pub use transport::{
    AtomicResponse, LocalTransport, Transport, TransportError, TransportErrorKind,
    TransportResult,
};

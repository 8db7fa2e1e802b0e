//! The transport abstraction under the Section 8.3 evaluator.
//!
//! The distributed evaluator's only networking need is "issue this
//! atomic query to that server and get the sorted, encoded entries
//! back". [`Transport`] captures exactly that, so the same evaluator
//! (see [`crate::distributed::Router`]) runs over
//!
//! * [`LocalTransport`] — every zone in this process: a sub-query is a
//!   call into the target's [`ZoneStore`] on the caller's thread, with
//!   no thread hop, channel or copy (hermetic; what `netdird` and every
//!   in-process cluster use), or
//! * `netdir_wire::SocketTransport` — real TCP sockets to `netdird`
//!   processes, where the shipped-byte counters measure actual encoded
//!   frames rather than hypothetical payloads;
//!
//! and [`FaultTransport`](crate::FaultTransport) decorates either.
//!
//! Either way a response is a list of frozen `Entry::encode` images, the
//! bytes a page or a frame holds, each with its sort key; the router vets
//! the images without decoding and hands them, keyed, to the operator
//! above as they are. Keys never cross a socket: a zone in this process
//! lends the ones its table holds, and a socket derives them once on
//! receipt.
//!
//! [`NetStats`] lives behind the trait: each transport owns its
//! counters and records a round trip whenever the target is not the
//! queried (home) server, which is precisely the "results … are
//! shipped to the original queried directory server" cost of §8.3 —
//! a zone the queried server owns ships nothing.

use crate::delegation::ServerId;
use crate::fault::FaultStats;
use crate::net::NetStats;
use crate::node::{wire_bytes, KeyedImage, ZoneStore};
use netdir_filter::{AtomicFilter, Scope};
use netdir_model::Dn;
use std::fmt;
use std::sync::Arc;

/// What went wrong at the transport, classified for the retry policy:
/// a failure is either transient (worth another attempt, possibly on a
/// replica) or deterministic (retrying reproduces it exactly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportErrorKind {
    /// Connection-level loss: unreachable server, reset, timeout,
    /// socket closed mid-exchange. **Retryable.**
    Io,
    /// A fault deliberately injected by
    /// [`FaultTransport`](crate::FaultTransport). **Retryable** — it
    /// models transient network loss.
    Injected,
    /// The peer answered with bytes that violate the protocol. Fatal:
    /// the peer will mangle a retry identically.
    Protocol,
    /// The remote server executed the request and reported an
    /// evaluation error. Fatal: the query itself fails over there.
    Remote,
    /// No such server id — a delegation/config bug, not weather. Fatal.
    Addressing,
}

impl TransportErrorKind {
    /// May another attempt succeed?
    pub fn is_retryable(self) -> bool {
        matches!(self, TransportErrorKind::Io | TransportErrorKind::Injected)
    }

    fn label(self) -> &'static str {
        match self {
            TransportErrorKind::Io => "i/o",
            TransportErrorKind::Injected => "injected",
            TransportErrorKind::Protocol => "protocol",
            TransportErrorKind::Remote => "remote",
            TransportErrorKind::Addressing => "addressing",
        }
    }
}

/// A transport-level failure (unreachable server, closed connection,
/// malformed response), carrying its retry classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportError {
    /// Retryable-vs-fatal classification.
    pub kind: TransportErrorKind,
    /// Human-readable cause.
    pub detail: String,
}

impl TransportError {
    /// A connection-level (retryable) failure — the historical default.
    pub fn new(detail: impl Into<String>) -> TransportError {
        TransportError::with_kind(TransportErrorKind::Io, detail)
    }

    /// Build with an explicit classification.
    pub fn with_kind(kind: TransportErrorKind, detail: impl Into<String>) -> TransportError {
        TransportError {
            kind,
            detail: detail.into(),
        }
    }

    /// An addressing (fatal) failure.
    pub fn addressing(detail: impl Into<String>) -> TransportError {
        TransportError::with_kind(TransportErrorKind::Addressing, detail)
    }

    /// A remote evaluation (fatal) failure.
    pub fn remote(detail: impl Into<String>) -> TransportError {
        TransportError::with_kind(TransportErrorKind::Remote, detail)
    }

    /// A protocol-violation (fatal) failure.
    pub fn protocol(detail: impl Into<String>) -> TransportError {
        TransportError::with_kind(TransportErrorKind::Protocol, detail)
    }

    /// An injected (retryable) failure.
    pub fn injected(detail: impl Into<String>) -> TransportError {
        TransportError::with_kind(TransportErrorKind::Injected, detail)
    }
}

impl crate::retry::Retryable for TransportError {
    fn is_retryable(&self) -> bool {
        self.kind.is_retryable()
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transport error ({}): {}", self.kind.label(), self.detail)
    }
}

impl std::error::Error for TransportError {}

/// Convenience alias.
pub type TransportResult<T> = Result<T, TransportError>;

/// One atomic sub-query's response as it crossed the transport.
#[derive(Debug)]
pub struct AtomicResponse {
    /// The entries in key order: each on-page image with its sort key.
    pub entries: Vec<KeyedImage>,
    /// Bytes that actually crossed the transport for this response —
    /// payload bytes in process, full frame bytes for sockets.
    pub wire_bytes: u64,
}

/// Ships atomic sub-queries between directory servers.
pub trait Transport: Send + Sync {
    /// Evaluate `(base ? scope ? filter)` on server `target`, as part
    /// of a query posed to server `home`. Implementations record
    /// network counters for every `target != home` round trip.
    fn atomic(
        &self,
        target: ServerId,
        home: ServerId,
        base: &Dn,
        scope: Scope,
        filter: &AtomicFilter,
    ) -> TransportResult<AtomicResponse>;

    /// This transport's network counters.
    fn net(&self) -> &NetStats;

    /// Number of addressable servers.
    fn num_servers(&self) -> usize;

    /// Fault-injection counters, when this transport injects faults.
    fn faults(&self) -> Option<&FaultStats> {
        None
    }
}

/// The in-process transport: every server's zone lives in this process,
/// indexed by [`ServerId`], and a sub-query is a function call on the
/// caller's thread.
///
/// Shipped bytes are the summed entry images — the same codec the pager
/// uses on pages, so E12's counters match the storage cost model.
pub struct LocalTransport {
    stores: Arc<[ZoneStore]>,
    net: NetStats,
}

impl LocalTransport {
    /// Address the zones in `stores` (server `i` is `stores[i]`).
    pub fn new(stores: Arc<[ZoneStore]>) -> LocalTransport {
        LocalTransport {
            stores,
            net: NetStats::new(),
        }
    }
}

impl Transport for LocalTransport {
    fn atomic(
        &self,
        target: ServerId,
        home: ServerId,
        base: &Dn,
        scope: Scope,
        filter: &AtomicFilter,
    ) -> TransportResult<AtomicResponse> {
        let entries = self
            .stores
            .get(target)
            .ok_or_else(|| TransportError::addressing(format!("no server with id {target}")))?
            .atomic(base, scope, filter)
            .map_err(TransportError::remote)?;
        let bytes = wire_bytes(&entries);
        if target != home {
            self.net.record_round_trip(entries.len() as u64, bytes);
        }
        Ok(AtomicResponse {
            wire_bytes: bytes,
            entries,
        })
    }

    fn net(&self) -> &NetStats {
        &self.net
    }

    fn num_servers(&self) -> usize {
        self.stores.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{decode_entries, images, ServerConfig};
    use netdir_model::Entry;

    fn dn(s: &str) -> Dn {
        Dn::parse(s).unwrap()
    }

    fn two_zones() -> LocalTransport {
        let mk = |s: &str| {
            Entry::builder(dn(s))
                .class("thing")
                .attr("surName", "jagadish")
                .build()
                .unwrap()
        };
        LocalTransport::new(Arc::from(vec![
            ZoneStore::new(
                ServerConfig::new("a", dn("dc=a")),
                vec![mk("dc=a"), mk("ou=p, dc=a")],
            ),
            ZoneStore::new(ServerConfig::new("b", dn("dc=b")), vec![mk("dc=b")]),
        ]))
    }

    #[test]
    fn local_round_trips_are_free() {
        let t = two_zones();
        let resp = t
            .atomic(0, 0, &dn("dc=a"), Scope::Sub, &AtomicFilter::present("surName"))
            .unwrap();
        assert_eq!(resp.entries.len(), 2);
        assert!(resp.wire_bytes > 0);
        assert_eq!(t.net().snapshot().requests, 0);
    }

    #[test]
    fn remote_round_trips_are_counted() {
        let t = two_zones();
        let resp = t
            .atomic(1, 0, &dn("dc=b"), Scope::Sub, &AtomicFilter::present("surName"))
            .unwrap();
        let entries = decode_entries(&images(resp.entries)).unwrap();
        assert_eq!(entries.len(), 1);
        let snap = t.net().snapshot();
        assert_eq!(snap.requests, 1);
        assert_eq!(snap.entries_shipped, 1);
        assert_eq!(snap.bytes_shipped, resp.wire_bytes);
    }

    #[test]
    fn unknown_target_is_an_error() {
        let t = two_zones();
        let err = t
            .atomic(9, 0, &dn("dc=a"), Scope::Base, &AtomicFilter::True)
            .unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::Addressing);
    }
}

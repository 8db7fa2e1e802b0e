//! [`SocketTransport`] — the Section 8.3 evaluator over real TCP.
//!
//! Implements `netdir_server::Transport` with one [`WireClient`] per
//! server, so [`Router`] runs the identical routing/merging logic it
//! runs over the in-process transport — only the shipping medium
//! changes. `NetStats` here counts **actual frame bytes** (header +
//! payload of each response), not the payload sizes the in-process
//! transport charges, so `exp_distributed --wire` reports what truly
//! crossed the loopback.
//!
//! Keys do not cross the wire: a frame carries images only, and this
//! transport derives each image's sort key once, on receipt, for the
//! router's in-memory merge and the operators above it. A response
//! holding an image with no key is refused as a retryable corrupt
//! payload, like any other the router's vetting catches.
//!
//! [`Router`]: netdir_server::Router

use crate::client::{ClientOptions, WireClient, WireError};
use netdir_filter::{AtomicFilter, Scope};
use netdir_model::{Dn, Entry};
use netdir_pager::record::Record;
use netdir_server::delegation::ServerId;
use netdir_server::{
    AtomicResponse, KeyedImage, NetStats, Transport, TransportError, TransportResult,
};
use std::net::SocketAddr;

/// Preserve the retry classification across the error-type boundary, so
/// the router treats a TCP failure exactly like any other transport's.
fn to_transport_error(e: WireError) -> TransportError {
    match e {
        WireError::Io(d) => TransportError::new(d),
        WireError::Protocol(d) => TransportError::protocol(d),
        WireError::Remote(d) => TransportError::remote(d),
        // Admission shedding is transient server weather (retryable,
        // possibly on a replica); a blown deadline repeats over there.
        e @ WireError::Busy { .. } => TransportError::new(e.to_string()),
        e @ WireError::DeadlineExceeded { .. } => TransportError::remote(e.to_string()),
    }
}

/// TCP transport: server `i` of the delegation table lives at `addrs[i]`.
pub struct SocketTransport {
    clients: Vec<WireClient>,
    net: NetStats,
}

impl SocketTransport {
    /// One pooled client per server address.
    pub fn connect(addrs: &[SocketAddr], opts: ClientOptions) -> SocketTransport {
        SocketTransport {
            clients: addrs
                .iter()
                .map(|&a| WireClient::connect(a, opts.clone()))
                .collect(),
            net: NetStats::new(),
        }
    }

    /// The client addressing server `id`.
    pub fn client(&self, id: ServerId) -> &WireClient {
        &self.clients[id]
    }

    /// Total policy-driven retries performed by the per-server clients
    /// (connection-level; the router's own zone retries are counted
    /// separately in its `RetryStats`).
    pub fn client_retries(&self) -> u64 {
        self.clients.iter().map(|c| c.retries()).sum()
    }
}

impl Transport for SocketTransport {
    fn atomic(
        &self,
        target: ServerId,
        home: ServerId,
        base: &Dn,
        scope: Scope,
        filter: &AtomicFilter,
    ) -> TransportResult<AtomicResponse> {
        let client = self
            .clients
            .get(target)
            .ok_or_else(|| TransportError::addressing(format!("no server with id {target}")))?;
        let (encoded, frame_bytes) = client
            .atomic_counted(base, scope, filter)
            .map_err(to_transport_error)?;
        if target != home {
            self.net.record_round_trip(encoded.len() as u64, frame_bytes);
        }
        let entries = encoded
            .into_iter()
            .map(|image| match Entry::page_key_of_encoded(&image) {
                Ok(Some(key)) => Ok(KeyedImage { key, image }),
                // An image with no sort key is a corrupt payload: charge
                // the server and fetch again, as for any other.
                Ok(None) => Err(TransportError::new("corrupt response: an image without a key")),
                Err(e) => Err(TransportError::new(format!("corrupt response: {e}"))),
            })
            .collect::<TransportResult<_>>()?;
        Ok(AtomicResponse {
            entries,
            wire_bytes: frame_bytes,
        })
    }

    fn net(&self) -> &NetStats {
        &self.net
    }

    fn num_servers(&self) -> usize {
        self.clients.len()
    }
}

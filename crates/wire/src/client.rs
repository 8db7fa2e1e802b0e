//! `WireClient` — a small pooled client for the frame protocol.
//!
//! One client addresses one daemon. Connections are created lazily,
//! parked in a small pool between requests, and retired on any error; a
//! request that fails on a *pooled* (possibly stale) connection is
//! retried once on a fresh one, so an idle-timeout on the server side is
//! invisible to callers. Every socket carries the configured request
//! timeout, so a hung daemon surfaces as an error rather than a hang.

use crate::codec::{WireRequest, WireResponse};
use crate::frame::{frame_len, read_frame, write_frame, DEFAULT_MAX_FRAME};
use netdir_filter::{AtomicFilter, CompositeFilter, Scope};
use netdir_journal::MutationBatch;
use netdir_model::{Dn, Entry};
use netdir_obs::{Clock, MonotonicClock};
use netdir_server::node::decode_entries;
use netdir_server::{QueryOutcome, RetryPolicy, Retryable};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Client-side failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Socket-level failure (connect, read, write, timeout).
    Io(String),
    /// The peer spoke the protocol wrong (bad frame or payload).
    Protocol(String),
    /// The daemon executed the request and reported an error.
    Remote(String),
    /// The daemon shed the request at admission (queue full, rate
    /// limit, enumeration cap) without executing it. Retryable after
    /// the hinted delay.
    Busy {
        /// Server's suggested wait before retrying.
        retry_after_ms: u32,
    },
    /// The daemon started the request but its execution deadline
    /// expired. **Not** retryable: the same request blows the same
    /// budget again.
    DeadlineExceeded {
        /// The budget that was exhausted.
        budget_ms: u32,
    },
}

impl WireError {
    /// May another attempt succeed? Connection weather ([`Io`]) and
    /// admission shedding ([`Busy`]) qualify: both are transient server
    /// states. A protocol violation repeats identically, a remote
    /// evaluation error means the query itself fails over there, and a
    /// blown deadline blows again.
    ///
    /// [`Io`]: WireError::Io
    /// [`Busy`]: WireError::Busy
    pub fn is_retryable(&self) -> bool {
        matches!(self, WireError::Io(_) | WireError::Busy { .. })
    }

    /// Classify an I/O failure from the frame layer: the size guards
    /// (`InvalidInput` from `write_frame`, `InvalidData` from
    /// `read_frame`) are protocol violations, everything else is
    /// connection weather.
    fn from_io(e: io::Error) -> WireError {
        match e.kind() {
            io::ErrorKind::InvalidInput | io::ErrorKind::InvalidData => {
                WireError::Protocol(e.to_string())
            }
            _ => WireError::Io(e.to_string()),
        }
    }
}

impl Retryable for WireError {
    fn is_retryable(&self) -> bool {
        WireError::is_retryable(self)
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Protocol(e) => write!(f, "protocol error: {e}"),
            WireError::Remote(e) => write!(f, "remote error: {e}"),
            WireError::Busy { retry_after_ms } => {
                write!(f, "server busy (retry after {retry_after_ms}ms)")
            }
            WireError::DeadlineExceeded { budget_ms } => {
                write!(f, "request deadline exceeded ({budget_ms}ms budget)")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Convenience alias.
pub type WireResult<T> = Result<T, WireError>;

/// Tuning knobs for a [`WireClient`].
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// Connect/read/write timeout applied to every request.
    pub timeout: Duration,
    /// Maximum frame payload size sent or accepted.
    pub max_frame: usize,
    /// Idle connections kept for reuse.
    pub pool_size: usize,
    /// Retry policy for retryable ([`WireError::Io`]) failures. The
    /// stale-pooled-connection retry is separate and always free — this
    /// policy governs genuinely failed exchanges.
    pub retry: RetryPolicy,
}

impl Default for ClientOptions {
    fn default() -> ClientOptions {
        ClientOptions {
            timeout: Duration::from_secs(30),
            max_frame: DEFAULT_MAX_FRAME,
            pool_size: 2,
            retry: RetryPolicy {
                max_attempts: 3,
                base_delay: Duration::from_millis(10),
                max_delay: Duration::from_millis(200),
                ..RetryPolicy::default()
            },
        }
    }
}

/// A pooled client for one daemon address.
pub struct WireClient {
    addr: SocketAddr,
    opts: ClientOptions,
    pool: Mutex<Vec<TcpStream>>,
    retries: AtomicU64,
    clock: Arc<dyn Clock>,
}

impl WireClient {
    /// Address `addr` with `opts`. No connection is made until the first
    /// request (use [`WireClient::ping`] to fail fast).
    pub fn connect(addr: SocketAddr, opts: ClientOptions) -> WireClient {
        WireClient {
            addr,
            opts,
            pool: Mutex::new(Vec::new()),
            retries: AtomicU64::new(0),
            clock: Arc::new(MonotonicClock::new()),
        }
    }

    /// Replace the time source driving retry backoff. Tests inject a
    /// [`netdir_obs::ManualClock`] so backoff loops complete instantly
    /// while still advancing observable time.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> WireClient {
        self.clock = clock;
        self
    }

    /// The daemon this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Policy-driven retries performed so far (the free
    /// stale-pooled-connection redo is not counted).
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    fn fresh_conn(&self) -> WireResult<TcpStream> {
        let conn = TcpStream::connect_timeout(&self.addr, self.opts.timeout)
            .map_err(|e| WireError::Io(format!("connect {}: {e}", self.addr)))?;
        let t = Some(self.opts.timeout);
        conn.set_read_timeout(t)
            .and_then(|()| conn.set_write_timeout(t))
            .map_err(|e| WireError::Io(e.to_string()))?;
        let _ = conn.set_nodelay(true);
        Ok(conn)
    }

    fn checkout(&self) -> Option<TcpStream> {
        self.pool.lock().unwrap_or_else(|e| e.into_inner()).pop()
    }

    fn checkin(&self, conn: TcpStream) {
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        if pool.len() < self.opts.pool_size {
            pool.push(conn);
        }
    }

    /// One request/response exchange on an established connection.
    /// Returns the response payload (None if the server closed instead
    /// of answering).
    fn exchange(
        &self,
        conn: &mut (impl Read + Write),
        payload: &[u8],
    ) -> WireResult<Option<Vec<u8>>> {
        write_frame(conn, payload, self.opts.max_frame).map_err(WireError::from_io)?;
        read_frame(conn, self.opts.max_frame).map_err(WireError::from_io)
    }

    /// Issue `req`; return the decoded response plus the number of bytes
    /// the response occupied on the wire (frame header included).
    ///
    /// Failure handling, in order: a failed exchange on a *pooled*
    /// connection is redone once immediately on a fresh one (a server
    /// idle-timeout is not weather); after that, retryable errors
    /// ([`WireError::Io`], [`WireError::Busy`]) get
    /// [`ClientOptions::retry`] attempts with capped jittered backoff —
    /// a `Busy` frame additionally raises the delay to the server's
    /// `retry_after` hint (itself capped by the policy's `max_delay`);
    /// fatal errors ([`WireError::Protocol`], [`WireError::Remote`],
    /// [`WireError::DeadlineExceeded`]) surface immediately.
    pub fn call_counted(&self, req: &WireRequest) -> WireResult<(WireResponse, u64)> {
        let payload = req.encode();
        let mut last_err = WireError::Io("no attempt made".into());
        let mut pool_grace = true;
        let max_attempts = self.opts.retry.max_attempts.max(1);
        let mut attempt = 0;
        while attempt < max_attempts {
            let conn = match self.checkout() {
                Some(c) => Ok((c, true)),
                None => self.fresh_conn().map(|c| (c, false)),
            };
            match conn {
                Ok((mut conn, pooled)) => match self.exchange(&mut conn, &payload) {
                    Ok(Some(resp_payload)) => {
                        let on_wire = frame_len(resp_payload.len());
                        let resp = WireResponse::decode(&resp_payload)
                            .map_err(|e| WireError::Protocol(e.to_string()))?;
                        self.checkin(conn);
                        match resp {
                            // Shed at admission: the connection stays
                            // usable, the request was never executed —
                            // retry with backoff, honouring the hint.
                            WireResponse::Busy { retry_after_ms } => {
                                last_err = WireError::Busy { retry_after_ms };
                            }
                            WireResponse::DeadlineExceeded { budget_ms } => {
                                return Err(WireError::DeadlineExceeded { budget_ms });
                            }
                            resp => return Ok((resp, on_wire)),
                        }
                    }
                    Ok(None) => {
                        last_err =
                            WireError::Io("server closed connection without answering".into());
                        // One free immediate redo: the pooled connection
                        // was probably reaped by the server while idle.
                        if pooled && pool_grace {
                            pool_grace = false;
                            continue;
                        }
                    }
                    Err(e) => {
                        if !e.is_retryable() {
                            return Err(e);
                        }
                        last_err = e;
                        if pooled && pool_grace {
                            pool_grace = false;
                            continue;
                        }
                    }
                },
                Err(e) => {
                    if !e.is_retryable() {
                        return Err(e);
                    }
                    last_err = e;
                }
            }
            attempt += 1;
            if attempt < max_attempts {
                self.retries.fetch_add(1, Ordering::Relaxed);
                let mut delay = self.opts.retry.backoff(attempt - 1, self.addr.port() as u64);
                if let WireError::Busy { retry_after_ms } = last_err {
                    // Respect the server's hint, but never wait longer
                    // than the policy's own cap (so an immediate test
                    // policy with max_delay=0 stays immediate).
                    let hint = Duration::from_millis(u64::from(retry_after_ms))
                        .min(self.opts.retry.max_delay);
                    delay = delay.max(hint);
                }
                if !delay.is_zero() {
                    self.clock.sleep(delay);
                }
            }
        }
        Err(last_err)
    }

    /// Issue `req`, expecting entries back.
    fn call_entries(&self, req: &WireRequest) -> WireResult<(Vec<Vec<u8>>, u64)> {
        match self.call_counted(req)? {
            (WireResponse::Entries(encoded), n) => Ok((encoded, n)),
            (WireResponse::Error(e), _) => Err(WireError::Remote(e)),
            (other, _) => Err(WireError::Protocol(format!(
                "expected entries, got {other:?}"
            ))),
        }
    }

    /// Liveness probe.
    pub fn ping(&self) -> WireResult<()> {
        match self.call_counted(&WireRequest::Ping)? {
            (WireResponse::Pong, _) => Ok(()),
            (WireResponse::Error(e), _) => Err(WireError::Remote(e)),
            (other, _) => Err(WireError::Protocol(format!("expected pong, got {other:?}"))),
        }
    }

    /// Ask the daemon to shut down gracefully.
    pub fn shutdown_server(&self) -> WireResult<()> {
        match self.call_counted(&WireRequest::Shutdown)? {
            (WireResponse::Pong, _) => Ok(()),
            (WireResponse::Error(e), _) => Err(WireError::Remote(e)),
            (other, _) => Err(WireError::Protocol(format!("expected pong, got {other:?}"))),
        }
    }

    /// Atomic query returning the raw on-page encodings plus the bytes
    /// the response occupied on the wire (what [`SocketTransport`] feeds
    /// into `NetStats`).
    ///
    /// [`SocketTransport`]: crate::socket::SocketTransport
    pub fn atomic_counted(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &AtomicFilter,
    ) -> WireResult<(Vec<Vec<u8>>, u64)> {
        self.call_entries(&WireRequest::Atomic {
            base: base.clone(),
            scope,
            filter: filter.clone(),
        })
    }

    /// Atomic query returning decoded entries.
    pub fn atomic(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &AtomicFilter,
    ) -> WireResult<Vec<Entry>> {
        let (encoded, _) = self.atomic_counted(base, scope, filter)?;
        decode_entries(&encoded).map_err(|e| WireError::Protocol(e.to_string()))
    }

    /// Baseline LDAP search (single base/scope/composite filter).
    pub fn search(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &CompositeFilter,
    ) -> WireResult<Vec<Entry>> {
        let (encoded, _) = self.call_entries(&WireRequest::Ldap {
            base: base.clone(),
            scope,
            filter: filter.clone(),
        })?;
        decode_entries(&encoded).map_err(|e| WireError::Protocol(e.to_string()))
    }

    /// Full L0–L3 query (text form), evaluated distributed-style as
    /// posed to the server named `home` (empty = the receiving daemon).
    pub fn query(&self, home: &str, text: &str) -> WireResult<Vec<Entry>> {
        let encoded = self.query_encoded(home, text)?;
        decode_entries(&encoded).map_err(|e| WireError::Protocol(e.to_string()))
    }

    /// Like [`WireClient::query`] but returns the entries still in their
    /// wire encoding (for byte-level comparisons).
    pub fn query_encoded(&self, home: &str, text: &str) -> WireResult<Vec<Vec<u8>>> {
        let (encoded, _) = self.call_entries(&WireRequest::Query {
            home: home.to_string(),
            text: text.to_string(),
        })?;
        Ok(encoded)
    }

    /// Fetch the daemon's metrics in Prometheus exposition format.
    pub fn stats(&self) -> WireResult<String> {
        match self.call_counted(&WireRequest::Stats)? {
            (WireResponse::Stats(text), _) => Ok(text),
            (WireResponse::Error(e), _) => Err(WireError::Remote(e)),
            (other, _) => Err(WireError::Protocol(format!(
                "expected stats, got {other:?}"
            ))),
        }
    }

    /// Full L0–L3 query returning the entries *and* the remote
    /// evaluation's per-operator [`netdir_obs::QueryTrace`] —
    /// `EXPLAIN ANALYZE` over the wire.
    pub fn query_analyze(
        &self,
        home: &str,
        text: &str,
    ) -> WireResult<(Vec<Entry>, netdir_obs::QueryTrace)> {
        let req = WireRequest::QueryAnalyze {
            home: home.to_string(),
            text: text.to_string(),
        };
        match self.call_counted(&req)? {
            (WireResponse::Analyzed { entries, trace }, _) => {
                let entries = decode_entries(&entries)
                    .map_err(|e| WireError::Protocol(e.to_string()))?;
                Ok((entries, trace))
            }
            (WireResponse::Error(e), _) => Err(WireError::Remote(e)),
            (other, _) => Err(WireError::Protocol(format!(
                "expected analyzed entries, got {other:?}"
            ))),
        }
    }

    /// Full L0–L3 query under graceful degradation: zones the remote
    /// cluster cannot reach are skipped and reported in
    /// [`QueryOutcome::partial`] instead of failing the query.
    pub fn query_partial(&self, home: &str, text: &str) -> WireResult<QueryOutcome> {
        let req = WireRequest::QueryPartial {
            home: home.to_string(),
            text: text.to_string(),
        };
        let (encoded, partial) = match self.call_counted(&req)? {
            // A fully healthy cluster may answer with a plain Entries
            // frame (nothing was skipped).
            (WireResponse::Entries(encoded), _) => (encoded, Vec::new()),
            (WireResponse::Partial { entries, skipped }, _) => (entries, skipped),
            (WireResponse::Error(e), _) => return Err(WireError::Remote(e)),
            (other, _) => {
                return Err(WireError::Protocol(format!(
                    "expected entries or partial, got {other:?}"
                )))
            }
        };
        if let Some(e) = encoded
            .iter()
            .find_map(|image| Entry::validate_encoded(image).err())
        {
            return Err(WireError::Protocol(format!("corrupt entry image: {e}")));
        }
        Ok(QueryOutcome {
            entries: encoded,
            partial,
        })
    }

    /// Apply a mutation batch atomically on the daemon. Returns the
    /// journal epoch after the commit and the number of mutations
    /// applied. A rejected batch (unknown DN, duplicate add, …) comes
    /// back as [`WireError::Remote`] with nothing applied.
    ///
    /// Unlike queries, mutations are **never retried**: an I/O error
    /// after the request was written leaves the commit status unknown,
    /// and a blind redo could apply the batch twice. Each call uses a
    /// fresh connection so a stale pooled socket cannot eat the request
    /// either; on error, re-query and resubmit deliberately.
    pub fn apply(&self, batch: &MutationBatch) -> WireResult<(u64, u32)> {
        let req = WireRequest::Mutate {
            batch: batch.clone(),
        };
        let payload = req.encode();
        let mut conn = self.fresh_conn()?;
        let resp_payload = self
            .exchange(&mut conn, &payload)?
            .ok_or_else(|| WireError::Io("server closed connection without answering".into()))?;
        let resp = WireResponse::decode(&resp_payload)
            .map_err(|e| WireError::Protocol(e.to_string()))?;
        self.checkin(conn);
        match resp {
            WireResponse::Mutated { epoch, mutations } => Ok((epoch, mutations)),
            WireResponse::Error(e) => Err(WireError::Remote(e)),
            // Shed before execution: nothing was applied, and since
            // mutations are never auto-retried the caller decides when
            // to resubmit.
            WireResponse::Busy { retry_after_ms } => Err(WireError::Busy { retry_after_ms }),
            WireResponse::DeadlineExceeded { budget_ms } => {
                Err(WireError::DeadlineExceeded { budget_ms })
            }
            other => Err(WireError::Protocol(format!(
                "expected mutated ack, got {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    /// A scripted daemon: hands out the responses in `script` one per
    /// request (across however many connections the client opens), then
    /// stops answering.
    fn scripted_server(script: Vec<WireResponse>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let mut script = script.into_iter();
            for conn in listener.incoming() {
                let Ok(mut conn) = conn else { continue };
                while let Ok(Some(_req)) = read_frame(&mut conn, DEFAULT_MAX_FRAME) {
                    let Some(resp) = script.next() else { return };
                    if write_frame(&mut conn, &resp.encode(), DEFAULT_MAX_FRAME).is_err() {
                        break;
                    }
                }
            }
        });
        addr
    }

    fn client(addr: SocketAddr, retry: RetryPolicy) -> WireClient {
        WireClient::connect(
            addr,
            ClientOptions {
                timeout: Duration::from_secs(5),
                retry,
                ..ClientOptions::default()
            },
        )
    }

    #[test]
    fn busy_frames_are_retried_until_admitted() {
        let addr = scripted_server(vec![
            WireResponse::Busy { retry_after_ms: 1 },
            WireResponse::Busy { retry_after_ms: 1 },
            WireResponse::Pong,
        ]);
        let c = client(addr, RetryPolicy::immediate(5));
        c.ping().unwrap();
        assert_eq!(c.retries(), 2, "each Busy costs one policy retry");
    }

    #[test]
    fn persistent_busy_exhausts_the_policy_and_surfaces() {
        let addr = scripted_server(vec![
            WireResponse::Busy { retry_after_ms: 7 },
            WireResponse::Busy { retry_after_ms: 7 },
            WireResponse::Busy { retry_after_ms: 7 },
        ]);
        let c = client(addr, RetryPolicy::immediate(3));
        let err = c.ping().unwrap_err();
        assert_eq!(err, WireError::Busy { retry_after_ms: 7 });
        assert!(err.is_retryable(), "Busy classifies as retryable");
    }

    #[test]
    fn deadline_exceeded_is_fatal_and_never_retried() {
        let addr = scripted_server(vec![WireResponse::DeadlineExceeded { budget_ms: 50 }]);
        let c = client(addr, RetryPolicy::immediate(4));
        let err = c.ping().unwrap_err();
        assert_eq!(err, WireError::DeadlineExceeded { budget_ms: 50 });
        assert!(!err.is_retryable(), "the same request blows the same budget");
        assert_eq!(c.retries(), 0, "fatal errors must not burn retries");
    }

    #[test]
    fn busy_retry_waits_at_least_the_server_hint() {
        let addr = scripted_server(vec![
            WireResponse::Busy { retry_after_ms: 30 },
            WireResponse::Pong,
        ]);
        // base_delay ZERO makes the policy's own backoff zero, so any
        // wait observed comes from honouring the hint (capped at 100ms).
        let c = client(
            addr,
            RetryPolicy {
                max_attempts: 2,
                base_delay: Duration::ZERO,
                max_delay: Duration::from_millis(100),
                ..RetryPolicy::default()
            },
        );
        let started = Instant::now();
        c.ping().unwrap();
        assert!(
            started.elapsed() >= Duration::from_millis(30),
            "hint ignored: retried after {:?}",
            started.elapsed()
        );
    }
}

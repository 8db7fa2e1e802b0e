//! A blocking, multi-threaded TCP frame server.
//!
//! No async runtime: one accept thread feeds accepted connections over a
//! crossbeam channel to a fixed worker pool, and each worker speaks the
//! frame protocol synchronously over its connection, running the
//! service on its own thread — a daemon is its acceptor plus its
//! workers.
//!
//! Robustness guards, all per-connection:
//! * read/write timeouts — a stalled or silent peer costs one worker
//!   for at most the timeout, then the connection is dropped;
//! * max-frame-size enforcement on both directions (see [`crate::frame`]);
//! * malformed payloads get a [`WireResponse::Error`] and the connection
//!   survives; transport-level damage (truncated frame) closes it.
//!
//! Overload guards, so the daemon sheds load early and predictably
//! instead of queueing unboundedly (DESIGN.md §10):
//! * the accept→worker queue is bounded (`max_pending`); when it is
//!   full the accept thread answers a [`WireResponse::Busy`] frame and
//!   closes, before any worker is occupied;
//! * each decoded request passes the [`AdmissionController`] policy
//!   layer (inflight cap, per-peer token bucket, anti-enumeration cap);
//!   shed requests get `Busy` on the still-open connection;
//! * an optional per-request execution deadline (`request_deadline`)
//!   runs the service on a watched thread: if the budget expires the
//!   worker is released with a [`WireResponse::DeadlineExceeded`] and
//!   the runaway evaluation is tracked until it burns out.
//!
//! Shutdown is a graceful drain: [`WireServer::shutdown`] (also
//! triggered by a remote [`WireRequest::Shutdown`] frame) stops the
//! accept loop via a flag plus a self-connection to unblock `accept`,
//! half-closes the read side of every open connection so workers parked
//! in `read` wake immediately, lets requests already being processed
//! write their responses, then joins every thread. Connections still
//! waiting in the accept queue are dropped unanswered — their clients
//! see a clean close and retry elsewhere.

use crate::codec::{WireRequest, WireResponse};
use crate::frame::{read_frame, write_frame, DEFAULT_MAX_FRAME};
use crossbeam::channel::{unbounded, Receiver};
use netdir_server::AdmissionController;
use std::collections::HashMap;
use std::io;
use std::net::{IpAddr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// What a daemon does with each decoded request.
///
/// `Shutdown` frames are intercepted by the framework (acknowledged,
/// then the server stops); services never see them.
pub trait WireService: Send + Sync + 'static {
    /// Produce the response for one request.
    fn handle(&self, req: WireRequest) -> WireResponse;
}

/// Tuning knobs for a [`WireServer`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Worker threads serving connections. Must be at least 2 if the
    /// service evaluates distributed queries that can call back into
    /// this same server (a full `Query` occupies one worker while its
    /// locally-targeted atomic sub-queries arrive on another).
    pub workers: usize,
    /// Per-connection read timeout (None = block forever).
    pub read_timeout: Option<Duration>,
    /// Per-connection write timeout (None = block forever).
    pub write_timeout: Option<Duration>,
    /// Maximum frame payload size accepted or produced.
    pub max_frame: usize,
    /// Bound on accepted connections waiting for a worker; beyond it
    /// the accept thread sheds with a `Busy` frame instead of queueing.
    /// `0` = unbounded (the pre-admission behaviour).
    pub max_pending: usize,
    /// Per-request execution budget. When the service blows it, the
    /// worker is released with `DeadlineExceeded` and the runaway
    /// evaluation finishes detached. `None` = no deadline.
    pub request_deadline: Option<Duration>,
    /// The admission policy. `None` installs a fully permissive
    /// controller (accounting still works; no limit ever fires).
    pub admission: Option<Arc<AdmissionController>>,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            workers: 4,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_frame: DEFAULT_MAX_FRAME,
            max_pending: 64,
            request_deadline: None,
            admission: None,
        }
    }
}

/// State shared by the accept thread, the workers, and the handle.
struct Shared {
    addr: SocketAddr,
    stop: AtomicBool,
    /// Read-half clones of every open connection, so shutdown can wake
    /// workers parked in `read` without waiting out their timeout.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    /// Connections accepted but not yet picked up by a worker.
    pending: AtomicU64,
    /// The admission policy (always present; permissive by default).
    admission: Arc<AdmissionController>,
    /// Flag + condvar signalled the moment the accept thread drops the
    /// listening socket: from then on fresh connects are refused rather
    /// than queued. Event-driven so waiters wake immediately instead of
    /// polling with a fixed sleep.
    listener_closed: (Mutex<bool>, Condvar),
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Set the stop flag, poke the accept loop awake, and half-close
    /// every open connection's read side. Idempotent.
    fn request_stop(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500));
        let conns = self.conns.lock().unwrap_or_else(|e| e.into_inner());
        for conn in conns.values() {
            let _ = conn.shutdown(Shutdown::Read);
        }
    }

    /// Track a connection for shutdown wake-up.
    fn register(&self, conn: &TcpStream) -> Option<u64> {
        let clone = conn.try_clone().ok()?;
        let id = self.next_conn.fetch_add(1, Ordering::Relaxed);
        self.conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(id, clone);
        // A stop between the flag check and registration would miss this
        // connection; re-check so it is woken like the rest.
        if self.stopping() {
            let _ = conn.shutdown(Shutdown::Read);
        }
        Some(id)
    }

    /// Record that the listener socket is gone and wake every waiter.
    fn notify_listener_closed(&self) {
        let (flag, cv) = &self.listener_closed;
        *flag.lock().unwrap_or_else(|e| e.into_inner()) = true;
        cv.notify_all();
    }

    fn unregister(&self, id: Option<u64>) {
        if let Some(id) = id {
            self.conns
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(&id);
        }
    }
}

/// Handle to a running frame server. Dropping it shuts the server down.
pub struct WireServer {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl WireServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `service` on a pool of `opts.workers` threads.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<dyn WireService>,
        opts: ServerOptions,
    ) -> io::Result<WireServer> {
        WireServer::serve(TcpListener::bind(addr)?, service, opts)
    }

    /// Start serving `service` on an already-bound `listener`, so a fleet
    /// can learn every address before any daemon answers.
    pub fn serve(
        listener: TcpListener,
        service: Arc<dyn WireService>,
        opts: ServerOptions,
    ) -> io::Result<WireServer> {
        let admission = opts
            .admission
            .clone()
            .unwrap_or_else(|| Arc::new(AdmissionController::unlimited()));
        let shared = Arc::new(Shared {
            addr: listener.local_addr()?,
            stop: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            pending: AtomicU64::new(0),
            admission,
            listener_closed: (Mutex::new(false), Condvar::new()),
        });
        let (tx, rx) = unbounded::<TcpStream>();
        let workers = (0..opts.workers.max(1))
            .map(|i| {
                let rx = rx.clone();
                let service = service.clone();
                let opts = opts.clone();
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("netdird-worker-{i}"))
                    .spawn(move || worker_loop(rx, service, opts, shared))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let accept = {
            let shared = shared.clone();
            let max_pending = opts.max_pending;
            let max_frame = opts.max_frame;
            std::thread::Builder::new()
                .name("netdird-accept".into())
                .spawn(move || {
                    loop {
                        match listener.accept() {
                            Ok((conn, _)) => {
                                if shared.stopping() {
                                    break; // the wake-up self-connection
                                }
                                // Admission at the door: when every
                                // worker is busy and the queue is at its
                                // bound, shed this connection with a
                                // fast Busy frame instead of letting the
                                // backlog (and every queued client's
                                // latency) grow without limit.
                                let depth = shared.pending.load(Ordering::Relaxed);
                                if max_pending > 0 && depth >= max_pending as u64 {
                                    busy_reject(conn, &shared, max_frame);
                                    continue;
                                }
                                let depth = shared.pending.fetch_add(1, Ordering::Relaxed) + 1;
                                shared.admission.set_queue_depth(depth);
                                let _ = tx.send(conn);
                            }
                            Err(_) => {
                                if shared.stopping() {
                                    break;
                                }
                                // Transient accept errors (e.g. aborted
                                // handshake) are not fatal.
                            }
                        }
                    }
                    // Close the listener *before* signalling, so a
                    // woken waiter's connect attempt cannot land in the
                    // dead socket's backlog.
                    drop(listener);
                    shared.notify_listener_closed();
                    // tx drops here; workers drain the queue and exit.
                })?
        };
        Ok(WireServer {
            shared,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The admission policy this server consults (the one passed in
    /// [`ServerOptions::admission`], or the default permissive one).
    pub fn admission(&self) -> Arc<AdmissionController> {
        self.shared.admission.clone()
    }

    /// Has shutdown been requested (locally or by a remote frame)?
    pub fn is_stopping(&self) -> bool {
        self.shared.stopping()
    }

    /// Block until the accept thread has closed the listening socket —
    /// after which fresh connects are refused — or `timeout` elapses.
    /// Returns whether the listener is known closed. Wakes the moment
    /// the accept thread signals (condvar), so shutdown observers are
    /// not quantized to a polling interval.
    pub fn wait_listener_closed(&self, timeout: Duration) -> bool {
        let (flag, cv) = &self.shared.listener_closed;
        let closed = flag.lock().unwrap_or_else(|e| e.into_inner());
        let (closed, _timeout) = cv
            .wait_timeout_while(closed, timeout, |c| !*c)
            .unwrap_or_else(|e| e.into_inner());
        *closed
    }

    /// Stop accepting, wake parked readers, let requests already being
    /// processed answer, and join all threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.request_stop();
        self.join();
    }

    /// Block until every server thread has exited (used by the daemon
    /// binary to park the main thread until a remote Shutdown arrives).
    pub fn join(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Shed one connection at the door: count the rejection, write a `Busy`
/// frame, and close. The pending request frame is drained first —
/// closing with unread bytes in the receive buffer turns the close into
/// a TCP reset, which can discard the very `Busy` frame the client
/// needs to see. Drain and write happen on a short-lived detached
/// thread with tight timeouts: the accept thread must keep admitting
/// (and shedding) at full speed no matter how slowly a shed peer reads,
/// and each shed thread is bounded to ~1s of life.
fn busy_reject(mut conn: TcpStream, shared: &Shared, max_frame: usize) {
    let retry = shared.admission.reject_queue_full();
    let retry_after_ms = u32::try_from(retry.as_millis()).unwrap_or(u32::MAX).max(1);
    let _ = conn.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = conn.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = conn.set_nodelay(true);
    let shed = move || {
        let _ = read_frame(&mut conn, max_frame);
        let _ = write_frame(
            &mut conn,
            &WireResponse::Busy { retry_after_ms }.encode(),
            max_frame,
        );
    };
    if std::thread::Builder::new()
        .name("netdird-shed".into())
        .spawn(shed)
        .is_err()
    {
        // Out of threads: the connection drops unanswered, which the
        // client classifies as retryable i/o weather anyway.
    }
}

fn worker_loop(
    rx: Receiver<TcpStream>,
    service: Arc<dyn WireService>,
    opts: ServerOptions,
    shared: Arc<Shared>,
) {
    for conn in rx.iter() {
        let depth = shared.pending.fetch_sub(1, Ordering::Relaxed).saturating_sub(1);
        shared.admission.set_queue_depth(depth);
        let peer = conn.peer_addr().ok();
        let id = shared.register(&conn);
        // A failing connection (truncated frame, oversized header, reset
        // peer) costs exactly that connection: log it and serve the next
        // one. The daemon itself must be unkillable from the outside.
        if let Err(e) = serve_conn(conn, &service, &opts, &shared) {
            if !shared.stopping() {
                match peer {
                    Some(p) => eprintln!("netdird: connection {p}: {e}"),
                    None => eprintln!("netdird: connection error: {e}"),
                }
            }
        }
        shared.unregister(id);
        if shared.stopping() {
            break;
        }
    }
}

/// Run the service with panic containment: a service panic (poisoned
/// lock, indexing slip in a query operator) must not take the calling
/// thread down with it — that would shrink the worker pool permanently,
/// one panic at a time.
fn contained(service: &dyn WireService, req: WireRequest) -> WireResponse {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| service.handle(req))) {
        Ok(resp) => resp,
        Err(panic) => {
            let detail = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".into());
            WireResponse::Error(format!("internal error: {detail}"))
        }
    }
}

/// Run one admitted request, enforcing the execution deadline if one is
/// configured.
///
/// With a deadline, the service runs on a watched thread. If the budget
/// expires first, the worker walks away with `DeadlineExceeded` — the
/// runaway evaluation cannot be cancelled mid-page-scan, so it finishes
/// detached (tracked by the `netdir_deadline_abandoned` gauge) and its
/// eventual result is discarded. The admission inflight cap is what
/// bounds how many runaways can pile up.
fn execute(service: &Arc<dyn WireService>, req: WireRequest, shared: &Shared,
           deadline: Option<Duration>) -> WireResponse {
    let Some(budget) = deadline else {
        return contained(service.as_ref(), req);
    };
    let budget_ms = u32::try_from(budget.as_millis()).unwrap_or(u32::MAX);
    let (tx, rx) = unbounded::<WireResponse>();
    let abandoned = Arc::new(Mutex::new(false));
    let handle = {
        let service = service.clone();
        let admission = shared.admission.clone();
        let abandoned = abandoned.clone();
        std::thread::Builder::new()
            .name("netdird-eval".into())
            .spawn(move || {
                let resp = contained(service.as_ref(), req);
                let left_behind = abandoned.lock().unwrap_or_else(|e| e.into_inner());
                if *left_behind {
                    admission.abandon_end();
                } else {
                    let _ = tx.send(resp);
                }
            })
    };
    let Ok(handle) = handle else {
        return WireResponse::Error("internal error: cannot spawn evaluator".into());
    };
    let clock = shared.admission.clock().clone();
    let started = clock.now();
    match rx.recv_timeout(budget) {
        Ok(resp) => {
            shared
                .admission
                .record_deadline_used(clock.now().saturating_sub(started));
            let _ = handle.join();
            resp
        }
        Err(_) => {
            // Hold the flag while double-checking the channel: the
            // evaluator either already sent (we take its answer) or will
            // observe the flag and account itself as abandoned.
            let mut left_behind = abandoned.lock().unwrap_or_else(|e| e.into_inner());
            if let Ok(resp) = rx.try_recv() {
                drop(left_behind);
                shared
                    .admission
                    .record_deadline_used(clock.now().saturating_sub(started));
                let _ = handle.join();
                return resp;
            }
            *left_behind = true;
            drop(left_behind);
            shared.admission.record_deadline_exceeded();
            shared.admission.abandon_begin();
            WireResponse::DeadlineExceeded { budget_ms }
        }
    }
}

/// Result entries shipped by a response, for anti-enumeration charging.
fn entries_shipped(resp: &WireResponse) -> u64 {
    match resp {
        WireResponse::Entries(e) => e.len() as u64,
        WireResponse::Partial { entries, .. } => entries.len() as u64,
        WireResponse::Analyzed { entries, .. } => entries.len() as u64,
        _ => 0,
    }
}

fn serve_conn(
    mut conn: TcpStream,
    service: &Arc<dyn WireService>,
    opts: &ServerOptions,
    shared: &Shared,
) -> io::Result<()> {
    conn.set_read_timeout(opts.read_timeout)?;
    conn.set_write_timeout(opts.write_timeout)?;
    let _ = conn.set_nodelay(true);
    let peer_ip: Option<IpAddr> = conn.peer_addr().ok().map(|a| a.ip());
    loop {
        if shared.stopping() {
            break;
        }
        let Some(payload) = read_frame(&mut conn, opts.max_frame)? else {
            break; // clean end of session
        };
        let resp = match WireRequest::decode(&payload) {
            Ok(WireRequest::Shutdown) => {
                // Acknowledge first so the requester is not left hanging,
                // then stop the whole server.
                let _ = write_frame(&mut conn, &WireResponse::Pong.encode(), opts.max_frame);
                shared.request_stop();
                break;
            }
            Ok(req) => match shared.admission.admit(peer_ip) {
                Err(rejection) => WireResponse::Busy {
                    retry_after_ms: rejection.retry_after_ms(),
                },
                Ok(()) => {
                    let resp = execute(service, req, shared, opts.request_deadline);
                    shared
                        .admission
                        .note_results(peer_ip, entries_shipped(&resp));
                    shared.admission.release();
                    resp
                }
            },
            Err(e) => WireResponse::Error(format!("malformed request: {e}")),
        };
        write_frame(&mut conn, &resp.encode(), opts.max_frame)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::time::Instant;

    /// Echo-style service: answers Ping, errors on everything else.
    struct PingOnly;
    impl WireService for PingOnly {
        fn handle(&self, req: WireRequest) -> WireResponse {
            match req {
                WireRequest::Ping => WireResponse::Pong,
                other => WireResponse::Error(format!("unsupported: {other:?}")),
            }
        }
    }

    /// One request/response exchange, with every failure surfaced as a
    /// `Result` (no unwraps: tests asserting on daemon survival need to
    /// distinguish "server answered garbage" from "helper panicked").
    fn call(conn: &mut TcpStream, req: &WireRequest) -> io::Result<WireResponse> {
        write_frame(conn, &req.encode(), DEFAULT_MAX_FRAME)?;
        let payload = read_frame(conn, DEFAULT_MAX_FRAME)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed without answering",
            )
        })?;
        WireResponse::decode(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    #[test]
    fn serves_many_requests_per_connection() {
        let mut srv =
            WireServer::bind("127.0.0.1:0", Arc::new(PingOnly), ServerOptions::default())
                .unwrap();
        let mut conn = TcpStream::connect(srv.local_addr()).unwrap();
        for _ in 0..10 {
            assert_eq!(call(&mut conn, &WireRequest::Ping).unwrap(), WireResponse::Pong);
        }
        drop(conn);
        srv.shutdown();
    }

    #[test]
    fn malformed_payload_gets_error_but_connection_survives() {
        let mut srv =
            WireServer::bind("127.0.0.1:0", Arc::new(PingOnly), ServerOptions::default())
                .unwrap();
        let mut conn = TcpStream::connect(srv.local_addr()).unwrap();
        write_frame(&mut conn, &[99, 1, 2], DEFAULT_MAX_FRAME).unwrap();
        let payload = read_frame(&mut conn, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert!(matches!(
            WireResponse::decode(&payload).unwrap(),
            WireResponse::Error(_)
        ));
        // Still serving on the same connection.
        assert_eq!(call(&mut conn, &WireRequest::Ping).unwrap(), WireResponse::Pong);
        srv.shutdown();
    }

    #[test]
    fn oversized_frame_drops_the_connection() {
        let opts = ServerOptions {
            max_frame: 64,
            ..ServerOptions::default()
        };
        let mut srv = WireServer::bind("127.0.0.1:0", Arc::new(PingOnly), opts).unwrap();
        let mut conn = TcpStream::connect(srv.local_addr()).unwrap();
        // Hand-roll a header announcing far more than the cap.
        conn.write_all(&(1_000_000u32).to_be_bytes()).unwrap();
        conn.write_all(&[0u8; 16]).unwrap();
        // Server closes without replying.
        assert!(matches!(
            read_frame(&mut conn, DEFAULT_MAX_FRAME),
            Ok(None) | Err(_)
        ));
        srv.shutdown();
    }

    #[test]
    fn garbage_bytes_cost_only_their_own_connection() {
        // Regression: transport-level damage on one connection (here a
        // header announcing ~4 GiB, then junk) must be contained — the
        // worker logs and closes that connection; a fresh connection is
        // served normally.
        let mut srv =
            WireServer::bind("127.0.0.1:0", Arc::new(PingOnly), ServerOptions::default())
                .unwrap();
        let addr = srv.local_addr();
        let mut bad = TcpStream::connect(addr).unwrap();
        bad.write_all(&[0xff, 0xff, 0xff, 0xff]).unwrap();
        bad.write_all(b"this is not a frame").unwrap();
        // The server drops the damaged connection without replying.
        assert!(matches!(
            read_frame(&mut bad, DEFAULT_MAX_FRAME),
            Ok(None) | Err(_)
        ));
        drop(bad);
        // The daemon survives: a fresh connection gets real service.
        let mut good = TcpStream::connect(addr).unwrap();
        assert_eq!(call(&mut good, &WireRequest::Ping).unwrap(), WireResponse::Pong);
        srv.shutdown();
    }

    #[test]
    fn remote_shutdown_is_acknowledged_and_stops_the_server() {
        let mut srv =
            WireServer::bind("127.0.0.1:0", Arc::new(PingOnly), ServerOptions::default())
                .unwrap();
        let addr = srv.local_addr();
        let mut conn = TcpStream::connect(addr).unwrap();
        assert_eq!(
            call(&mut conn, &WireRequest::Shutdown).unwrap(),
            WireResponse::Pong
        );
        srv.join();
        assert!(srv.is_stopping());
        // Wait on the accept thread's closed-listener signal (no fixed
        // sleep): fresh connections are then refused (or reset).
        assert!(srv.wait_listener_closed(Duration::from_secs(5)));
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
    }

    #[test]
    fn shutdown_does_not_wait_out_idle_connections() {
        // An idle client holds a connection open; shutdown must wake the
        // worker parked in read rather than wait for the 30s timeout.
        let mut srv =
            WireServer::bind("127.0.0.1:0", Arc::new(PingOnly), ServerOptions::default())
                .unwrap();
        let mut conn = TcpStream::connect(srv.local_addr()).unwrap();
        assert_eq!(call(&mut conn, &WireRequest::Ping).unwrap(), WireResponse::Pong);
        let started = Instant::now();
        srv.shutdown(); // conn is still open and idle
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "shutdown blocked on an idle connection for {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn panicking_service_answers_error_and_keeps_serving() {
        /// Panics on Stats, answers Ping — exercises panic containment.
        struct Grenade;
        impl WireService for Grenade {
            fn handle(&self, req: WireRequest) -> WireResponse {
                match req {
                    WireRequest::Ping => WireResponse::Pong,
                    _ => panic!("service blew up"),
                }
            }
        }
        let opts = ServerOptions {
            workers: 2,
            ..ServerOptions::default()
        };
        let mut srv = WireServer::bind("127.0.0.1:0", Arc::new(Grenade), opts).unwrap();
        let addr = srv.local_addr();
        let mut conn = TcpStream::connect(addr).unwrap();
        // The panic becomes an error response on the same connection...
        match call(&mut conn, &WireRequest::Stats).unwrap() {
            WireResponse::Error(e) => assert!(e.contains("service blew up"), "got: {e}"),
            other => panic!("expected error, got {other:?}"),
        }
        // ...and neither the connection nor the worker pool is lost:
        // more panics than workers, then normal service, all succeed.
        for _ in 0..4 {
            assert!(matches!(
                call(&mut conn, &WireRequest::Stats).unwrap(),
                WireResponse::Error(_)
            ));
        }
        assert_eq!(call(&mut conn, &WireRequest::Ping).unwrap(), WireResponse::Pong);
        let mut fresh = TcpStream::connect(addr).unwrap();
        assert_eq!(call(&mut fresh, &WireRequest::Ping).unwrap(), WireResponse::Pong);
        srv.shutdown();
    }

    /// Sleeps on Stats (a stand-in for an expensive query), answers
    /// Ping instantly.
    struct SlowStats(Duration);
    impl WireService for SlowStats {
        fn handle(&self, req: WireRequest) -> WireResponse {
            match req {
                WireRequest::Ping => WireResponse::Pong,
                WireRequest::Stats => {
                    std::thread::sleep(self.0);
                    WireResponse::Stats("done".into())
                }
                other => WireResponse::Error(format!("unsupported: {other:?}")),
            }
        }
    }

    #[test]
    fn silent_connection_cannot_pin_a_worker() {
        // Satellite regression: a client that connects and sends nothing
        // must cost the single worker at most the read timeout.
        let opts = ServerOptions {
            workers: 1,
            read_timeout: Some(Duration::from_millis(100)),
            ..ServerOptions::default()
        };
        let mut srv = WireServer::bind("127.0.0.1:0", Arc::new(PingOnly), opts).unwrap();
        let addr = srv.local_addr();
        let silent = TcpStream::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(30)); // let the worker adopt it
        let started = Instant::now();
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(call(&mut conn, &WireRequest::Ping).unwrap(), WireResponse::Pong);
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "silent connection pinned the worker for {:?}",
            started.elapsed()
        );
        drop(silent);
        srv.shutdown();
    }

    #[test]
    fn full_accept_queue_is_shed_with_busy() {
        // One worker, a queue of one: a slow request occupies the
        // worker, a second connection fills the queue, and the third is
        // answered Busy by the accept thread without any worker's help.
        let opts = ServerOptions {
            workers: 1,
            max_pending: 1,
            ..ServerOptions::default()
        };
        let mut srv = WireServer::bind(
            "127.0.0.1:0",
            Arc::new(SlowStats(Duration::from_millis(600))),
            opts,
        )
        .unwrap();
        let addr = srv.local_addr();
        let mut busy_conn = TcpStream::connect(addr).unwrap();
        write_frame(&mut busy_conn, &WireRequest::Stats.encode(), DEFAULT_MAX_FRAME).unwrap();
        std::thread::sleep(Duration::from_millis(100)); // worker now inside the sleep
        let _queued = TcpStream::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(100)); // accept thread queued it
        let mut shed = TcpStream::connect(addr).unwrap();
        shed.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // The Busy frame arrives without the client sending anything.
        let payload = read_frame(&mut shed, DEFAULT_MAX_FRAME).unwrap().unwrap();
        match WireResponse::decode(&payload).unwrap() {
            WireResponse::Busy { retry_after_ms } => assert!(retry_after_ms > 0),
            other => panic!("expected Busy at the door, got {other:?}"),
        }
        assert!(srv.admission().snapshot().busy_rejections >= 1);
        // The slow request itself was never harmed.
        let payload = read_frame(&mut busy_conn, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(
            WireResponse::decode(&payload).unwrap(),
            WireResponse::Stats("done".into())
        );
        srv.shutdown();
    }

    #[test]
    fn blown_deadline_frees_the_worker_and_reports_it() {
        let opts = ServerOptions {
            workers: 1,
            request_deadline: Some(Duration::from_millis(100)),
            ..ServerOptions::default()
        };
        let mut srv = WireServer::bind(
            "127.0.0.1:0",
            Arc::new(SlowStats(Duration::from_secs(2))),
            opts,
        )
        .unwrap();
        let addr = srv.local_addr();
        let mut conn = TcpStream::connect(addr).unwrap();
        let started = Instant::now();
        assert_eq!(
            call(&mut conn, &WireRequest::Stats).unwrap(),
            WireResponse::DeadlineExceeded { budget_ms: 100 }
        );
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "deadline did not release the worker: {:?}",
            started.elapsed()
        );
        // The (single) worker is free while the runaway still sleeps.
        assert_eq!(call(&mut conn, &WireRequest::Ping).unwrap(), WireResponse::Pong);
        let snap = srv.admission().snapshot();
        assert_eq!(snap.deadline_exceeded, 1);
        srv.shutdown();
    }

    #[test]
    fn in_budget_requests_are_untouched_by_the_deadline() {
        let opts = ServerOptions {
            request_deadline: Some(Duration::from_secs(5)),
            ..ServerOptions::default()
        };
        let mut srv = WireServer::bind(
            "127.0.0.1:0",
            Arc::new(SlowStats(Duration::from_millis(10))),
            opts,
        )
        .unwrap();
        let mut conn = TcpStream::connect(srv.local_addr()).unwrap();
        assert_eq!(
            call(&mut conn, &WireRequest::Stats).unwrap(),
            WireResponse::Stats("done".into())
        );
        assert_eq!(srv.admission().snapshot().deadline_exceeded, 0);
        srv.shutdown();
    }

    #[test]
    fn rate_limited_peer_gets_busy_on_the_open_connection() {
        use netdir_obs::{ManualClock, MetricsRegistry};
        use netdir_server::{AdmissionConfig, RateLimit};
        // A frozen manual clock: the bucket never refills, so outcomes
        // are exact — two admitted, the rest Busy.
        let controller = Arc::new(AdmissionController::new(
            AdmissionConfig {
                rate: Some(RateLimit { per_sec: 1, burst: 2 }),
                ..AdmissionConfig::default()
            },
            Arc::new(ManualClock::new()),
            &MetricsRegistry::new(),
        ));
        let opts = ServerOptions {
            admission: Some(controller.clone()),
            ..ServerOptions::default()
        };
        let mut srv = WireServer::bind("127.0.0.1:0", Arc::new(PingOnly), opts).unwrap();
        let mut conn = TcpStream::connect(srv.local_addr()).unwrap();
        assert_eq!(call(&mut conn, &WireRequest::Ping).unwrap(), WireResponse::Pong);
        assert_eq!(call(&mut conn, &WireRequest::Ping).unwrap(), WireResponse::Pong);
        // Shed requests answer Busy but the connection stays usable.
        for _ in 0..3 {
            match call(&mut conn, &WireRequest::Ping).unwrap() {
                WireResponse::Busy { retry_after_ms } => assert!(retry_after_ms >= 1000),
                other => panic!("expected Busy, got {other:?}"),
            }
        }
        let snap = controller.snapshot();
        assert_eq!(snap.admitted, 2);
        assert_eq!(snap.rate_limited, 3);
        assert_eq!(snap.busy_rejections, 3);
        srv.shutdown();
    }

    #[test]
    fn enumeration_cap_counts_shipped_entries() {
        use netdir_obs::{ManualClock, MetricsRegistry};
        use netdir_server::{AdmissionConfig, EnumCap};
        /// Ships five (fake) entries per request.
        struct FiveEntries;
        impl WireService for FiveEntries {
            fn handle(&self, _req: WireRequest) -> WireResponse {
                WireResponse::Entries(vec![vec![0u8; 8]; 5])
            }
        }
        let controller = Arc::new(AdmissionController::new(
            AdmissionConfig {
                enumeration: Some(EnumCap {
                    max_entries: 9,
                    window: Duration::from_secs(60),
                }),
                ..AdmissionConfig::default()
            },
            Arc::new(ManualClock::new()),
            &MetricsRegistry::new(),
        ));
        let opts = ServerOptions {
            admission: Some(controller.clone()),
            ..ServerOptions::default()
        };
        let mut srv = WireServer::bind("127.0.0.1:0", Arc::new(FiveEntries), opts).unwrap();
        let mut conn = TcpStream::connect(srv.local_addr()).unwrap();
        // 5 entries, then 10 — the second request crosses the cap only
        // after shipping, so it succeeds; the third is shed.
        for _ in 0..2 {
            assert!(matches!(
                call(&mut conn, &WireRequest::Ping).unwrap(),
                WireResponse::Entries(_)
            ));
        }
        assert!(matches!(
            call(&mut conn, &WireRequest::Ping).unwrap(),
            WireResponse::Busy { .. }
        ));
        assert_eq!(controller.snapshot().enum_capped, 1);
        srv.shutdown();
    }

    #[test]
    fn shutdown_drains_the_inflight_request() {
        // Graceful drain: a request being processed when shutdown is
        // requested still gets its full response.
        let mut srv = WireServer::bind(
            "127.0.0.1:0",
            Arc::new(SlowStats(Duration::from_millis(300))),
            ServerOptions::default(),
        )
        .unwrap();
        let mut conn = TcpStream::connect(srv.local_addr()).unwrap();
        write_frame(&mut conn, &WireRequest::Stats.encode(), DEFAULT_MAX_FRAME).unwrap();
        std::thread::sleep(Duration::from_millis(100)); // request is now executing
        srv.shutdown(); // blocks until every thread exits
        let payload = read_frame(&mut conn, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(
            WireResponse::decode(&payload).unwrap(),
            WireResponse::Stats("done".into())
        );
    }

    #[test]
    fn concurrent_connections_are_served_in_parallel() {
        let mut srv =
            WireServer::bind("127.0.0.1:0", Arc::new(PingOnly), ServerOptions::default())
                .unwrap();
        let addr = srv.local_addr();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(move || {
                    let mut conn = TcpStream::connect(addr).unwrap();
                    for _ in 0..20 {
                        assert_eq!(call(&mut conn, &WireRequest::Ping).unwrap(), WireResponse::Pong);
                    }
                });
            }
        });
        srv.shutdown();
    }
}

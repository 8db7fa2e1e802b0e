//! Per-server health tracking: a circuit breaker behind `&self`.
//!
//! Section 3.3's promise — "one unreachable network will not necessarily
//! cut off network directory service" — needs liveness the router can
//! *learn*, not a flag an operator flips by hand. Each server gets a
//! small three-state circuit breaker:
//!
//! ```text
//!            failure (× threshold)
//!   Closed ──────────────────────────▶ Open
//!     ▲  ▲                              │ cooldown elapses
//!     │  └── success ── HalfOpen ◀──────┘
//!     │                    │
//!     └────────────────────┘ failure → Open (cooldown re-arms)
//! ```
//!
//! * **Closed** — healthy; consecutive failures are counted, a success
//!   resets the count.
//! * **Open** — tripped after `failure_threshold` consecutive failures;
//!   routing skips the server entirely (no connection attempts) until
//!   `cooldown` elapses.
//! * **HalfOpen** — the cooldown expired; the server is offered probe
//!   traffic again. The first success closes the breaker, the first
//!   failure re-opens it and re-arms the cooldown.
//!
//! Everything is interior-mutable (an `AtomicBool` plus one small mutex
//! per server), so the router's query path stays `&self` and concurrent
//! clients share one view of cluster health. A separate **forced-down**
//! flag is the operator's switch: a forced-down server is unavailable
//! regardless of breaker state and never recovers on its own.
//!
//! Time comes from an injected [`Clock`] — monotonic in production,
//! manually advanced in tests — so cooldown behaviour is testable
//! without sleeping. Every state transition is counted
//! ([`HealthTracker::transitions`]) for the metrics registry.

use crate::delegation::ServerId;
use netdir_obs::{Clock, MonotonicClock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Tuning for the per-server circuit breakers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip a Closed breaker to Open.
    pub failure_threshold: u32,
    /// How long an Open breaker rejects traffic before offering a
    /// half-open probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_secs(5),
        }
    }
}

/// Observable breaker state (for tests, logs, and experiment tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy, serving traffic.
    Closed,
    /// Tripped, rejecting traffic until the cooldown expires.
    Open,
    /// Cooldown expired, accepting probe traffic.
    HalfOpen,
}

/// Cumulative counts of breaker state transitions across all servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BreakerTransitions {
    /// Trips into Open (Closed→Open and re-opened HalfOpen→Open).
    pub opened: u64,
    /// Probes admitted, Open→HalfOpen.
    pub half_opened: u64,
    /// Recoveries, Open/HalfOpen→Closed.
    pub closed: u64,
}

enum State {
    Closed {
        failures: u32,
    },
    /// Open since the clock read `since` (a reading of the tracker's
    /// own [`Clock`], not wall time).
    Open {
        since: Duration,
    },
    HalfOpen,
}

struct ServerHealth {
    forced_down: AtomicBool,
    state: Mutex<State>,
}

impl ServerHealth {
    fn new() -> ServerHealth {
        ServerHealth {
            forced_down: AtomicBool::new(false),
            state: Mutex::new(State::Closed { failures: 0 }),
        }
    }
}

/// Health of every server in a cluster, indexed by [`ServerId`].
pub struct HealthTracker {
    cfg: BreakerConfig,
    clock: Arc<dyn Clock>,
    servers: Vec<ServerHealth>,
    opened: AtomicU64,
    half_opened: AtomicU64,
    closed: AtomicU64,
}

impl HealthTracker {
    /// Track `n` servers, all initially healthy, on monotonic time.
    pub fn new(n: usize, cfg: BreakerConfig) -> HealthTracker {
        HealthTracker::with_clock(n, cfg, Arc::new(MonotonicClock::new()))
    }

    /// Track `n` servers on an explicit [`Clock`] (tests inject a
    /// manually-advanced one).
    pub fn with_clock(n: usize, cfg: BreakerConfig, clock: Arc<dyn Clock>) -> HealthTracker {
        HealthTracker {
            cfg,
            clock,
            servers: (0..n).map(|_| ServerHealth::new()).collect(),
            opened: AtomicU64::new(0),
            half_opened: AtomicU64::new(0),
            closed: AtomicU64::new(0),
        }
    }

    /// Number of tracked servers.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// True iff no servers are tracked.
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// The breaker configuration.
    pub fn config(&self) -> &BreakerConfig {
        &self.cfg
    }

    /// Cumulative transition counts across every tracked server.
    pub fn transitions(&self) -> BreakerTransitions {
        BreakerTransitions {
            opened: self.opened.load(Ordering::Relaxed),
            half_opened: self.half_opened.load(Ordering::Relaxed),
            closed: self.closed.load(Ordering::Relaxed),
        }
    }

    /// May traffic be routed to `id` right now? An Open breaker whose
    /// cooldown has expired transitions to HalfOpen here (this is the
    /// probe admission point). Unknown ids are unavailable.
    pub fn available(&self, id: ServerId) -> bool {
        let Some(s) = self.servers.get(id) else {
            return false;
        };
        if s.forced_down.load(Ordering::SeqCst) {
            return false;
        }
        let mut state = s.state.lock().unwrap_or_else(|e| e.into_inner());
        match &*state {
            State::Closed { .. } | State::HalfOpen => true,
            State::Open { since } => {
                if self.clock.now().saturating_sub(*since) >= self.cfg.cooldown {
                    *state = State::HalfOpen;
                    self.half_opened.fetch_add(1, Ordering::Relaxed);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Record a successful exchange with `id`: closes the breaker and
    /// clears the failure count.
    pub fn record_success(&self, id: ServerId) {
        if let Some(s) = self.servers.get(id) {
            let mut state = s.state.lock().unwrap_or_else(|e| e.into_inner());
            if !matches!(&*state, State::Closed { .. }) {
                self.closed.fetch_add(1, Ordering::Relaxed);
            }
            *state = State::Closed { failures: 0 };
        }
    }

    /// Record a failed exchange with `id`: counts toward the trip
    /// threshold; a HalfOpen probe failure re-opens immediately.
    pub fn record_failure(&self, id: ServerId) {
        let Some(s) = self.servers.get(id) else { return };
        let mut state = s.state.lock().unwrap_or_else(|e| e.into_inner());
        *state = match &*state {
            State::Closed { failures } => {
                let failures = failures + 1;
                if failures >= self.cfg.failure_threshold.max(1) {
                    self.opened.fetch_add(1, Ordering::Relaxed);
                    State::Open { since: self.clock.now() }
                } else {
                    State::Closed { failures }
                }
            }
            // A failed probe re-arms the cooldown from now and counts
            // as a fresh trip; a straggler failure racing the trip just
            // pushes the cooldown out.
            State::HalfOpen => {
                self.opened.fetch_add(1, Ordering::Relaxed);
                State::Open { since: self.clock.now() }
            }
            State::Open { .. } => State::Open { since: self.clock.now() },
        };
    }

    /// Operator-forced outage: unavailable regardless of breaker state,
    /// until forced back up — the §3.3 "simulated outage" switch.
    pub fn force_down(&self, id: ServerId, down: bool) {
        if let Some(s) = self.servers.get(id) {
            s.forced_down.store(down, Ordering::SeqCst);
        }
    }

    /// Is the server operator-forced down?
    pub fn is_forced_down(&self, id: ServerId) -> bool {
        self.servers
            .get(id)
            .is_some_and(|s| s.forced_down.load(Ordering::SeqCst))
    }

    /// The server's breaker state, without admitting a probe (an Open
    /// breaker past its cooldown still reads Open until
    /// [`HealthTracker::available`] admits the probe).
    pub fn state(&self, id: ServerId) -> BreakerState {
        match self.servers.get(id).map(|s| {
            let state = s.state.lock().unwrap_or_else(|e| e.into_inner());
            match &*state {
                State::Closed { .. } => BreakerState::Closed,
                State::Open { .. } => BreakerState::Open,
                State::HalfOpen => BreakerState::HalfOpen,
            }
        }) {
            Some(st) => st,
            None => BreakerState::Open,
        }
    }

    /// Consecutive failures recorded while Closed (0 in other states).
    pub fn consecutive_failures(&self, id: ServerId) -> u32 {
        self.servers
            .get(id)
            .map(|s| {
                let state = s.state.lock().unwrap_or_else(|e| e.into_inner());
                match &*state {
                    State::Closed { failures } => *failures,
                    _ => 0,
                }
            })
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdir_obs::ManualClock;

    fn tracker(threshold: u32, cooldown_ms: u64) -> (HealthTracker, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let h = HealthTracker::with_clock(
            2,
            BreakerConfig {
                failure_threshold: threshold,
                cooldown: Duration::from_millis(cooldown_ms),
            },
            clock.clone(),
        );
        (h, clock)
    }

    #[test]
    fn trips_after_consecutive_failures_only() {
        let (h, _clock) = tracker(3, 60_000);
        h.record_failure(0);
        h.record_failure(0);
        assert!(h.available(0));
        assert_eq!(h.consecutive_failures(0), 2);
        h.record_success(0); // streak broken
        h.record_failure(0);
        h.record_failure(0);
        assert!(h.available(0), "streak must reset on success");
        h.record_failure(0);
        assert!(!h.available(0), "third consecutive failure trips");
        assert_eq!(h.state(0), BreakerState::Open);
        // The other server is unaffected.
        assert!(h.available(1));
    }

    #[test]
    fn half_open_probe_after_cooldown_then_close_or_reopen() {
        let (h, clock) = tracker(1, 20);
        h.record_failure(0);
        assert!(!h.available(0));
        clock.advance(Duration::from_millis(30));
        // Cooldown expired: probe admitted.
        assert!(h.available(0));
        assert_eq!(h.state(0), BreakerState::HalfOpen);
        // Probe fails → straight back to Open, cooldown re-armed.
        h.record_failure(0);
        assert!(!h.available(0));
        clock.advance(Duration::from_millis(30));
        assert!(h.available(0));
        // Probe succeeds → Closed.
        h.record_success(0);
        assert_eq!(h.state(0), BreakerState::Closed);
        assert!(h.available(0));
    }

    #[test]
    fn full_open_half_open_closed_cycle_is_deterministic() {
        // The canonical recovery arc at exact cooldown boundaries — no
        // wall clock anywhere, so this cannot flake under load.
        let (h, clock) = tracker(2, 1_000);
        h.record_failure(0);
        h.record_failure(0);
        assert_eq!(h.state(0), BreakerState::Open);
        assert!(!h.available(0));

        // One tick *before* the cooldown boundary: still Open.
        clock.advance(Duration::from_millis(999));
        assert!(!h.available(0), "cooldown must not expire early");
        assert_eq!(h.state(0), BreakerState::Open);

        // Exactly at the boundary: the probe is admitted.
        clock.advance(Duration::from_millis(1));
        assert!(h.available(0));
        assert_eq!(h.state(0), BreakerState::HalfOpen);

        // Probe succeeds: Closed, failure streak cleared.
        h.record_success(0);
        assert_eq!(h.state(0), BreakerState::Closed);
        assert_eq!(h.consecutive_failures(0), 0);
        assert!(h.available(0));

        // And the whole arc is visible in the transition counters.
        assert_eq!(
            h.transitions(),
            BreakerTransitions {
                opened: 1,
                half_opened: 1,
                closed: 1,
            }
        );
    }

    #[test]
    fn reopened_probe_failure_rearms_the_cooldown_from_now() {
        let (h, clock) = tracker(1, 100);
        h.record_failure(0);
        clock.advance(Duration::from_millis(100));
        assert!(h.available(0)); // HalfOpen
        clock.advance(Duration::from_millis(60));
        h.record_failure(0); // probe fails at t=160: cooldown re-arms
        clock.advance(Duration::from_millis(99));
        assert!(!h.available(0), "re-armed cooldown runs from the probe failure");
        clock.advance(Duration::from_millis(1));
        assert!(h.available(0));
        assert_eq!(
            h.transitions(),
            BreakerTransitions {
                opened: 2,
                half_opened: 2,
                closed: 0,
            }
        );
    }

    #[test]
    fn forced_down_overrides_breaker_and_never_self_heals() {
        let (h, clock) = tracker(3, 1);
        h.force_down(0, true);
        assert!(!h.available(0));
        assert!(h.is_forced_down(0));
        clock.advance(Duration::from_millis(5));
        assert!(!h.available(0), "forced outage must not cool down");
        h.record_success(0);
        assert!(!h.available(0), "successes do not lift a forced outage");
        h.force_down(0, false);
        assert!(h.available(0));
    }

    #[test]
    fn unknown_ids_are_unavailable_and_harmless() {
        let (h, _clock) = tracker(1, 1);
        assert!(!h.available(99));
        h.record_failure(99);
        h.record_success(99);
        h.force_down(99, true);
        assert_eq!(h.state(99), BreakerState::Open);
    }
}

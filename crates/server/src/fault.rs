//! Deterministic, seedable fault injection for chaos testing.
//!
//! [`FaultTransport`] wraps any [`Transport`] and perturbs its traffic
//! according to a [`FaultConfig`]: dropped requests, injected remote
//! errors, added latency, payload truncation, and per-server
//! unreachability. Every decision is a pure function of the config seed
//! and the decorator's own call counter — **never** of wall-clock time
//! or a global RNG — so a chaos test that drives the transport from one
//! thread replays bit-identically: same faults on the same calls, same
//! retry counts, same partial-result sets, on every run.
//!
//! Draw discipline: each call consumes exactly four deterministic draws
//! (unreachable, drop, error, delay) whether or not the corresponding
//! rate is zero, so enabling one fault class never shifts the random
//! sequence seen by another.

use crate::delegation::ServerId;
use crate::net::NetStats;
use crate::retry::splitmix64;
use crate::transport::{AtomicResponse, Transport, TransportError, TransportResult};
use netdir_filter::{AtomicFilter, Scope};
use netdir_model::Dn;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What to inject, and how often. All rates are probabilities in
/// `[0, 1]`; the default injects nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultConfig {
    /// Seed for all fault draws.
    pub seed: u64,
    /// Probability a request is lost before reaching the server
    /// (surfaces as a retryable [`TransportErrorKind::Injected`] error).
    ///
    /// [`TransportErrorKind::Injected`]: crate::TransportErrorKind::Injected
    pub drop_rate: f64,
    /// Probability the response is replaced with a **fatal** remote
    /// error (the server "executed and failed").
    pub error_rate: f64,
    /// Probability a call is delayed by [`FaultConfig::delay`].
    pub delay_rate: f64,
    /// Latency added to delayed calls.
    pub delay: Duration,
    /// Truncate the payload of call number N (0-based, counted across
    /// all servers): the last encoded entry loses half its bytes, so the
    /// caller's decode fails — a corrupt-response fault.
    pub truncate_nth: Option<u64>,
    /// Per-server unreachability rates: `(server, rate)` makes calls to
    /// `server` fail (retryably) with that probability. A rate of 1.0 is
    /// a hard outage, which is what drives a circuit breaker open.
    pub server_fail: Vec<(ServerId, f64)>,
}

impl FaultConfig {
    /// A config injecting nothing, with the given seed.
    pub fn seeded(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            ..FaultConfig::default()
        }
    }

    /// Set the request-drop rate.
    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        self.drop_rate = rate;
        self
    }

    /// Set the fatal-error rate.
    pub fn with_error_rate(mut self, rate: f64) -> Self {
        self.error_rate = rate;
        self
    }

    /// Delay a fraction of calls by `delay`.
    pub fn with_delay(mut self, rate: f64, delay: Duration) -> Self {
        self.delay_rate = rate;
        self.delay = delay;
        self
    }

    /// Truncate call number `n`'s payload.
    pub fn with_truncate_nth(mut self, n: u64) -> Self {
        self.truncate_nth = Some(n);
        self
    }

    /// Make calls to `server` fail with probability `rate`.
    pub fn with_server_fail(mut self, server: ServerId, rate: f64) -> Self {
        self.server_fail.push((server, rate));
        self
    }
}

/// Shared injection counters (cloneable handle, like
/// [`NetStats`]): what the decorator actually did.
#[derive(Clone, Default)]
pub struct FaultStats {
    inner: Arc<FaultCounters>,
}

#[derive(Default)]
struct FaultCounters {
    calls: AtomicU64,
    dropped: AtomicU64,
    errored: AtomicU64,
    delayed: AtomicU64,
    truncated: AtomicU64,
    unreachable: AtomicU64,
}

/// Point-in-time copy of [`FaultStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSnapshot {
    /// Calls that reached the decorator.
    pub calls: u64,
    /// Requests dropped (retryable).
    pub dropped: u64,
    /// Responses replaced with fatal remote errors.
    pub errored: u64,
    /// Calls delayed.
    pub delayed: u64,
    /// Payloads truncated.
    pub truncated: u64,
    /// Calls failed by per-server unreachability.
    pub unreachable: u64,
}

impl std::fmt::Display for FaultSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} calls: {} dropped, {} errored, {} delayed, {} truncated, {} unreachable",
            self.calls, self.dropped, self.errored, self.delayed, self.truncated, self.unreachable
        )
    }
}

impl FaultStats {
    /// Copy the counters.
    pub fn snapshot(&self) -> FaultSnapshot {
        FaultSnapshot {
            calls: self.inner.calls.load(Ordering::Relaxed),
            dropped: self.inner.dropped.load(Ordering::Relaxed),
            errored: self.inner.errored.load(Ordering::Relaxed),
            delayed: self.inner.delayed.load(Ordering::Relaxed),
            truncated: self.inner.truncated.load(Ordering::Relaxed),
            unreachable: self.inner.unreachable.load(Ordering::Relaxed),
        }
    }
}

/// A [`Transport`] decorator injecting deterministic faults.
pub struct FaultTransport {
    inner: Box<dyn Transport>,
    cfg: FaultConfig,
    calls: AtomicU64,
    stats: FaultStats,
}

/// Map one deterministic draw to `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultTransport {
    /// Wrap `inner` with the faults of `cfg`.
    pub fn new(inner: Box<dyn Transport>, cfg: FaultConfig) -> FaultTransport {
        FaultTransport {
            inner,
            cfg,
            calls: AtomicU64::new(0),
            stats: FaultStats::default(),
        }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &dyn Transport {
        self.inner.as_ref()
    }

    /// The active fault configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }
}

impl Transport for FaultTransport {
    fn atomic(
        &self,
        target: ServerId,
        home: ServerId,
        base: &Dn,
        scope: Scope,
        filter: &AtomicFilter,
    ) -> TransportResult<AtomicResponse> {
        let n = self.calls.fetch_add(1, Ordering::SeqCst);
        self.stats.inner.calls.fetch_add(1, Ordering::Relaxed);
        // Four draws per call, in fixed order (see module docs).
        let root = splitmix64(self.cfg.seed ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let draw = |lane: u64| unit(splitmix64(root ^ lane));

        let server_rate = self
            .cfg
            .server_fail
            .iter()
            .find(|(id, _)| *id == target)
            .map(|(_, rate)| *rate)
            .unwrap_or(0.0);
        if draw(1) < server_rate {
            self.stats.inner.unreachable.fetch_add(1, Ordering::Relaxed);
            return Err(TransportError::injected(format!(
                "server {target} unreachable (injected, call {n})"
            )));
        }
        if draw(2) < self.cfg.drop_rate {
            self.stats.inner.dropped.fetch_add(1, Ordering::Relaxed);
            return Err(TransportError::injected(format!(
                "request to server {target} dropped (injected, call {n})"
            )));
        }
        if draw(3) < self.cfg.error_rate {
            self.stats.inner.errored.fetch_add(1, Ordering::Relaxed);
            return Err(TransportError::remote(format!(
                "server {target} failed the request (injected, call {n})"
            )));
        }
        if draw(4) < self.cfg.delay_rate && !self.cfg.delay.is_zero() {
            self.stats.inner.delayed.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.cfg.delay);
        }

        let mut resp = self.inner.atomic(target, home, base, scope, filter)?;
        if self.cfg.truncate_nth == Some(n) {
            if let Some(last) = resp.entries.last_mut() {
                last.image.truncate(last.image.len() / 2);
                self.stats.inner.truncated.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(resp)
    }

    fn net(&self) -> &NetStats {
        self.inner.net()
    }

    fn num_servers(&self) -> usize {
        self.inner.num_servers()
    }

    fn faults(&self) -> Option<&FaultStats> {
        Some(&self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{ServerConfig, ZoneStore};
    use crate::transport::LocalTransport;
    use crate::TransportErrorKind;
    use netdir_model::Entry;

    fn dn(s: &str) -> Dn {
        Dn::parse(s).unwrap()
    }

    fn wrapped(cfg: FaultConfig) -> FaultTransport {
        let mk = |s: &str| {
            Entry::builder(dn(s))
                .class("thing")
                .attr("surName", "jagadish")
                .build()
                .unwrap()
        };
        let stores = vec![
            ZoneStore::new(
                ServerConfig::new("a", dn("dc=a")),
                vec![mk("dc=a"), mk("ou=p, dc=a")],
            ),
            ZoneStore::new(ServerConfig::new("b", dn("dc=b")), vec![mk("dc=b")]),
        ];
        let inner = LocalTransport::new(Arc::from(stores));
        FaultTransport::new(Box::new(inner), cfg)
    }

    fn run_calls(t: &FaultTransport, n: usize) -> Vec<Result<usize, TransportError>> {
        (0..n)
            .map(|_| {
                t.atomic(0, 1, &dn("dc=a"), Scope::Sub, &AtomicFilter::present("surName"))
                    .map(|r| r.entries.len())
            })
            .collect()
    }

    #[test]
    fn zero_config_is_transparent() {
        let t = wrapped(FaultConfig::seeded(1));
        for r in run_calls(&t, 5) {
            assert_eq!(r.unwrap(), 2);
        }
        let s = t.faults().unwrap().snapshot();
        assert_eq!(s.calls, 5);
        assert_eq!(
            (s.dropped, s.errored, s.delayed, s.truncated, s.unreachable),
            (0, 0, 0, 0, 0)
        );
    }

    #[test]
    fn same_seed_replays_bit_identically() {
        let cfg = FaultConfig::seeded(42)
            .with_drop_rate(0.3)
            .with_error_rate(0.1)
            .with_server_fail(0, 0.2);
        let t1 = wrapped(cfg.clone());
        let t2 = wrapped(cfg);
        let a = run_calls(&t1, 50);
        let b = run_calls(&t2, 50);
        assert_eq!(a, b, "fault schedule must be a pure function of seed+index");
        assert_eq!(t1.faults().unwrap().snapshot(), t2.faults().unwrap().snapshot());
        // And with a different seed the schedule differs.
        let t3 = wrapped(
            FaultConfig::seeded(43)
                .with_drop_rate(0.3)
                .with_error_rate(0.1)
                .with_server_fail(0, 0.2),
        );
        assert_ne!(a, run_calls(&t3, 50));
    }

    #[test]
    fn fault_kinds_classify_correctly() {
        // Hard per-server outage → retryable injected error.
        let t = wrapped(FaultConfig::seeded(7).with_server_fail(0, 1.0));
        let err = run_calls(&t, 1).pop().unwrap().unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::Injected);
        assert!(err.kind.is_retryable());
        // But only for the targeted server.
        assert!(t
            .atomic(1, 0, &dn("dc=b"), Scope::Sub, &AtomicFilter::True)
            .is_ok());

        // Certain error rate → fatal remote error.
        let t = wrapped(FaultConfig::seeded(7).with_error_rate(1.0));
        let err = run_calls(&t, 1).pop().unwrap().unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::Remote);
        assert!(!err.kind.is_retryable());
    }

    #[test]
    fn truncate_nth_corrupts_exactly_one_call() {
        let t = wrapped(FaultConfig::seeded(9).with_truncate_nth(1));
        let ok = t
            .atomic(0, 1, &dn("dc=a"), Scope::Sub, &AtomicFilter::True)
            .unwrap();
        let full_len = ok.entries.last().unwrap().image.len();
        let corrupt = t
            .atomic(0, 1, &dn("dc=a"), Scope::Sub, &AtomicFilter::True)
            .unwrap();
        assert_eq!(corrupt.entries.last().unwrap().image.len(), full_len / 2);
        assert!(
            crate::node::decode_entries(&crate::node::images(corrupt.entries)).is_err(),
            "truncated payload must fail to decode"
        );
        let again = t
            .atomic(0, 1, &dn("dc=a"), Scope::Sub, &AtomicFilter::True)
            .unwrap();
        assert_eq!(again.entries.last().unwrap().image.len(), full_len);
        assert_eq!(t.faults().unwrap().snapshot().truncated, 1);
    }

    #[test]
    fn counters_pass_through_to_inner_transport() {
        let t = wrapped(FaultConfig::seeded(3));
        t.atomic(1, 0, &dn("dc=b"), Scope::Sub, &AtomicFilter::True)
            .unwrap();
        assert_eq!(t.net().snapshot().requests, 1);
        assert_eq!(t.num_servers(), 2);
    }
}

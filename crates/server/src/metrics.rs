//! The bridge from per-subsystem counters to one [`MetricsRegistry`].
//!
//! Every subsystem keeps its own cheap cumulative counters ([`IoStats`],
//! [`NetStats`], [`RetryStats`], [`FaultStats`], breaker transition
//! counts). This module projects their snapshots onto the stable metric
//! names of [`netdir_obs::names`], so one registry — and one
//! Prometheus-style exposition — covers the whole stack. Sync functions
//! *set* cumulative values (idempotent: re-syncing the same snapshot is
//! a no-op), so callers can refresh the registry on every scrape.
//!
//! [`IoStats`]: netdir_pager::IoStats
//! [`NetStats`]: crate::net::NetStats
//! [`RetryStats`]: crate::retry::RetryStats
//! [`FaultStats`]: crate::fault::FaultStats

use crate::fault::FaultSnapshot;
use crate::health::BreakerTransitions;
use crate::net::NetSnapshot;
use crate::retry::RetrySnapshot;
use netdir_obs::{names, MetricsRegistry};
use netdir_pager::{IoSnapshot, PoolMetricsSnapshot};

/// Pre-register every tracked metric so the exposition shows explicit
/// zeros before the first sync (absent and zero are different claims).
pub fn register_all(reg: &MetricsRegistry) {
    for &name in names::TRACKED {
        match name {
            names::QUERY_DURATION_US
            | names::QUERY_PAGES
            | names::WAL_REPLAY_US
            | names::DEADLINE_USED_US => {
                reg.histogram(name);
            }
            names::ADMISSION_INFLIGHT
            | names::ADMISSION_QUEUE_DEPTH
            | names::DELTA_ENTRIES
            | names::DEADLINE_ABANDONED => {
                reg.gauge(name);
            }
            _ => {
                reg.counter(name);
            }
        }
    }
}

/// Accumulate a per-query I/O *delta* into the cumulative counters.
///
/// For callers that evaluate each query on a fresh scratch pager (wire
/// daemons): there is no long-lived cumulative `IoStats` to project,
/// so each query's ledger is added instead.
pub fn absorb_io(reg: &MetricsRegistry, io: IoSnapshot) {
    reg.counter(names::IO_READS).add(io.reads);
    reg.counter(names::IO_WRITES).add(io.writes);
    reg.counter(names::IO_ALLOCS).add(io.allocs);
}

/// Accumulate a per-query pool-behavior *delta* into the cumulative
/// counters — the buffer-pool counterpart of [`absorb_io`].
pub fn absorb_pool(reg: &MetricsRegistry, pool: PoolMetricsSnapshot) {
    reg.counter(names::POOL_HITS).add(pool.hits);
    reg.counter(names::POOL_MISSES).add(pool.misses);
    reg.counter(names::POOL_EVICTIONS).add(pool.evictions);
    reg.counter(names::POOL_GHOST_READMISSIONS)
        .add(pool.ghost_readmissions);
    reg.counter(names::POOL_COMPRESSED_BYTES_SAVED)
        .add(pool.compressed_bytes_saved);
}

/// Project a cumulative network-shipping snapshot onto the registry.
pub fn sync_net(reg: &MetricsRegistry, net: NetSnapshot) {
    reg.counter(names::NET_REQUESTS).set(net.requests);
    reg.counter(names::NET_RESPONSES).set(net.responses);
    reg.counter(names::NET_ENTRIES_SHIPPED).set(net.entries_shipped);
    reg.counter(names::NET_BYTES_SHIPPED).set(net.bytes_shipped);
}

/// Project a cumulative retry-effort snapshot onto the registry.
pub fn sync_retry(reg: &MetricsRegistry, retry: RetrySnapshot) {
    reg.counter(names::RETRY_ATTEMPTS).set(retry.attempts);
    reg.counter(names::RETRY_RETRIES).set(retry.retries);
    reg.counter(names::RETRY_GAVE_UP).set(retry.gave_up);
}

/// Project a cumulative fault-injection snapshot onto the registry.
pub fn sync_fault(reg: &MetricsRegistry, fault: FaultSnapshot) {
    reg.counter(names::FAULT_CALLS).set(fault.calls);
    reg.counter(names::FAULT_DROPPED).set(fault.dropped);
    reg.counter(names::FAULT_ERRORED).set(fault.errored);
    reg.counter(names::FAULT_DELAYED).set(fault.delayed);
    reg.counter(names::FAULT_TRUNCATED).set(fault.truncated);
    reg.counter(names::FAULT_UNREACHABLE).set(fault.unreachable);
}

/// Project cumulative circuit-breaker transition counts onto the
/// registry.
pub fn sync_health(reg: &MetricsRegistry, t: BreakerTransitions) {
    reg.counter(names::BREAKER_OPENED).set(t.opened);
    reg.counter(names::BREAKER_HALF_OPENED).set(t.half_opened);
    reg.counter(names::BREAKER_CLOSED).set(t.closed);
}

/// Record one completed query: bumps the query counter and feeds the
/// duration/pages histograms.
pub fn record_query(reg: &MetricsRegistry, elapsed_nanos: u64, pages: u64) {
    reg.counter(names::QUERIES).inc();
    reg.histogram(names::QUERY_DURATION_US)
        .observe(elapsed_nanos / 1_000);
    reg.histogram(names::QUERY_PAGES).observe(pages);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_all_exposes_every_tracked_name() {
        let reg = MetricsRegistry::default();
        register_all(&reg);
        let text = reg.render_prometheus();
        for name in names::TRACKED {
            assert!(text.contains(name), "exposition missing {name}");
        }
    }

    #[test]
    fn syncs_are_idempotent_and_cumulative() {
        let reg = MetricsRegistry::default();
        let net = NetSnapshot {
            requests: 3,
            responses: 3,
            entries_shipped: 40,
            bytes_shipped: 4096,
        };
        sync_net(&reg, net);
        sync_net(&reg, net); // re-sync must not double-count
        assert_eq!(reg.counter(names::NET_REQUESTS).get(), 3);
        assert_eq!(reg.counter(names::NET_BYTES_SHIPPED).get(), 4096);
        sync_health(
            &reg,
            BreakerTransitions {
                opened: 2,
                half_opened: 1,
                closed: 1,
            },
        );
        assert_eq!(reg.counter(names::BREAKER_OPENED).get(), 2);
    }

    #[test]
    fn absorb_pool_accumulates() {
        let reg = MetricsRegistry::default();
        let snap = PoolMetricsSnapshot {
            hits: 10,
            misses: 4,
            evictions: 2,
            ghost_readmissions: 1,
            compressed_bytes_saved: 512,
        };
        absorb_pool(&reg, snap);
        assert_eq!(reg.counter(names::POOL_HITS).get(), 10);
        assert_eq!(reg.counter(names::POOL_GHOST_READMISSIONS).get(), 1);
        absorb_pool(&reg, snap); // each delta adds
        assert_eq!(reg.counter(names::POOL_HITS).get(), 20);
        assert_eq!(reg.counter(names::POOL_COMPRESSED_BYTES_SAVED).get(), 1024);
    }

    #[test]
    fn record_query_feeds_counter_and_histograms() {
        let reg = MetricsRegistry::default();
        record_query(&reg, 2_500_000, 17); // 2.5ms
        record_query(&reg, 900, 1); // 0.9µs rounds to 0
        assert_eq!(reg.counter(names::QUERIES).get(), 2);
        let d = reg.histogram(names::QUERY_DURATION_US).snapshot();
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 2_500);
        let p = reg.histogram(names::QUERY_PAGES).snapshot();
        assert_eq!(p.sum, 18);
    }
}

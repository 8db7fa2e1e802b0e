//! A small metrics registry: named counters, gauges, and log-scale
//! histograms with Prometheus-style text exposition.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`
//! clones around atomics — the registry lock is taken only on first
//! lookup of a name, never on the record path. Callers cache a handle
//! once and then update it from any thread.
//!
//! Histograms use fixed power-of-two buckets (1, 2, 4, …), so two
//! registries always agree on bucket boundaries and exported series are
//! comparable across runs without configuration.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of finite histogram buckets; bucket `i` has upper bound
/// `2^i`. Values above the last finite bound land in `+Inf`. With 40
/// buckets the finite range spans `2^39` (~5.5e11), enough for page
/// counts, entry counts, and microsecond latencies alike.
const BUCKETS: usize = 40;

/// A monotonically growing count.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite with a cumulative value maintained elsewhere.
    ///
    /// For bridging pre-existing cumulative stat types (`IoStats`,
    /// `NetStats`, …) whose counters already only grow: syncing their
    /// snapshot into the registry keeps the exported series monotone
    /// without double counting.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can move both ways (pool occupancy, live connections).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the current value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Shared state behind a [`Histogram`] handle.
#[derive(Debug)]
struct HistogramCore {
    /// Per-bucket observation counts (not cumulative).
    buckets: [AtomicU64; BUCKETS],
    /// Observations above the last finite bound (`+Inf` bucket).
    overflow: AtomicU64,
    /// Sum of all observed values.
    sum: AtomicU64,
    /// Total number of observations.
    count: AtomicU64,
}

impl HistogramCore {
    fn new() -> HistogramCore {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            overflow: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// A fixed log-scale histogram of `u64` observations.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

/// Index of the smallest power-of-two bucket whose upper bound holds
/// `v`: 0 and 1 → bucket 0 (le=1), 2 → bucket 1 (le=2), 3..=4 →
/// bucket 2 (le=4), and so on.
fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        64 - (v - 1).leading_zeros() as usize
    }
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let idx = bucket_index(v);
        if idx < BUCKETS {
            self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        } else {
            self.0.overflow.fetch_add(1, Ordering::Relaxed);
        }
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut cumulative = Vec::with_capacity(BUCKETS);
        let mut running = 0u64;
        for (i, bucket) in self.0.buckets.iter().enumerate() {
            running += bucket.load(Ordering::Relaxed);
            cumulative.push((1u64 << i, running));
        }
        HistogramSnapshot {
            buckets: cumulative,
            sum: self.0.sum.load(Ordering::Relaxed),
            count: self.0.count.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time view of a [`Histogram`].
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// `(upper_bound, cumulative_count)` per finite bucket, ascending.
    pub buckets: Vec<(u64, u64)>,
    /// Sum of all observations.
    pub sum: u64,
    /// Number of observations (the `+Inf` cumulative count).
    pub count: u64,
}

/// Registry interior: name → live metric, one map per kind.
#[derive(Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
}

/// A process-local registry of named metrics.
///
/// Clones share the same interior, so any layer can hold its own copy
/// and all series meet in one exposition.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.counters.lock();
        let cell = map.entry(name.to_string()).or_default();
        Counter(cell.clone())
    }

    /// The gauge named `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.inner.gauges.lock();
        let cell = map.entry(name.to_string()).or_default();
        Gauge(cell.clone())
    }

    /// The histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.inner.histograms.lock();
        let core = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(HistogramCore::new()));
        Histogram(core.clone())
    }

    /// Names of every registered metric, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .inner
            .counters
            .lock()
            .keys()
            .chain(self.inner.gauges.lock().keys())
            .chain(self.inner.histograms.lock().keys())
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Prometheus text exposition (`# TYPE` lines, cumulative
    /// `_bucket{le=…}` series, `_sum`, `_count`).
    ///
    /// Empty histogram buckets above the highest observation are
    /// elided (only `+Inf` closes the series), keeping the output
    /// readable while staying cumulative-correct.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, cell) in self.inner.counters.lock().iter() {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {}", cell.load(Ordering::Relaxed));
        }
        for (name, cell) in self.inner.gauges.lock().iter() {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {}", cell.load(Ordering::Relaxed));
        }
        for (name, core) in self.inner.histograms.lock().iter() {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let count = core.count.load(Ordering::Relaxed);
            let mut running = 0u64;
            for (i, bucket) in core.buckets.iter().enumerate() {
                running += bucket.load(Ordering::Relaxed);
                let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {running}", 1u64 << i);
                if running == count {
                    break;
                }
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {count}");
            let _ = writeln!(out, "{name}_sum {}", core.sum.load(Ordering::Relaxed));
            let _ = writeln!(out, "{name}_count {count}");
        }
        out
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("names", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_state_across_handles_and_clones() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("requests_total");
        let b = reg.clone().counter("requests_total");
        a.inc();
        b.add(4);
        assert_eq!(reg.counter("requests_total").get(), 5);
    }

    #[test]
    fn counter_set_bridges_external_cumulative_stats() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("io_reads_total");
        c.set(17);
        c.set(42);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauges_move_both_ways() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("pool_resident_pages");
        g.set(9);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn bucket_index_is_the_smallest_power_of_two_upper_bound() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(1025), 11);
    }

    #[test]
    fn histogram_snapshot_is_cumulative() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("latency_us");
        for v in [1, 1, 2, 5, 1000] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1009);
        // le=1 holds the two 1s; le=2 adds the 2; le=8 adds the 5.
        assert_eq!(snap.buckets[0], (1, 2));
        assert_eq!(snap.buckets[1], (2, 3));
        assert_eq!(snap.buckets[3], (8, 4));
        // le=1024 holds everything.
        assert_eq!(snap.buckets[10], (1024, 5));
    }

    #[test]
    fn huge_observations_land_in_overflow_but_keep_count_and_sum() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("h");
        h.observe(u64::MAX / 2);
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        // No finite bucket saw it.
        assert!(snap.buckets.iter().all(|&(_, c)| c == 0));
        let text = reg.render_prometheus();
        assert!(text.contains("h_bucket{le=\"+Inf\"} 1"));
    }

    #[test]
    fn prometheus_rendering_has_types_buckets_and_totals() {
        let reg = MetricsRegistry::new();
        reg.counter("reads_total").add(7);
        reg.gauge("depth").set(2);
        reg.histogram("pages").observe(3);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE reads_total counter"));
        assert!(text.contains("reads_total 7"));
        assert!(text.contains("# TYPE depth gauge"));
        assert!(text.contains("depth 2"));
        assert!(text.contains("# TYPE pages histogram"));
        assert!(text.contains("pages_bucket{le=\"4\"} 1"));
        assert!(text.contains("pages_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("pages_sum 3"));
        assert!(text.contains("pages_count 1"));
    }
}

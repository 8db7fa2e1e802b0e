//! The storage-engine sweep (`"storage"` section of `BENCH_*.json`).
//!
//! Two cells, each pinning one claim of the storage speed pass:
//!
//! - **`e16-cold`** — the L0–L3 suite of [`crate::suite`] evaluated
//!   cold on a v1 pager and again on a v2 (prefix-compressed) pager.
//!   Compression packs more records per page, so the same queries
//!   touch fewer pages: the cell asserts the answers are identical and
//!   the cold read ledger shrinks by at least 20%.
//! - **`scan-mix`** — the seeded scan-vs-point-query workload from the
//!   pager's scan-resistance test, measured under the two-queue policy
//!   and under plain LRU. The cell asserts the 2Q point-query hit rate
//!   holds its pinned floor and structurally beats LRU.
//!
//! Both cells are deterministic (fixed fixtures, logical-clock
//! replacement decisions, seeded access order), so their rows are
//! trajectory-comparable across runs the same way the planner rows are.

use crate::suite::{bench_directory, suite_queries, SuiteConfig};
use netdir_index::IndexedDirectory;
use netdir_model::Entry;
use netdir_obs::MetricsRegistry;
use netdir_pager::{PageFormat, PagedList, Pager, PoolConfig, ReplacementPolicy};
use netdir_query::{parse_query, Evaluator};
use netdir_server::metrics as bridge;

/// One measured cell of the storage sweep.
#[derive(Debug, Clone)]
pub struct StorageRow {
    /// `"e16-cold"` or `"scan-mix"`.
    pub cell: String,
    /// Cold pages read by the baseline (v1 format / LRU policy misses).
    pub baseline_reads: u64,
    /// Cold pages read by the engine (v2 format / 2Q policy misses).
    pub engine_reads: u64,
    /// `1 - engine_reads / baseline_reads` (0 when not applicable).
    pub read_reduction: f64,
    /// Point-query hit rate under the baseline policy (scan-mix only).
    pub hit_rate_baseline: f64,
    /// Point-query hit rate under the engine policy (scan-mix only).
    pub hit_rate_engine: f64,
    /// Bytes the v2 page format saved versus v1 encoding (e16-cold only).
    pub compressed_bytes_saved: u64,
}

/// Evaluate the L0–L3 suite cold on a pager of `format` and return the
/// materialized outputs, the total cold read count, and the bytes the
/// page format saved.
fn run_suite_cold(cfg: &SuiteConfig, format: PageFormat) -> (Vec<Vec<Entry>>, u64, u64) {
    let pager = Pager::custom(
        512,
        PoolConfig {
            frames: 4096,
            policy: ReplacementPolicy::TwoQ,
        },
        format,
    );
    let dir = bench_directory(cfg);
    let idx = IndexedDirectory::build(&pager, &dir).expect("build storage index");
    let ev = Evaluator::new(&idx, &pager);
    pager.flush().expect("flush storage index");
    pager.reset_io();
    let mut outputs = Vec::new();
    for (_, text) in suite_queries(cfg) {
        // Every level starts cold so the ledger counts page footprint,
        // not buffer-pool luck.
        pager.flush().expect("flush between storage levels");
        pager.pool().clear_cache().expect("cold storage level");
        let query = parse_query(&text).expect("parse storage query");
        let out = ev
            .evaluate(&query)
            .expect("storage query evaluates")
            .to_vec()
            .expect("materialize storage output");
        outputs.push(out);
    }
    let saved = pager.pool().metrics().compressed_bytes_saved;
    (outputs, pager.io().reads, saved)
}

/// Minimal deterministic PRNG (xorshift*) — fixed seed, no std RNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

const FRAMES: usize = 32;
const PAGES: u64 = 256;
const SCAN_BURST: u64 = 40; // > FRAMES: each burst can flush an LRU pool
const ROUNDS: usize = 6;
const HOT: u64 = 8;

/// Fraction of point queries that hit the buffer pool under `policy`
/// while a whole-list scan runs interleaved — the scan-resistance
/// workload, as a benchmark metric.
fn point_hit_rate(policy: ReplacementPolicy) -> f64 {
    let pager = Pager::custom(
        256,
        PoolConfig {
            frames: FRAMES,
            policy,
        },
        PageFormat::V1,
    );
    let per_page = pager.blocking_factor(8) as u64;
    let list = PagedList::from_iter(&pager, 0..PAGES * per_page).expect("scan-mix list");
    assert_eq!(list.num_pages(), PAGES);
    pager.flush().expect("flush scan-mix list");
    pager.pool().clear_cache().expect("cold scan-mix pool");

    // Warm the hot set: two touches promote a page out of probation.
    for _ in 0..2 {
        for h in 0..HOT {
            list.get(h * per_page).expect("warm hot page");
        }
    }

    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let mut queries = 0u64;
    let mut hits = 0u64;
    let mut scan_pos = HOT; // scan the cold tail, wrapping
    for _ in 0..ROUNDS {
        for _ in 0..SCAN_BURST {
            list.get(scan_pos * per_page).expect("scan page");
            scan_pos += 1;
            if scan_pos >= PAGES {
                scan_pos = HOT;
            }
        }
        for _ in 0..2 * HOT {
            let h = rng.next() % HOT;
            let before = pager.pool().metrics().hits;
            list.get(h * per_page).expect("point query");
            queries += 1;
            hits += pager.pool().metrics().hits - before;
        }
    }
    hits as f64 / queries as f64
}

/// Run both storage cells, fold the engine pool's behavior counters
/// into `registry`, and return the rows.
///
/// Panics if either claim fails — a storage pass that changed answers,
/// saved less than 20% of cold reads, or lost scan resistance is a bug,
/// not a data point.
pub fn storage_sweep(cfg: &SuiteConfig, registry: &MetricsRegistry) -> Vec<StorageRow> {
    // Cell 1: the suite's cold footprint, v1 vs v2 page format.
    let (v1_out, v1_reads, v1_saved) = run_suite_cold(cfg, PageFormat::V1);
    let (v2_out, v2_reads, v2_saved) = run_suite_cold(cfg, PageFormat::V2);
    assert_eq!(
        v1_out, v2_out,
        "the v2 page format changed query answers — compression must be \
         invisible above the pager"
    );
    assert_eq!(v1_saved, 0, "a v1 pager credited compression savings");
    assert!(v2_saved > 0, "a v2 pager saved no bytes over v1 encoding");
    let reduction = 1.0 - v2_reads as f64 / v1_reads.max(1) as f64;
    assert!(
        reduction >= 0.2,
        "prefix compression saved only {:.1}% of cold reads on the suite \
         ({v1_reads} v1 vs {v2_reads} v2) — the storage pass promises ≥20%",
        reduction * 100.0
    );

    // Cell 2: scan-mix point-query hit rate, 2Q vs LRU.
    let two_q = point_hit_rate(ReplacementPolicy::TwoQ);
    let lru = point_hit_rate(ReplacementPolicy::Lru);
    assert!(
        two_q >= 0.9,
        "two-queue point hit rate degraded under scan: {two_q:.3}"
    );
    assert!(
        two_q - lru >= 0.25,
        "two-queue win over LRU too small: {two_q:.3} vs {lru:.3}"
    );

    // Give the registry's pool series real traffic: replay the engine
    // configuration once and absorb its behavior counters.
    let pager = Pager::compressed(512, 64);
    let dir = bench_directory(cfg);
    let idx = IndexedDirectory::build(&pager, &dir).expect("build registry index");
    let ev = Evaluator::new(&idx, &pager);
    for (_, text) in suite_queries(cfg) {
        let query = parse_query(&text).expect("parse registry query");
        ev.evaluate(&query)
            .expect("registry query evaluates")
            .to_vec()
            .expect("materialize registry output");
    }
    bridge::absorb_pool(registry, pager.pool().metrics());

    vec![
        StorageRow {
            cell: "e16-cold".into(),
            baseline_reads: v1_reads,
            engine_reads: v2_reads,
            read_reduction: reduction,
            hit_rate_baseline: 0.0,
            hit_rate_engine: 0.0,
            compressed_bytes_saved: v2_saved,
        },
        StorageRow {
            cell: "scan-mix".into(),
            baseline_reads: 0,
            engine_reads: 0,
            read_reduction: 0.0,
            hit_rate_baseline: lru,
            hit_rate_engine: two_q,
            compressed_bytes_saved: 0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_sweep_enforces_both_claims_and_feeds_metrics() {
        let reg = MetricsRegistry::default();
        let rows = storage_sweep(&crate::suite::smoke_config(), &reg);
        assert_eq!(rows.len(), 2);
        let cold = &rows[0];
        assert_eq!(cold.cell, "e16-cold");
        assert!(cold.read_reduction >= 0.2);
        assert!(cold.engine_reads < cold.baseline_reads);
        assert!(cold.compressed_bytes_saved > 0);
        let mix = &rows[1];
        assert_eq!(mix.cell, "scan-mix");
        assert!(mix.hit_rate_engine >= 0.9);
        assert!(mix.hit_rate_engine > mix.hit_rate_baseline);
        // The engine replay landed in the registry's pool series.
        assert!(reg.counter(netdir_obs::names::POOL_HITS).get() > 0);
        assert!(reg.counter(netdir_obs::names::POOL_COMPRESSED_BYTES_SAVED).get() > 0);
    }

    #[test]
    fn storage_sweep_is_deterministic() {
        let reg = MetricsRegistry::default();
        let a = storage_sweep(&crate::suite::smoke_config(), &reg);
        let b = storage_sweep(&crate::suite::smoke_config(), &reg);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.baseline_reads, y.baseline_reads);
            assert_eq!(x.engine_reads, y.engine_reads);
            assert_eq!(x.hit_rate_engine.to_bits(), y.hit_rate_engine.to_bits());
            assert_eq!(x.hit_rate_baseline.to_bits(), y.hit_rate_baseline.to_bits());
        }
    }
}

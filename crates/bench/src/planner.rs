//! The cost-based planner sweep (the `"planner"` section of
//! `BENCH_*.json`, schema v5).
//!
//! Runs the L0–L3 zone fan-out suite ([`crate::suite`]) plus three
//! planner-showcase queries over a latency-bearing pager, twice per cell:
//! naive (the query as written) and planned (what [`Planner::plan`]
//! chose after a training pass fed the stats catalog through an
//! [`ObservingSource`]). The sweep *enforces* the optimizer's contract
//! on every cell — byte-identical output, chosen cold-cache reads never
//! above naive — and reports both ledgers and wall clocks so the report
//! shows where the cost model found money and where it correctly left
//! the query alone. A repeated-shape cell demonstrates the plan cache.

use crate::suite::{bench_directory, suite_queries, SuiteConfig};
use netdir_index::IndexedDirectory;
use netdir_model::Entry;
use netdir_obs::MetricsRegistry;
use netdir_pager::Pager;
use netdir_query::planner::ObservingSource;
use netdir_query::{parse_query, Evaluator, Planner, Query};
use netdir_server::metrics as bridge;
use std::time::{Duration, Instant};

/// A *small* frame budget, so oversized intermediate lists (the ruinous rewrite's
/// whole-directory scans) are evicted and cost real re-reads — the
/// currency the cost model prices.
fn planner_pager(cfg: &SuiteConfig) -> Pager {
    Pager::with_latency(512, 48, cfg.read_delay, Duration::ZERO)
}

/// One (query, naive-vs-chosen) cell of the planner sweep.
#[derive(Debug, Clone)]
pub struct PlannerRow {
    /// Cell label (`L0`–`L3` from the L0–L3 suite, or a showcase name).
    pub label: String,
    /// Rewrite steps the chosen plan applied (0 = identity plan).
    pub steps: u64,
    /// Whether this plan replayed from the shape-keyed cache.
    pub cache_hit: bool,
    /// Predicted page I/O of the query as written (Theorems 8.3/8.4).
    pub predicted_naive: f64,
    /// Predicted page I/O of the chosen plan.
    pub predicted_chosen: f64,
    /// Cold-cache pages read by the naive query.
    pub naive_reads: u64,
    /// Cold-cache pages read by the chosen plan.
    pub chosen_reads: u64,
    /// Wall-clock seconds for the naive query (latency-bearing pager).
    pub naive_wall_secs: f64,
    /// Wall-clock seconds for the chosen plan.
    pub chosen_wall_secs: f64,
}

/// The showcase cells: queries the L0–L3 suite does not cover, each
/// exercising one planner family. `repeat-shape` shares `and-chain`'s
/// normalized shape (only the filter constant differs), so planning it
/// second must hit the plan cache.
fn showcase_queries() -> Vec<(&'static str, String)> {
    let and_chain = |weight: u64| {
        format!(
            "(& (& (dc=bench ? sub ? objectClass=thing) (dc=bench ? sub ? pad=*)) \
                (ou=z0, dc=bench ? sub ? weight={weight}))"
        )
    };
    let whole = "(null-dn ? sub ? objectClass=*)";
    vec![
        // A 3-atom boolean chain: two whole-tree scans and one selective
        // zone atom. Reordering + base tightening both apply.
        ("and-chain", and_chain(0)),
        // Same shape, different constant: the cache-hit cell.
        ("repeat-shape", and_chain(1)),
        // The paper's Theorem 8.2(d) form with the ruinous (- X X)
        // whole-directory operand — the planner must repair it.
        (
            "legacy-ac",
            format!(
                "(ac (ou=z0, dc=bench ? sub ? kind=red) \
                     (dc=bench ? sub ? objectClass=thing) (- {whole} {whole}))"
            ),
        ),
    ]
}

/// Evaluate `q` cold and return (entries, pages read, wall seconds).
fn run_cold(pager: &Pager, idx: &IndexedDirectory, q: &Query) -> (Vec<Entry>, u64, f64) {
    pager.flush().expect("flush before planner cell");
    pager.pool().clear_cache().expect("cold planner cell");
    pager.reset_io();
    let started = Instant::now();
    let out = Evaluator::new(idx, pager)
        .evaluate(q)
        .expect("planner cell evaluates")
        .to_vec()
        .expect("materialize planner cell");
    let wall = started.elapsed().as_secs_f64();
    (out, pager.io().reads, wall)
}

/// Run the planner sweep over the L0–L3 suite plus the showcase cells and
/// sync the planner's counters into `registry`.
///
/// Panics if any cell violates the optimizer's contract — an optimizer
/// that changes answers or reads more pages is a bug, not a data point.
pub fn planner_sweep(cfg: &SuiteConfig, registry: &MetricsRegistry) -> Vec<PlannerRow> {
    let dir = bench_directory(cfg);
    let pager = planner_pager(cfg);
    let idx = IndexedDirectory::build(&pager, &dir).expect("build planner index");
    let planner = Planner::new();

    let mut cells: Vec<(String, Query)> = suite_queries(cfg)
        .into_iter()
        .map(|(level, text)| (level.to_string(), parse_query(&text).expect("parse suite")))
        .collect();
    for (label, text) in showcase_queries() {
        cells.push((label.to_string(), parse_query(&text).expect("parse showcase")));
    }

    // Training pass: one naive evaluation per cell through an observing
    // source, so the catalog holds this workload's real list sizes
    // before any plan is chosen.
    let observing = ObservingSource::new(&idx, planner.catalog(), &pager);
    let trainer = Evaluator::new(&observing, &pager);
    for (_, q) in &cells {
        trainer.evaluate(q).expect("planner training pass");
    }

    let mut rows = Vec::with_capacity(cells.len());
    for (label, q) in &cells {
        let planned = planner.plan(q);
        let (naive_out, naive_reads, naive_wall) = run_cold(&pager, &idx, q);
        let (chosen_out, chosen_reads, chosen_wall) = run_cold(&pager, &idx, &planned.query);
        assert_eq!(
            naive_out, chosen_out,
            "{label}: chosen plan changed the answer"
        );
        assert!(
            chosen_reads <= naive_reads,
            "{label}: chosen plan read more pages ({chosen_reads} > {naive_reads})"
        );
        rows.push(PlannerRow {
            label: label.clone(),
            steps: planned.steps.len() as u64,
            cache_hit: planned.cache_hit,
            predicted_naive: planned.predicted_naive,
            predicted_chosen: planned.predicted_chosen,
            naive_reads,
            chosen_reads,
            naive_wall_secs: naive_wall,
            chosen_wall_secs: chosen_wall,
        });
    }

    let by_label = |l: &str| {
        rows.iter()
            .find(|r| r.label == l)
            .unwrap_or_else(|| panic!("planner sweep missing cell {l}"))
    };
    assert!(
        by_label("and-chain").steps > 0,
        "planner left the showcase chain untouched"
    );
    assert!(
        by_label("repeat-shape").cache_hit,
        "repeated shape missed the plan cache"
    );
    assert!(
        by_label("legacy-ac").chosen_reads < by_label("legacy-ac").naive_reads,
        "repairing the (- X X) operand saved no pages"
    );

    bridge::sync_planner(registry, planner.snapshot());
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::smoke_config;
    use netdir_obs::names;
    use netdir_server::metrics::register_all;

    #[test]
    fn planner_sweep_enforces_its_contract_and_feeds_metrics() {
        let registry = MetricsRegistry::default();
        register_all(&registry);
        let rows = planner_sweep(&smoke_config(), &registry);
        // The suite's four levels plus the three showcase cells.
        assert_eq!(rows.len(), 7);
        for r in &rows {
            assert!(r.chosen_reads <= r.naive_reads, "{}", r.label);
            assert!(r.predicted_chosen <= r.predicted_naive + 1e-9, "{}", r.label);
        }
        assert!(rows.iter().any(|r| r.steps > 0));
        assert!(rows.iter().any(|r| r.cache_hit));
        assert_eq!(
            registry.counter(names::PLANNER_PLANNED).get(),
            rows.len() as u64
        );
        assert!(registry.counter(names::PLANNER_CACHE_HITS).get() >= 1);
        assert!(registry.counter(names::PLANNER_CATALOG_OBSERVATIONS).get() > 0);
        assert!(registry.gauge(names::PLANNER_CATALOG_SHAPES).get() > 0);
    }
}

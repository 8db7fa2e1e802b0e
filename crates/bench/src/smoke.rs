//! The instrumented benchmark suite behind `run_experiments --smoke`.
//!
//! Runs one analyzed query per language level (L0–L3) against an
//! indexed directory, then drives a loopback TCP cluster through the
//! `QueryAnalyze` and `Stats` frames — so a single fast pass touches
//! every observability surface this workspace ships: operator traces,
//! the metrics registry, and the wire protocol's stats exposition. The
//! collected registry plus per-query trace summaries become the
//! [`BenchReport`](crate::report::BenchReport) that `BENCH_*.json`
//! persists.

use crate::load::{self, LoadConfig};
use crate::mutation;
use crate::report::{BenchReport, QueryReport};
use crate::storage;
use crate::suite::{self, SuiteConfig};
use netdir_index::IndexedDirectory;
use netdir_model::{Directory, Dn, Entry};
use netdir_obs::{names, MetricsRegistry};
use netdir_pager::Pager;
use netdir_query::parse_query;
use netdir_server::metrics as bridge;
use netdir_server::ClusterBuilder;
use netdir_wire::WireCluster;

fn dn(s: &str) -> Dn {
    Dn::parse(s).expect("fixture DN")
}

/// The distributed-evaluation fixture: three zones under `dc=com` plus
/// a disjoint `dc=org`, a traffic profile in the `att` zone, and an SLA
/// policy in the `research` zone referencing it across the zone cut.
fn fixture() -> Directory {
    let mut d = Directory::new();
    let mut add = |e: Entry| d.insert(e).expect("fixture entry");
    let plain = |s: &str| Entry::builder(dn(s)).class("thing").build().expect("entry");
    let person = |s: &str, sn: &str| {
        Entry::builder(dn(s))
            .class("thing")
            .attr("surName", sn)
            .build()
            .expect("entry")
    };
    add(plain("dc=com"));
    add(plain("dc=att, dc=com"));
    add(plain("ou=people, dc=att, dc=com"));
    add(person("uid=jag, ou=people, dc=att, dc=com", "jagadish"));
    add(plain("dc=research, dc=att, dc=com"));
    add(plain("ou=people, dc=research, dc=att, dc=com"));
    add(person("uid=jag2, ou=people, dc=research, dc=att, dc=com", "jagadish"));
    add(plain("dc=org"));
    add(plain("ou=tp, dc=att, dc=com"));
    add(
        Entry::builder(dn("TPName=mail, ou=tp, dc=att, dc=com"))
            .class("trafficProfile")
            .attr("sourcePort", 25i64)
            .build()
            .expect("entry"),
    );
    add(
        Entry::builder(dn("SLAPolicyName=mail, dc=research, dc=att, dc=com"))
            .class("SLAPolicyRules")
            .attr("SLATPRef", dn("TPName=mail, ou=tp, dc=att, dc=com"))
            .build()
            .expect("entry"),
    );
    d
}

/// One query per language level, each nonempty against [`fixture`].
fn level_queries() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "L0",
            "(- (dc=att, dc=com ? sub ? surName=jagadish) \
                (dc=research, dc=att, dc=com ? sub ? surName=jagadish))",
        ),
        (
            "L1",
            "(c (dc=com ? sub ? objectClass=thing) \
                (dc=research, dc=att, dc=com ? base ? objectClass=thing))",
        ),
        (
            "L2",
            "(c (dc=com ? sub ? objectClass=thing) \
                (dc=com ? sub ? objectClass=thing) \
                count($2) > 1)",
        ),
        (
            "L3",
            "(vd (dc=research, dc=att, dc=com ? sub ? objectClass=SLAPolicyRules) \
                 (dc=att, dc=com ? sub ? sourcePort=25) \
                 SLATPRef)",
        ),
    ]
}

/// Run the instrumented suite at smoke size and return its report
/// (mode `"smoke"`; the caller may relabel it and append experiment
/// results).
///
/// Panics on any failure — a benchmark that cannot run its own smoke
/// suite should fail loudly, not emit a hollow report.
pub fn instrumented_suite() -> BenchReport {
    instrumented_suite_with(&suite::smoke_config(), &load::smoke_config())
}

/// [`instrumented_suite`] with explicit suite and overload-sweep
/// configurations (the full run swaps in [`suite::full_config`] and
/// [`load::full_config`]).
pub fn instrumented_suite_with(suite_cfg: &SuiteConfig, load_cfg: &LoadConfig) -> BenchReport {
    let registry = MetricsRegistry::new();
    bridge::register_all(&registry);
    let dir = fixture();
    let mut queries = Vec::new();

    // Local phase: one analyzed query per level on an indexed store.
    // A fresh pager per level keeps each trace's observed I/O free of
    // the previous level's buffer-pool state; deliberately small pages
    // and frame budget so the traces record real page traffic instead
    // of an all-resident pool.
    for (level, text) in level_queries() {
        let pager = Pager::new(256, 8);
        let idx = IndexedDirectory::build(&pager, &dir).expect("build index");
        let query = parse_query(text).expect("parse level query");
        pager.reset_io(); // charge the query, not the index build
        let (_, trace) = netdir_query::analyze(&idx, &pager, &query).expect("analyze");
        bridge::absorb_io(&registry, pager.io());
        bridge::record_query(&registry, trace.elapsed_nanos, trace.observed_io);
        queries.push(QueryReport::from_trace(level, &trace));
    }

    // Wire phase: the same L2 query over a loopback TCP cluster, via
    // the QueryAnalyze frame, then a Stats frame. This exercises real
    // sockets, the frame codec, and the daemon-side registry.
    let builder = ClusterBuilder::new()
        .server("root", dn("dc=com"))
        .server("att", dn("dc=att, dc=com"))
        .server("research", dn("dc=research, dc=att, dc=com"))
        .server("org", dn("dc=org"));
    let mut wire = WireCluster::launch_default(builder, &dir).expect("launch loopback cluster");
    let att = wire.cluster().server_id("att").expect("server att");
    let client = wire.client(att);
    let (entries, trace) = client
        .query_analyze("att", level_queries()[2].1)
        .expect("QueryAnalyze over TCP");
    assert_eq!(
        trace.root_entries(),
        entries.len() as u64,
        "wire trace disagrees with shipped entries"
    );
    queries.push(QueryReport::from_trace("L2/tcp", &trace));
    bridge::record_query(&registry, trace.elapsed_nanos, trace.observed_io);

    let exposition = client.stats().expect("Stats over TCP");
    for name in names::TRACKED {
        assert!(
            exposition.contains(name),
            "daemon stats exposition is missing {name}"
        );
    }
    // Fold the cluster's transport-layer ledgers into the report so
    // net/retry/breaker series carry real loopback traffic.
    let router = wire.cluster().router();
    bridge::sync_net(&registry, router.net().snapshot());
    bridge::sync_retry(&registry, router.retry_stats().snapshot());
    bridge::sync_health(&registry, router.health().transitions());
    wire.shutdown();

    // Write-path phase: apply a burst of mutation batches through a
    // journal and replay its WAL, so the wal/mutation series carry
    // real work.
    let mutation = mutation::smoke_suite(&registry);

    // Overload phase: the closed-loop load sweep, admission-controlled
    // daemon vs unbounded baseline, with its shedding invariants
    // asserted (a sweep that did not saturate is a broken benchmark).
    let load_rows = load::overload_sweep(load_cfg, &registry);
    load::assert_sweep_shape(&load_rows);

    // Storage phase: the compression-footprint and scan-mix cells, with
    // the storage pass's byte-identity, ≥20% cold-read reduction, and
    // scan-resistance claims asserted per cell.
    let storage_rows = storage::storage_sweep(suite_cfg, &registry);

    let mut report = BenchReport::new("smoke", &registry);
    report.queries = queries;
    report.mutation = mutation;
    report.load = load_rows;
    report.storage = storage_rows;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::validate_bench_json;

    #[test]
    fn smoke_suite_emits_a_valid_nonempty_report() {
        let report = instrumented_suite();
        assert_eq!(report.queries.len(), 5, "L0–L3 plus the TCP pass");
        assert!(report.queries.iter().all(|q| q.entries > 0));
        assert!(report.queries.iter().all(|q| q.spans > 0));
        let text = report.to_json();
        validate_bench_json(&text).unwrap();
        // The suite really moved pages and queries through the registry.
        let get = |name: &str| {
            report
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("metric {name} missing"))
        };
        assert!(get("netdir_queries_total") >= 5);
        // The fixture fits in the buffer pool, so physical reads can be
        // zero — but the indexes and the leaves they stage allocate pages.
        assert!(get("netdir_io_allocs_total") > 0);
        assert!(get("netdir_net_requests_total") > 0);
        // The write-path phase logged and replayed real batches.
        assert_eq!(report.mutation.len(), 2);
        assert!(get("netdir_mutation_batches_total") > 0);
        assert!(get("netdir_wal_fsyncs_total") > 0);
        assert!(get("netdir_wal_replay_us_count") > 0);
        // The overload sweep ran both modes at every client count and
        // its admission decisions landed in the registry.
        assert_eq!(
            report.load.len(),
            2 * crate::load::smoke_config().client_sweep.len()
        );
        assert!(get("netdir_admission_admitted_total") > 0);
        assert!(get("netdir_busy_rejections_total") > 0);
        // The storage sweep ran both cells, its claims held, and the
        // engine replay fed the pool series.
        assert_eq!(report.storage.len(), 2);
        assert!(report.storage[0].read_reduction >= 0.2);
        assert!(report.storage[1].hit_rate_engine > report.storage[1].hit_rate_baseline);
        assert!(get("netdir_pool_hits_total") > 0);
        assert!(get("netdir_pool_compressed_bytes_saved_total") > 0);
    }
}

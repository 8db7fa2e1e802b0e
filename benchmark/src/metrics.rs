//! The benchmark's metric names: the single source `BENCHMARK.json` is
//! printed from (`--manifest`) and every report is checked against.

use crate::gen::Workload;
use std::fmt::Write as _;

/// Seconds one run measures (`BENCHMARK.json`'s `run_seconds`); the op
/// counts in `gen` are per second of it.
pub const RUN_SECONDS: usize = 10;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// What a user of the daemon sees. Every workload reports all of them.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("throughput_ops", "1/s", "higher", 0.20),
    e2e("query_mean_ms", "ms", "lower", 0.20),
    e2e("query_p90_ms", "ms", "lower", 0.25),
    e2e("mutate_mean_ms", "ms", "lower", 0.25),
    e2e("pages_per_query", "pages", "lower", 0.08),
    e2e("daemon_rss_mb", "MiB", "lower", 0.10),
];

/// Single layers, named `<crate or module>.<what>`; no bounds.
pub const PER_LAYER: [PerLayer; 44] = [
    layer("model.ldif_parse_s", "s", "lower"),
    layer("journal.create_s", "s", "lower"),
    layer("server.cluster_build_s", "s", "lower"),
    layer("wire.ping_rtt_us", "us", "lower"),
    layer("wire.req_encode_us", "us", "lower"),
    layer("wire.resp_decode_us", "us", "lower"),
    layer("wire.entries_encode_us", "us", "lower"),
    layer("wire.resp_bytes", "bytes", "lower"),
    layer("model.entry_decode_us", "us", "lower"),
    layer("core.parse_us", "us", "lower"),
    layer("core.plan_us", "us", "lower"),
    layer("core.eval_us", "us", "lower"),
    layer("server.query_us", "us", "lower"),
    layer("server.route_us", "us", "lower"),
    layer("index.atomic_us", "us", "lower"),
    layer("pager.reads_per_query", "pages", "lower"),
    layer("pager.writes_per_query", "pages", "lower"),
    layer("pager.evictions_per_query", "count", "lower"),
    layer("pager.pool_hit_rate", "ratio", "higher"),
    layer("core.predicted_io_ratio", "ratio", "lower"),
    layer("wire.overhead_us", "us", "lower"),
    layer("journal.apply_us", "us", "lower"),
    layer("server.rebuild_ms", "ms", "lower"),
    layer("journal.wal_bytes_per_batch", "bytes", "lower"),
    layer("journal.wal_persist_us", "us", "lower"),
    layer("wire.mutate_encode_us", "us", "lower"),
    layer("daemon.query_mean_us", "us", "lower"),
    layer("daemon.pool_hit_rate", "ratio", "higher"),
    layer("daemon.page_transfers_per_query", "pages", "lower"),
    layer("daemon.cpu_ms_per_op", "ms", "lower"),
    layer("daemon.threads", "count", "lower"),
    layer("daemon.rss_peak_mb", "MiB", "lower"),
    layer("client.cpu_ms_per_op", "ms", "lower"),
    layer("client.query_p50_ms", "ms", "lower"),
    layer("client.query_p99_ms", "ms", "lower"),
    layer("client.mutate_p50_ms", "ms", "lower"),
    layer("client.mutate_p90_ms", "ms", "lower"),
    layer("client.mutate_p99_ms", "ms", "lower"),
    layer("client.window_spread_pct", "%", "lower"),
    layer("client.ops_attempted", "count", "higher"),
    layer("client.timed_section_s", "s", "lower"),
    layer("trace.spans", "count", "lower"),
    layer("trace.self_time_pct", "%", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
];

/// Unit of metric `name`, from whichever table holds it.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is in neither table"))
}

/// One `"key": [rows]` member of the manifest.
fn array(out: &mut String, key: &str, rows: Vec<String>, last: bool) {
    let _ = writeln!(out, "  \"{key}\": [");
    let _ = writeln!(out, "    {}", rows.join(",\n    "));
    let _ = writeln!(out, "  ]{}", if last { "" } else { "," });
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"command\": [\"bash\", \"benchmark/run.sh\"],");
    let _ = writeln!(out, "  \"paths\": [\"benchmark\"],");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let workloads = Workload::ALL
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why()))
        .collect();
    array(&mut out, "workloads", workloads, false);
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    array(&mut out, "end_to_end", end_to_end, false);
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    array(&mut out, "per_layer", per_layer, true);
    out.push_str("}\n");
    out
}

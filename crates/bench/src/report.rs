//! Machine-readable benchmark reports (`BENCH_*.json`).
//!
//! `run_experiments` emits one JSON document per run so dashboards and
//! CI can diff benchmark output without scraping tables. The format is
//! deliberately small:
//!
//! ```json
//! {
//!   "schema_version": 7,
//!   "mode": "smoke",
//!   "experiments": [{"name": "exp_hs_linear", "status": "ok",
//!                    "wall_time_secs": 1.2}],
//!   "queries": [{"level": "L0", "query": "(- ...)", "entries": 1,
//!                "spans": 3, "predicted_io": 3.0, "observed_io": 5}],
//!   "mutation": [{"phase": "apply", "batches": 10, "mutations": 237,
//!                 "wall_secs": 0.01, "wal_fsyncs": 10,
//!                 "wal_page_writes": 12}],
//!   "load": [{"mode": "admission", "clients": 16, "offered": 320,
//!             "completed": 120, "busy": 200, "deadline": 0, "errors": 0,
//!             "wall_secs": 0.4, "throughput_rps": 300.0, "p50_us": 900,
//!             "p99_us": 2400, "p999_us": 3100}],
//!   "planner": [{"label": "and-chain", "steps": 2, "cache_hit": false,
//!                "predicted_naive": 40.0, "predicted_chosen": 12.0,
//!                "naive_reads": 38, "chosen_reads": 11,
//!                "naive_wall_secs": 0.02, "chosen_wall_secs": 0.008}],
//!   "storage": [{"cell": "e16-cold", "baseline_reads": 160,
//!                "engine_reads": 110, "read_reduction": 0.31,
//!                "hit_rate_baseline": 0, "hit_rate_engine": 0,
//!                "compressed_bytes_saved": 20480}],
//!   "metrics": {"netdir_io_reads_total": 12, "...": 0}
//! }
//! ```
//!
//! `metrics` is a [`MetricsRegistry`] flattened to name → value pairs
//! and always carries every tracked name of [`netdir_obs::names`]
//! (explicit zeros included). The container has no JSON dependency, so
//! this module hand-rolls both the emitter and the tiny recursive
//! parser [`validate_bench_json`] uses — it understands exactly the
//! JSON this module writes (no unicode escapes, no exponent-free giant
//! numbers), which is all the validator needs.

use crate::load::LoadRow;
use crate::mutation::MutationRow;
use crate::planner::PlannerRow;
use crate::storage::StorageRow;
use netdir_obs::{names, MetricsRegistry, QueryTrace};

/// One experiment binary's outcome in a full run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Binary name (e.g. `exp_hs_linear`).
    pub name: String,
    /// `"ok"` or `"failed"`.
    pub status: String,
    /// Wall-clock time the binary took.
    pub wall_time_secs: f64,
}

/// One analyzed query in the instrumented suite.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// Language level (`L0`–`L3`).
    pub level: String,
    /// The query text.
    pub query: String,
    /// Entries the query returned.
    pub entries: u64,
    /// Operator spans in the trace (= query-tree nodes).
    pub spans: u64,
    /// Whole-query predicted page I/O (Theorems 8.3/8.4).
    pub predicted_io: f64,
    /// Whole-query observed page I/O.
    pub observed_io: u64,
}

impl QueryReport {
    /// Summarize an `explain::analyze` trace.
    pub fn from_trace(level: &str, trace: &QueryTrace) -> QueryReport {
        QueryReport {
            level: level.to_string(),
            query: trace.query.clone(),
            entries: trace.root_entries(),
            spans: trace.spans.len() as u64,
            predicted_io: trace.predicted_io,
            observed_io: trace.observed_io,
        }
    }
}

/// A whole `BENCH_*.json` document.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// `"smoke"` or `"full"`.
    pub mode: String,
    /// Experiment binaries run (empty in smoke mode).
    pub experiments: Vec<ExperimentResult>,
    /// Instrumented per-level query reports.
    pub queries: Vec<QueryReport>,
    /// Write-path suite rows (apply throughput, WAL replay).
    pub mutation: Vec<MutationRow>,
    /// Closed-loop overload sweep rows (admission vs unbounded).
    pub load: Vec<LoadRow>,
    /// Cost-based planner sweep rows (chosen vs naive I/O).
    pub planner: Vec<PlannerRow>,
    /// Storage-engine sweep rows (compression footprint, scan-mix).
    pub storage: Vec<StorageRow>,
    /// Flattened metrics registry.
    pub metrics: Vec<(String, u64)>,
}

/// The only schema this writer emits (and the validator accepts).
/// Version 2 added the `parallel` degree-sweep section; version 3
/// added the `mutation` write-path section; version 4 added the `load`
/// overload-sweep section; version 5 added the `planner` chosen-vs-naive
/// section; version 6 added the `storage` compression/scan-mix section;
/// version 7 dropped the `parallel` section with the evaluator it
/// measured.
pub const SCHEMA_VERSION: u64 = 7;

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render a float so it parses back as a JSON number (never NaN/inf —
/// the cost model only produces finite values, but a report must not
/// become unparseable if that ever breaks).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl BenchReport {
    /// A report carrying the registry's current state.
    pub fn new(mode: &str, registry: &MetricsRegistry) -> BenchReport {
        BenchReport {
            mode: mode.to_string(),
            experiments: Vec::new(),
            queries: Vec::new(),
            mutation: Vec::new(),
            load: Vec::new(),
            planner: Vec::new(),
            storage: Vec::new(),
            metrics: registry.flatten(),
        }
    }

    /// Serialize to the `BENCH_*.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
        out.push_str(&format!("  \"mode\": \"{}\",\n", escape(&self.mode)));
        out.push_str("  \"experiments\": [\n");
        for (i, e) in self.experiments.iter().enumerate() {
            let comma = if i + 1 < self.experiments.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"status\": \"{}\", \"wall_time_secs\": {}}}{comma}\n",
                escape(&e.name),
                escape(&e.status),
                num(e.wall_time_secs),
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"queries\": [\n");
        for (i, q) in self.queries.iter().enumerate() {
            let comma = if i + 1 < self.queries.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"level\": \"{}\", \"query\": \"{}\", \"entries\": {}, \
                 \"spans\": {}, \"predicted_io\": {}, \"observed_io\": {}}}{comma}\n",
                escape(&q.level),
                escape(&q.query),
                q.entries,
                q.spans,
                num(q.predicted_io),
                q.observed_io,
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"mutation\": [\n");
        for (i, m) in self.mutation.iter().enumerate() {
            let comma = if i + 1 < self.mutation.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"phase\": \"{}\", \"batches\": {}, \"mutations\": {}, \
                 \"wall_secs\": {}, \"wal_fsyncs\": {}, \
                 \"wal_page_writes\": {}}}{comma}\n",
                escape(&m.phase),
                m.batches,
                m.mutations,
                num(m.wall_secs),
                m.wal_fsyncs,
                m.wal_page_writes,
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"load\": [\n");
        for (i, l) in self.load.iter().enumerate() {
            let comma = if i + 1 < self.load.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"mode\": \"{}\", \"clients\": {}, \"offered\": {}, \
                 \"completed\": {}, \"busy\": {}, \"deadline\": {}, \
                 \"errors\": {}, \"wall_secs\": {}, \"throughput_rps\": {}, \
                 \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {}}}{comma}\n",
                escape(&l.mode),
                l.clients,
                l.offered,
                l.completed,
                l.busy,
                l.deadline,
                l.errors,
                num(l.wall_secs),
                num(l.throughput_rps),
                l.p50_us,
                l.p99_us,
                l.p999_us,
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"planner\": [\n");
        for (i, p) in self.planner.iter().enumerate() {
            let comma = if i + 1 < self.planner.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"label\": \"{}\", \"steps\": {}, \"cache_hit\": {}, \
                 \"predicted_naive\": {}, \"predicted_chosen\": {}, \
                 \"naive_reads\": {}, \"chosen_reads\": {}, \
                 \"naive_wall_secs\": {}, \"chosen_wall_secs\": {}}}{comma}\n",
                escape(&p.label),
                p.steps,
                p.cache_hit,
                num(p.predicted_naive),
                num(p.predicted_chosen),
                p.naive_reads,
                p.chosen_reads,
                num(p.naive_wall_secs),
                num(p.chosen_wall_secs),
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"storage\": [\n");
        for (i, s) in self.storage.iter().enumerate() {
            let comma = if i + 1 < self.storage.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"cell\": \"{}\", \"baseline_reads\": {}, \
                 \"engine_reads\": {}, \"read_reduction\": {}, \
                 \"hit_rate_baseline\": {}, \"hit_rate_engine\": {}, \
                 \"compressed_bytes_saved\": {}}}{comma}\n",
                escape(&s.cell),
                s.baseline_reads,
                s.engine_reads,
                num(s.read_reduction),
                num(s.hit_rate_baseline),
                num(s.hit_rate_engine),
                s.compressed_bytes_saved,
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"metrics\": {\n");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let comma = if i + 1 < self.metrics.len() { "," } else { "" };
            out.push_str(&format!("    \"{}\": {value}{comma}\n", escape(name)));
        }
        out.push_str("  }\n");
        out.push_str("}\n");
        out
    }
}

/// A parsed JSON value — just enough structure for validation.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str
                    // upstream, so boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|e| e.to_string())?;
                    let c = rest.chars().next().ok_or("empty string tail")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    pairs.push((key, self.value()?));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        other => return Err(format!("bad object separator {other:?}")),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        other => return Err(format!("bad array separator {other:?}")),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }
}

fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

/// Validate a `BENCH_*.json` document: well-formed JSON, the supported
/// schema version, the experiments/queries/metrics sections with the
/// right shapes, and **every** tracked metric name present with a
/// numeric value. Returns the first problem found.
pub fn validate_bench_json(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    let version = doc
        .get("schema_version")
        .and_then(Json::as_num)
        .ok_or("missing numeric schema_version")?;
    if version != SCHEMA_VERSION as f64 {
        return Err(format!("unsupported schema_version {version}"));
    }
    doc.get("mode")
        .and_then(Json::as_str)
        .filter(|m| *m == "smoke" || *m == "full")
        .ok_or("mode must be \"smoke\" or \"full\"")?;
    let experiments = doc
        .get("experiments")
        .and_then(Json::as_arr)
        .ok_or("missing experiments array")?;
    for e in experiments {
        e.get("name").and_then(Json::as_str).ok_or("experiment without name")?;
        e.get("status").and_then(Json::as_str).ok_or("experiment without status")?;
        e.get("wall_time_secs")
            .and_then(Json::as_num)
            .ok_or("experiment without wall_time_secs")?;
    }
    let queries = doc
        .get("queries")
        .and_then(Json::as_arr)
        .ok_or("missing queries array")?;
    if queries.is_empty() {
        return Err("queries array is empty — the instrumented suite did not run".into());
    }
    for q in queries {
        for key in ["level", "query"] {
            q.get(key).and_then(Json::as_str).ok_or(format!("query without {key}"))?;
        }
        for key in ["entries", "spans", "predicted_io", "observed_io"] {
            q.get(key).and_then(Json::as_num).ok_or(format!("query without {key}"))?;
        }
    }
    let mutation = doc
        .get("mutation")
        .and_then(Json::as_arr)
        .ok_or("missing mutation array")?;
    for m in mutation {
        m.get("phase").and_then(Json::as_str).ok_or("mutation row without phase")?;
        for key in ["batches", "mutations", "wall_secs", "wal_fsyncs", "wal_page_writes"] {
            m.get(key)
                .and_then(Json::as_num)
                .ok_or(format!("mutation row without {key}"))?;
        }
    }
    let load = doc
        .get("load")
        .and_then(Json::as_arr)
        .ok_or("missing load array")?;
    for l in load {
        l.get("mode")
            .and_then(Json::as_str)
            .filter(|m| *m == "unbounded" || *m == "admission")
            .ok_or("load row mode must be \"unbounded\" or \"admission\"")?;
        for key in [
            "clients",
            "offered",
            "completed",
            "busy",
            "deadline",
            "errors",
            "wall_secs",
            "throughput_rps",
            "p50_us",
            "p99_us",
            "p999_us",
        ] {
            l.get(key).and_then(Json::as_num).ok_or(format!("load row without {key}"))?;
        }
    }
    let planner = doc
        .get("planner")
        .and_then(Json::as_arr)
        .ok_or("missing planner array")?;
    for p in planner {
        p.get("label").and_then(Json::as_str).ok_or("planner row without label")?;
        match p.get("cache_hit") {
            Some(Json::Bool(_)) => {}
            _ => return Err("planner row cache_hit must be a boolean".into()),
        }
        for key in [
            "steps",
            "predicted_naive",
            "predicted_chosen",
            "naive_reads",
            "chosen_reads",
            "naive_wall_secs",
            "chosen_wall_secs",
        ] {
            p.get(key).and_then(Json::as_num).ok_or(format!("planner row without {key}"))?;
        }
        // The optimizer's contract is part of the schema: a report whose
        // chosen plan read more pages than naive records a broken run.
        let naive = p.get("naive_reads").and_then(Json::as_num).unwrap_or(0.0);
        let chosen = p.get("chosen_reads").and_then(Json::as_num).unwrap_or(0.0);
        if chosen > naive {
            return Err(format!(
                "planner row {:?}: chosen_reads {chosen} exceeds naive_reads {naive}",
                p.get("label").and_then(Json::as_str).unwrap_or("?")
            ));
        }
    }
    let storage = doc
        .get("storage")
        .and_then(Json::as_arr)
        .ok_or("missing storage array")?;
    for s in storage {
        let cell = s
            .get("cell")
            .and_then(Json::as_str)
            .filter(|c| *c == "e16-cold" || *c == "scan-mix")
            .ok_or("storage row cell must be \"e16-cold\" or \"scan-mix\"")?;
        for key in [
            "baseline_reads",
            "engine_reads",
            "read_reduction",
            "hit_rate_baseline",
            "hit_rate_engine",
            "compressed_bytes_saved",
        ] {
            s.get(key).and_then(Json::as_num).ok_or(format!("storage row without {key}"))?;
        }
        // The storage pass's claims are part of the schema: a report
        // recording a compression win under 20% or a scan-mix hit-rate
        // loss records a broken engine.
        match cell {
            "e16-cold" => {
                let reduction =
                    s.get("read_reduction").and_then(Json::as_num).unwrap_or(0.0);
                if reduction < 0.2 {
                    return Err(format!(
                        "storage row e16-cold: read_reduction {reduction} is \
                         below the promised 0.2"
                    ));
                }
            }
            _ => {
                let lru = s.get("hit_rate_baseline").and_then(Json::as_num).unwrap_or(0.0);
                let two_q = s.get("hit_rate_engine").and_then(Json::as_num).unwrap_or(0.0);
                if two_q < lru {
                    return Err(format!(
                        "storage row scan-mix: hit_rate_engine {two_q} lost to \
                         hit_rate_baseline {lru}"
                    ));
                }
            }
        }
    }
    let metrics = doc.get("metrics").ok_or("missing metrics object")?;
    for name in names::TRACKED {
        // Histograms flatten to `<name>_count` / `<name>_sum`.
        let present = metrics.get(name).map(Json::as_num).or_else(|| {
            metrics.get(&format!("{name}_count")).map(Json::as_num)
        });
        match present {
            Some(Some(_)) => {}
            Some(None) => return Err(format!("metric {name} is not numeric")),
            None => return Err(format!("tracked metric {name} missing")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdir_server::metrics::register_all;

    fn sample_report() -> BenchReport {
        let reg = MetricsRegistry::default();
        register_all(&reg);
        reg.counter(names::QUERIES).add(2);
        reg.histogram(names::QUERY_DURATION_US).observe(17);
        let mut report = BenchReport::new("smoke", &reg);
        report.experiments.push(ExperimentResult {
            name: "exp_hs_linear".into(),
            status: "ok".into(),
            wall_time_secs: 1.25,
        });
        report.queries.push(QueryReport {
            level: "L0".into(),
            query: "(- \"a\" b)".into(), // quote must survive escaping
            entries: 1,
            spans: 3,
            predicted_io: 3.0,
            observed_io: 5,
        });
        report.mutation.push(MutationRow {
            phase: "apply".into(),
            batches: 10,
            mutations: 237,
            wall_secs: 0.01,
            wal_fsyncs: 10,
            wal_page_writes: 12,
        });
        report.load.push(LoadRow {
            mode: "admission".into(),
            clients: 16,
            offered: 320,
            completed: 120,
            busy: 200,
            deadline: 0,
            errors: 0,
            wall_secs: 0.4,
            throughput_rps: 300.0,
            p50_us: 900,
            p99_us: 2_400,
            p999_us: 3_100,
        });
        report.planner.push(PlannerRow {
            label: "and-chain".into(),
            steps: 2,
            cache_hit: false,
            predicted_naive: 40.0,
            predicted_chosen: 12.0,
            naive_reads: 38,
            chosen_reads: 11,
            naive_wall_secs: 0.02,
            chosen_wall_secs: 0.008,
        });
        report.storage.push(StorageRow {
            cell: "e16-cold".into(),
            baseline_reads: 160,
            engine_reads: 110,
            read_reduction: 0.3125,
            hit_rate_baseline: 0.0,
            hit_rate_engine: 0.0,
            compressed_bytes_saved: 20_480,
        });
        report.storage.push(StorageRow {
            cell: "scan-mix".into(),
            baseline_reads: 0,
            engine_reads: 0,
            read_reduction: 0.0,
            hit_rate_baseline: 0.54,
            hit_rate_engine: 0.97,
            compressed_bytes_saved: 0,
        });
        report
    }

    #[test]
    fn emitted_reports_validate() {
        let text = sample_report().to_json();
        validate_bench_json(&text).unwrap();
    }

    #[test]
    fn parser_round_trips_escapes_and_numbers() {
        let text = sample_report().to_json();
        let doc = parse_json(&text).unwrap();
        let q = &doc.get("queries").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(q.get("query").and_then(Json::as_str), Some("(- \"a\" b)"));
        assert_eq!(q.get("predicted_io").and_then(Json::as_num), Some(3.0));
        let e = &doc.get("experiments").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(e.get("wall_time_secs").and_then(Json::as_num), Some(1.25));
    }

    #[test]
    fn validation_rejects_broken_documents() {
        // Not JSON at all.
        assert!(validate_bench_json("not json").is_err());
        // Truncated.
        let text = sample_report().to_json();
        assert!(validate_bench_json(&text[..text.len() / 2]).is_err());
        // Wrong schema version.
        let wrong = text.replace("\"schema_version\": 7", "\"schema_version\": 99");
        assert!(validate_bench_json(&wrong).is_err());
        // A v6 document (with its parallel section) no longer validates.
        let v6 = text.replace("\"schema_version\": 7", "\"schema_version\": 6");
        assert!(validate_bench_json(&v6).is_err());
        // A v2 document (no mutation section) no longer validates.
        let v2 = text
            .replace("\"schema_version\": 7", "\"schema_version\": 2")
            .replace("\"mutation\"", "\"mutation_gone\"");
        assert!(validate_bench_json(&v2).is_err());
        // A v3 document (no load section) no longer validates.
        let v3 = text
            .replace("\"schema_version\": 7", "\"schema_version\": 3")
            .replace("\"load\"", "\"load_gone\"");
        assert!(validate_bench_json(&v3).is_err());
        // A v4 document (no planner section) no longer validates.
        let v4 = text
            .replace("\"schema_version\": 7", "\"schema_version\": 4")
            .replace("\"planner\"", "\"planner_gone\"");
        assert!(validate_bench_json(&v4).is_err());
        // A v5 document (no storage section) no longer validates.
        let v5 = text
            .replace("\"schema_version\": 7", "\"schema_version\": 5")
            .replace("\"storage\"", "\"storage_gone\"");
        assert!(validate_bench_json(&v5).is_err());
        // A load row with a bogus mode is rejected.
        let bad_mode = text.replace("\"mode\": \"admission\"", "\"mode\": \"yolo\"");
        assert!(validate_bench_json(&bad_mode).is_err());
        // A planner row where the chosen plan read more than naive
        // records a broken optimizer and must not validate.
        let regressed = text.replace("\"chosen_reads\": 11", "\"chosen_reads\": 99");
        let err = validate_bench_json(&regressed).unwrap_err();
        assert!(err.contains("chosen_reads"), "{err}");
        // cache_hit must be a boolean, not a number.
        let bad_hit = text.replace("\"cache_hit\": false", "\"cache_hit\": 0");
        assert!(validate_bench_json(&bad_hit).is_err());
        // A storage row whose compression win fell under the promised
        // 20% records a broken engine and must not validate.
        let weak = text.replace("\"read_reduction\": 0.3125", "\"read_reduction\": 0.05");
        let err = validate_bench_json(&weak).unwrap_err();
        assert!(err.contains("read_reduction"), "{err}");
        // A scan-mix row where 2Q lost to LRU likewise.
        let lost = text.replace("\"hit_rate_engine\": 0.97", "\"hit_rate_engine\": 0.4");
        let err = validate_bench_json(&lost).unwrap_err();
        assert!(err.contains("hit_rate_engine"), "{err}");
        // An unknown storage cell label is rejected.
        let bad_cell = text.replace("\"cell\": \"scan-mix\"", "\"cell\": \"mystery\"");
        assert!(validate_bench_json(&bad_cell).is_err());
        // A tracked metric missing entirely.
        let gone = text.replace(names::NET_REQUESTS, "netdir_not_a_metric");
        let err = validate_bench_json(&gone).unwrap_err();
        assert!(err.contains(names::NET_REQUESTS), "{err}");
        // An empty query suite is a failed run, not a quiet success.
        let mut empty = sample_report();
        empty.queries.clear();
        assert!(validate_bench_json(&empty.to_json()).is_err());
    }

    #[test]
    fn every_tracked_metric_lands_in_the_flattened_report() {
        let text = sample_report().to_json();
        for name in names::TRACKED {
            assert!(text.contains(name), "report missing {name}");
        }
    }
}

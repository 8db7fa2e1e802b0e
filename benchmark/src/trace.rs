//! The traced run: replay a workload's operations in-process, with a
//! span around each call into a layer's public functions.
//!
//! Spans are recorded from here, outside the layers; spans inside
//! `netdird` are a later change. Each operation gets one `request` root
//! span whose children are the layer calls made for it, one after the
//! other; a span's self time is its duration minus its children's. All
//! spans stay in memory until the replay ends and are then written to
//! `trace_<workload>.jsonl`.

use crate::gen::OpList;
use crate::run::Config;
use crate::stats::{median, us};
use netdir_filter::{AtomicFilter, Scope};
use netdir_index::IndexedDirectory;
use netdir_journal::JournalStore;
use netdir_model::{ldif, Dn};
use netdir_pager::default_pager;
use netdir_query::{parse_query, Evaluator, Planner, Query};
use netdir_server::node::decode_entries;
use netdir_server::{Cluster, ClusterBuilder, ConsistencyMode};
use netdir_wire::frame::frame_len;
use netdir_wire::{encode_entries, WireRequest, WireResponse};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Batches replayed with spans (after the untimed ones, which are
/// applied without, so the journal is in the state the daemon's was).
const TRACED_BATCHES: usize = 60;

struct Span {
    parent: Option<usize>,
    /// The operation the span belongs to (spans of one share it).
    request: usize,
    name: &'static str,
    start: Duration,
    end: Duration,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn enter(&mut self, name: &'static str, request: usize) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            request,
            name,
            start: now,
            end: now,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    fn exit(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
    }

    /// A leaf span around `f`.
    fn time<R>(&mut self, name: &'static str, request: usize, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, request);
        let out = f();
        self.exit(id);
        out
    }

    fn duration(&self, id: usize) -> Duration {
        self.spans[id].end - self.spans[id].start
    }

    /// Durations, in µs, of every span called `name`.
    fn durations_us(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&id| self.spans[id].name == name)
            .map(|id| us(self.duration(id)))
            .collect()
    }

    fn median_us(&self, name: &str) -> Result<f64, String> {
        let d = self.durations_us(name);
        if d.is_empty() {
            return Err(format!("the traced run recorded no {name} span"));
        }
        Ok(median(&d))
    }

    /// Self time of the `request` spans — their duration minus their
    /// children's — as a share of their duration: span bookkeeping and
    /// the glue between layer calls.
    fn request_self_time_pct(&self) -> f64 {
        let (mut requests, mut covered) = (Duration::ZERO, Duration::ZERO);
        for id in 0..self.spans.len() {
            match self.spans[id].parent {
                Some(p) if self.spans[p].name == "request" => covered += self.duration(id),
                None if self.spans[id].name == "request" => requests += self.duration(id),
                _ => {}
            }
        }
        (requests - covered).as_secs_f64() / requests.as_secs_f64() * 100.0
    }

    fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.request,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// The cluster `netdird` builds with no `--context`: one server, `root`,
/// owning the whole namespace.
fn build_cluster(dir: &netdir_model::Directory) -> Cluster {
    ClusterBuilder::new().server("root", Dn::root()).build(dir)
}

/// The atomic sub-queries of `q`, in operand order.
fn atomic_leaves<'q>(q: &'q Query, out: &mut Vec<(&'q Dn, Scope, &'q AtomicFilter)>) {
    match q {
        Query::Atomic {
            base,
            scope,
            filter,
        } => out.push((base, *scope, filter)),
        Query::And(a, b) | Query::Or(a, b) | Query::Diff(a, b) => {
            atomic_leaves(a, out);
            atomic_leaves(b, out);
        }
        Query::Hier { q1, q2, .. } | Query::EmbedRef { q1, q2, .. } => {
            atomic_leaves(q1, out);
            atomic_leaves(q2, out);
        }
        Query::HierPath { q1, q2, q3, .. } => {
            atomic_leaves(q1, out);
            atomic_leaves(q2, out);
            atomic_leaves(q3, out);
        }
        Query::AggSelect { query, .. } => atomic_leaves(query, out),
    }
}

/// Per-query page counts of the scratch pagers the daemon's path used.
#[derive(Default)]
struct PageCounts {
    queries: f64,
    reads: f64,
    writes: f64,
    evictions: f64,
    hits: f64,
    misses: f64,
}

/// Replay `ops` in-process and return the per-layer metrics measured
/// here.
pub fn replay(
    cfg: &Config,
    ldif_text: &str,
    ops: &OpList,
    out_dir: &Path,
) -> Result<Vec<(&'static str, f64)>, String> {
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("traced run: {what}: {e}");
    let mut tracer = Tracer::new();

    // Set-up layers, in the order the daemon goes through them.
    let parsed = tracer.time("model.ldif_parse", 0, || {
        ldif::directory_from_ldif(ldif_text)
    });
    let parsed = parsed.map_err(|e| fail("LDIF", &e))?;
    let journal_pager = default_pager();
    let journal = tracer.time("journal.create", 0, || {
        JournalStore::create(&journal_pager, parsed)
    });
    let journal = journal.map_err(|e| fail("journal", &e))?;
    let cluster = tracer.time("server.cluster_build", 0, || {
        journal.with_directory(build_cluster)
    });
    let cluster = Arc::new(cluster);
    let index_pager = default_pager();
    let index = journal
        .with_directory(|d| IndexedDirectory::build(&index_pager, d))
        .map_err(|e| fail("index", &e))?;
    let planner = Planner::new();

    // The reads replayed: the first timed window.
    let timed = ops.reads.len() - ops.read_warmup;
    let replayed = ops.read_warmup..ops.read_warmup + timed / crate::stats::WINDOWS;
    let query_on_server = |q: &Query| {
        let pager = default_pager();
        let out = cluster.query_from_with("root", &pager, q, ConsistencyMode::Strict);
        (out, pager)
    };

    // The untraced measurement: the server call alone, under a plain
    // timer. It runs right before the traced request of an operation or
    // right after it, so a slow phase of the box hits both, and which
    // one is a scrambled bit of the operation's index — not its parity,
    // which template rotation ties to the kind of query — so neither
    // side more often finds the caches the other left warm.
    let mut untraced = Vec::with_capacity(timed);
    let mut untraced_call = |text: &str| -> Result<(), String> {
        let q = parse_query(text).map_err(|e| fail("parse", &e))?;
        let t = Instant::now();
        let (out, _) = query_on_server(&q);
        untraced.push(us(t.elapsed()));
        out.map(drop).map_err(|e| fail(text, &e))
    };

    let mut pages = PageCounts::default();
    let mut resp_bytes = Vec::with_capacity(timed);
    let mut route_us = Vec::with_capacity(timed);
    for op in replayed {
        let text = &ops.reads[op];
        let untraced_first = (op as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 63 == 0;
        if untraced_first {
            untraced_call(text)?;
        }
        let root = tracer.enter("request", op);
        let request = WireRequest::Query {
            home: String::new(),
            text: text.clone(),
        };
        tracer.time("wire.req_encode", op, || request.encode());
        let q = tracer.time("core.parse", op, || parse_query(text));
        let q = q.map_err(|e| fail("parse", &e))?;
        tracer.time("core.plan", op, || planner.plan(&q));
        let server = tracer.enter("server.query", op);
        let (outcome, pager) = query_on_server(&q);
        tracer.exit(server);
        let outcome = outcome.map_err(|e| fail(text, &e))?;
        let io = pager.io();
        let pool = pager.pool().metrics();
        pages.queries += 1.0;
        pages.reads += io.reads as f64;
        pages.writes += io.writes as f64;
        pages.evictions += pool.evictions as f64;
        pages.hits += pool.hits as f64;
        pages.misses += pool.misses as f64;
        let eval = tracer.enter("core.eval", op);
        let evaluated = Evaluator::new(&index, &default_pager())
            .evaluate(&q)
            .map_err(|e| fail(text, &e))?
            .to_vec();
        tracer.exit(eval);
        evaluated.map_err(|e| fail(text, &e))?;
        route_us.push(us(tracer.duration(server)) - us(tracer.duration(eval)));
        let mut leaves = Vec::new();
        atomic_leaves(&q, &mut leaves);
        for (base, scope, filter) in leaves {
            let got = tracer.time("index.atomic", op, || {
                cluster
                    .router()
                    .atomic(0, &default_pager(), base, scope, filter)
            });
            got.map_err(|e| fail(text, &e))?;
        }
        let encoded = tracer.time("wire.entries_encode", op, || {
            encode_entries(&outcome.entries)
        });
        // Outside any span: the table has no name for response framing.
        let payload = WireResponse::Entries(encoded).encode();
        resp_bytes.push(frame_len(payload.len()) as f64);
        let decoded = tracer.time("wire.resp_decode", op, || WireResponse::decode(&payload));
        let Ok(WireResponse::Entries(shipped)) = decoded else {
            return Err(format!("traced run: response of {text} does not decode"));
        };
        let entries = tracer.time("model.entry_decode", op, || decode_entries(&shipped));
        entries.map_err(|e| fail(text, &e))?;
        tracer.exit(root);
        if !untraced_first {
            untraced_call(text)?;
        }
    }

    // Mutations: untimed ones first, without spans.
    let wal_file = out_dir.join("traced.wal");
    let mut serving = cluster;
    let traced_until = ops.batches.len().min(ops.batch_warmup + TRACED_BATCHES);
    let traced = traced_until - ops.batch_warmup;
    let mut wal_growth = 0usize;
    for (i, batch) in ops.batches[..traced_until].iter().enumerate() {
        if i < ops.batch_warmup {
            journal
                .apply(batch)
                .map_err(|e| fail("warm-up batch", &e))?;
            continue;
        }
        let request_id = ops.reads.len() + i;
        let before = journal.wal_bytes().map_err(|e| fail("wal", &e))?.len();
        let root = tracer.enter("request", request_id);
        let request = WireRequest::Mutate {
            batch: batch.clone(),
        };
        tracer.time("wire.mutate_encode", request_id, || request.encode());
        let applied = tracer.time("journal.apply", request_id, || journal.apply(batch));
        applied.map_err(|e| fail("batch", &e))?;
        // As `netdird --wal` persists: the whole image, rewritten.
        let persisted = tracer.time("journal.wal_persist", request_id, || {
            journal
                .wal_bytes()
                .map_err(|e| e.to_string())
                .and_then(|bytes| {
                    std::fs::write(&wal_file, &bytes).map_err(|e| e.to_string())?;
                    Ok(bytes.len())
                })
        });
        let after = persisted.map_err(|e| fail("wal persist", &e))?;
        wal_growth += after - before;
        // Build the next generation and swap it in, which drops the
        // previous one, as the daemon does on every batch.
        tracer.time("server.rebuild", request_id, || {
            serving = Arc::new(journal.with_directory(build_cluster));
        });
        tracer.exit(root);
    }
    let _ = std::fs::remove_file(&wal_file);

    let trace_path = cfg.out.join(format!("trace_{}.jsonl", cfg.workload.name()));
    tracer.write_jsonl(&trace_path)?;

    let traced_server = tracer.median_us("server.query")?;
    Ok(vec![
        (
            "model.ldif_parse_s",
            tracer.median_us("model.ldif_parse")? / 1e6,
        ),
        (
            "journal.create_s",
            tracer.median_us("journal.create")? / 1e6,
        ),
        (
            "server.cluster_build_s",
            tracer.median_us("server.cluster_build")? / 1e6,
        ),
        ("wire.req_encode_us", tracer.median_us("wire.req_encode")?),
        ("wire.resp_decode_us", tracer.median_us("wire.resp_decode")?),
        (
            "wire.entries_encode_us",
            tracer.median_us("wire.entries_encode")?,
        ),
        ("wire.resp_bytes", median(&resp_bytes)),
        (
            "model.entry_decode_us",
            tracer.median_us("model.entry_decode")?,
        ),
        ("core.parse_us", tracer.median_us("core.parse")?),
        ("core.plan_us", tracer.median_us("core.plan")?),
        ("core.eval_us", tracer.median_us("core.eval")?),
        ("server.query_us", traced_server),
        ("server.route_us", median(&route_us)),
        ("index.atomic_us", tracer.median_us("index.atomic")?),
        ("pager.reads_per_query", pages.reads / pages.queries),
        ("pager.writes_per_query", pages.writes / pages.queries),
        ("pager.evictions_per_query", pages.evictions / pages.queries),
        (
            "pager.pool_hit_rate",
            pages.hits / (pages.hits + pages.misses).max(1.0),
        ),
        ("journal.apply_us", tracer.median_us("journal.apply")?),
        (
            "server.rebuild_ms",
            tracer.median_us("server.rebuild")? / 1e3,
        ),
        (
            "journal.wal_bytes_per_batch",
            wal_growth as f64 / traced as f64,
        ),
        (
            "journal.wal_persist_us",
            tracer.median_us("journal.wal_persist")?,
        ),
        (
            "wire.mutate_encode_us",
            tracer.median_us("wire.mutate_encode")?,
        ),
        ("trace.spans", tracer.spans.len() as f64),
        ("trace.self_time_pct", tracer.request_self_time_pct()),
        (
            "trace.overhead_pct",
            (traced_server / median(&untraced) - 1.0) * 100.0,
        ),
    ])
}

//! Frame payload encoding: requests and responses.
//!
//! The codec reuses the repository's existing building blocks rather
//! than inventing parallel ones:
//!
//! * DNs travel as their canonical text — `Dn`'s `Display → parse` is an
//!   identity (property-tested in netdir-model), so text is unambiguous
//!   and diffable on the wire.
//! * Filters travel **structurally** (one tag byte per variant).
//!   `AtomicFilter`'s `Display` is deliberately *not* parse-stable
//!   (`True` renders as `objectClass=*`, `DnEq` as `Eq`), so text would
//!   silently change filter semantics in transit.
//! * Full L0–L3 queries travel as query text: both ends run the same
//!   parser, so a query means the same thing shipped as it meant typed.
//! * Entries travel in their on-page [`Record`] encoding — byte-identical
//!   to what the in-process transport ships, which is what lets
//!   the integration tests assert TCP and in-process results match byte
//!   for byte.
//!
//! Primitive fields use the pager's little-endian record codec
//! ([`netdir_pager::record::codec`]); the frame length prefix
//! ([`crate::frame`]) is the only big-endian piece of the protocol.

use bytes::Bytes;
use netdir_filter::atomic::IntOp;
use netdir_filter::{AtomicFilter, CompositeFilter, Scope, SubstringPattern};
use netdir_journal::MutationBatch;
use netdir_model::{AttrName, Dn};
use netdir_obs::{OperatorSpan, QueryTrace};
use netdir_pager::record::codec::{put_i64, put_str, put_u32, Reader};
use netdir_pager::record::Record;
use netdir_pager::{PagerError, PagerResult};
use netdir_server::PartitionError;

/// A request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum WireRequest {
    /// Liveness probe.
    Ping,
    /// Evaluate an atomic query against the receiving server.
    Atomic {
        /// Base DN.
        base: Dn,
        /// Scope.
        scope: Scope,
        /// Filter.
        filter: AtomicFilter,
    },
    /// Evaluate a baseline LDAP query against the receiving server.
    Ldap {
        /// Base DN.
        base: Dn,
        /// Scope.
        scope: Scope,
        /// Composite filter.
        filter: CompositeFilter,
    },
    /// Evaluate a full L0–L3 query, distributed-style, as posed to the
    /// server named `home` (empty = the receiving server).
    Query {
        /// Name of the server the query is posed to.
        home: String,
        /// Query text (parsed by `netdir_query::parse_query` remotely).
        text: String,
    },
    /// Ask the daemon to shut down gracefully after acknowledging.
    Shutdown,
    /// Like `Query`, but under `ConsistencyMode::Partial`: unreachable
    /// zones are skipped and reported instead of failing the query.
    /// A separate tag (never emitted by strict-mode callers) keeps
    /// pre-fault-model traffic byte-identical on the wire.
    QueryPartial {
        /// Name of the server the query is posed to.
        home: String,
        /// Query text (parsed by `netdir_query::parse_query` remotely).
        text: String,
    },
    /// Ask for the daemon's metrics in Prometheus exposition format.
    /// A new tag beyond the legacy range: version tolerance means a
    /// pre-observability peer answers with an "unknown request tag"
    /// error rather than misparsing, and strict query traffic is
    /// untouched.
    Stats,
    /// Like `Query`, but the response also carries a per-operator
    /// [`QueryTrace`] — `EXPLAIN ANALYZE` over the wire.
    QueryAnalyze {
        /// Name of the server the query is posed to.
        home: String,
        /// Query text (parsed by `netdir_query::parse_query` remotely).
        text: String,
    },
    /// Apply a mutation batch atomically against the receiving daemon's
    /// journal. Another tag beyond the legacy range: read-only peers
    /// answer "unknown request tag" rather than misparsing, and
    /// read-only traffic stays byte-identical.
    Mutate {
        /// The batch, applied all-or-nothing.
        batch: MutationBatch,
    },
}

/// A response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum WireResponse {
    /// Acknowledgement carrying no entries (Ping, Shutdown).
    Pong,
    /// Sorted result entries in their on-page encoding.
    Entries(Vec<Vec<u8>>),
    /// The request failed remotely.
    Error(String),
    /// A degraded (partial) result: the surviving partitions' entries
    /// plus an account of every zone that could not be reached. Only
    /// ever sent in answer to a `QueryPartial` request.
    Partial {
        /// Sorted surviving entries in their on-page encoding.
        entries: Vec<Vec<u8>>,
        /// Zones skipped by graceful degradation.
        skipped: Vec<PartitionError>,
    },
    /// The daemon's metrics in Prometheus exposition format. Only ever
    /// sent in answer to a `Stats` request.
    Stats(String),
    /// A query result plus its per-operator trace. Only ever sent in
    /// answer to a `QueryAnalyze` request.
    Analyzed {
        /// Sorted result entries in their on-page encoding.
        entries: Vec<Vec<u8>>,
        /// The `EXPLAIN ANALYZE` trace of the remote evaluation.
        trace: QueryTrace,
    },
    /// A mutation batch committed. Only ever sent in answer to a
    /// `Mutate` request.
    Mutated {
        /// The journal epoch after the commit.
        epoch: u64,
        /// Mutations applied (the batch length).
        mutations: u32,
    },
    /// The daemon shed this request at admission — queue full, inflight
    /// cap reached, rate limit or anti-enumeration cap hit — without
    /// executing it. A new tag beyond the legacy range: pre-admission
    /// peers never see it, and admitted traffic stays byte-identical.
    /// Retryable after the hinted delay.
    Busy {
        /// Server's backoff hint; clients clamp it to their own policy.
        retry_after_ms: u32,
    },
    /// The request was admitted but its execution deadline expired
    /// before the evaluator finished; the worker was released and the
    /// partial work discarded. Unlike `Busy` this is **not** retryable:
    /// the same request would blow the same budget.
    DeadlineExceeded {
        /// The deadline that was exceeded, as configured on the daemon.
        budget_ms: u32,
    },
}

const REQ_PING: u8 = 0;
const REQ_ATOMIC: u8 = 1;
const REQ_LDAP: u8 = 2;
const REQ_QUERY: u8 = 3;
const REQ_SHUTDOWN: u8 = 4;
const REQ_QUERY_PARTIAL: u8 = 5;
const REQ_STATS: u8 = 6;
const REQ_QUERY_ANALYZE: u8 = 7;
const REQ_MUTATE: u8 = 8;

const RESP_PONG: u8 = 0;
const RESP_ENTRIES: u8 = 1;
const RESP_ERROR: u8 = 2;
const RESP_PARTIAL: u8 = 3;
const RESP_STATS: u8 = 4;
const RESP_ANALYZED: u8 = 5;
const RESP_MUTATED: u8 = 6;
const RESP_BUSY: u8 = 7;
const RESP_DEADLINE: u8 = 8;

const AF_PRESENT: u8 = 0;
const AF_EQ: u8 = 1;
const AF_SUBSTRING: u8 = 2;
const AF_INTCMP: u8 = 3;
const AF_DNEQ: u8 = 4;
const AF_TRUE: u8 = 5;
const AF_FALSE: u8 = 6;

const CF_ATOMIC: u8 = 0;
const CF_AND: u8 = 1;
const CF_OR: u8 = 2;
const CF_NOT: u8 = 3;

fn corrupt(detail: impl Into<String>) -> PagerError {
    PagerError::CorruptRecord {
        detail: detail.into(),
    }
}

fn put_scope(out: &mut Vec<u8>, scope: Scope) {
    out.push(match scope {
        Scope::Base => 0,
        Scope::One => 1,
        Scope::Sub => 2,
    });
}

fn get_scope(r: &mut Reader<'_>) -> PagerResult<Scope> {
    match r.get_u8()? {
        0 => Ok(Scope::Base),
        1 => Ok(Scope::One),
        2 => Ok(Scope::Sub),
        t => Err(corrupt(format!("unknown scope tag {t}"))),
    }
}

fn put_dn(out: &mut Vec<u8>, dn: &Dn) {
    put_str(out, &dn.to_string());
}

fn get_dn(r: &mut Reader<'_>) -> PagerResult<Dn> {
    let s = r.get_str()?;
    Dn::parse(s).map_err(|e| corrupt(format!("bad DN on wire: {e}")))
}

fn put_opt_str(out: &mut Vec<u8>, v: &Option<String>) {
    match v {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
    }
}

fn get_opt_str(r: &mut Reader<'_>) -> PagerResult<Option<String>> {
    match r.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.get_str()?.to_string())),
        t => Err(corrupt(format!("bad option tag {t}"))),
    }
}

fn put_int_op(out: &mut Vec<u8>, op: IntOp) {
    out.push(match op {
        IntOp::Lt => 0,
        IntOp::Le => 1,
        IntOp::Gt => 2,
        IntOp::Ge => 3,
        IntOp::Eq => 4,
    });
}

fn get_int_op(r: &mut Reader<'_>) -> PagerResult<IntOp> {
    match r.get_u8()? {
        0 => Ok(IntOp::Lt),
        1 => Ok(IntOp::Le),
        2 => Ok(IntOp::Gt),
        3 => Ok(IntOp::Ge),
        4 => Ok(IntOp::Eq),
        t => Err(corrupt(format!("unknown int-op tag {t}"))),
    }
}

/// Append the structural encoding of an atomic filter.
pub fn put_atomic_filter(out: &mut Vec<u8>, f: &AtomicFilter) {
    match f {
        AtomicFilter::Present(a) => {
            out.push(AF_PRESENT);
            put_str(out, a.as_str());
        }
        AtomicFilter::Eq(a, v) => {
            out.push(AF_EQ);
            put_str(out, a.as_str());
            put_str(out, v);
        }
        AtomicFilter::Substring(a, pat) => {
            out.push(AF_SUBSTRING);
            put_str(out, a.as_str());
            put_opt_str(out, &pat.initial);
            put_u32(out, pat.any.len() as u32);
            for frag in &pat.any {
                put_str(out, frag);
            }
            put_opt_str(out, &pat.final_);
        }
        AtomicFilter::IntCmp(a, op, v) => {
            out.push(AF_INTCMP);
            put_str(out, a.as_str());
            put_int_op(out, *op);
            put_i64(out, *v);
        }
        AtomicFilter::DnEq(a, dn) => {
            out.push(AF_DNEQ);
            put_str(out, a.as_str());
            put_dn(out, dn);
        }
        AtomicFilter::True => out.push(AF_TRUE),
        AtomicFilter::False => out.push(AF_FALSE),
    }
}

/// Decode one structurally-encoded atomic filter.
pub fn get_atomic_filter(r: &mut Reader<'_>) -> PagerResult<AtomicFilter> {
    match r.get_u8()? {
        AF_PRESENT => Ok(AtomicFilter::Present(AttrName::new(r.get_str()?))),
        AF_EQ => {
            let a = AttrName::new(r.get_str()?);
            let v = r.get_str()?.to_string();
            Ok(AtomicFilter::Eq(a, v))
        }
        AF_SUBSTRING => {
            let a = AttrName::new(r.get_str()?);
            let initial = get_opt_str(r)?;
            let n = r.get_u32()? as usize;
            let mut any = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                any.push(r.get_str()?.to_string());
            }
            let final_ = get_opt_str(r)?;
            Ok(AtomicFilter::Substring(
                a,
                SubstringPattern { initial, any, final_ },
            ))
        }
        AF_INTCMP => {
            let a = AttrName::new(r.get_str()?);
            let op = get_int_op(r)?;
            let v = r.get_i64()?;
            Ok(AtomicFilter::IntCmp(a, op, v))
        }
        AF_DNEQ => {
            let a = AttrName::new(r.get_str()?);
            let dn = get_dn(r)?;
            Ok(AtomicFilter::DnEq(a, dn))
        }
        AF_TRUE => Ok(AtomicFilter::True),
        AF_FALSE => Ok(AtomicFilter::False),
        t => Err(corrupt(format!("unknown atomic-filter tag {t}"))),
    }
}

/// Append the structural encoding of a composite (LDAP) filter.
pub fn put_composite_filter(out: &mut Vec<u8>, f: &CompositeFilter) {
    match f {
        CompositeFilter::Atomic(a) => {
            out.push(CF_ATOMIC);
            put_atomic_filter(out, a);
        }
        CompositeFilter::And(fs) => {
            out.push(CF_AND);
            put_u32(out, fs.len() as u32);
            for f in fs {
                put_composite_filter(out, f);
            }
        }
        CompositeFilter::Or(fs) => {
            out.push(CF_OR);
            put_u32(out, fs.len() as u32);
            for f in fs {
                put_composite_filter(out, f);
            }
        }
        CompositeFilter::Not(f) => {
            out.push(CF_NOT);
            put_composite_filter(out, f);
        }
    }
}

/// Decode one structurally-encoded composite filter.
pub fn get_composite_filter(r: &mut Reader<'_>) -> PagerResult<CompositeFilter> {
    // Depth is naturally bounded: every nesting level consumes at least
    // one payload byte and payloads are frame-capped.
    match r.get_u8()? {
        CF_ATOMIC => Ok(CompositeFilter::Atomic(get_atomic_filter(r)?)),
        CF_AND => {
            let n = r.get_u32()? as usize;
            let mut fs = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                fs.push(get_composite_filter(r)?);
            }
            Ok(CompositeFilter::And(fs))
        }
        CF_OR => {
            let n = r.get_u32()? as usize;
            let mut fs = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                fs.push(get_composite_filter(r)?);
            }
            Ok(CompositeFilter::Or(fs))
        }
        CF_NOT => Ok(CompositeFilter::Not(Box::new(get_composite_filter(r)?))),
        t => Err(corrupt(format!("unknown composite-filter tag {t}"))),
    }
}

fn put_partition_error(out: &mut Vec<u8>, p: &PartitionError) {
    put_dn(out, &p.zone);
    put_u32(out, p.servers.len() as u32);
    for &id in &p.servers {
        put_u32(out, id as u32);
    }
    put_str(out, &p.detail);
}

fn get_partition_error(r: &mut Reader<'_>) -> PagerResult<PartitionError> {
    let zone = get_dn(r)?;
    let n = r.get_u32()? as usize;
    let mut servers = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        servers.push(r.get_u32()? as usize);
    }
    let detail = r.get_str()?.to_string();
    Ok(PartitionError {
        zone,
        servers,
        detail,
    })
}

// Unsigned and floating-point fields ride the record codec's i64 slot:
// u64 through a lossless bit-cast, f64 through its IEEE-754 bits. Both
// directions are exact, so traces survive the wire unchanged.

fn put_u64(out: &mut Vec<u8>, v: u64) {
    put_i64(out, v as i64);
}

fn get_u64(r: &mut Reader<'_>) -> PagerResult<u64> {
    Ok(r.get_i64()? as u64)
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_i64(out, v.to_bits() as i64);
}

fn get_f64(r: &mut Reader<'_>) -> PagerResult<f64> {
    Ok(f64::from_bits(r.get_i64()? as u64))
}

fn put_trace(out: &mut Vec<u8>, t: &QueryTrace) {
    put_str(out, &t.query);
    put_u32(out, t.spans.len() as u32);
    for s in &t.spans {
        put_str(out, &s.node);
        put_u32(out, s.depth);
        put_u64(out, s.entries_in);
        put_u64(out, s.entries_out);
        put_u64(out, s.pages_out);
        put_u64(out, s.reads);
        put_u64(out, s.writes);
        put_u64(out, s.elapsed_nanos);
        put_f64(out, s.predicted_io);
    }
    put_f64(out, t.predicted_io);
    put_u64(out, t.observed_io);
    put_u64(out, t.elapsed_nanos);
}

fn get_trace(r: &mut Reader<'_>) -> PagerResult<QueryTrace> {
    let query = r.get_str()?.to_string();
    let n = r.get_u32()? as usize;
    let mut spans = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let node = r.get_str()?.to_string();
        let depth = r.get_u32()?;
        spans.push(OperatorSpan {
            node,
            depth,
            entries_in: get_u64(r)?,
            entries_out: get_u64(r)?,
            pages_out: get_u64(r)?,
            reads: get_u64(r)?,
            writes: get_u64(r)?,
            elapsed_nanos: get_u64(r)?,
            predicted_io: get_f64(r)?,
        });
    }
    Ok(QueryTrace {
        query,
        spans,
        predicted_io: get_f64(r)?,
        observed_io: get_u64(r)?,
        elapsed_nanos: get_u64(r)?,
    })
}

fn put_encoded_entries(out: &mut Vec<u8>, entries: &[Vec<u8>]) {
    put_u32(out, entries.len() as u32);
    for e in entries {
        put_u32(out, e.len() as u32);
        out.extend_from_slice(e);
    }
}

fn get_encoded_entries(r: &mut Reader<'_>) -> PagerResult<Vec<Vec<u8>>> {
    let n = r.get_u32()? as usize;
    let mut entries = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        entries.push(r.get_bytes()?.to_vec());
    }
    Ok(entries)
}

impl WireRequest {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::new();
        match self {
            WireRequest::Ping => out.push(REQ_PING),
            WireRequest::Atomic { base, scope, filter } => {
                out.push(REQ_ATOMIC);
                put_dn(&mut out, base);
                put_scope(&mut out, *scope);
                put_atomic_filter(&mut out, filter);
            }
            WireRequest::Ldap { base, scope, filter } => {
                out.push(REQ_LDAP);
                put_dn(&mut out, base);
                put_scope(&mut out, *scope);
                put_composite_filter(&mut out, filter);
            }
            WireRequest::Query { home, text } => {
                out.push(REQ_QUERY);
                put_str(&mut out, home);
                put_str(&mut out, text);
            }
            WireRequest::Shutdown => out.push(REQ_SHUTDOWN),
            WireRequest::QueryPartial { home, text } => {
                out.push(REQ_QUERY_PARTIAL);
                put_str(&mut out, home);
                put_str(&mut out, text);
            }
            WireRequest::Stats => out.push(REQ_STATS),
            WireRequest::QueryAnalyze { home, text } => {
                out.push(REQ_QUERY_ANALYZE);
                put_str(&mut out, home);
                put_str(&mut out, text);
            }
            WireRequest::Mutate { batch } => {
                out.push(REQ_MUTATE);
                // The batch's Record encoding, length-framed — the same
                // bytes the journal logs to its WAL.
                let mut body = Vec::new();
                batch.encode(&mut body);
                put_u32(&mut out, body.len() as u32);
                out.extend_from_slice(&body);
            }
        }
        Bytes::from(out)
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> PagerResult<WireRequest> {
        let mut r = Reader::new(payload);
        let req = match r.get_u8()? {
            REQ_PING => WireRequest::Ping,
            REQ_ATOMIC => {
                let base = get_dn(&mut r)?;
                let scope = get_scope(&mut r)?;
                let filter = get_atomic_filter(&mut r)?;
                WireRequest::Atomic { base, scope, filter }
            }
            REQ_LDAP => {
                let base = get_dn(&mut r)?;
                let scope = get_scope(&mut r)?;
                let filter = get_composite_filter(&mut r)?;
                WireRequest::Ldap { base, scope, filter }
            }
            REQ_QUERY => {
                let home = r.get_str()?.to_string();
                let text = r.get_str()?.to_string();
                WireRequest::Query { home, text }
            }
            REQ_SHUTDOWN => WireRequest::Shutdown,
            REQ_QUERY_PARTIAL => {
                let home = r.get_str()?.to_string();
                let text = r.get_str()?.to_string();
                WireRequest::QueryPartial { home, text }
            }
            REQ_STATS => WireRequest::Stats,
            REQ_QUERY_ANALYZE => {
                let home = r.get_str()?.to_string();
                let text = r.get_str()?.to_string();
                WireRequest::QueryAnalyze { home, text }
            }
            REQ_MUTATE => {
                let batch = MutationBatch::decode(r.get_bytes()?)?;
                WireRequest::Mutate { batch }
            }
            t => return Err(corrupt(format!("unknown request tag {t}"))),
        };
        r.finish()?;
        Ok(req)
    }
}

impl WireResponse {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::new();
        match self {
            WireResponse::Pong => out.push(RESP_PONG),
            WireResponse::Entries(entries) => {
                out.push(RESP_ENTRIES);
                put_encoded_entries(&mut out, entries);
            }
            WireResponse::Error(msg) => {
                out.push(RESP_ERROR);
                put_str(&mut out, msg);
            }
            WireResponse::Partial { entries, skipped } => {
                out.push(RESP_PARTIAL);
                put_encoded_entries(&mut out, entries);
                put_u32(&mut out, skipped.len() as u32);
                for p in skipped {
                    put_partition_error(&mut out, p);
                }
            }
            WireResponse::Stats(text) => {
                out.push(RESP_STATS);
                put_str(&mut out, text);
            }
            WireResponse::Analyzed { entries, trace } => {
                out.push(RESP_ANALYZED);
                put_encoded_entries(&mut out, entries);
                put_trace(&mut out, trace);
            }
            WireResponse::Mutated { epoch, mutations } => {
                out.push(RESP_MUTATED);
                put_u64(&mut out, *epoch);
                put_u32(&mut out, *mutations);
            }
            WireResponse::Busy { retry_after_ms } => {
                out.push(RESP_BUSY);
                put_u32(&mut out, *retry_after_ms);
            }
            WireResponse::DeadlineExceeded { budget_ms } => {
                out.push(RESP_DEADLINE);
                put_u32(&mut out, *budget_ms);
            }
        }
        Bytes::from(out)
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> PagerResult<WireResponse> {
        let mut r = Reader::new(payload);
        let resp = match r.get_u8()? {
            RESP_PONG => WireResponse::Pong,
            RESP_ENTRIES => WireResponse::Entries(get_encoded_entries(&mut r)?),
            RESP_ERROR => WireResponse::Error(r.get_str()?.to_string()),
            RESP_PARTIAL => {
                let entries = get_encoded_entries(&mut r)?;
                let n = r.get_u32()? as usize;
                let mut skipped = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    skipped.push(get_partition_error(&mut r)?);
                }
                WireResponse::Partial { entries, skipped }
            }
            RESP_STATS => WireResponse::Stats(r.get_str()?.to_string()),
            RESP_ANALYZED => {
                let entries = get_encoded_entries(&mut r)?;
                let trace = get_trace(&mut r)?;
                WireResponse::Analyzed { entries, trace }
            }
            RESP_MUTATED => {
                let epoch = get_u64(&mut r)?;
                let mutations = r.get_u32()?;
                WireResponse::Mutated { epoch, mutations }
            }
            RESP_BUSY => WireResponse::Busy {
                retry_after_ms: r.get_u32()?,
            },
            RESP_DEADLINE => WireResponse::DeadlineExceeded {
                budget_ms: r.get_u32()?,
            },
            t => return Err(corrupt(format!("unknown response tag {t}"))),
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdir_pager::record::Record;

    fn dn(s: &str) -> Dn {
        Dn::parse(s).unwrap()
    }

    fn round_trip_req(req: WireRequest) {
        let bytes = req.encode();
        let back = WireRequest::decode(&bytes).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_req(WireRequest::Ping);
        round_trip_req(WireRequest::Shutdown);
        round_trip_req(WireRequest::Stats);
        round_trip_req(WireRequest::Query {
            home: "att".into(),
            text: "(dc=com ? sub ? surName=jagadish)".into(),
        });
        round_trip_req(WireRequest::QueryPartial {
            home: "att".into(),
            text: "(dc=com ? sub ? surName=jagadish)".into(),
        });
        round_trip_req(WireRequest::QueryAnalyze {
            home: "att".into(),
            text: "(dc=com ? sub ? surName=jagadish)".into(),
        });
        for filter in [
            AtomicFilter::True,
            AtomicFilter::present("mail"),
            AtomicFilter::eq("surName", "Ume*da"), // literal star must survive
            AtomicFilter::Substring(
                AttrName::new("cn"),
                SubstringPattern::new(Some("ha"), &["ga", "d"], None),
            ),
            AtomicFilter::IntCmp(AttrName::new("priority"), IntOp::Ge, -7),
            AtomicFilter::DnEq(AttrName::new("manager"), dn("uid=j, dc=com")),
        ] {
            round_trip_req(WireRequest::Atomic {
                base: dn("ou=people, dc=att, dc=com"),
                scope: Scope::Sub,
                filter,
            });
        }
        round_trip_req(WireRequest::Ldap {
            base: dn("dc=com"),
            scope: Scope::One,
            filter: netdir_filter::parse_composite(
                "(&(objectClass=person)(|(cn=ha*sh)(!(priority>=3))))",
            )
            .unwrap(),
        });
    }

    #[test]
    fn mutate_round_trips() {
        use netdir_journal::{Mutation, MutationBatch};
        let e = netdir_model::Entry::builder(dn("uid=new, dc=att, dc=com"))
            .class("person")
            .attr("surName", "fresh")
            .attr("priority", 3i64)
            .build()
            .unwrap();
        let batch = MutationBatch::from_mutations(vec![
            Mutation::Add(e),
            Mutation::Modify {
                dn: dn("uid=new, dc=att, dc=com"),
                add: vec![("title".into(), netdir_model::Value::Str("dr".into()))],
                remove: vec![],
                remove_attrs: vec!["priority".into()],
            },
            Mutation::Delete(dn("uid=old, dc=att, dc=com")),
        ]);
        round_trip_req(WireRequest::Mutate { batch });
        round_trip_req(WireRequest::Mutate {
            batch: MutationBatch::new(),
        });
        let resp = WireResponse::Mutated {
            epoch: u64::MAX - 3,
            mutations: 42,
        };
        assert_eq!(WireResponse::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn true_and_dneq_survive_unlike_their_display_forms() {
        // Display renders True as "objectClass=*", which parses back as
        // Present — the structural codec must not fall into that trap.
        let req = WireRequest::Atomic {
            base: Dn::root(),
            scope: Scope::Sub,
            filter: AtomicFilter::True,
        };
        match WireRequest::decode(&req.encode()).unwrap() {
            WireRequest::Atomic {
                filter: AtomicFilter::True,
                ..
            } => {}
            other => panic!("True mangled in transit: {other:?}"),
        }
    }

    #[test]
    fn responses_round_trip() {
        let e = netdir_model::Entry::builder(dn("uid=a, dc=com"))
            .class("person")
            .attr("cn", "Alice")
            .build()
            .unwrap();
        let mut buf = Vec::new();
        e.encode(&mut buf);
        for resp in [
            WireResponse::Pong,
            WireResponse::Error("zone unreachable".into()),
            WireResponse::Entries(vec![]),
            WireResponse::Entries(vec![buf.clone(), vec![1, 2, 3]]),
            WireResponse::Partial {
                entries: vec![buf.clone()],
                skipped: vec![],
            },
            WireResponse::Partial {
                entries: vec![buf.clone(), vec![9, 9]],
                skipped: vec![
                    PartitionError {
                        zone: dn("dc=research, dc=att, dc=com"),
                        servers: vec![2, 5],
                        detail: "server 2: i/o timeout".into(),
                    },
                    PartitionError {
                        zone: dn("dc=org"),
                        servers: vec![3],
                        detail: "no live server".into(),
                    },
                ],
            },
        ] {
            let bytes = resp.encode();
            assert_eq!(WireResponse::decode(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn overload_responses_round_trip() {
        for resp in [
            WireResponse::Busy { retry_after_ms: 0 },
            WireResponse::Busy {
                retry_after_ms: u32::MAX,
            },
            WireResponse::DeadlineExceeded { budget_ms: 0 },
            WireResponse::DeadlineExceeded {
                budget_ms: u32::MAX,
            },
        ] {
            let bytes = resp.encode();
            assert_eq!(WireResponse::decode(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn stats_and_analyzed_responses_round_trip() {
        use netdir_obs::{OperatorSpan, QueryTrace};
        let stats = WireResponse::Stats(
            "# TYPE netdir_queries_total counter\nnetdir_queries_total 7\n".into(),
        );
        assert_eq!(WireResponse::decode(&stats.encode()).unwrap(), stats);
        // A trace with extreme values: f64 must survive bit-exactly,
        // u64 fields must not be mangled by the signed wire slot.
        let analyzed = WireResponse::Analyzed {
            entries: vec![vec![1, 2, 3]],
            trace: QueryTrace {
                query: "(dc=com ? sub ? objectClass=*)".into(),
                spans: vec![OperatorSpan {
                    node: "atomic".into(),
                    depth: 0,
                    entries_in: 0,
                    entries_out: 5,
                    pages_out: 1,
                    reads: u64::MAX,
                    writes: 3,
                    elapsed_nanos: u64::MAX - 1,
                    predicted_io: 0.1 + 0.2, // not exactly representable
                }],
                predicted_io: f64::MAX,
                observed_io: u64::MAX,
                elapsed_nanos: 12_345,
            },
        };
        assert_eq!(WireResponse::decode(&analyzed.encode()).unwrap(), analyzed);
    }

    #[test]
    fn strict_tags_are_unchanged_by_the_fault_model() {
        // Version tolerance: pre-fault-model peers never see the new
        // tags, so strict-mode traffic must stay byte-identical. Pin the
        // first byte of every legacy frame.
        assert_eq!(WireRequest::Ping.encode()[0], 0);
        assert_eq!(WireRequest::Shutdown.encode()[0], 4);
        let q = WireRequest::Query {
            home: "a".into(),
            text: "t".into(),
        };
        assert_eq!(q.encode()[0], 3);
        assert_eq!(WireResponse::Pong.encode()[0], 0);
        assert_eq!(WireResponse::Entries(vec![]).encode()[0], 1);
        assert_eq!(WireResponse::Error("e".into()).encode()[0], 2);
        // The new tags sit beyond the legacy range.
        let qp = WireRequest::QueryPartial {
            home: "a".into(),
            text: "t".into(),
        };
        assert_eq!(qp.encode()[0], 5);
        let p = WireResponse::Partial {
            entries: vec![],
            skipped: vec![],
        };
        assert_eq!(p.encode()[0], 3);
        // Observability tags extend the range again without renumbering.
        assert_eq!(WireRequest::Stats.encode()[0], 6);
        let qa = WireRequest::QueryAnalyze {
            home: "a".into(),
            text: "t".into(),
        };
        assert_eq!(qa.encode()[0], 7);
        assert_eq!(WireResponse::Stats(String::new()).encode()[0], 4);
        // The write path extends the range once more: Mutate/Mutated
        // sit past every read-only tag, so a read-only conversation
        // never produces them and an old peer rejects them cleanly.
        let m = WireRequest::Mutate {
            batch: netdir_journal::MutationBatch::new(),
        };
        assert_eq!(m.encode()[0], 8);
        let md = WireResponse::Mutated {
            epoch: 0,
            mutations: 0,
        };
        assert_eq!(md.encode()[0], 6);
        // The overload responses extend the range yet again: a daemon
        // under no overload never emits them, so pre-admission traffic
        // stays byte-identical, and an old peer rejects them cleanly.
        let b = WireResponse::Busy { retry_after_ms: 50 };
        assert_eq!(b.encode()[0], 7);
        let d = WireResponse::DeadlineExceeded { budget_ms: 100 };
        assert_eq!(d.encode()[0], 8);
        // And the legacy Query payload is byte-identical to its
        // pre-observability encoding: tag, then home and text as
        // length-prefixed strings.
        let q = WireRequest::Query {
            home: "a".into(),
            text: "t".into(),
        };
        let mut legacy = vec![3u8];
        put_str(&mut legacy, "a");
        put_str(&mut legacy, "t");
        assert_eq!(q.encode().to_vec(), legacy);
    }

    #[test]
    fn every_tag_round_trips_and_matches_the_committed_lockfile() {
        use std::collections::BTreeMap;

        // The committed freeze (also enforced statically by ndlint's
        // wire-tag-freeze lint; this test is the dynamic half).
        let lock_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../compat/wire_tags.lock");
        let text = std::fs::read_to_string(lock_path).expect("compat/wire_tags.lock exists");
        let mut locked: BTreeMap<String, u8> = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (name, value) = line.split_once('=').expect("lock line is `NAME = value`");
            let prev = locked.insert(
                name.trim().to_string(),
                value.trim().parse().expect("tag value fits u8"),
            );
            assert!(prev.is_none(), "duplicate lock entry {}", name.trim());
        }

        // The complete in-code tag table. Adding a constant to the
        // codec without extending this list (and the lockfile) fails
        // the set comparison below.
        let in_code: &[(&str, u8)] = &[
            ("REQ_PING", REQ_PING),
            ("REQ_ATOMIC", REQ_ATOMIC),
            ("REQ_LDAP", REQ_LDAP),
            ("REQ_QUERY", REQ_QUERY),
            ("REQ_SHUTDOWN", REQ_SHUTDOWN),
            ("REQ_QUERY_PARTIAL", REQ_QUERY_PARTIAL),
            ("REQ_STATS", REQ_STATS),
            ("REQ_QUERY_ANALYZE", REQ_QUERY_ANALYZE),
            ("REQ_MUTATE", REQ_MUTATE),
            ("RESP_PONG", RESP_PONG),
            ("RESP_ENTRIES", RESP_ENTRIES),
            ("RESP_ERROR", RESP_ERROR),
            ("RESP_PARTIAL", RESP_PARTIAL),
            ("RESP_STATS", RESP_STATS),
            ("RESP_ANALYZED", RESP_ANALYZED),
            ("RESP_MUTATED", RESP_MUTATED),
            ("RESP_BUSY", RESP_BUSY),
            ("RESP_DEADLINE", RESP_DEADLINE),
            ("AF_PRESENT", AF_PRESENT),
            ("AF_EQ", AF_EQ),
            ("AF_SUBSTRING", AF_SUBSTRING),
            ("AF_INTCMP", AF_INTCMP),
            ("AF_DNEQ", AF_DNEQ),
            ("AF_TRUE", AF_TRUE),
            ("AF_FALSE", AF_FALSE),
            ("CF_ATOMIC", CF_ATOMIC),
            ("CF_AND", CF_AND),
            ("CF_OR", CF_OR),
            ("CF_NOT", CF_NOT),
        ];
        let code_set: BTreeMap<String, u8> =
            in_code.iter().map(|(n, v)| (n.to_string(), *v)).collect();
        assert_eq!(
            code_set, locked,
            "codec tag constants and compat/wire_tags.lock must be the same set"
        );

        // A representative frame for every request/response tag:
        // round-trip it and pin its first byte to the locked value.
        let attr = |s: &str| AttrName::new(s);
        let reqs: Vec<(&str, WireRequest)> = vec![
            ("REQ_PING", WireRequest::Ping),
            (
                "REQ_ATOMIC",
                WireRequest::Atomic {
                    base: dn("dc=com"),
                    scope: Scope::Sub,
                    filter: AtomicFilter::Eq(attr("cn"), "x".into()),
                },
            ),
            (
                "REQ_LDAP",
                WireRequest::Ldap {
                    base: dn("dc=com"),
                    scope: Scope::Base,
                    filter: CompositeFilter::Atomic(AtomicFilter::True),
                },
            ),
            (
                "REQ_QUERY",
                WireRequest::Query {
                    home: "a".into(),
                    text: "t".into(),
                },
            ),
            ("REQ_SHUTDOWN", WireRequest::Shutdown),
            (
                "REQ_QUERY_PARTIAL",
                WireRequest::QueryPartial {
                    home: "a".into(),
                    text: "t".into(),
                },
            ),
            ("REQ_STATS", WireRequest::Stats),
            (
                "REQ_QUERY_ANALYZE",
                WireRequest::QueryAnalyze {
                    home: "a".into(),
                    text: "t".into(),
                },
            ),
            (
                "REQ_MUTATE",
                WireRequest::Mutate {
                    batch: MutationBatch::new(),
                },
            ),
        ];
        assert_eq!(
            reqs.len(),
            locked.keys().filter(|k| k.starts_with("REQ_")).count(),
            "every REQ_ tag needs a representative frame here"
        );
        for (name, req) in reqs {
            let bytes = req.encode();
            assert_eq!(bytes[0], locked[name], "first byte of {name} frame");
            assert_eq!(WireRequest::decode(&bytes).unwrap(), req, "{name} round-trip");
        }

        let resps: Vec<(&str, WireResponse)> = vec![
            ("RESP_PONG", WireResponse::Pong),
            ("RESP_ENTRIES", WireResponse::Entries(vec![vec![1]])),
            ("RESP_ERROR", WireResponse::Error("e".into())),
            (
                "RESP_PARTIAL",
                WireResponse::Partial {
                    entries: vec![],
                    skipped: vec![],
                },
            ),
            ("RESP_STATS", WireResponse::Stats("x 1\n".into())),
            (
                "RESP_ANALYZED",
                WireResponse::Analyzed {
                    entries: vec![],
                    trace: QueryTrace {
                        query: "q".into(),
                        spans: vec![],
                        predicted_io: 0.0,
                        observed_io: 0,
                        elapsed_nanos: 1,
                    },
                },
            ),
            (
                "RESP_MUTATED",
                WireResponse::Mutated {
                    epoch: 1,
                    mutations: 2,
                },
            ),
            ("RESP_BUSY", WireResponse::Busy { retry_after_ms: 9 }),
            (
                "RESP_DEADLINE",
                WireResponse::DeadlineExceeded { budget_ms: 7 },
            ),
        ];
        assert_eq!(
            resps.len(),
            locked.keys().filter(|k| k.starts_with("RESP_")).count(),
            "every RESP_ tag needs a representative frame here"
        );
        for (name, resp) in resps {
            let bytes = resp.encode();
            assert_eq!(bytes[0], locked[name], "first byte of {name} frame");
            assert_eq!(WireResponse::decode(&bytes).unwrap(), resp, "{name} round-trip");
        }

        // Filter encodings: one representative per AF_/CF_ tag.
        let atomics: Vec<(&str, AtomicFilter)> = vec![
            ("AF_PRESENT", AtomicFilter::Present(attr("cn"))),
            ("AF_EQ", AtomicFilter::Eq(attr("cn"), "x".into())),
            (
                "AF_SUBSTRING",
                AtomicFilter::Substring(
                    attr("cn"),
                    SubstringPattern {
                        initial: Some("a".into()),
                        any: vec!["b".into()],
                        final_: None,
                    },
                ),
            ),
            ("AF_INTCMP", AtomicFilter::IntCmp(attr("n"), IntOp::Ge, 3)),
            ("AF_DNEQ", AtomicFilter::DnEq(attr("member"), dn("dc=com"))),
            ("AF_TRUE", AtomicFilter::True),
            ("AF_FALSE", AtomicFilter::False),
        ];
        assert_eq!(
            atomics.len(),
            locked.keys().filter(|k| k.starts_with("AF_")).count(),
            "every AF_ tag needs a representative filter here"
        );
        for (name, f) in atomics {
            let mut buf = Vec::new();
            put_atomic_filter(&mut buf, &f);
            assert_eq!(buf[0], locked[name], "tag byte of {name}");
            let mut r = Reader::new(&buf);
            assert_eq!(get_atomic_filter(&mut r).unwrap(), f, "{name} round-trip");
        }

        let composites: Vec<(&str, CompositeFilter)> = vec![
            ("CF_ATOMIC", CompositeFilter::Atomic(AtomicFilter::True)),
            (
                "CF_AND",
                CompositeFilter::And(vec![CompositeFilter::Atomic(AtomicFilter::True)]),
            ),
            (
                "CF_OR",
                CompositeFilter::Or(vec![CompositeFilter::Atomic(AtomicFilter::True)]),
            ),
            (
                "CF_NOT",
                CompositeFilter::Not(Box::new(CompositeFilter::Atomic(AtomicFilter::True))),
            ),
        ];
        assert_eq!(
            composites.len(),
            locked.keys().filter(|k| k.starts_with("CF_")).count(),
            "every CF_ tag needs a representative filter here"
        );
        for (name, f) in composites {
            let mut buf = Vec::new();
            put_composite_filter(&mut buf, &f);
            assert_eq!(buf[0], locked[name], "tag byte of {name}");
            let mut r = Reader::new(&buf);
            assert_eq!(get_composite_filter(&mut r).unwrap(), f, "{name} round-trip");
        }
    }

    #[test]
    fn junk_payloads_are_rejected() {
        assert!(WireRequest::decode(&[]).is_err());
        assert!(WireRequest::decode(&[99]).is_err());
        assert!(WireResponse::decode(&[99]).is_err());
        // Trailing garbage after a valid request is corruption.
        let mut bytes = WireRequest::Ping.encode().to_vec();
        bytes.push(0);
        assert!(WireRequest::decode(&bytes).is_err());
        // Entries count larger than the actual payload.
        let mut resp = Vec::new();
        resp.push(RESP_ENTRIES);
        put_u32(&mut resp, 1000);
        assert!(WireResponse::decode(&resp).is_err());
        // A Partial response whose skipped-zone record is truncated.
        let mut resp = Vec::new();
        resp.push(RESP_PARTIAL);
        put_u32(&mut resp, 0); // no entries
        put_u32(&mut resp, 1); // one skipped zone...
        put_str(&mut resp, "dc=com");
        put_u32(&mut resp, 1000); // ...claiming 1000 servers, providing 0
        assert!(WireResponse::decode(&resp).is_err());
        // A truncated QueryPartial (home but no text).
        let mut req = Vec::new();
        req.push(REQ_QUERY_PARTIAL);
        put_str(&mut req, "att");
        assert!(WireRequest::decode(&req).is_err());
        // A truncated QueryAnalyze (home but no text).
        let mut req = Vec::new();
        req.push(REQ_QUERY_ANALYZE);
        put_str(&mut req, "att");
        assert!(WireRequest::decode(&req).is_err());
        // A Stats request with trailing garbage.
        let mut req = WireRequest::Stats.encode().to_vec();
        req.push(7);
        assert!(WireRequest::decode(&req).is_err());
        // An Analyzed response whose trace claims more spans than it
        // carries.
        let mut resp = Vec::new();
        resp.push(RESP_ANALYZED);
        put_u32(&mut resp, 0); // no entries
        put_str(&mut resp, "(q)");
        put_u32(&mut resp, 1000); // 1000 spans, none present
        assert!(WireResponse::decode(&resp).is_err());
        // A Mutate whose framed batch is garbage.
        let mut req = Vec::new();
        req.push(REQ_MUTATE);
        put_u32(&mut req, 3);
        req.extend_from_slice(&[0xff, 0xff, 0xff]);
        assert!(WireRequest::decode(&req).is_err());
        // A Mutate with bytes after the framed batch.
        let mut req = WireRequest::Mutate {
            batch: netdir_journal::MutationBatch::new(),
        }
        .encode()
        .to_vec();
        req.push(0);
        assert!(WireRequest::decode(&req).is_err());
        // A truncated Mutated response (epoch but no count).
        let mut resp = Vec::new();
        resp.push(RESP_MUTATED);
        put_u64(&mut resp, 1);
        assert!(WireResponse::decode(&resp).is_err());
        // A truncated Busy (no retry hint) and one with trailing bytes.
        assert!(WireResponse::decode(&[RESP_BUSY]).is_err());
        let mut resp = WireResponse::Busy { retry_after_ms: 1 }.encode().to_vec();
        resp.push(0);
        assert!(WireResponse::decode(&resp).is_err());
        // A truncated DeadlineExceeded (no budget).
        assert!(WireResponse::decode(&[RESP_DEADLINE]).is_err());
    }
}

//! The answer oracle: whole queries evaluated from their definitions
//! with `netdir_query::naive`'s nested-loop operators over an in-memory
//! [`Directory`] — no index, pager, planner or evaluator involved.

use netdir_model::{Directory, Entry};
use netdir_query::agg::CompiledAggFilter;
use netdir_query::boolean::BoolOp;
use netdir_query::hs_stack::HsOp;
use netdir_query::{naive, parse_query, AggSelFilter, Query};
use std::collections::HashMap;
use std::rc::Rc;

/// What a correct response looks like: how many entries, and a digest
/// of their wire encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub entries: usize,
    pub digest: u64,
}

/// FNV-1a over length-prefixed records.
pub fn digest<'a>(records: impl Iterator<Item = &'a [u8]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in records {
        eat(&(r.len() as u64).to_le_bytes());
        eat(r);
    }
    h
}

fn structural(agg: &Option<AggSelFilter>) -> CompiledAggFilter {
    match agg {
        None => CompiledAggFilter::exists_witness(),
        Some(f) => CompiledAggFilter::compile(f, true).expect("generated filter compiles"),
    }
}

/// Evaluates queries against one directory state, remembering every
/// atomic operand (workloads repeat them heavily).
pub struct Oracle<'d> {
    dir: &'d Directory,
    atomics: HashMap<String, Rc<Vec<Entry>>>,
}

impl<'d> Oracle<'d> {
    pub fn new(dir: &'d Directory) -> Oracle<'d> {
        Oracle {
            dir,
            atomics: HashMap::new(),
        }
    }

    pub fn eval(&mut self, q: &Query) -> Rc<Vec<Entry>> {
        Rc::new(match q {
            Query::Atomic {
                base,
                scope,
                filter,
            } => {
                let dir = self.dir;
                let cached = self.atomics.entry(q.to_string()).or_insert_with(|| {
                    // Every scope lies inside the base's subtree;
                    // membership itself is Definition 4.1's.
                    let matching = dir
                        .subtree(base)
                        .filter(|e| scope.contains(base, e.dn()) && filter.matches(e));
                    Rc::new(matching.cloned().collect())
                });
                return Rc::clone(cached);
            }
            Query::And(a, b) => naive::naive_boolean(BoolOp::And, &self.eval(a), &self.eval(b)),
            Query::Or(a, b) => naive::naive_boolean(BoolOp::Or, &self.eval(a), &self.eval(b)),
            Query::Diff(a, b) => naive::naive_boolean(BoolOp::Diff, &self.eval(a), &self.eval(b)),
            Query::Hier { op, q1, q2, agg } => naive::naive_hs_select(
                HsOp::from(*op),
                &self.eval(q1),
                &self.eval(q2),
                &[],
                &structural(agg),
            ),
            Query::HierPath {
                op,
                q1,
                q2,
                q3,
                agg,
            } => naive::naive_hs_select(
                HsOp::from(*op),
                &self.eval(q1),
                &self.eval(q2),
                &self.eval(q3),
                &structural(agg),
            ),
            Query::AggSelect { query, filter } => naive::naive_simple_agg(
                &self.eval(query),
                &CompiledAggFilter::compile(filter, false).expect("generated filter compiles"),
            ),
            Query::EmbedRef {
                op,
                q1,
                q2,
                attr,
                agg,
            } => {
                naive::naive_er_select(*op, &self.eval(q1), &self.eval(q2), attr, &structural(agg))
            }
        })
    }

    /// The expected answer of `text`.
    pub fn expect(&mut self, text: &str) -> Expected {
        let q = parse_query(text).expect("generated query parses");
        let entries = self.eval(&q);
        let encoded = netdir_wire::encode_entries(&entries);
        Expected {
            entries: entries.len(),
            digest: digest(encoded.iter().map(Vec::as_slice)),
        }
    }
}

/// Expected answers of `reads`, one evaluation per distinct text.
/// Fails if more than 1% of them are empty: an all-empty workload would
/// still "pass" every check while measuring nothing (an untyped integer
/// attribute in the LDIF does exactly that to every `weight<=N`).
pub fn expectations(
    dir: &Directory,
    reads: &[String],
) -> Result<HashMap<String, Expected>, String> {
    let mut oracle = Oracle::new(dir);
    let mut by_text = HashMap::new();
    let mut empty = 0usize;
    for text in reads {
        let e = *by_text
            .entry(text.clone())
            .or_insert_with(|| oracle.expect(text));
        empty += usize::from(e.entries == 0);
    }
    if empty * 100 > reads.len() {
        return Err(format!(
            "{empty} of {} generated queries have empty answers",
            reads.len()
        ));
    }
    Ok(by_text)
}

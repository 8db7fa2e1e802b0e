//! Bottom-up query evaluation (Section 8.2).
//!
//! "Each query expression can be evaluated bottom-up … First, the atomic
//! queries are evaluated, and the resulting entries are sorted by the
//! lexicographic ordering on the reverse of their dn's. Next, each
//! operator in the query tree is evaluated … and the result is pipelined
//! to a higher operator. Since each operator gets sorted input lists, and
//! computes a sorted output list, no additional sorting … is necessary."
//!
//! [`Evaluator`] walks the tree in reverse topological (post-) order,
//! evaluating atomic leaves through an [`AtomicSource`] (an indexed
//! directory, a cluster's router — anything that yields sorted entries)
//! and operators through the algorithms of this crate. Every result is
//! an [`Operand`], and what it is follows from where it came from:
//!
//! * an atomic leaf is whatever its source hands out. A router's zone
//!   answers are already in memory, keyed, so they arrive as a **run**
//!   and flow into the operator above without touching a page — the
//!   pipelined edge of §8.2. An [`IndexedDirectory`] stages its leaf on
//!   pages: it is the external-memory reference the constant-memory
//!   bound and the cost experiments measure;
//! * every operator writes its output through the evaluator's pager: a
//!   run while it fits the pager's memory budget *M* (frames × page
//!   size), shared by every intermediate the evaluation holds, and a
//!   paged list past it. So one I/O ledger covers every page the tree
//!   touches, and a query whose intermediates fit in *M* touches none.
//!
//! [`Evaluator::evaluate_traced`] additionally reports per-node I/O and
//! cardinalities — the raw material of the Theorem 8.3/8.4 experiments.

use crate::agg::CompiledAggFilter;
use crate::ast::Query;
use crate::error::{QueryError, QueryResult};
use crate::{agg_simple, boolean, er_join, hs_stack};
use netdir_filter::{AtomicFilter, Scope};
use netdir_index::IndexedDirectory;
use netdir_model::{Dn, Entry};
use netdir_pager::{IoSnapshot, Operand, Pager, PagerResult};
use std::cell::RefCell;
use std::collections::HashMap;

/// A source of atomic-query results: sorted entries.
pub trait AtomicSource {
    /// Evaluate `(base ? scope ? filter)` to reverse-DN-sorted entries.
    fn evaluate_atomic(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &AtomicFilter,
    ) -> PagerResult<Operand<Entry>>;
}

/// The staged reference: a leaf is written to pages, as the external-
/// memory algorithms and their cost experiments assume.
impl AtomicSource for IndexedDirectory {
    fn evaluate_atomic(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &AtomicFilter,
    ) -> PagerResult<Operand<Entry>> {
        IndexedDirectory::evaluate_atomic(self, base, scope, filter).map(Operand::List)
    }
}

/// Per-node trace record from [`Evaluator::evaluate_traced`].
#[derive(Debug, Clone)]
pub struct NodeTrace {
    /// The node, rendered.
    pub node: String,
    /// Entries flowing in from child operators (0 for atomic leaves).
    pub input_len: u64,
    /// Result cardinality.
    pub output_len: u64,
    /// Pages the result occupies: 0 for a run held in memory (a leaf
    /// its source hands over, an output within the budget).
    pub output_pages: u64,
    /// The result's size in pages wherever it is held
    /// ([`Operand::pages_on`]).
    pub output_size: u64,
    /// I/O spent evaluating this node (excluding its children).
    pub io: IoSnapshot,
    /// Wall time spent in this node (excluding its children).
    pub elapsed_nanos: u64,
}

/// The query evaluator.
pub struct Evaluator<'s, S: AtomicSource> {
    source: &'s S,
    pager: Pager,
    /// When enabled, identical sub-queries evaluate once (common
    /// sub-expression elimination). Off by default so cost experiments
    /// measure each node; applications with self-referential compositions
    /// (the QoS engine's `top` appears three times) switch it on.
    memo: Option<RefCell<HashMap<Query, Operand<Entry>>>>,
}

impl<'s, S: AtomicSource> Evaluator<'s, S> {
    /// Evaluate over `source`, staging intermediates on `pager`.
    pub fn new(source: &'s S, pager: &Pager) -> Self {
        Evaluator {
            source,
            pager: pager.clone(),
            memo: None,
        }
    }

    /// Enable common-sub-expression caching for this evaluator.
    pub fn with_memo(mut self) -> Self {
        self.memo = Some(RefCell::default());
        self
    }

    /// Evaluate `q` to sorted entries: the root's output list, or the
    /// source's own answer when the root is an atomic leaf.
    pub fn evaluate(&self, q: &Query) -> QueryResult<Operand<Entry>> {
        self.eval_node(q, &mut None)
    }

    /// Evaluate `q`, also collecting a per-node trace (post-order).
    pub fn evaluate_traced(
        &self,
        q: &Query,
    ) -> QueryResult<(Operand<Entry>, Vec<NodeTrace>)> {
        let mut traces = Some(Vec::new());
        let out = self.eval_node(q, &mut traces)?;
        Ok((out, traces.expect("traces preserved")))
    }

    fn eval_node(
        &self,
        q: &Query,
        traces: &mut Option<Vec<NodeTrace>>,
    ) -> QueryResult<Operand<Entry>> {
        if let Some(hit) = self.memo.as_ref().and_then(|memo| memo.borrow().get(q).cloned()) {
            return Ok(hit);
        }
        // Children first (their I/O is attributed to them).
        let children: Vec<Operand<Entry>> = q
            .children()
            .into_iter()
            .map(|c| self.eval_node(c, traces))
            .collect::<QueryResult<_>>()?;
        let out = self.apply(q, &children, traces)?;
        if let Some(memo) = &self.memo {
            memo.borrow_mut().insert(q.clone(), out.clone());
        }
        Ok(out)
    }

    /// Apply the operator at `q` to its already-evaluated child lists —
    /// the one operator path every evaluation takes.
    fn apply(
        &self,
        q: &Query,
        children: &[Operand<Entry>],
        traces: &mut Option<Vec<NodeTrace>>,
    ) -> QueryResult<Operand<Entry>> {
        let before = self.pager.io();
        let started = std::time::Instant::now();
        let out = match q {
            Query::Atomic {
                base,
                scope,
                filter,
            } => self.source.evaluate_atomic(base, *scope, filter)?,
            Query::And(..) | Query::Or(..) | Query::Diff(..) => {
                let op = match q {
                    Query::And(..) => boolean::BoolOp::And,
                    Query::Or(..) => boolean::BoolOp::Or,
                    _ => boolean::BoolOp::Diff,
                };
                boolean::merge(&self.pager, op, &children[0], &children[1])?
            }
            Query::Hier { op, agg, .. } => {
                let filter = compile_structural(agg)?;
                hs_stack::hs_select(
                    &self.pager,
                    (*op).into(),
                    &children[0],
                    &children[1],
                    None,
                    &filter,
                )?
            }
            Query::HierPath { op, agg, .. } => {
                let filter = compile_structural(agg)?;
                hs_stack::hs_select(
                    &self.pager,
                    (*op).into(),
                    &children[0],
                    &children[1],
                    Some(&children[2]),
                    &filter,
                )?
            }
            Query::AggSelect { filter, .. } => {
                let compiled = CompiledAggFilter::compile(filter, false)?;
                agg_simple::simple_agg_select(&self.pager, &children[0], &compiled)?
            }
            Query::EmbedRef { op, attr, agg, .. } => {
                let filter = compile_structural(agg)?;
                er_join::er_select(&self.pager, *op, &children[0], &children[1], attr, &filter)?
            }
        };
        let input_len = children.iter().map(|c| c.len()).sum();
        self.trace(traces, q, &out, input_len, before, started);
        Ok(out)
    }

    fn trace(
        &self,
        traces: &mut Option<Vec<NodeTrace>>,
        q: &Query,
        out: &Operand<Entry>,
        input_len: u64,
        before: IoSnapshot,
        started: std::time::Instant,
    ) {
        if let Some(traces) = traces {
            traces.push(NodeTrace {
                node: summarize(q),
                input_len,
                output_len: out.len(),
                output_pages: out.num_pages(),
                output_size: out.pages_on(&self.pager),
                io: self.pager.io().since(before),
                elapsed_nanos: u64::try_from(started.elapsed().as_nanos())
                    .unwrap_or(u64::MAX),
            });
        }
    }
}

fn compile_structural(agg: &Option<crate::ast::AggSelFilter>) -> QueryResult<CompiledAggFilter> {
    match agg {
        None => Ok(CompiledAggFilter::exists_witness()),
        Some(f) => CompiledAggFilter::compile(f, true),
    }
}

/// One-line description of a node (operator symbol, not the whole subtree).
fn summarize(q: &Query) -> String {
    match q {
        Query::Atomic {
            base,
            scope,
            filter,
        } => format!("({base} ? {scope} ? {filter})"),
        Query::And(..) => "(&)".into(),
        Query::Or(..) => "(|)".into(),
        Query::Diff(..) => "(-)".into(),
        Query::Hier { op, agg, .. } => match agg {
            None => format!("({})", op.symbol()),
            Some(f) => format!("({} … {f})", op.symbol()),
        },
        Query::HierPath { op, agg, .. } => match agg {
            None => format!("({})", op.symbol()),
            Some(f) => format!("({} … {f})", op.symbol()),
        },
        Query::AggSelect { filter, .. } => format!("(g … {filter})"),
        Query::EmbedRef { op, attr, agg, .. } => match agg {
            None => format!("({} … {attr})", op.symbol()),
            Some(f) => format!("({} … {attr} {f})", op.symbol()),
        },
    }
}

/// Convenience: evaluate a query string against an indexed directory.
pub fn run_query(
    idx: &IndexedDirectory,
    pager: &Pager,
    query: &str,
) -> QueryResult<Vec<Entry>> {
    let q = crate::parser::parse_query(query)?;
    let out = Evaluator::new(idx, pager).evaluate(&q)?;
    out.to_vec().map_err(QueryError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use netdir_model::{Directory, Entry};
    use netdir_pager::tiny_pager;

    fn dn(s: &str) -> Dn {
        Dn::parse(s).unwrap()
    }

    /// A miniature AT&T-ish directory exercising all operators.
    fn dir() -> Directory {
        let mut d = Directory::new();
        let mut add = |e: Entry| {
            d.insert(e).unwrap();
        };
        for s in ["dc=com", "dc=att, dc=com", "dc=research, dc=att, dc=com", "dc=org"] {
            add(Entry::builder(dn(s)).class("dcObject").build().unwrap());
        }
        for (ou, parent) in [
            ("people", "dc=att, dc=com"),
            ("people", "dc=research, dc=att, dc=com"),
            ("tp", "dc=att, dc=com"),
        ] {
            add(Entry::builder(dn(&format!("ou={ou}, {parent}")))
                .class("organizationalUnit")
                .build()
                .unwrap());
        }
        // jagadish appears both in att and in research.
        for (uid, parent, sn) in [
            ("jag", "ou=people, dc=att, dc=com", "jagadish"),
            ("jag2", "ou=people, dc=research, dc=att, dc=com", "jagadish"),
            ("divesh", "ou=people, dc=att, dc=com", "srivastava"),
        ] {
            add(Entry::builder(dn(&format!("uid={uid}, {parent}")))
                .class("person")
                .attr("surName", sn)
                .build()
                .unwrap());
        }
        // Profiles referenced by policies.
        add(Entry::builder(dn("TPName=smtp, ou=tp, dc=att, dc=com"))
            .class("trafficProfile")
            .attr("sourcePort", 25i64)
            .build()
            .unwrap());
        add(Entry::builder(dn("SLAPolicyName=mail, ou=tp, dc=att, dc=com"))
            .class("SLAPolicyRules")
            .attr("SLARulePriority", 1i64)
            .attr("SLATPRef", dn("TPName=smtp, ou=tp, dc=att, dc=com"))
            .build()
            .unwrap());
        d
    }

    fn setup() -> (IndexedDirectory, Pager) {
        let pager = tiny_pager();
        let idx = IndexedDirectory::build(&pager, &dir()).unwrap();
        (idx, pager)
    }

    fn run(q: &str) -> Vec<String> {
        let (idx, pager) = setup();
        run_query(&idx, &pager, q)
            .unwrap()
            .iter()
            .map(|e| e.dn().to_string())
            .collect()
    }

    #[test]
    fn example_4_1_end_to_end() {
        let got = run(
            "(- (dc=att, dc=com ? sub ? surName=jagadish) \
               (dc=research, dc=att, dc=com ? sub ? surName=jagadish))",
        );
        assert_eq!(got, vec!["uid=jag, ou=people, dc=att, dc=com"]);
    }

    #[test]
    fn example_5_1_end_to_end() {
        let got = run(
            "(c (dc=att, dc=com ? sub ? objectClass=organizationalUnit) \
                (dc=att, dc=com ? sub ? surName=jagadish))",
        );
        // Reverse-DN order: the research OU's key extends dc=att's key
        // with "dc=research", which sorts before the sibling "ou=people".
        assert_eq!(
            got,
            vec![
                "ou=people, dc=research, dc=att, dc=com",
                "ou=people, dc=att, dc=com"
            ]
        );
    }

    #[test]
    fn example_5_3_end_to_end() {
        // Which subnets have SMTP traffic profiles with no intervening
        // dcObject?
        let got = run(
            "(dc (dc=att, dc=com ? sub ? objectClass=dcObject) \
                 (& (dc=att, dc=com ? sub ? sourcePort=25) \
                    (dc=att, dc=com ? sub ? objectClass=trafficProfile)) \
                 (dc=att, dc=com ? sub ? objectClass=dcObject))",
        );
        assert_eq!(got, vec!["dc=att, dc=com"]);
    }

    #[test]
    fn l3_vd_end_to_end() {
        let got = run(
            "(vd (dc=att, dc=com ? sub ? objectClass=SLAPolicyRules) \
                 (dc=att, dc=com ? sub ? sourcePort=25) \
                 SLATPRef)",
        );
        assert_eq!(got, vec!["SLAPolicyName=mail, ou=tp, dc=att, dc=com"]);
    }

    #[test]
    fn traced_evaluation_reports_every_node() {
        let (idx, pager) = setup();
        let q = parse_query(
            "(c (dc=att, dc=com ? sub ? objectClass=organizationalUnit) \
                (dc=att, dc=com ? sub ? surName=jagadish))",
        )
        .unwrap();
        let (out, traces) = Evaluator::new(&idx, &pager).evaluate_traced(&q).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(traces.len(), 3); // two atoms + the operator
        // Eq filter values render canonically (case-folded).
        assert!(traces[0].node.contains("organizationalunit"));
        assert_eq!(traces[2].node, "(c)");
        assert_eq!(traces[2].output_len, 2);
    }

    #[test]
    fn bad_agg_filter_surfaces() {
        let (idx, pager) = setup();
        let q = parse_query("(g (dc=com ? sub ? a=*) count($2) > 0)");
        // count($2) in g context is caught at evaluation (compile step).
        let q = q.unwrap();
        let err = Evaluator::new(&idx, &pager).evaluate(&q).unwrap_err();
        assert!(matches!(err, QueryError::BadAggFilter { .. }));
    }

    #[test]
    fn memoized_evaluation_matches_unmemoized() {
        // The QoS-style shape: the same subquery appears three times.
        let (idx, pager) = setup();
        let q = parse_query(
            "(| (| (dc=att, dc=com ? sub ? objectClass=person) \
                   (dc=att, dc=com ? sub ? objectClass=person)) \
                (& (dc=att, dc=com ? sub ? objectClass=person) \
                   (dc=att, dc=com ? sub ? surName=jagadish)))",
        )
        .unwrap();
        let plain = Evaluator::new(&idx, &pager).evaluate(&q).unwrap();
        let memoed = Evaluator::new(&idx, &pager)
            .with_memo()
            .evaluate(&q)
            .unwrap();
        assert_eq!(
            plain.to_vec().unwrap(),
            memoed.to_vec().unwrap(),
            "memoized and unmemoized evaluation must return identical lists"
        );
        // And the memo actually deduplicates: the repeated atom costs one
        // source evaluation's worth of allocations, not three.
        pager.reset_io();
        Evaluator::new(&idx, &pager).evaluate(&q).unwrap();
        let unmemo_allocs = pager.io().allocs;
        pager.reset_io();
        Evaluator::new(&idx, &pager).with_memo().evaluate(&q).unwrap();
        assert!(pager.io().allocs < unmemo_allocs);
    }

    #[test]
    fn closure_queries_compose() {
        // Feed an L1 result into another L1 operator: (a (c ...) ...).
        let got = run(
            "(a (uid=jag, ou=people, dc=att, dc=com ? base ? objectClass=person) \
                (c (dc=att, dc=com ? sub ? objectClass=organizationalUnit) \
                   (dc=att, dc=com ? sub ? surName=jagadish)))",
        );
        assert_eq!(got, vec!["uid=jag, ou=people, dc=att, dc=com"]);
    }
}

//! Cost-based plan optimization with observed-I/O feedback.
//!
//! The paper's algebra admits many equivalent trees for one query —
//! boolean merge chains can associate any way, `&` of nested `sub`
//! scopes can tighten its base, and Theorem 8.2(d) rewrites hierarchy
//! operators in both directions. Which tree is cheapest depends on list
//! sizes the text cannot know; Section 8's cost formulas are in exactly
//! those sizes. This module closes the loop:
//!
//! 1. [`enumerate::enumerate_steps`] proposes semantics-preserving
//!    [`Step`] edits (every one is byte-identical on output — the
//!    chooser only ever trades I/O, never answers);
//! 2. [`estimate::plan_cost`] ranks whole trees by summing
//!    [`crate::cost::predicted_node_io`] over estimated page flows;
//! 3. the [`StatsCatalog`] supplies those estimates from *observed*
//!    per-node I/O — fed back either live (wrap any [`AtomicSource`] in
//!    an [`ObservingSource`]) or from EXPLAIN ANALYZE traces
//!    ([`Planner::observe_trace`]);
//! 4. the [`PlanCache`] remembers winning step sequences by normalized
//!    query shape ([`query_shape`]), so template traffic — identical
//!    structure, different comparison constants — plans once.
//!
//! The chooser is greedy and conservative: at most [`MAX_ROUNDS`]
//! rounds, each applying the single best *strictly* improving step;
//! identity wins every tie. A directory mutation bumps the planner
//! epoch, lazily invalidating cached plans (the catalog's EWMA rows
//! survive — they re-converge from subsequent observations).

pub mod cache;
pub mod enumerate;
pub mod estimate;
pub mod stats;

pub use cache::PlanCache;
pub use enumerate::{apply_steps, enumerate_steps, Step};
pub use estimate::{estimate, plan_cost, Estimate};
pub use stats::{atomic_shape, filter_shape, AtomicStats, CatalogSnapshot, StatsCatalog};

use crate::ast::{AggAttribute, AggSelFilter, Query};
use crate::eval::AtomicSource;
use netdir_obs::QueryTrace;
use netdir_filter::{AtomicFilter, Scope};
use netdir_model::{Dn, Entry};
use netdir_pager::{Operand, Pager, PagerResult};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bound on greedy improvement rounds per planned query.
pub const MAX_ROUNDS: usize = 8;

/// Strict-improvement margin: a candidate must beat the incumbent by
/// more than this, so estimate noise never flips a tie away from the
/// identity plan.
const EPS: f64 = 1e-9;

/// The normalized shape of a whole query: structure, bases, scopes,
/// attribute names and operators verbatim; comparison constants (in
/// atomic filters and aggregate selections) abstracted away. Two queries
/// from the same template share a shape — and therefore a cached plan
/// and the same catalog rows.
pub fn query_shape(q: &Query) -> String {
    fn agg_attr(a: &AggAttribute) -> String {
        match a {
            AggAttribute::Const(_) => "\u{2}".to_string(),
            other => other.to_string(),
        }
    }
    fn agg(f: &AggSelFilter) -> String {
        format!("{} {} {}", agg_attr(&f.lhs), f.op, agg_attr(&f.rhs))
    }
    fn render(q: &Query, out: &mut String) {
        match q {
            Query::Atomic {
                base,
                scope,
                filter,
            } => {
                let _ = write!(out, "({} ? {scope} ? {})", base.canonical(), filter_shape(filter));
            }
            Query::And(a, b) | Query::Or(a, b) | Query::Diff(a, b) => {
                out.push('(');
                out.push(match q {
                    Query::And(..) => '&',
                    Query::Or(..) => '|',
                    _ => '-',
                });
                out.push(' ');
                render(a, out);
                out.push(' ');
                render(b, out);
                out.push(')');
            }
            Query::Hier { op, q1, q2, agg: g } => {
                let _ = write!(out, "({}", op.symbol());
                if let Some(f) = g {
                    let _ = write!(out, "[{}]", agg(f));
                }
                out.push(' ');
                render(q1, out);
                out.push(' ');
                render(q2, out);
                out.push(')');
            }
            Query::HierPath {
                op,
                q1,
                q2,
                q3,
                agg: g,
            } => {
                let _ = write!(out, "({}", op.symbol());
                if let Some(f) = g {
                    let _ = write!(out, "[{}]", agg(f));
                }
                for c in [q1, q2, q3] {
                    out.push(' ');
                    render(c, out);
                }
                out.push(')');
            }
            Query::AggSelect { query, filter } => {
                out.push_str("(g ");
                render(query, out);
                let _ = write!(out, " {})", agg(filter));
            }
            Query::EmbedRef {
                op,
                q1,
                q2,
                attr,
                agg: g,
            } => {
                let _ = write!(out, "({}", op.symbol());
                if let Some(f) = g {
                    let _ = write!(out, "[{}]", agg(f));
                }
                out.push(' ');
                render(q1, out);
                out.push(' ');
                render(q2, out);
                let _ = write!(out, " {attr})");
            }
        }
    }
    let mut out = String::new();
    render(q, &mut out);
    out
}

/// The outcome of planning one query.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// The chosen (possibly transformed) query — byte-identical in
    /// output to the query that was planned.
    pub query: Query,
    /// The steps that produced it (empty = identity plan).
    pub steps: Vec<Step>,
    /// Whether the steps came from the plan cache.
    pub cache_hit: bool,
    /// Estimated cost of the query as written.
    pub predicted_naive: f64,
    /// Estimated cost of the chosen plan (≤ `predicted_naive`).
    pub predicted_chosen: f64,
}

/// Counter snapshot for metrics export.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlannerSnapshot {
    /// Queries planned.
    pub planned: u64,
    /// Plans replayed from the cache.
    pub cache_hits: u64,
    /// Plans enumerated afresh.
    pub cache_misses: u64,
    /// Steps applied across all plans (cached and fresh).
    pub steps_applied: u64,
    /// Candidate steps considered by the chooser.
    pub candidates_considered: u64,
    /// Current invalidation epoch.
    pub epoch: u64,
    /// Distinct atomic shapes in the stats catalog.
    pub catalog_shapes: u64,
    /// Observations absorbed by the stats catalog.
    pub catalog_observations: u64,
}

/// The cost-based planner: stats catalog + plan cache + greedy chooser.
///
/// Thread-safe by interior locking; share one per directory behind an
/// `Arc`.
#[derive(Default)]
pub struct Planner {
    catalog: StatsCatalog,
    cache: PlanCache,
    planned: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    steps_applied: AtomicU64,
    candidates: AtomicU64,
}

impl Planner {
    /// A planner with an empty catalog and cache.
    pub fn new() -> Planner {
        Planner::default()
    }

    /// The stats catalog (for wrapping sources or direct observation).
    pub fn catalog(&self) -> &StatsCatalog {
        &self.catalog
    }

    /// Invalidate all cached plans (call after directory mutation). The
    /// catalog is deliberately retained: EWMA rows drift to the new
    /// regime instead of restarting from defaults.
    pub fn bump_epoch(&self) {
        self.cache.bump_epoch();
    }

    /// Plan `q`: replay the cached step sequence for its shape, or
    /// enumerate and choose greedily, caching the winner.
    pub fn plan(&self, q: &Query) -> PlannedQuery {
        self.planned.fetch_add(1, Ordering::Relaxed);
        let shape = query_shape(q);
        if let Some(steps) = self.cache.get(&shape) {
            // A cached sequence can fail to re-apply only if shapes
            // collided (they can't, by construction) — but a structural
            // bail falls through to fresh planning, never a wrong plan.
            if let Some(chosen) = apply_steps(q, &steps) {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                self.steps_applied
                    .fetch_add(steps.len() as u64, Ordering::Relaxed);
                return PlannedQuery {
                    predicted_naive: plan_cost(q, &self.catalog),
                    predicted_chosen: plan_cost(&chosen, &self.catalog),
                    query: chosen,
                    steps,
                    cache_hit: true,
                };
            }
        }
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        let naive = plan_cost(q, &self.catalog);
        let mut current = q.clone();
        let mut cost = naive;
        let mut steps: Vec<Step> = Vec::new();
        for _ in 0..MAX_ROUNDS {
            let candidates = enumerate_steps(&current, &self.catalog);
            self.candidates
                .fetch_add(candidates.len() as u64, Ordering::Relaxed);
            let mut best: Option<(f64, Step, Query)> = None;
            for s in candidates {
                let Some(next) = s.apply(&current) else { continue };
                let c = plan_cost(&next, &self.catalog);
                let improves = c + EPS < cost;
                let beats_best = best.as_ref().is_none_or(|(bc, _, _)| c < *bc);
                if improves && beats_best {
                    best = Some((c, s, next));
                }
            }
            let Some((c, s, next)) = best else { break };
            cost = c;
            steps.push(s);
            current = next;
        }
        self.steps_applied
            .fetch_add(steps.len() as u64, Ordering::Relaxed);
        self.cache.put(shape, steps.clone());
        PlannedQuery {
            query: current,
            steps,
            cache_hit: false,
            predicted_naive: naive,
            predicted_chosen: cost,
        }
    }

    /// Harvest observed atomic cardinalities from an EXPLAIN ANALYZE
    /// trace of `q` into the catalog. Spans are pre-order, exactly the
    /// order a pre-order walk of `q` visits nodes; a mismatched trace
    /// (different query) is ignored rather than mis-attributed.
    ///
    /// A leaf's size is its span's `pages_out`, which is its size only
    /// when the source staged it; a source whose leaves are runs reports
    /// 0 there and feeds the catalog through an [`ObservingSource`].
    pub fn observe_trace(&self, q: &Query, trace: &QueryTrace) {
        if trace.spans.len() != q.num_nodes() {
            return;
        }
        fn walk(planner: &Planner, q: &Query, trace: &QueryTrace, idx: &mut usize) {
            let span = &trace.spans[*idx];
            *idx += 1;
            if let Query::Atomic {
                base,
                scope,
                filter,
            } = q
            {
                if !matches!(filter, AtomicFilter::False) {
                    planner
                        .catalog
                        .observe(base, *scope, filter, span.entries_out, span.pages_out);
                }
            }
            match q {
                Query::Atomic { .. } => {}
                Query::And(a, b) | Query::Or(a, b) | Query::Diff(a, b) => {
                    walk(planner, a, trace, idx);
                    walk(planner, b, trace, idx);
                }
                Query::Hier { q1, q2, .. } | Query::EmbedRef { q1, q2, .. } => {
                    walk(planner, q1, trace, idx);
                    walk(planner, q2, trace, idx);
                }
                Query::HierPath { q1, q2, q3, .. } => {
                    walk(planner, q1, trace, idx);
                    walk(planner, q2, trace, idx);
                    walk(planner, q3, trace, idx);
                }
                Query::AggSelect { query, .. } => walk(planner, query, trace, idx),
            }
        }
        walk(self, q, trace, &mut 0);
    }

    /// Counters for metrics export.
    pub fn snapshot(&self) -> PlannerSnapshot {
        let cat = self.catalog.snapshot();
        PlannerSnapshot {
            planned: self.planned.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            steps_applied: self.steps_applied.load(Ordering::Relaxed),
            candidates_considered: self.candidates.load(Ordering::Relaxed),
            epoch: self.cache.epoch(),
            catalog_shapes: cat.shapes,
            catalog_observations: cat.observations,
        }
    }
}

/// An [`AtomicSource`] wrapper that records every atomic result's
/// observed cardinality and size in pages into a [`StatsCatalog`].
///
/// A result's size is the pages it takes up on the evaluator's pager
/// ([`Operand::pages_on`]): a staged list's own, and for a run handed
/// over in memory the pages it would fill. A pipelined leaf costs its
/// parent no I/O, but the operator outputs above it are written in
/// proportion to its size, so the chooser still needs it to rank
/// operand orders.
///
/// The observation happens strictly *after* the inner source's I/O
/// completes — the catalog lock is never held across page reads.
pub struct ObservingSource<'a, S: AtomicSource> {
    inner: &'a S,
    catalog: &'a StatsCatalog,
    pager: &'a Pager,
}

impl<'a, S: AtomicSource> ObservingSource<'a, S> {
    /// Wrap `inner`, feeding observations to `catalog`, sized on `pager`
    /// (the scratch pager the evaluator writes to).
    pub fn new(
        inner: &'a S,
        catalog: &'a StatsCatalog,
        pager: &'a Pager,
    ) -> ObservingSource<'a, S> {
        ObservingSource {
            inner,
            catalog,
            pager,
        }
    }
}

impl<S: AtomicSource> AtomicSource for ObservingSource<'_, S> {
    fn evaluate_atomic(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &AtomicFilter,
    ) -> PagerResult<Operand<Entry>> {
        let out = self.inner.evaluate_atomic(base, scope, filter)?;
        self.catalog
            .observe(base, scope, filter, out.len(), out.pages_on(self.pager));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::HierOp;
    use crate::eval::Evaluator;
    use netdir_index::IndexedDirectory;
    use netdir_model::{Directory, Entry};
    use netdir_pager::Pager;

    fn atom(base: &str, filter: AtomicFilter) -> Query {
        Query::atomic(Dn::parse(base).unwrap(), Scope::Sub, filter)
    }

    fn test_directory() -> Directory {
        let mut d = Directory::new();
        let root = Dn::parse("dc=test").unwrap();
        d.insert(Entry::builder(root.clone()).class("thing").build().unwrap())
            .unwrap();
        d.insert(
            Entry::builder(Dn::parse("ou=narrow, dc=test").unwrap())
                .class("thing")
                .build()
                .unwrap(),
        )
        .unwrap();
        for i in 0..80 {
            let parent = if i % 5 == 0 {
                "dc=test".to_string()
            } else {
                "ou=narrow, dc=test".to_string()
            };
            d.insert(
                Entry::builder(Dn::parse(&format!("n=e{i}, {parent}")).unwrap())
                    .class("thing")
                    .attr("kind", if i % 4 == 0 { "rare" } else { "common" })
                    .attr("weight", i % 7)
                    .build()
                    .unwrap(),
            )
            .unwrap();
        }
        d
    }

    #[test]
    fn shapes_share_across_constants_only() {
        let red = atom("dc=test", AtomicFilter::eq("kind", "red"));
        let blue = atom("dc=test", AtomicFilter::eq("kind", "blue"));
        assert_eq!(query_shape(&red), query_shape(&blue));
        let q1 = Query::and(red.clone(), atom("dc=test", AtomicFilter::present("weight")));
        let q2 = Query::and(blue.clone(), atom("dc=test", AtomicFilter::present("weight")));
        assert_eq!(query_shape(&q1), query_shape(&q2));
        assert_ne!(query_shape(&q1), query_shape(&Query::or(red, blue)));
        // Agg constants abstract too.
        let g1 = Query::agg_select(q1, AggSelFilter::exists_witness());
        let shape = query_shape(&g1);
        assert!(shape.contains('\u{2}'), "constant abstracted: {shape}");
    }

    #[test]
    fn ruinous_rewrite_is_enumerated_but_never_chosen() {
        let planner = Planner::new();
        let q = Query::hier(
            HierOp::Ancestors,
            atom("dc=test", AtomicFilter::eq("kind", "rare")),
            atom("dc=test", AtomicFilter::True),
        );
        let planned = planner.plan(&q);
        assert!(
            planned
                .steps
                .iter()
                .all(|s| !matches!(s, Step::RewriteConstrained { .. })),
            "cost model must reject the (- X X) rewrite: {:?}",
            planned.steps
        );
        assert!(planned.predicted_chosen <= planned.predicted_naive + 1e-9);
        // …but a query that arrives already carrying the ruinous operand
        // gets de-rewritten.
        let ruinous = crate::rewrite::rewrite_tree(&q);
        let fixed = planner.plan(&ruinous);
        assert!(
            fixed
                .steps
                .iter()
                .any(|s| matches!(s, Step::DeRewrite { .. } | Step::ShortCircuitDiff { .. })),
            "expected a repair step, got {:?}",
            fixed.steps
        );
        assert!(fixed.predicted_chosen < fixed.predicted_naive);
    }

    #[test]
    fn cache_hits_on_template_traffic_and_epoch_invalidates() {
        let planner = Planner::new();
        let template = |v: &str| {
            Query::and(
                atom("dc=test", AtomicFilter::eq("kind", v)),
                atom("dc=test", AtomicFilter::present("weight")),
            )
        };
        let first = planner.plan(&template("red"));
        assert!(!first.cache_hit);
        let second = planner.plan(&template("blue"));
        assert!(second.cache_hit, "same shape must replay the cached plan");
        planner.bump_epoch();
        let third = planner.plan(&template("green"));
        assert!(!third.cache_hit, "epoch bump must invalidate");
        let snap = planner.snapshot();
        assert_eq!(snap.planned, 3);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 2);
        assert_eq!(snap.epoch, 1);
    }

    #[test]
    fn observed_feedback_drives_byte_identical_cheaper_plans() {
        let d = test_directory();
        let pager = Pager::new(512, 128);
        let idx = IndexedDirectory::build(&pager, &d).unwrap();
        let planner = Planner::new();

        // Train: evaluate the atoms once through an observing source.
        let rare = atom("dc=test", AtomicFilter::eq("kind", "rare"));
        let broad1 = atom("dc=test", AtomicFilter::True);
        let broad2 = atom("dc=test", AtomicFilter::present("weight"));
        let observing = ObservingSource::new(&idx, planner.catalog(), &pager);
        let ev = Evaluator::new(&observing, &pager);
        for a in [&rare, &broad1, &broad2] {
            ev.evaluate(a).unwrap();
        }
        assert!(planner.snapshot().catalog_observations >= 3);

        // The two broad atoms merging first is the worst association —
        // the whole directory materializes as an intermediate. Reordered
        // so the rare list merges first, every intermediate is small.
        let q = Query::and(Query::and(broad1.clone(), broad2.clone()), rare.clone());
        let planned = planner.plan(&q);
        assert!(
            planned
                .steps
                .iter()
                .any(|s| matches!(s, Step::ReorderBool { .. })),
            "expected a reorder, got {:?}",
            planned.steps
        );
        assert!(planned.predicted_chosen < planned.predicted_naive);

        // Byte-identical: same entries, same order.
        let naive_out = Evaluator::new(&idx, &pager)
            .evaluate(&q)
            .unwrap()
            .to_vec()
            .unwrap();
        let planned_out = Evaluator::new(&idx, &pager)
            .evaluate(&planned.query)
            .unwrap()
            .to_vec()
            .unwrap();
        assert_eq!(naive_out, planned_out);
    }

    #[test]
    fn analyze_traces_feed_the_catalog() {
        let d = test_directory();
        let pager = Pager::new(512, 128);
        let idx = IndexedDirectory::build(&pager, &d).unwrap();
        let planner = Planner::new();
        let q = Query::and(
            atom("dc=test", AtomicFilter::eq("kind", "rare")),
            atom("ou=narrow, dc=test", AtomicFilter::True),
        );
        let (_, trace) = crate::explain::analyze(&idx, &pager, &q).unwrap();
        planner.observe_trace(&q, &trace);
        let snap = planner.snapshot();
        assert_eq!(snap.catalog_shapes, 2);
        assert_eq!(snap.catalog_observations, 2);
        let got = planner
            .catalog()
            .lookup(
                &Dn::parse("dc=test").unwrap(),
                Scope::Sub,
                &AtomicFilter::eq("kind", "anything-same-shape"),
            )
            .unwrap();
        assert!(got.entries > 0.0);
        // A mismatched trace is ignored, not mis-attributed.
        planner.observe_trace(&atom("dc=test", AtomicFilter::True), &trace);
        assert_eq!(planner.snapshot().catalog_observations, 2);
    }
}

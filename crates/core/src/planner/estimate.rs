//! Cardinality and cost estimation over query trees.
//!
//! Estimates flow bottom-up exactly the way evaluation does: each
//! atomic leaf is looked up in the [`StatsCatalog`] by shape (falling
//! back to a neutral default when the shape has never been observed),
//! and each operator derives its output estimate from its children —
//! intersection takes the smaller side, union the sum, selection
//! operators are bounded by their candidate list. The cost of a plan is
//! the sum of [`predicted_node_io`] over every node, fed the *estimated*
//! pages flowing into it — the same per-node shape EXPLAIN ANALYZE
//! reports, so observed feedback calibrates exactly the quantity the
//! chooser ranks by.

use crate::ast::Query;
use crate::cost::{predicted_node_io, CostInputs};
use crate::planner::stats::StatsCatalog;
use netdir_filter::AtomicFilter;

/// Neutral default for a never-observed atomic shape.
const DEFAULT_ENTRIES: f64 = 64.0;
/// Neutral default pages for a never-observed atomic shape.
const DEFAULT_PAGES: f64 = 8.0;
/// `m` (max values per attribute) used for the L3 sort-merge term until
/// the catalog has better information.
const DEFAULT_MAX_VALUES: u64 = 4;

/// An estimated intermediate result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Estimated cardinality.
    pub entries: f64,
    /// Estimated size in pages.
    pub pages: f64,
}

impl Estimate {
    fn zero() -> Estimate {
        Estimate {
            entries: 0.0,
            pages: 0.0,
        }
    }
}

/// Estimate the output of `q` under `catalog`'s statistics.
pub fn estimate(q: &Query, catalog: &StatsCatalog) -> Estimate {
    match q {
        Query::Atomic {
            base,
            scope,
            filter,
        } => {
            // A constant-false atomic is empty by construction — no
            // observation needed (and none will ever arrive to say
            // otherwise, since its shape predicts itself).
            if matches!(filter, AtomicFilter::False) {
                return Estimate::zero();
            }
            match catalog.lookup(base, *scope, filter) {
                Some(s) => Estimate {
                    entries: s.entries,
                    pages: s.pages,
                },
                None => Estimate {
                    entries: DEFAULT_ENTRIES,
                    pages: DEFAULT_PAGES,
                },
            }
        }
        Query::And(a, b) => {
            let (ea, eb) = (estimate(a, catalog), estimate(b, catalog));
            Estimate {
                entries: ea.entries.min(eb.entries),
                pages: ea.pages.min(eb.pages),
            }
        }
        Query::Or(a, b) => {
            let (ea, eb) = (estimate(a, catalog), estimate(b, catalog));
            Estimate {
                entries: ea.entries + eb.entries,
                pages: ea.pages + eb.pages,
            }
        }
        Query::Diff(a, b) => {
            // Structurally-identical operands cancel exactly; otherwise
            // the left side bounds the result.
            if a == b {
                Estimate::zero()
            } else {
                estimate(a, catalog)
            }
        }
        // The hierarchy/reference operators select a subset of their
        // candidate list `q1`.
        Query::Hier { q1, .. } | Query::HierPath { q1, .. } | Query::EmbedRef { q1, .. } => {
            estimate(q1, catalog)
        }
        Query::AggSelect { query, .. } => estimate(query, catalog),
    }
}

/// A vanishing per-node charge that breaks exact cost ties toward the
/// *smaller* tree (e.g. de-rewriting `ac` whose blocker operand is
/// already free). Far below one page, so it never outvotes a real I/O
/// difference.
const NODE_EPS: f64 = 1e-6;

/// The estimated total I/O of evaluating `q`: the sum over every node of
/// [`predicted_node_io`] applied to the estimated pages flowing into it
/// (children's outputs for operators, own output for leaves), plus
/// [`NODE_EPS`] per node as a smaller-tree tie-breaker. Plans are ranked
/// by size, so every input is charged as read and no budget is assumed.
pub fn plan_cost(q: &Query, catalog: &StatsCatalog) -> f64 {
    let inputs = CostInputs {
        atomic_pages: 0,
        max_values_per_attr: DEFAULT_MAX_VALUES,
        budget_pages: 0,
    };
    fn walk(q: &Query, catalog: &StatsCatalog, inputs: CostInputs, total: &mut f64) -> Estimate {
        let children = q.children();
        let out = estimate(q, catalog);
        let input_pages = if children.is_empty() {
            out.pages
        } else {
            children
                .iter()
                .map(|c| walk(c, catalog, inputs, total).pages)
                .sum()
        };
        // predicted_node_io takes whole pages; round up so sub-page
        // estimates still register.
        let input_pages = input_pages.ceil() as u64;
        *total += predicted_node_io(q, input_pages, input_pages, inputs) + NODE_EPS;
        out
    }
    let mut total = 0.0;
    walk(q, catalog, inputs, &mut total);
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{HierOp, HierPathOp};
    use crate::rewrite::{empty_query, whole_directory};
    use netdir_filter::Scope;
    use netdir_model::Dn;

    fn atom(kind: &str) -> Query {
        Query::atomic(
            Dn::parse("dc=test").unwrap(),
            Scope::Sub,
            AtomicFilter::eq("kind", kind),
        )
    }

    #[test]
    fn false_atomic_estimates_empty_and_free() {
        let cat = StatsCatalog::new();
        let e = estimate(&empty_query(), &cat);
        assert_eq!(e.entries, 0.0);
        assert_eq!(e.pages, 0.0);
        assert!(plan_cost(&empty_query(), &cat) < 1e-3, "only the tie-break term");
    }

    #[test]
    fn catalog_feedback_moves_the_estimate() {
        let cat = StatsCatalog::new();
        let q = atom("red");
        let before = estimate(&q, &cat);
        assert_eq!(before.entries, DEFAULT_ENTRIES);
        cat.observe(
            &Dn::parse("dc=test").unwrap(),
            Scope::Sub,
            &AtomicFilter::eq("kind", "red"),
            500,
            40,
        );
        let after = estimate(&q, &cat);
        assert_eq!(after.entries, 500.0);
        // Same shape, different constant → shares the observed row.
        assert_eq!(estimate(&atom("never-observed"), &cat), after);
        // A different attribute is a different shape → still at defaults.
        let other = Query::atomic(
            Dn::parse("dc=test").unwrap(),
            Scope::Sub,
            AtomicFilter::present("weight"),
        );
        assert!(plan_cost(&q, &cat) > plan_cost(&other, &cat) * 2.0);
    }

    #[test]
    fn legacy_empty_diff_costs_more_than_constant_false() {
        let cat = StatsCatalog::new();
        let legacy = Query::diff(whole_directory(), whole_directory());
        assert_eq!(estimate(&legacy, &cat).entries, 0.0, "Diff(q,q) is empty");
        assert!(plan_cost(&legacy, &cat) > plan_cost(&empty_query(), &cat));
        // …and dominates the cost of the a-rewrite that carries it.
        let plain = Query::hier(HierOp::Ancestors, atom("red"), atom("blue"));
        let ruinous = Query::hier_path(
            HierPathOp::AncestorsConstrained,
            atom("red"),
            atom("blue"),
            legacy,
        );
        assert!(plan_cost(&ruinous, &cat) > plan_cost(&plain, &cat));
    }
}

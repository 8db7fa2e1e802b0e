//! The I/O cost model of Theorems 8.3 and 8.4.
//!
//! * **Theorem 8.3** — any L2 query evaluates in constant memory with I/O
//!   `O(|Q| · |L|/B)`: `|Q|` = query-tree nodes, `|L|` = cumulative size of
//!   the atomic sub-query outputs, `B` = blocking factor.
//! * **Theorem 8.4** — any L3 query evaluates in
//!   `O(|Q| · |L|/B · m · log(|L|/B · m))`, `m` = max values per attribute.
//!
//! [`predicted_io`] instantiates these formulas for a concrete query and
//! measured atomic-output page counts; experiment E8/E9 compares the
//! prediction's *shape* against measured ledgers (the constants are
//! implementation-specific; the theorems are asymptotic).

use crate::ast::Query;
use crate::lang::{classify, Language};

/// Inputs to the cost formulas.
#[derive(Debug, Clone, Copy)]
pub struct CostInputs {
    /// Cumulative pages of all atomic sub-query outputs (`|L|/B`).
    pub atomic_pages: u64,
    /// Max values per attribute (`m`); only L3 terms use it.
    pub max_values_per_attr: u64,
    /// The memory budget *M* in pages: intermediates no larger stay in
    /// memory and cost no I/O. 0 charges every intermediate.
    pub budget_pages: u64,
}

/// Predicted I/O (in pages, up to constants) for evaluating `q`.
///
/// Genuinely empty inputs predict 0: only the `log` argument is clamped
/// (a `log2` of sub-page inputs must not go negative or undefined), not
/// the page count itself, so EXPLAIN ANALYZE's predictions aren't
/// calibrated against a ≥1-page floor artifact when a sub-query provably
/// produces nothing.
pub fn predicted_io(q: &Query, inputs: CostInputs) -> f64 {
    let nodes = q.num_nodes() as f64;
    let pages = inputs.atomic_pages as f64;
    match classify(q) {
        Language::L3 => {
            let m = inputs.max_values_per_attr.max(1) as f64;
            let nm = pages * m;
            nodes * nm * nm.max(1.0).log2().max(1.0)
        }
        _ => nodes * pages,
    }
}

/// Predicted I/O (in pages, up to constants) for evaluating *one*
/// operator node.
///
/// `read_pages` are the pages of the node's direct inputs that sit on
/// pages — the children's output pages for operators, the node's own
/// output pages for an atomic leaf (a leaf staged on pages costs writing
/// them). An input held in memory as a run occupies none, so it reads
/// free. `size_pages` is those inputs' size in pages wherever they are
/// held, and sizes what the operator writes: its output, and for the
/// hierarchy operators the chains or staged stream of annotated
/// candidates, for the ER join the pair lists and their sorts. Those
/// stay in memory, at no I/O, while they fit [`CostInputs::budget_pages`];
/// past it the output is written once, annotated candidates are written
/// and read back, and the pair lists take Theorem 7.1's sort-merge
/// `m · log` factor.
///
/// As with [`predicted_io`], zero pages predict zero I/O; only the `log`
/// argument carries a floor.
pub fn predicted_node_io(q: &Query, read_pages: u64, size_pages: u64, inputs: CostInputs) -> f64 {
    let (read, size) = (read_pages as f64, size_pages as f64);
    if size_pages <= inputs.budget_pages {
        return read;
    }
    match q {
        Query::Atomic { .. } => read,
        Query::EmbedRef { .. } => {
            let nm = size * inputs.max_values_per_attr.max(1) as f64;
            read + nm * nm.max(1.0).log2().max(1.0)
        }
        Query::Hier { .. } | Query::HierPath { .. } => read + 2.0 * size,
        _ => read + size,
    }
}

/// The theorem that applies to `q`'s language.
pub fn applicable_theorem(q: &Query) -> &'static str {
    match classify(q) {
        Language::L3 => "Theorem 8.4 (O(|Q| · |L|/B · m · log(|L|/B · m)))",
        _ => "Theorem 8.3 (O(|Q| · |L|/B))",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{HierOp, RefOp};
    use netdir_filter::{AtomicFilter, Scope};
    use netdir_model::Dn;

    fn pages(atomic_pages: u64, max_values_per_attr: u64) -> CostInputs {
        CostInputs {
            atomic_pages,
            max_values_per_attr,
            budget_pages: 0,
        }
    }

    fn atom() -> Query {
        Query::atomic(
            Dn::parse("dc=com").unwrap(),
            Scope::Sub,
            AtomicFilter::present("x"),
        )
    }

    #[test]
    fn l2_cost_is_linear_in_pages_and_nodes() {
        let q = Query::hier(HierOp::Children, atom(), atom());
        let c1 = predicted_io(&q, pages(100, 1));
        let c2 = predicted_io(&q, pages(200, 1));
        assert!((c2 / c1 - 2.0).abs() < 1e-9, "doubling pages doubles cost");
        assert!(applicable_theorem(&q).contains("8.3"));
    }

    #[test]
    fn empty_inputs_predict_zero_io() {
        let empty = pages(0, 4);
        let l2 = Query::hier(HierOp::Children, atom(), atom());
        assert_eq!(predicted_io(&l2, empty), 0.0);
        let l3 = Query::embed_ref(RefOp::ValueDn, atom(), atom(), "ref");
        assert_eq!(predicted_io(&l3, empty), 0.0);
        assert_eq!(predicted_node_io(&l2, 0, 0, empty), 0.0);
        assert_eq!(predicted_node_io(&l3, 0, 0, empty), 0.0);
        // One page still predicts at least one page — the log clamp
        // keeps small inputs from predicting *less* than their size.
        assert!(predicted_node_io(&l3, 1, 1, empty) >= 1.0);
    }

    #[test]
    fn intermediates_within_the_budget_cost_only_the_pages_read() {
        let l2 = Query::hier(HierOp::Children, atom(), atom());
        let l3 = Query::embed_ref(RefOp::ValueDn, atom(), atom(), "ref");
        let m = CostInputs {
            budget_pages: 64,
            ..pages(0, 4)
        };
        for q in [&l2, &l3] {
            // Runs in, everything in memory: nothing to predict.
            assert_eq!(predicted_node_io(q, 0, 64, m), 0.0);
            assert_eq!(predicted_node_io(q, 10, 64, m), 10.0);
            // Past the budget the intermediates spill and cost pages.
            assert!(predicted_node_io(q, 0, 65, m) >= 130.0);
        }
        assert_eq!(predicted_node_io(&l2, 65, 65, m), 65.0 + 2.0 * 65.0);
    }

    #[test]
    fn l3_cost_is_superlinear() {
        let q = Query::embed_ref(RefOp::ValueDn, atom(), atom(), "ref");
        let c1 = predicted_io(&q, pages(100, 1));
        let c2 = predicted_io(&q, pages(200, 1));
        assert!(c2 / c1 > 2.0, "log factor makes growth superlinear");
        assert!(applicable_theorem(&q).contains("8.4"));
        // Sensitivity to m.
        let cm = predicted_io(&q, pages(100, 8));
        assert!(cm > c1 * 8.0);
    }
}

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
}

/// Predicted I/O (in pages, up to constants) for evaluating `q`.
///
/// Genuinely empty inputs predict 0: only the `log` argument is clamped
/// (a `log2` of sub-page inputs must not go negative or undefined), not
/// the page count itself, so EXPLAIN ANALYZE's predictions and the
/// planner's feedback loop aren't calibrated against a ≥1-page floor
/// artifact when a sub-query provably produces nothing.
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
/// operator node, given the pages flowing into it.
///
/// `input_pages` is the cumulative size of the node's direct inputs in
/// pages: the children's output pages for operators, the node's own
/// output pages for atomic leaves. A leaf staged on pages costs writing
/// them; a leaf its source hands over as an in-memory run occupies none,
/// so a pipelined edge predicts zero pages, for the leaf and for the
/// operator reading it. Every operator below L3 is a single linear pass
/// over sorted inputs (Theorems 6.1/8.3); the ER join adds Theorem 7.1's
/// sort-merge `m · log` factor.
///
/// As with [`predicted_io`], zero input pages predict zero I/O; only the
/// `log` argument carries a floor.
pub fn predicted_node_io(q: &Query, input_pages: u64, inputs: CostInputs) -> f64 {
    let pages = input_pages as f64;
    match q {
        Query::EmbedRef { .. } => {
            let m = inputs.max_values_per_attr.max(1) as f64;
            let nm = pages * m;
            nm * nm.max(1.0).log2().max(1.0)
        }
        _ => pages,
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
        let c1 = predicted_io(
            &q,
            CostInputs {
                atomic_pages: 100,
                max_values_per_attr: 1,
            },
        );
        let c2 = predicted_io(
            &q,
            CostInputs {
                atomic_pages: 200,
                max_values_per_attr: 1,
            },
        );
        assert!((c2 / c1 - 2.0).abs() < 1e-9, "doubling pages doubles cost");
        assert!(applicable_theorem(&q).contains("8.3"));
    }

    #[test]
    fn empty_inputs_predict_zero_io() {
        let empty = CostInputs {
            atomic_pages: 0,
            max_values_per_attr: 4,
        };
        let l2 = Query::hier(HierOp::Children, atom(), atom());
        assert_eq!(predicted_io(&l2, empty), 0.0);
        let l3 = Query::embed_ref(RefOp::ValueDn, atom(), atom(), "ref");
        assert_eq!(predicted_io(&l3, empty), 0.0);
        assert_eq!(predicted_node_io(&l2, 0, empty), 0.0);
        assert_eq!(predicted_node_io(&l3, 0, empty), 0.0);
        // One page still predicts at least one page — the log clamp
        // keeps small inputs from predicting *less* than their size.
        assert!(predicted_node_io(&l3, 1, empty) >= 1.0);
    }

    #[test]
    fn l3_cost_is_superlinear() {
        let q = Query::embed_ref(RefOp::ValueDn, atom(), atom(), "ref");
        let c1 = predicted_io(
            &q,
            CostInputs {
                atomic_pages: 100,
                max_values_per_attr: 1,
            },
        );
        let c2 = predicted_io(
            &q,
            CostInputs {
                atomic_pages: 200,
                max_values_per_attr: 1,
            },
        );
        assert!(c2 / c1 > 2.0, "log factor makes growth superlinear");
        assert!(applicable_theorem(&q).contains("8.4"));
        // Sensitivity to m.
        let cm = predicted_io(
            &q,
            CostInputs {
                atomic_pages: 100,
                max_values_per_attr: 8,
            },
        );
        assert!(cm > c1 * 8.0);
    }
}

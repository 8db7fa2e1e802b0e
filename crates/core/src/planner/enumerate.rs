//! Candidate-plan enumeration: the semantics-preserving transformations
//! the chooser ranks by estimated cost.
//!
//! Every candidate is expressed as a [`Step`] — a small structural edit
//! addressed by a path of child indices — rather than a whole rewritten
//! tree, so the plan cache can replay a winning step sequence on any
//! later query of the same shape without re-enumerating.
//!
//! The transformation inventory, and why each preserves bytes:
//!
//! * **Boolean-merge reordering** — `&`/`|` are commutative and
//!   associative over reverse-DN-sorted *sets*, so re-associating a
//!   merge chain so the smallest estimated lists combine first shrinks
//!   every intermediate without changing the final sorted list.
//! * **Base tightening** — in `(& (b1 ? sub ? f1) (b2 ? sub ? f2))`
//!   with `b2` a proper descendant of `b1`, every result entry lies
//!   under `b2`, so the wider atom can be re-based at `b2` and scan a
//!   fraction of the directory.
//! * **Diff short-circuit** — `(- X X)` is empty for any `X`; replace it
//!   with the constant-false atomic (zero I/O instead of two `X` scans).
//! * **De-rewrite** — `ac`/`dc` with a provably-empty blocker operand is
//!   exactly `a`/`d` (nothing can block), dropping a whole operand. This
//!   is the *safe* inverse of Theorem 8.2(d); the `p`/`c` direction is
//!   deliberately absent because it coincides only on dense directories.
//! * **Constrained rewrite** — the Theorem 8.2(d) `a`/`d` → `ac`/`dc`
//!   rewrite with the paper's `(- X X)` whole-directory empty operand.
//!   Enumerated so the cost model can *reject* it: E11 measures the
//!   blow-up, and the regression suite asserts it is never chosen while
//!   the plain operator is available.

use crate::ast::{HierOp, HierPathOp, Query};
use crate::planner::estimate::estimate;
use crate::planner::stats::StatsCatalog;
use crate::rewrite::{empty_query, whole_directory};
use netdir_filter::{AtomicFilter, Scope};

/// One structural edit on a query tree. Paths are child indices in
/// operand order from the root; an empty path addresses the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Re-associate the maximal `&`-or-`|` chain rooted at `path` into a
    /// left-deep tree combining operands in `order` (indices into the
    /// flattened operand list, in merge order).
    ReorderBool {
        /// Path to the chain root.
        path: Vec<u8>,
        /// Permutation of the flattened operands.
        order: Vec<u8>,
    },
    /// Narrow the wider operand of an `&` of two `sub`-scope atomics to
    /// the deeper base.
    TightenBase {
        /// Path to the `&` node.
        path: Vec<u8>,
    },
    /// Replace `(- X X)` with the constant-false atomic.
    ShortCircuitDiff {
        /// Path to the `-` node.
        path: Vec<u8>,
    },
    /// Replace `ac`/`dc` with a provably-empty blocker by plain `a`/`d`.
    DeRewrite {
        /// Path to the `ac`/`dc` node.
        path: Vec<u8>,
    },
    /// The Theorem 8.2(d) rewrite of plain `a`/`d` into `ac`/`dc` with
    /// the paper's `(- X X)` empty operand — the ruinous candidate.
    RewriteConstrained {
        /// Path to the `a`/`d` node.
        path: Vec<u8>,
    },
}

impl Step {
    /// Apply this edit to `q`. `None` when the tree doesn't match the
    /// step (a cache replay against a drifted shape): the caller falls
    /// back to fresh planning — never to a wrong plan.
    pub fn apply(&self, q: &Query) -> Option<Query> {
        match self {
            Step::ReorderBool { path, order } => rewrite_at(q, path, &|node| {
                let (kind, operands) = flatten_chain(node)?;
                if order.len() != operands.len() || order.len() < 2 {
                    return None;
                }
                let mut sorted: Vec<u8> = order.clone();
                sorted.sort_unstable();
                if sorted.iter().enumerate().any(|(i, &o)| o as usize != i) {
                    return None; // not a permutation
                }
                let mut it = order.iter().map(|&i| operands[i as usize].clone());
                let first = it.next()?;
                Some(it.fold(first, |acc, next| match kind {
                    BoolKind::And => Query::and(acc, next),
                    BoolKind::Or => Query::or(acc, next),
                }))
            }),
            Step::TightenBase { path } => rewrite_at(q, path, &|node| {
                let Query::And(a, b) = node else { return None };
                let (wide, deep_base) = tightening(a, b)?;
                let Query::Atomic { scope, filter, .. } = wide else {
                    return None;
                };
                let narrowed = Query::atomic(deep_base.clone(), *scope, filter.clone());
                Some(if wide == a.as_ref() {
                    Query::and(narrowed, (**b).clone())
                } else {
                    Query::and((**a).clone(), narrowed)
                })
            }),
            Step::ShortCircuitDiff { path } => rewrite_at(q, path, &|node| match node {
                Query::Diff(a, b) if a == b => Some(empty_query()),
                _ => None,
            }),
            Step::DeRewrite { path } => rewrite_at(q, path, &|node| match node {
                Query::HierPath {
                    op,
                    q1,
                    q2,
                    q3,
                    agg,
                } if is_statically_empty(q3) => Some(Query::Hier {
                    op: match op {
                        HierPathOp::AncestorsConstrained => HierOp::Ancestors,
                        HierPathOp::DescendantsConstrained => HierOp::Descendants,
                    },
                    q1: q1.clone(),
                    q2: q2.clone(),
                    agg: agg.clone(),
                }),
                _ => None,
            }),
            Step::RewriteConstrained { path } => rewrite_at(q, path, &|node| match node {
                Query::Hier { op, q1, q2, agg } => {
                    let path_op = match op {
                        HierOp::Ancestors => HierPathOp::AncestorsConstrained,
                        HierOp::Descendants => HierPathOp::DescendantsConstrained,
                        // p/c only coincide with their rewrite on dense
                        // directories — never a planner transformation.
                        HierOp::Parents | HierOp::Children => return None,
                    };
                    Some(Query::HierPath {
                        op: path_op,
                        q1: q1.clone(),
                        q2: q2.clone(),
                        q3: Box::new(Query::diff(whole_directory(), whole_directory())),
                        agg: agg.clone(),
                    })
                }
                _ => None,
            }),
        }
    }

    /// Short human-readable label (metrics, EXPLAIN surfaces).
    pub fn kind(&self) -> &'static str {
        match self {
            Step::ReorderBool { .. } => "reorder-bool",
            Step::TightenBase { .. } => "tighten-base",
            Step::ShortCircuitDiff { .. } => "short-circuit-diff",
            Step::DeRewrite { .. } => "de-rewrite",
            Step::RewriteConstrained { .. } => "rewrite-constrained",
        }
    }
}

/// Apply every step in order; `None` as soon as one fails to match.
pub fn apply_steps(q: &Query, steps: &[Step]) -> Option<Query> {
    let mut current = q.clone();
    for s in steps {
        current = s.apply(&current)?;
    }
    Some(current)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BoolKind {
    And,
    Or,
}

fn bool_kind(q: &Query) -> Option<BoolKind> {
    match q {
        Query::And(..) => Some(BoolKind::And),
        Query::Or(..) => Some(BoolKind::Or),
        _ => None,
    }
}

/// Flatten the maximal same-operator chain rooted at `q` into its
/// operands, in order.
fn flatten_chain(q: &Query) -> Option<(BoolKind, Vec<&Query>)> {
    let kind = bool_kind(q)?;
    fn collect<'q>(q: &'q Query, kind: BoolKind, out: &mut Vec<&'q Query>) {
        match (q, kind) {
            (Query::And(a, b), BoolKind::And) | (Query::Or(a, b), BoolKind::Or) => {
                collect(a, kind, out);
                collect(b, kind, out);
            }
            _ => out.push(q),
        }
    }
    let mut operands = Vec::new();
    collect(q, kind, &mut operands);
    Some((kind, operands))
}

/// For `(& a b)`: if both are `sub`-scope atomics with one base a proper
/// descendant of the other, return the *wider* operand and the deeper
/// base it should be narrowed to.
fn tightening<'q>(a: &'q Query, b: &'q Query) -> Option<(&'q Query, &'q netdir_model::Dn)> {
    let (Query::Atomic {
        base: ba,
        scope: Scope::Sub,
        ..
    }, Query::Atomic {
        base: bb,
        scope: Scope::Sub,
        ..
    }) = (a, b)
    else {
        return None;
    };
    if ba.is_ancestor_of(bb) && ba != bb {
        Some((a, bb))
    } else if bb.is_ancestor_of(ba) && ba != bb {
        Some((b, ba))
    } else {
        None
    }
}

/// True iff `q` provably evaluates to the empty list, by structure
/// alone: the constant-false atomic, or a `Diff` of identical operands.
pub fn is_statically_empty(q: &Query) -> bool {
    match q {
        Query::Atomic {
            filter: AtomicFilter::False,
            ..
        } => true,
        Query::Diff(a, b) => a == b,
        _ => false,
    }
}

/// Enumerate every applicable step on `q`, deterministically.
///
/// `ReorderBool` proposals order the flattened operands by ascending
/// estimated pages under `catalog` (ties broken by original position, so
/// enumeration is stable).
pub fn enumerate_steps(q: &Query, catalog: &StatsCatalog) -> Vec<Step> {
    let mut steps = Vec::new();
    walk(q, None, &mut Vec::new(), catalog, &mut steps);
    steps
}

fn walk(
    q: &Query,
    parent_kind: Option<BoolKind>,
    path: &mut Vec<u8>,
    catalog: &StatsCatalog,
    steps: &mut Vec<Step>,
) {
    let kind = bool_kind(q);
    match q {
        Query::And(a, b) | Query::Or(a, b) => {
            // Only propose a reorder at the *root* of a same-op chain;
            // interior nodes are covered by the root's flattening.
            if kind != parent_kind {
                if let Some((_, operands)) = flatten_chain(q) {
                    if operands.len() >= 2 && operands.len() <= u8::MAX as usize {
                        let mut order: Vec<u8> = (0..operands.len() as u8).collect();
                        order.sort_by(|&x, &y| {
                            let px = estimate(operands[x as usize], catalog).pages;
                            let py = estimate(operands[y as usize], catalog).pages;
                            px.partial_cmp(&py)
                                .unwrap_or(std::cmp::Ordering::Equal)
                                .then(x.cmp(&y))
                        });
                        steps.push(Step::ReorderBool {
                            path: path.clone(),
                            order,
                        });
                    }
                }
            }
            if matches!(q, Query::And(..)) && tightening(a, b).is_some() {
                steps.push(Step::TightenBase { path: path.clone() });
            }
        }
        Query::Diff(a, b) if a == b => {
            steps.push(Step::ShortCircuitDiff { path: path.clone() });
        }
        Query::HierPath { q3, .. } if is_statically_empty(q3) => {
            steps.push(Step::DeRewrite { path: path.clone() });
        }
        Query::Hier {
            op: HierOp::Ancestors | HierOp::Descendants,
            ..
        } => {
            steps.push(Step::RewriteConstrained { path: path.clone() });
        }
        _ => {}
    }
    for (i, c) in q.children().into_iter().enumerate() {
        path.push(i as u8);
        walk(c, kind, path, catalog, steps);
        path.pop();
    }
}

/// Rebuild `q` with the node at `path` replaced by `f(node)`; `None`
/// when the path dangles or `f` declines.
fn rewrite_at(q: &Query, path: &[u8], f: &dyn Fn(&Query) -> Option<Query>) -> Option<Query> {
    let Some((&idx, rest)) = path.split_first() else {
        return f(q);
    };
    let idx = idx as usize;
    let rebuild = |child: Query, q: &Query, at: usize| -> Option<Query> {
        Some(match (q, at) {
            (Query::And(a, _), 1) => Query::and((**a).clone(), child),
            (Query::And(_, b), 0) => Query::and(child, (**b).clone()),
            (Query::Or(a, _), 1) => Query::or((**a).clone(), child),
            (Query::Or(_, b), 0) => Query::or(child, (**b).clone()),
            (Query::Diff(a, _), 1) => Query::diff((**a).clone(), child),
            (Query::Diff(_, b), 0) => Query::diff(child, (**b).clone()),
            (Query::Hier { op, q1, q2, agg }, at) if at < 2 => Query::Hier {
                op: *op,
                q1: if at == 0 {
                    Box::new(child.clone())
                } else {
                    q1.clone()
                },
                q2: if at == 1 { Box::new(child) } else { q2.clone() },
                agg: agg.clone(),
            },
            (
                Query::HierPath {
                    op,
                    q1,
                    q2,
                    q3,
                    agg,
                },
                at,
            ) if at < 3 => Query::HierPath {
                op: *op,
                q1: if at == 0 {
                    Box::new(child.clone())
                } else {
                    q1.clone()
                },
                q2: if at == 1 {
                    Box::new(child.clone())
                } else {
                    q2.clone()
                },
                q3: if at == 2 { Box::new(child) } else { q3.clone() },
                agg: agg.clone(),
            },
            (Query::AggSelect { filter, .. }, 0) => Query::AggSelect {
                query: Box::new(child),
                filter: filter.clone(),
            },
            (
                Query::EmbedRef {
                    op,
                    q1,
                    q2,
                    attr,
                    agg,
                },
                at,
            ) if at < 2 => Query::EmbedRef {
                op: *op,
                q1: if at == 0 {
                    Box::new(child.clone())
                } else {
                    q1.clone()
                },
                q2: if at == 1 { Box::new(child) } else { q2.clone() },
                attr: attr.clone(),
                agg: agg.clone(),
            },
            _ => return None,
        })
    };
    let kids = q.children();
    let child = kids.get(idx)?;
    let new_child = rewrite_at(child, rest, f)?;
    rebuild(new_child, q, idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdir_model::Dn;

    fn atom(base: &str, kind: &str) -> Query {
        Query::atomic(
            Dn::parse(base).unwrap(),
            Scope::Sub,
            AtomicFilter::eq("kind", kind),
        )
    }

    #[test]
    fn reorder_rebuilds_left_deep_in_order() {
        let q = Query::or(
            Query::or(atom("dc=test", "a"), atom("dc=test", "b")),
            atom("dc=test", "c"),
        );
        let step = Step::ReorderBool {
            path: vec![],
            order: vec![2, 0, 1],
        };
        let got = step.apply(&q).unwrap();
        let want = Query::or(
            Query::or(atom("dc=test", "c"), atom("dc=test", "a")),
            atom("dc=test", "b"),
        );
        assert_eq!(got, want);
        // A non-permutation is rejected, not misapplied.
        let bad = Step::ReorderBool {
            path: vec![],
            order: vec![0, 0, 1],
        };
        assert!(bad.apply(&q).is_none());
    }

    #[test]
    fn tighten_narrows_the_wider_base() {
        let q = Query::and(
            atom("dc=test", "a"),
            atom("n=e1, dc=test", "b"),
        );
        let got = Step::TightenBase { path: vec![] }.apply(&q).unwrap();
        let want = Query::and(
            atom("n=e1, dc=test", "a"),
            atom("n=e1, dc=test", "b"),
        );
        assert_eq!(got, want);
        // Unrelated bases don't tighten.
        let q = Query::and(atom("dc=test", "a"), atom("dc=other", "b"));
        assert!(Step::TightenBase { path: vec![] }.apply(&q).is_none());
    }

    #[test]
    fn de_rewrite_and_short_circuit_round_trip() {
        let x = atom("dc=test", "x");
        let diffxx = Query::diff(x.clone(), x.clone());
        let q = Query::hier_path(
            HierPathOp::AncestorsConstrained,
            atom("dc=test", "a"),
            atom("dc=test", "b"),
            diffxx.clone(),
        );
        assert!(is_statically_empty(&diffxx));
        let plain = Step::DeRewrite { path: vec![] }.apply(&q).unwrap();
        assert_eq!(
            plain,
            Query::hier(HierOp::Ancestors, atom("dc=test", "a"), atom("dc=test", "b"))
        );
        // The ruinous direction exists as a candidate…
        let back = Step::RewriteConstrained { path: vec![] }.apply(&plain).unwrap();
        assert!(matches!(back, Query::HierPath { .. }));
        // …and p/c refuse it.
        let pc = Query::hier(HierOp::Parents, atom("dc=test", "a"), atom("dc=test", "b"));
        assert!(Step::RewriteConstrained { path: vec![] }.apply(&pc).is_none());
    }

    #[test]
    fn steps_apply_at_deep_paths() {
        let inner = Query::diff(atom("dc=test", "x"), atom("dc=test", "x"));
        let q = Query::hier(
            HierOp::Children,
            atom("dc=test", "a"),
            Query::and(atom("dc=test", "b"), inner),
        );
        let got = Step::ShortCircuitDiff { path: vec![1, 1] }.apply(&q).unwrap();
        match &got {
            Query::Hier { q2, .. } => match q2.as_ref() {
                Query::And(_, rhs) => assert!(is_statically_empty(rhs)),
                other => panic!("unexpected shape {other}"),
            },
            other => panic!("unexpected shape {other}"),
        }
        // Dangling path → None, never a panic.
        assert!(Step::ShortCircuitDiff { path: vec![4] }.apply(&q).is_none());
    }

    #[test]
    fn enumeration_finds_each_family() {
        let cat = StatsCatalog::new();
        let q = Query::and(
            Query::and(atom("dc=test", "a"), atom("n=e1, dc=test", "b")),
            Query::hier(
                HierOp::Descendants,
                atom("dc=test", "c"),
                Query::diff(atom("dc=test", "d"), atom("dc=test", "d")),
            ),
        );
        let steps = enumerate_steps(&q, &cat);
        let kinds: Vec<&str> = steps.iter().map(Step::kind).collect();
        assert!(kinds.contains(&"reorder-bool"));
        assert!(kinds.contains(&"tighten-base"));
        assert!(kinds.contains(&"short-circuit-diff"));
        assert!(kinds.contains(&"rewrite-constrained"));
        // The nested And is part of the root chain — exactly one reorder.
        assert_eq!(kinds.iter().filter(|k| **k == "reorder-bool").count(), 1);
    }
}

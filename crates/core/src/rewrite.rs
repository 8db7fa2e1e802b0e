//! The Theorem 8.2(d) rewrites: `{ac, dc}` express all of `{p, c, a, d}`.
//!
//! Section 8.1 shows `L0 + {ac, dc}` equals `L1` in expressive power but
//! argues *against* dropping the four simpler operators, because the
//! rewrites' third operand ranges over the **whole directory**:
//!
//! ```text
//! (p Q1 Q2) = (ac Q1 Q2 (null-dn ? sub ? objectClass=*))
//! ```
//!
//! and evaluation cost is linear in the size of operator inputs — so the
//! rewrite turns a cheap query into one that scans everything. Experiment
//! E11 measures exactly this blow-up.
//!
//! Caveat (inherent to the paper's rewrite, documented here for fairness):
//! `p`/`c` relate entries by *DN arithmetic*, while the `ac`/`dc` rewrite
//! detects "no entry strictly between". The two coincide on instances
//! where every ancestor of an entry is present (true of directories
//! maintained by real servers, which require parents to exist); in a
//! sparse forest a grandchild with an absent parent is `ac`-adjacent but
//! not a `p`-parent. Tests exercise both regimes.
//!
//! [`repair`] undoes the `a`/`d` direction wherever a query arrives
//! carrying it, and never introduces it.

use crate::ast::{HierOp, HierPathOp, Query};
use netdir_filter::{AtomicFilter, Scope};
use netdir_model::Dn;

/// The "whole directory" operand: `(null-dn ? sub ? objectClass=*)`.
pub fn whole_directory() -> Query {
    Query::atomic(Dn::root(), Scope::Sub, AtomicFilter::True)
}

/// A guaranteed-empty operand: the constant-false atomic `(null-dn ? base ? false)`.
///
/// An earlier version built `(- X X)` over the whole directory — two
/// full scans to produce provably nothing, charged to every `a`/`d`
/// rewrite. The constant-false filter is answered by the index layer
/// with an empty candidate list, so the operand costs zero page reads.
pub fn empty_query() -> Query {
    Query::atomic(Dn::root(), Scope::Base, AtomicFilter::False)
}

/// Rewrite a binary hierarchy operator into its `ac`/`dc` equivalent
/// (Theorem 8.2(d)).
///
/// * `p` → `ac` with the whole directory as blockers (only the immediate
///   present ancestor survives);
/// * `c` → `dc` likewise;
/// * `a` → `ac` with an *empty* blocker set (nothing blocks);
/// * `d` → `dc` likewise.
pub fn rewrite_via_constrained(op: HierOp, q1: Query, q2: Query) -> Query {
    match op {
        HierOp::Parents => Query::hier_path(
            HierPathOp::AncestorsConstrained,
            q1,
            q2,
            whole_directory(),
        ),
        HierOp::Children => Query::hier_path(
            HierPathOp::DescendantsConstrained,
            q1,
            q2,
            whole_directory(),
        ),
        HierOp::Ancestors => {
            Query::hier_path(HierPathOp::AncestorsConstrained, q1, q2, empty_query())
        }
        HierOp::Descendants => {
            Query::hier_path(HierPathOp::DescendantsConstrained, q1, q2, empty_query())
        }
    }
}

/// True iff `q` provably evaluates to the empty list by structure alone:
/// the constant-false atomic, or a difference of identical operands.
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

/// Undo the ruinous half of Theorem 8.2(d), bottom-up: every `(- X X)`
/// becomes the constant-false atomic [`empty_query`] (no scan instead of
/// two), and every `ac`/`dc` whose blocker [`is_statically_empty`]
/// becomes the plain `a`/`d` it equals (nothing can block). Answers are
/// byte-identical. The `p`/`c` direction is left alone: it coincides
/// with its rewrite only where every ancestor is present.
pub fn repair(q: &Query) -> Query {
    let boxed = |q: &Query| Box::new(repair(q));
    match q {
        Query::Atomic { .. } => q.clone(),
        Query::And(a, b) => Query::and(repair(a), repair(b)),
        Query::Or(a, b) => Query::or(repair(a), repair(b)),
        Query::Diff(a, b) => {
            let (a, b) = (repair(a), repair(b));
            if a == b {
                empty_query()
            } else {
                Query::diff(a, b)
            }
        }
        Query::Hier { op, q1, q2, agg } => Query::Hier {
            op: *op,
            q1: boxed(q1),
            q2: boxed(q2),
            agg: agg.clone(),
        },
        Query::HierPath {
            op,
            q1,
            q2,
            q3,
            agg,
        } => {
            let q3 = repair(q3);
            if is_statically_empty(&q3) {
                Query::Hier {
                    op: match op {
                        HierPathOp::AncestorsConstrained => HierOp::Ancestors,
                        HierPathOp::DescendantsConstrained => HierOp::Descendants,
                    },
                    q1: boxed(q1),
                    q2: boxed(q2),
                    agg: agg.clone(),
                }
            } else {
                Query::HierPath {
                    op: *op,
                    q1: boxed(q1),
                    q2: boxed(q2),
                    q3: Box::new(q3),
                    agg: agg.clone(),
                }
            }
        }
        Query::AggSelect { query, filter } => Query::agg_select(repair(query), filter.clone()),
        Query::EmbedRef {
            op,
            q1,
            q2,
            attr,
            agg,
        } => Query::EmbedRef {
            op: *op,
            q1: boxed(q1),
            q2: boxed(q2),
            attr: attr.clone(),
            agg: agg.clone(),
        },
    }
}

/// The query planner: queries are evaluated as written, so planning is
/// [`repair`] alone. Its one caller is the benchmark's traced replay
/// (`benchmark/src/trace.rs`), which times `plan` as `core.plan`.
#[derive(Debug, Default)]
pub struct Planner;

impl Planner {
    /// The planner.
    pub fn new() -> Planner {
        Planner
    }

    /// `q` with the Theorem 8.2(d) repair applied ([`repair`]).
    pub fn plan(&self, q: &Query) -> Query {
        repair(q)
    }
}

/// Rewrite every plain `p`/`c`/`a`/`d` node in a query tree (used by the
/// rewrite-cost experiment).
pub fn rewrite_tree(q: &Query) -> Query {
    match q {
        Query::Atomic { .. } => q.clone(),
        Query::And(a, b) => Query::and(rewrite_tree(a), rewrite_tree(b)),
        Query::Or(a, b) => Query::or(rewrite_tree(a), rewrite_tree(b)),
        Query::Diff(a, b) => Query::diff(rewrite_tree(a), rewrite_tree(b)),
        Query::Hier { op, q1, q2, agg } => {
            let q1 = rewrite_tree(q1);
            let q2 = rewrite_tree(q2);
            match agg {
                None => rewrite_via_constrained(*op, q1, q2),
                // Aggregate forms rewrite identically (the filter moves
                // onto the constrained operator).
                Some(f) => match rewrite_via_constrained(*op, q1, q2) {
                    Query::HierPath {
                        op, q1, q2, q3, ..
                    } => Query::HierPath {
                        op,
                        q1,
                        q2,
                        q3,
                        agg: Some(f.clone()),
                    },
                    _ => unreachable!("rewrite_via_constrained returns HierPath"),
                },
            }
        }
        Query::HierPath {
            op,
            q1,
            q2,
            q3,
            agg,
        } => Query::HierPath {
            op: *op,
            q1: Box::new(rewrite_tree(q1)),
            q2: Box::new(rewrite_tree(q2)),
            q3: Box::new(rewrite_tree(q3)),
            agg: agg.clone(),
        },
        Query::AggSelect { query, filter } => {
            Query::agg_select(rewrite_tree(query), filter.clone())
        }
        Query::EmbedRef {
            op,
            q1,
            q2,
            attr,
            agg,
        } => Query::EmbedRef {
            op: *op,
            q1: Box::new(rewrite_tree(q1)),
            q2: Box::new(rewrite_tree(q2)),
            attr: attr.clone(),
            agg: agg.clone(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Evaluator;
    use crate::lang::{classify, Language};
    use netdir_index::IndexedDirectory;
    use netdir_model::{Directory, Entry};
    use netdir_pager::Pager;

    fn atom() -> Query {
        Query::atomic(
            Dn::parse("dc=com").unwrap(),
            Scope::Sub,
            AtomicFilter::present("x"),
        )
    }

    #[test]
    fn rewrites_stay_in_l1() {
        for op in [
            HierOp::Parents,
            HierOp::Children,
            HierOp::Ancestors,
            HierOp::Descendants,
        ] {
            let q = rewrite_via_constrained(op, atom(), atom());
            assert_eq!(classify(&q), Language::L1);
            assert!(matches!(q, Query::HierPath { .. }));
        }
    }

    #[test]
    fn rewrite_grows_the_tree() {
        let plain = Query::hier(HierOp::Parents, atom(), atom());
        let rewritten = rewrite_tree(&plain);
        assert!(rewritten.num_nodes() > plain.num_nodes());
        // The whole-directory operand appears.
        let atoms = rewritten.atomic_subqueries();
        assert!(atoms.iter().any(|a| matches!(
            a,
            Query::Atomic { base, scope: Scope::Sub, filter: AtomicFilter::True } if base.is_root()
        )));
    }

    /// A forest under `dc=test` whose entries alternate `kind=red` and
    /// `kind=blue`, indexed on a pager small enough to read pages.
    fn indexed_forest() -> (IndexedDirectory, Pager) {
        let mut d = Directory::new();
        let root = Dn::parse("dc=test").unwrap();
        d.insert(Entry::builder(root.clone()).class("thing").build().unwrap())
            .unwrap();
        for i in 0..60 {
            let parent = if i % 3 == 0 {
                root.clone()
            } else {
                Dn::parse(&format!("n=e{}, dc=test", i / 3)).unwrap()
            };
            let e = Entry::builder(Dn::parse(&format!("n=e{i}, {parent}")).unwrap())
                .class("thing")
                .attr("kind", if i % 2 == 0 { "red" } else { "blue" })
                .build()
                .unwrap();
            d.insert(e).unwrap();
        }
        let pager = Pager::new(512, 64);
        let idx = IndexedDirectory::build(&pager, &d).unwrap();
        (idx, pager)
    }

    /// `q`'s answer and the pages its evaluation reads from a cold cache.
    fn cold(idx: &IndexedDirectory, pager: &Pager, q: &Query) -> (Vec<Entry>, u64) {
        pager.flush().unwrap();
        pager.pool().clear_cache().unwrap();
        pager.reset_io();
        let out = Evaluator::new(idx, pager)
            .evaluate(q)
            .unwrap()
            .to_vec()
            .unwrap();
        (out, pager.io().reads)
    }

    fn red() -> Query {
        Query::atomic(
            Dn::parse("dc=test").unwrap(),
            Scope::Sub,
            AtomicFilter::eq("kind", "red"),
        )
    }

    /// `op`'s constrained rewrite carrying the paper's `(- X X)` blocker
    /// over the whole directory.
    fn legacy_rewrite(op: HierOp) -> Query {
        match rewrite_via_constrained(op, red(), red()) {
            Query::HierPath { op, q1, q2, agg, .. } => Query::HierPath {
                op,
                q1,
                q2,
                q3: Box::new(Query::diff(whole_directory(), whole_directory())),
                agg,
            },
            _ => unreachable!("rewrite_via_constrained returns HierPath"),
        }
    }

    /// The `a`/`d` rewrites' guaranteed-empty operand must cost nothing:
    /// the old `(- X X)` form paid two whole-directory scans per rewrite
    /// (the I/O blow-up E11 measures for `p`/`c` leaked into `a`/`d`,
    /// where it buys no semantics at all).
    #[test]
    fn empty_operand_costs_no_directory_scans() {
        let (idx, pager) = indexed_forest();
        // The empty operand itself touches no pages at all.
        let (out, reads) = cold(&idx, &pager, &empty_query());
        assert!(out.is_empty());
        assert_eq!(reads, 0, "constant-false operand must not read pages");

        for op in [HierOp::Ancestors, HierOp::Descendants] {
            let rewritten = rewrite_via_constrained(op, red(), red());
            let (out_new, io_new) = cold(&idx, &pager, &rewritten);
            let (out_old, io_old) = cold(&idx, &pager, &legacy_rewrite(op));
            assert_eq!(out_new, out_old, "the two empty operands must agree");
            assert!(
                io_new < io_old,
                "{op:?}: rewritten form must beat the (- X X) operand \
                 ({io_new} vs {io_old} reads)"
            );
        }
    }

    /// The repair turns the legacy `(- X X)` operand into the
    /// constant-false atomic, and a rewrite carrying it back into the
    /// plain operator, which reads fewer pages for the same answer.
    #[test]
    fn legacy_empty_diff_costs_more_than_constant_false() {
        let (idx, pager) = indexed_forest();
        let legacy = Query::diff(whole_directory(), whole_directory());
        assert!(is_statically_empty(&legacy));
        assert_eq!(repair(&legacy), empty_query());
        let (out, reads) = cold(&idx, &pager, &legacy);
        assert!(out.is_empty());
        assert!(reads > 0, "(- X X) scans the directory twice");

        for op in [HierOp::Ancestors, HierOp::Descendants] {
            let ruinous = legacy_rewrite(op);
            let repaired = repair(&ruinous);
            assert_eq!(repaired, Query::hier(op, red(), red()));
            let (out_ruinous, io_ruinous) = cold(&idx, &pager, &ruinous);
            let (out_repaired, io_repaired) = cold(&idx, &pager, &repaired);
            assert_eq!(out_ruinous, out_repaired, "{op:?}: repair changed the answer");
            assert!(
                io_repaired < io_ruinous,
                "{op:?}: {io_repaired} vs {io_ruinous} reads"
            );
        }
    }

    #[test]
    fn repair_de_rewrites_only_an_empty_blocker() {
        let x = Query::atomic(
            Dn::parse("dc=test").unwrap(),
            Scope::Sub,
            AtomicFilter::eq("kind", "x"),
        );
        for (op, plain) in [
            (HierPathOp::AncestorsConstrained, HierOp::Ancestors),
            (HierPathOp::DescendantsConstrained, HierOp::Descendants),
        ] {
            for blocker in [empty_query(), Query::diff(x.clone(), x.clone())] {
                let q = Query::hier_path(op, atom(), red(), blocker);
                assert_eq!(repair(&q), Query::hier(plain, atom(), red()));
            }
            // A blocker that may hold entries stays: `p`/`c`'s rewrite too.
            let q = Query::hier_path(op, atom(), red(), whole_directory());
            assert_eq!(repair(&q), q);
        }
        // The aggregate moves back onto the plain operator.
        let agg = crate::ast::AggSelFilter::exists_witness();
        let q = match rewrite_via_constrained(HierOp::Descendants, atom(), red()) {
            Query::HierPath { op, q1, q2, q3, .. } => Query::HierPath {
                op,
                q1,
                q2,
                q3,
                agg: Some(agg.clone()),
            },
            _ => unreachable!("rewrite_via_constrained returns HierPath"),
        };
        assert!(matches!(
            repair(&q),
            Query::Hier { op: HierOp::Descendants, agg: Some(f), .. } if f == agg
        ));
    }

    #[test]
    fn repair_reaches_deep_nodes_and_keeps_the_rest() {
        let diff = Query::diff(red(), red());
        let q = Query::hier(
            HierOp::Children,
            atom(),
            Query::and(atom(), Query::agg_select(diff, crate::ast::AggSelFilter::exists_witness())),
        );
        let want = Query::hier(
            HierOp::Children,
            atom(),
            Query::and(
                atom(),
                Query::agg_select(empty_query(), crate::ast::AggSelFilter::exists_witness()),
            ),
        );
        assert_eq!(repair(&q), want);
        // Nothing to repair: the query comes back as it was.
        let plain = Query::diff(atom(), red());
        assert_eq!(repair(&plain), plain);
        assert_eq!(Planner::new().plan(&q), want);
    }

    #[test]
    fn rewrite_tree_is_recursive() {
        let inner = Query::hier(HierOp::Descendants, atom(), atom());
        let outer = Query::hier(HierOp::Parents, inner, atom());
        let rewritten = rewrite_tree(&outer);
        // Both hier nodes became constrained nodes.
        fn count_paths(q: &Query) -> usize {
            match q {
                Query::HierPath { q1, q2, q3, .. } => {
                    1 + count_paths(q1) + count_paths(q2) + count_paths(q3)
                }
                Query::And(a, b) | Query::Or(a, b) | Query::Diff(a, b) => {
                    count_paths(a) + count_paths(b)
                }
                Query::Hier { q1, q2, .. } => count_paths(q1) + count_paths(q2),
                Query::AggSelect { query, .. } => count_paths(query),
                Query::EmbedRef { q1, q2, .. } => count_paths(q1) + count_paths(q2),
                Query::Atomic { .. } => 0,
            }
        }
        assert_eq!(count_paths(&rewritten), 2);
    }
}

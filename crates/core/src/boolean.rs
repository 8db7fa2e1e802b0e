//! Boolean operators over sorted entry lists (Section 4.2).
//!
//! `(&)`, `(|)` and `(-)` over reverse-DN-sorted lists are single-pass
//! merges in the style of Jacobson et al. \[21\]: advance two cursors,
//! compare keys, emit per the operator's truth table. Each input page is
//! read once and each output page written once — `O((|L1|+|L2|)/B)` I/Os —
//! and the output is again sorted, which is what lets operators pipeline
//! without re-sorting (Section 8.2). Operands and output held in memory
//! as runs, while they fit the pager's budget, cost no I/O at all.

use netdir_model::Entry;
use netdir_pager::{Operand, OperandWriter, Pager, PagerResult};
use std::cmp::Ordering;

/// Which boolean operator a merge computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoolOp {
    /// Intersection `&`.
    And,
    /// Union `|`.
    Or,
    /// Difference `-`.
    Diff,
}

/// Merge two sorted operands under `op`, producing a sorted operand.
///
/// The merge is fully lazy: cursors compare the records' reverse-DN
/// sort keys (a run's as carried, a list's extracted without decoding)
/// and emitted records pass through as raw bytes — no entry on either
/// input is ever materialized.
pub fn merge(
    pager: &Pager,
    op: BoolOp,
    l1: &Operand<Entry>,
    l2: &Operand<Entry>,
) -> PagerResult<Operand<Entry>> {
    let mut out = OperandWriter::new(pager);
    let mut it1 = l1.iter_raw();
    let mut it2 = l2.iter_raw();
    let mut e1 = it1.next().transpose()?;
    let mut e2 = it2.next().transpose()?;

    loop {
        match (&e1, &e2) {
            (None, None) => break,
            (Some(a), None) => {
                if matches!(op, BoolOp::Or | BoolOp::Diff) {
                    out.push_raw(a)?;
                }
                e1 = it1.next().transpose()?;
            }
            (None, Some(b)) => {
                if matches!(op, BoolOp::Or) {
                    out.push_raw(b)?;
                }
                e2 = it2.next().transpose()?;
            }
            (Some(a), Some(b)) => match a.key().cmp(b.key()) {
                Ordering::Less => {
                    if matches!(op, BoolOp::Or | BoolOp::Diff) {
                        out.push_raw(a)?;
                    }
                    e1 = it1.next().transpose()?;
                }
                Ordering::Greater => {
                    if matches!(op, BoolOp::Or) {
                        out.push_raw(b)?;
                    }
                    e2 = it2.next().transpose()?;
                }
                Ordering::Equal => {
                    if matches!(op, BoolOp::And | BoolOp::Or) {
                        out.push_raw(a)?;
                    }
                    e1 = it1.next().transpose()?;
                    e2 = it2.next().transpose()?;
                }
            },
        }
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdir_model::Dn;
    use netdir_pager::{tiny_pager, PagedList};

    fn entry(s: &str) -> Entry {
        Entry::builder(Dn::parse(s).unwrap())
            .class("t")
            .build()
            .unwrap()
    }

    fn list(pager: &Pager, dns: &[&str]) -> Operand<Entry> {
        let mut v: Vec<Entry> = dns.iter().map(|s| entry(s)).collect();
        v.sort_by(|a, b| a.dn().cmp(b.dn()));
        PagedList::from_iter(pager, v).unwrap().into()
    }

    fn dns(l: &Operand<Entry>) -> Vec<String> {
        l.to_vec()
            .unwrap()
            .iter()
            .map(|e| e.dn().to_string())
            .collect()
    }

    #[test]
    fn boolean_truth_tables() {
        let pager = tiny_pager();
        let a = list(&pager, &["dc=a", "dc=b", "dc=c"]);
        let b = list(&pager, &["dc=b", "dc=c", "dc=d"]);

        assert_eq!(dns(&merge(&pager, BoolOp::And, &a, &b).unwrap()), vec!["dc=b", "dc=c"]);
        assert_eq!(
            dns(&merge(&pager, BoolOp::Or, &a, &b).unwrap()),
            vec!["dc=a", "dc=b", "dc=c", "dc=d"]
        );
        assert_eq!(dns(&merge(&pager, BoolOp::Diff, &a, &b).unwrap()), vec!["dc=a"]);
        assert_eq!(dns(&merge(&pager, BoolOp::Diff, &b, &a).unwrap()), vec!["dc=d"]);
    }

    #[test]
    fn empty_operands() {
        let pager = tiny_pager();
        let a = list(&pager, &["dc=a"]);
        let empty = Operand::List(PagedList::empty(&pager));
        assert_eq!(dns(&merge(&pager, BoolOp::And, &a, &empty).unwrap()), Vec::<String>::new());
        assert_eq!(dns(&merge(&pager, BoolOp::Or, &a, &empty).unwrap()), vec!["dc=a"]);
        assert_eq!(dns(&merge(&pager, BoolOp::Or, &empty, &a).unwrap()), vec!["dc=a"]);
        assert_eq!(dns(&merge(&pager, BoolOp::Diff, &a, &empty).unwrap()), vec!["dc=a"]);
        assert_eq!(dns(&merge(&pager, BoolOp::Diff, &empty, &a).unwrap()), Vec::<String>::new());
    }

    #[test]
    fn output_is_sorted_and_hierarchy_aware() {
        let pager = tiny_pager();
        let a = list(&pager, &["dc=x, dc=a", "dc=a"]);
        let b = list(&pager, &["dc=b", "dc=y, dc=x, dc=a"]);
        let got = dns(&merge(&pager, BoolOp::Or, &a, &b).unwrap());
        assert_eq!(got, vec!["dc=a", "dc=x, dc=a", "dc=y, dc=x, dc=a", "dc=b"]);
    }

    #[test]
    fn io_is_linear_in_pages() {
        let pager = tiny_pager();
        let a_dns: Vec<String> = (0..500).map(|i| format!("dc=a{i:04}")).collect();
        let b_dns: Vec<String> = (250..750).map(|i| format!("dc=a{i:04}")).collect();
        let a = list(&pager, &a_dns.iter().map(String::as_str).collect::<Vec<_>>());
        let b = list(&pager, &b_dns.iter().map(String::as_str).collect::<Vec<_>>());
        pager.flush().unwrap();
        pager.pool().clear_cache().unwrap();
        pager.reset_io();
        let out = merge(&pager, BoolOp::And, &a, &b).unwrap();
        pager.flush().unwrap();
        let io = pager.io();
        assert_eq!(out.len(), 250);
        let expected = a.num_pages() + b.num_pages() + out.num_pages();
        assert!(
            io.total() <= expected + 4,
            "merge cost {} vs linear bound {}",
            io.total(),
            expected
        );
    }
}

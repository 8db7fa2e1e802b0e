//! Simple aggregate selection — the `g` operator (Section 6.1/6.3).
//!
//! `(g Q AggSelFilter)` keeps the entries of `Q` passing an aggregate
//! comparison over their own attribute values, possibly against
//! *entry-set* aggregates of the whole of `M(Q)` (`min(min(a))`,
//! `count($$)`…). Evaluation follows Theorem 6.1: at most two scans of the
//! input list — one accumulating per-entry and set-level aggregates, one
//! selecting — hence `O(|L1|/B)` I/O. When the filter involves no set
//! aggregates the first scan already selects and the second is skipped.
//! Both scans of an operand held in memory as a run read memory, and the
//! output stays a run while it fits the pager's budget.

use crate::agg::{CompiledAggFilter, GlobalState, WitnessState};
use netdir_model::Entry;
use netdir_pager::{Operand, OperandWriter, Pager, PagerResult};

/// Evaluate `(g L1 filter)` over a sorted operand. Output stays sorted
/// (selection preserves order).
pub fn simple_agg_select(
    pager: &Pager,
    l1: &Operand<Entry>,
    filter: &CompiledAggFilter,
) -> PagerResult<Operand<Entry>> {
    let no_wit = WitnessState::default();
    let mut globals = GlobalState::default();
    // Scan 1 accumulates set aggregates; without them it is skipped and
    // the selecting scan is the only one.
    if filter.needs_globals() {
        for e in l1.iter() {
            filter.accumulate_global(&mut globals, &e?, &no_wit);
        }
    }
    let mut out = OperandWriter::new(pager);
    for e in l1.iter() {
        let e = e?;
        if filter.accept(&e, &no_wit, &globals) {
            out.push(&e)?;
        }
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{AggAttribute, AggSelFilter, Aggregate, AttrRef, EntryAgg};
    use netdir_filter::atomic::IntOp;
    use netdir_model::Dn;
    use netdir_pager::{tiny_pager, PagedList};

    fn entry(name: &str, priorities: &[i64]) -> Entry {
        Entry::builder(Dn::parse(&format!("cn={name}, dc=com")).unwrap())
            .class("policy")
            .attr_values("SLAPVPRef", priorities.iter().map(|p| format!("ref{p}")))
            .attr_values("priority", priorities.iter().copied())
            .build()
            .unwrap()
    }

    fn input(pager: &Pager) -> Operand<Entry> {
        let mut v = vec![
            entry("one", &[5]),
            entry("two", &[2, 7]),
            entry("three", &[3, 4, 9]),
        ];
        v.sort_by(|a, b| a.dn().cmp(b.dn()));
        PagedList::from_iter(pager, v).unwrap().into()
    }

    fn names(l: &Operand<Entry>) -> Vec<String> {
        l.to_vec()
            .unwrap()
            .iter()
            .map(|e| e.first_str(&"cn".into()).unwrap().to_string())
            .collect()
    }

    fn compile(lhs: AggAttribute, op: IntOp, rhs: AggAttribute) -> CompiledAggFilter {
        CompiledAggFilter::compile(&AggSelFilter { lhs, op, rhs }, false).unwrap()
    }

    #[test]
    fn example_6_1_count_of_multivalued_attr() {
        // "policy rules that have more than one policy validity period":
        // count(SLAPVPRef) > 1.
        let pager = tiny_pager();
        let f = compile(
            AggAttribute::Entry(EntryAgg::Agg(
                Aggregate::Count,
                AttrRef::Own("SLAPVPRef".into()),
            )),
            IntOp::Gt,
            AggAttribute::Const(1),
        );
        let out = simple_agg_select(&pager, &input(&pager), &f).unwrap();
        let mut got = names(&out);
        got.sort();
        assert_eq!(got, vec!["three", "two"]);
    }

    #[test]
    fn min_equals_global_min() {
        // min(priority) = min(min(priority)) — the highest-priority rule.
        let pager = tiny_pager();
        let ea = EntryAgg::Agg(Aggregate::Min, AttrRef::Own("priority".into()));
        let f = compile(
            AggAttribute::Entry(ea.clone()),
            IntOp::Eq,
            AggAttribute::EntrySet(Aggregate::Min, Box::new(ea)),
        );
        let out = simple_agg_select(&pager, &input(&pager), &f).unwrap();
        assert_eq!(names(&out), vec!["two"]); // min 2
    }

    #[test]
    fn count_all_entries() {
        // count($$) = 3 is true for every entry (set-level), so all pass.
        let pager = tiny_pager();
        let f = compile(AggAttribute::CountAll, IntOp::Eq, AggAttribute::Const(3));
        let out = simple_agg_select(&pager, &input(&pager), &f).unwrap();
        assert_eq!(out.len(), 3);
        let f = compile(AggAttribute::CountAll, IntOp::Gt, AggAttribute::Const(3));
        let out = simple_agg_select(&pager, &input(&pager), &f).unwrap();
        assert_eq!(out.len(), 0);
    }

    #[test]
    fn empty_input() {
        let pager = tiny_pager();
        let f = compile(AggAttribute::CountAll, IntOp::Ge, AggAttribute::Const(0));
        let out = simple_agg_select(&pager, &Operand::List(PagedList::empty(&pager)), &f).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn io_is_at_most_two_scans_plus_output() {
        let pager = tiny_pager();
        let mut v: Vec<Entry> = (0..800)
            .map(|i| entry(&format!("e{i:04}"), &[i % 10]))
            .collect();
        v.sort_by(|a, b| a.dn().cmp(b.dn()));
        let l1 = Operand::List(PagedList::from_iter(&pager, v).unwrap());
        let ea = EntryAgg::Agg(Aggregate::Min, AttrRef::Own("priority".into()));
        let f = compile(
            AggAttribute::Entry(ea.clone()),
            IntOp::Eq,
            AggAttribute::EntrySet(Aggregate::Min, Box::new(ea)),
        );
        pager.flush().unwrap();
        pager.pool().clear_cache().unwrap();
        pager.reset_io();
        let out = simple_agg_select(&pager, &l1, &f).unwrap();
        pager.flush().unwrap();
        let io = pager.io();
        assert_eq!(out.len(), 80);
        let bound = 2 * l1.num_pages() + out.num_pages() + 4;
        assert!(
            io.total() <= bound,
            "simple agg used {} I/Os, two-scan bound {}",
            io.total(),
            bound
        );
    }
}

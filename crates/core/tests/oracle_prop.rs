//! Property tests: the external-memory operators agree element-for-element
//! with the naive quadratic oracles (direct transcriptions of Definitions
//! 4.1/5.1/6.1/6.2/7.1) on randomized forests — over paged lists, over
//! in-memory runs, and over the two mixed, with every intermediate
//! spilled, some spilled, and none.

use netdir_filter::atomic::IntOp;
use netdir_model::{Dn, Entry};
use netdir_pager::record::Record;
use netdir_pager::{Operand, PagedList, Pager, RawRecord, Reservation};
use netdir_query::agg::CompiledAggFilter;
use netdir_query::ast::{AggAttribute, AggSelFilter, Aggregate, AttrRef, EntryAgg, RefOp};
use netdir_query::boolean::{merge, BoolOp};
use netdir_query::er_join::er_select;
use netdir_query::hs_stack::{hs_select, HsOp};
use netdir_query::naive;
use proptest::prelude::*;

/// Random DN inside a small labelled universe so that real hierarchy
/// arises: depth 1..=4, each component one of 4 labels.
fn arb_dn() -> impl Strategy<Value = Dn> {
    proptest::collection::vec(0u8..4, 1..=4).prop_map(|labels| {
        let parts: Vec<String> = labels
            .iter()
            .enumerate()
            .map(|(depth, l)| format!("n{depth}{l}=v"))
            .collect();
        // components root→leaf were generated; DN is leaf-first.
        let s = parts.into_iter().rev().collect::<Vec<_>>().join(", ");
        Dn::parse(&s).unwrap()
    })
}

/// Attributes must be a *function of the DN*: in a real evaluation every
/// operand list derives from one directory instance, so two lists holding
/// the same DN hold the same entry. The generator honors that invariant.
fn entry_for(dn: Dn) -> Entry {
    let prio = (dn
        .sort_key()
        .as_bytes()
        .iter()
        .map(|&b| b as i64)
        .sum::<i64>())
        % 8;
    Entry::builder(dn)
        .class("t")
        .attr("priority", prio)
        .build()
        .unwrap()
}

/// A random sorted, deduplicated entry list.
fn arb_entries() -> impl Strategy<Value = Vec<Entry>> {
    proptest::collection::vec(arb_dn(), 0..24).prop_map(|dns| {
        let mut v: Vec<Entry> = dns.into_iter().map(entry_for).collect();
        v.sort_by(|a, b| a.dn().cmp(b.dn()));
        v.dedup_by(|a, b| a.dn() == b.dn());
        v
    })
}

fn paged(pager: &Pager, v: &[Entry]) -> Operand<Entry> {
    PagedList::from_iter(pager, v.iter().cloned()).unwrap().into()
}

/// `v` as an in-memory run, keyed as a zone hands its answer out.
fn run(v: &[Entry]) -> Operand<Entry> {
    Operand::run(
        v.iter()
            .map(|e| {
                let mut image = Vec::new();
                e.encode(&mut image);
                RawRecord::keyed(e.dn().sort_key().as_bytes().to_vec(), image)
            })
            .collect(),
    )
}

/// `v` both ways: `[paged list, run]`.
fn both(pager: &Pager, v: &[Entry]) -> [Operand<Entry>; 2] {
    [paged(pager, v), run(v)]
}

/// The scratch budgets each operator runs under, on pages of
/// `page_size`: none (the whole pool held elsewhere, so every
/// intermediate spills), an 8-frame pool's, and the default pool's.
fn budgets(page_size: usize) -> [(Pager, Option<Reservation>); 3] {
    let none = Pager::new(page_size, 8);
    let held = none.reserve(none.run_budget());
    [
        (none, held),
        (Pager::new(page_size, 8), None),
        (netdir_pager::default_pager(), None),
    ]
}

/// Every pairing of kinds, mixed ones included.
const KINDS: [(usize, usize); 4] = [(0, 0), (0, 1), (1, 0), (1, 1)];

fn dns(v: &[Entry]) -> Vec<String> {
    v.iter().map(|e| e.dn().to_string()).collect()
}

fn arb_agg_filter() -> impl Strategy<Value = AggSelFilter> {
    let entry_aggs = prop_oneof![
        Just(EntryAgg::CountWitnesses),
        Just(EntryAgg::Agg(Aggregate::Min, AttrRef::Of2("priority".into()))),
        Just(EntryAgg::Agg(Aggregate::Max, AttrRef::Of2("priority".into()))),
        Just(EntryAgg::Agg(Aggregate::Sum, AttrRef::Of2("priority".into()))),
        Just(EntryAgg::Agg(Aggregate::Average, AttrRef::Of2("priority".into()))),
        Just(EntryAgg::Agg(Aggregate::Count, AttrRef::Own("priority".into()))),
        Just(EntryAgg::Agg(Aggregate::Min, AttrRef::Of1("priority".into()))),
    ];
    let ops = prop_oneof![
        Just(IntOp::Lt),
        Just(IntOp::Le),
        Just(IntOp::Gt),
        Just(IntOp::Ge),
        Just(IntOp::Eq)
    ];
    (entry_aggs, ops, -1i64..6, proptest::bool::ANY).prop_map(|(ea, op, c, global)| {
        let rhs = if global {
            AggAttribute::EntrySet(Aggregate::Max, Box::new(ea.clone()))
        } else {
            AggAttribute::Const(c)
        };
        AggSelFilter {
            lhs: AggAttribute::Entry(ea),
            op,
            rhs,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hs_ops_match_oracle(l1 in arb_entries(), l2 in arb_entries(), l3 in arb_entries()) {
        for (pager, _held) in &budgets(256) {
            let (p1, p2, p3) = (both(pager, &l1), both(pager, &l2), both(pager, &l3));
            let f = CompiledAggFilter::exists_witness();
            for (i, j) in KINDS {
                let (p1, p2, p3) = (&p1[i], &p2[j], &p3[i]);
                for op in [HsOp::Parents, HsOp::Children, HsOp::Ancestors, HsOp::Descendants] {
                    let fast = hs_select(pager, op, p1, p2, None, &f).unwrap().to_vec().unwrap();
                    let slow = naive::naive_hs_select(op, &l1, &l2, &[], &f);
                    prop_assert_eq!(dns(&fast), dns(&slow), "op {:?} kinds {:?}", op, (i, j));
                }
                for op in [HsOp::AncestorsConstrained, HsOp::DescendantsConstrained] {
                    let fast = hs_select(pager, op, p1, p2, Some(p3), &f).unwrap().to_vec().unwrap();
                    let slow = naive::naive_hs_select(op, &l1, &l2, &l3, &f);
                    prop_assert_eq!(dns(&fast), dns(&slow), "op {:?} kinds {:?}", op, (i, j));
                }
            }
            prop_assert!(pager.run_bytes_peak() <= pager.run_budget());
        }
    }

    #[test]
    fn hs_agg_ops_match_oracle(
        l1 in arb_entries(),
        l2 in arb_entries(),
        filter in arb_agg_filter(),
    ) {
        for (pager, _held) in &budgets(256) {
            let (p1, p2) = (both(pager, &l1), both(pager, &l2));
            let f = CompiledAggFilter::compile(&filter, true).unwrap();
            for (i, j) in KINDS {
                for op in [HsOp::Parents, HsOp::Children, HsOp::Ancestors, HsOp::Descendants] {
                    let fast = hs_select(pager, op, &p1[i], &p2[j], None, &f).unwrap().to_vec().unwrap();
                    let slow = naive::naive_hs_select(op, &l1, &l2, &[], &f);
                    prop_assert_eq!(dns(&fast), dns(&slow), "op {:?} filter {}", op, filter);
                }
            }
            prop_assert!(pager.run_bytes_peak() <= pager.run_budget());
        }
    }

    #[test]
    fn boolean_ops_match_oracle(l1 in arb_entries(), l2 in arb_entries()) {
        for (pager, _held) in &budgets(256) {
            let (p1, p2) = (both(pager, &l1), both(pager, &l2));
            for (i, j) in KINDS {
                for op in [BoolOp::And, BoolOp::Or, BoolOp::Diff] {
                    let fast = merge(pager, op, &p1[i], &p2[j]).unwrap().to_vec().unwrap();
                    let slow = naive::naive_boolean(op, &l1, &l2);
                    prop_assert_eq!(dns(&fast), dns(&slow), "op {:?} kinds {:?}", op, (i, j));
                }
            }
            prop_assert!(pager.run_bytes_peak() <= pager.run_budget());
        }
    }

    #[test]
    fn outputs_always_sorted(l1 in arb_entries(), l2 in arb_entries()) {
        let pager = netdir_pager::tiny_pager();
        let p1 = paged(&pager, &l1);
        let p2 = paged(&pager, &l2);
        let f = CompiledAggFilter::exists_witness();
        for op in [HsOp::Parents, HsOp::Children, HsOp::Ancestors, HsOp::Descendants] {
            let out = hs_select(&pager, op, &p1, &p2, None, &f).unwrap().to_vec().unwrap();
            for w in out.windows(2) {
                prop_assert!(w[0].dn() < w[1].dn(), "unsorted output for {:?}", op);
            }
        }
    }

    #[test]
    fn l1_op_equals_l2_op_with_count_gt_0(l1 in arb_entries(), l2 in arb_entries()) {
        // Section 6.2: the L1 operators are the L2 structural operators
        // specialized to count($2) > 0.
        let pager = netdir_pager::tiny_pager();
        let p1 = paged(&pager, &l1);
        let p2 = paged(&pager, &l2);
        let explicit = CompiledAggFilter::compile(&AggSelFilter::exists_witness(), true).unwrap();
        let implicit = CompiledAggFilter::exists_witness();
        for op in [HsOp::Parents, HsOp::Children, HsOp::Ancestors, HsOp::Descendants] {
            let a = hs_select(&pager, op, &p1, &p2, None, &implicit).unwrap().to_vec().unwrap();
            let b = hs_select(&pager, op, &p1, &p2, None, &explicit).unwrap().to_vec().unwrap();
            prop_assert_eq!(dns(&a), dns(&b));
        }
    }
}

/// References: entries whose `ref` attribute points at other entries.
fn arb_ref_entries() -> impl Strategy<Value = (Vec<Entry>, Vec<Entry>)> {
    (arb_entries(), arb_entries(), proptest::collection::vec((0usize..24, 0usize..24), 0..32))
        .prop_map(|(mut sources, targets, links)| {
            // Attach DN references from sources to targets.
            for (si, ti) in links {
                if sources.is_empty() || targets.is_empty() {
                    continue;
                }
                let si = si % sources.len();
                let ti = ti % targets.len();
                let target_dn = targets[ti].dn().clone();
                let src = &sources[si];
                let rebuilt = Entry::builder(src.dn().clone())
                    .class("t")
                    .attr("priority", src.first_int(&"priority".into()).unwrap_or(0))
                    .attr_values(
                        "ref",
                        src.values(&"ref".into())
                            .cloned()
                            .chain(std::iter::once(netdir_model::Value::Dn(target_dn))),
                    )
                    .build()
                    .unwrap();
                sources[si] = rebuilt;
            }
            (sources, targets)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn er_ops_match_oracle((sources, targets) in arb_ref_entries(), use_agg in proptest::bool::ANY) {
        // Bigger pages: ref-heavy entries outgrow the 256-byte tiny pager.
        for (pager, _held) in &budgets(2048) {
            let attr: netdir_model::AttrName = "ref".into();
            let filter = if use_agg {
                CompiledAggFilter::compile(&AggSelFilter {
                    lhs: AggAttribute::Entry(EntryAgg::CountWitnesses),
                    op: IntOp::Eq,
                    rhs: AggAttribute::EntrySet(Aggregate::Max, Box::new(EntryAgg::CountWitnesses)),
                }, true).unwrap()
            } else {
                CompiledAggFilter::exists_witness()
            };
            let (ps, pt) = (both(pager, &sources), both(pager, &targets));
            // vd: sources referencing live targets.
            let vd = naive::naive_er_select(RefOp::ValueDn, &sources, &targets, &attr, &filter);
            // dv: targets referenced by sources.
            let dv = naive::naive_er_select(RefOp::DnValue, &targets, &sources, &attr, &filter);
            for (i, j) in KINDS {
                let fast = er_select(pager, RefOp::ValueDn, &ps[i], &pt[j], &attr, &filter)
                    .unwrap().to_vec().unwrap();
                prop_assert_eq!(dns(&fast), dns(&vd), "vd kinds {:?}", (i, j));
                let fast = er_select(pager, RefOp::DnValue, &pt[i], &ps[j], &attr, &filter)
                    .unwrap().to_vec().unwrap();
                prop_assert_eq!(dns(&fast), dns(&dv), "dv kinds {:?}", (i, j));
            }
            prop_assert!(pager.run_bytes_peak() <= pager.run_budget());
        }
    }
}

//! The embedded-reference operators `vd` / `dv` (Section 7, Figure 3).
//!
//! Both are sort-merge semijoins on DN-valued attributes:
//!
//! * **`dv` (DNvalue)** — keep `Q1` entries *pointed to* by some `Q2`
//!   entry. Algorithm `ComputeERAggDV`: scan `L2` emitting a pair
//!   `(referenced DN, witness contribution)` per embedded reference, sort
//!   the pair list by the reverse-key of the referenced DN, then a single
//!   merge against `L1` accumulates each entry's witness state.
//! * **`vd` (valueDN)** — keep `Q1` entries that *point to* some `Q2`
//!   entry. Symmetric, with one extra round: pairs `(referenced DN,
//!   referencing DN)` from `L1` are sorted by target and merged against
//!   `L2` (collecting witness attributes from the referenced entries),
//!   then the survivors are re-sorted by source and merged back against
//!   `L1`.
//!
//! The external sorts are where Theorem 7.1's
//! `O(|L1|/B + (|L2|·m/B)·log(|L2|·m/B))` log-factor comes from (`m` =
//! max values per attribute).
//!
//! Only DN-typed values participate: in the typed model of Section 3,
//! references are values of the `distinguishedName` type. An operand
//! held in memory as a run is scanned from memory. The pair lists, their
//! sorts and the output stay in memory while the pager's budget *M*
//! holds them; past it they go to pages, where the sorts are external.

use crate::agg::{select_annotated, Annotated, CompiledAggFilter, GlobalState, WitnessState};
use crate::ast::RefOp;
use netdir_model::{AttrName, Entry, Value};
use netdir_pager::record::{codec, Record};
use netdir_pager::{external_sort_by, ExtSortConfig, Operand, OperandWriter, Pager, PagerResult};

/// A pair in the `LP` list of Figure 3: a referenced-DN key plus the
/// witness contribution of the referencing side.
#[derive(Debug, Clone, PartialEq)]
struct KeyedWitness {
    key: Vec<u8>,
    wit: WitnessState,
}

impl Record for KeyedWitness {
    fn encode(&self, out: &mut Vec<u8>) {
        codec::put_bytes(out, &self.key);
        let mut w = Vec::new();
        self.wit.encode(&mut w);
        codec::put_bytes(out, &w);
    }
    fn decode(bytes: &[u8]) -> PagerResult<Self> {
        let mut r = codec::Reader::new(bytes);
        let key = r.get_bytes()?.to_vec();
        let wit = WitnessState::decode(r.get_bytes()?)?;
        r.finish()?;
        Ok(KeyedWitness { key, wit })
    }
}

/// A `(target key, source key)` pair for the first `vd` round.
#[derive(Debug, Clone, PartialEq)]
struct RefPair {
    target: Vec<u8>,
    source: Vec<u8>,
}

impl Record for RefPair {
    fn encode(&self, out: &mut Vec<u8>) {
        codec::put_bytes(out, &self.target);
        codec::put_bytes(out, &self.source);
    }
    fn decode(bytes: &[u8]) -> PagerResult<Self> {
        let mut r = codec::Reader::new(bytes);
        let target = r.get_bytes()?.to_vec();
        let source = r.get_bytes()?.to_vec();
        r.finish()?;
        Ok(RefPair { target, source })
    }
}

/// Evaluate `(vd/dv L1 L2 attr filter)`, producing the selected entries in
/// reverse-DN sorted order.
pub fn er_select(
    pager: &Pager,
    op: RefOp,
    l1: &Operand<Entry>,
    l2: &Operand<Entry>,
    attr: &AttrName,
    filter: &CompiledAggFilter,
) -> PagerResult<Operand<Entry>> {
    match op {
        RefOp::DnValue => dv_select(pager, l1, l2, attr, filter),
        RefOp::ValueDn => vd_select(pager, l1, l2, attr, filter),
    }
}

fn sort_cfg() -> ExtSortConfig {
    ExtSortConfig::default()
}

/// `dv`: Q1 entries referenced by some Q2 entry's `attr`.
fn dv_select(
    pager: &Pager,
    l1: &Operand<Entry>,
    l2: &Operand<Entry>,
    attr: &AttrName,
    filter: &CompiledAggFilter,
) -> PagerResult<Operand<Entry>> {
    // Phase 1 (Figure 3): emit one pair per embedded reference in L2.
    let mut pairs = OperandWriter::new(pager);
    for r2 in l2.iter() {
        let r2 = r2?;
        for v in r2.values(attr) {
            if let Value::Dn(target) = v {
                let mut wit = WitnessState::empty(filter);
                wit.add_witness(filter, &r2);
                pairs.push(&KeyedWitness {
                    key: target.sort_key().as_bytes().to_vec(),
                    wit,
                })?;
            }
        }
    }
    // Sort LP by the reverse-key of the referenced DN.
    let sorted = external_sort_by(pager, pairs.finish()?, sort_cfg(), |a: &KeyedWitness, b| {
        a.key.cmp(&b.key)
    })?;
    // Phase 2: merge with L1.
    merge_and_select(pager, l1, &sorted, filter)
}

/// `vd`: Q1 entries holding a reference to some Q2 entry.
fn vd_select(
    pager: &Pager,
    l1: &Operand<Entry>,
    l2: &Operand<Entry>,
    attr: &AttrName,
    filter: &CompiledAggFilter,
) -> PagerResult<Operand<Entry>> {
    // Round 1: pairs (target, source) from L1's references, sorted by
    // target.
    let mut pairs = OperandWriter::new(pager);
    for r1 in l1.iter() {
        let r1 = r1?;
        for v in r1.values(attr) {
            if let Value::Dn(target) = v {
                pairs.push(&RefPair {
                    target: target.sort_key().as_bytes().to_vec(),
                    source: r1.dn().sort_key().as_bytes().to_vec(),
                })?;
            }
        }
    }
    let by_target = external_sort_by(pager, pairs.finish()?, sort_cfg(), |a: &RefPair, b| {
        a.target.cmp(&b.target).then_with(|| a.source.cmp(&b.source))
    })?;

    // Merge with L2: survivors carry the referenced entry's contribution.
    let mut survivors = OperandWriter::new(pager);
    {
        let mut it2 = l2.iter();
        let mut r2 = it2.next().transpose()?;
        for pair in by_target.iter() {
            let pair = pair?;
            while let Some(e) = &r2 {
                if e.dn().sort_key().as_bytes() < pair.target.as_slice() {
                    r2 = it2.next().transpose()?;
                } else {
                    break;
                }
            }
            if let Some(e) = &r2 {
                if e.dn().sort_key().as_bytes() == pair.target.as_slice() {
                    let mut wit = WitnessState::empty(filter);
                    wit.add_witness(filter, e);
                    survivors.push(&KeyedWitness {
                        key: pair.source,
                        wit,
                    })?;
                }
            }
        }
    }
    drop(by_target);
    // Round 2: back to source order, merge with L1.
    let by_source =
        external_sort_by(pager, survivors.finish()?, sort_cfg(), |a: &KeyedWitness, b| {
            a.key.cmp(&b.key)
        })?;
    merge_and_select(pager, l1, &by_source, filter)
}

/// Merge a key-sorted witness-pair list against `L1`, accumulate witness
/// states and set-level aggregates, select. Output stays sorted.
fn merge_and_select(
    pager: &Pager,
    l1: &Operand<Entry>,
    pairs: &Operand<KeyedWitness>,
    filter: &CompiledAggFilter,
) -> PagerResult<Operand<Entry>> {
    let mut globals = GlobalState::default();
    let needs_globals = filter.needs_globals();
    let mut direct_out = OperandWriter::new(pager);
    let mut staged = OperandWriter::new(pager);

    let mut pair_it = pairs.iter();
    let mut pair = pair_it.next().transpose()?;
    for r1 in l1.iter() {
        let r1 = r1?;
        let key = r1.dn().sort_key().as_bytes();
        let mut wit = WitnessState::empty(filter);
        // Skip pairs referencing absent targets (they sort between).
        while let Some(p) = &pair {
            if p.key.as_slice() < key {
                pair = pair_it.next().transpose()?;
            } else {
                break;
            }
        }
        while let Some(p) = &pair {
            if p.key.as_slice() == key {
                wit.merge(&p.wit);
                pair = pair_it.next().transpose()?;
            } else {
                break;
            }
        }
        filter.accumulate_global(&mut globals, &r1, &wit);
        if needs_globals {
            staged.push(&Annotated {
                entry: r1.clone(),
                wit,
            })?;
        } else if filter.accept(&r1, &wit, &globals) {
            direct_out.push(&r1)?;
        }
    }
    if !needs_globals {
        return direct_out.finish();
    }
    select_annotated(pager, staged.finish()?.iter(), filter, &globals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{AggAttribute, AggSelFilter, Aggregate, AttrRef, EntryAgg};
    use netdir_filter::atomic::IntOp;
    use netdir_model::Dn;
    use netdir_pager::{tiny_pager, PagedList};

    fn dn(s: &str) -> Dn {
        Dn::parse(s).unwrap()
    }

    /// Policies referencing profiles, Figure 12 style.
    fn setup(pager: &Pager) -> (Operand<Entry>, Operand<Entry>) {
        let profiles: Vec<Entry> = ["lsplitOff", "csplitOff", "smtp"]
            .iter()
            .map(|n| {
                Entry::builder(dn(&format!("TPName={n}, ou=tp, dc=com")))
                    .class("trafficProfile")
                    .attr("sourcePort", 25i64)
                    .build()
                    .unwrap()
            })
            .collect();
        let mk_policy = |name: &str, prio: i64, refs: &[&str]| {
            Entry::builder(dn(&format!("SLAPolicyName={name}, ou=rules, dc=com")))
                .class("SLAPolicyRules")
                .attr("SLARulePriority", prio)
                .attr_values(
                    "SLATPRef",
                    refs.iter().map(|r| dn(&format!("TPName={r}, ou=tp, dc=com"))),
                )
                .build()
                .unwrap()
        };
        let policies = vec![
            mk_policy("dso", 2, &["lsplitOff", "csplitOff"]),
            mk_policy("mail", 1, &["smtp"]),
            mk_policy("none", 9, &[]),
            mk_policy("dangling", 5, &["ghost"]),
        ];
        let mut ps = policies;
        ps.sort_by(|a, b| a.dn().cmp(b.dn()));
        let mut pr = profiles;
        pr.sort_by(|a, b| a.dn().cmp(b.dn()));
        (
            PagedList::from_iter(pager, ps).unwrap().into(),
            PagedList::from_iter(pager, pr).unwrap().into(),
        )
    }

    fn names(l: &Operand<Entry>, attr: &str) -> Vec<String> {
        let mut v: Vec<String> = l
            .to_vec()
            .unwrap()
            .iter()
            .map(|e| e.first_str(&attr.into()).unwrap().to_string())
            .collect();
        v.sort();
        v
    }

    fn exists() -> CompiledAggFilter {
        CompiledAggFilter::exists_witness()
    }

    #[test]
    fn vd_selects_referencing_entries() {
        let pager = tiny_pager();
        let (policies, profiles) = setup(&pager);
        let out = er_select(
            &pager,
            RefOp::ValueDn,
            &policies,
            &profiles,
            &"SLATPRef".into(),
            &exists(),
        )
        .unwrap();
        // dso and mail reference live profiles; none has no refs;
        // dangling's target is absent.
        assert_eq!(names(&out, "SLAPolicyName"), vec!["dso", "mail"]);
    }

    #[test]
    fn dv_selects_referenced_entries() {
        let pager = tiny_pager();
        let (policies, profiles) = setup(&pager);
        let out = er_select(
            &pager,
            RefOp::DnValue,
            &profiles,
            &policies,
            &"SLATPRef".into(),
            &exists(),
        )
        .unwrap();
        assert_eq!(
            names(&out, "TPName"),
            vec!["csplitOff", "lsplitOff", "smtp"]
        );
    }

    #[test]
    fn vd_with_count_filter() {
        let pager = tiny_pager();
        let (policies, profiles) = setup(&pager);
        // Policies referencing more than one live profile: only dso.
        let f = CompiledAggFilter::compile(
            &AggSelFilter {
                lhs: AggAttribute::Entry(EntryAgg::CountWitnesses),
                op: IntOp::Gt,
                rhs: AggAttribute::Const(1),
            },
            true,
        )
        .unwrap();
        let out = er_select(
            &pager,
            RefOp::ValueDn,
            &policies,
            &profiles,
            &"SLATPRef".into(),
            &f,
        )
        .unwrap();
        assert_eq!(names(&out, "SLAPolicyName"), vec!["dso"]);
    }

    #[test]
    fn example_7_1_highest_priority_rule() {
        // The Section 7 composite: the policy with the smallest
        // SLARulePriority among those referencing live profiles —
        // min(SLARulePriority) = min(min(SLARulePriority)) after vd.
        let pager = tiny_pager();
        let (policies, profiles) = setup(&pager);
        let referencing = er_select(
            &pager,
            RefOp::ValueDn,
            &policies,
            &profiles,
            &"SLATPRef".into(),
            &exists(),
        )
        .unwrap();
        let ea = EntryAgg::Agg(Aggregate::Min, AttrRef::Own("SLARulePriority".into()));
        let g = CompiledAggFilter::compile(
            &AggSelFilter {
                lhs: AggAttribute::Entry(ea.clone()),
                op: IntOp::Eq,
                rhs: AggAttribute::EntrySet(Aggregate::Min, Box::new(ea)),
            },
            false,
        )
        .unwrap();
        let best = crate::agg_simple::simple_agg_select(&pager, &referencing, &g).unwrap();
        assert_eq!(names(&best, "SLAPolicyName"), vec!["mail"]);
    }

    #[test]
    fn dv_max_count_filter_of_figure_3() {
        // Figure 3's instantiation: count($2) = max(count($2)) — the
        // profiles referenced by the most policies.
        let pager = tiny_pager();
        let (policies, profiles) = setup(&pager);
        let f = CompiledAggFilter::compile(
            &AggSelFilter {
                lhs: AggAttribute::Entry(EntryAgg::CountWitnesses),
                op: IntOp::Eq,
                rhs: AggAttribute::EntrySet(
                    Aggregate::Max,
                    Box::new(EntryAgg::CountWitnesses),
                ),
            },
            true,
        )
        .unwrap();
        let out = er_select(
            &pager,
            RefOp::DnValue,
            &profiles,
            &policies,
            &"SLATPRef".into(),
            &f,
        )
        .unwrap();
        // Every live profile is referenced exactly once → all tie at max.
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn witness_attribute_aggregates() {
        // dv with min($2.SLARulePriority) < 2: profiles referenced by a
        // priority-1 policy — only smtp (referenced by mail).
        let pager = tiny_pager();
        let (policies, profiles) = setup(&pager);
        let f = CompiledAggFilter::compile(
            &AggSelFilter {
                lhs: AggAttribute::Entry(EntryAgg::Agg(
                    Aggregate::Min,
                    AttrRef::Of2("SLARulePriority".into()),
                )),
                op: IntOp::Lt,
                rhs: AggAttribute::Const(2),
            },
            true,
        )
        .unwrap();
        let out = er_select(
            &pager,
            RefOp::DnValue,
            &profiles,
            &policies,
            &"SLATPRef".into(),
            &f,
        )
        .unwrap();
        assert_eq!(names(&out, "TPName"), vec!["smtp"]);
    }

    #[test]
    fn empty_inputs() {
        let pager = tiny_pager();
        let (policies, profiles) = setup(&pager);
        let empty = Operand::List(PagedList::empty(&pager));
        for op in [RefOp::ValueDn, RefOp::DnValue] {
            assert!(er_select(&pager, op, &empty, &profiles, &"SLATPRef".into(), &exists())
                .unwrap()
                .is_empty());
            assert!(er_select(&pager, op, &policies, &empty, &"SLATPRef".into(), &exists())
                .unwrap()
                .is_empty());
        }
    }

    #[test]
    fn output_sorted() {
        let pager = tiny_pager();
        let (policies, profiles) = setup(&pager);
        let out = er_select(
            &pager,
            RefOp::ValueDn,
            &policies,
            &profiles,
            &"SLATPRef".into(),
            &exists(),
        )
        .unwrap();
        let v = out.to_vec().unwrap();
        for w in v.windows(2) {
            assert!(w[0].dn() < w[1].dn());
        }
    }
}

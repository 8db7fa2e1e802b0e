//! The stack-based hierarchical-selection algorithms.
//!
//! One engine implements all of:
//!
//! * `ComputeHSPC` (Figure 2) — `p` / `c`;
//! * `ComputeHSAD` (Figure 4) — `a` / `d`;
//! * `ComputeHSADc` (Figure 5) — `ac` / `dc`;
//! * their aggregate-selection generalizations `ComputeHSAgg*` (Figure 6,
//!   Section 6.4) — any distributive/algebraic aggregate over witness
//!   sets, via [`WitnessState`] carried where the figures carry integer
//!   counts. The plain L1 operators are exactly the aggregate filter
//!   `count($2) > 0` (Section 6.2).
//!
//! ## How it works
//!
//! The sorted inputs are merged (equal DNs coalesce, carrying a label set
//! `{i | entry ∈ Li}`, as in the figures). The stack always holds exactly
//! the merge-ancestors of the current element, so (paper's observations)
//! adjacent stack frames are immediate ancestor/descendant pairs among
//! merge entries, and every ancestor of a pushed element is on the stack.
//!
//! *Below-direction* operators (`p`, `a`, `ac` — witnesses are ancestors)
//! finalize an element's witness state **at push time** (all its ancestors
//! are on the stack), so annotated output streams in sorted order
//! directly.
//!
//! *Above-direction* operators (`c`, `d`, `dc` — witnesses are
//! descendants) finalize **at pop time**, after the subtree — but sorted
//! order demands the entry precede its subtree. Each frame therefore
//! buffers its subtree's decided records in a [`ChainArena`] chain; on pop
//! the frame's own record is prepended and the chain spliced onto the
//! parent's (O(1), no copying). The figures' Phase-1/Phase-2 split
//! ("associate values with entry rt in list L1", then scan L1) is realized
//! by this chain, which *is* the annotated L1 in sorted order.
//!
//! I/O: every input page read once (an operand held in memory as a run
//! reads none), every annotated/output page written and read O(1) times,
//! chain blocks kept ≥ half full by the arena — the
//! `O((|L1|+|L2|[+|L3|])/B)` of Theorems 5.1 and 6.2. Memory: the frame
//! stack is O(directory depth); the unbounded buffers — chain blocks,
//! the staged annotated stream, the output — stay in memory while the
//! pager's budget *M* holds them and spill to pages past it, so at scale
//! they live on pages and the bound holds.

use crate::agg::{select_annotated, Annotated, CompiledAggFilter, GlobalState, WitnessState};
use crate::ast::{HierOp, HierPathOp};
use netdir_model::Entry;
use netdir_pager::chain::{Chain, ChainArena};
use netdir_pager::record::PageCtx;
use netdir_pager::{Operand, OperandWriter, Pager, PagerResult, RawOperandReader, RawRecord};
use std::borrow::Cow;

/// The six operators, unified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HsOp {
    /// `p`
    Parents,
    /// `c`
    Children,
    /// `a`
    Ancestors,
    /// `d`
    Descendants,
    /// `ac`
    AncestorsConstrained,
    /// `dc`
    DescendantsConstrained,
}

impl HsOp {
    /// Witnesses are ancestors (decided at push).
    pub fn is_below(self) -> bool {
        matches!(
            self,
            HsOp::Parents | HsOp::Ancestors | HsOp::AncestorsConstrained
        )
    }

    /// Witness relation is exactly one level (`p`/`c`).
    pub fn is_single_step(self) -> bool {
        matches!(self, HsOp::Parents | HsOp::Children)
    }

    /// Takes a third (blocker) operand.
    pub fn is_constrained(self) -> bool {
        matches!(
            self,
            HsOp::AncestorsConstrained | HsOp::DescendantsConstrained
        )
    }
}

impl From<HierOp> for HsOp {
    fn from(op: HierOp) -> HsOp {
        match op {
            HierOp::Parents => HsOp::Parents,
            HierOp::Children => HsOp::Children,
            HierOp::Ancestors => HsOp::Ancestors,
            HierOp::Descendants => HsOp::Descendants,
        }
    }
}

impl From<HierPathOp> for HsOp {
    fn from(op: HierPathOp) -> HsOp {
        match op {
            HierPathOp::AncestorsConstrained => HsOp::AncestorsConstrained,
            HierPathOp::DescendantsConstrained => HsOp::DescendantsConstrained,
        }
    }
}

const L1: u8 = 1;
const L2: u8 = 2;
const L3: u8 = 4;

/// An entry that may still be raw bytes, lent by a run or lifted off a
/// page. The engine routes, stacks and counts elements by sort key
/// alone; the entry decodes only at the first operation that actually
/// reads its attributes (or must re-encode it into an [`Annotated`]
/// record).
enum LazyEntry<'a> {
    Raw(Cow<'a, RawRecord<Entry>>),
    Ready(Entry),
}

impl LazyEntry<'_> {
    /// Decode in place (idempotent).
    fn force(&mut self, ctx: &PageCtx) -> PagerResult<()> {
        if let LazyEntry::Raw(raw) = self {
            *self = LazyEntry::Ready(raw.decode(ctx)?);
        }
        Ok(())
    }

    /// The decoded entry; caller must have [`LazyEntry::force`]d first.
    fn get(&self) -> &Entry {
        match self {
            LazyEntry::Ready(e) => e,
            LazyEntry::Raw(_) => unreachable!("LazyEntry read before force()"),
        }
    }

    /// The decoded entry if available without I/O or decode work.
    fn ready(&self) -> Option<&Entry> {
        match self {
            LazyEntry::Ready(e) => Some(e),
            LazyEntry::Raw(_) => None,
        }
    }

    /// Consume, decoding if still raw.
    fn into_entry(self, ctx: &PageCtx) -> PagerResult<Entry> {
        match self {
            LazyEntry::Raw(raw) => raw.decode(ctx),
            LazyEntry::Ready(e) => Ok(e),
        }
    }

    /// Emit to an output — raw bytes pass through undecoded.
    fn emit(&self, out: &mut OperandWriter<Entry>) -> PagerResult<()> {
        match self {
            LazyEntry::Raw(raw) => out.push_raw(raw),
            LazyEntry::Ready(e) => out.push(e),
        }
    }
}

struct MergedElem<'a> {
    key: Vec<u8>,
    depth: usize,
    labels: u8,
    entry: LazyEntry<'a>,
}

/// One operand of a [`Merge`]: its cursor, the record under it, and the
/// operand's label bit.
struct Head<'a> {
    record: Option<Cow<'a, RawRecord<Entry>>>,
    cursor: RawOperandReader<'a, Entry>,
    label: u8,
}

/// K-way merge of up to three sorted operands, coalescing equal keys.
/// Cursors carry raw records: comparison, depth and labels all come from
/// the sort key, so merging itself decodes nothing.
struct Merge<'a> {
    heads: Vec<Head<'a>>,
}

impl<'a> Merge<'a> {
    fn new(operands: &[(&'a Operand<Entry>, u8)]) -> PagerResult<Merge<'a>> {
        let mut heads = Vec::with_capacity(operands.len());
        for &(operand, label) in operands {
            let mut cursor = operand.iter_raw();
            let record = cursor.next().transpose()?;
            heads.push(Head {
                record,
                cursor,
                label,
            });
        }
        Ok(Merge { heads })
    }

    fn next(&mut self) -> PagerResult<Option<MergedElem<'a>>> {
        // Find the minimum key among heads.
        let mut min_key: Option<&[u8]> = None;
        for head in &self.heads {
            if let Some(r) = &head.record {
                let k = r.key();
                if min_key.is_none_or(|m| k < m) {
                    min_key = Some(k);
                }
            }
        }
        let Some(min_key) = min_key.map(<[u8]>::to_vec) else {
            return Ok(None);
        };
        let mut labels = 0u8;
        let mut entry: Option<Cow<'a, RawRecord<Entry>>> = None;
        for head in &mut self.heads {
            let matches = head
                .record
                .as_ref()
                .is_some_and(|r| r.key() == min_key.as_slice());
            if matches {
                labels |= head.label;
                let r = head.record.take().expect("matched head");
                if entry.is_none() {
                    entry = Some(r);
                }
                head.record = head.cursor.next().transpose()?;
            }
        }
        let entry = entry.expect("at least one operand held the min key");
        // Depth = number of 0x00 RDN separators in the reverse-DN key.
        let depth = min_key.iter().filter(|&&b| b == 0).count();
        Ok(Some(MergedElem {
            depth,
            key: min_key,
            labels,
            entry: LazyEntry::Raw(entry),
        }))
    }
}

struct Frame<'a> {
    key: Vec<u8>,
    depth: usize,
    labels: u8,
    entry: Option<LazyEntry<'a>>,
    /// Below ops: this frame's own witness state (ancestors in L2).
    /// Above ops: accumulated witnesses among processed descendants.
    wit: WitnessState,
    /// Above ops: decided annotated records of this frame's subtree,
    /// in sorted order.
    pending: Chain,
}

/// Evaluate `(op L1 L2 [L3] filter)`, producing the selected entries in
/// reverse-DN sorted order.
///
/// `l3` must be `Some` exactly for the constrained operators.
pub fn hs_select(
    pager: &Pager,
    op: HsOp,
    l1: &Operand<Entry>,
    l2: &Operand<Entry>,
    l3: Option<&Operand<Entry>>,
    filter: &CompiledAggFilter,
) -> PagerResult<Operand<Entry>> {
    debug_assert_eq!(op.is_constrained(), l3.is_some());
    let mut operands: Vec<(&Operand<Entry>, u8)> = vec![(l1, L1), (l2, L2)];
    if let Some(l3) = l3 {
        operands.push((l3, L3));
    }
    let mut merge = Merge::new(&operands)?;
    let mut globals = GlobalState::default();

    if op.is_below() {
        run_below(pager, op, &mut merge, filter, &mut globals)
    } else {
        run_above(pager, op, &mut merge, filter, &mut globals)
    }
}

/// `p` / `a` / `ac`: witness state final at push → stream in sorted order.
fn run_below(
    pager: &Pager,
    op: HsOp,
    merge: &mut Merge,
    filter: &CompiledAggFilter,
    globals: &mut GlobalState,
) -> PagerResult<Operand<Entry>> {
    let ctx = pager.ctx();
    let mut stack: Vec<Frame<'_>> = vec![root_frame(filter)];
    let needs_globals = filter.needs_globals();
    // Without entry-set aggregates, select inline; with them, stage the
    // annotated stream and re-scan (the figures' two phases).
    let mut direct_out = OperandWriter::new(pager);
    let mut staged = OperandWriter::new(pager);

    while let Some(mut elem) = merge.next()? {
        pop_to_ancestor_below(&mut stack, &elem.key);
        let top = stack.last_mut().expect("root frame never pops");
        let wit = witness_at_push(op, top, filter, elem.depth, &ctx)?;
        if elem.labels & L1 != 0 {
            if needs_globals {
                // Global aggregates read the candidate entry on the
                // re-scan anyway — decode once, here.
                elem.entry.force(&ctx)?;
                filter.accumulate_global(globals, elem.entry.get(), &wit);
                staged.push(&Annotated {
                    entry: elem.entry.get().clone(),
                    wit: wit.clone(),
                })?;
            } else {
                // Decode only if the filter reads the candidate's own
                // attributes; selected raw records pass through verbatim.
                if filter.needs_entry() {
                    elem.entry.force(&ctx)?;
                }
                if filter.accept_lazy(elem.entry.ready(), &wit, globals) {
                    elem.entry.emit(&mut direct_out)?;
                }
            }
        }
        stack.push(Frame {
            key: elem.key,
            depth: elem.depth,
            labels: elem.labels,
            entry: Some(elem.entry),
            wit,
            pending: Chain::empty(),
        });
    }

    if !needs_globals {
        return direct_out.finish();
    }
    select_annotated(pager, staged.finish()?.iter(), filter, globals)
}

/// `c` / `d` / `dc`: witness state final at pop → per-frame pending
/// chains, spliced upward, keep output sorted.
fn run_above(
    pager: &Pager,
    op: HsOp,
    merge: &mut Merge,
    filter: &CompiledAggFilter,
    globals: &mut GlobalState,
) -> PagerResult<Operand<Entry>> {
    let ctx = pager.ctx();
    let mut arena: ChainArena<Annotated> = ChainArena::new(pager);
    let mut stack: Vec<Frame> = vec![root_frame(filter)];

    while let Some(mut elem) = merge.next()? {
        while !is_ancestor_key(&stack.last().expect("root").key, &elem.key) {
            pop_above(op, &mut stack, &mut arena, filter, globals, &ctx)?;
        }
        if elem.labels & L2 != 0 {
            let top = stack.last_mut().expect("root");
            let counts = match op {
                HsOp::Children => top.depth + 1 == elem.depth,
                _ => true,
            };
            if counts {
                // Decode the witness only if the filter aggregates over
                // witness attributes; count-only filters just tally.
                if filter.needs_witness_entry() {
                    elem.entry.force(&ctx)?;
                    top.wit.add_witness(filter, elem.entry.get());
                } else {
                    top.wit.add_anonymous_witness();
                }
            }
        }
        stack.push(Frame {
            key: elem.key,
            depth: elem.depth,
            labels: elem.labels,
            entry: Some(elem.entry),
            wit: WitnessState::empty(filter),
            pending: Chain::empty(),
        });
    }
    while stack.len() > 1 {
        pop_above(op, &mut stack, &mut arena, filter, globals, &ctx)?;
    }
    let annotated = stack.pop().expect("root").pending;
    select_annotated(pager, arena.iter(annotated), filter, globals)
}

fn root_frame<'a>(filter: &CompiledAggFilter) -> Frame<'a> {
    Frame {
        key: Vec::new(),
        depth: 0,
        labels: 0,
        entry: None,
        wit: WitnessState::empty(filter),
        pending: Chain::empty(),
    }
}

fn is_ancestor_key(anc: &[u8], key: &[u8]) -> bool {
    key.starts_with(anc) && anc.len() < key.len()
}

fn pop_to_ancestor_below(stack: &mut Vec<Frame<'_>>, key: &[u8]) {
    while !is_ancestor_key(&stack.last().expect("root").key, key) {
        stack.pop();
    }
}

/// Add `top`'s entry to witness state `w`, decoding it only if the
/// filter aggregates over witness attributes.
fn add_top_witness(
    w: &mut WitnessState,
    top: &mut Frame<'_>,
    filter: &CompiledAggFilter,
    ctx: &PageCtx,
) -> PagerResult<()> {
    if filter.needs_witness_entry() {
        let e = top.entry.as_mut().expect("non-root top");
        e.force(ctx)?;
        w.add_witness(filter, e.get());
    } else {
        w.add_anonymous_witness();
    }
    Ok(())
}

/// Witness state of a freshly pushed element for the below-direction
/// operators, from its nearest merge-ancestor `top` (Figures 2/4/5's
/// `below(rl)` assignments, generalized from counts to [`WitnessState`]).
fn witness_at_push(
    op: HsOp,
    top: &mut Frame<'_>,
    filter: &CompiledAggFilter,
    elem_depth: usize,
    ctx: &PageCtx,
) -> PagerResult<WitnessState> {
    let top_in_l2 = top.labels & L2 != 0;
    let top_in_l3 = top.labels & L3 != 0;
    let w = match op {
        HsOp::Parents => {
            let mut w = WitnessState::empty(filter);
            if top_in_l2 && top.depth + 1 == elem_depth {
                add_top_witness(&mut w, top, filter, ctx)?;
            }
            w
        }
        HsOp::Ancestors => {
            let mut w = top.wit.clone();
            if top_in_l2 {
                add_top_witness(&mut w, top, filter, ctx)?;
            }
            w
        }
        HsOp::AncestorsConstrained => {
            // Figure 5: an L3 ancestor blocks everything above it; an
            // entry that is in both L2 and L3 still counts itself.
            let mut w = WitnessState::empty(filter);
            if top_in_l2 {
                if !top_in_l3 {
                    w = top.wit.clone();
                }
                add_top_witness(&mut w, top, filter, ctx)?;
            } else if !top_in_l3 {
                w = top.wit.clone();
            }
            w
        }
        _ => unreachable!("witness_at_push is for below-direction ops"),
    };
    Ok(w)
}

fn pop_above(
    op: HsOp,
    stack: &mut Vec<Frame<'_>>,
    arena: &mut ChainArena<Annotated>,
    filter: &CompiledAggFilter,
    globals: &mut GlobalState,
    ctx: &PageCtx,
) -> PagerResult<()> {
    let mut rt = stack.pop().expect("caller ensures non-root");
    let mut out_chain = Chain::empty();
    if rt.labels & L1 != 0 {
        // Buffered candidates re-encode into Annotated records, so the
        // decode is unavoidable here (witness-less frames never reach it).
        let entry = rt.entry.take().expect("L1 frame has entry").into_entry(ctx)?;
        filter.accumulate_global(globals, &entry, &rt.wit);
        out_chain = arena.push(
            out_chain,
            &Annotated {
                entry,
                wit: rt.wit.clone(),
            },
        )?;
    }
    out_chain = arena.concat(out_chain, rt.pending)?;
    let rb = stack.last_mut().expect("root frame remains");
    match op {
        HsOp::Children => {}
        HsOp::Descendants => rb.wit.merge(&rt.wit),
        HsOp::DescendantsConstrained => {
            if rt.labels & L3 == 0 {
                rb.wit.merge(&rt.wit);
            }
        }
        _ => unreachable!("pop_above is for above-direction ops"),
    }
    rb.pending = arena.concat(rb.pending, out_chain)?;
    Ok(())
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

    fn plain(
        pager: &Pager,
        op: HsOp,
        l1: &Operand<Entry>,
        l2: &Operand<Entry>,
        l3: Option<&Operand<Entry>>,
    ) -> Vec<String> {
        let f = CompiledAggFilter::exists_witness();
        dns(&hs_select(pager, op, l1, l2, l3, &f).unwrap())
    }

    // A small forest used across tests:
    //   dc=com
    //     dc=att,dc=com
    //       ou=p,dc=att,dc=com
    //         uid=a,...   uid=b,...
    //       ou=q,dc=att,dc=com
    //   dc=org
    const ALL: &[&str] = &[
        "dc=com",
        "dc=att, dc=com",
        "ou=p, dc=att, dc=com",
        "uid=a, ou=p, dc=att, dc=com",
        "uid=b, ou=p, dc=att, dc=com",
        "ou=q, dc=att, dc=com",
        "dc=org",
    ];

    #[test]
    fn parents_selects_entries_with_parent_in_l2() {
        let pager = tiny_pager();
        let l1 = list(&pager, ALL);
        let l2 = list(&pager, &["ou=p, dc=att, dc=com", "dc=com"]);
        // Entries whose parent ∈ L2: children of ou=p (uid=a, uid=b) and
        // children of dc=com (dc=att).
        assert_eq!(
            plain(&pager, HsOp::Parents, &l1, &l2, None),
            vec![
                "dc=att, dc=com",
                "uid=a, ou=p, dc=att, dc=com",
                "uid=b, ou=p, dc=att, dc=com",
            ]
        );
    }

    #[test]
    fn children_selects_entries_with_child_in_l2() {
        let pager = tiny_pager();
        let l1 = list(&pager, ALL);
        let l2 = list(&pager, &["uid=a, ou=p, dc=att, dc=com", "dc=att, dc=com"]);
        // Entries having a child ∈ L2: ou=p (child uid=a), dc=com (child dc=att).
        assert_eq!(
            plain(&pager, HsOp::Children, &l1, &l2, None),
            vec!["dc=com", "ou=p, dc=att, dc=com"]
        );
    }

    #[test]
    fn ancestors_and_descendants() {
        let pager = tiny_pager();
        let l1 = list(&pager, ALL);
        let l2 = list(&pager, &["dc=att, dc=com"]);
        // a: entries with an ancestor in L2 = everything strictly below dc=att.
        assert_eq!(
            plain(&pager, HsOp::Ancestors, &l1, &l2, None),
            vec![
                "ou=p, dc=att, dc=com",
                "uid=a, ou=p, dc=att, dc=com",
                "uid=b, ou=p, dc=att, dc=com",
                "ou=q, dc=att, dc=com",
            ]
        );
        // d: entries with a descendant in L2 = dc=com only.
        assert_eq!(
            plain(&pager, HsOp::Descendants, &l1, &l2, None),
            vec!["dc=com"]
        );
    }

    #[test]
    fn self_is_not_its_own_witness() {
        let pager = tiny_pager();
        let l = list(&pager, &["dc=att, dc=com"]);
        assert!(plain(&pager, HsOp::Ancestors, &l, &l, None).is_empty());
        assert!(plain(&pager, HsOp::Descendants, &l, &l, None).is_empty());
        assert!(plain(&pager, HsOp::Parents, &l, &l, None).is_empty());
        assert!(plain(&pager, HsOp::Children, &l, &l, None).is_empty());
    }

    #[test]
    fn constrained_ancestors_blocking() {
        let pager = tiny_pager();
        // Chain: com > att > p > a.
        let l1 = list(&pager, &["uid=a, ou=p, dc=att, dc=com"]);
        let l2 = list(&pager, &["dc=com", "dc=att, dc=com"]);
        // Without blockers both ancestors witness.
        let empty = Operand::List(PagedList::empty(&pager));
        assert_eq!(
            plain(&pager, HsOp::AncestorsConstrained, &l1, &l2, Some(&empty)),
            vec!["uid=a, ou=p, dc=att, dc=com"]
        );
        // Blocker at ou=p blocks *all* L2 ancestors above it.
        let l3 = list(&pager, &["ou=p, dc=att, dc=com"]);
        assert!(plain(&pager, HsOp::AncestorsConstrained, &l1, &l2, Some(&l3)).is_empty());
        // Blocker at dc=att blocks dc=com, but dc=att itself is in L2 —
        // wait: dc=att ∈ L3 only blocks entries *above* it; is dc=att in
        // L2 still a witness? It is: r3 must differ from r2.
        let l3 = list(&pager, &["dc=att, dc=com"]);
        assert_eq!(
            plain(&pager, HsOp::AncestorsConstrained, &l1, &l2, Some(&l3)),
            vec!["uid=a, ou=p, dc=att, dc=com"]
        );
    }

    #[test]
    fn constrained_descendants_closest_dc_object_example() {
        let pager = tiny_pager();
        // Example 5.3 shape: which dcObjects have an SMTP profile below
        // them with no intervening dcObject?
        let dc_objects = list(&pager, &["dc=com", "dc=att, dc=com"]);
        let profiles = list(&pager, &["tp=smtp, ou=p, dc=att, dc=com"]);
        // dc=att sees the profile (no dcObject between); dc=com is blocked
        // by dc=att.
        assert_eq!(
            plain(
                &pager,
                HsOp::DescendantsConstrained,
                &dc_objects,
                &profiles,
                Some(&dc_objects)
            ),
            vec!["dc=att, dc=com"]
        );
    }

    #[test]
    fn structural_count_filter() {
        use crate::ast::{AggAttribute, AggSelFilter, EntryAgg};
        use netdir_filter::atomic::IntOp;
        let pager = tiny_pager();
        let l1 = list(&pager, &["ou=p, dc=att, dc=com", "ou=q, dc=att, dc=com"]);
        let l2 = list(
            &pager,
            &[
                "uid=a, ou=p, dc=att, dc=com",
                "uid=b, ou=p, dc=att, dc=com",
                "uid=c, ou=q, dc=att, dc=com",
            ],
        );
        // count($2) > 1 on children: only ou=p has 2 children in L2.
        let f = CompiledAggFilter::compile(
            &AggSelFilter {
                lhs: AggAttribute::Entry(EntryAgg::CountWitnesses),
                op: IntOp::Gt,
                rhs: AggAttribute::Const(1),
            },
            true,
        )
        .unwrap();
        let out = hs_select(&pager, HsOp::Children, &l1, &l2, None, &f).unwrap();
        assert_eq!(dns(&out), vec!["ou=p, dc=att, dc=com"]);
    }

    #[test]
    fn global_max_count_filter() {
        use crate::ast::{AggAttribute, AggSelFilter, Aggregate, EntryAgg};
        use netdir_filter::atomic::IntOp;
        let pager = tiny_pager();
        // Figure 6's instantiation: count($2) = max(count($2)).
        let l1 = list(&pager, &["ou=p, dc=att, dc=com", "ou=q, dc=att, dc=com", "dc=org"]);
        let l2 = list(
            &pager,
            &[
                "uid=a, ou=p, dc=att, dc=com",
                "uid=b, ou=p, dc=att, dc=com",
                "uid=c, ou=q, dc=att, dc=com",
            ],
        );
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
        let out = hs_select(&pager, HsOp::Descendants, &l1, &l2, None, &f).unwrap();
        assert_eq!(dns(&out), vec!["ou=p, dc=att, dc=com"]);
    }

    #[test]
    fn output_is_sorted_for_above_ops() {
        let pager = tiny_pager();
        // Nested L1 entries with children: both dc=com and dc=att have
        // children in L2; output must list dc=com first (it's nested
        // *outside*), exercising the pending-chain splice.
        let l1 = list(&pager, ALL);
        let l2 = list(
            &pager,
            &["dc=att, dc=com", "ou=p, dc=att, dc=com", "uid=a, ou=p, dc=att, dc=com"],
        );
        let got = plain(&pager, HsOp::Descendants, &l1, &l2, None);
        assert_eq!(
            got,
            vec!["dc=com", "dc=att, dc=com", "ou=p, dc=att, dc=com"]
        );
    }

    #[test]
    fn empty_inputs() {
        let pager = tiny_pager();
        let l = list(&pager, ALL);
        let empty = Operand::List(PagedList::empty(&pager));
        for op in [HsOp::Parents, HsOp::Children, HsOp::Ancestors, HsOp::Descendants] {
            assert!(plain(&pager, op, &empty, &l, None).is_empty());
            assert!(plain(&pager, op, &l, &empty, None).is_empty());
        }
        assert!(plain(&pager, HsOp::AncestorsConstrained, &empty, &l, Some(&empty)).is_empty());
    }

    #[test]
    fn forest_gaps_respected() {
        // Missing intermediate entries: uid under ou, but the ou entry is
        // absent from the instance. parent must fail, ancestor must work.
        let pager = tiny_pager();
        let l1 = list(&pager, &["uid=a, ou=ghost, dc=com"]);
        let l2 = list(&pager, &["dc=com"]);
        assert!(plain(&pager, HsOp::Parents, &l1, &l2, None).is_empty());
        assert_eq!(
            plain(&pager, HsOp::Ancestors, &l1, &l2, None),
            vec!["uid=a, ou=ghost, dc=com"]
        );
        assert!(plain(&pager, HsOp::Children, &l2, &l1, None).is_empty());
        assert_eq!(
            plain(&pager, HsOp::Descendants, &l2, &l1, None),
            vec!["dc=com"]
        );
    }
}

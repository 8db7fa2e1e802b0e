//! Aggregate machinery shared by the L2/L3 operators.
//!
//! Section 6.4 observes that any "distributive or algebraic" aggregate can
//! be maintained incrementally on the stack; [`AggAcc`] is that incremental
//! state — it tracks min, max, sum and count at once (average falls out as
//! sum/count), is mergeable (`merge` is the distributive combine), and is
//! cheap enough to carry per stack frame and per pending record.
//!
//! [`CompiledAggFilter`] pre-analyses an [`AggSelFilter`]: which witness
//! attributes (`$2.a`) must be accumulated, and which per-entry aggregates
//! feed the *entry-set* aggregates (`agg1(ea)`, `count($$)`/`count($1)`)
//! that force the two-phase evaluation of Figures 3 and 6.
//!
//! Numeric semantics: aggregates operate on the *integer* values of an
//! attribute (strings do not order-aggregate; `count` alone counts values
//! of every type). An aggregate over an empty multiset is undefined, and a
//! comparison involving an undefined value is false. Values are carried as
//! `f64` (exact for the |int| < 2^53 range of directory data; `average`
//! needs the division anyway).

use crate::ast::{AggAttribute, AggSelFilter, Aggregate, AttrRef, EntryAgg};
use crate::error::{QueryError, QueryResult};
use netdir_model::{AttrName, Entry, Value};
use netdir_pager::record::{codec, PageCtx, Record};
use netdir_pager::{Operand, OperandWriter, Pager, PagerResult};

/// Incremental state for all distributive aggregates at once.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AggAcc {
    /// Minimum int value seen, if any.
    pub min: Option<f64>,
    /// Maximum int value seen, if any.
    pub max: Option<f64>,
    /// Sum of int values seen.
    pub sum: f64,
    /// Count of int values seen (for sum/average).
    pub count_int: u64,
    /// Count of all values seen (any type; for `count(a)`).
    pub count_all: u64,
}

impl AggAcc {
    /// The empty accumulator.
    pub fn empty() -> AggAcc {
        AggAcc::default()
    }

    /// Fold in one integer value.
    pub fn add_int(&mut self, v: f64) {
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
        self.sum += v;
        self.count_int += 1;
        self.count_all += 1;
    }

    /// Fold in one non-integer value (participates in `count` only).
    pub fn add_other(&mut self) {
        self.count_all += 1;
    }

    /// Fold in every value of `attr` on `entry`.
    pub fn add_attr_values(&mut self, entry: &Entry, attr: &AttrName) {
        for v in entry.values(attr) {
            match v {
                Value::Int(i) => self.add_int(*i as f64),
                _ => self.add_other(),
            }
        }
    }

    /// Distributive combine.
    pub fn merge(&mut self, other: &AggAcc) {
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        self.sum += other.sum;
        self.count_int += other.count_int;
        self.count_all += other.count_all;
    }

    /// Final value of `agg` over everything folded in; `None` when
    /// undefined (min/max/average of nothing).
    pub fn get(&self, agg: Aggregate) -> Option<f64> {
        match agg {
            Aggregate::Min => self.min,
            Aggregate::Max => self.max,
            Aggregate::Count => Some(self.count_all as f64),
            Aggregate::Sum => Some(self.sum),
            Aggregate::Average => {
                if self.count_int == 0 {
                    None
                } else {
                    Some(self.sum / self.count_int as f64)
                }
            }
        }
    }
}

impl Record for AggAcc {
    fn encode(&self, out: &mut Vec<u8>) {
        let put_opt = |out: &mut Vec<u8>, v: Option<f64>| match v {
            None => out.push(0),
            Some(x) => {
                out.push(1);
                out.extend_from_slice(&x.to_le_bytes());
            }
        };
        put_opt(out, self.min);
        put_opt(out, self.max);
        out.extend_from_slice(&self.sum.to_le_bytes());
        codec::put_u64(out, self.count_int);
        codec::put_u64(out, self.count_all);
    }

    fn decode(bytes: &[u8]) -> PagerResult<Self> {
        let mut r = codec::Reader::new(bytes);
        let get_opt = |r: &mut codec::Reader| -> PagerResult<Option<f64>> {
            Ok(match r.get_u8()? {
                0 => None,
                _ => Some(f64::from_le_bytes(r.get_u64()?.to_le_bytes())),
            })
        };
        let min = get_opt(&mut r)?;
        let max = get_opt(&mut r)?;
        let sum = f64::from_le_bytes(r.get_u64()?.to_le_bytes());
        let count_int = r.get_u64()?;
        let count_all = r.get_u64()?;
        r.finish()?;
        Ok(AggAcc {
            min,
            max,
            sum,
            count_int,
            count_all,
        })
    }
}

/// Witness-side accumulation: the witness count plus one [`AggAcc`] per
/// `$2.a` attribute the filter mentions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WitnessState {
    /// `count($2)`.
    pub count: u64,
    /// Parallel to [`CompiledAggFilter::witness_attrs`].
    pub per_attr: Vec<AggAcc>,
}

impl WitnessState {
    /// Empty state sized for `spec`.
    pub fn empty(spec: &CompiledAggFilter) -> WitnessState {
        WitnessState {
            count: 0,
            per_attr: vec![AggAcc::empty(); spec.witness_attrs.len()],
        }
    }

    /// Fold in one witness entry.
    pub fn add_witness(&mut self, spec: &CompiledAggFilter, witness: &Entry) {
        self.count += 1;
        for (acc, attr) in self.per_attr.iter_mut().zip(&spec.witness_attrs) {
            acc.add_attr_values(witness, attr);
        }
    }

    /// Fold in one witness *without* its entry. Valid only when the filter
    /// accumulates no per-attribute witness aggregates
    /// ([`CompiledAggFilter::needs_witness_entry`] is false) — the common
    /// `count($2) > 0` case, where the witness never needs decoding.
    pub fn add_anonymous_witness(&mut self) {
        debug_assert!(
            self.per_attr.is_empty(),
            "anonymous witness with per-attribute accumulators"
        );
        self.count += 1;
    }

    /// Distributive combine.
    pub fn merge(&mut self, other: &WitnessState) {
        self.count += other.count;
        for (a, b) in self.per_attr.iter_mut().zip(&other.per_attr) {
            a.merge(b);
        }
    }
}

impl Record for WitnessState {
    fn encode(&self, out: &mut Vec<u8>) {
        codec::put_u64(out, self.count);
        codec::put_u32(out, self.per_attr.len() as u32);
        let mut scratch = Vec::new();
        for acc in &self.per_attr {
            scratch.clear();
            acc.encode(&mut scratch);
            codec::put_bytes(out, &scratch);
        }
    }

    fn decode(bytes: &[u8]) -> PagerResult<Self> {
        let mut r = codec::Reader::new(bytes);
        let count = r.get_u64()?;
        let n = r.get_u32()? as usize;
        let mut per_attr = Vec::with_capacity(n);
        for _ in 0..n {
            per_attr.push(AggAcc::decode(r.get_bytes()?)?);
        }
        r.finish()?;
        Ok(WitnessState { count, per_attr })
    }
}

/// A sorted-list record: an entry annotated with its witness state.
/// Produced in reverse-DN order by the structural operators' first phase;
/// consumed by the selection phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Annotated {
    /// The candidate entry from `Q1`.
    pub entry: Entry,
    /// Its accumulated witness aggregates.
    pub wit: WitnessState,
}

/// The selection phase of Figures 3 and 6: keep the `annotated`
/// candidates, in their sorted order, that pass `filter` against the
/// set aggregates the first phase accumulated.
pub(crate) fn select_annotated(
    pager: &Pager,
    annotated: impl Iterator<Item = PagerResult<Annotated>>,
    filter: &CompiledAggFilter,
    globals: &GlobalState,
) -> PagerResult<Operand<Entry>> {
    let mut out = OperandWriter::new(pager);
    for ann in annotated {
        let ann = ann?;
        if filter.accept(&ann.entry, &ann.wit, globals) {
            out.push(&ann.entry)?;
        }
    }
    out.finish()
}

impl Record for Annotated {
    fn encode(&self, out: &mut Vec<u8>) {
        let mut e = Vec::new();
        self.entry.encode(&mut e);
        codec::put_bytes(out, &e);
        let mut w = Vec::new();
        self.wit.encode(&mut w);
        codec::put_bytes(out, &w);
    }

    fn decode(bytes: &[u8]) -> PagerResult<Self> {
        let mut r = codec::Reader::new(bytes);
        let entry = Entry::decode(r.get_bytes()?)?;
        let wit = WitnessState::decode(r.get_bytes()?)?;
        r.finish()?;
        Ok(Annotated { entry, wit })
    }

    // v2 page hooks: the annotated record sorts and compresses by its
    // entry's reverse-DN key; the body nests the entry's slim encoding.

    fn page_key(&self) -> Option<Vec<u8>> {
        self.entry.page_key()
    }

    fn page_key_of_encoded(bytes: &[u8]) -> PagerResult<Option<Vec<u8>>> {
        let mut r = codec::Reader::new(bytes);
        Entry::page_key_of_encoded(r.get_bytes()?)
    }

    fn encode_body(&self, out: &mut Vec<u8>, ctx: &PageCtx) {
        let mut e = Vec::new();
        self.entry.encode_body(&mut e, ctx);
        codec::put_vbytes(&mut *out, &e);
        let mut w = Vec::new();
        self.wit.encode(&mut w);
        codec::put_vbytes(&mut *out, &w);
    }

    fn decode_body(key: &[u8], body: &[u8], ctx: &PageCtx) -> PagerResult<Self> {
        let mut r = codec::Reader::new(body);
        let entry = Entry::decode_body(key, r.get_vbytes()?, ctx)?;
        let wit = WitnessState::decode(r.get_vbytes()?)?;
        r.finish()?;
        Ok(Annotated { entry, wit })
    }
}

/// Global (entry-set) accumulation for the second phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GlobalState {
    /// `count($1)` / `count($$)` — number of Q1/result-set entries.
    pub count_r1: u64,
    /// Parallel to [`CompiledAggFilter::set_terms`]: the across-entries
    /// accumulator of each inner per-entry aggregate.
    pub per_term: Vec<AggAcc>,
}

/// A pre-analysed aggregate selection filter.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledAggFilter {
    /// The filter as written.
    pub filter: AggSelFilter,
    /// Distinct `$2.a` attributes needing witness accumulation.
    pub witness_attrs: Vec<AttrName>,
    /// Inner per-entry aggregates of the filter's entry-set aggregates.
    pub set_terms: Vec<EntryAgg>,
    /// True iff some aggregate reads the candidate entry's own attributes
    /// (`agg(a)` / `agg($1.a)`) — the lazy evaluation paths must decode
    /// candidates exactly when this holds.
    reads_entry: bool,
}

impl CompiledAggFilter {
    /// Analyse `filter`. `structural` is true for the hierarchy/reference
    /// operators (witness references allowed) and false for simple `g`
    /// selection (where `$2` has no meaning and is rejected).
    pub fn compile(filter: &AggSelFilter, structural: bool) -> QueryResult<CompiledAggFilter> {
        let mut c = CompiledAggFilter {
            filter: filter.clone(),
            witness_attrs: Vec::new(),
            set_terms: Vec::new(),
            reads_entry: false,
        };
        for side in [&filter.lhs, &filter.rhs] {
            c.visit_attribute(side, structural)?;
        }
        Ok(c)
    }

    /// The plain-L1 filter `count($2) > 0`, pre-compiled.
    pub fn exists_witness() -> CompiledAggFilter {
        CompiledAggFilter::compile(&AggSelFilter::exists_witness(), true)
            .expect("count($2) > 0 always compiles")
    }

    fn visit_attribute(&mut self, aa: &AggAttribute, structural: bool) -> QueryResult<()> {
        match aa {
            AggAttribute::Const(_) | AggAttribute::CountAll | AggAttribute::CountR1 => Ok(()),
            AggAttribute::Entry(ea) => self.visit_entry_agg(ea, structural),
            AggAttribute::EntrySet(_, ea) => {
                self.visit_entry_agg(ea, structural)?;
                if !self.set_terms.contains(ea) {
                    self.set_terms.push((**ea).clone());
                }
                Ok(())
            }
        }
    }

    fn visit_entry_agg(&mut self, ea: &EntryAgg, structural: bool) -> QueryResult<()> {
        match ea {
            EntryAgg::CountWitnesses => {
                if !structural {
                    return Err(QueryError::BadAggFilter {
                        detail: "count($2) has no meaning in simple (g) selection".into(),
                    });
                }
                Ok(())
            }
            EntryAgg::Agg(_, AttrRef::Of2(a)) => {
                if !structural {
                    return Err(QueryError::BadAggFilter {
                        detail: format!("$2.{a} has no meaning in simple (g) selection"),
                    });
                }
                if !self.witness_attrs.contains(a) {
                    self.witness_attrs.push(a.clone());
                }
                Ok(())
            }
            EntryAgg::Agg(_, AttrRef::Own(_)) | EntryAgg::Agg(_, AttrRef::Of1(_)) => {
                self.reads_entry = true;
                Ok(())
            }
        }
    }

    /// Does evaluating this filter read the candidate entry's attributes?
    /// When false, [`CompiledAggFilter::accept_lazy`] never needs the
    /// entry decoded (witness counts and globals suffice).
    pub fn needs_entry(&self) -> bool {
        self.reads_entry
    }

    /// Does witness accumulation read witness entries' attributes? When
    /// false (e.g. the plain `count($2) > 0` filter), witnesses only bump
    /// a counter and [`WitnessState::add_anonymous_witness`] applies.
    pub fn needs_witness_entry(&self) -> bool {
        !self.witness_attrs.is_empty()
    }

    /// Does this filter reference entry-set aggregates (forcing the
    /// two-phase evaluation with a materialized annotated list)?
    pub fn needs_globals(&self) -> bool {
        !self.set_terms.is_empty()
            || matches!(self.filter.lhs, AggAttribute::CountAll | AggAttribute::CountR1)
            || matches!(self.filter.rhs, AggAttribute::CountAll | AggAttribute::CountR1)
    }

    /// Evaluate a per-entry aggregate on `(entry, witness-state)`.
    pub fn eval_entry_agg(&self, ea: &EntryAgg, entry: &Entry, wit: &WitnessState) -> Option<f64> {
        self.eval_entry_agg_opt(ea, Some(entry), wit)
    }

    fn eval_entry_agg_opt(
        &self,
        ea: &EntryAgg,
        entry: Option<&Entry>,
        wit: &WitnessState,
    ) -> Option<f64> {
        match ea {
            EntryAgg::CountWitnesses => Some(wit.count as f64),
            EntryAgg::Agg(agg, AttrRef::Own(a)) | EntryAgg::Agg(agg, AttrRef::Of1(a)) => {
                let entry = entry.expect("filter reads candidate entry (needs_entry() is true)");
                let mut acc = AggAcc::empty();
                acc.add_attr_values(entry, a);
                acc.get(*agg)
            }
            EntryAgg::Agg(agg, AttrRef::Of2(a)) => {
                let idx = self
                    .witness_attrs
                    .iter()
                    .position(|x| x == a)
                    .expect("compiled filter tracks every $2 attr");
                wit.per_attr[idx].get(*agg)
            }
        }
    }

    /// Fold an annotated entry into the global (entry-set) state.
    pub fn accumulate_global(&self, g: &mut GlobalState, entry: &Entry, wit: &WitnessState) {
        if g.per_term.len() != self.set_terms.len() {
            g.per_term = vec![AggAcc::empty(); self.set_terms.len()];
        }
        g.count_r1 += 1;
        for (acc, term) in g.per_term.iter_mut().zip(&self.set_terms) {
            if let Some(v) = self.eval_entry_agg(term, entry, wit) {
                acc.add_int(v);
            }
        }
    }

    fn eval_attribute(
        &self,
        aa: &AggAttribute,
        entry: Option<&Entry>,
        wit: &WitnessState,
        g: &GlobalState,
    ) -> Option<f64> {
        match aa {
            AggAttribute::Const(c) => Some(*c as f64),
            AggAttribute::Entry(ea) => self.eval_entry_agg_opt(ea, entry, wit),
            AggAttribute::EntrySet(agg, ea) => {
                let idx = self
                    .set_terms
                    .iter()
                    .position(|t| t == &**ea)
                    .expect("compiled filter tracks every set term");
                g.per_term.get(idx)?.get(*agg)
            }
            AggAttribute::CountAll | AggAttribute::CountR1 => Some(g.count_r1 as f64),
        }
    }

    /// The selection judgement: does `(entry, wit)` pass, given globals?
    pub fn accept(&self, entry: &Entry, wit: &WitnessState, g: &GlobalState) -> bool {
        self.accept_lazy(Some(entry), wit, g)
    }

    /// [`CompiledAggFilter::accept`] for a candidate that may remain
    /// undecoded: pass `None` only when [`CompiledAggFilter::needs_entry`]
    /// is false (the filter then reads witness state and globals alone).
    pub fn accept_lazy(&self, entry: Option<&Entry>, wit: &WitnessState, g: &GlobalState) -> bool {
        debug_assert!(entry.is_some() || !self.reads_entry);
        let (Some(lhs), Some(rhs)) = (
            self.eval_attribute(&self.filter.lhs, entry, wit, g),
            self.eval_attribute(&self.filter.rhs, entry, wit, g),
        ) else {
            return false; // undefined aggregate → filter fails
        };
        use netdir_filter::atomic::IntOp;
        match self.filter.op {
            IntOp::Lt => lhs < rhs,
            IntOp::Le => lhs <= rhs,
            IntOp::Gt => lhs > rhs,
            IntOp::Ge => lhs >= rhs,
            IntOp::Eq => lhs == rhs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdir_filter::atomic::IntOp;
    use netdir_model::Dn;

    fn entry_with_priorities(ps: &[i64]) -> Entry {
        Entry::builder(Dn::parse("cn=x, dc=com").unwrap())
            .class("c")
            .attr_values("priority", ps.iter().copied())
            .attr("label", "text")
            .build()
            .unwrap()
    }

    #[test]
    fn acc_tracks_all_aggregates() {
        let mut acc = AggAcc::empty();
        for v in [3.0, 1.0, 2.0] {
            acc.add_int(v);
        }
        acc.add_other();
        assert_eq!(acc.get(Aggregate::Min), Some(1.0));
        assert_eq!(acc.get(Aggregate::Max), Some(3.0));
        assert_eq!(acc.get(Aggregate::Sum), Some(6.0));
        assert_eq!(acc.get(Aggregate::Count), Some(4.0)); // counts the string too
        assert_eq!(acc.get(Aggregate::Average), Some(2.0));
    }

    #[test]
    fn empty_acc_is_undefined_for_min_max_avg() {
        let acc = AggAcc::empty();
        assert_eq!(acc.get(Aggregate::Min), None);
        assert_eq!(acc.get(Aggregate::Max), None);
        assert_eq!(acc.get(Aggregate::Average), None);
        assert_eq!(acc.get(Aggregate::Sum), Some(0.0));
        assert_eq!(acc.get(Aggregate::Count), Some(0.0));
    }

    #[test]
    fn merge_is_distributive() {
        let mut a = AggAcc::empty();
        a.add_int(5.0);
        let mut b = AggAcc::empty();
        b.add_int(2.0);
        b.add_int(9.0);
        let mut merged = a;
        merged.merge(&b);
        let mut direct = AggAcc::empty();
        for v in [5.0, 2.0, 9.0] {
            direct.add_int(v);
        }
        assert_eq!(merged, direct);
    }

    #[test]
    fn acc_record_roundtrip() {
        let mut acc = AggAcc::empty();
        acc.add_int(-4.0);
        acc.add_int(10.0);
        acc.add_other();
        let mut buf = Vec::new();
        acc.encode(&mut buf);
        assert_eq!(AggAcc::decode(&buf).unwrap(), acc);

        let empty = AggAcc::empty();
        let mut buf = Vec::new();
        empty.encode(&mut buf);
        assert_eq!(AggAcc::decode(&buf).unwrap(), empty);
    }

    fn filt(lhs: AggAttribute, op: IntOp, rhs: AggAttribute) -> AggSelFilter {
        AggSelFilter { lhs, op, rhs }
    }

    #[test]
    fn compile_collects_witness_attrs_and_set_terms() {
        let f = filt(
            AggAttribute::Entry(EntryAgg::Agg(Aggregate::Min, AttrRef::Of2("x".into()))),
            IntOp::Eq,
            AggAttribute::EntrySet(
                Aggregate::Max,
                Box::new(EntryAgg::Agg(Aggregate::Min, AttrRef::Of2("x".into()))),
            ),
        );
        let c = CompiledAggFilter::compile(&f, true).unwrap();
        assert_eq!(c.witness_attrs.len(), 1);
        assert_eq!(c.set_terms.len(), 1);
        assert!(c.needs_globals());
        let simple = CompiledAggFilter::exists_witness();
        assert!(!simple.needs_globals());
    }

    #[test]
    fn witness_refs_rejected_in_simple_context() {
        let f = AggSelFilter::exists_witness();
        assert!(matches!(
            CompiledAggFilter::compile(&f, false),
            Err(QueryError::BadAggFilter { .. })
        ));
        let f = filt(
            AggAttribute::Entry(EntryAgg::Agg(Aggregate::Min, AttrRef::Of2("x".into()))),
            IntOp::Gt,
            AggAttribute::Const(0),
        );
        assert!(CompiledAggFilter::compile(&f, false).is_err());
    }

    #[test]
    fn accept_simple_entry_aggregate() {
        // count(priority) > 1
        let f = filt(
            AggAttribute::Entry(EntryAgg::Agg(
                Aggregate::Count,
                AttrRef::Own("priority".into()),
            )),
            IntOp::Gt,
            AggAttribute::Const(1),
        );
        let c = CompiledAggFilter::compile(&f, false).unwrap();
        let g = GlobalState::default();
        let w = WitnessState::default();
        assert!(c.accept(&entry_with_priorities(&[1, 2]), &w, &g));
        assert!(!c.accept(&entry_with_priorities(&[1]), &w, &g));
    }

    #[test]
    fn accept_fails_on_undefined_aggregate() {
        // min(missing) = 0 — undefined lhs → reject.
        let f = filt(
            AggAttribute::Entry(EntryAgg::Agg(
                Aggregate::Min,
                AttrRef::Own("missing".into()),
            )),
            IntOp::Eq,
            AggAttribute::Const(0),
        );
        let c = CompiledAggFilter::compile(&f, false).unwrap();
        assert!(!c.accept(
            &entry_with_priorities(&[1]),
            &WitnessState::default(),
            &GlobalState::default()
        ));
    }

    #[test]
    fn global_min_of_min_selection() {
        // min(priority) = min(min(priority))
        let ea = EntryAgg::Agg(Aggregate::Min, AttrRef::Own("priority".into()));
        let f = filt(
            AggAttribute::Entry(ea.clone()),
            IntOp::Eq,
            AggAttribute::EntrySet(Aggregate::Min, Box::new(ea)),
        );
        let c = CompiledAggFilter::compile(&f, false).unwrap();
        let entries = [
            entry_with_priorities(&[3, 5]),
            entry_with_priorities(&[2]),
            entry_with_priorities(&[4]),
        ];
        let mut g = GlobalState::default();
        let w = WitnessState::default();
        for e in &entries {
            c.accumulate_global(&mut g, e, &w);
        }
        assert_eq!(g.count_r1, 3);
        let picked: Vec<bool> = entries.iter().map(|e| c.accept(e, &w, &g)).collect();
        assert_eq!(picked, vec![false, true, false]);
    }

    #[test]
    fn witness_state_roundtrip_and_merge() {
        let f = filt(
            AggAttribute::Entry(EntryAgg::Agg(
                Aggregate::Sum,
                AttrRef::Of2("priority".into()),
            )),
            IntOp::Gt,
            AggAttribute::Const(0),
        );
        let c = CompiledAggFilter::compile(&f, true).unwrap();
        let mut w = WitnessState::empty(&c);
        w.add_witness(&c, &entry_with_priorities(&[2, 3]));
        w.add_witness(&c, &entry_with_priorities(&[5]));
        assert_eq!(w.count, 2);
        assert_eq!(w.per_attr[0].get(Aggregate::Sum), Some(10.0));

        let mut buf = Vec::new();
        w.encode(&mut buf);
        assert_eq!(WitnessState::decode(&buf).unwrap(), w);

        let mut w2 = WitnessState::empty(&c);
        w2.add_witness(&c, &entry_with_priorities(&[1]));
        w2.merge(&w);
        assert_eq!(w2.count, 3);
        assert_eq!(w2.per_attr[0].get(Aggregate::Sum), Some(11.0));
    }

    #[test]
    fn annotated_record_roundtrip() {
        let c = CompiledAggFilter::exists_witness();
        let mut wit = WitnessState::empty(&c);
        wit.count = 3;
        let ann = Annotated {
            entry: entry_with_priorities(&[1]),
            wit,
        };
        let mut buf = Vec::new();
        ann.encode(&mut buf);
        assert_eq!(Annotated::decode(&buf).unwrap(), ann);
    }
}

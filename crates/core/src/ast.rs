//! Abstract syntax of the query languages L0–L3.
//!
//! One [`Query`] type covers the whole hierarchy; [`crate::lang`]
//! classifies a given tree into the least language containing it
//! (Theorem 8.1's strict chain `LDAP ⊂ L0 ⊂ L1 ⊂ L2 ⊂ L3`).
//!
//! Grammar sources: Figure 7 (L0: atomic + `&`,`|`,`-`), Figure 8
//! (L1: `p`,`c`,`a`,`d`,`ac`,`dc`), Figure 9 (L2: `g` and aggregate-
//! selection operands on the hierarchy operators), Figure 10
//! (L3: `vd`,`dv`).

use netdir_filter::atomic::IntOp;
use netdir_filter::{AtomicFilter, Scope};
use netdir_model::{AttrName, Dn};
use std::fmt;

/// The binary hierarchical-selection operators of L1 (Definition 5.1).
///
/// `(op Q1 Q2)` selects the entries of `Q1` that have at least one
/// *witness* in `Q2` standing in the named relation to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HierOp {
    /// `p` — witness is a parent of the selected entry.
    Parents,
    /// `c` — witness is a child of the selected entry.
    Children,
    /// `a` — witness is a (proper) ancestor.
    Ancestors,
    /// `d` — witness is a (proper) descendant.
    Descendants,
}

impl HierOp {
    /// Operator mnemonic as written in queries.
    pub fn symbol(self) -> &'static str {
        match self {
            HierOp::Parents => "p",
            HierOp::Children => "c",
            HierOp::Ancestors => "a",
            HierOp::Descendants => "d",
        }
    }
}

/// The ternary path-constrained operators of L1 (Definition 5.1).
///
/// `(op Q1 Q2 Q3)` is like the binary form but a witness is disqualified
/// if some `Q3` entry lies strictly between it and the selected entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HierPathOp {
    /// `ac` — closest unblocked ancestors.
    AncestorsConstrained,
    /// `dc` — closest unblocked descendants.
    DescendantsConstrained,
}

impl HierPathOp {
    /// Operator mnemonic as written in queries.
    pub fn symbol(self) -> &'static str {
        match self {
            HierPathOp::AncestorsConstrained => "ac",
            HierPathOp::DescendantsConstrained => "dc",
        }
    }
}

/// The embedded-reference operators of L3 (Definition 7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefOp {
    /// `vd` — select `Q1` entries whose attribute holds the DN of some
    /// `Q2` entry (the entry *points to* a witness).
    ValueDn,
    /// `dv` — select `Q1` entries whose DN appears in the attribute of
    /// some `Q2` entry (the entry *is pointed to* by a witness).
    DnValue,
}

impl RefOp {
    /// Operator mnemonic as written in queries.
    pub fn symbol(self) -> &'static str {
        match self {
            RefOp::ValueDn => "vd",
            RefOp::DnValue => "dv",
        }
    }
}

/// The aggregate functions (Figure 9's `Aggregate`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Aggregate {
    /// `min`
    Min,
    /// `max`
    Max,
    /// `count`
    Count,
    /// `sum`
    Sum,
    /// `average` — algebraic, computed as (sum, count).
    Average,
}

impl fmt::Display for Aggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Aggregate::Min => "min",
            Aggregate::Max => "max",
            Aggregate::Count => "count",
            Aggregate::Sum => "sum",
            Aggregate::Average => "average",
        })
    }
}

/// Which entry an aggregated attribute comes from (Figure 9's
/// `ModAttrName`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AttrRef {
    /// Bare `a` — the entry's own values (simple aggregate selection).
    Own(AttrName),
    /// `$1.a` — the `Q1` entry's own values (structural form; same values
    /// as `Own`, kept distinct for faithful round-tripping).
    Of1(AttrName),
    /// `$2.a` — the values of the entry's witnesses in `Q2`.
    Of2(AttrName),
}

impl AttrRef {
    /// The referenced attribute name.
    pub fn attr(&self) -> &AttrName {
        match self {
            AttrRef::Own(a) | AttrRef::Of1(a) | AttrRef::Of2(a) => a,
        }
    }

    /// True iff this refers to witness attributes (`$2.a`).
    pub fn is_witness(&self) -> bool {
        matches!(self, AttrRef::Of2(_))
    }
}

impl fmt::Display for AttrRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrRef::Own(a) => write!(f, "{a}"),
            AttrRef::Of1(a) => write!(f, "$1.{a}"),
            AttrRef::Of2(a) => write!(f, "$2.{a}"),
        }
    }
}

/// A per-entry aggregate (`EntryAggAttr` in Figure 9; Definitions 6.1/6.2).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum EntryAgg {
    /// `agg(a)` / `agg($1.a)` / `agg($2.a)` — aggregate over the multiset
    /// of values (of the entry, or of its witness set).
    Agg(Aggregate, AttrRef),
    /// `count($2)` — the size of the entry's witness set.
    CountWitnesses,
}

impl fmt::Display for EntryAgg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EntryAgg::Agg(agg, r) => write!(f, "{agg}({r})"),
            EntryAgg::CountWitnesses => write!(f, "count($2)"),
        }
    }
}

/// One side of an aggregate-selection comparison (`AggAttribute`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AggAttribute {
    /// An integer constant.
    Const(i64),
    /// A per-entry aggregate, evaluated on the candidate entry.
    Entry(EntryAgg),
    /// `agg1(ea)` — an entry-set aggregate: `ea` evaluated on every `Q1`
    /// entry, then aggregated across the whole set.
    EntrySet(Aggregate, Box<EntryAgg>),
    /// `count($$)` — the number of entries in the (simple) result set.
    CountAll,
    /// `count($1)` — the number of `Q1` entries (structural form; same
    /// value as `CountAll`).
    CountR1,
}

impl fmt::Display for AggAttribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggAttribute::Const(c) => write!(f, "{c}"),
            AggAttribute::Entry(ea) => write!(f, "{ea}"),
            AggAttribute::EntrySet(agg, ea) => write!(f, "{agg}({ea})"),
            AggAttribute::CountAll => write!(f, "count($$)"),
            AggAttribute::CountR1 => write!(f, "count($1)"),
        }
    }
}

/// An aggregate selection filter: `AggAttribute IntOp AggAttribute`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggSelFilter {
    /// Left side.
    pub lhs: AggAttribute,
    /// Comparison operator.
    pub op: IntOp,
    /// Right side.
    pub rhs: AggAttribute,
}

impl AggSelFilter {
    /// The ubiquitous `count($2) > 0` — the filter under which the L2
    /// structural operators degenerate to the plain L1 operators
    /// (Section 6.2's closing remark).
    pub fn exists_witness() -> AggSelFilter {
        AggSelFilter {
            lhs: AggAttribute::Entry(EntryAgg::CountWitnesses),
            op: IntOp::Gt,
            rhs: AggAttribute::Const(0),
        }
    }

    /// True iff this filter is exactly `count($2) > 0`.
    pub fn is_exists_witness(&self) -> bool {
        *self == AggSelFilter::exists_witness()
    }
}

impl fmt::Display for AggSelFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op, self.rhs)
    }
}

/// A query in (at most) L3.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Query {
    /// `(base ? scope ? filter)` (Definition 4.1).
    Atomic {
        /// Entry relative to which the filter is evaluated.
        base: Dn,
        /// Search scope.
        scope: Scope,
        /// Atomic filter.
        filter: AtomicFilter,
    },
    /// `(& Q1 Q2)` — set intersection.
    And(Box<Query>, Box<Query>),
    /// `(| Q1 Q2)` — set union.
    Or(Box<Query>, Box<Query>),
    /// `(- Q1 Q2)` — set difference.
    Diff(Box<Query>, Box<Query>),
    /// `(op Q1 Q2 [AggSelFilter])` — binary hierarchical selection,
    /// optionally with a structural aggregate-selection filter (L2).
    Hier {
        /// Which relation the witness must stand in.
        op: HierOp,
        /// Candidates.
        q1: Box<Query>,
        /// Witnesses.
        q2: Box<Query>,
        /// Optional structural aggregate selection; `None` means
        /// `count($2) > 0` (plain L1 semantics).
        agg: Option<AggSelFilter>,
    },
    /// `(op Q1 Q2 Q3 [AggSelFilter])` — path-constrained hierarchical
    /// selection.
    HierPath {
        /// `ac` or `dc`.
        op: HierPathOp,
        /// Candidates.
        q1: Box<Query>,
        /// Witnesses.
        q2: Box<Query>,
        /// Blockers: disqualify witnesses with a `Q3` entry strictly
        /// between.
        q3: Box<Query>,
        /// Optional structural aggregate selection.
        agg: Option<AggSelFilter>,
    },
    /// `(g Q AggSelFilter)` — simple aggregate selection (Definition 6.1).
    AggSelect {
        /// The selected-from query.
        query: Box<Query>,
        /// The filter every retained entry must pass.
        filter: AggSelFilter,
    },
    /// `(vd Q1 Q2 attr [AggSelFilter])` / `(dv …)` — embedded-reference
    /// selection (Definition 7.1).
    EmbedRef {
        /// `vd` or `dv`.
        op: RefOp,
        /// Candidates.
        q1: Box<Query>,
        /// Witnesses.
        q2: Box<Query>,
        /// The DN-valued attribute carrying the references.
        attr: AttrName,
        /// Optional aggregate selection over the witness relationship.
        agg: Option<AggSelFilter>,
    },
}

impl Query {
    /// Convenience constructor for atomic queries.
    pub fn atomic(base: Dn, scope: Scope, filter: AtomicFilter) -> Query {
        Query::Atomic {
            base,
            scope,
            filter,
        }
    }

    /// `(& a b)`.
    pub fn and(a: Query, b: Query) -> Query {
        Query::And(Box::new(a), Box::new(b))
    }

    /// `(| a b)`.
    pub fn or(a: Query, b: Query) -> Query {
        Query::Or(Box::new(a), Box::new(b))
    }

    /// `(- a b)`.
    pub fn diff(a: Query, b: Query) -> Query {
        Query::Diff(Box::new(a), Box::new(b))
    }

    /// `(op q1 q2)` without aggregate selection.
    pub fn hier(op: HierOp, q1: Query, q2: Query) -> Query {
        Query::Hier {
            op,
            q1: Box::new(q1),
            q2: Box::new(q2),
            agg: None,
        }
    }

    /// `(op q1 q2 agg-filter)`.
    pub fn hier_agg(op: HierOp, q1: Query, q2: Query, agg: AggSelFilter) -> Query {
        Query::Hier {
            op,
            q1: Box::new(q1),
            q2: Box::new(q2),
            agg: Some(agg),
        }
    }

    /// `(op q1 q2 q3)` without aggregate selection.
    pub fn hier_path(op: HierPathOp, q1: Query, q2: Query, q3: Query) -> Query {
        Query::HierPath {
            op,
            q1: Box::new(q1),
            q2: Box::new(q2),
            q3: Box::new(q3),
            agg: None,
        }
    }

    /// `(g q filter)`.
    pub fn agg_select(q: Query, filter: AggSelFilter) -> Query {
        Query::AggSelect {
            query: Box::new(q),
            filter,
        }
    }

    /// `(vd/dv q1 q2 attr)` without aggregate selection.
    pub fn embed_ref(op: RefOp, q1: Query, q2: Query, attr: impl Into<AttrName>) -> Query {
        Query::EmbedRef {
            op,
            q1: Box::new(q1),
            q2: Box::new(q2),
            attr: attr.into(),
            agg: None,
        }
    }

    /// Number of nodes in the query tree — the `|Q|` of Theorems 8.3/8.4.
    pub fn num_nodes(&self) -> usize {
        1 + self
            .children()
            .into_iter()
            .map(Query::num_nodes)
            .sum::<usize>()
    }

    /// The node's direct sub-queries, in operand order.
    pub fn children(&self) -> Vec<&Query> {
        match self {
            Query::Atomic { .. } => Vec::new(),
            Query::And(a, b) | Query::Or(a, b) | Query::Diff(a, b) => vec![a, b],
            Query::Hier { q1, q2, .. } => vec![q1, q2],
            Query::HierPath { q1, q2, q3, .. } => vec![q1, q2, q3],
            Query::AggSelect { query, .. } => vec![query],
            Query::EmbedRef { q1, q2, .. } => vec![q1, q2],
        }
    }

    /// The atomic sub-queries, left to right.
    pub fn atomic_subqueries(&self) -> Vec<&Query> {
        let mut out = Vec::new();
        self.collect_atomics(&mut out);
        out
    }

    fn collect_atomics<'a>(&'a self, out: &mut Vec<&'a Query>) {
        match self {
            Query::Atomic { .. } => out.push(self),
            _ => self
                .children()
                .into_iter()
                .for_each(|c| c.collect_atomics(out)),
        }
    }
}

impl fmt::Display for Query {
    /// The paper's s-expression syntax; [`crate::parser::parse_query`]
    /// accepts everything this prints.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::Atomic {
                base,
                scope,
                filter,
            } => write!(f, "({base} ? {scope} ? {filter})"),
            Query::And(a, b) => write!(f, "(& {a} {b})"),
            Query::Or(a, b) => write!(f, "(| {a} {b})"),
            Query::Diff(a, b) => write!(f, "(- {a} {b})"),
            Query::Hier { op, q1, q2, agg } => match agg {
                None => write!(f, "({} {q1} {q2})", op.symbol()),
                Some(a) => write!(f, "({} {q1} {q2} {a})", op.symbol()),
            },
            Query::HierPath {
                op,
                q1,
                q2,
                q3,
                agg,
            } => match agg {
                None => write!(f, "({} {q1} {q2} {q3})", op.symbol()),
                Some(a) => write!(f, "({} {q1} {q2} {q3} {a})", op.symbol()),
            },
            Query::AggSelect { query, filter } => write!(f, "(g {query} {filter})"),
            Query::EmbedRef {
                op,
                q1,
                q2,
                attr,
                agg,
            } => match agg {
                None => write!(f, "({} {q1} {q2} {attr})", op.symbol()),
                Some(a) => write!(f, "({} {q1} {q2} {attr} {a})", op.symbol()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom(s: &str) -> Query {
        Query::atomic(
            Dn::parse("dc=att, dc=com").unwrap(),
            Scope::Sub,
            AtomicFilter::eq("surName", s),
        )
    }

    #[test]
    fn num_nodes_counts_operators_and_atoms() {
        let q = Query::diff(atom("a"), atom("b"));
        assert_eq!(q.num_nodes(), 3);
        let q = Query::hier(HierOp::Children, q.clone(), atom("c"));
        assert_eq!(q.num_nodes(), 5);
        let q = Query::hier_path(
            HierPathOp::DescendantsConstrained,
            atom("x"),
            atom("y"),
            atom("z"),
        );
        assert_eq!(q.num_nodes(), 4);
    }

    #[test]
    fn atomic_subqueries_in_order() {
        let q = Query::hier(HierOp::Parents, atom("a"), Query::and(atom("b"), atom("c")));
        let atoms = q.atomic_subqueries();
        assert_eq!(atoms.len(), 3);
    }

    #[test]
    fn display_matches_paper_shape() {
        let q = Query::diff(atom("jagadish"), atom("jagadish"));
        assert_eq!(
            q.to_string(),
            "(- (dc=att, dc=com ? sub ? surName=jagadish) \
             (dc=att, dc=com ? sub ? surName=jagadish))"
        );
        let f = AggSelFilter {
            lhs: AggAttribute::Entry(EntryAgg::CountWitnesses),
            op: IntOp::Gt,
            rhs: AggAttribute::Const(10),
        };
        let q = Query::hier_agg(HierOp::Children, atom("a"), atom("b"), f);
        assert!(q.to_string().ends_with("count($2) > 10)"));
    }

    #[test]
    fn agg_filter_display() {
        let f = AggSelFilter {
            lhs: AggAttribute::Entry(EntryAgg::Agg(
                Aggregate::Min,
                AttrRef::Own("SLARulePriority".into()),
            )),
            op: IntOp::Eq,
            rhs: AggAttribute::EntrySet(
                Aggregate::Min,
                Box::new(EntryAgg::Agg(
                    Aggregate::Min,
                    AttrRef::Own("SLARulePriority".into()),
                )),
            ),
        };
        assert_eq!(
            f.to_string(),
            "min(SLARulePriority) = min(min(SLARulePriority))"
        );
    }

    #[test]
    fn exists_witness_roundtrip() {
        let f = AggSelFilter::exists_witness();
        assert!(f.is_exists_witness());
        assert_eq!(f.to_string(), "count($2) > 0");
    }
}

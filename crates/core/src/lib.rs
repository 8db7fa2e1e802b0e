//! # netdir-query — the query languages of *Querying Network Directories*
//!
//! The paper's primary contribution, implemented in full:
//!
//! | Module | Paper anchor |
//! |---|---|
//! | [`ast`] | the grammars of Figures 7–10 (L0–L3) |
//! | [`parser`] | the s-expression syntax used throughout the examples |
//! | [`lang`] | Theorem 8.1's hierarchy `LDAP ⊂ L0 ⊂ L1 ⊂ L2 ⊂ L3` |
//! | [`boolean`] | §4.2 sorted-list merges (Jacobson et al. style) |
//! | [`hs_stack`] | Figures 2/4/5 stack algorithms + Figure 6 aggregates |
//! | [`agg`] | §6's aggregate machinery (distributive/algebraic) |
//! | [`agg_simple`] | §6.3's two-scan `g` evaluation (Theorem 6.1) |
//! | [`er_join`] | Figure 3's `ComputeERAggDV`/`VD` (Theorem 7.1) |
//! | [`eval`] | §8.2's bottom-up pipelined evaluator (Theorems 8.3/8.4) |
//! | [`cost`] | the I/O cost formulas of Theorems 8.3/8.4 |
//! | [`rewrite`] | Theorem 8.2(d)'s `ac`/`dc` rewrites and their cost |
//! | [`planner`] | cost-based plan choice over §8's formulas, fed by observed I/O |
//! | [`naive`] | quadratic reference oracles/baselines (§5.3's strawman) |
//!
//! Quick start:
//!
//! ```
//! use netdir_model::{Directory, Dn, Entry};
//! use netdir_index::IndexedDirectory;
//! use netdir_query::eval::run_query;
//!
//! let mut dir = Directory::new();
//! for s in ["dc=com", "dc=att, dc=com"] {
//!     dir.insert(Entry::builder(Dn::parse(s).unwrap())
//!         .class("dcObject").build().unwrap()).unwrap();
//! }
//! let pager = netdir_pager::default_pager();
//! let idx = IndexedDirectory::build(&pager, &dir).unwrap();
//! let hits = run_query(&idx, &pager,
//!     "(c (dc=com ? base ? objectClass=*) (dc=com ? sub ? dc=att))").unwrap();
//! assert_eq!(hits.len(), 1); // dc=com has the child dc=att
//! ```

pub mod agg;
pub mod agg_simple;
pub mod ast;
pub mod boolean;
pub mod cost;
pub mod er_join;
pub mod error;
pub mod eval;
pub mod explain;
pub mod hs_stack;
pub mod lang;
pub mod naive;
pub mod parser;
pub mod planner;
pub mod rewrite;

pub use ast::{
    AggAttribute, AggSelFilter, Aggregate, AttrRef, EntryAgg, HierOp, HierPathOp, Query, RefOp,
};
pub use error::{QueryError, QueryResult};
pub use eval::{run_query, AtomicSource, Evaluator, NodeTrace};
pub use cost::{predicted_io, predicted_node_io, CostInputs};
pub use explain::{analyze, build_trace, explain, explain_traced};
pub use lang::{classify, Language};
pub use parser::{parse_agg_filter, parse_query};
pub use planner::{
    query_shape, ObservingSource, PlanCache, PlannedQuery, Planner, PlannerSnapshot, StatsCatalog,
    Step,
};

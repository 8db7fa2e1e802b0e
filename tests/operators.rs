//! The operator core and the query syntax of `netdir-query`, run from
//! the root suite at their own case counts.
//!
//! `crates/core/tests/oracle_prop.rs`: six properties check every
//! external-memory operator (hierarchy, aggregate, boolean and
//! embedded-reference selections) element for element against the
//! naive quadratic oracles, over paged lists, in-memory runs and the two
//! mixed, with every intermediate spilled, some spilled, and none.
//!
//! `crates/core/tests/parser_prop.rs`: display → parse is the identity
//! on random L0–L3 trees, and memoized evaluation answers like plain
//! evaluation.

#[path = "../crates/core/tests/oracle_prop.rs"]
mod oracle_prop;

#[path = "../crates/core/tests/parser_prop.rs"]
mod parser_prop;

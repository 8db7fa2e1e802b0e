//! The operator core of `netdir-query`: `crates/core/tests/oracle_prop.rs`
//! run from the root suite at its own case counts. Its six properties
//! check every external-memory operator (hierarchy, aggregate, boolean
//! and embedded-reference selections) element for element against the
//! naive quadratic oracles, over paged lists, in-memory runs and the
//! two mixed, with every intermediate spilled, some spilled, and none.

#[path = "../crates/core/tests/oracle_prop.rs"]
mod oracle_prop;

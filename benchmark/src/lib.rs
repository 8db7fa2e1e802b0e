//! The netdird benchmark: seeded fixed-count workloads driven over TCP
//! against a real daemon, every answer checked against a naive oracle,
//! and a traced in-process replay for per-layer numbers. See README.md.

pub mod daemon;
pub mod gen;
pub mod metrics;
pub mod oracle;
pub mod run;
pub mod stats;
pub mod trace;

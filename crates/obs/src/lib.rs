//! # netdir-obs — the instrument panel
//!
//! Every theorem in the paper is a statement about measurable quantities
//! (page transfers, scan counts, shipped bytes), and every optimization
//! PR after this one needs a number to move. This crate is the shared
//! measurement substrate the rest of the workspace records into:
//!
//! * [`metrics`] — a lightweight [`MetricsRegistry`]: named counters,
//!   gauges, and fixed log-scale-bucket histograms behind cheap cloneable
//!   handles, with Prometheus-style text exposition. The scattered
//!   ad-hoc stat types (`IoStats`, `NetStats`, `RetryStats`,
//!   `FaultStats`, breaker transitions) all surface here under the
//!   stable names of [`names`].
//! * [`clock`] — an injectable [`Clock`]: monotonic in production,
//!   manually advanced in tests, so time-coupled logic (circuit-breaker
//!   cooldowns) is testable without `thread::sleep`.
//! * [`trace`] — per-query observability: one [`OperatorSpan`] per query
//!   operator (elapsed time, pages, entries in/out,
//!   predicted-vs-observed I/O) collected into a [`QueryTrace`] — the
//!   structured form behind `EXPLAIN ANALYZE`.
//! * [`names`] — the single source of truth for metric names. The
//!   default gate fails if a tracked name disappears from a daemon's
//!   `Stats` exposition, so dashboards never silently lose a series.
//!
//! The crate is a leaf: it depends only on the `parking_lot` compat shim
//! and std, so every layer (pager, core, server, wire, bench) can record
//! into it without dependency cycles.

pub mod clock;
pub mod metrics;
pub mod names;
pub mod trace;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry};
pub use trace::{OperatorSpan, QueryTrace, TimeDisplay};

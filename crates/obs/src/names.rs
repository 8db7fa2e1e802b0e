//! Stable metric names — the single source of truth.
//!
//! Dashboards and the rename gate (ndlint's metric-name rule and the
//! wire loopback test that scrapes every [`TRACKED`] name from a live
//! daemon) all key on these strings. Renaming one
//! silently breaks every historical comparison, so: add names freely,
//! never repurpose or delete one without updating [`TRACKED`] *and*
//! the documented migration note in EXPERIMENTS.md.

/// Pager reads (pages fetched from backing store). From `IoStats`.
pub const IO_READS: &str = "netdir_io_reads_total";
/// Pager writes (pages flushed). From `IoStats`.
pub const IO_WRITES: &str = "netdir_io_writes_total";
/// Pages allocated. From `IoStats`.
pub const IO_ALLOCS: &str = "netdir_io_allocs_total";

/// Buffer-pool fetches served from a resident frame. From
/// `PoolMetricsSnapshot`.
pub const POOL_HITS: &str = "netdir_pool_hits_total";
/// Buffer-pool fetches that admitted a new frame. From
/// `PoolMetricsSnapshot`.
pub const POOL_MISSES: &str = "netdir_pool_misses_total";
/// Frames evicted to make room. From `PoolMetricsSnapshot`.
pub const POOL_EVICTIONS: &str = "netdir_pool_evictions_total";
/// Misses re-admitted straight to the protected queue off the ghost
/// list. From `PoolMetricsSnapshot`.
pub const POOL_GHOST_READMISSIONS: &str = "netdir_pool_ghost_readmissions_total";
/// Bytes the v2 (prefix-compressed) page format saved versus v1. From
/// `PoolMetricsSnapshot`.
pub const POOL_COMPRESSED_BYTES_SAVED: &str = "netdir_pool_compressed_bytes_saved_total";

/// Remote sub-queries issued. From `NetStats`.
pub const NET_REQUESTS: &str = "netdir_net_requests_total";
/// Remote responses received. From `NetStats`.
pub const NET_RESPONSES: &str = "netdir_net_responses_total";
/// Entries shipped between servers. From `NetStats`.
pub const NET_ENTRIES_SHIPPED: &str = "netdir_net_entries_shipped_total";
/// Bytes shipped between servers (framed). From `NetStats`.
pub const NET_BYTES_SHIPPED: &str = "netdir_net_bytes_shipped_total";

/// Zone fetches attempted (first tries and retries). From `RetryStats`.
pub const RETRY_ATTEMPTS: &str = "netdir_retry_attempts_total";
/// Fetches that were retries of a failed attempt. From `RetryStats`.
pub const RETRY_RETRIES: &str = "netdir_retry_retries_total";
/// Fetches abandoned after exhausting the retry budget. From `RetryStats`.
pub const RETRY_GAVE_UP: &str = "netdir_retry_gave_up_total";

/// Calls through the fault-injecting transport. From `FaultStats`.
pub const FAULT_CALLS: &str = "netdir_fault_calls_total";
/// Injected drops. From `FaultStats`.
pub const FAULT_DROPPED: &str = "netdir_fault_dropped_total";
/// Injected errors. From `FaultStats`.
pub const FAULT_ERRORED: &str = "netdir_fault_errored_total";
/// Injected delays. From `FaultStats`.
pub const FAULT_DELAYED: &str = "netdir_fault_delayed_total";
/// Injected truncations. From `FaultStats`.
pub const FAULT_TRUNCATED: &str = "netdir_fault_truncated_total";
/// Calls refused as unreachable. From `FaultStats`.
pub const FAULT_UNREACHABLE: &str = "netdir_fault_unreachable_total";

/// Circuit breakers tripped Closed→Open.
pub const BREAKER_OPENED: &str = "netdir_breaker_opened_total";
/// Breakers that admitted a probe, Open→HalfOpen.
pub const BREAKER_HALF_OPENED: &str = "netdir_breaker_half_opened_total";
/// Breakers that recovered, HalfOpen→Closed.
pub const BREAKER_CLOSED: &str = "netdir_breaker_closed_total";

/// WAL durability barriers (one per committed batch). From `JournalStats`.
pub const WAL_FSYNCS: &str = "netdir_wal_fsyncs_total";
/// Pages written through the WAL's disk. From `JournalStats`.
pub const WAL_PAGE_WRITES: &str = "netdir_wal_page_writes_total";
/// WAL replay latency on reopen, microseconds, histogram. From
/// `RecoveryReport`.
pub const WAL_REPLAY_US: &str = "netdir_wal_replay_us";
/// Mutation batches durably applied. From `JournalStats`.
pub const MUTATION_BATCHES: &str = "netdir_mutation_batches_total";
/// Individual mutations applied. From `JournalStats`.
pub const MUTATIONS_APPLIED: &str = "netdir_mutations_applied_total";
/// Delta records over the serving generation's zone bases, summed over
/// zones, gauge. From `Cluster::delta_entries`.
pub const DELTA_ENTRIES: &str = "netdir_delta_entries";
/// Publishes that rebuilt the generation from the directory because a
/// zone's delta outgrew its base. From `Cluster::compactions`.
pub const COMPACTIONS: &str = "netdir_compactions_total";
/// Candidate positions the zone bases' atomic evaluations examined,
/// summed over built bases. From `IndexedDirectory::cost`.
pub const INDEX_EXAMINED: &str = "netdir_index_examined_total";
/// Postings read off indices a probe had to materialize (integer
/// B+-tree leaves, suffix intervals), summed over built bases. From
/// `IndexedDirectory::cost`.
pub const INDEX_POSTINGS: &str = "netdir_index_postings_total";
/// Records decoded to verify a candidate, summed over built bases. From
/// `IndexedDirectory::cost`.
pub const INDEX_DECODED: &str = "netdir_index_decoded_total";

/// Requests admitted past the policy layer. From `AdmissionSnapshot`.
pub const ADMISSION_ADMITTED: &str = "netdir_admission_admitted_total";
/// Requests shed with a `Busy` frame, all causes (queue full, inflight
/// cap, rate limit, enumeration cap). From `AdmissionSnapshot`.
pub const BUSY_REJECTIONS: &str = "netdir_busy_rejections_total";
/// `Busy` rejections caused by a per-peer token bucket running dry.
/// From `AdmissionSnapshot`.
pub const ADMISSION_RATE_LIMITED: &str = "netdir_admission_rate_limited_total";
/// `Busy` rejections caused by the anti-enumeration results cap.
/// From `AdmissionSnapshot`.
pub const ADMISSION_ENUM_CAPPED: &str = "netdir_admission_enum_capped_total";
/// Requests currently admitted and executing, gauge. From
/// `AdmissionSnapshot`.
pub const ADMISSION_INFLIGHT: &str = "netdir_admission_inflight";
/// Accepted connections waiting for a worker, gauge.
pub const ADMISSION_QUEUE_DEPTH: &str = "netdir_admission_queue_depth";
/// Requests whose execution deadline expired before the evaluator
/// finished. From `AdmissionSnapshot`.
pub const DEADLINE_EXCEEDED: &str = "netdir_deadline_exceeded_total";
/// Evaluator threads still running after their deadline fired (the
/// worker was released; the runaway finishes in the background), gauge.
pub const DEADLINE_ABANDONED: &str = "netdir_deadline_abandoned";
/// Execution time of requests that ran under a deadline and finished in
/// budget, microseconds, histogram.
pub const DEADLINE_USED_US: &str = "netdir_deadline_used_us";

/// Queries evaluated end to end.
pub const QUERIES: &str = "netdir_queries_total";
/// End-to-end query latency histogram, microseconds.
pub const QUERY_DURATION_US: &str = "netdir_query_duration_us";
/// Pages read per query, histogram.
pub const QUERY_PAGES: &str = "netdir_query_pages";

/// Every name the rename gate protects.
///
/// A daemon's `Stats` exposition must contain each of these (histograms
/// appear via their `_count`/`_sum` series, which embed the base name).
pub const TRACKED: &[&str] = &[
    IO_READS,
    IO_WRITES,
    IO_ALLOCS,
    POOL_HITS,
    POOL_MISSES,
    POOL_EVICTIONS,
    POOL_GHOST_READMISSIONS,
    POOL_COMPRESSED_BYTES_SAVED,
    NET_REQUESTS,
    NET_RESPONSES,
    NET_ENTRIES_SHIPPED,
    NET_BYTES_SHIPPED,
    RETRY_ATTEMPTS,
    RETRY_RETRIES,
    RETRY_GAVE_UP,
    FAULT_CALLS,
    FAULT_DROPPED,
    FAULT_ERRORED,
    FAULT_DELAYED,
    FAULT_TRUNCATED,
    FAULT_UNREACHABLE,
    BREAKER_OPENED,
    BREAKER_HALF_OPENED,
    BREAKER_CLOSED,
    WAL_FSYNCS,
    WAL_PAGE_WRITES,
    WAL_REPLAY_US,
    MUTATION_BATCHES,
    MUTATIONS_APPLIED,
    DELTA_ENTRIES,
    COMPACTIONS,
    INDEX_EXAMINED,
    INDEX_POSTINGS,
    INDEX_DECODED,
    ADMISSION_ADMITTED,
    BUSY_REJECTIONS,
    ADMISSION_RATE_LIMITED,
    ADMISSION_ENUM_CAPPED,
    ADMISSION_INFLIGHT,
    ADMISSION_QUEUE_DEPTH,
    DEADLINE_EXCEEDED,
    DEADLINE_ABANDONED,
    DEADLINE_USED_US,
    QUERIES,
    QUERY_DURATION_US,
    QUERY_PAGES,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracked_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for name in TRACKED {
            assert!(seen.insert(name), "duplicate tracked name: {name}");
            assert!(
                name.starts_with("netdir_"),
                "tracked name missing netdir_ prefix: {name}"
            );
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c == '_' || c.is_ascii_digit()),
                "tracked name not snake_case: {name}"
            );
        }
    }
}

//! The closed-loop overload sweep (`run_experiments --smoke` `load`
//! section, and `scripts/check.sh --load-smoke`).
//!
//! N concurrent clients hammer one TCP daemon over real sockets in
//! closed loop (each client issues its next request the moment the
//! previous one resolves), with N swept past the daemon's capacity.
//! Each sweep runs twice over identical seeded data:
//!
//! * **unbounded** — the pre-admission daemon: every connection queues,
//!   nothing is shed, latency grows with the queue.
//! * **admission** — bounded accept queue + inflight cap + execution
//!   deadline: excess offered load converts to fast `Busy` rejections
//!   while *accepted* requests keep a bounded p99.
//!
//! Every request rides its own connection (the server is
//! thread-per-connection, so a held connection would pin a worker and
//! measure the client, not the daemon) and the client retry policy is
//! [`RetryPolicy::none`], so each `Busy` is counted as one shed request
//! instead of silently disappearing into retries; the client then
//! sleeps the server's `retry_after` hint before its next attempt,
//! which is what a real client's backoff does.

use crate::report::BenchReport;
use netdir_filter::{parse_atomic, Scope};
use netdir_model::Dn;
use netdir_obs::{MetricsRegistry, MonotonicClock};
use netdir_server::{AdmissionConfig, AdmissionController, ClusterBuilder, RetryPolicy};
use netdir_wire::{ClientOptions, ServerOptions, WireClient, WireCluster, WireError};
use netdir_workloads::{synth_forest, SynthParams};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One measured (mode, clients) cell of the overload sweep.
#[derive(Debug, Clone)]
pub struct LoadRow {
    /// `"unbounded"` (no shedding) or `"admission"` (bounded queue +
    /// inflight cap + deadline).
    pub mode: String,
    /// Concurrent closed-loop clients.
    pub clients: u64,
    /// Requests offered (every attempt by every client).
    pub offered: u64,
    /// Requests accepted, executed, and answered.
    pub completed: u64,
    /// Requests shed with a `Busy` frame before execution.
    pub busy: u64,
    /// Requests that blew the server-side execution deadline.
    pub deadline: u64,
    /// Any other failure (should be zero; kept visible, not swallowed).
    pub errors: u64,
    /// Wall-clock seconds for this cell.
    pub wall_secs: f64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Median latency of *completed* requests, microseconds.
    pub p50_us: u64,
    /// 99th percentile of completed requests, microseconds.
    pub p99_us: u64,
    /// 99.9th percentile of completed requests, microseconds.
    pub p999_us: u64,
}

/// Knobs for one overload sweep.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Worker threads the daemon serves with.
    pub workers: usize,
    /// Accept-queue bound in admission mode (0 would mean unbounded).
    pub max_pending: usize,
    /// Inflight cap in admission mode.
    pub max_inflight: usize,
    /// Per-request execution deadline in admission mode.
    pub request_deadline: Duration,
    /// Client counts to sweep, in order; the largest should sit well
    /// past `workers` (the saturation point of a closed loop).
    pub client_sweep: Vec<usize>,
    /// Requests each client issues per cell.
    pub requests_per_client: usize,
    /// Seeded directory size.
    pub entries: usize,
}

/// The seconds-scale configuration behind `--smoke` and the unit test:
/// two workers, swept to 8× saturation. `requests_per_client` is sized
/// so the admission cells — where most offered load is shed — still
/// complete enough requests that p99 is a percentile, not the sample
/// maximum (a single cold-start outlier must not dominate the tail).
pub fn smoke_config() -> LoadConfig {
    LoadConfig {
        workers: 2,
        max_pending: 2,
        max_inflight: 2,
        request_deadline: Duration::from_secs(2),
        client_sweep: vec![1, 4, 16],
        requests_per_client: 60,
        entries: 600,
    }
}

/// The configuration recorded in `results/BENCH_full.json`.
pub fn full_config() -> LoadConfig {
    LoadConfig {
        workers: 2,
        max_pending: 2,
        max_inflight: 2,
        request_deadline: Duration::from_secs(2),
        client_sweep: vec![1, 2, 4, 8, 16, 32],
        requests_per_client: 80,
        entries: 1_200,
    }
}

/// The request every client issues: a whole-forest `sub` atomic scan,
/// answered by the daemon's own store thread. Atomic (not a full
/// `Query`) on purpose: a distributed query would ship its sub-queries
/// back to the same saturated daemon over new connections, so overload
/// would starve the query's *own* internal fetches — a self-deadlock
/// that measures the harness, not admission control.
const LOAD_FILTER: &str = "kind=red";

/// Tallies from one client thread.
#[derive(Default)]
struct ClientTally {
    latencies_us: Vec<u64>,
    busy: u64,
    deadline: u64,
    errors: u64,
    offered: u64,
}

fn percentile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    // Nearest-rank on the sorted sample.
    let rank = ((sorted_us.len() as f64) * q).ceil() as usize;
    sorted_us[rank.clamp(1, sorted_us.len()) - 1]
}

/// Run one (mode, clients) cell against `addr`-less fresh cluster built
/// from `opts`, returning its row.
fn run_cell(
    mode: &str,
    cfg: &LoadConfig,
    clients: usize,
    server_opts: ServerOptions,
    dir: &netdir_model::Directory,
) -> LoadRow {
    let client_opts = ClientOptions {
        timeout: Duration::from_secs(10),
        // One connection per request: the daemon is thread-per-
        // connection, so pooling would serialize the whole closed loop
        // onto `workers` sockets and hide the admission queue.
        pool_size: 0,
        retry: RetryPolicy::none(),
        ..ClientOptions::default()
    };
    let builder = ClusterBuilder::new().server("root", Dn::parse("dc=synth").unwrap());
    let mut cluster = WireCluster::launch(builder, dir, server_opts, client_opts.clone())
        .expect("launch load daemon");
    assert_eq!(cluster.cluster().orphaned(), 0, "load fixture must partition cleanly");
    let addr = cluster.addr(0);

    let started = Instant::now();
    let tallies: Vec<ClientTally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let client_opts = client_opts.clone();
                s.spawn(move || {
                    let client = WireClient::connect(addr, client_opts);
                    let base = Dn::parse("dc=synth").unwrap();
                    let filter = parse_atomic(LOAD_FILTER).unwrap();
                    let mut tally = ClientTally::default();
                    for _ in 0..cfg.requests_per_client {
                        tally.offered += 1;
                        let t0 = Instant::now();
                        match client.atomic_counted(&base, Scope::Sub, &filter) {
                            Ok((entries, _)) => {
                                assert!(!entries.is_empty(), "load query went empty");
                                let us = u64::try_from(t0.elapsed().as_micros())
                                    .unwrap_or(u64::MAX);
                                tally.latencies_us.push(us);
                            }
                            Err(WireError::Busy { retry_after_ms }) => {
                                tally.busy += 1;
                                // Honor the server's backoff hint (capped)
                                // before the next attempt — what a real
                                // client's RetryPolicy does. Without it a
                                // shed client spins reconnecting every
                                // ~1ms, and on small machines that busy
                                // loop preempts the daemon's own workers,
                                // polluting the accepted-latency tail
                                // with scheduler noise.
                                let pause = Duration::from_millis(
                                    u64::from(retry_after_ms).min(50),
                                );
                                std::thread::sleep(pause);
                            }
                            Err(WireError::DeadlineExceeded { .. }) => tally.deadline += 1,
                            Err(_) => tally.errors += 1,
                        }
                    }
                    tally
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load client")).collect()
    });
    let wall_secs = started.elapsed().as_secs_f64();
    cluster.shutdown();

    let mut latencies: Vec<u64> = Vec::new();
    let (mut offered, mut busy, mut deadline, mut errors) = (0, 0, 0, 0);
    for t in tallies {
        latencies.extend(t.latencies_us);
        offered += t.offered;
        busy += t.busy;
        deadline += t.deadline;
        errors += t.errors;
    }
    latencies.sort_unstable();
    let completed = latencies.len() as u64;
    LoadRow {
        mode: mode.to_string(),
        clients: clients as u64,
        offered,
        completed,
        busy,
        deadline,
        errors,
        wall_secs,
        throughput_rps: if wall_secs > 0.0 {
            completed as f64 / wall_secs
        } else {
            0.0
        },
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        p999_us: percentile(&latencies, 0.999),
    }
}

/// Run the whole sweep: for each client count, the unbounded baseline
/// then the admission-controlled daemon, over identical seeded data.
/// Admission/deadline accounting lands in `registry` (and therefore in
/// the report's `metrics` section).
pub fn overload_sweep(cfg: &LoadConfig, registry: &MetricsRegistry) -> Vec<LoadRow> {
    let dir = synth_forest(
        SynthParams {
            entries: cfg.entries,
            ..SynthParams::default()
        },
        0xC1_0AD, // fixed seed: both modes serve identical data
    );
    let mut rows = Vec::new();
    // Each finished cell goes straight to stderr: the sweep takes tens
    // of seconds, and when an invariant assertion fires the rows are
    // the diagnosis.
    fn note(row: &LoadRow) {
        eprintln!(
            "load: {:>9} clients={:<3} offered={:<5} completed={:<5} busy={:<5} \
             deadline={} errors={} p50={}us p99={}us",
            row.mode,
            row.clients,
            row.offered,
            row.completed,
            row.busy,
            row.deadline,
            row.errors,
            row.p50_us,
            row.p99_us
        );
    }
    for &clients in &cfg.client_sweep {
        let unbounded = ServerOptions {
            workers: cfg.workers,
            max_pending: 0,
            ..ServerOptions::default()
        };
        rows.push(run_cell("unbounded", cfg, clients, unbounded, &dir));
        note(rows.last().expect("just pushed"));

        let admission = Arc::new(AdmissionController::new(
            AdmissionConfig {
                max_inflight: cfg.max_inflight,
                // A generous hint keeps shed clients parked long enough
                // that their reconnects do not contend with the workers
                // draining accepted requests (single-core machines feel
                // this; the clients sleep exactly this long on `Busy`).
                retry_after: Duration::from_millis(20),
                ..AdmissionConfig::default()
            },
            Arc::new(MonotonicClock::new()),
            registry,
        ));
        let bounded = ServerOptions {
            workers: cfg.workers,
            max_pending: cfg.max_pending,
            request_deadline: Some(cfg.request_deadline),
            admission: Some(admission),
            ..ServerOptions::default()
        };
        rows.push(run_cell("admission", cfg, clients, bounded, &dir));
        note(rows.last().expect("just pushed"));
    }
    rows
}

/// The invariants a healthy sweep must show, asserted so a regression
/// fails the bench instead of quietly emitting sick numbers:
/// conservation (every offered request is accounted), shedding under
/// overload, and a bounded accepted-request p99 while the unbounded
/// baseline's queue delay grows.
pub fn assert_sweep_shape(rows: &[LoadRow]) {
    for row in rows {
        assert_eq!(
            row.offered,
            row.completed + row.busy + row.deadline + row.errors,
            "lost requests in {} @ {} clients",
            row.mode,
            row.clients
        );
        assert_eq!(row.errors, 0, "unexpected errors in {} @ {}", row.mode, row.clients);
        assert!(row.completed > 0, "nothing completed in {} @ {}", row.mode, row.clients);
    }
    let max_clients = rows.iter().map(|r| r.clients).max().unwrap_or(0);
    let at = |mode: &str| {
        rows.iter()
            .find(|r| r.mode == mode && r.clients == max_clients)
            .unwrap_or_else(|| panic!("missing {mode} row at {max_clients} clients"))
    };
    let (unbounded, admission) = (at("unbounded"), at("admission"));
    assert!(
        admission.busy > 0,
        "no shedding at {}x saturation — admission control is not engaging",
        max_clients
    );
    assert!(
        admission.p99_us * 2 <= unbounded.p99_us,
        "admission p99 ({}us) is not bounded vs unbounded p99 ({}us) at {} clients",
        admission.p99_us,
        unbounded.p99_us,
        max_clients
    );
}

/// Attach a sweep to `report` (helper shared by smoke and full runs).
pub fn attach(report: &mut BenchReport, rows: Vec<LoadRow>) {
    report.load = rows;
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdir_server::metrics::register_all;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 0.999), 100);
        assert_eq!(percentile(&[], 0.99), 0);
        assert_eq!(percentile(&[7], 0.5), 7);
    }

    #[test]
    fn overload_sweep_sheds_and_keeps_accepted_p99_bounded() {
        let registry = MetricsRegistry::default();
        register_all(&registry);
        let rows = overload_sweep(&smoke_config(), &registry);
        assert_eq!(rows.len(), 2 * smoke_config().client_sweep.len());
        assert_sweep_shape(&rows);
        // The controller recorded its decisions into the registry.
        let flat = registry.flatten();
        let get = |name: &str| {
            flat.iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("metric {name} missing"))
        };
        assert!(get(netdir_obs::names::ADMISSION_ADMITTED) > 0);
        assert!(get(netdir_obs::names::BUSY_REJECTIONS) > 0);
    }
}

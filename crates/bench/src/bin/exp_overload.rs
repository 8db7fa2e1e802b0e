//! Overload: admission control vs an unbounded accept queue, over real
//! sockets.
//!
//! ```sh
//! cargo run --release -p netdir-bench --bin exp_overload
//! ```
//!
//! N concurrent clients hammer one TCP daemon in closed loop (each
//! client issues its next request the moment the previous one
//! resolves), with N swept past the daemon's two workers. Each client
//! count runs twice over identical seeded data:
//!
//! * **unbounded** — every connection queues, nothing is shed, latency
//!   grows with the queue;
//! * **admission** — bounded accept queue + inflight cap + execution
//!   deadline: excess offered load converts to fast `Busy` rejections
//!   while *accepted* requests keep a short queue ahead of them.
//!
//! Every request rides its own connection (the server is
//! thread-per-connection, so a held connection would pin a worker and
//! measure the client, not the daemon) and the client retry policy is
//! [`RetryPolicy::none`], so each `Busy` is counted as one shed request
//! instead of silently disappearing into retries; the client then
//! sleeps the server's `retry_after` hint before its next attempt,
//! which is what a real client's backoff does.
//!
//! The table is a report, not a gate: its latencies are wall-clock and
//! move with the machine's load. The only assertions are that every
//! offered request is accounted for and none failed. The bound on what
//! an accepted request waits behind is pinned by counting, in
//! `netdir-wire`'s `accepted_requests_wait_behind_at_most_workers_plus_queue`.

use netdir_bench::{cells, table};
use netdir_filter::{parse_atomic, Scope};
use netdir_model::{Directory, Dn};
use netdir_obs::{MetricsRegistry, MonotonicClock};
use netdir_server::{AdmissionConfig, AdmissionController, ClusterBuilder, RetryPolicy};
use netdir_wire::{ClientOptions, ServerOptions, WireClient, WireCluster, WireError};
use netdir_workloads::{synth_forest, SynthParams};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker threads the daemon serves with.
const WORKERS: usize = 2;
/// Accept-queue bound in admission mode.
const MAX_PENDING: usize = 2;
/// Requests executing at once in admission mode.
const MAX_INFLIGHT: usize = 2;
/// Client counts swept; the largest sits at 8× the workers.
const CLIENTS: [usize; 3] = [1, 4, 16];
/// Requests each client issues per cell. Sized so the admission cells,
/// where most offered load is shed, still complete enough requests
/// that p99 is a percentile, not the sample maximum.
const REQUESTS_PER_CLIENT: usize = 60;
/// Seeded directory size.
const ENTRIES: usize = 600;

/// The request every client issues: a whole-forest `sub` atomic scan.
/// Atomic (not a full `Query`) on purpose: a distributed query would
/// ship its sub-queries back to the same saturated daemon over new
/// connections, so overload would starve the query's *own* internal
/// fetches — a self-deadlock that measures the harness, not admission
/// control.
const LOAD_FILTER: &str = "kind=red";

/// One measured (mode, clients) cell.
struct Row {
    offered: u64,
    completed: u64,
    busy: u64,
    deadline: u64,
    errors: u64,
    rps: f64,
    p50_us: u64,
    p99_us: u64,
}

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

/// Run one cell against a fresh daemon built with `server_opts`.
fn run_cell(clients: usize, server_opts: ServerOptions, dir: &Directory) -> Row {
    let client_opts = ClientOptions {
        timeout: Duration::from_secs(10),
        // One connection per request: the daemon is thread-per-
        // connection, so pooling would serialize the whole closed loop
        // onto `WORKERS` sockets and hide the admission queue.
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
                    for _ in 0..REQUESTS_PER_CLIENT {
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
                                // Honor the server's backoff hint (capped):
                                // a shed client that reconnects every ~1ms
                                // preempts the daemon's own workers on a
                                // small machine.
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
    Row {
        offered,
        completed,
        busy,
        deadline,
        errors,
        rps: completed as f64 / wall_secs.max(f64::MIN_POSITIVE),
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
    }
}

fn main() {
    let dir = synth_forest(
        SynthParams {
            entries: ENTRIES,
            ..SynthParams::default()
        },
        0xC1_0AD, // fixed seed: both modes serve identical data
    );
    let registry = MetricsRegistry::new();
    println!(
        "Overload: {WORKERS} workers, {REQUESTS_PER_CLIENT} requests per client, \
         {ENTRIES} entries; admission = queue {MAX_PENDING} + inflight cap {MAX_INFLIGHT}\n"
    );
    table::header(&[
        "mode", "clients", "offered", "completed", "busy", "deadline", "rps", "p50_us",
        "p99_us", "p99/unbnd",
    ]);
    for clients in CLIENTS {
        let unbounded = ServerOptions {
            workers: WORKERS,
            max_pending: 0,
            ..ServerOptions::default()
        };
        let admission = Arc::new(AdmissionController::new(
            AdmissionConfig {
                max_inflight: MAX_INFLIGHT,
                // A generous hint keeps shed clients parked long enough
                // that their reconnects do not contend with the workers
                // draining accepted requests.
                retry_after: Duration::from_millis(20),
                ..AdmissionConfig::default()
            },
            Arc::new(MonotonicClock::new()),
            &registry,
        ));
        let bounded = ServerOptions {
            workers: WORKERS,
            max_pending: MAX_PENDING,
            request_deadline: Some(Duration::from_secs(2)),
            admission: Some(admission),
            ..ServerOptions::default()
        };
        let base = run_cell(clients, unbounded, &dir);
        let cell = run_cell(clients, bounded, &dir);
        for (mode, row) in [("unbounded", &base), ("admission", &cell)] {
            assert_eq!(
                row.offered,
                row.completed + row.busy + row.deadline + row.errors,
                "lost requests in {mode} @ {clients} clients"
            );
            assert_eq!(row.errors, 0, "errors in {mode} @ {clients} clients");
            let ratio = row.p99_us as f64 / base.p99_us.max(1) as f64;
            table::row(cells![
                mode,
                clients,
                row.offered,
                row.completed,
                row.busy,
                row.deadline,
                format!("{:.0}", row.rps),
                row.p50_us,
                row.p99_us,
                format!("{ratio:.2}"),
            ]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::percentile;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 0.999), 100);
        assert_eq!(percentile(&[], 0.99), 0);
        assert_eq!(percentile(&[7], 0.5), 7);
    }
}

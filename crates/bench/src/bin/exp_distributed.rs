//! E12 — Section 8.3: distributed evaluation. How much does delegation
//! ship over the network, as zones multiply?
//!
//! ```sh
//! cargo run --release -p netdir-bench --bin exp_distributed
//! cargo run --release -p netdir-bench --bin exp_distributed -- --wire
//! cargo run --release -p netdir-bench --bin exp_distributed -- --faults
//! ```
//!
//! By default zones are in-process stores reached by function call, and
//! shipped bytes are the encoded-entry payloads a remote zone returns. With
//! `--wire`, every zone is a real TCP daemon on loopback and the
//! shipped-byte column counts actual response frames (header included)
//! read off the sockets. With `--faults`, the transport is wrapped in a
//! seeded fault injector and the sweep reports how often queries
//! succeed, degrade, or fail as the drop rate climbs — under strict and
//! partial consistency.

use netdir_bench::{cells, table};
use netdir_model::{Directory, Dn};
use netdir_pager::Pager;
use netdir_query::{parse_query, Query};
use netdir_server::{
    BreakerConfig, ClusterBuilder, ConsistencyMode, FaultConfig, FaultTransport,
    LocalTransport, NetSnapshot, RetryPolicy, Router,
};
use netdir_wire::WireCluster;
use netdir_workloads::{dns_tree, synth_forest, SynthParams};

fn zone_roots(dir: &Directory, depth: usize, count: usize) -> Vec<Dn> {
    dir.iter_sorted()
        .filter(|e| e.dn().depth() == depth)
        .take(count)
        .map(|e| e.dn().clone())
        .collect()
}

/// Evaluate `q` as posed to `root` on a cluster built from `builder`,
/// in process or over loopback TCP. Returns (servers, net, answers).
fn run_once(
    builder: ClusterBuilder,
    dir: &Directory,
    pager: &Pager,
    q: &Query,
    wire: bool,
) -> (usize, NetSnapshot, usize) {
    // The daemons must outlive the query; in process there are none.
    let (daemons, in_process);
    let cluster = if wire {
        daemons = WireCluster::launch_default(builder, dir).expect("launch daemons");
        daemons.cluster()
    } else {
        in_process = builder.build(dir);
        &in_process
    };
    cluster.net().reset();
    let hits = cluster.query_from("root", pager, q).expect("query");
    (
        cluster.num_servers(),
        cluster.net().snapshot(),
        hits.len(),
    )
}

/// `--faults`: the same synthetic forest, but the transport misbehaves.
/// Sweep injected drop rates under strict and partial consistency and
/// report, per cell, how the retry/degradation machinery spent its
/// budget. A fixed seed makes the whole table reproducible.
fn run_faults() {
    println!(
        "E12f — fault-tolerant evaluation: success vs. injected drop rate\n\
         (8 zones, 3 immediate retry attempts per zone, seeded injector)\n"
    );
    let dir = synth_forest(
        SynthParams {
            entries: 4_000,
            max_depth: 8,
            red_fraction: 0.3,
            blue_fraction: 0.3,
        },
        41,
    );
    let q = parse_query("(c (dc=synth ? sub ? kind=red) (dc=synth ? sub ? kind=blue))")
        .unwrap();
    let trials = 40u32;
    table::header(&[
        "drop rate", "mode", "ok", "partial", "failed", "retries", "gave up", "dropped",
    ]);
    for &drop in &[0.0, 0.05, 0.15, 0.3] {
        for mode in [ConsistencyMode::Strict, ConsistencyMode::Partial] {
            // Fresh cluster per cell so counters and breakers start cold.
            let mut builder =
                ClusterBuilder::new().server("root", Dn::parse("dc=synth").unwrap());
            for (i, z) in zone_roots(&dir, 2, 7).into_iter().enumerate() {
                builder = builder.server(format!("z{i}"), z);
            }
            let cluster = builder.build_with(&dir, |delegation, zones| {
                let fault = FaultTransport::new(
                    Box::new(LocalTransport::new(zones)),
                    FaultConfig::seeded(97).with_drop_rate(drop),
                );
                Router::new(delegation, Box::new(fault))
                    .with_retry(RetryPolicy::immediate(3))
                    .with_breaker(BreakerConfig {
                        // Weather, not outage: keep probing every zone.
                        failure_threshold: 1_000,
                        cooldown: std::time::Duration::from_secs(600),
                    })
            });
            let router = cluster.router();
            let pager = Pager::new(4096, 48);
            let (mut ok, mut degraded, mut failed) = (0u32, 0u32, 0u32);
            for _ in 0..trials {
                match router.query_with(0, &pager, &q, mode) {
                    Ok(out) if out.is_complete() => ok += 1,
                    Ok(_) => degraded += 1,
                    Err(_) => failed += 1,
                }
            }
            let retry = router.retry_stats().snapshot();
            table::row(cells![
                format!("{drop:.2}"),
                match mode {
                    ConsistencyMode::Strict => "strict",
                    ConsistencyMode::Partial => "partial",
                },
                ok,
                degraded,
                failed,
                retry.retries,
                retry.gave_up,
                router.transport().faults().map_or(0, |f| f.snapshot().dropped),
            ]);
        }
    }
    println!(
        "\n   strict mode converts exhausted retries into failed queries; \
         partial mode converts them into degraded (subset) answers. The \
         seeded injector makes every cell reproducible."
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--faults") {
        run_faults();
        return;
    }
    let wire = args.iter().any(|a| a == "--wire");
    println!(
        "E12 — distributed evaluation: shipping vs. number of zones\n\
         transport: {}\n",
        if wire {
            "TCP loopback daemons (real frame bytes)"
        } else {
            "in-process channels (encoded-entry bytes); rerun with --wire for sockets"
        }
    );

    let dir = synth_forest(
        SynthParams {
            entries: 4_000,
            max_depth: 8,
            red_fraction: 0.3,
            blue_fraction: 0.3,
        },
        41,
    );
    let queries = [
        ("atomic sub", "(dc=synth ? sub ? kind=red)"),
        (
            "L1 children",
            "(c (dc=synth ? sub ? kind=red) (dc=synth ? sub ? kind=blue))",
        ),
        (
            "L2 agg",
            "(g (dc=synth ? sub ? kind=red) max(weight) = max(max(weight)))",
        ),
    ];

    for (label, text) in queries {
        println!("query: {label}  —  {text}");
        table::header(&[
            "zones", "requests", "entries", "KB shipped", "answers",
        ]);
        let q = parse_query(text).unwrap();
        for zones in [1usize, 2, 4, 8, 16] {
            let mut builder = ClusterBuilder::new().server("root", Dn::parse("dc=synth").unwrap());
            for (i, z) in zone_roots(&dir, 2, zones - 1).into_iter().enumerate() {
                builder = builder.server(format!("z{i}"), z);
            }
            let pager = Pager::new(4096, 48);
            let (servers, net, answers) = run_once(builder, &dir, &pager, &q, wire);
            table::row(cells![
                servers,
                net.requests,
                net.entries_shipped,
                format!("{:.1}", net.bytes_shipped as f64 / 1024.0),
                answers,
            ]);
        }
        println!();
    }

    if wire {
        println!(
            "delegation-depth sweep runs in-process (a depth-4 cut means \
             hundreds of daemons):"
        );
    }
    println!("delegation-depth sweep on a uniform dc-tree (fanout 4):");
    table::header(&["cut depth", "zones", "requests", "entries shipped"]);
    let dir = dns_tree(5, 4);
    let q = parse_query("(dc=com ? sub ? level=5)").unwrap();
    // Zone roots at DN depth 2/3/4 — one level below dc=com and deeper.
    for depth in [2usize, 3, 4] {
        let mut builder = ClusterBuilder::new().server("root", Dn::parse("dc=com").unwrap());
        for (i, z) in zone_roots(&dir, depth, usize::MAX).into_iter().enumerate() {
            builder = builder.server(format!("z{i}"), z);
        }
        let cluster = builder.build(&dir);
        let pager = Pager::new(4096, 48);
        cluster.net().reset();
        let hits = cluster.query_from("root", &pager, &q).expect("query");
        let net = cluster.net().snapshot();
        table::row(cells![
            depth,
            cluster.num_servers(),
            net.requests,
            net.entries_shipped,
        ]);
        assert_eq!(hits.len(), 4usize.pow(5));
    }
    println!(
        "\n   answers are identical at every partitioning (verified by \
         the distributed integration tests); the table shows the network \
         price of finer delegation"
    );
}

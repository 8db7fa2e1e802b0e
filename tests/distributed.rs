//! Section 8.3 integration: distributed evaluation equals single-server
//! evaluation on every language level, across partitionings — and both
//! equal the naive oracle byte for byte, at every evaluation degree,
//! with and without the planner. Plus the cost of the seam itself,
//! counted: building a cluster starts no thread, and a generation
//! nobody reads never builds its store.

use netdir::model::{Directory, Dn, Entry};
use netdir::pager::record::Record;
use netdir::pager::Pager;
use netdir::query::agg::CompiledAggFilter;
use netdir::query::boolean::BoolOp;
use netdir::query::hs_stack::HsOp;
use netdir::query::{naive, parse_query, AggSelFilter, Planner, Query};
use netdir::server::{ClusterBuilder, ConsistencyMode};
use netdir::workloads::qos::QOS_BASE;
use netdir::workloads::{qos_fig12, synth_forest, tops_fig11, SynthParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

fn dn(s: &str) -> Dn {
    Dn::parse(s).unwrap()
}

fn compare_one(
    dir: &Directory,
    build: impl Fn() -> ClusterBuilder,
    home: &str,
    queries: &[String],
) {
    let single = ClusterBuilder::new().server("all", Dn::root()).build(dir);
    let multi = build().build(dir);
    assert_eq!(multi.orphaned(), 0, "partitioning dropped entries");
    for text in queries {
        let q = parse_query(text).unwrap();
        let pager = Pager::new(2048, 32);
        let a = single.query_from("all", &pager, &q).unwrap();
        let b = multi.query_from(home, &pager, &q).unwrap();
        let keys = |v: &[netdir::model::Entry]| -> Vec<String> {
            v.iter().map(|e| e.dn().to_string()).collect()
        };
        assert_eq!(keys(&a), keys(&b), "query {text} differs from single-server");
    }
}

#[test]
fn qos_directory_across_two_partitionings() {
    let dir = qos_fig12();
    let queries = vec![
        format!("({QOS_BASE} ? sub ? objectClass=SLAPolicyRules)"),
        format!(
            "(g ({QOS_BASE} ? sub ? objectClass=SLAPolicyRules) count(SLAPVPRef) > 1)"
        ),
        format!(
            "(vd ({QOS_BASE} ? sub ? objectClass=SLAPolicyRules) \
                 ({QOS_BASE} ? sub ? SourcePort=25) SLATPRef)"
        ),
        format!(
            "(c ({QOS_BASE} ? one ? objectClass=organizationalUnit) \
                ({QOS_BASE} ? sub ? objectClass=trafficProfile))"
        ),
    ];
    // Partition by entry kind (each OU its own server).
    compare_one(
        &dir,
        || {
            ClusterBuilder::new()
                .server("top", dn("dc=com"))
                .server("rules", dn(&format!("ou=SLAPolicyRules, {QOS_BASE}")))
                .server("profiles", dn(&format!("ou=trafficProfile, {QOS_BASE}")))
                .server("periods", dn(&format!("ou=policyValidityPeriod, {QOS_BASE}")))
                .server("actions", dn(&format!("ou=SLADSAction, {QOS_BASE}")))
        },
        "rules",
        &queries,
    );
    // Coarser split.
    compare_one(
        &dir,
        || {
            ClusterBuilder::new()
                .server("com", dn("dc=com"))
                .server("policies", dn(QOS_BASE))
        },
        "com",
        &queries,
    );
}

#[test]
fn tops_directory_split_by_subscriber() {
    let dir = tops_fig11();
    let base = "ou=userProfiles, dc=research, dc=att, dc=com";
    let queries = vec![
        format!("({base} ? sub ? objectClass=QHP)"),
        format!(
            "(c ({base} ? sub ? objectClass=TOPSSubscriber) \
                ({base} ? sub ? objectClass=QHP) count($2) > 1)"
        ),
        format!(
            "(p ({base} ? sub ? objectClass=callAppearance) \
                ({base} ? sub ? priority=1))"
        ),
    ];
    compare_one(
        &dir,
        || {
            ClusterBuilder::new()
                .server("top", dn("dc=com"))
                .server("jag", dn(&format!("uid=jag, {base}")))
        },
        "top",
        &queries,
    );
}

#[test]
fn synthetic_forest_random_zone_cuts() {
    let dir = synth_forest(
        SynthParams {
            entries: 300,
            max_depth: 5,
            red_fraction: 0.4,
            blue_fraction: 0.4,
        },
        21,
    );
    // Pick a couple of real subtrees as zones.
    let zones: Vec<Dn> = dir
        .iter_sorted()
        .filter(|e| e.dn().depth() == 2)
        .take(3)
        .map(|e| e.dn().clone())
        .collect();
    assert!(!zones.is_empty());
    let queries = vec![
        "(dc=synth ? sub ? kind=red)".to_string(),
        "(c (dc=synth ? sub ? kind=red) (dc=synth ? sub ? kind=blue))".to_string(),
        "(a (dc=synth ? sub ? kind=blue) (dc=synth ? sub ? kind=red))".to_string(),
        "(g (dc=synth ? sub ? kind=red) max(weight) = max(max(weight)))".to_string(),
    ];
    compare_one(
        &dir,
        || {
            let mut b = ClusterBuilder::new().server("root", dn("dc=synth"));
            for (i, z) in zones.iter().enumerate() {
                b = b.server(format!("zone{i}"), z.clone());
            }
            b
        },
        "root",
        &queries,
    );
}

/// A seeded forest under `dc=test`: `kind`, `weight` and DN-valued `ref`
/// attributes give every operator family work to do.
fn random_forest(rng: &mut StdRng, n: usize) -> (Directory, Vec<Dn>) {
    let mut d = Directory::new();
    let root = dn("dc=test");
    d.insert(Entry::builder(root.clone()).class("thing").build().unwrap())
        .unwrap();
    let mut dns = vec![root];
    for i in 0..n {
        let parent = dns[rng.gen_range(0..dns.len())].clone();
        let child = dn(&format!("n=e{i}, {parent}"));
        let mut b = Entry::builder(child.clone())
            .class("thing")
            .attr("kind", ["red", "blue", "green"][rng.gen_range(0..3)])
            .attr("weight", rng.gen_range(0..6) as i64);
        if rng.gen_bool(0.3) {
            b = b.attr("ref", dns[rng.gen_range(0..dns.len())].clone());
        }
        d.insert(b.build().unwrap()).unwrap();
        dns.push(child);
    }
    (d, dns)
}

/// A random L0–L3 query tree of `depth` over bases drawn from `dns`.
fn random_query(rng: &mut StdRng, dns: &[Dn], depth: usize) -> String {
    if depth == 0 {
        // Bases near the top, where subtrees span zones.
        let base = &dns[rng.gen_range(0..dns.len().min(12))];
        let scope = ["base", "one", "sub", "sub"][rng.gen_range(0..4)];
        let filter = ["kind=red", "kind=blue", "objectClass=thing", "weight<=2", "ref=*"]
            [rng.gen_range(0..5)];
        return format!("({base} ? {scope} ? {filter})");
    }
    let sub = |rng: &mut StdRng| random_query(rng, dns, depth - 1);
    match rng.gen_range(0..7) {
        0 => format!("(& {} {})", sub(rng), sub(rng)),
        1 => format!("(| {} {})", sub(rng), sub(rng)),
        2 => format!("(- {} {})", sub(rng), sub(rng)),
        3 => {
            let op = ["p", "c", "a", "d"][rng.gen_range(0..4)];
            format!("({op} {} {})", sub(rng), sub(rng))
        }
        4 => {
            let op = ["c", "d"][rng.gen_range(0..2)];
            format!("({op} {} {} count($2) > {})", sub(rng), sub(rng), rng.gen_range(0..2))
        }
        5 => format!("(g {} count($1) > {})", sub(rng), rng.gen_range(0..2)),
        _ => {
            let op = ["vd", "dv"][rng.gen_range(0..2)];
            format!("({op} {} {} ref)", sub(rng), sub(rng))
        }
    }
}

/// The answer oracle: `q` evaluated from its definitions with the naive
/// nested-loop operators over the in-memory directory. `served` maps a
/// sort key to the entry as its server stores it — each server numbers
/// its own entries in key order, and the id is part of the image.
fn oracle(dir: &Directory, served: &HashMap<Vec<u8>, Entry>, q: &Query) -> Vec<Entry> {
    let eval = |q: &Query| oracle(dir, served, q);
    let witness = |agg: &Option<AggSelFilter>| match agg {
        None => CompiledAggFilter::exists_witness(),
        Some(f) => CompiledAggFilter::compile(f, true).unwrap(),
    };
    match q {
        Query::Atomic {
            base,
            scope,
            filter,
        } => dir
            .subtree(base)
            .filter(|e| scope.contains(base, e.dn()) && filter.matches(e))
            .map(|e| served[e.dn().sort_key().as_bytes()].clone())
            .collect(),
        Query::And(a, b) => naive::naive_boolean(BoolOp::And, &eval(a), &eval(b)),
        Query::Or(a, b) => naive::naive_boolean(BoolOp::Or, &eval(a), &eval(b)),
        Query::Diff(a, b) => naive::naive_boolean(BoolOp::Diff, &eval(a), &eval(b)),
        Query::Hier { op, q1, q2, agg } => {
            naive::naive_hs_select(HsOp::from(*op), &eval(q1), &eval(q2), &[], &witness(agg))
        }
        Query::HierPath {
            op,
            q1,
            q2,
            q3,
            agg,
        } => naive::naive_hs_select(
            HsOp::from(*op),
            &eval(q1),
            &eval(q2),
            &eval(q3),
            &witness(agg),
        ),
        Query::AggSelect { query, filter } => {
            naive::naive_simple_agg(&eval(query), &CompiledAggFilter::compile(filter, false).unwrap())
        }
        Query::EmbedRef {
            op,
            q1,
            q2,
            attr,
            agg,
        } => naive::naive_er_select(*op, &eval(q1), &eval(q2), attr, &witness(agg)),
    }
}

/// Every entry as the servers of `shape` store it.
fn as_served(shape: &ClusterBuilder, dir: &Directory) -> HashMap<Vec<u8>, Entry> {
    let mut served = HashMap::new();
    for partition in shape.clone().into_parts(dir).partitions {
        let mut zone = Directory::new();
        for e in partition {
            zone.insert(e).unwrap();
        }
        for e in zone.iter_sorted() {
            served.insert(e.dn().sort_key().as_bytes().to_vec(), e.clone());
        }
    }
    served
}

fn image(e: &Entry) -> Vec<u8> {
    let mut buf = Vec::new();
    e.encode(&mut buf);
    buf
}

#[test]
fn every_configuration_answers_the_naive_oracle_byte_for_byte() {
    let (mut checked, mut nonempty) = (0usize, 0usize);
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(0xD157 + seed);
        let (dir, dns) = random_forest(&mut rng, 120);
        // Three zones — the root and two subtrees cut out of it — with
        // the second cut replicated on a secondary.
        let cuts: Vec<Dn> = dns[1..]
            .iter()
            .filter(|d| d.depth() == 2 && dns.iter().any(|o| d.is_parent_of(o)))
            .take(2)
            .cloned()
            .collect();
        assert_eq!(cuts.len(), 2, "seed {seed} has two subtrees to cut");
        let single = ClusterBuilder::new().server("root", Dn::root());
        let zoned = ClusterBuilder::new()
            .server("root", dn("dc=test"))
            .server("z0", cuts[0].clone())
            .server("z1", cuts[1].clone())
            .secondary("z1-copy", cuts[1].clone());
        let queries: Vec<Query> = (0..12)
            .map(|i| parse_query(&random_query(&mut rng, &dns, i % 3)).unwrap())
            .collect();
        for shape in [single, zoned] {
            let served = as_served(&shape, &dir);
            let expected: Vec<Vec<Vec<u8>>> = queries
                .iter()
                .map(|q| oracle(&dir, &served, q).iter().map(image).collect())
                .collect();
            nonempty += expected.iter().filter(|want| !want.is_empty()).count();
            for degree in [1, 4] {
                for planner in [false, true] {
                    let mut b = shape.clone().eval_threads(degree);
                    if planner {
                        b = b.planner(Arc::new(Planner::new()));
                    }
                    let cluster = b.build(&dir);
                    for (q, want) in queries.iter().zip(&expected) {
                        let pager = Pager::new(512, 32);
                        let got = cluster
                            .query_from_with("root", &pager, q, ConsistencyMode::Strict)
                            .unwrap_or_else(|e| panic!("{q}: {e}"));
                        assert!(got.is_complete());
                        assert_eq!(
                            &got.entries,
                            want,
                            "{q} on {} servers, degree {degree}, planner {planner}",
                            cluster.num_servers()
                        );
                        checked += 1;
                    }
                }
            }
        }
    }
    assert_eq!(checked, 3 * 2 * 2 * 2 * 12);
    assert!(nonempty * 2 > 3 * 2 * 12, "{nonempty}: most answers have entries to compare");
}

/// Threads of this process, from the kernel.
#[cfg(target_os = "linux")]
fn threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .unwrap()
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .unwrap()
}

#[cfg(target_os = "linux")]
#[test]
fn a_single_server_cluster_starts_no_thread() {
    const ALONE: &str = "NETDIR_THREAD_COUNT_ALONE";
    if std::env::var_os(ALONE).is_none() {
        // Other tests of this binary start and stop threads at will:
        // count in a process of our own, running this test alone.
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "a_single_server_cluster_starts_no_thread"])
            .args(["--test-threads", "1", "--nocapture"])
            .env(ALONE, "1")
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        assert!(String::from_utf8_lossy(&out.stdout).contains("1 passed"));
        return;
    }
    let dir = tops_fig11();
    let before = threads();
    let cluster = ClusterBuilder::new().server("root", Dn::root()).build(&dir);
    assert_eq!(threads(), before, "building started a thread");
    let q = parse_query("(dc=com ? sub ? objectClass=QHP)").unwrap();
    let hits = cluster.query_from("root", &Pager::new(2048, 32), &q).unwrap();
    assert!(!hits.is_empty());
    assert_eq!(threads(), before, "answering started a thread");
    drop(cluster);
    assert_eq!(threads(), before);
}

#[test]
fn a_generation_replaced_unread_never_builds_its_store() {
    let dir = tops_fig11();
    let shape = ClusterBuilder::new().server("root", Dn::root());
    let q = parse_query("(dc=com ? sub ? objectClass=QHP)").unwrap();
    // Publish, then publish again before anyone reads: the first
    // generation's store is never built — its zone wrote no page.
    let unread = shape.clone().build(&dir);
    let current = shape.clone().build(&dir);
    assert_eq!(unread.store(0).pager().pool().num_pages(), 0);
    drop(unread);
    assert_eq!(current.store(0).pager().pool().num_pages(), 0);
    // The first read builds the current generation's store, once.
    current.query_from("root", &Pager::new(2048, 32), &q).unwrap();
    let built = current.store(0).pager().pool().num_pages();
    assert!(built > 0);
    current.query_from("root", &Pager::new(2048, 32), &q).unwrap();
    assert_eq!(current.store(0).pager().pool().num_pages(), built);
}

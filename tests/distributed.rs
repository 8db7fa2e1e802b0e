//! Section 8.3 integration: distributed evaluation equals single-server
//! evaluation on every language level, across partitionings — and both
//! equal the naive oracle byte for byte, at every zone-fetch
//! concurrency (`eval_threads`), with and without the planner, traced or not, query or routed atomic
//! leaf, with every entry carrying the directory's own id. Plus the cost
//! of the seam itself, counted: building a cluster starts no thread,
//! generations published on one base build it once, on first read, a
//! routed leaf reaches its operator in memory, and intermediates stay in
//! memory up to the scratch pool's bytes, so the scratch pager sees only
//! what spills past them.

use netdir::model::{Directory, Dn, Entry};
use netdir::filter::{AtomicFilter, Scope};
use netdir::pager::record::Record;
use netdir::pager::{PagedList, Pager};
use netdir::query::agg::CompiledAggFilter;
use netdir::query::boolean::BoolOp;
use netdir::query::hs_stack::HsOp;
use netdir::query::{naive, parse_query, AggSelFilter, Planner, Query};
use netdir::server::{Cluster, ClusterBuilder, ConsistencyMode};
use netdir::workloads::qos::QOS_BASE;
use netdir::workloads::{qos_fig12, synth_forest, tops_fig11, SynthParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::sync::Arc;

mod common;

use common::{dn, random_forest, random_query, three_zones};

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

/// The answer oracle: `q` evaluated from its definitions with the naive
/// nested-loop operators over the in-memory directory. Entries are the
/// directory's own, ids included: every server stores them as they are.
fn oracle(dir: &Directory, q: &Query) -> Vec<Entry> {
    let eval = |q: &Query| oracle(dir, q);
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
            .cloned()
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

fn image(e: &Entry) -> Vec<u8> {
    let mut buf = Vec::new();
    e.encode(&mut buf);
    buf
}

/// A seeded forest, its three-zone shape, and the generator after both.
fn zoned_forest(seed: u64) -> (Directory, Vec<Dn>, ClusterBuilder, StdRng) {
    let mut rng = StdRng::seed_from_u64(0xD157 + seed);
    let (dir, dns) = random_forest(&mut rng, 120);
    let zoned = three_zones(&dns);
    (dir, dns, zoned, rng)
}

#[test]
fn every_configuration_answers_the_naive_oracle_byte_for_byte() {
    let (mut checked, mut nonempty) = (0usize, 0usize);
    for seed in 0..3u64 {
        let (dir, dns, zoned, mut rng) = zoned_forest(seed);
        let single = ClusterBuilder::new().server("root", Dn::root());
        let queries: Vec<Query> = (0..12)
            .map(|i| parse_query(&random_query(&mut rng, &dns, i % 3)).unwrap())
            .collect();
        let expected: Vec<Vec<Vec<u8>>> = queries
            .iter()
            .map(|q| oracle(&dir, q).iter().map(image).collect())
            .collect();
        nonempty += expected.iter().filter(|want| !want.is_empty()).count();
        // Every atomic leaf of every query, with its oracle answer.
        let mut leaves = Vec::new();
        for q in &queries {
            atomic_leaves(q, &mut leaves);
        }
        let leaf_answers: Vec<Vec<Vec<u8>>> = leaves
            .iter()
            .map(|&(base, scope, filter)| {
                dir.subtree(base)
                    .filter(|e| scope.contains(base, e.dn()) && filter.matches(e))
                    .map(image)
                    .collect()
            })
            .collect();
        for shape in [single, zoned] {
            // The degree is the zone-fetch concurrency: at 4 a leaf over
            // several zones fetches them on up to four threads.
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
                        let what = format!(
                            "{q} on {} servers, degree {degree}, planner {planner}",
                            cluster.num_servers()
                        );
                        assert_eq!(&got.entries, want, "{what}");
                        // The traced path reads the same operands.
                        let (traced, trace) = cluster
                            .router()
                            .query_analyzed(0, &pager, q, ConsistencyMode::Strict)
                            .unwrap_or_else(|e| panic!("analyzed {what}: {e}"));
                        assert_eq!(&traced.entries, want, "analyzed {what}");
                        assert_eq!(trace.spans.len(), q.num_nodes(), "{what}");
                        checked += 1;
                    }
                    // Routed atomic answers, merged across zones.
                    for (&(base, scope, filter), want) in leaves.iter().zip(&leaf_answers) {
                        let pager = Pager::new(512, 32);
                        let got = cluster.router().atomic(0, &pager, base, scope, filter).unwrap();
                        assert_eq!(&got, want, "({base} ? {scope} ? {filter})");
                    }
                }
            }
        }
    }
    assert_eq!(checked, 3 * 2 * 2 * 2 * 12);
    assert!(nonempty * 2 > 3 * 12, "{nonempty}: most answers have entries to compare");
}

/// The atomic leaves of `q`, in evaluation order.
fn atomic_leaves<'q>(q: &'q Query, out: &mut Vec<(&'q Dn, Scope, &'q AtomicFilter)>) {
    match q {
        Query::Atomic {
            base,
            scope,
            filter,
        } => out.push((base, *scope, filter)),
        Query::And(a, b) | Query::Or(a, b) | Query::Diff(a, b) => {
            atomic_leaves(a, out);
            atomic_leaves(b, out);
        }
        Query::Hier { q1, q2, .. } | Query::EmbedRef { q1, q2, .. } => {
            atomic_leaves(q1, out);
            atomic_leaves(q2, out);
        }
        Query::HierPath { q1, q2, q3, .. } => {
            atomic_leaves(q1, out);
            atomic_leaves(q2, out);
            atomic_leaves(q3, out);
        }
        Query::AggSelect { query, .. } => atomic_leaves(query, out),
    }
}

/// One query per operator family over routed leaves, each with
/// intermediates: an L0 merge, an L1 stack pass, an L2 pass that
/// buffers its annotated candidates in chains, a two-scan aggregate and
/// an L3 sort-merge semijoin.
const OPERATOR_QUERIES: [(&str, &str); 5] = [
    ("and", "(& (dc=test ? sub ? kind=red) (dc=test ? sub ? weight<=2))"),
    ("ancestors", "(a (dc=test ? sub ? kind=red) (dc=test ? sub ? kind=blue))"),
    (
        "children, counted",
        "(c (dc=test ? sub ? objectClass=thing) (dc=test ? sub ? kind=green) count($2) > 0)",
    ),
    (
        "aggregate, two scans",
        "(g (dc=test ? sub ? kind=red) max(weight) = max(max(weight)))",
    ),
    (
        "value-dn",
        "(vd (dc=test ? sub ? objectClass=thing) (dc=test ? sub ? kind=red) ref)",
    ),
];

/// What one operator query left on its scratch pager.
struct Ledger {
    what: String,
    entries: Vec<Vec<u8>>,
    /// The pager's (fetches, allocations).
    touched: (u64, u64),
    /// The answer's size in pages of the small pager's geometry.
    answer_pages: u64,
}

/// Each operator query on a one-server and a three-zone cluster, on a
/// fresh scratch pager: the default one, or with `spill` a small one
/// whose whole budget is held elsewhere, so no intermediate fits.
fn operator_ledgers(spill: bool) -> Vec<Ledger> {
    let (dir, _, zoned, _) = zoned_forest(0);
    let single = ClusterBuilder::new().server("root", Dn::root());
    let small = || Pager::new(512, 8);
    let mut out = Vec::new();
    for shape in [single, zoned] {
        let cluster = shape.build(&dir);
        for (label, text) in OPERATOR_QUERIES {
            let q = parse_query(text).unwrap();
            let pager = if spill { small() } else { netdir::pager::default_pager() };
            let held = spill.then(|| pager.reserve(pager.run_budget()).unwrap());
            let got = cluster
                .query_from_with("root", &pager, &q, ConsistencyMode::Strict)
                .unwrap();
            assert!(!got.entries.is_empty(), "{label}: dead query");
            drop(held);
            assert!(pager.run_bytes_peak() <= pager.run_budget(), "{label}");
            assert_eq!(pager.run_bytes_held(), 0, "{label}: a run outlived its query");
            let pool = pager.pool().metrics();
            let answer = netdir::server::node::decode_entries(&got.entries).unwrap();
            let answer_pages = PagedList::from_iter(&small(), answer).unwrap().num_pages();
            out.push(Ledger {
                what: format!("{label} on {} servers", cluster.num_servers()),
                entries: got.entries,
                touched: (pool.hits + pool.misses, pager.io().allocs),
                answer_pages,
            });
        }
    }
    out
}

/// Intermediates live in memory up to the scratch pool's bytes *M*, and
/// spill to pages only past it. Under the default pool every operator's
/// output, chain blocks, pair lists and sorts stay in memory, so the
/// scratch pager sees no allocation and no fetch at all; with no budget
/// left they all spill, and the answers do not change by a byte.
#[test]
fn intermediates_within_the_budget_touch_no_scratch_page() {
    for (roomy, spilled) in operator_ledgers(false).iter().zip(operator_ledgers(true)) {
        let what = &roomy.what;
        assert_eq!(roomy.touched, (0, 0), "{what}: scratch pages touched in budget");
        assert_eq!(roomy.entries, spilled.entries, "{what}: the budget changed the answer");
    }
}

/// Past the budget each spilled page is written once and read once. An
/// operator's output, a staged or sorted pair list and an external
/// sort's runs are written through one page builder and scanned once, so
/// a query of those fetches exactly two pages per page it allocates, and
/// one whose only intermediate is its answer allocates its pages. The
/// chains an above-direction pass buffers are Figure 6's: a chain block
/// on a page is fetched per record appended, so for `c` the check is
/// that they spilled at all, beyond the answer.
#[test]
fn intermediates_past_the_budget_spill_each_page_once() {
    for Ledger {
        what,
        touched: (fetches, allocs),
        answer_pages,
        ..
    } in operator_ledgers(true)
    {
        assert!(answer_pages > 0 && allocs >= answer_pages, "{what}: the answer spilled");
        if what.starts_with("children") {
            assert!(allocs > answer_pages, "{what}: chain blocks spilled");
            continue;
        }
        assert_eq!(fetches, 2 * allocs, "{what}: written once, read once");
        if !what.starts_with("value-dn") {
            assert_eq!(allocs, answer_pages, "{what}: the output is the only intermediate");
        }
    }
}

#[test]
fn a_multi_zone_answer_carries_the_directorys_ids() {
    let (dir, _, zoned, _) = zoned_forest(0);
    let cluster = zoned.build(&dir);
    let q = parse_query("(dc=test ? sub ? objectClass=thing)").unwrap();
    let got = cluster.query_from("root", &Pager::new(512, 32), &q).unwrap();
    assert_eq!(got.len(), dir.len(), "every zone answers");
    let ids: HashSet<u64> = got.iter().map(Entry::id).collect();
    assert_eq!(ids.len(), got.len(), "ids are distinct across zones");
    for e in &got {
        assert_eq!(e.id(), dir.lookup(e.dn()).unwrap().id(), "{}", e.dn());
    }
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
    let mut dir = tops_fig11();
    let shape = ClusterBuilder::new().server("root", Dn::root());
    let q = parse_query("(dc=com ? sub ? objectClass=QHP)").unwrap();
    let ask = |generation: &Cluster| {
        let hits = generation
            .query_from("root", &Pager::new(2048, 32), &q)
            .unwrap();
        (hits.len(), generation.store(0).pager().pool().num_pages())
    };
    // One QHP more per batch, under an existing subscriber.
    fn add(dir: &mut Directory, name: &str) -> Vec<(Dn, bool)> {
        let qhp = dn(&format!(
            "QHPName={name}, uid=jag, ou=userProfiles, dc=research, dc=att, dc=com"
        ));
        let e = Entry::builder(qhp.clone()).class("QHP").build().unwrap();
        dir.insert(e).unwrap();
        vec![(qhp, false)]
    }
    // Build, then publish twice before anyone reads: the generations
    // share one base, and nothing is built — the zone wrote no page.
    let first = shape.clone().build(&dir);
    let touched = add(&mut dir, "extra1");
    let second = shape.clone().publish(&first, &dir, &touched);
    let touched = add(&mut dir, "extra2");
    let third = shape.clone().publish(&second, &dir, &touched);
    drop(first);
    assert!(third.store(0).shares_base(second.store(0)));
    assert_eq!(third.store(0).pager().pool().num_pages(), 0);
    // The first read builds the shared base, once, for every generation
    // on it; each answers its own state.
    let (hits, built) = ask(&third);
    assert!(built > 0);
    assert_eq!(ask(&second), (hits - 1, built));
    assert_eq!(ask(&third), (hits, built));
}

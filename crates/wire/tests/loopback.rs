//! End-to-end: a loopback fleet of TCP daemons must answer every query
//! language level byte-identically to the in-process cluster it was
//! partitioned from, and its shipped-byte counters must reflect
//! real frames crossing real sockets.

use netdir_filter::{parse_atomic, parse_composite, Scope};
use netdir_model::Entry;
use netdir_pager::record::Record;
use netdir_query::{classify, parse_query, Language};
use netdir_server::node::images;
use netdir_wire::{
    encode_entries, ClientOptions, ServerOptions, WireCluster, WireError,
};

mod common;
use common::{builder, dir, dn};

/// One query per language level, each chosen to return a nonempty
/// result against `dir()` when posed to server `att`.
fn level_queries() -> Vec<(Language, &'static str)> {
    vec![
        (
            // Set difference of two atomic queries.
            Language::L0,
            "(- (dc=att, dc=com ? sub ? surName=jagadish) \
                (dc=research, dc=att, dc=com ? sub ? surName=jagadish))",
        ),
        (
            // Hierarchy: entries with a child in the second set.
            Language::L1,
            "(c (dc=com ? sub ? objectClass=thing) \
                (dc=research, dc=att, dc=com ? base ? objectClass=thing))",
        ),
        (
            // Aggregate over witnesses: entries with more than one child.
            Language::L2,
            "(c (dc=com ? sub ? objectClass=thing) \
                (dc=com ? sub ? objectClass=thing) \
                count($2) > 1)",
        ),
        (
            // Value-based deref across the research/att zone cut.
            Language::L3,
            "(vd (dc=research, dc=att, dc=com ? sub ? objectClass=SLAPolicyRules) \
                 (dc=att, dc=com ? sub ? sourcePort=25) \
                 SLATPRef)",
        ),
    ]
}

#[test]
fn tcp_results_are_byte_identical_to_in_process_cluster() {
    let dir = dir();
    let in_process = builder().build(&dir);
    let wire = WireCluster::launch_default(builder(), &dir).unwrap();
    assert_eq!(wire.cluster().orphaned(), 0);
    assert_eq!(wire.cluster().num_servers(), in_process.num_servers());

    let pager = netdir_pager::default_pager();
    let client = wire.client(wire.cluster().server_id("att").unwrap());
    for (level, text) in level_queries() {
        let query = parse_query(text).unwrap();
        assert_eq!(classify(&query), level, "misclassified: {text}");

        let expected = encode_entries(&in_process.query_from("att", &pager, &query).unwrap());
        assert!(!expected.is_empty(), "dead test query: {text}");

        // Through a WireClient against the daemon, frame by frame.
        let over_tcp = client.query_encoded("att", text).unwrap();
        assert_eq!(over_tcp, expected, "TCP result differs for {text}");

        // And through the wire cluster's own socket-transport router.
        let direct = encode_entries(&wire.cluster().query_from("att", &pager, &query).unwrap());
        assert_eq!(direct, expected, "socket-router result differs for {text}");
    }
}

#[test]
fn distributed_queries_ship_real_frame_bytes() {
    let dir = dir();
    let wire = WireCluster::launch_default(builder(), &dir).unwrap();
    let client = wire.client(wire.cluster().server_id("att").unwrap());

    wire.cluster().net().reset();
    // Posed to `att`, both atomic sub-queries cover the research zone,
    // so at least one sub-query must cross a socket.
    let entries = client
        .query(
            "att",
            "(- (dc=att, dc=com ? sub ? surName=jagadish) \
                (dc=research, dc=att, dc=com ? sub ? surName=jagadish))",
        )
        .unwrap();
    assert_eq!(entries.len(), 1);
    assert_eq!(
        entries[0].dn().to_string(),
        "uid=jag, ou=people, dc=att, dc=com"
    );

    let snap = wire.cluster().net().snapshot();
    assert!(snap.requests > 0, "no remote sub-queries recorded");
    assert_eq!(snap.responses, snap.requests);
    assert!(snap.entries_shipped > 0, "no entries shipped");
    // Real frames: at least a 4-byte header plus payload per response.
    assert!(
        snap.bytes_shipped > snap.responses * 4,
        "bytes_shipped ({}) does not look like framed traffic",
        snap.bytes_shipped
    );
}

#[test]
fn atomic_and_search_frames_match_the_owning_store() {
    let dir = dir();
    let in_process = builder().build(&dir);
    let wire = WireCluster::launch_default(builder(), &dir).unwrap();
    let att = wire.cluster().server_id("att").unwrap();
    let client = wire.client(att);

    // Atomic and Ldap frames are answered by the daemon's own store, so
    // compare against the matching in-process zone on a base the `att`
    // partition fully owns.
    let base = dn("ou=people, dc=att, dc=com");
    let atomic = parse_atomic("surName=jagadish").unwrap();
    let got = client.atomic(&base, Scope::Sub, &atomic).unwrap();
    let want = images(in_process.store(att).atomic(&base, Scope::Sub, &atomic).unwrap());
    assert!(!want.is_empty());
    assert_eq!(encode_entries(&got), want);

    let composite = parse_composite("(&(objectClass=thing)(surName=jagadish))").unwrap();
    let got = client.search(&base, Scope::Sub, &composite).unwrap();
    let want = images(in_process.store(att).ldap(&base, Scope::Sub, &composite).unwrap());
    assert!(!want.is_empty());
    assert_eq!(encode_entries(&got), want);
}

/// Keys never cross the wire: the socket transport derives each one on
/// receipt, and it must be exactly the key the owning zone holds in
/// memory for that image — the image's own sort key.
#[test]
fn keys_derived_on_receipt_match_the_owning_zones() {
    let dir = dir();
    let in_process = builder().build(&dir);
    let wire = WireCluster::launch_default(builder(), &dir).unwrap();
    let transport = wire.cluster().router().transport();
    let filters = [parse_atomic("objectClass=thing").unwrap(), parse_atomic("surName=*").unwrap()];
    let mut checked = 0;
    for target in 0..wire.cluster().num_servers() {
        let zone = in_process.store(target);
        for filter in &filters {
            let base = zone.config.context.clone();
            let got = transport.atomic(target, 0, &base, Scope::Sub, filter).unwrap();
            let want = zone.atomic(&base, Scope::Sub, filter).unwrap();
            assert_eq!(got.entries, want, "{base}");
            for hit in &got.entries {
                let derived = Entry::page_key_of_encoded(&hit.image).unwrap().unwrap();
                assert_eq!(hit.key, derived, "{base}");
                checked += 1;
            }
        }
    }
    assert!(checked >= dir.len(), "{checked} keys checked");
}

#[test]
fn oversized_request_is_a_protocol_error_not_a_hang() {
    // Client and server agree on a small frame cap; a request that
    // exceeds it must surface as a prompt WireError::Protocol (refused
    // before any byte hits the socket), never a retry loop or a hang.
    let dir = dir();
    let max_frame = 256;
    let wire = WireCluster::launch(
        builder(),
        &dir,
        ServerOptions {
            max_frame,
            ..ServerOptions::default()
        },
        ClientOptions {
            max_frame,
            ..ClientOptions::default()
        },
    )
    .unwrap();
    let client = wire.client(wire.cluster().server_id("att").unwrap());
    let huge = format!("(dc=com ? sub ? surName={})", "x".repeat(4 * max_frame));
    let started = std::time::Instant::now();
    let err = client.query("att", &huge).unwrap_err();
    assert!(
        matches!(err, WireError::Protocol(_)),
        "expected a protocol error, got {err:?}"
    );
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "oversized request took {:?}",
        started.elapsed()
    );
    assert_eq!(client.retries(), 0, "fatal errors must not be retried");
}

#[test]
fn partial_mode_over_tcp_matches_strict_on_a_healthy_cluster() {
    // A healthy cluster answers QueryPartial with the same entries (and
    // the same bytes) a strict Query returns, with nothing skipped.
    let dir = dir();
    let wire = WireCluster::launch_default(builder(), &dir).unwrap();
    let client = wire.client(wire.cluster().server_id("att").unwrap());
    for (_, text) in level_queries() {
        let strict = client.query_encoded("att", text).unwrap();
        let outcome = client.query_partial("att", text).unwrap();
        assert!(outcome.is_complete(), "healthy cluster skipped zones: {text}");
        assert_eq!(encode_entries(&outcome.entries), strict, "partial != strict: {text}");
    }
}

#[test]
fn analyze_over_tcp_traces_every_operator_and_matches_strict() {
    // `ndquery --analyze`'s wire path: a QueryAnalyze frame returns the
    // same entries a strict Query returns, plus one span per operator
    // node with entries/pages and predicted-vs-observed I/O.
    let dir = dir();
    let wire = WireCluster::launch_default(builder(), &dir).unwrap();
    let client = wire.client(wire.cluster().server_id("att").unwrap());
    for (_, text) in level_queries() {
        let strict = client.query_encoded("att", text).unwrap();
        let (entries, trace) = client.query_analyze("att", text).unwrap();
        assert_eq!(
            encode_entries(&entries),
            strict,
            "analyzed != strict: {text}"
        );
        let query = parse_query(text).unwrap();
        assert_eq!(trace.spans.len(), query.num_nodes(), "span per node: {text}");
        assert_eq!(trace.root_entries(), entries.len() as u64, "{text}");
        // Every query here is one operator over routed leaves: the leaves
        // reach it as in-memory runs and its output fits the scratch
        // pool, so no edge occupies a page or predicts one.
        assert!(trace.spans.iter().all(|s| s.pages_out == 0), "paged edge: {text}");
        assert_eq!(trace.predicted_io, 0.0, "{text}");
        let span_io: u64 = trace.spans.iter().map(|s| s.observed_io()).sum();
        assert_eq!(trace.observed_io, span_io, "totals must reconcile: {text}");
        // The rendering carries the per-operator story end to end.
        let rendered = trace.render(netdir_obs::TimeDisplay::Show);
        assert!(rendered.starts_with("analyze: "), "{rendered}");
        assert!(rendered.contains("predicted_io="), "{rendered}");
        assert!(rendered.contains("observed_io="), "{rendered}");
        assert!(rendered.trim_end().ends_with("µs"), "{rendered}");
    }
}

#[test]
fn stats_frame_serves_every_tracked_metric() {
    let dir = dir();
    let wire = WireCluster::launch_default(builder(), &dir).unwrap();
    let client = wire.client(wire.cluster().server_id("att").unwrap());
    // Before any query: every tracked name is present (explicit zeros).
    let cold = client.stats().unwrap();
    for name in netdir_obs::names::TRACKED {
        assert!(cold.contains(name), "exposition missing {name}");
    }
    // After a distributed query: queries counted, I/O and shipping
    // nonzero.
    let (_, text) = &level_queries()[0];
    client.query("att", text).unwrap();
    let warm = client.stats().unwrap();
    let gauge = |name: &str| -> u64 {
        warm.lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no sample for {name} in:\n{warm}"))
    };
    assert!(gauge("netdir_queries_total") >= 1);
    assert!(gauge("netdir_net_requests_total") > 0, "remote fetch expected");
    assert!(gauge("netdir_net_bytes_shipped_total") > 0);
    // Intermediates that fit the scratch pool stay in memory: a small
    // query allocates no scratch page.
    assert_eq!(gauge("netdir_io_allocs_total"), 0, "an intermediate spilled");
}

#[test]
fn shutdown_cluster_refuses_further_queries() {
    let dir = dir();
    let mut wire = WireCluster::launch_default(builder(), &dir).unwrap();
    let client = wire.client(0);
    client.ping().unwrap();
    wire.shutdown();
    assert!(client.ping().is_err());
}

/// The same query posed to different home servers must agree on the
/// answer (only the shipping pattern differs) — over TCP and in-process.
#[test]
fn answers_are_home_independent() {
    let dir = dir();
    let in_process = builder().build(&dir);
    let wire = WireCluster::launch_default(builder(), &dir).unwrap();
    let pager = netdir_pager::default_pager();
    let text = "(c (dc=com ? sub ? objectClass=thing) \
                   (dc=research, dc=att, dc=com ? base ? objectClass=thing))";
    let query = parse_query(text).unwrap();

    let reference = encode_entries(&in_process.query_from("root", &pager, &query).unwrap());
    assert!(!reference.is_empty());
    for home in ["root", "att", "research", "org"] {
        let over_tcp = wire.client(wire.cluster().server_id(home).unwrap());
        assert_eq!(
            over_tcp.query_encoded(home, text).unwrap(),
            reference,
            "home {home} disagrees"
        );
    }
}

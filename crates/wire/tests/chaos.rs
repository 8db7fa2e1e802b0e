//! Seeded chaos tests: a loopback TCP cluster under deterministic fault
//! injection must degrade *predictably* — strict mode fails cleanly,
//! partial mode returns exactly the surviving partitions' entries, and
//! a fixed seed replays the whole scenario bit-identically (same retry
//! counts, same fault draws, same partial sets, same entry bytes).

use netdir_filter::{parse_atomic, Scope};
use netdir_model::{Directory, Dn};
use netdir_obs::{ManualClock, MetricsRegistry};
use netdir_query::parse_query;
use netdir_server::{
    AdmissionConfig, AdmissionController, AdmissionSnapshot, BreakerConfig, BreakerState,
    ConsistencyMode, FaultConfig, RateLimit, RetryPolicy,
};
use netdir_wire::{
    encode_entries, ClientOptions, FaultPlan, ServerOptions, WireClient, WireCluster, WireError,
};
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::{builder, dir, dn};

/// The fixture minus everything the `research` zone owns — what a
/// healthy cluster of only the surviving partitions would hold.
fn dir_without_research() -> Directory {
    let research = dn("dc=research, dc=att, dc=com");
    let mut d = Directory::new();
    for e in dir().iter_sorted() {
        if !research.sort_key().subsumes(e.dn().sort_key()) {
            d.insert(e.clone()).unwrap();
        }
    }
    d
}

/// One query per language level (all touching the research zone), plus
/// a whole-namespace sweep.
fn queries() -> Vec<&'static str> {
    vec![
        // L0: set difference of two atomic queries.
        "(- (dc=att, dc=com ? sub ? surName=jagadish) \
            (dc=research, dc=att, dc=com ? sub ? surName=jagadish))",
        // L1: entries with a child in the second set.
        "(c (dc=com ? sub ? objectClass=thing) \
            (dc=research, dc=att, dc=com ? base ? objectClass=thing))",
        // L2: aggregate over witnesses.
        "(c (dc=com ? sub ? objectClass=thing) \
            (dc=com ? sub ? objectClass=thing) \
            count($2) > 1)",
        // L3: value-based deref across the research/att zone cut.
        "(vd (dc=research, dc=att, dc=com ? sub ? objectClass=SLAPolicyRules) \
             (dc=att, dc=com ? sub ? sourcePort=25) \
             SLATPRef)",
        // Whole-namespace sweep: every surviving entry must come back.
        "(null-dn ? sub ? objectClass=thing)",
    ]
}

/// Dead partition, no random weather: strict mode fails every level,
/// partial mode answers byte-identically to a healthy cluster built
/// from the surviving partitions alone.
#[test]
fn dead_partition_degrades_to_surviving_partitions() {
    let research_id = 2; // declaration order in builder()
    let plan = FaultPlan {
        faults: FaultConfig::seeded(7).with_server_fail(research_id, 1.0),
        retry: RetryPolicy::immediate(2),
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_secs(600),
        },
    };
    let wire = WireCluster::launch_with_faults(
        builder(),
        &dir(),
        ServerOptions::default(),
        ClientOptions::default(),
        plan,
    )
    .unwrap();
    let reference = builder().build(&dir_without_research());
    // The reference's entries as the fixture holds them: a copied
    // directory numbers its entries afresh, and servers ship the
    // directory's own ids.
    let full = dir();
    let as_held = |entries: Vec<netdir_model::Entry>| {
        let held: Vec<_> = entries.iter().map(|e| full.lookup(e.dn()).unwrap().clone()).collect();
        encode_entries(&held)
    };
    let pager = netdir_pager::default_pager();
    let research_zone = dn("dc=research, dc=att, dc=com");

    for text in queries() {
        let query = parse_query(text).unwrap();
        // Strict: the dead, unreplicated zone fails the whole query.
        assert!(
            wire.cluster().query_from("att", &pager, &query).is_err(),
            "strict query should fail with a dead partition: {text}"
        );
        // Partial: byte-identical to querying the surviving partitions
        // alone, with the dead zone accounted for.
        let outcome = wire
            .cluster()
            .query_from_with("att", &pager, &query, ConsistencyMode::Partial)
            .unwrap();
        let expected = as_held(reference.query_from("att", &pager, &query).unwrap());
        assert_eq!(
            encode_entries(&outcome.entries),
            expected,
            "partial result differs from surviving-partition reference: {text}"
        );
        assert_eq!(outcome.partial.len(), 1, "one zone lost: {text}");
        assert_eq!(outcome.partial[0].zone, research_zone);
        assert_eq!(outcome.partial[0].servers, vec![research_id]);
    }

    // The breaker tripped on the dead server and the retry layer spent
    // (bounded) effort before giving up.
    let router = wire.cluster().router();
    assert_eq!(router.health().state(research_id), BreakerState::Open);
    let retry = router.retry_stats().snapshot();
    assert!(retry.retries >= 1, "no retries recorded: {retry:?}");
    assert!(retry.gave_up >= 1, "dead zone never abandoned: {retry:?}");
    // Bounded effort: 10 queries × ≤8 zone-fetches each × ≤2 attempts.
    assert!(
        retry.attempts <= 10 * 8 * 2,
        "unbounded retry effort: {retry:?}"
    );
    let faults = wire.fault_stats().unwrap().snapshot();
    assert!(faults.unreachable >= 1, "fault injection never fired");

    // The injection counters reach the daemons' Stats exposition
    // through the shared router's transport.
    let exposition = wire.client(1).stats().unwrap();
    let calls = format!("\nnetdir_fault_calls_total {}\n", faults.calls);
    assert!(faults.calls > 0 && exposition.contains(&calls), "{calls:?} in:\n{exposition}");
}

/// Per-query observation: encoded entry bytes + skipped-zone reports.
type QueryTrace = (Vec<Vec<u8>>, Vec<String>);

/// One full chaos scenario: launch under drop-rate weather with the
/// given seed, run every query in partial mode, and return everything
/// observable: per-query entry bytes + skipped zones, the retry
/// snapshot, and the fault snapshot.
fn chaos_run(
    seed: u64,
) -> (
    Vec<QueryTrace>,
    netdir_server::RetrySnapshot,
    netdir_server::FaultSnapshot,
) {
    let plan = FaultPlan {
        faults: FaultConfig::seeded(seed).with_drop_rate(0.3),
        retry: RetryPolicy::immediate(4),
        // Weather, not outage: never trip, so every fetch gets its full
        // retry budget and the draw sequence stays aligned.
        breaker: BreakerConfig {
            failure_threshold: 1_000,
            cooldown: Duration::from_secs(600),
        },
    };
    let wire = WireCluster::launch_with_faults(
        builder(),
        &dir(),
        ServerOptions::default(),
        ClientOptions::default(),
        plan,
    )
    .unwrap();
    let pager = netdir_pager::default_pager();
    let mut results = Vec::new();
    for text in queries() {
        let query = parse_query(text).unwrap();
        let outcome = wire
            .cluster()
            .query_from_with("att", &pager, &query, ConsistencyMode::Partial)
            .unwrap();
        results.push((
            encode_entries(&outcome.entries),
            outcome.partial.iter().map(|p| p.to_string()).collect(),
        ));
    }
    (
        results,
        wire.cluster().router().retry_stats().snapshot(),
        wire.fault_stats().unwrap().snapshot(),
    )
}

/// The atomic probe used to drain the admission bucket: answered by the
/// `att` daemon alone, no cross-zone fetches.
fn probe_filter() -> (Dn, netdir_filter::AtomicFilter) {
    (dn("dc=att, dc=com"), parse_atomic("surName=jagadish").unwrap())
}

/// Shed probes issued past the drained bucket in [`overloaded_run`].
const SHED_PROBES: usize = 12;

/// Rate-limit burst armed in [`overloaded_run`] — sized so the strict
/// phase never overdraws it (the run asserts this).
const BURST: u32 = 400;

/// Everything observable from one overloaded chaos scenario.
struct OverloadRun {
    /// Encoded strict answers, one per level query.
    strict: Vec<Vec<Vec<u8>>>,
    /// Encoded answers of the *accepted* drain probes, in order.
    accepted: Vec<Vec<Vec<u8>>>,
    /// Retry hints of the shed probes, in order.
    busy_hints: Vec<u32>,
    admission: AdmissionSnapshot,
    faults: netdir_server::FaultSnapshot,
}

/// One overload-under-weather scenario: every daemon shares an
/// admission controller whose token bucket sits on a *frozen* manual
/// clock (no refill — the budget is finite and exact), while the
/// inter-daemon transport drops calls under seeded weather. Phase 1
/// runs every strict query; phase 2 drains the remaining tokens with
/// sequential atomic probes until the daemon sheds with `Busy`.
fn overloaded_run(seed: u64) -> OverloadRun {
    let registry = MetricsRegistry::new();
    netdir_server::metrics::register_all(&registry);
    let admission = Arc::new(AdmissionController::new(
        AdmissionConfig {
            rate: Some(RateLimit { per_sec: 1, burst: BURST }),
            ..AdmissionConfig::default()
        },
        Arc::new(ManualClock::new()),
        &registry,
    ));
    let server_opts = ServerOptions {
        admission: Some(admission.clone()),
        ..ServerOptions::default()
    };
    let plan = FaultPlan {
        faults: FaultConfig::seeded(seed).with_drop_rate(0.3),
        retry: RetryPolicy::immediate(4),
        breaker: BreakerConfig {
            failure_threshold: 1_000,
            cooldown: Duration::from_secs(600),
        },
    };
    let wire = WireCluster::launch_with_faults(
        builder(),
        &dir(),
        server_opts,
        ClientOptions::default(),
        plan,
    )
    .unwrap();
    let pager = netdir_pager::default_pager();

    // Phase 1: strict queries under drop weather, admission armed but
    // within budget. Retries burn weather, not tokens the phase cannot
    // afford.
    let strict: Vec<Vec<Vec<u8>>> = queries()
        .iter()
        .map(|text| {
            let query = parse_query(text).unwrap();
            encode_entries(&wire.cluster().query_from("att", &pager, &query).unwrap())
        })
        .collect();

    // Phase 2: the bucket never refills, so exactly `BURST - admitted`
    // probes are still fundable; everything past that must shed.
    let after_queries = admission.snapshot();
    assert_eq!(
        after_queries.busy_rejections, 0,
        "strict phase overdrew the bucket — raise BURST"
    );
    let remaining = u64::from(BURST) - after_queries.admitted;
    let att = wire.cluster().server_id("att").unwrap();
    let probe = WireClient::connect(
        wire.addr(att),
        ClientOptions {
            retry: RetryPolicy::none(),
            pool_size: 0,
            ..ClientOptions::default()
        },
    );
    let (base, filter) = probe_filter();
    let mut accepted = Vec::new();
    let mut busy_hints = Vec::new();
    for _ in 0..remaining as usize + SHED_PROBES {
        match probe.atomic_counted(&base, Scope::Sub, &filter) {
            Ok((bytes, _)) => accepted.push(bytes),
            Err(WireError::Busy { retry_after_ms }) => busy_hints.push(retry_after_ms),
            Err(e) => panic!("probe failed with a non-admission error: {e}"),
        }
    }
    OverloadRun {
        strict,
        accepted,
        busy_hints,
        admission: admission.snapshot(),
        faults: wire.fault_stats().unwrap().snapshot(),
    }
}

/// Under injected faults *and* admission limits, every accepted strict
/// answer is byte-identical to a no-overload, no-weather baseline; the
/// drained bucket sheds exactly and the whole scenario — accepted
/// bytes, shed counts, retry hints, fault draws — replays
/// bit-identically under the same seed.
#[test]
fn admission_under_chaos_answers_exactly_and_sheds_reproducibly() {
    // No-overload baseline: same cluster shape, no faults, no limits.
    let baseline = WireCluster::launch_default(builder(), &dir()).unwrap();
    let pager = netdir_pager::default_pager();
    let strict_baseline: Vec<Vec<Vec<u8>>> = queries()
        .iter()
        .map(|text| {
            let query = parse_query(text).unwrap();
            encode_entries(&baseline.cluster().query_from("att", &pager, &query).unwrap())
        })
        .collect();
    let att = baseline.cluster().server_id("att").unwrap();
    let (base, filter) = probe_filter();
    let (probe_baseline, _) = baseline
        .client(att)
        .atomic_counted(&base, Scope::Sub, &filter)
        .unwrap();
    drop(baseline);

    let a = overloaded_run(77);

    // Accepted answers are exact: overload shapes *whether* a request
    // is served, never *what* an accepted one sees.
    assert_eq!(a.strict, strict_baseline, "strict bytes drifted under overload");
    assert!(!a.accepted.is_empty(), "bucket left no room for accepted probes");
    for bytes in &a.accepted {
        assert_eq!(bytes, &probe_baseline, "accepted probe bytes drifted");
    }

    // The bucket drained exactly: every probe past `remaining` shed,
    // none before it, and the accounting matches the arithmetic.
    assert_eq!(a.busy_hints.len(), SHED_PROBES, "shedding started early or late");
    assert_eq!(a.admission.admitted, u64::from(BURST));
    assert_eq!(a.admission.busy_rejections, SHED_PROBES as u64);
    assert_eq!(a.admission.rate_limited, SHED_PROBES as u64);
    assert_eq!(a.admission.inflight, 0, "admission slots leaked");

    // The weather was real, and the whole scenario replays bit-for-bit.
    assert!(a.faults.dropped > 0, "seed 77 never dropped a call");
    let b = overloaded_run(77);
    assert_eq!(a.strict, b.strict, "strict bytes diverged across replays");
    assert_eq!(a.accepted, b.accepted, "accepted probe bytes diverged");
    assert_eq!(a.busy_hints, b.busy_hints, "Busy accounting diverged");
    assert_eq!(a.admission, b.admission, "admission counters diverged");
    assert_eq!(a.faults, b.faults, "fault draws diverged");
}

/// The same seed must replay the whole scenario bit-identically across
/// two fresh clusters: same entry bytes, same skipped zones, same retry
/// counts, same fault draws.
#[test]
fn seeded_chaos_is_bit_reproducible() {
    let (results_a, retry_a, faults_a) = chaos_run(42);
    let (results_b, retry_b, faults_b) = chaos_run(42);
    assert_eq!(results_a, results_b, "entry bytes or skips diverged");
    assert_eq!(retry_a, retry_b, "retry counters diverged");
    assert_eq!(faults_a, faults_b, "fault draws diverged");
    // The weather was real (drops happened, retries fought them) and
    // the effort stayed bounded — otherwise this test proves nothing.
    assert!(faults_a.dropped > 0, "seed 42 never dropped a call");
    assert!(retry_a.retries > 0, "drops never cost a retry");
    assert!(
        retry_a.attempts <= faults_a.calls,
        "more zone attempts than transport calls: {retry_a:?} vs {faults_a:?}"
    );
    // A different seed draws different weather.
    let (_, _, faults_c) = chaos_run(43);
    assert_ne!(faults_a, faults_c, "different seeds drew identical faults");
}

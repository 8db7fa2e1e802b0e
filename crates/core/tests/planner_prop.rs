//! Property suite for the cost-based planner (ISSUE 9).
//!
//! For seeded random forests × random L0–L3 query trees:
//!
//! * the planned query's output is **byte-identical** to the naive
//!   query's (same entries, same reverse-DN order);
//! * the planned query's cold-cache page-read ledger never exceeds the
//!   naive query's;
//! * the Theorem 8.2(d) `a`/`d` → `ac`/`dc` rewrite with the paper's
//!   `(- X X)` whole-directory operand — the blow-up E11 measures — is
//!   enumerated as a candidate but **never chosen**, and queries arriving
//!   already in that form are repaired.

use netdir_index::IndexedDirectory;
use netdir_model::{Directory, Dn, Entry};
use netdir_pager::Pager;
use netdir_query::planner::{ObservingSource, Step};
use netdir_query::{parse_query, Evaluator, Planner, Query};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn dn(s: &str) -> Dn {
    Dn::parse(s).unwrap()
}

/// A random directory tree: ~`n` entries under `dc=test`, tagged with a
/// `kind` attribute and sprinkled with DN-valued `ref` attributes so that
/// every operator family has real work to do.
fn random_directory(rng: &mut StdRng, n: usize) -> (Directory, Vec<Dn>) {
    let mut d = Directory::new();
    let root = dn("dc=test");
    d.insert(Entry::builder(root.clone()).class("thing").build().unwrap())
        .unwrap();
    let mut dns = vec![root];
    for i in 0..n {
        let parent = dns[rng.gen_range(0..dns.len())].clone();
        let child = dn(&format!("n=e{i}, {parent}"));
        let kind = ["red", "blue", "green"][rng.gen_range(0..3)];
        let mut b = Entry::builder(child.clone())
            .class("thing")
            .attr("kind", kind)
            .attr("weight", rng.gen_range(0..6) as i64);
        if rng.gen_bool(0.3) {
            let target = dns[rng.gen_range(0..dns.len())].clone();
            b = b.attr("ref", target);
        }
        d.insert(b.build().unwrap()).unwrap();
        dns.push(child);
    }
    (d, dns)
}

/// A random atomic query (L0 leaf).
fn random_atom(rng: &mut StdRng, dns: &[Dn]) -> String {
    let base = &dns[rng.gen_range(0..dns.len().min(20))];
    let scope = ["base", "one", "sub"][rng.gen_range(0..3)];
    let filter = match rng.gen_range(0..5) {
        0 => "kind=red".to_string(),
        1 => "kind=blue".to_string(),
        2 => "objectClass=thing".to_string(),
        3 => format!("weight={}", rng.gen_range(0..6)),
        _ => "ref=*".to_string(),
    };
    format!("({base} ? {scope} ? {filter})")
}

/// A random query tree of the given depth spanning L0–L3 operators.
fn random_tree(rng: &mut StdRng, dns: &[Dn], depth: usize) -> String {
    if depth == 0 {
        return random_atom(rng, dns);
    }
    let sub = |rng: &mut StdRng| random_tree(rng, dns, depth - 1);
    match rng.gen_range(0..8) {
        0 => format!("(& {} {})", sub(rng), sub(rng)),
        1 => format!("(| {} {})", sub(rng), sub(rng)),
        2 => format!("(- {} {})", sub(rng), sub(rng)),
        3 => {
            let op = ["p", "c", "a", "d"][rng.gen_range(0..4)];
            format!("({op} {} {})", sub(rng), sub(rng))
        }
        4 => {
            let op = ["p", "c", "a", "d"][rng.gen_range(0..4)];
            format!("({op} {} {} count($2) > {})", sub(rng), sub(rng), rng.gen_range(0..2))
        }
        5 => {
            let op = ["ac", "dc"][rng.gen_range(0..2)];
            format!("({op} {} {} {})", sub(rng), sub(rng), sub(rng))
        }
        6 => format!("(g {} count($1) > {})", sub(rng), rng.gen_range(0..2)),
        _ => {
            let op = ["vd", "dv"][rng.gen_range(0..2)];
            format!("({op} {} {} ref)", sub(rng), sub(rng))
        }
    }
}

/// Evaluate `q` against `idx` with a cold page cache and a fresh ledger;
/// returns (entries, pages read).
fn cold_eval(pager: &Pager, idx: &IndexedDirectory, q: &Query) -> (Vec<Entry>, u64) {
    pager.flush().unwrap();
    pager.pool().clear_cache().unwrap();
    pager.reset_io();
    let out = Evaluator::new(idx, pager)
        .evaluate(q)
        .unwrap()
        .to_vec()
        .unwrap();
    (out, pager.io().reads)
}

#[test]
fn planned_queries_are_byte_identical_and_read_no_more_pages() {
    let mut checked = 0usize;
    let mut transformed = 0usize;
    for seed in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(0x9A7E5 + seed);
        let (dir, dns) = random_directory(&mut rng, 80);
        let pager = Pager::new(512, 64);
        let idx = IndexedDirectory::build(&pager, &dir).unwrap();
        let planner = Planner::new();

        for _ in 0..5 {
            let depth = rng.gen_range(1..4);
            let text = random_tree(&mut rng, &dns, depth);
            let q = parse_query(&text).unwrap_or_else(|e| panic!("parse {text}: {e}"));

            // Training pass: a naive evaluation through an observing
            // source populates the stats catalog with this tree's real
            // atomic list sizes (some agg trees are rejected — skip).
            let observing = ObservingSource::new(&idx, planner.catalog(), &pager);
            if Evaluator::new(&observing, &pager).evaluate(&q).is_err() {
                continue;
            }

            let planned = planner.plan(&q);
            assert!(
                planned.predicted_chosen <= planned.predicted_naive + 1e-9,
                "chosen plan predicted costlier than naive for {text}"
            );
            let (naive_out, naive_reads) = cold_eval(&pager, &idx, &q);
            let (planned_out, planned_reads) = cold_eval(&pager, &idx, &planned.query);
            assert_eq!(
                naive_out, planned_out,
                "planned output diverged for {text} → {}",
                planned.query
            );
            assert!(
                planned_reads <= naive_reads,
                "planned ledger regressed for {text} → {}: {planned_reads} > {naive_reads}",
                planned.query
            );
            checked += 1;
            if !planned.steps.is_empty() {
                transformed += 1;
            }
        }
    }
    assert!(checked >= 40, "only {checked} trees exercised the property");
    assert!(
        transformed >= 5,
        "suite never exercised a non-identity plan ({transformed})"
    );
}

#[test]
fn ruinous_rewrite_is_never_chosen_and_gets_repaired() {
    let mut rng = StdRng::seed_from_u64(0xE11);
    let (dir, dns) = random_directory(&mut rng, 80);
    let pager = Pager::new(512, 64);
    let idx = IndexedDirectory::build(&pager, &dir).unwrap();
    let planner = Planner::new();

    let whole = "(null-dn ? sub ? objectClass=*)";
    for _ in 0..12 {
        let op = ["a", "d"][rng.gen_range(0..2)];
        let (a1, a2) = (random_atom(&mut rng, &dns), random_atom(&mut rng, &dns));

        // Plain a/d: the constrained rewrite is a candidate, but the
        // whole-directory empty operand must price it out.
        let plain = parse_query(&format!("({op} {a1} {a2})")).unwrap();
        let chosen = planner.plan(&plain);
        assert!(
            chosen
                .steps
                .iter()
                .all(|s| !matches!(s, Step::RewriteConstrained { .. })),
            "planner chose the ruinous rewrite for ({op} {a1} {a2}): {:?}",
            chosen.steps
        );

        // The same query arriving pre-rewritten with the paper's
        // (- X X) operand gets repaired, and the repair pays off on the
        // real ledger, not just in the estimate.
        let pop = if op == "a" { "ac" } else { "dc" };
        let legacy =
            parse_query(&format!("({pop} {a1} {a2} (- {whole} {whole}))")).unwrap();
        let repaired = planner.plan(&legacy);
        assert!(
            !repaired.steps.is_empty(),
            "planner left the (- X X) operand in place for {legacy}"
        );
        assert!(repaired.predicted_chosen < repaired.predicted_naive);
        let (legacy_out, legacy_reads) = cold_eval(&pager, &idx, &legacy);
        let (repaired_out, repaired_reads) = cold_eval(&pager, &idx, &repaired.query);
        assert_eq!(legacy_out, repaired_out, "repair changed bytes for {legacy}");
        assert!(
            repaired_reads < legacy_reads,
            "repair did not pay off for {legacy}: {repaired_reads} vs {legacy_reads}"
        );
    }
}

#[test]
fn template_traffic_replays_cached_plans_verbatim() {
    let mut rng = StdRng::seed_from_u64(0xCAC4E);
    let (dir, dns) = random_directory(&mut rng, 60);
    let pager = Pager::new(512, 64);
    let idx = IndexedDirectory::build(&pager, &dir).unwrap();
    let planner = Planner::new();

    let template = |v: &str, dns: &[Dn]| {
        format!(
            "(& (& ({} ? sub ? objectClass=thing) ({} ? sub ? weight>=0)) \
                ({} ? sub ? kind={v}))",
            dns[0], dns[0], dns[0]
        )
    };
    // Train on the template's atoms, then plan twice with different
    // constants: the second must be a cache hit with the same steps and
    // identical bytes.
    let first_q = parse_query(&template("red", &dns)).unwrap();
    let observing = ObservingSource::new(&idx, planner.catalog(), &pager);
    Evaluator::new(&observing, &pager).evaluate(&first_q).unwrap();

    let first = planner.plan(&first_q);
    assert!(!first.cache_hit);
    let second_q = parse_query(&template("blue", &dns)).unwrap();
    let second = planner.plan(&second_q);
    assert!(second.cache_hit, "template shape missed the plan cache");
    assert_eq!(first.steps, second.steps, "replayed steps drifted");
    let (naive_out, _) = cold_eval(&pager, &idx, &second_q);
    let (planned_out, _) = cold_eval(&pager, &idx, &second.query);
    assert_eq!(naive_out, planned_out);
    let snap = planner.snapshot();
    assert_eq!(snap.cache_hits, 1);
    assert_eq!(snap.cache_misses, 1);
}

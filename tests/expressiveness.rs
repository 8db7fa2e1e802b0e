//! Theorems 8.1 and 8.2 exercised: the language hierarchy's witnesses run
//! and behave as the separation arguments say; the `ac`/`dc` rewrites of
//! Theorem 8.2(d) compute the same answers as the plain operators (on
//! instances where every ancestor is present — see `rewrite.rs` docs),
//! and repairing a rewritten tree gives back its `a`/`d` operators.

use netdir::index::IndexedDirectory;
use netdir::model::{Directory, Dn, Entry};
use netdir::pager::Pager;
use netdir::query::ast::HierOp;
use netdir::query::rewrite::{repair, rewrite_tree, rewrite_via_constrained};
use netdir::query::{classify, parse_query, Evaluator, Language, Query};
use netdir::filter::{AtomicFilter, Scope};
use netdir::workloads::{synth_forest, SynthParams};

fn dn(s: &str) -> Dn {
    Dn::parse(s).unwrap()
}

fn indexed(dir: &Directory) -> (IndexedDirectory, Pager) {
    let pager = Pager::new(2048, 32);
    let idx = IndexedDirectory::build(&pager, dir).unwrap();
    (idx, pager)
}

#[test]
fn witnesses_run_and_classify() {
    // Build a directory where each witness query returns something.
    let mut d = Directory::new();
    let mut add = |e: Entry| d.insert(e).unwrap();
    for s in ["dc=com", "dc=att, dc=com", "dc=research, dc=att, dc=com"] {
        add(Entry::builder(dn(s)).class("dcObject").build().unwrap());
    }
    add(Entry::builder(dn("ou=u, dc=att, dc=com"))
        .class("organizationalUnit")
        .build()
        .unwrap());
    add(Entry::builder(dn("uid=jag, ou=u, dc=att, dc=com"))
        .class("inetOrgPerson")
        .attr("surName", "jagadish")
        .build()
        .unwrap());
    add(Entry::builder(dn("uid=sub, ou=u, dc=att, dc=com"))
        .class("TOPSSubscriber")
        .build()
        .unwrap());
    for q in 0..12 {
        add(Entry::builder(dn(&format!("QHPName=q{q}, uid=sub, ou=u, dc=att, dc=com")))
            .class("QHP")
            .build()
            .unwrap());
    }
    add(Entry::builder(dn("TPName=t, ou=u, dc=att, dc=com"))
        .class("trafficProfile")
        .build()
        .unwrap());
    add(Entry::builder(dn("SLAPolicyName=p, ou=u, dc=att, dc=com"))
        .class("SLAPolicyRules")
        .attr("SLATPRef", dn("TPName=t, ou=u, dc=att, dc=com"))
        .build()
        .unwrap());

    let (idx, pager) = indexed(&d);
    let ev = Evaluator::new(&idx, &pager);
    for (lang, query, why) in netdir::query::lang::witnesses() {
        assert_eq!(classify(&query), lang, "{why}");
        let out = ev.evaluate(&query).unwrap();
        assert!(
            !out.is_empty(),
            "witness for {lang} returned nothing ({why}): {query}"
        );
    }
}

#[test]
fn languages_strictly_ordered() {
    assert!(Language::Ldap < Language::L0);
    assert!(Language::L0 < Language::L1);
    assert!(Language::L1 < Language::L2);
    assert!(Language::L2 < Language::L3);
}

#[test]
fn theorem_8_2d_rewrites_agree_on_complete_forest() {
    // synth_forest attaches children to existing parents, so every
    // ancestor is present — the regime where the rewrite is exact.
    let dir = synth_forest(
        SynthParams {
            entries: 400,
            max_depth: 6,
            red_fraction: 0.4,
            blue_fraction: 0.4,
        },
        3,
    );
    let (idx, pager) = indexed(&dir);
    let ev = Evaluator::new(&idx, &pager);
    let red = Query::atomic(dn("dc=synth"), Scope::Sub, AtomicFilter::eq("kind", "red"));
    let blue = Query::atomic(dn("dc=synth"), Scope::Sub, AtomicFilter::eq("kind", "blue"));
    for op in [
        HierOp::Parents,
        HierOp::Children,
        HierOp::Ancestors,
        HierOp::Descendants,
    ] {
        let plain = Query::hier(op, red.clone(), blue.clone());
        let rewritten = rewrite_via_constrained(op, red.clone(), blue.clone());
        let a = ev.evaluate(&plain).unwrap().to_vec().unwrap();
        let b = ev.evaluate(&rewritten).unwrap().to_vec().unwrap();
        let keys = |v: &[Entry]| -> Vec<String> {
            v.iter().map(|e| e.dn().to_string()).collect()
        };
        assert_eq!(keys(&a), keys(&b), "{op:?} rewrite disagrees");
        assert!(!a.is_empty() || op == HierOp::Parents, "{op:?} vacuous");
    }
}

#[test]
fn rewrite_tree_preserves_semantics_but_grows_cost() {
    let dir = synth_forest(SynthParams::default(), 5);
    let (idx, pager) = indexed(&dir);
    let ev = Evaluator::new(&idx, &pager);
    let red = Query::atomic(dn("dc=synth"), Scope::Sub, AtomicFilter::eq("kind", "red"));
    let blue = Query::atomic(dn("dc=synth"), Scope::Sub, AtomicFilter::eq("kind", "blue"));
    let q = Query::hier(HierOp::Parents, red, blue);
    let rw = rewrite_tree(&q);

    pager.reset_io();
    let a = ev.evaluate(&q).unwrap().to_vec().unwrap();
    let plain_io = pager.io().total();
    pager.reset_io();
    let b = ev.evaluate(&rw).unwrap().to_vec().unwrap();
    let rewrite_io = pager.io().total();

    assert_eq!(a, b);
    // §8.1: the rewrite's third operand is the whole directory → its
    // evaluation must be strictly more expensive.
    assert!(
        rewrite_io > plain_io,
        "rewrite I/O {rewrite_io} not above plain {plain_io}"
    );
}

#[test]
fn repairing_the_rewrite_gives_back_a_and_d_byte_for_byte() {
    let dir = synth_forest(SynthParams::default(), 7);
    let (idx, pager) = indexed(&dir);
    let ev = Evaluator::new(&idx, &pager);
    let (red, blue) = ("(dc=synth ? sub ? kind=red)", "(dc=synth ? sub ? kind=blue)");
    let q = parse_query(&format!(
        "(& (a {red} {blue}) (| (d {blue} {red} count($2) > 1) (p {red} {blue})))"
    ))
    .unwrap();
    let rewritten = rewrite_tree(&q);
    let repaired = repair(&rewritten);
    // The `a` and `d` nodes come back as written; `p` keeps its `ac`
    // form, whose whole-directory blocker may hold entries.
    let (Query::And(a, rest), Query::And(ra, rrest)) = (&q, &repaired) else {
        panic!("repair changed the root: {repaired}");
    };
    let (Query::Or(d, p), Query::Or(rd, rp)) = (rest.as_ref(), rrest.as_ref()) else {
        panic!("repair changed the union: {repaired}");
    };
    assert_eq!(ra, a);
    assert_eq!(rd, d);
    assert_eq!(rp.as_ref(), &rewrite_tree(p));
    let answer = |q: &Query| ev.evaluate(q).unwrap().to_vec().unwrap();
    let want = answer(&q);
    assert!(!want.is_empty(), "the check compares real answers");
    assert_eq!(answer(&rewritten), want);
    assert_eq!(answer(&repaired), want);
}

#[test]
fn ldap_cannot_mix_bases_but_l0_can() {
    // The operational content of LDAP ⊂ L0: the one-base-one-scope
    // baseline returns a superset that the application must post-process;
    // the L0 difference query answers directly.
    let mut d = Directory::new();
    for s in ["dc=com", "dc=att, dc=com", "dc=research, dc=att, dc=com"] {
        d.insert(Entry::builder(dn(s)).class("dcObject").build().unwrap())
            .unwrap();
    }
    for (uid, parent) in [
        ("a", "dc=att, dc=com"),
        ("b", "dc=research, dc=att, dc=com"),
    ] {
        d.insert(
            Entry::builder(dn(&format!("uid={uid}, {parent}")))
                .class("person")
                .attr("surName", "jagadish")
                .build()
                .unwrap(),
        )
        .unwrap();
    }
    let (idx, pager) = indexed(&d);
    // Baseline: any single base covering uid=a also covers uid=b.
    let ldap = netdir::filter::LdapQuery::new(
        dn("dc=att, dc=com"),
        Scope::Sub,
        netdir::filter::CompositeFilter::atomic(AtomicFilter::eq("surName", "jagadish")),
    );
    let baseline = idx.evaluate_ldap(&ldap).unwrap();
    assert_eq!(baseline.len(), 2, "baseline over-returns");
    // L0 answers exactly.
    let exact = netdir::query::run_query(
        &idx,
        &pager,
        "(- (dc=att, dc=com ? sub ? surName=jagadish) \
           (dc=research, dc=att, dc=com ? sub ? surName=jagadish))",
    )
    .unwrap();
    assert_eq!(exact.len(), 1);
}

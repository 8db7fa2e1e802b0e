//! The seeded forest and L0–L3 query generator the differential tests
//! share.

use netdir::model::{Directory, Dn, Entry};
use netdir::server::ClusterBuilder;
use rand::rngs::StdRng;
use rand::Rng;

pub fn dn(s: &str) -> Dn {
    Dn::parse(s).unwrap()
}

/// A seeded forest under `dc=test`: `kind`, `weight` and DN-valued `ref`
/// attributes give every operator family work to do.
pub fn random_forest(rng: &mut StdRng, n: usize) -> (Directory, Vec<Dn>) {
    let mut d = Directory::new();
    let root = dn("dc=test");
    d.insert(Entry::builder(root.clone()).class("thing").build().unwrap())
        .unwrap();
    let mut dns = vec![root];
    for i in 0..n {
        let parent = dns[rng.gen_range(0..dns.len())].clone();
        let child = dn(&format!("n=e{i}, {parent}"));
        d.insert(random_entry(rng, child.clone(), &dns)).unwrap();
        dns.push(child);
    }
    (d, dns)
}

/// Three zones over a `random_forest`: `dc=test` and the first two
/// subtrees cut out of it, the second replicated on a secondary.
pub fn three_zones(dns: &[Dn]) -> ClusterBuilder {
    let cuts: Vec<Dn> = dns[1..]
        .iter()
        .filter(|d| d.depth() == 2 && dns.iter().any(|o| d.is_parent_of(o)))
        .take(2)
        .cloned()
        .collect();
    assert_eq!(cuts.len(), 2, "the forest has two subtrees to cut");
    ClusterBuilder::new()
        .server("root", dn("dc=test"))
        .server("z0", cuts[0].clone())
        .server("z1", cuts[1].clone())
        .secondary("z1-copy", cuts[1].clone())
}

/// An entry named `dn` with random attributes, referring into `dns`.
pub fn random_entry(rng: &mut StdRng, dn: Dn, dns: &[Dn]) -> Entry {
    let mut b = Entry::builder(dn)
        .class("thing")
        .attr("kind", ["red", "blue", "green"][rng.gen_range(0..3)])
        .attr("weight", rng.gen_range(0..6) as i64);
    if rng.gen_bool(0.3) {
        b = b.attr("ref", dns[rng.gen_range(0..dns.len())].clone());
    }
    b.build().unwrap()
}

/// A random L0–L3 query tree of `depth` over bases drawn from `dns`.
pub fn random_query(rng: &mut StdRng, dns: &[Dn], depth: usize) -> String {
    if depth == 0 {
        // Bases near the top, where subtrees span zones.
        let base = &dns[rng.gen_range(0..dns.len().min(12))];
        let scope = ["base", "one", "sub", "sub"][rng.gen_range(0..4)];
        let filter = [
            "kind=red",
            "kind=blue",
            "objectClass=thing",
            "weight<=2",
            "ref=*",
        ][rng.gen_range(0..5)];
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
            format!(
                "({op} {} {} count($2) > {})",
                sub(rng),
                sub(rng),
                rng.gen_range(0..2)
            )
        }
        5 => format!("(g {} count($1) > {})", sub(rng), rng.gen_range(0..2)),
        _ => {
            let op = ["vd", "dv"][rng.gen_range(0..2)];
            format!("({op} {} {} ref)", sub(rng), sub(rng))
        }
    }
}

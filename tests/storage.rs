//! The storage engine's two claims, run from the root suite.
//!
//! `crates/pager/tests/scan_resistance.rs`: under a seeded scan-vs-point
//! workload, the two-queue pool keeps the hot set resident (hit rate
//! ≥ 0.9) where plain LRU loses it to every scan burst.
//!
//! Below: the prefix-compressed v2 page format cuts the cold page reads
//! of an L0–L3 query suite by at least 20 % against v1, with the same
//! answers byte for byte (EXPERIMENTS.md E18).

#[path = "../crates/pager/tests/scan_resistance.rs"]
mod scan_resistance;

use netdir_index::IndexedDirectory;
use netdir_model::{Directory, Dn, Entry};
use netdir_pager::{PageFormat, Pager, PoolConfig};
use netdir_query::{parse_query, Evaluator};

const ZONES: usize = 8;
const PER_ZONE: usize = 12;

fn dn(s: &str) -> Dn {
    Dn::parse(s).expect("suite DN")
}

/// An 8-zone forest under `dc=bench`. Zone `i`'s entries alternate
/// `kind=red`/`kind=blue`, and every third entry carries a DN-valued
/// `ref` into zone `i+1`, so boolean, hierarchy, aggregate and
/// embedded-reference operators all have real work.
fn zoned_forest() -> Directory {
    let mut d = Directory::new();
    let mut add = |e: Entry| d.insert(e).expect("suite entry");
    add(Entry::builder(dn("dc=bench")).class("thing").build().expect("root"));
    for z in 0..ZONES {
        add(
            Entry::builder(dn(&format!("ou=z{z}, dc=bench")))
                .class("thing")
                .build()
                .expect("zone"),
        );
    }
    for z in 0..ZONES {
        for j in 0..PER_ZONE {
            let kind = if j % 2 == 0 { "red" } else { "blue" };
            let mut b = Entry::builder(dn(&format!("n=e{j}, ou=z{z}, dc=bench")))
                .class("thing")
                .attr("kind", kind)
                .attr("weight", (j % 5) as i64)
                .attr("pad", "x".repeat(64 + (j * 7) % 64));
            if j % 3 == 0 {
                b = b.attr("ref", dn(&format!("ou=z{}, dc=bench", (z + 1) % ZONES)));
            }
            add(b.build().expect("leaf"));
        }
    }
    d
}

/// Binary-tree union of one `filter` leaf per zone in `zones`.
fn union(zones: std::ops::Range<usize>, filter: &str) -> String {
    fn tree(atoms: &[String]) -> String {
        match atoms {
            [one] => one.clone(),
            _ => {
                let (a, b) = atoms.split_at(atoms.len() / 2);
                format!("(| {} {})", tree(a), tree(b))
            }
        }
    }
    let atoms: Vec<String> = zones
        .map(|z| format!("(ou=z{z}, dc=bench ? sub ? {filter})"))
        .collect();
    tree(&atoms)
}

/// One query per language level, each fanning out to a leaf atom per
/// zone.
fn level_queries() -> [String; 4] {
    let (lo, hi) = (0..ZONES / 2, ZONES / 2..ZONES);
    [
        union(0..ZONES, "kind=red"),
        format!(
            "(p {} {})",
            union(lo.clone(), "kind=red"),
            union(lo.clone(), "objectClass=thing")
        ),
        format!(
            "(c {} {} count($2) > 0)",
            union(hi.clone(), "objectClass=thing"),
            union(hi.clone(), "kind=blue")
        ),
        format!(
            "(vd {} {} ref)",
            union(lo, "ref=*"),
            union(hi, "objectClass=thing")
        ),
    ]
}

/// Evaluate the L0–L3 queries on a pager writing `format`, each from a
/// cold pool, and return the answers, the cold page reads, and the
/// bytes the format saved against v1 encoding.
fn run_cold(format: PageFormat) -> (Vec<Vec<Entry>>, u64, u64) {
    let pager = Pager::custom(512, PoolConfig::new(4096), format);
    let idx = IndexedDirectory::build(&pager, &zoned_forest()).expect("build index");
    let ev = Evaluator::new(&idx, &pager);
    pager.flush().expect("flush index");
    pager.reset_io();
    let answers = level_queries()
        .iter()
        .map(|text| {
            // Every level starts cold, so the ledger counts the page
            // footprint, not what the pool kept from the level before.
            pager.flush().expect("flush between levels");
            pager.pool().clear_cache().expect("cold level");
            let query = parse_query(text).expect("parse level query");
            ev.evaluate(&query).expect("evaluate").to_vec().expect("materialize")
        })
        .collect();
    let saved = pager.pool().metrics().compressed_bytes_saved;
    (answers, pager.io().reads, saved)
}

#[test]
fn v2_pages_cut_cold_reads_by_a_fifth_with_identical_answers() {
    let (v1_answers, v1_reads, v1_saved) = run_cold(PageFormat::V1);
    let (v2_answers, v2_reads, v2_saved) = run_cold(PageFormat::V2);
    assert!(v1_answers.iter().all(|a| !a.is_empty()), "a level answered nothing");
    assert_eq!(v1_answers, v2_answers, "the v2 page format changed an answer");
    assert_eq!(v1_saved, 0, "a v1 pager credited compression savings");
    assert!(v2_saved > 0, "a v2 pager saved no bytes over v1 encoding");
    assert_eq!(run_cold(PageFormat::V2).1, v2_reads, "cold reads vary run to run");
    // 5 × v2 ≤ 4 × v1: at least 20 % fewer cold reads.
    assert!(
        5 * v2_reads <= 4 * v1_reads,
        "v2 read {v2_reads} cold pages against v1's {v1_reads}: less than a 20 % cut"
    );
}

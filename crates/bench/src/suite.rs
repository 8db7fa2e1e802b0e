//! The L0–L3 zone fan-out suite the storage sweep evaluates (the
//! `"storage"` section of `BENCH_*.json`).
//!
//! A deterministic forest of `zones` zones under `dc=bench`, and one
//! query per language level whose operands are unions of one leaf atom
//! per zone, so every operator family has real work.

use netdir_model::{Directory, Dn, Entry};

/// The suite's size.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Directory zones (one per leaf atom of the widest query).
    pub zones: usize,
    /// Entries per zone.
    pub per_zone: usize,
}

/// The seconds-scale configuration behind `--smoke` and the unit test.
pub fn smoke_config() -> SuiteConfig {
    SuiteConfig {
        zones: 8,
        per_zone: 12,
    }
}

/// The configuration a full `run_experiments` run uses.
pub fn full_config() -> SuiteConfig {
    SuiteConfig {
        zones: 8,
        per_zone: 48,
    }
}

fn dn(s: &str) -> Dn {
    Dn::parse(s).expect("suite DN")
}

/// A deterministic `zones`-ary forest under `dc=bench`. Zone `i`'s
/// entries alternate `kind=red`/`kind=blue`, and every third entry
/// carries a DN-valued `ref` into zone `i+1` — so boolean, hierarchy,
/// aggregate and embedded-reference operators all have real work.
pub fn bench_directory(cfg: &SuiteConfig) -> Directory {
    let mut d = Directory::new();
    let mut add = |e: Entry| d.insert(e).expect("suite entry");
    add(Entry::builder(dn("dc=bench")).class("thing").build().expect("root"));
    for z in 0..cfg.zones {
        add(
            Entry::builder(dn(&format!("ou=z{z}, dc=bench")))
                .class("thing")
                .build()
                .expect("zone"),
        );
    }
    for z in 0..cfg.zones {
        for j in 0..cfg.per_zone {
            let kind = if j % 2 == 0 { "red" } else { "blue" };
            let mut b = Entry::builder(dn(&format!("n=e{j}, ou=z{z}, dc=bench")))
                .class("thing")
                .attr("kind", kind)
                .attr("weight", (j % 5) as i64)
                .attr("pad", "x".repeat(64 + (j * 7) % 64));
            if j % 3 == 0 {
                b = b.attr("ref", dn(&format!("ou=z{}, dc=bench", (z + 1) % cfg.zones)));
            }
            add(b.build().expect("leaf"));
        }
    }
    d
}

/// Binary-tree union of `atoms`.
fn union(atoms: &[String]) -> String {
    match atoms {
        [one] => one.clone(),
        _ => {
            let (a, b) = atoms.split_at(atoms.len() / 2);
            format!("(| {} {})", union(a), union(b))
        }
    }
}

fn atoms(zones: std::ops::Range<usize>, filter: &str) -> Vec<String> {
    zones
        .map(|z| format!("(ou=z{z}, dc=bench ? sub ? {filter})"))
        .collect()
}

/// One query per language level, each fanning out to eight leaf atoms
/// over distinct zones.
pub fn suite_queries(cfg: &SuiteConfig) -> Vec<(&'static str, String)> {
    let z = cfg.zones;
    let (lo, hi) = (0..z / 2, z / 2..z);
    vec![
        ("L0", union(&atoms(0..z, "kind=red"))),
        (
            "L1",
            format!(
                "(p {} {})",
                union(&atoms(lo.clone(), "objectClass=thing")),
                union(&atoms(lo.clone(), "kind=red"))
            ),
        ),
        (
            "L2",
            format!(
                "(c {} {} count($2) > 0)",
                union(&atoms(hi.clone(), "objectClass=thing")),
                union(&atoms(hi.clone(), "kind=blue"))
            ),
        ),
        (
            "L3",
            format!(
                "(vd {} {} ref)",
                union(&atoms(lo, "ref=*")),
                union(&atoms(hi, "objectClass=thing"))
            ),
        ),
    ]
}

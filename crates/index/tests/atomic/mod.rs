//! The differential core of the atomic-evaluation tests: seeded
//! forests, filters of every kind, bases on every edge of the range
//! arithmetic, and the checks that hold every answer byte-identical to
//! the oracle `iter_sorted().filter(scope.contains && filter.matches)`.
//!
//! `atomic_prop` runs it at full case counts. The workspace root's
//! `tests/index.rs` includes this module and runs it at a reduced count,
//! so the root test suite covers the index too.

use netdir_filter::atomic::IntOp;
use netdir_filter::{parse_atomic, AtomicFilter, CompositeFilter, Scope};
use netdir_index::{AtomicCost, Delta, DeltaWrite, IndexedDirectory};
use netdir_model::{Directory, Dn, Entry, Rdn};
use netdir_pager::record::Record;
use netdir_pager::{PagedList, Pager};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

pub const SCOPES: [Scope; 3] = [Scope::Base, Scope::One, Scope::Sub];

/// A pager constructor by page format: `Pager::new` (v1) or
/// `Pager::compressed` (v2).
pub type Format = fn(usize, usize) -> Pager;

pub fn dn(s: &str) -> Dn {
    Dn::parse(s).unwrap()
}

pub fn encoded(e: &Entry) -> Vec<u8> {
    let mut buf = Vec::new();
    e.encode(&mut buf);
    buf
}

/// A random forest under `dc=t` whose attributes reach every index:
/// mixed-case strings (canonical folding), several values per attribute,
/// entries with two integers, DN-valued references, a *string* that
/// merely spells a DN, and a subtree whose root `ou=ghost, dc=t` is not
/// stored.
pub fn forest(seed: u64) -> Directory {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = Directory::new();
    let root = dn("dc=t");
    d.insert(Entry::builder(root.clone()).class("node").build().unwrap())
        .unwrap();
    let mut dns = vec![root];
    for i in 0..rng.gen_range(60..140) {
        let parent = dns[rng.gen_range(0..dns.len())].clone();
        let name = ["a", "ab", "b", "bc", "c", "ca"][rng.gen_range(0..6)];
        let child = parent.child(Rdn::single("n", format!("{name}{i}")).unwrap());
        let mut b = Entry::builder(child.clone())
            .class("node")
            .attr("name", name)
            .attr("kind", ["red", "Red", "blue"][rng.gen_range(0..3)])
            .attr("weight", rng.gen_range(0..8i64));
        if rng.gen_bool(0.3) {
            b = b.attr("weight", rng.gen_range(0..8i64));
        }
        if rng.gen_bool(0.25) {
            b = b.attr("tag", "x").attr("kind", "RED");
        }
        let target = dns[rng.gen_range(0..dns.len())].clone();
        if rng.gen_bool(0.3) {
            b = b.attr("ref", target);
        } else if rng.gen_bool(0.3) {
            b = b.attr("ref", target.canonical());
        }
        d.insert(b.build().unwrap()).unwrap();
        dns.push(child);
    }
    for s in ["n=g1, ou=ghost, dc=t", "n=g2, n=g1, ou=ghost, dc=t"] {
        let e = Entry::builder(dn(s)).class("node").attr("weight", 3i64);
        d.insert(e.build().unwrap()).unwrap();
    }
    d
}

/// Every kind of atomic filter, with comparison values inside, at the
/// edge of, and outside what the forest holds. `targets` are DNs some
/// entries refer to.
pub fn filters(targets: &[Dn]) -> Vec<AtomicFilter> {
    let mut out = vec![
        AtomicFilter::True,
        AtomicFilter::False,
        AtomicFilter::present("tag"),
        AtomicFilter::present("weight"),
        AtomicFilter::present("ghost"),
        AtomicFilter::eq("kind", "red"),
        AtomicFilter::eq("kind", "Red"), // not canonical: matches nothing
        AtomicFilter::eq("name", "ab"),
        AtomicFilter::eq("weight", "3"),
        AtomicFilter::eq("ghost", "x"),
        parse_atomic("name=*b*").unwrap(),
        parse_atomic("name=a*").unwrap(),
        parse_atomic("name=*c").unwrap(),
        parse_atomic("kind=*e*").unwrap(),
        parse_atomic("n=*1*").unwrap(),
        parse_atomic("ghost=*x*").unwrap(),
    ];
    for t in targets {
        out.push(AtomicFilter::DnEq("ref".into(), t.clone()));
    }
    for op in [IntOp::Lt, IntOp::Le, IntOp::Gt, IntOp::Ge, IntOp::Eq] {
        for v in [-1, 0, 3, 7, 8] {
            out.push(AtomicFilter::int_cmp("weight", op, v));
        }
        out.push(AtomicFilter::int_cmp("kind", op, 3)); // no integers there
    }
    out.push(AtomicFilter::int_cmp("weight", IntOp::Lt, i64::MIN));
    out.push(AtomicFilter::int_cmp("weight", IntOp::Gt, i64::MAX));
    out.push(AtomicFilter::int_cmp("weight", IntOp::Ge, i64::MIN));
    out
}

/// Bases on every edge: the forest root, the top entry, an interior
/// entry, a leaf, absent DNs sorting before, inside and after the
/// stored keys, an absent DN with stored descendants, and the first and
/// last record of every page boundary the table has.
pub fn bases(dir: &Directory, page_counts: &[u32]) -> Vec<Dn> {
    let sorted: Vec<&Entry> = dir.iter_sorted().collect();
    let interior = sorted
        .iter()
        .find(|e| e.dn().depth() == 2 && dir.subtree(e.dn()).count() > 2)
        .or(sorted.get(1))
        .unwrap();
    let leaf = sorted
        .iter()
        .rev()
        .find(|e| dir.subtree(e.dn()).count() == 1)
        .unwrap();
    let mut out = vec![
        Dn::root(),
        dn("dc=t"),
        interior.dn().clone(),
        leaf.dn().clone(),
        dn("dc=a"),
        dn("n=zz, dc=t"),
        dn("dc=z"),
        dn("ou=ghost, dc=t"),
    ];
    let mut first = 0usize;
    for &count in page_counts.iter().take(3) {
        let last = first + count as usize - 1;
        out.push(sorted[first].dn().clone());
        out.push(sorted[last].dn().clone());
        first = last + 1;
    }
    out
}

/// Over `forest(seed)` for each of `seeds`, in each of `formats`, every
/// base on an edge, every scope and every filter: what leaves the index
/// — as a store node ships it, as an operand list holds it, and as the
/// unindexed scan produces it — is byte-identical to the oracle.
/// Returns the cells checked and how many had a non-empty answer.
pub fn answers_match_the_oracle(seeds: Range<u64>, formats: &[Format]) -> (usize, usize) {
    let mut checked = 0usize;
    let mut nonempty = 0usize;
    for seed in seeds {
        let dir = forest(seed);
        let targets: Vec<Dn> = dir
            .iter_sorted()
            .filter_map(|e| e.values(&"ref".into()).next()?.as_dn().cloned())
            .take(2)
            .collect();
        assert!(!targets.is_empty(), "seed {seed} holds DN-valued refs");
        for pager in formats.iter().map(|format| format(512, 16)) {
            let idx = IndexedDirectory::build(&pager, &dir).unwrap();
            // The table's page layout, from an identically built list.
            let layout = PagedList::from_iter(&pager, dir.iter_sorted().cloned())
                .unwrap()
                .page_record_counts();
            assert!(layout.len() > 3, "forest spans pages");
            let ctx = pager.ctx();
            for base in bases(&dir, &layout) {
                for scope in SCOPES {
                    for filter in filters(&targets) {
                        let what = format!(
                            "seed {seed} {:?} ({base} ? {scope} ? {filter})",
                            pager.format()
                        );
                        let oracle: Vec<Vec<u8>> = dir
                            .iter_sorted()
                            .filter(|e| scope.contains(&base, e.dn()) && filter.matches(e))
                            .map(encoded)
                            .collect();
                        // As a store node ships it.
                        let mut shipped = Vec::new();
                        idx.visit_atomic(&Delta::default(), &base, scope, &filter, |hit| {
                            shipped.push(hit.into_encoded(&ctx)?);
                            Ok(())
                        })
                        .unwrap();
                        assert_eq!(shipped, oracle, "shipped: {what}");
                        // As an operand list holds it.
                        let listed = |list: PagedList<Entry>| -> Vec<Vec<u8>> {
                            list.to_vec().unwrap().iter().map(encoded).collect()
                        };
                        let list = idx.evaluate_atomic(&base, scope, &filter).unwrap();
                        assert_eq!(listed(list), oracle, "listed: {what}");
                        let scan = idx.evaluate_scan(&base, scope, &filter).unwrap();
                        assert_eq!(listed(scan), oracle, "scanned: {what}");
                        checked += 1;
                        nonempty += usize::from(!oracle.is_empty());
                    }
                }
            }
        }
    }
    (checked, nonempty)
}

/// `forest(seed)` after seeded writes: deletes (of leaves, interior
/// entries and the ghost subtree), modifies and adds, some under added
/// parents. Returns the written directory and the delta those writes
/// leave over a table of `forest(seed)`.
pub fn written(seed: u64) -> (Directory, Delta) {
    let before = forest(seed);
    let mut after = forest(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xde17a);
    let mut touched: Vec<Dn> = Vec::new();
    let mut dns: Vec<Dn> = before.iter_sorted().map(|e| e.dn().clone()).collect();
    for i in 0..rng.gen_range(8..30) {
        let target = dns[rng.gen_range(0..dns.len())].clone();
        match rng.gen_range(0..3) {
            0 if after.contains(&target) => {
                after.remove(&target).unwrap();
            }
            1 if after.contains(&target) => {
                let add = [("kind".into(), netdir_model::Value::Str("red".into()))];
                let drop = [("kind".into(), netdir_model::Value::Str("blue".into()))];
                after.modify(&target, &add, &drop).unwrap();
                after
                    .modify(&target, &[("weight".into(), (i as i64 % 9).into())], &[])
                    .unwrap();
            }
            _ => {
                let child = target.child(Rdn::single("n", format!("w{i}")).unwrap());
                let e = Entry::builder(child.clone())
                    .class("node")
                    .attr("name", ["a", "bc"][i % 2])
                    .attr("kind", "red")
                    .attr("weight", (i % 8) as i64);
                after.insert(e.build().unwrap()).unwrap();
                dns.push(child.clone());
                touched.push(child);
                continue;
            }
        }
        touched.push(target);
    }
    let writes = touched
        .iter()
        .map(|dn| DeltaWrite {
            dn,
            entry: after.lookup(dn),
            existed: before.contains(dn),
        })
        .collect();
    let delta = Delta::default().with(writes);
    (after, delta)
}

/// For each of `seeds` and `formats`: a table of `forest(seed)` plus the delta its
/// seeded writes leave, the empty table plus a delta of everything, and
/// a table of the written directory answer alike — through the indexed
/// core and the composite scan — byte for byte with the oracle over the
/// written directory. Returns the cells checked and the table records
/// the deltas shadow.
pub fn deltas_answer_like_the_written_directory(
    seeds: Range<u64>,
    formats: &[Format],
) -> (usize, usize) {
    let mut checked = 0usize;
    let mut shadowed = 0usize;
    for seed in seeds {
        let (after, delta) = written(seed);
        assert!(delta.len() >= 8, "seed {seed}: {} records", delta.len());
        let targets: Vec<Dn> = after
            .iter_sorted()
            .filter_map(|e| e.values(&"ref".into()).next()?.as_dn().cloned())
            .take(2)
            .collect();
        let layout = PagedList::from_iter(&Pager::new(512, 16), after.iter_sorted().cloned())
            .unwrap()
            .page_record_counts();
        // The written forest's table, and the empty table everything
        // else is a delta over.
        let over_base = forest(seed);
        let everything = Delta::default().with(
            after
                .iter_sorted()
                .map(|e| DeltaWrite {
                    dn: e.dn(),
                    entry: Some(e),
                    existed: false,
                })
                .collect(),
        );
        for pager in formats.iter().map(|format| format(512, 16)) {
            let ctx = pager.ctx();
            let cases = [
                (IndexedDirectory::build(&pager, &over_base).unwrap(), &delta),
                (
                    IndexedDirectory::build(&pager, &Directory::new()).unwrap(),
                    &everything,
                ),
                (
                    IndexedDirectory::build(&pager, &after).unwrap(),
                    &Delta::default(),
                ),
            ];
            for (idx, delta) in &cases {
                for base in bases(&after, &layout) {
                    for scope in SCOPES {
                        for filter in filters(&targets) {
                            let what = format!("seed {seed} ({base} ? {scope} ? {filter})");
                            let oracle: Vec<Vec<u8>> = after
                                .iter_sorted()
                                .filter(|e| scope.contains(&base, e.dn()) && filter.matches(e))
                                .map(encoded)
                                .collect();
                            let mut shipped = Vec::new();
                            idx.visit_atomic(delta, &base, scope, &filter, |hit| {
                                shipped.push(hit.into_encoded(&ctx)?);
                                Ok(())
                            })
                            .unwrap();
                            assert_eq!(shipped, oracle, "{what}");
                            let composite = CompositeFilter::Atomic(filter.clone());
                            let mut scanned = Vec::new();
                            idx.visit_composite(delta, &base, scope, &composite, |hit| {
                                scanned.push(hit.into_encoded(&ctx)?);
                                Ok(())
                            })
                            .unwrap();
                            assert_eq!(scanned, oracle, "composite {what}");
                            checked += 1;
                        }
                    }
                }
            }
            // Base hits the delta shadows were really in play.
            shadowed += cases[0].1.records().filter(|r| r.entry().is_none()).count();
        }
    }
    (checked, shadowed)
}

/// `dc=big` → `zones` zones → leaves, `entries` entries in all; leaves
/// carry a random `kind`, a `weight` in `0..100` and a unique `cn`.
pub fn zoned(entries: usize, zones: usize) -> Directory {
    let mut rng = StdRng::seed_from_u64(entries as u64);
    let mut d = Directory::new();
    let add = |d: &mut Directory, e: netdir_model::EntryBuilder| {
        d.insert(e.build().unwrap()).unwrap();
    };
    add(&mut d, Entry::builder(dn("dc=big")));
    for z in 0..zones {
        add(&mut d, Entry::builder(dn(&format!("ou=z{z:02}, dc=big"))));
    }
    for i in 0..entries - zones - 1 {
        let leaf = dn(&format!("cn=e{i:05}, ou=z{:02}, dc=big", i % zones));
        let kind = if rng.gen_bool(0.5) { "red" } else { "blue" };
        let weight = rng.gen_range(0..100i64);
        add(
            &mut d,
            Entry::builder(leaf)
                .attr("kind", kind)
                .attr("weight", weight),
        );
    }
    d
}


/// The access path a priced leaf took, read off the core's counters: a
/// scan examines every position of its range and decodes each stored
/// record in scope the delta does not shadow; a probe examines only its
/// candidates and decodes only those it must verify (none for an
/// integer). A fragment probe that gives up part-way, and so scans, has
/// read postings too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    Scan,
    Probe,
}

impl Path {
    fn of(spent: AtomicCost, range: u64, in_scope: u64) -> Path {
        if in_scope > 0 && spent.examined == range && spent.decoded == in_scope {
            Path::Scan
        } else {
            Path::Probe
        }
    }
}

/// What [`priced_paths`] checked.
#[derive(Debug, Default)]
pub struct PricedTally {
    /// Cells compared with the oracle.
    pub checked: usize,
    /// Cells whose path was asserted to be a scan.
    pub scanned: usize,
    /// Cells whose path was asserted to be a probe.
    pub probed: usize,
}

/// `zoned(entries, 16)` plus `ou=small, ou=z00, dc=big`, an entry with
/// three children.
fn with_small_subtree(entries: usize) -> Directory {
    let mut d = zoned(entries, 16);
    let small = dn("ou=small, ou=z00, dc=big");
    d.insert(Entry::builder(small.clone()).build().unwrap()).unwrap();
    for i in 0..3 {
        let child = small.child(Rdn::single("cn", format!("s{i}")).unwrap());
        let e = Entry::builder(child).attr("kind", "red").attr("weight", 10 * i);
        d.insert(e.build().unwrap()).unwrap();
    }
    d
}

/// The access-path rule on a ~`entries`-entry zoned forest (the daemon
/// benchmark's shape), with and without a delta: every answer of every
/// integer comparison (each `IntOp`, the `i64` edges included) and of
/// substring patterns is byte-identical to the oracle, and the cost
/// counters show the rule's pick. Broad filters over a leaf, and `one`
/// under the root (whose range spans the whole table but admits only
/// `dc=big`), scan: one decode costs less than thousands of postings.
/// So do broad filters over `ou=small` (`one`, `sub`) that its records
/// hold; `kind=*lu*` holds in none of them, and its postings cost less
/// than decoding four records. Every integer filter over a zone's
/// subtree probes — the benchmark's `subtree_scan` leaves, which a rule
/// counting a decode like a posting scanned — and so does a fragment
/// there unless every record of the zone holds it (`kind=*e*`), as do
/// selective filters over the root's subtree, decoding nothing for an
/// integer. At 5k entries those picks hold for any verify cost from 16
/// to ~900: a zone spans ~310 records against at most ~5,000 postings
/// of an integer (~2,500 of `kind=r*` with ~155 candidates), a broad
/// integer filter reads over 4,500 postings, and `ou=small` spans at
/// most 5 records.
pub fn priced_paths(entries: usize) -> PricedTally {
    let before = with_small_subtree(entries);
    let mut after = with_small_subtree(entries);
    let mut touched: Vec<Dn> = Vec::new();
    let weight = || "weight".into();
    for (i, e) in before.iter_sorted().enumerate() {
        let Some(w) = e.first_int(&weight()) else { continue };
        if i % 97 == 0 {
            let new = (w + 50) % 100;
            after
                .modify(e.dn(), &[(weight(), new.into())], &[(weight(), w.into())])
                .unwrap();
            touched.push(e.dn().clone());
        } else if i % 211 == 0 {
            after.remove(e.dn()).unwrap();
            touched.push(e.dn().clone());
        }
    }
    for (name, parent, w) in [("s9", "ou=small, ou=z00, dc=big", 5), ("x1", "ou=z05, dc=big", 42)] {
        let child = dn(parent).child(Rdn::single("cn", name).unwrap());
        let e = Entry::builder(child.clone()).attr("kind", "red").attr("weight", w);
        after.insert(e.build().unwrap()).unwrap();
        touched.push(child);
    }
    let delta = Delta::default().with(
        touched
            .iter()
            .map(|dn| DeltaWrite {
                dn,
                entry: after.lookup(dn),
                existed: before.contains(dn),
            })
            .collect(),
    );

    let broad = [
        AtomicFilter::int_cmp("weight", IntOp::Lt, 100),
        AtomicFilter::int_cmp("weight", IntOp::Le, i64::MAX),
        AtomicFilter::int_cmp("weight", IntOp::Gt, -1),
        AtomicFilter::int_cmp("weight", IntOp::Ge, i64::MIN),
        AtomicFilter::int_cmp("weight", IntOp::Ge, 3),
        AtomicFilter::int_cmp("weight", IntOp::Le, 96),
        parse_atomic("kind=*e*").unwrap(),
        parse_atomic("kind=r*").unwrap(),
        parse_atomic("kind=*lu*").unwrap(),
    ];
    let selective = [
        AtomicFilter::int_cmp("weight", IntOp::Eq, 42),
        AtomicFilter::int_cmp("weight", IntOp::Lt, 1),
        AtomicFilter::int_cmp("weight", IntOp::Le, 0),
        AtomicFilter::int_cmp("weight", IntOp::Gt, 98),
        AtomicFilter::int_cmp("weight", IntOp::Ge, 99),
        AtomicFilter::int_cmp("weight", IntOp::Eq, i64::MIN),
        AtomicFilter::int_cmp("weight", IntOp::Eq, i64::MAX),
        AtomicFilter::int_cmp("weight", IntOp::Lt, i64::MIN),
        AtomicFilter::int_cmp("weight", IntOp::Gt, i64::MAX),
        parse_atomic("cn=e0012*").unwrap(),
        parse_atomic("cn=*4321*").unwrap(),
        parse_atomic("cn=*0042").unwrap(),
    ];
    let leaf = dn("cn=e00123, ou=z11, dc=big");
    let small = dn("ou=small, ou=z00, dc=big");
    let zone = dn("ou=z03, dc=big");
    let bases = [leaf.clone(), small.clone(), zone.clone(), dn("dc=big"), Dn::root()];
    let everywhere = parse_atomic("kind=*e*").unwrap();
    let nowhere_small = parse_atomic("kind=*lu*").unwrap();
    let expected = |base: &Dn, scope: Scope, filter: &AtomicFilter, broadly: bool| {
        let int = matches!(filter, AtomicFilter::IntCmp(..));
        match (broadly, scope) {
            (true, _) if *base == leaf => Some(Path::Scan),
            (true, Scope::One) if base.is_root() => Some(Path::Scan),
            (true, Scope::One | Scope::Sub) if *base == small && *filter != nowhere_small => {
                Some(Path::Scan)
            }
            // A zone's ~310 records cost more to decode than any
            // interval's postings, or than a fragment's postings and
            // candidates, unless every record is a candidate.
            (_, Scope::Sub) if *base == zone => Some(if int || *filter != everywhere {
                Path::Probe
            } else {
                Path::Scan
            }),
            (false, Scope::Sub) if base.depth() <= 1 => Some(Path::Probe),
            _ => None,
        }
    };

    let pager = Pager::new(4096, 64);
    let ctx = pager.ctx();
    let shadowed: Vec<&Dn> = touched.iter().collect();
    let cases = [
        (IndexedDirectory::build(&pager, &before).unwrap(), Delta::default(), &before, &before),
        (IndexedDirectory::build(&pager, &before).unwrap(), delta, &before, &after),
        (IndexedDirectory::build(&pager, &after).unwrap(), Delta::default(), &after, &after),
    ];
    let mut tally = PricedTally::default();
    for (idx, delta, stored, oracle_dir) in &cases {
        for base in &bases {
            for scope in SCOPES {
                let in_scope: Vec<&Entry> = oracle_dir
                    .iter_sorted()
                    .filter(|e| scope.contains(base, e.dn()))
                    .collect();
                // The table's range for the scope, and its records a scan
                // decodes: those in scope the delta does not shadow.
                let range = stored
                    .iter_sorted()
                    .filter(|e| match scope {
                        Scope::Base => e.dn() == base,
                        _ => Scope::Sub.contains(base, e.dn()),
                    })
                    .count() as u64;
                let unshadowed = stored
                    .iter_sorted()
                    .filter(|e| scope.contains(base, e.dn()))
                    .filter(|e| delta.is_empty() || !shadowed.contains(&e.dn()))
                    .count() as u64;
                let filters = broad.iter().map(|f| (f, true));
                for (filter, broadly) in filters.chain(selective.iter().map(|f| (f, false))) {
                    let what = format!("{} delta ({base} ? {scope} ? {filter})", delta.len());
                    let oracle: Vec<Vec<u8>> = in_scope
                        .iter()
                        .filter(|e| filter.matches(e))
                        .map(|e| encoded(e))
                        .collect();
                    let cost = idx.cost();
                    let mut shipped = Vec::new();
                    idx.visit_atomic(delta, base, scope, filter, |hit| {
                        shipped.push(hit.into_encoded(&ctx)?);
                        Ok(())
                    })
                    .unwrap();
                    assert_eq!(shipped, oracle, "{what}");
                    tally.checked += 1;
                    let now = idx.cost();
                    let spent = AtomicCost {
                        examined: now.examined - cost.examined,
                        postings: now.postings - cost.postings,
                        decoded: now.decoded - cost.decoded,
                    };
                    let path = Path::of(spent, range, unshadowed);
                    if let AtomicFilter::IntCmp(..) = filter {
                        if path == Path::Probe {
                            assert_eq!(idx.cost().decoded, cost.decoded, "{what}");
                        }
                    }
                    if let Some(want) = expected(base, scope, filter, broadly) {
                        assert_eq!(path, want, "{what}");
                        match want {
                            Path::Scan => tally.scanned += 1,
                            Path::Probe => tally.probed += 1,
                        }
                    }
                }
            }
        }
    }
    tally
}

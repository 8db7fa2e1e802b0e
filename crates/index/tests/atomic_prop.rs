//! Differential and cost tests of the atomic-evaluation core.
//!
//! Differential: over seeded forests, every scope, every kind of atomic
//! filter, bases chosen to sit on every edge of the range arithmetic,
//! and both page formats, what leaves the index — as a store node ships
//! it and as an evaluator's operand list holds it — is byte-identical
//! to the oracle `iter_sorted().filter(scope.contains && filter.matches)`.
//!
//! Keys: the sort key a hit carries out of the index is its image's.
//!
//! Cost: the core counts the candidates it examines and the records it
//! decodes. Counts repeat exactly, so they can be asserted on a one-core
//! box: a point lookup's count does not depend on the directory's size.

use netdir_filter::atomic::IntOp;
use netdir_filter::{parse_atomic, AtomicFilter, CompositeFilter, Scope};
use netdir_index::{Delta, DeltaWrite, IndexedDirectory};
use netdir_model::{Directory, Dn, Entry, Rdn};
use netdir_pager::record::Record;
use netdir_pager::{PagedList, Pager};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SCOPES: [Scope; 3] = [Scope::Base, Scope::One, Scope::Sub];

fn dn(s: &str) -> Dn {
    Dn::parse(s).unwrap()
}

fn encoded(e: &Entry) -> Vec<u8> {
    let mut buf = Vec::new();
    e.encode(&mut buf);
    buf
}

/// A random forest under `dc=t` whose attributes reach every index:
/// mixed-case strings (canonical folding), several values per attribute,
/// entries with two integers, DN-valued references, a *string* that
/// merely spells a DN, and a subtree whose root `ou=ghost, dc=t` is not
/// stored.
fn forest(seed: u64) -> Directory {
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
fn filters(targets: &[Dn]) -> Vec<AtomicFilter> {
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
fn bases(dir: &Directory, page_counts: &[u32]) -> Vec<Dn> {
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

#[test]
fn every_answer_is_byte_identical_to_the_oracle() {
    let mut checked = 0usize;
    let mut nonempty = 0usize;
    for seed in 0..4u64 {
        let dir = forest(seed);
        let targets: Vec<Dn> = dir
            .iter_sorted()
            .filter_map(|e| e.values(&"ref".into()).next()?.as_dn().cloned())
            .take(2)
            .collect();
        assert!(!targets.is_empty(), "seed {seed} holds DN-valued refs");
        for pager in [Pager::new(512, 16), Pager::compressed(512, 16)] {
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
    // The grid is not vacuous.
    assert!(checked > 10_000, "{checked} cells");
    assert!(nonempty * 5 > checked, "{nonempty} of {checked} non-empty");
}

/// `forest(seed)` after seeded writes: deletes (of leaves, interior
/// entries and the ghost subtree), modifies and adds, some under added
/// parents. Returns the written directory and the delta those writes
/// leave over a table of `forest(seed)`.
fn written(seed: u64) -> (Directory, Delta) {
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

#[test]
fn a_table_plus_its_delta_answers_like_the_written_directory() {
    let mut checked = 0usize;
    let mut shadowed = 0usize;
    for seed in 0..4u64 {
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
        for pager in [Pager::new(512, 16), Pager::compressed(512, 16)] {
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
    assert!(checked > 10_000, "{checked} cells");
    assert!(shadowed > 0, "some delta deletes a table entry");
}

/// The key beside every hit a zone hands out — from a base page, from a
/// delta upsert, or past a base position a tombstone shadows — is the
/// sort key of the image it travels with: what a caller would otherwise
/// derive by parsing the image's DN. Both page formats.
#[test]
fn every_key_a_zone_hands_out_is_its_images_sort_key() {
    let (mut base_hits, mut delta_hits, mut shadowed) = (0usize, 0usize, 0usize);
    for seed in 0..4u64 {
        let (after, delta) = written(seed);
        let upserts: Vec<&[u8]> = delta
            .records()
            .filter(|r| r.entry().is_some())
            .map(|r| r.key())
            .collect();
        let tombstones: Vec<&[u8]> = delta
            .records()
            .filter(|r| r.entry().is_none())
            .map(|r| r.key())
            .collect();
        let layout = PagedList::from_iter(&Pager::new(512, 16), after.iter_sorted().cloned())
            .unwrap()
            .page_record_counts();
        for pager in [Pager::new(512, 16), Pager::compressed(512, 16)] {
            let ctx = pager.ctx();
            let idx = IndexedDirectory::build(&pager, &forest(seed)).unwrap();
            for base in bases(&after, &layout) {
                for scope in SCOPES {
                    for filter in [AtomicFilter::True, AtomicFilter::eq("kind", "red")] {
                        let what = format!("seed {seed} ({base} ? {scope} ? {filter})");
                        let mut keys: Vec<Vec<u8>> = Vec::new();
                        idx.visit_atomic(&delta, &base, scope, &filter, |hit| {
                            let key = hit.key().to_vec();
                            let image = hit.into_encoded(&ctx)?;
                            let derived = Entry::page_key_of_encoded(&image)?.unwrap();
                            assert_eq!(key, derived, "{what}");
                            keys.push(key);
                            Ok(())
                        })
                        .unwrap();
                        for key in &keys {
                            if upserts.contains(&key.as_slice()) {
                                delta_hits += 1;
                            } else {
                                base_hits += 1;
                            }
                        }
                        // A tombstone inside the answer's key span shadowed
                        // a base position the walk stepped over.
                        if let (Some(first), Some(last)) = (keys.first(), keys.last()) {
                            shadowed += tombstones
                                .iter()
                                .filter(|t| first.as_slice() < **t && **t < last.as_slice())
                                .count();
                        }
                    }
                }
            }
        }
    }
    assert!(base_hits > 1_000, "{base_hits} base hits");
    assert!(delta_hits > 100, "{delta_hits} delta hits");
    assert!(shadowed > 100, "{shadowed} shadowed positions stepped over");
}

/// `dc=big` → `zones` zones → leaves, `entries` entries in all; leaves
/// carry a random `kind`, a `weight` in `0..100` and a unique `cn`.
fn zoned(entries: usize, zones: usize) -> Directory {
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

#[test]
fn lookup_cost_does_not_grow_with_the_directory() {
    const ZONES: usize = 16;
    let leaf = dn("cn=e00123, ou=z11, dc=big");
    let zone = dn("ou=z11, dc=big");
    let filters = [
        AtomicFilter::True,
        AtomicFilter::present("kind"),
        AtomicFilter::eq("kind", "red"),
        AtomicFilter::eq("cn", "e00123"),
        AtomicFilter::int_cmp("weight", IntOp::Ge, 0),
        parse_atomic("kind=*e*").unwrap(),
    ];
    let mut base_costs = Vec::new();
    for entries in [1_000usize, 16_000] {
        let dir = zoned(entries, ZONES);
        let pager = Pager::new(4096, 64);
        let idx = IndexedDirectory::build(&pager, &dir).unwrap();
        let zone_size = dir.subtree(&zone).count() as u64;
        assert!(zone_size >= (entries / ZONES) as u64);

        // What one evaluation examines and decodes.
        let cost_of = |base: &Dn, scope, filter: &AtomicFilter| {
            let before = idx.cost();
            let hits = idx.evaluate_atomic(base, scope, filter).unwrap().len();
            let after = idx.cost();
            (
                hits,
                after.examined - before.examined,
                after.decoded - before.decoded,
            )
        };

        // A base lookup looks at one candidate, whatever the filter and
        // however long its posting list.
        let mut per_filter = Vec::new();
        for f in &filters {
            let (hits, examined, decoded) = cost_of(&leaf, Scope::Base, f);
            assert!(hits <= 1 && examined <= 1 && decoded <= 1, "{entries}: {f}");
            per_filter.push((hits, examined, decoded));
        }
        base_costs.push(per_filter);

        // A zone's subtree costs at most the zone.
        for f in &filters {
            let (hits, examined, decoded) = cost_of(&zone, Scope::Sub, f);
            assert!(hits > 0, "{entries}: {f}");
            assert!(examined <= zone_size, "{entries}: {f} examined {examined}");
            assert!(decoded <= zone_size, "{entries}: {f} decoded {decoded}");
        }
        // Postings held in memory are exact: nothing is decoded.
        for f in &filters[..4] {
            assert_eq!(cost_of(&zone, Scope::Sub, f).2, 0, "{entries}: {f}");
            assert_eq!(cost_of(&Dn::root(), Scope::Sub, f).2, 0, "{entries}: {f}");
        }
        // A selective integer probe over the whole directory comes from
        // the B+-tree, not from reading the directory.
        let (hits, examined, decoded) = cost_of(
            &Dn::root(),
            Scope::Sub,
            &AtomicFilter::int_cmp("weight", IntOp::Eq, 42),
        );
        assert_eq!((examined, decoded), (hits, 0));
        assert!(hits * 20 < entries as u64);
    }
    assert_eq!(base_costs[0], base_costs[1], "same work at 1k and at 16k");
}

//! Differential and cost tests of the atomic-evaluation core.
//!
//! Differential: over seeded forests, every scope, every kind of atomic
//! filter, bases chosen to sit on every edge of the range arithmetic,
//! and both page formats, what leaves the index — as a store node ships
//! it and as an evaluator's operand list holds it — is byte-identical
//! to the oracle `iter_sorted().filter(scope.contains && filter.matches)`
//! (the checks live in `atomic/mod.rs`, shared with the root suite).
//!
//! Keys: the sort key a hit carries out of the index is its image's.
//!
//! Cost: the core counts the candidates it examines, the postings it
//! reads and the records it decodes. Counts repeat exactly, so they can
//! be asserted on a one-core box: a point lookup's count does not
//! depend on the directory's size, and the counts show which access
//! path an integer or substring leaf took.

mod atomic;

use atomic::*;
use netdir_filter::atomic::IntOp;
use netdir_filter::{parse_atomic, AtomicFilter, Scope};
use netdir_index::IndexedDirectory;
use netdir_model::{Dn, Entry};
use netdir_pager::record::Record;
use netdir_pager::{PagedList, Pager};

/// Both page formats.
const FORMATS: [Format; 2] = [Pager::new, Pager::compressed];

#[test]
fn every_answer_is_byte_identical_to_the_oracle() {
    let (checked, nonempty) = answers_match_the_oracle(0..4, &FORMATS);
    // The grid is not vacuous.
    assert!(checked > 10_000, "{checked} cells");
    assert!(nonempty * 5 > checked, "{nonempty} of {checked} non-empty");
}

#[test]
fn a_table_plus_its_delta_answers_like_the_written_directory() {
    let (checked, shadowed) = deltas_answer_like_the_written_directory(0..4, &FORMATS);
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

#[test]
fn an_integer_or_substring_leaf_takes_the_path_the_rule_prices() {
    let tally = priced_paths(5_000);
    assert!(tally.checked > 500, "{tally:?}");
    assert!(tally.scanned > 50 && tally.probed > 50, "{tally:?}");
}

//! The publish path, through the daemon's own service.
//!
//! A [`DirectoryService`] answers reads from an immutable [`Cluster`]
//! generation. Each `Mutate` frame goes through the journal, then the
//! service publishes the next generation — the current one with the
//! batch's DNs merged into its zones' sorted deltas, every base shared —
//! and swaps it in as an `Arc`: the code `netdird` runs. The contract:
//!
//! * a reader never sees half a batch, and writers publish in commit
//!   order;
//! * a generation a reader holds answers byte for byte the same however
//!   many batches — and compactions — land after it;
//! * every published generation answers byte for byte what a generation
//!   built from scratch over the same directory answers, in every
//!   configuration;
//! * a publish costs its batch: it builds exactly the touched DNs'
//!   records and no base, until a zone's delta outgrows its base.

use netdir::model::{AttrName, Directory, Dn, Entry, Value};
use netdir::obs::MetricsRegistry;
use netdir::pager::record::Record;
use netdir::pager::Pager;
use netdir::query::{parse_query, Planner, Query};
use netdir::server::{Cluster, ClusterBuilder, ConsistencyMode, COMPACT_FRACTION, COMPACT_MIN};
use netdir::wire::{DirectoryService, WireRequest, WireResponse, WireService};
use netdir_journal::{JournalStore, Mutation, MutationBatch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

mod common;

use common::{dn, random_entry, random_forest, random_query, three_zones};

const PEOPLE: &str = "(ou=people, dc=att, dc=com ? sub ? objectClass=person)";

const SEED_LEN: u64 = 3;

fn seed() -> Directory {
    let mut d = Directory::new();
    for s in ["dc=com", "dc=att, dc=com", "ou=people, dc=att, dc=com"] {
        d.insert(Entry::builder(dn(s)).class("container").build().unwrap())
            .unwrap();
    }
    d
}

fn person(uid: &str) -> Entry {
    Entry::builder(dn(&format!("uid={uid}, ou=people, dc=att, dc=com")))
        .class("person")
        .attr("surName", uid)
        .build()
        .unwrap()
}

/// Batch `i` adds the pair `a{i}`/`b{i}` — two mutations that must be
/// visible together or not at all.
fn pair_batch(i: usize) -> MutationBatch {
    MutationBatch::from_mutations(vec![
        Mutation::Add(person(&format!("a{i:03}"))),
        Mutation::Add(person(&format!("b{i:03}"))),
    ])
}

/// One server owning the whole namespace, fetching a leaf's zones on
/// up to `degree` threads (the zone-fetch concurrency).
fn shape(degree: usize) -> ClusterBuilder {
    ClusterBuilder::new()
        .server("root", Dn::root())
        .eval_threads(degree)
}

/// A daemon's service owning the write path over `shape`.
fn primary(shape: ClusterBuilder) -> DirectoryService {
    journaled(seed(), shape)
}

/// A daemon's service owning the write path over `shape`, seeded with
/// `dir`.
fn journaled(dir: Directory, shape: ClusterBuilder) -> DirectoryService {
    let journal = JournalStore::create(&Pager::new(1024, 64), dir).unwrap();
    DirectoryService::journaled(journal, shape, None, MetricsRegistry::new())
}

/// Send one `Mutate` frame; returns the batch's epoch.
fn mutate(daemon: &DirectoryService, batch: MutationBatch) -> u64 {
    match daemon.handle(WireRequest::Mutate { batch }) {
        WireResponse::Mutated { epoch, .. } => epoch,
        other => panic!("Mutate answered {other:?}"),
    }
}

/// `text` posed to `generation`'s server: the encoded answer.
fn ask(generation: &Cluster, text: &str) -> Vec<Vec<u8>> {
    answer(generation, &parse_query(text).unwrap())
}

/// `q` posed to `generation`'s first server: the encoded answer.
fn answer(generation: &Cluster, q: &Query) -> Vec<Vec<u8>> {
    let pager = Pager::new(1024, 64);
    let outcome = generation
        .query_from_with("root", &pager, q, ConsistencyMode::Strict)
        .unwrap_or_else(|e| panic!("{q}: {e}"));
    assert!(outcome.is_complete());
    outcome.entries
}

/// The `uid` of every entry of an encoded answer.
fn uids(answer: &[Vec<u8>]) -> BTreeSet<String> {
    answer
        .iter()
        .map(|image| {
            let e = Entry::decode(image).unwrap();
            e.first_str(&"uid".into()).unwrap().to_string()
        })
        .collect()
}

#[test]
fn concurrent_readers_never_see_a_split_pair() {
    const BATCHES: usize = 60;
    let daemon = primary(shape(1));
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..BATCHES {
                assert_eq!(mutate(&daemon, pair_batch(i)), i as u64 + 1);
            }
            done.store(true, Ordering::Release);
        });
        for _ in 0..3 {
            s.spawn(|| {
                let mut last_len = 0;
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let generation = daemon.cluster();
                    let answer = ask(&generation, PEOPLE);
                    let names = uids(&answer);
                    // Batches are atomic: a{i} visible iff b{i} visible.
                    for i in 0..BATCHES {
                        assert_eq!(
                            names.contains(&format!("a{i:03}")),
                            names.contains(&format!("b{i:03}")),
                            "pair {i} split across a generation"
                        );
                    }
                    // Generations only move forward for every reader.
                    assert!(names.len() >= last_len, "a later generation lost pairs");
                    last_len = names.len();
                    // The generation is frozen: asking it again under
                    // continued writes returns the same bytes.
                    assert_eq!(answer, ask(&generation, PEOPLE));
                    if finished {
                        break;
                    }
                }
                assert_eq!(last_len, 2 * BATCHES, "the last read saw every batch");
            });
        }
    });
    assert_eq!(daemon.journal().unwrap().len(), SEED_LEN + 2 * BATCHES as u64);
}

#[test]
fn a_held_generation_answers_byte_identically_after_later_writes() {
    for degree in [1, 4] {
        let daemon = primary(shape(degree));
        for i in 0..10 {
            mutate(&daemon, pair_batch(i));
        }
        let held = daemon.cluster();
        let people = ask(&held, PEOPLE);
        let a_side_text = format!("(- {PEOPLE} (ou=people, dc=att, dc=com ? sub ? surName=b*))");
        let a_side = ask(&held, &a_side_text);
        assert_eq!(people.len(), 20);
        assert_eq!(a_side.len(), 10);

        // Keep mutating after the hold — including deletes of entries
        // the held generation can see.
        for i in 10..20 {
            mutate(&daemon, pair_batch(i));
        }
        mutate(
            &daemon,
            MutationBatch::from_mutations(
                (0..5)
                    .map(|i| Mutation::Delete(person(&format!("a{i:03}")).dn().clone()))
                    .collect(),
            ),
        );

        // The held generation answers exactly as before, atomic and L0.
        assert_eq!(ask(&held, PEOPLE), people, "degree {degree}");
        assert_eq!(ask(&held, &a_side_text), a_side, "degree {degree}");

        // Meanwhile the published state moved on.
        assert_eq!(daemon.journal().unwrap().len(), SEED_LEN + 2 * 20 - 5);
        let current = daemon.cluster();
        assert_eq!(ask(&current, PEOPLE).len(), 2 * 20 - 5);
        assert_eq!(ask(&current, &a_side_text).len(), 20 - 5);
    }
}

/// Replay a history spec into valid batches: each step toggles one of
/// 24 slots (absent → Add, present → Delete), chunked into batches.
/// Returns the batches and the set of live uids after each.
fn history_batches(steps: &[u8], chunk: usize) -> (Vec<MutationBatch>, Vec<BTreeSet<String>>) {
    let mut live: BTreeSet<String> = BTreeSet::new();
    let mut batches = Vec::new();
    let mut after_each = Vec::new();
    for chunk_steps in steps.chunks(chunk.max(1)) {
        let mut muts = Vec::new();
        for &raw in chunk_steps {
            let uid = format!("p{:02}", raw % 24);
            if live.remove(&uid) {
                muts.push(Mutation::Delete(person(&uid).dn().clone()));
            } else {
                muts.push(Mutation::Add(person(&uid)));
                live.insert(uid);
            }
        }
        batches.push(MutationBatch::from_mutations(muts));
        after_each.push(live.clone());
    }
    (batches, after_each)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every generation published along a random add/delete history
    /// answers the model's state at its epoch, and still does after the
    /// rest of the history lands.
    #[test]
    fn every_published_generation_matches_the_model(
        steps in proptest::collection::vec(0u8..48, 1..40),
        chunk in 1usize..6,
    ) {
        let daemon = primary(shape(1));
        let (batches, after_each) = history_batches(&steps, chunk);

        let mut held = Vec::new();
        for (i, batch) in batches.into_iter().enumerate() {
            prop_assert_eq!(mutate(&daemon, batch), (i + 1) as u64);
            let generation = daemon.cluster();
            let answer = ask(&generation, PEOPLE);
            prop_assert_eq!(&uids(&answer), &after_each[i], "generation {} differs", i);
            held.push((generation, answer));
        }

        for (i, (generation, answer)) in held.iter().enumerate() {
            prop_assert_eq!(&ask(generation, PEOPLE), answer, "generation {} drifted", i);
        }
        let last = after_each.last().unwrap();
        prop_assert_eq!(daemon.journal().unwrap().len(), SEED_LEN + last.len() as u64);
    }
}

/// Every entry of the seeded directory and all it grows.
const ALL: &str = "(dc=com ? sub ? objectClass=*)";

/// `texts` answer byte for byte the same on `daemon`'s generation and on
/// one built from scratch with `shape` over its directory.
fn assert_like_rebuild(daemon: &DirectoryService, shape: ClusterBuilder, texts: &[&str]) {
    let published = daemon.cluster();
    let rebuilt = daemon.journal().unwrap().with_directory(|d| shape.build(d));
    for text in texts {
        assert_eq!(ask(&published, text), ask(&rebuilt, text), "{text}");
    }
    assert_eq!(published.store(0).num_entries, rebuilt.store(0).num_entries);
}

/// The value of metric `name` in `daemon`'s Stats frame.
fn metric(daemon: &DirectoryService, name: &str) -> u64 {
    let WireResponse::Stats(text) = daemon.handle(WireRequest::Stats) else {
        panic!("Stats answered otherwise");
    };
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no sample for {name} in:\n{text}"))
}

/// Batch after batch of 1–4 valid adds, modifies and deletes over the
/// `random_forest` `dir`, which is advanced to the state they leave.
/// Some adds land outside `dc=test` (orphans under `three_zones`), some
/// are deleted again in the same batch, and deletes take interior
/// entries too (the model is a forest).
fn random_history(
    rng: &mut StdRng,
    dir: &mut Directory,
    dns: &[Dn],
    batches: usize,
) -> Vec<MutationBatch> {
    let kind = AttrName::new("kind");
    let mut live: Vec<Dn> = dns[1..].to_vec();
    let mut added = 0usize;
    (0..batches)
        .map(|_| {
            let mut muts = Vec::new();
            for _ in 0..rng.gen_range(1..5) {
                match rng.gen_range(0..6) {
                    0 | 1 => {
                        let parent = if rng.gen_bool(0.2) {
                            dn("dc=elsewhere")
                        } else {
                            live[rng.gen_range(0..live.len())].clone()
                        };
                        let child = dn(&format!("n=w{added}, {parent}"));
                        added += 1;
                        let e = random_entry(rng, child.clone(), dns);
                        dir.insert(e.clone()).unwrap();
                        muts.push(Mutation::Add(e));
                        if rng.gen_bool(0.2) {
                            dir.remove(&child).unwrap();
                            muts.push(Mutation::Delete(child));
                        } else {
                            live.push(child);
                        }
                    }
                    2 => {
                        let gone = live.swap_remove(rng.gen_range(0..live.len()));
                        dir.remove(&gone).unwrap();
                        muts.push(Mutation::Delete(gone));
                    }
                    _ => {
                        let target = live[rng.gen_range(0..live.len())].clone();
                        let old = dir.lookup(&target).unwrap().values(&kind).next().cloned();
                        let new = Value::Str(["red", "blue", "green"][rng.gen_range(0..3)].into());
                        let remove: Vec<(AttrName, Value)> =
                            old.into_iter().map(|v| (kind.clone(), v)).collect();
                        let add = vec![(kind.clone(), new)];
                        dir.modify(&target, &add, &remove).unwrap();
                        muts.push(Mutation::Modify {
                            dn: target,
                            add,
                            remove,
                            remove_attrs: Vec::new(),
                        });
                    }
                }
            }
            MutationBatch::from_mutations(muts)
        })
        .collect()
}

#[test]
fn every_published_generation_answers_like_a_rebuild_byte_for_byte() {
    let (mut checked, mut nonempty, mut orphans) = (0usize, 0usize, 0usize);
    for seed in 0..2u64 {
        let forest = || random_forest(&mut StdRng::seed_from_u64(0x9AB + seed), 120);
        let (mut mirror, dns) = forest();
        let mut rng = StdRng::seed_from_u64(0x9AB0 + seed);
        let queries: Vec<Query> = (0..12)
            .map(|i| parse_query(&random_query(&mut rng, &dns, i % 3)).unwrap())
            .collect();
        let history = random_history(&mut rng, &mut mirror, &dns, 10);
        let single = ClusterBuilder::new().server("root", Dn::root());
        for zones in [single, three_zones(&dns)] {
            // The degree is the zone-fetch concurrency: at 4 a leaf over
            // the three zones fetches them on up to four threads.
            for degree in [1, 4] {
                for planner in [false, true] {
                    let shape = || {
                        let b = zones.clone().eval_threads(degree);
                        if planner {
                            b.planner(Arc::new(Planner::new()))
                        } else {
                            b
                        }
                    };
                    let daemon = journaled(forest().0, shape());
                    for (i, batch) in history.iter().enumerate() {
                        mutate(&daemon, batch.clone());
                        let published = daemon.cluster();
                        let rebuilt = daemon
                            .journal()
                            .unwrap()
                            .with_directory(|d| shape().build(d));
                        let what = format!(
                            "seed {seed}, batch {i}, {} servers, degree {degree}, planner {planner}",
                            rebuilt.num_servers()
                        );
                        assert_eq!(published.orphaned(), rebuilt.orphaned(), "{what}");
                        for id in 0..rebuilt.num_servers() {
                            assert_eq!(
                                published.store(id).num_entries,
                                rebuilt.store(id).num_entries,
                                "server {id}, {what}"
                            );
                        }
                        for q in &queries {
                            let want = answer(&rebuilt, q);
                            assert_eq!(answer(&published, q), want, "{q}: {what}");
                            checked += 1;
                            nonempty += usize::from(!want.is_empty());
                        }
                    }
                    let last = daemon.cluster();
                    assert_eq!(
                        last.compactions(),
                        0,
                        "the history stays below the threshold"
                    );
                    assert!(last.delta_entries() > 0);
                    orphans += last.orphaned();
                    assert_eq!(daemon.journal().unwrap().len(), mirror.len() as u64);
                }
            }
        }
    }
    assert_eq!(checked, 2 * 2 * 2 * 2 * 10 * 12);
    assert!(
        nonempty * 3 > checked,
        "{nonempty} of {checked} answers have entries"
    );
    assert!(orphans > 0, "some history adds outside every zone");
}

#[test]
fn an_empty_batch_publishes_an_empty_delta_on_the_same_base() {
    let daemon = primary(shape(1));
    let before = daemon.cluster();
    let all = ask(&before, ALL);
    assert_eq!(mutate(&daemon, MutationBatch::new()), 1);
    let after = daemon.cluster();
    assert_eq!(after.delta_entries(), 0);
    assert!(after.store(0).shares_base(before.store(0)));
    assert_eq!(ask(&after, ALL), all);
}

#[test]
fn a_delta_over_an_empty_seed_answers_alone() {
    let daemon = journaled(Directory::new(), shape(1));
    let mut muts: Vec<Mutation> = seed().iter_sorted().cloned().map(Mutation::Add).collect();
    muts.extend(pair_batch(0).mutations().iter().cloned());
    mutate(&daemon, MutationBatch::from_mutations(muts));
    let generation = daemon.cluster();
    assert_eq!(generation.store(0).base_len(), 0);
    assert_eq!(generation.delta_entries(), SEED_LEN as usize + 2);
    assert_eq!(
        uids(&ask(&generation, PEOPLE)),
        ["a000", "b000"].map(String::from).into()
    );
    assert_like_rebuild(
        &daemon,
        shape(1),
        &[
            ALL,
            PEOPLE,
            "(dc=att, dc=com ? one ? objectClass=*)",
            "(dc=com ? base ? objectClass=*)",
        ],
    );
}

#[test]
fn tombstones_and_modifies_shadow_base_entries() {
    let mut dir = seed();
    for i in 0..2 {
        for m in pair_batch(i).mutations() {
            if let Mutation::Add(e) = m {
                dir.insert(e.clone()).unwrap();
            }
        }
    }
    let daemon = journaled(dir, shape(1));
    let base = daemon.cluster();
    assert_eq!(uids(&ask(&base, PEOPLE)).len(), 4);
    mutate(
        &daemon,
        MutationBatch::from_mutations(vec![
            Mutation::Delete(person("a000").dn().clone()),
            Mutation::Modify {
                dn: person("b000").dn().clone(),
                add: vec![("title".into(), Value::Str("chief".into()))],
                remove: vec![],
                remove_attrs: vec!["surName".into()],
            },
        ]),
    );
    let generation = daemon.cluster();
    let delta = generation.store(0).delta();
    assert_eq!(delta.len(), 2);
    assert_eq!(delta.records().filter(|r| r.entry().is_none()).count(), 1);
    assert!(generation.store(0).shares_base(base.store(0)));
    assert_eq!(generation.store(0).num_entries, SEED_LEN as usize + 3);
    assert_eq!(
        uids(&ask(&generation, PEOPLE)),
        ["a001", "b000", "b001"].map(String::from).into()
    );
    let chief = "(ou=people, dc=att, dc=com ? sub ? title=chief)";
    let surnamed = "(ou=people, dc=att, dc=com ? sub ? surName=b000)";
    let gone = "(uid=a000, ou=people, dc=att, dc=com ? base ? objectClass=*)";
    assert_eq!(uids(&ask(&generation, chief)), ["b000".to_string()].into());
    assert!(ask(&generation, surnamed).is_empty());
    assert!(ask(&generation, gone).is_empty());
    assert_like_rebuild(&daemon, shape(1), &[ALL, PEOPLE, chief, surnamed, gone]);
    // The base's own generation still answers from the base alone.
    assert_eq!(uids(&ask(&base, PEOPLE)).len(), 4);
}

#[test]
fn an_add_and_delete_in_one_batch_leaves_no_record() {
    let daemon = primary(shape(1));
    let all = ask(&daemon.cluster(), ALL);
    let p = person("brief");
    mutate(
        &daemon,
        MutationBatch::from_mutations(vec![
            Mutation::Add(p.clone()),
            Mutation::Delete(p.dn().clone()),
        ]),
    );
    assert_eq!(daemon.cluster().delta_entries(), 0);
    assert_eq!(ask(&daemon.cluster(), ALL), all);
    // Across two batches, an added DN deleted again leaves no tombstone
    // either: the base never held it.
    mutate(
        &daemon,
        MutationBatch::from_mutations(vec![Mutation::Add(p.clone())]),
    );
    assert_eq!(daemon.cluster().delta_entries(), 1);
    mutate(
        &daemon,
        MutationBatch::from_mutations(vec![Mutation::Delete(p.dn().clone())]),
    );
    assert_eq!(daemon.cluster().delta_entries(), 0);
    assert_eq!(ask(&daemon.cluster(), ALL), all);
}

#[test]
fn crossing_the_compaction_threshold_compacts_once_and_held_generations_stay_put() {
    use netdir::obs::names::{COMPACTIONS, DELTA_ENTRIES};
    let daemon = primary(shape(1));
    let limit = COMPACT_MIN.max(SEED_LEN as usize / COMPACT_FRACTION);
    let mut i = 0;
    let (held, held_people, held_all) = loop {
        let before = daemon.cluster();
        let (people, all) = (ask(&before, PEOPLE), ask(&before, ALL));
        mutate(&daemon, pair_batch(i));
        i += 1;
        let after = daemon.cluster();
        assert_eq!(metric(&daemon, DELTA_ENTRIES), after.delta_entries() as u64);
        if after.compactions() == 1 {
            assert!(before.delta_entries() + 2 > limit, "compacted early");
            assert_eq!(after.delta_entries(), 0);
            assert!(!after.store(0).shares_base(before.store(0)));
            assert_eq!(after.store(0).base_len(), SEED_LEN as usize + 2 * i);
            break (before, people, all);
        }
        assert_eq!(after.delta_entries(), before.delta_entries() + 2);
        assert!(
            after.delta_entries() <= limit,
            "no compaction past the threshold"
        );
        assert!(after.store(0).shares_base(before.store(0)));
    };
    assert_eq!(metric(&daemon, COMPACTIONS), 1);
    assert_like_rebuild(&daemon, shape(1), &[ALL, PEOPLE]);
    // More batches on the compacted base; the generation held across
    // the compaction answers byte for byte as it did.
    for j in i..i + 5 {
        mutate(&daemon, pair_batch(j));
    }
    assert_eq!(daemon.cluster().delta_entries(), 10);
    assert_eq!(metric(&daemon, COMPACTIONS), 1);
    assert_eq!(ask(&held, PEOPLE), held_people);
    assert_eq!(ask(&held, ALL), held_all);
    assert_like_rebuild(&daemon, shape(1), &[ALL, PEOPLE]);
}

/// The seed plus `n` people.
fn with_people(n: usize) -> Directory {
    let mut d = seed();
    for i in 0..n {
        d.insert(person(&format!("p{i:05}"))).unwrap();
    }
    d
}

#[test]
fn a_publish_builds_its_touched_records_and_no_base_at_5k_and_50k() {
    for n in [5_000, 50_000] {
        let daemon = journaled(with_people(n), shape(1));
        let first = daemon.cluster();
        // At 5k the base is built first, to show it is not built again.
        if n == 5_000 {
            ask(
                &first,
                "(uid=p00007, ou=people, dc=att, dc=com ? base ? objectClass=*)",
            );
        }
        let pages = first.store(0).pager().pool().num_pages();
        let mut prev = first;
        for b in 0..20 {
            // One add, one modify, one delete: three touched DNs.
            mutate(
                &daemon,
                MutationBatch::from_mutations(vec![
                    Mutation::Add(person(&format!("new{b:03}"))),
                    Mutation::Modify {
                        dn: person(&format!("p{:05}", 2 * b)).dn().clone(),
                        add: vec![("title".into(), Value::Str("chief".into()))],
                        remove: vec![],
                        remove_attrs: vec![],
                    },
                    Mutation::Delete(person(&format!("p{:05}", 2 * b + 1)).dn().clone()),
                ]),
            );
            let next = daemon.cluster();
            let what = format!("{n} entries, batch {b}");
            assert_eq!(next.delta_entries(), prev.delta_entries() + 3, "{what}");
            assert!(next.store(0).shares_base(prev.store(0)), "{what}");
            assert_eq!(next.store(0).pager().pool().num_pages(), pages, "{what}");
            assert_eq!(next.store(0).num_entries, SEED_LEN as usize + n, "{what}");
            assert_eq!(next.compactions(), 0, "{what}");
            prev = next;
        }
        if n == 5_000 {
            let chiefs = "(ou=people, dc=att, dc=com ? sub ? title=chief)";
            assert_eq!(ask(&prev, chiefs).len(), 20);
            assert_eq!(ask(&prev, ALL).len(), SEED_LEN as usize + n);
            assert_eq!(prev.store(0).pager().pool().num_pages(), pages);
        }
    }
}

#[test]
fn writers_publish_in_commit_order() {
    const BATCHES: usize = 200;
    let daemon = primary(shape(1));
    std::thread::scope(|s| {
        for writer in ["x", "y"] {
            let daemon = &daemon;
            s.spawn(move || {
                for i in 0..BATCHES {
                    let add = Mutation::Add(person(&format!("{writer}{i:03}")));
                    let epoch = mutate(daemon, MutationBatch::from_mutations(vec![add]));
                    // Every batch up to `epoch` committed before this
                    // one, so the published state holds them all.
                    let seen = ask(&daemon.cluster(), ALL).len() as u64;
                    assert!(
                        seen >= SEED_LEN + epoch,
                        "writer {writer}: epoch {epoch} published with {seen} entries"
                    );
                }
            });
        }
    });
    assert_eq!(
        daemon.journal().unwrap().len(),
        SEED_LEN + 2 * BATCHES as u64
    );
    // And no batch was lost by publishing on a generation without it.
    assert_eq!(
        ask(&daemon.cluster(), ALL).len() as u64,
        SEED_LEN + 2 * BATCHES as u64
    );
}

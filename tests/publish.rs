//! Generation isolation on the publish path, through the daemon's own
//! service.
//!
//! A [`DirectoryService`] answers reads from an immutable [`Cluster`]
//! generation. Each `Mutate` frame goes through the journal, then the
//! service builds the next generation from the journal's directory
//! mirror under the journal lock and swaps it in as an `Arc` — the code
//! `netdird` runs. The contract: a reader never sees half a batch, a
//! generation it holds answers byte for byte the same however many
//! batches land after it, and every published generation answers what
//! the committed history says it should.

use netdir::model::{Directory, Dn, Entry};
use netdir::obs::MetricsRegistry;
use netdir::pager::record::Record;
use netdir::pager::Pager;
use netdir::query::parse_query;
use netdir::server::{Cluster, ClusterBuilder, ConsistencyMode};
use netdir::wire::{DirectoryService, WireRequest, WireResponse, WireService};
use netdir_journal::{JournalStore, Mutation, MutationBatch};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};

const PEOPLE: &str = "(ou=people, dc=att, dc=com ? sub ? objectClass=person)";

const SEED_LEN: u64 = 3;

fn dn(s: &str) -> Dn {
    Dn::parse(s).unwrap()
}

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

/// One server owning the whole namespace, evaluating at `degree`.
fn shape(degree: usize) -> ClusterBuilder {
    ClusterBuilder::new()
        .server("root", Dn::root())
        .eval_threads(degree)
}

/// A daemon's service owning the write path over `shape`.
fn primary(shape: ClusterBuilder) -> DirectoryService {
    let journal = JournalStore::create(&Pager::new(1024, 64), seed()).unwrap();
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
    let pager = Pager::new(1024, 64);
    let q = parse_query(text).unwrap();
    let outcome = generation
        .query_from_with("root", &pager, &q, ConsistencyMode::Strict)
        .unwrap();
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

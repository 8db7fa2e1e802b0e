//! Crash-recovery torture: truncate the WAL image at *every* byte
//! boundary and reopen. The committed prefix — and nothing else — must
//! come back, and the recovered entries must be identical to a fresh
//! store that applied the same prefix of batches directly.

use netdir_journal::{JournalStore, Mutation, MutationBatch};
use netdir_model::{Directory, Dn, Entry};
use netdir_pager::Pager;

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

fn person(i: usize) -> Entry {
    Entry::builder(dn(&format!("uid=t{i:03}, ou=people, dc=att, dc=com")))
        .class("person")
        .attr("surName", format!("torture{i:03}"))
        .attr("priority", i as i64)
        .build()
        .unwrap()
}

fn pager() -> Pager {
    Pager::new(512, 32)
}

/// Every entry of the store's directory mirror, in reverse-DN order.
/// `Entry` equality covers ids, so replay must reassign them exactly.
fn entries(store: &JournalStore) -> Vec<Entry> {
    store.with_directory(|d| d.iter_sorted().cloned().collect())
}

/// A seeded burst of batches: adds, then interleaved modifies and
/// deletes, so replay exercises every mutation kind.
fn burst() -> Vec<MutationBatch> {
    let mut batches = Vec::new();
    for b in 0..4 {
        batches.push(MutationBatch::from_mutations(
            (b * 5..(b + 1) * 5).map(|i| Mutation::Add(person(i))).collect(),
        ));
    }
    batches.push(MutationBatch::from_mutations(
        (0..10)
            .map(|i| Mutation::Modify {
                dn: person(i).dn().clone(),
                add: vec![("note".into(), netdir_model::Value::Str(format!("v{i}")))],
                remove: vec![],
                remove_attrs: vec![],
            })
            .collect(),
    ));
    batches.push(MutationBatch::from_mutations(
        (0..20)
            .filter(|i| i % 3 == 0)
            .map(|i| Mutation::Delete(person(i).dn().clone()))
            .collect(),
    ));
    batches
}

/// Entries of a fresh store that applied exactly `batches[..n]`.
fn expected_after(batches: &[MutationBatch], n: usize) -> Vec<Entry> {
    let p = pager();
    let store = JournalStore::create(&p, seed()).unwrap();
    for b in &batches[..n] {
        store.apply(b).unwrap();
    }
    entries(&store)
}

#[test]
fn every_truncation_point_recovers_exactly_the_committed_prefix() {
    let batches = burst();
    let p = pager();
    let store = JournalStore::create(&p, seed()).unwrap();
    for b in &batches {
        store.apply(b).unwrap();
    }
    let image = store.wal_bytes().unwrap();
    let expected: Vec<Vec<Entry>> =
        (0..=batches.len()).map(|n| expected_after(&batches, n)).collect();

    let mut prev_batches = 0;
    for cut in 0..=image.len() {
        let p2 = pager();
        let opened =
            JournalStore::open_from_wal_bytes(&p2, seed(), &image[..cut], p.page_size());
        let (recovered, report) = match opened {
            Ok(pair) => pair,
            // A cut inside the 8-byte magic/version header leaves
            // something that is not a WAL at all; refusing it outright
            // (instead of replaying nothing) is the contract.
            Err(e) if cut < 8 => {
                let msg = e.to_string();
                assert!(
                    msg.contains("magic") || msg.contains("version"),
                    "cut {cut}: unexpected error {msg}"
                );
                continue;
            }
            Err(e) => panic!("cut {cut}: recovery failed: {e}"),
        };
        let n = report.batches;
        assert!(n <= batches.len(), "cut {cut}: recovered phantom batches");
        // A longer prefix can never recover fewer batches.
        assert!(
            n >= prev_batches,
            "cut {cut}: recovery went backwards ({prev_batches} -> {n})"
        );
        prev_batches = n;
        assert_eq!(
            recovered.epoch(),
            n as u64,
            "cut {cut}: epoch disagrees with replayed batches"
        );
        let got = entries(&recovered);
        assert_eq!(
            got, expected[n],
            "cut {cut}: recovered state differs from a fresh store applying {n} batches"
        );
    }
    // The full image recovers everything with nothing discarded.
    assert_eq!(prev_batches, batches.len());
}

#[test]
fn recovered_store_accepts_new_batches_over_a_torn_tail() {
    let batches = burst();
    let p = pager();
    let store = JournalStore::create(&p, seed()).unwrap();
    for b in &batches {
        store.apply(b).unwrap();
    }
    let image = store.wal_bytes().unwrap();

    // Cut mid-image so the tail is torn, then keep writing: the
    // truncated log must accept appends and survive a second reopen.
    let cut = image.len() - image.len() / 3;
    let p2 = pager();
    let (recovered, report) =
        JournalStore::open_from_wal_bytes(&p2, seed(), &image[..cut], p.page_size()).unwrap();
    assert!(report.batches < batches.len(), "cut did not tear anything");
    let extra = MutationBatch::from_mutations(vec![Mutation::Add(person(900))]);
    recovered.apply(&extra).unwrap();

    let image2 = recovered.wal_bytes().unwrap();
    let p3 = pager();
    let (again, report2) =
        JournalStore::open_from_wal_bytes(&p3, seed(), &image2, p.page_size()).unwrap();
    assert_eq!(report2.batches, report.batches + 1);
    assert_eq!(report2.truncated_bytes, 0, "second image must be clean");
    assert_eq!(entries(&again), entries(&recovered));
    assert!(again.lookup(person(900).dn()).is_some());
}

#[test]
fn corrupted_interior_bytes_never_replay_past_the_damage() {
    let batches = burst();
    let p = pager();
    let store = JournalStore::create(&p, seed()).unwrap();
    for b in &batches {
        store.apply(b).unwrap();
    }
    let image = store.wal_bytes().unwrap();
    let expected: Vec<Vec<Entry>> =
        (0..=batches.len()).map(|n| expected_after(&batches, n)).collect();

    // Flip one byte at a stride of positions past the header: recovery
    // must stop at or before the first damaged batch, never panic, and
    // whatever prefix it reports must be exactly reproducible.
    for pos in (8..image.len()).step_by(37) {
        let mut bad = image.clone();
        bad[pos] ^= 0x5a;
        let p2 = pager();
        let (recovered, report) =
            JournalStore::open_from_wal_bytes(&p2, seed(), &bad, p.page_size()).unwrap();
        let n = report.batches;
        assert!(n <= batches.len());
        let got = entries(&recovered);
        assert_eq!(
            got, expected[n],
            "flip at {pos}: recovered prefix is not self-consistent"
        );
    }
}

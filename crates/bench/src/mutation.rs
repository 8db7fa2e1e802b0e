//! The write-path benchmark: apply throughput and WAL replay.
//!
//! Two phases over a [`JournalStore`] seeded with a synthetic forest:
//!
//! * **apply** — a burst of mutation batches (adds, then modifies, then
//!   deletes) against the live store, measuring wall-clock and the WAL
//!   durability work (fsyncs, page writes) the burst cost.
//! * **replay** — reopen the store from the raw WAL image and measure
//!   crash recovery: the same batches re-applied from the log, plus a
//!   verification that the recovered entry count matches the live one.
//!
//! The rows land in `BENCH_*.json` (schema v3's `mutation` section) and
//! the store's counters are synced into the shared registry so the
//! tracked `netdir_wal_*` / `netdir_mutation*` series carry real work.

use netdir_journal::{JournalStore, Mutation, MutationBatch};
use netdir_model::{Directory, Dn, Entry, Value};
use netdir_obs::MetricsRegistry;
use netdir_pager::Pager;

/// One measured phase of the mutation suite.
#[derive(Debug, Clone)]
pub struct MutationRow {
    /// `"apply"` or `"replay"`.
    pub phase: String,
    /// Batches the phase pushed through the journal.
    pub batches: u64,
    /// Individual mutations in those batches.
    pub mutations: u64,
    /// Wall-clock seconds for the phase.
    pub wall_secs: f64,
    /// WAL durability barriers the phase performed.
    pub wal_fsyncs: u64,
    /// Pages written through the WAL device.
    pub wal_page_writes: u64,
}

fn dn(s: &str) -> Dn {
    Dn::parse(s).expect("bench DN")
}

fn seed_directory() -> Directory {
    let mut d = Directory::new();
    for s in ["dc=com", "dc=att, dc=com", "ou=people, dc=att, dc=com"] {
        d.insert(Entry::builder(dn(s)).class("container").build().expect("seed"))
            .expect("seed insert");
    }
    d
}

fn person(i: usize) -> Entry {
    Entry::builder(dn(&format!("uid=w{i:04}, ou=people, dc=att, dc=com")))
        .class("person")
        .attr("surName", format!("writer{i:04}"))
        .attr("priority", (i % 17) as i64)
        .build()
        .expect("bench entry")
}

/// Run the write-path suite: `batches` batches of `batch_size` adds,
/// then one modify batch and one delete batch over a slice of them,
/// then a full replay from the WAL image. Counters sync into
/// `registry`; the two phase rows return for the report.
pub fn mutation_suite(
    batches: usize,
    batch_size: usize,
    registry: &MetricsRegistry,
) -> Vec<MutationRow> {
    let pager = Pager::new(4096, 64);
    let store = JournalStore::create(&pager, seed_directory()).expect("create journal");

    // Apply phase: adds in batches, then a modify wave, then deletes.
    let started = std::time::Instant::now();
    for b in 0..batches {
        let batch = MutationBatch::from_mutations(
            (b * batch_size..(b + 1) * batch_size)
                .map(|i| Mutation::Add(person(i)))
                .collect(),
        );
        store.apply(&batch).expect("apply add batch");
    }
    let modify = MutationBatch::from_mutations(
        (0..batch_size)
            .map(|i| Mutation::Modify {
                dn: person(i).dn().clone(),
                add: vec![("note".into(), Value::Str("benched".into()))],
                remove: vec![],
                remove_attrs: vec![],
            })
            .collect(),
    );
    store.apply(&modify).expect("apply modify batch");
    let delete = MutationBatch::from_mutations(
        (0..batch_size / 2)
            .map(|i| Mutation::Delete(person(i).dn().clone()))
            .collect(),
    );
    store.apply(&delete).expect("apply delete batch");
    let apply_secs = started.elapsed().as_secs_f64();

    let stats = store.stats();
    let apply_row = MutationRow {
        phase: "apply".into(),
        batches: stats.batches_applied,
        mutations: stats.mutations_applied,
        wall_secs: apply_secs,
        wal_fsyncs: stats.wal_fsyncs,
        wal_page_writes: stats.wal_page_writes,
    };

    // Replay phase: crash recovery from the raw WAL image over the same
    // seed, on a fresh pager.
    let bytes = store.wal_bytes().expect("wal image");
    let started = std::time::Instant::now();
    let pager2 = Pager::new(4096, 64);
    let (recovered, report) = JournalStore::open_from_wal_bytes(
        &pager2,
        seed_directory(),
        &bytes,
        pager.page_size(),
    )
    .expect("replay journal");
    let replay_secs = started.elapsed().as_secs_f64();
    assert_eq!(
        recovered.len(),
        store.len(),
        "replay lost or invented entries"
    );
    let rstats = recovered.stats();
    let replay_row = MutationRow {
        phase: "replay".into(),
        batches: report.batches as u64,
        mutations: report.mutations as u64,
        wall_secs: replay_secs,
        wal_fsyncs: rstats.wal_fsyncs,
        wal_page_writes: rstats.wal_page_writes,
    };

    // The recovered store contributes its replay histogram sample;
    // the live store syncs last so its cumulative counters win (replay
    // deliberately resets "applied" counts to avoid double-counting).
    recovered.sync_metrics(registry);
    store.sync_metrics(registry);

    vec![apply_row, replay_row]
}

/// Smoke-sized suite: enough batches to span WAL pages, small enough
/// for CI.
pub fn smoke_suite(registry: &MetricsRegistry) -> Vec<MutationRow> {
    mutation_suite(8, 25, registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdir_obs::names;

    #[test]
    fn suite_produces_consistent_rows_and_metrics() {
        let reg = MetricsRegistry::new();
        let rows = smoke_suite(&reg);
        assert_eq!(rows.len(), 2);
        let apply = &rows[0];
        let replay = &rows[1];
        assert_eq!(apply.phase, "apply");
        assert_eq!(replay.phase, "replay");
        // 8 add batches + 1 modify + 1 delete, all durably logged...
        assert_eq!(apply.batches, 10);
        assert_eq!(apply.mutations, 8 * 25 + 25 + 12);
        assert!(apply.wal_fsyncs >= apply.batches);
        // ...and replay recovers every one of them.
        assert_eq!(replay.batches, apply.batches);
        assert_eq!(replay.mutations, apply.mutations);
        let flat: std::collections::BTreeMap<String, u64> =
            reg.flatten().into_iter().collect();
        assert_eq!(flat[names::MUTATION_BATCHES], 10);
        assert!(flat[names::WAL_FSYNCS] >= 10);
        assert!(flat[&format!("{}_count", names::WAL_REPLAY_US)] >= 1);
    }
}

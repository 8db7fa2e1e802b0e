//! E7 — Theorem 7.1: the embedded-reference operators cost
//! `O(|L1|/B + (|L2|·m/B) · log(|L2|·m/B))` — N log N shape, sensitive to
//! `m` (values per attribute); the naive strawman is quadratic.
//!
//! ```sh
//! cargo run --release -p netdir-bench --bin exp_er_nlogn
//! ```

use netdir_bench::{baseline, cells, measure, setup, table};
use netdir_model::Entry;
use netdir_pager::{Operand, PagedList};
use netdir_query::agg::CompiledAggFilter;
use netdir_query::er_join::er_select;
use netdir_query::RefOp;
use netdir_workloads::{ref_graph, RefGraphParams};

fn lists(
    pager: &netdir_pager::Pager,
    n: usize,
    m: usize,
    seed: u64,
) -> (Operand<Entry>, Operand<Entry>) {
    let dir = ref_graph(
        RefGraphParams {
            sources: n,
            targets: n,
            refs_per_source: m,
        },
        seed,
    );
    let sources = dir
        .iter_sorted()
        .filter(|e| e.has_class(&"source".into()))
        .cloned();
    let targets = dir
        .iter_sorted()
        .filter(|e| e.has_class(&"target".into()))
        .cloned();
    (
        PagedList::from_iter(pager, sources).expect("sources").into(),
        PagedList::from_iter(pager, targets).expect("targets").into(),
    )
}

fn main() {
    let filter = CompiledAggFilter::exists_witness();
    let attr: netdir_model::AttrName = "ref".into();

    println!("E7 — Theorem 7.1: vd/dv scale as N log N; sweep over N (m=2)\n");
    for (op, sym, flip) in [(RefOp::ValueDn, "vd", false), (RefOp::DnValue, "dv", true)] {
        println!("operator ({sym}):");
        table::header(&[
            "entries", "in pages", "I/O", "I/O / pages", "naive I/O", "naive/fast",
        ]);
        for n in [1_000usize, 2_000, 4_000, 8_000, 16_000] {
            let pager = setup::pager();
            let (src, tgt) = lists(&pager, n, 2, 17);
            let (l1, l2) = if flip { (&tgt, &src) } else { (&src, &tgt) };
            let in_pages = l1.num_pages() + l2.num_pages();
            let (out, io) = measure(&pager, || er_select(&pager, op, l1, l2, &attr, &filter));
            let naive = if n <= 2_000 {
                let (_, nio) =
                    measure(&pager, || baseline::paged_naive_er(&pager, op, l1, l2, &attr));
                Some(nio.total())
            } else {
                None
            };
            table::row(cells![
                n,
                in_pages,
                io.total(),
                format!("{:.2}", io.total() as f64 / in_pages as f64),
                naive.map_or("—".into(), |x| x.to_string()),
                naive.map_or("—".into(), |x| format!("{:.1}x", x as f64 / io.total() as f64)),
            ]);
            let _ = out;
        }
        println!(
            "   (the I/O-per-page ratio grows slowly with N — the log \
             factor of the external sort)\n"
        );
    }

    println!("sensitivity to m = values per attribute (N = 8000, vd):\n");
    table::header(&["m", "pair pages", "I/O", "I/O / m=1"]);
    let mut base = None;
    for m in [1usize, 2, 4, 8, 16] {
        let pager = setup::pager();
        let (src, tgt) = lists(&pager, 8_000, m, 19);
        let (_, io) = measure(&pager, || {
            er_select(&pager, RefOp::ValueDn, &src, &tgt, &attr, &filter)
        });
        let b = *base.get_or_insert(io.total());
        table::row(cells![
            m,
            src.num_pages(),
            io.total(),
            format!("{:.2}x", io.total() as f64 / b as f64),
        ]);
    }
    println!(
        "\n   cost grows with m (the pair list LP has |L1|·m records — \
         Theorem 7.1's m term)"
    );
}

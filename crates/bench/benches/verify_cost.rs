//! The index's verify cost, measured: one `Entry::decode` of the
//! daemon benchmark's entry shape over one posting read and cut to a
//! scope window by an integer probe.
//!
//! `IndexedDirectory` prices a leaf's access path in posting reads
//! (`netdir_index::directory_index::VERIFY_COST`, DESIGN.md §3c): a
//! probe reads postings and cuts them to the scope; a range scan
//! verifies each record of the scope by decoding it. This prints both
//! per-unit times and their ratio, the number the constant records.
//! Run with `cargo bench -p netdir-bench --bench verify_cost`.

use netdir_index::StaticBTree;
use netdir_model::{Dn, Entry, Rdn, Value};
use netdir_pager::{Pager, Record};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Leaves in the benchmark's 5,000-entry directory, and one zone's
/// share of its table positions.
const LEAVES: usize = 4_471;
const ZONE: u64 = 312;

/// Leaf images shaped like the benchmark's: a five-RDN DN, `leaf`,
/// `kind`, `weight`, and a DN-valued `ref` on one in ten.
fn images(rng: &mut StdRng) -> Vec<Vec<u8>> {
    let dn = |i: usize| {
        let team = format!("ou=t{}, ou=d{}, ou=z{:02}, dc=bench", i % 3, i % 8, i % 16);
        Dn::parse(&team)
            .unwrap()
            .child(Rdn::single("cn", format!("e{i:05}")).unwrap())
    };
    (0..1_000)
        .map(|i| {
            let mut b = Entry::builder(dn(i))
                .class("leaf")
                .attr("kind", if rng.gen_bool(0.5) { "red" } else { "blue" })
                .attr("weight", rng.gen_range(0..100i64));
            if i % 10 == 0 {
                b = b.attr("ref", Value::Dn(dn(rng.gen_range(0..LEAVES))));
            }
            let mut image = Vec::new();
            b.build().unwrap().encode(&mut image);
            image
        })
        .collect()
}

/// Nanoseconds per unit of one run of `run`, which returns the units
/// it did.
fn per_unit(run: &mut impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let units = run();
    start.elapsed().as_nanos() as f64 / units as f64
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let mut rng = StdRng::seed_from_u64(46);
    let images = images(&mut rng);
    let mut decode = || {
        for image in &images {
            black_box(Entry::decode(black_box(image)).unwrap());
        }
        images.len() as u64
    };

    // The benchmark's `weight` tree on the daemon's page size and pool:
    // one posting per leaf, positions spread over a 5,000-entry table.
    let mut pairs: Vec<(i64, u64)> = (0..LEAVES as u64)
        .map(|i| (rng.gen_range(0..100i64), i * 5_000 / LEAVES as u64))
        .collect();
    pairs.sort_unstable();
    let pager = Pager::new(4096, 64);
    let tree = StaticBTree::build(&pager, &pairs).unwrap();
    // What a probe does per posting: walk the leaves, cut to a zone's
    // window, then sort and deduplicate the survivors.
    let mut probe = || {
        let mut read = 0;
        for _ in 0..50 {
            let (mut hits, n) = tree.range(0, 99, 2_000..2_000 + ZONE).unwrap();
            hits.sort_unstable();
            hits.dedup();
            black_box(hits);
            read += n;
        }
        read
    };

    // Rounds alternate the two, so a slow phase of the machine lands on
    // both sides of a ratio.
    let (mut decode_ns, mut posting_ns, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..101 {
        let d = per_unit(&mut decode);
        let p = per_unit(&mut probe);
        decode_ns.push(d);
        posting_ns.push(p);
        ratios.push(d / p);
    }
    println!("entry_decode: {:.1} ns", median(decode_ns));
    println!("posting_read_and_cut: {:.2} ns", median(posting_ns));
    println!("ratio: {:.0}", median(ratios));
}

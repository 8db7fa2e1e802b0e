//! Criterion microbenchmarks over the evaluation operators.
//!
//! Wall-clock companions to the I/O experiments: boolean merges (E15),
//! the six stack operators (E4), aggregate selection (E5/E6), the
//! embedded-reference joins (E7), and atomic evaluation through the
//! indices — by strategy (`atomic_evaluation`) and by scope at two
//! directory sizes (`atomic_base`, `atomic_one`, `atomic_sub_zone`,
//! `atomic_sub_all`: the store-node layer of `benchmark/run.sh`,
//! reproducible without a daemon). Run with `cargo bench --workspace`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netdir_bench::setup;
use netdir_index::IndexedDirectory;
use netdir_model::{AttrName, Directory, Dn, Entry};
use netdir_pager::{Operand, PagedList, Pager};
use netdir_query::agg::CompiledAggFilter;
use netdir_query::agg_simple::simple_agg_select;
use netdir_query::ast::{AggAttribute, AggSelFilter, Aggregate, AttrRef, EntryAgg};
use netdir_query::boolean::{merge, BoolOp};
use netdir_query::er_join::er_select;
use netdir_query::hs_stack::{hs_select, HsOp};
use netdir_query::RefOp;
use netdir_filter::atomic::IntOp;
use netdir_filter::{AtomicFilter, Scope};
use netdir_workloads::{ref_graph, synth_forest, RefGraphParams, SynthParams};

const N: usize = 4_000;

fn bench_boolean(c: &mut Criterion) {
    let pager = setup::pager();
    let (l1, l2) = setup::red_blue_lists(&pager, N, 1);
    let mut g = c.benchmark_group("boolean");
    for (op, name) in [(BoolOp::And, "and"), (BoolOp::Or, "or"), (BoolOp::Diff, "diff")] {
        g.bench_function(name, |b| {
            b.iter(|| merge(&pager, op, &l1, &l2).unwrap());
        });
    }
    g.finish();
}

fn bench_hs_ops(c: &mut Criterion) {
    let pager = setup::pager();
    let (l1, l2) = setup::red_blue_lists(&pager, N, 2);
    let filter = CompiledAggFilter::exists_witness();
    let mut g = c.benchmark_group("hierarchical_selection");
    for (op, name) in [
        (HsOp::Parents, "p"),
        (HsOp::Children, "c"),
        (HsOp::Ancestors, "a"),
        (HsOp::Descendants, "d"),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| hs_select(&pager, op, &l1, &l2, None, &filter).unwrap());
        });
    }
    for (op, name) in [
        (HsOp::AncestorsConstrained, "ac"),
        (HsOp::DescendantsConstrained, "dc"),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| hs_select(&pager, op, &l1, &l2, Some(&l1), &filter).unwrap());
        });
    }
    g.finish();
}

fn bench_hs_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("hs_descendants_scaling");
    g.sample_size(10);
    for n in [1_000usize, 4_000, 16_000] {
        let pager = setup::pager();
        let (l1, l2) = setup::red_blue_lists(&pager, n, 3);
        let filter = CompiledAggFilter::exists_witness();
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| hs_select(&pager, HsOp::Descendants, &l1, &l2, None, &filter).unwrap());
        });
    }
    g.finish();
}

fn bench_agg(c: &mut Criterion) {
    let pager = setup::pager();
    let (l1, l2) = setup::red_blue_lists(&pager, N, 4);
    let mut g = c.benchmark_group("aggregate_selection");
    let simple = CompiledAggFilter::compile(
        &AggSelFilter {
            lhs: AggAttribute::Entry(EntryAgg::Agg(
                Aggregate::Max,
                AttrRef::Own("weight".into()),
            )),
            op: IntOp::Eq,
            rhs: AggAttribute::EntrySet(
                Aggregate::Max,
                Box::new(EntryAgg::Agg(Aggregate::Max, AttrRef::Own("weight".into()))),
            ),
        },
        false,
    )
    .unwrap();
    g.bench_function("g_max_of_max", |b| {
        b.iter(|| simple_agg_select(&pager, &l1, &simple).unwrap());
    });
    let structural = CompiledAggFilter::compile(
        &AggSelFilter {
            lhs: AggAttribute::Entry(EntryAgg::CountWitnesses),
            op: IntOp::Eq,
            rhs: AggAttribute::EntrySet(Aggregate::Max, Box::new(EntryAgg::CountWitnesses)),
        },
        true,
    )
    .unwrap();
    g.bench_function("d_max_count_witnesses", |b| {
        b.iter(|| hs_select(&pager, HsOp::Descendants, &l1, &l2, None, &structural).unwrap());
    });
    g.finish();
}

fn er_lists(pager: &Pager, n: usize, m: usize) -> (Operand<Entry>, Operand<Entry>) {
    let dir = ref_graph(
        RefGraphParams {
            sources: n,
            targets: n,
            refs_per_source: m,
        },
        5,
    );
    let src = dir
        .iter_sorted()
        .filter(|e| e.has_class(&"source".into()))
        .cloned();
    let tgt = dir
        .iter_sorted()
        .filter(|e| e.has_class(&"target".into()))
        .cloned();
    (
        PagedList::from_iter(pager, src).unwrap().into(),
        PagedList::from_iter(pager, tgt).unwrap().into(),
    )
}

fn bench_er(c: &mut Criterion) {
    let pager = setup::pager();
    let (src, tgt) = er_lists(&pager, N / 2, 2);
    let filter = CompiledAggFilter::exists_witness();
    let attr: AttrName = "ref".into();
    let mut g = c.benchmark_group("embedded_references");
    g.sample_size(20);
    g.bench_function("vd", |b| {
        b.iter(|| er_select(&pager, RefOp::ValueDn, &src, &tgt, &attr, &filter).unwrap());
    });
    g.bench_function("dv", |b| {
        b.iter(|| er_select(&pager, RefOp::DnValue, &tgt, &src, &attr, &filter).unwrap());
    });
    g.finish();
}

fn bench_atomic(c: &mut Criterion) {
    let dir = synth_forest(
        SynthParams {
            entries: N,
            max_depth: 8,
            red_fraction: 0.1,
            blue_fraction: 0.5,
        },
        6,
    );
    let pager = setup::pager();
    let idx = IndexedDirectory::build(&pager, &dir).unwrap();
    let base = Dn::parse("dc=synth").unwrap();
    let mut g = c.benchmark_group("atomic_evaluation");
    g.bench_function("eq_probe", |b| {
        b.iter(|| {
            idx.evaluate_atomic(&base, Scope::Sub, &AtomicFilter::eq("kind", "red"))
                .unwrap()
        });
    });
    g.bench_function("int_range_probe", |b| {
        b.iter(|| {
            idx.evaluate_atomic(
                &base,
                Scope::Sub,
                &AtomicFilter::int_cmp("weight", IntOp::Lt, 5),
            )
            .unwrap()
        });
    });
    g.bench_function("scope_scan", |b| {
        b.iter(|| {
            idx.evaluate_scan(&base, Scope::Sub, &AtomicFilter::eq("kind", "red"))
                .unwrap()
        });
    });
    g.finish();
}

/// `dc=bench` → 16 zones → 24 teams each → leaves, `entries` entries in
/// all: the shape of the daemon benchmark's directory. Leaves carry a
/// random `kind` and `weight`.
fn zoned_dir(entries: usize) -> Directory {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(entries as u64);
    let mut dir = Directory::new();
    let mut add = |b: netdir_model::EntryBuilder| {
        dir.insert(b.build().unwrap()).unwrap();
    };
    let dn = |s: String| Dn::parse(&s).unwrap();
    add(Entry::builder(dn("dc=bench".into())).class("domain"));
    let mut teams = Vec::new();
    for z in 0..16 {
        add(Entry::builder(dn(format!("ou=z{z:02}, dc=bench"))).class("zone"));
        for t in 0..24 {
            let team = dn(format!("ou=t{t:02}, ou=z{z:02}, dc=bench"));
            add(Entry::builder(team.clone()).class("team"));
            teams.push(team);
        }
    }
    for i in 0..entries - teams.len() - 17 {
        let rdn = netdir_model::Rdn::single("cn", format!("e{i:05}")).unwrap();
        add(Entry::builder(teams[i % teams.len()].child(rdn))
            .class("leaf")
            .attr("kind", if rng.gen_bool(0.5) { "red" } else { "blue" })
            .attr("weight", rng.gen_range(0..100i64)));
    }
    dir
}

fn bench_atomic_scopes(c: &mut Criterion) {
    // As the daemon's parser hands them over: a presence filter.
    let any = netdir_filter::parse_atomic("objectClass=*").unwrap();
    let red = AtomicFilter::eq("kind", "red");
    let cases = [
        ("atomic_base", "cn=e00123, ou=t03, ou=z05, dc=bench", Scope::Base, any.clone()),
        ("atomic_one", "ou=t03, ou=z05, dc=bench", Scope::One, any),
        ("atomic_sub_zone", "ou=z05, dc=bench", Scope::Sub, red.clone()),
        ("atomic_sub_all", "dc=bench", Scope::Sub, red),
    ];
    let indexed: Vec<(usize, IndexedDirectory)> = [5_000usize, 20_000]
        .into_iter()
        .map(|n| {
            let idx = IndexedDirectory::build(&setup::pager(), &zoned_dir(n)).unwrap();
            (n, idx)
        })
        .collect();
    for (name, base, scope, filter) in cases {
        let base = Dn::parse(base).unwrap();
        let mut g = c.benchmark_group(name);
        for (n, idx) in &indexed {
            g.bench_with_input(BenchmarkId::from_parameter(n), n, |b, _| {
                b.iter(|| idx.evaluate_atomic(&base, scope, &filter).unwrap());
            });
        }
        g.finish();
    }
}

criterion_group!(
    benches,
    bench_boolean,
    bench_hs_ops,
    bench_hs_scaling,
    bench_agg,
    bench_er,
    bench_atomic,
    bench_atomic_scopes
);
criterion_main!(benches);

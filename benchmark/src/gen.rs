//! Seeded inputs: the benchmark directory and each workload's fully
//! materialised operation list.
//!
//! The directory's *shape* is fixed (same zones, departments, teams and
//! leaf count for every seed); the seed drives only attribute values,
//! references and the constants inside queries and mutations. Template
//! order is round-robin, not drawn, so every window of every run holds
//! the same mix and run-to-run differences come from the system, not
//! from the inputs.

use netdir_journal::{Mutation, MutationBatch};
use netdir_model::{ldif, AttrName, Directory, Dn, Entry, Rdn, Value};
use std::fmt::Write as _;

/// Entries in the benchmark directory. `JournalStore::create` is steeply
/// superlinear today (0.15 s @ 2.5k, 0.76 s @ 5k, 1.9 s @ 7.5k, 4.1 s @
/// 10k), and every mutation rebuilds the whole cluster, so 5,000 is the
/// size at which three set-ups and a mutation probe still fit a run.
pub const ENTRIES: usize = 5_000;
/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1999;

const ZONES: usize = 16;
const DEPTS_PER_ZONE: usize = 8;
const TEAMS_PER_DEPT: usize = 3;
/// Non-leaf entries: root + zones + departments + teams.
const SCAFFOLD: usize = 1 + ZONES * (1 + DEPTS_PER_ZONE * (1 + TEAMS_PER_DEPT));
/// `write_mix` reads zones below this and writes zones at or above it,
/// so every read answer is known before the run.
const FIRST_WRITE_ZONE: usize = ZONES / 2;

/// Operations per second of `--seconds`, sized on the reference box so
/// the timed section lasts about `--seconds` today. The op count is a
/// function of the arguments alone, never of elapsed time.
const POINT_LOOKUPS_PER_S: usize = 2_000;
const SUBTREE_SCANS_PER_S: usize = 100;
const HIER_JOINS_PER_S: usize = 14;
const WRITE_BATCHES_PER_S: usize = 12;
/// Mutation batches applied after the reads of a read workload, on the
/// then idle daemon, so `mutate_*` is a measurement on every workload.
const PROBE_BATCHES_PER_S: usize = 6;
/// Reads `write_mix` issues after every batch: three lookups and a scan
/// against the generation the batch just published.
const READS_PER_BATCH: usize = 4;

/// SplitMix64, owned here so the inputs cannot drift with a dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }
}

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointLookup,
    SubtreeScan,
    HierJoin,
    WriteMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PointLookup,
        Workload::SubtreeScan,
        Workload::HierJoin,
        Workload::WriteMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointLookup => "point_lookup",
            Workload::SubtreeScan => "subtree_scan",
            Workload::HierJoin => "hier_join",
            Workload::WriteMix => "write_mix",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload exists (one line; also `BENCHMARK.json`'s `why`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PointLookup => {
                "base/one lookups by DN on one connection: wire framing, codec, parser and one index probe do the work, storage almost none"
            }
            Workload::SubtreeScan => {
                "L0 filters over one zone, answers of 50-400 entries: pager list scans, boolean merges, entry encode and client decode dominate"
            }
            Workload::HierJoin => {
                "L1-L3 operators over whole-directory operands larger than the scratch pool, small answers: evaluator, planner and page I/O dominate"
            }
            Workload::WriteMix => {
                "mutation batches alternating with reads of the generation each one publishes: journal, per-batch cluster rebuild, WAL file, and read cost paid at publish time"
            }
        }
    }
}

fn zone_dn(z: usize) -> String {
    format!("ou=z{z:02}, dc=bench")
}

fn team_dn(z: usize, d: usize, t: usize) -> String {
    format!("ou=t{t}, ou=d{d}, {}", zone_dn(z))
}

fn dn(s: &str) -> Dn {
    Dn::parse(s).expect("generated DN parses")
}

fn leaf(dn: Dn, rng: &mut Rng, refs: &[Dn]) -> Entry {
    let mut b = Entry::builder(dn)
        .class("leaf")
        .attr("kind", if rng.next() & 1 == 0 { "red" } else { "blue" })
        .attr("weight", rng.range(0, 100) as i64);
    if !refs.is_empty() && rng.range(0, 10) == 0 {
        b = b.attr("ref", Value::Dn(refs[rng.range(0, refs.len())].clone()));
    }
    b.build().expect("leaf entry builds")
}

/// `dc=bench` → 16 zones → 8 departments → 3 teams → leaves, `entries`
/// entries in all. Leaves carry `kind` ∈ {red, blue}, an integer
/// `weight` ∈ [0,100) and, on about one in ten, a DN-valued `ref` to
/// another leaf.
pub fn bench_dir(seed: u64, entries: usize) -> Directory {
    assert!(entries > SCAFFOLD, "directory smaller than its scaffold");
    let mut rng = Rng(seed ^ 0xd1c7);
    let mut dir = Directory::new();
    let scaffold = |dir: &mut Directory, dn_text: &str, class: &str| {
        let e = Entry::builder(dn(dn_text)).class(class).build();
        dir.insert(e.expect("scaffold entry builds"))
            .expect("scaffold DN is new");
    };
    scaffold(&mut dir, "dc=bench", "domain");
    let mut teams = Vec::new();
    for z in 0..ZONES {
        scaffold(&mut dir, &zone_dn(z), "zone");
        for d in 0..DEPTS_PER_ZONE {
            scaffold(&mut dir, &format!("ou=d{d}, {}", zone_dn(z)), "department");
            for t in 0..TEAMS_PER_DEPT {
                scaffold(&mut dir, &team_dn(z, d, t), "team");
                teams.push(dn(&team_dn(z, d, t)));
            }
        }
    }
    let leaf_dns: Vec<Dn> = (0..entries - SCAFFOLD)
        .map(|i| {
            let rdn = Rdn::single("cn", format!("e{i:05}")).expect("leaf RDN");
            teams[i % teams.len()].child(rdn)
        })
        .collect();
    for leaf_dn in &leaf_dns {
        dir.insert(leaf(leaf_dn.clone(), &mut rng, &leaf_dns))
            .expect("leaf DN is new");
    }
    dir
}

/// One operation of a schedule, as an index into its list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    Read(usize),
    Batch(usize),
}

/// A workload's materialised operations.
pub struct OpList {
    /// Queries, in issue order.
    pub reads: Vec<String>,
    /// Leading reads that warm the daemon up and are not timed.
    pub read_warmup: usize,
    /// Mutation batches, in issue order.
    pub batches: Vec<MutationBatch>,
    /// Leading batches that are not timed.
    pub batch_warmup: usize,
    /// Reads issued after each batch; 0 = every read first, then every
    /// batch (the read workloads and their mutation probe).
    pub reads_per_batch: usize,
    /// The directory after every batch, for the final-state check.
    pub final_dir: Directory,
}

impl OpList {
    /// The order operations are issued in.
    pub fn schedule(&self) -> Vec<Step> {
        let reads = (0..self.reads.len()).map(Step::Read);
        let batches = (0..self.batches.len()).map(Step::Batch);
        if self.reads_per_batch == 0 {
            return reads.chain(batches).collect();
        }
        let mut reads = reads;
        batches
            .flat_map(|b| {
                let after: Vec<Step> = reads.by_ref().take(self.reads_per_batch).collect();
                std::iter::once(b).chain(after)
            })
            .collect()
    }
}

/// Leaves of `dir` whose zone index satisfies `keep`.
fn leaves(dir: &Directory, keep: impl Fn(usize) -> bool) -> Vec<Dn> {
    let class = AttrName::new("objectClass");
    (0..ZONES)
        .filter(|&z| keep(z))
        .flat_map(|z| {
            dir.subtree(&dn(&zone_dn(z)))
                .filter(|e| e.values(&class).any(|v| v.as_str() == Some("leaf")))
                .map(|e| e.dn().clone())
                .collect::<Vec<_>>()
        })
        .collect()
}

fn point_lookup(i: usize, rng: &mut Rng, leaves: &[Dn], zones: std::ops::Range<usize>) -> String {
    // 7 in 10 name a leaf (one entry back); 3 in 10 list a team (the
    // team and its leaves back). The median sits inside the first group
    // and the 90th percentile inside the second, away from the seam.
    if i % 10 < 7 {
        format!(
            "({} ? base ? objectClass=*)",
            leaves[rng.range(0, leaves.len())]
        )
    } else {
        let z = rng.range(zones.start, zones.end);
        let d = rng.range(0, DEPTS_PER_ZONE);
        let t = rng.range(0, TEAMS_PER_DEPT);
        format!("({} ? one ? objectClass=*)", team_dn(z, d, t))
    }
}

fn subtree_scan(i: usize, rng: &mut Rng, zones: std::ops::Range<usize>) -> String {
    let z = zone_dn(rng.range(zones.start, zones.end));
    let n = rng.range(30, 90);
    match i % 4 {
        0 => format!("(& ({z} ? sub ? kind=red) ({z} ? sub ? weight<={n}))"),
        1 => format!("(| ({z} ? sub ? kind=blue) ({z} ? sub ? weight<={n}))"),
        2 => format!("(- ({z} ? sub ? objectClass=leaf) ({z} ? sub ? weight<={n}))"),
        _ => format!(
            "(& ({z} ? sub ? weight>={}) ({z} ? sub ? weight<={n}))",
            n - 30
        ),
    }
}

fn hier_join(i: usize, rng: &mut Rng) -> String {
    let all = |filter: String| format!("(dc=bench ? sub ? {filter})");
    // About half the leaves: as many bytes as the daemon's whole scratch
    // pool. `objectClass=*`, the whole directory, is twice the pool.
    let half = all(format!(
        "kind={}",
        if rng.next() & 1 == 0 { "red" } else { "blue" }
    ));
    let zone = zone_dn(rng.range(0, ZONES));
    // Every template pairs such an operand with one of at most a few
    // hundred entries: the daemon pays for the large one, the quadratic
    // oracle stays affordable, and the answer stays small.
    match i % 10 {
        0 => format!(
            "(d {} {half} count($2) > {})",
            all("objectClass=team".into()),
            rng.range(4, 8)
        ),
        1 => format!("(a {half} ({zone} ? base ? objectClass=*))"),
        2 => format!(
            "(c {} {half} count($2) > {})",
            all("objectClass=team".into()),
            rng.range(4, 8)
        ),
        3 => format!(
            "(p {half} ({zone} ? sub ? ou=t{}))",
            rng.range(0, TEAMS_PER_DEPT)
        ),
        4 => format!(
            "(ac {half} ({zone} ? base ? objectClass=*) {})",
            all(format!("ou=d{}", rng.range(0, DEPTS_PER_ZONE)))
        ),
        5 => format!(
            "(dc {} {half} {})",
            all("objectClass=department".into()),
            all(format!("ou=t{}", rng.range(0, TEAMS_PER_DEPT)))
        ),
        6 => format!(
            "(g {} max(weight) = max(max(weight)))",
            all("objectClass=*".into())
        ),
        7 => format!(
            "(vd {} {} ref)",
            all("ref=*".into()),
            all(format!("weight<={}", rng.range(40, 60)))
        ),
        8 => format!("(dv {half} {} ref)", all("ref=*".into())),
        _ => format!(
            "(d {} {} count($2) > {})",
            all("objectClass=department".into()),
            all("objectClass=*".into()),
            rng.range(20, 35)
        ),
    }
}

/// `count` valid batches of 1–4 add/modify/delete mutations on leaves of
/// the write zones, each valid against the state the earlier ones leave;
/// `mirror` is advanced to that state.
fn batches(count: usize, rng: &mut Rng, mirror: &mut Directory) -> Vec<MutationBatch> {
    let weight = AttrName::new("weight");
    let mut live = leaves(mirror, |z| z >= FIRST_WRITE_ZONE);
    let mut added = 0usize;
    (0..count)
        .map(|_| {
            let muts = (0..rng.range(1, 5))
                .map(|_| match rng.range(0, 4) {
                    0 => {
                        let z = rng.range(FIRST_WRITE_ZONE, ZONES);
                        let team = team_dn(
                            z,
                            rng.range(0, DEPTS_PER_ZONE),
                            rng.range(0, TEAMS_PER_DEPT),
                        );
                        let rdn = Rdn::single("cn", format!("n{added:05}")).expect("leaf RDN");
                        added += 1;
                        let e = leaf(dn(&team).child(rdn), rng, &live);
                        live.push(e.dn().clone());
                        mirror.insert(e.clone()).expect("added DN is new");
                        Mutation::Add(e)
                    }
                    1 => {
                        let gone = live.swap_remove(rng.range(0, live.len()));
                        mirror.remove(&gone).expect("deleted leaf exists");
                        Mutation::Delete(gone)
                    }
                    _ => {
                        let target = live[rng.range(0, live.len())].clone();
                        let old = mirror
                            .lookup(&target)
                            .and_then(|e| e.first_int(&weight))
                            .expect("leaf has a weight");
                        let new = (old + 1 + rng.range(0, 98) as i64) % 100;
                        let remove = vec![(weight.clone(), Value::Int(old))];
                        let add = vec![(weight.clone(), Value::Int(new))];
                        mirror
                            .modify(&target, &add, &remove)
                            .expect("modified leaf exists");
                        Mutation::Modify {
                            dn: target,
                            add,
                            remove,
                            remove_attrs: Vec::new(),
                        }
                    }
                })
                .collect();
            MutationBatch::from_mutations(muts)
        })
        .collect()
}

/// The operation list of `workload` for `seed`, sized for `seconds`,
/// over the directory the daemon will load from `ldif`.
pub fn op_list(workload: Workload, seed: u64, seconds: usize, ldif: &str) -> OpList {
    let parse = || ldif::directory_from_ldif(ldif).expect("generated LDIF parses");
    let dir = &parse();
    let mut rng = Rng(seed ^ 0x0b5e ^ (workload as u64) << 32);
    let all_zones = 0..ZONES;
    let read_zones = 0..FIRST_WRITE_ZONE;
    // One untimed warm-up window of a tenth of the timed operations
    // goes in front of them.
    let with_warmup = |timed: usize| (timed / 10, timed + timed / 10);
    let (batch_warmup, batch_count) = with_warmup(match workload {
        Workload::WriteMix => WRITE_BATCHES_PER_S * seconds,
        _ => PROBE_BATCHES_PER_S * seconds,
    });
    let (read_warmup, read_count) = match workload {
        Workload::PointLookup => with_warmup(POINT_LOOKUPS_PER_S * seconds),
        Workload::SubtreeScan => with_warmup(SUBTREE_SCANS_PER_S * seconds),
        Workload::HierJoin => with_warmup(HIER_JOINS_PER_S * seconds),
        Workload::WriteMix => (
            batch_warmup * READS_PER_BATCH,
            batch_count * READS_PER_BATCH,
        ),
    };
    let reads: Vec<String> = match workload {
        Workload::PointLookup => {
            let pool = leaves(dir, |_| true);
            (0..read_count)
                .map(|i| point_lookup(i, &mut rng, &pool, all_zones.clone()))
                .collect()
        }
        Workload::SubtreeScan => (0..read_count)
            .map(|i| subtree_scan(i, &mut rng, all_zones.clone()))
            .collect(),
        Workload::HierJoin => (0..read_count).map(|i| hier_join(i, &mut rng)).collect(),
        Workload::WriteMix => {
            let pool = leaves(dir, |z| z < FIRST_WRITE_ZONE);
            (0..read_count)
                .map(|i| {
                    if i % READS_PER_BATCH == READS_PER_BATCH - 1 {
                        subtree_scan(i / READS_PER_BATCH, &mut rng, read_zones.clone())
                    } else {
                        point_lookup(i - i / READS_PER_BATCH, &mut rng, &pool, read_zones.clone())
                    }
                })
                .collect()
        }
    };
    let mut final_dir = parse();
    let batches = batches(batch_count, &mut rng, &mut final_dir);
    OpList {
        reads,
        read_warmup,
        batches,
        batch_warmup,
        reads_per_batch: if workload == Workload::WriteMix {
            READS_PER_BATCH
        } else {
            0
        },
        final_dir,
    }
}

/// A stable, readable rendering of an op list, written beside the LDIF
/// so a run's inputs can be inspected and compared byte for byte.
pub fn render_ops(ops: &OpList) -> String {
    let mut out = String::new();
    for q in &ops.reads {
        let _ = writeln!(out, "Q {q}");
    }
    for b in &ops.batches {
        let _ = writeln!(out, "B {}", b.len());
        for m in b.mutations() {
            match m {
                Mutation::Add(e) => {
                    let _ = write!(out, "  add {}", e.dn());
                    for (a, v) in e.pairs() {
                        let _ = write!(out, " | {a}={}", v.canonical());
                    }
                    out.push('\n');
                }
                Mutation::Delete(d) => {
                    let _ = writeln!(out, "  delete {d}");
                }
                Mutation::Modify {
                    dn, add, remove, ..
                } => {
                    let _ = write!(out, "  modify {dn}");
                    for (a, v) in remove {
                        let _ = write!(out, " | -{a}={}", v.canonical());
                    }
                    for (a, v) in add {
                        let _ = write!(out, " | +{a}={}", v.canonical());
                    }
                    out.push('\n');
                }
            }
        }
    }
    out
}

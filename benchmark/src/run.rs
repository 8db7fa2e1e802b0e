//! One run of one workload: generate inputs, compute expected answers,
//! time set-up, drive the daemon over TCP in closed loop, check every
//! answer, and (with tracing) replay the operations in-process.

use crate::daemon::{self, Daemon};
use crate::gen::{self, OpList, Step, Workload};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::oracle::{self, Expected};
use crate::stats::{median, ms, percentile, prom_value, us, Windowed, WINDOWS};
use crate::trace;
use netdir_journal::MutationBatch;
use netdir_model::ldif;
use netdir_server::node::decode_entries;
use netdir_wire::WireClient;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub struct Config {
    /// The daemon binary to measure.
    pub netdird: PathBuf,
    /// Where inputs, the WAL file and traces are written.
    pub out: PathBuf,
    pub workload: Workload,
    pub seed: u64,
    /// Sizes the op lists (see `gen`); one run of `metrics::RUN_SECONDS`
    /// is what `BENCHMARK.json` describes, 1 is the quick mode.
    pub seconds: usize,
    /// Also replay in-process and report per-layer metrics.
    pub trace: bool,
    /// Daemon starts timed for `setup_s` (the last one serves the run).
    pub setups: usize,
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Every answer matched and the final directory state is right.
    pub correct: bool,
    /// End-to-end metrics, or per-layer ones on a traced run.
    pub metrics: Vec<(&'static str, f64)>,
    /// Window minima and maxima beside each median, for people.
    pub notes: Vec<String>,
    pub wall: Duration,
}

/// One completed operation, timed by its issuer.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into the op list.
    pub op: usize,
    /// Issue time since the run began.
    pub start: Duration,
    pub latency: Duration,
}

impl Sample {
    fn end(&self) -> Duration {
        self.start + self.latency
    }
}

/// Counts kept while driving the daemon.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// First few failures, for the error message.
    examples: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.examples.len() < 5 {
            self.examples.push(what);
        }
    }
}

/// Issue query `text` and time it as a caller of `WireClient::query`
/// sees it — request encode through entry decode — keeping the raw
/// bytes so the answer can be checked after the clock stops.
fn timed_query(
    client: &WireClient,
    op: usize,
    text: &str,
    expected: Expected,
    origin: Instant,
    tally: &mut Tally,
) -> Option<Sample> {
    tally.attempted += 1;
    let started = Instant::now();
    let answer = client.query_encoded("", text).map(|encoded| {
        let decoded = decode_entries(&encoded);
        (encoded, decoded)
    });
    let latency = started.elapsed();
    match answer {
        Ok((encoded, Ok(decoded))) => {
            let got = Expected {
                entries: decoded.len(),
                digest: oracle::digest(encoded.iter().map(Vec::as_slice)),
            };
            if got == expected {
                return Some(Sample {
                    op,
                    start: started - origin,
                    latency,
                });
            }
            tally.fail(format!("{text}: got {got:?}, oracle says {expected:?}"));
        }
        Ok((_, Err(e))) => tally.fail(format!("{text}: undecodable entries: {e}")),
        // Busy and DeadlineExceeded arrive here too: the client retries
        // nothing, so a refusal is a failed operation.
        Err(e) => tally.fail(format!("{text}: {e}")),
    }
    None
}

fn timed_apply(
    client: &WireClient,
    op: usize,
    batch: &MutationBatch,
    origin: Instant,
    tally: &mut Tally,
) -> Option<Sample> {
    tally.attempted += 1;
    let started = Instant::now();
    let outcome = client.apply(batch);
    let latency = started.elapsed();
    match outcome {
        Ok((_, applied)) if applied as usize == batch.len() => Some(Sample {
            op,
            start: started - origin,
            latency,
        }),
        Ok((_, applied)) => {
            tally.fail(format!("batch {op}: {applied} of {} applied", batch.len()));
            None
        }
        Err(e) => {
            tally.fail(format!("batch {op}: {e}"));
            None
        }
    }
}

/// A reading of the daemon's counters and both processes' CPU clocks.
struct Bracket {
    stats: String,
    daemon_cpu: Duration,
    daemon_threads: f64,
    daemon_rss_mb: f64,
    own_cpu: Duration,
    at: Instant,
}

impl Bracket {
    fn take(daemon: &Daemon, client: &WireClient) -> Result<Bracket, String> {
        Ok(Bracket {
            stats: client.stats().map_err(|e| format!("stats frame: {e}"))?,
            daemon_cpu: daemon.cpu()?,
            daemon_threads: daemon.threads()?,
            daemon_rss_mb: daemon.rss_mb()?,
            own_cpu: daemon::own_cpu()?,
            at: Instant::now(),
        })
    }
}

/// What driving the daemon produced.
struct Driven {
    tally: Tally,
    /// Timed (post warm-up) samples, in issue order.
    queries: Vec<Sample>,
    mutations: Vec<Sample>,
    before: Bracket,
    after: Bracket,
    /// What sample start times count from.
    origin: Instant,
    /// Traced runs only.
    ping_rtt_us: f64,
    predicted_io_ratio: f64,
}

/// Median round trip of 200 pings on a warm connection.
fn ping_rtt_us(client: &WireClient) -> Result<f64, String> {
    let mut rtts = Vec::with_capacity(200);
    for _ in 0..200 {
        let t = Instant::now();
        client.ping().map_err(|e| format!("ping: {e}"))?;
        rtts.push(us(t.elapsed()));
    }
    Ok(median(&rtts))
}

/// Observed pages ÷ the cost model's prediction, summed over the first
/// 64 distinct timed queries, from the daemon's own EXPLAIN ANALYZE.
fn predicted_io_ratio(client: &WireClient, ops: &OpList) -> Result<f64, String> {
    let mut seen = std::collections::HashSet::new();
    let (mut observed, mut predicted) = (0.0, 0.0);
    for text in ops.reads[ops.read_warmup..]
        .iter()
        .filter(|t| seen.insert(*t))
        .take(64)
    {
        let (_, trace) = client
            .query_analyze("", text)
            .map_err(|e| format!("analyze {text}: {e}"))?;
        observed += trace.observed_io as f64;
        predicted += trace.predicted_io;
    }
    Ok(if predicted > 0.0 {
        observed / predicted
    } else {
        0.0
    })
}

/// Issue the schedule, one operation at a time, in closed loop: reads
/// on one pooled connection, batches each on a fresh one (that is how
/// `WireClient::apply` works). The counters are read when the first
/// timed operation is due and after the last timed read, so a read
/// workload's mutation probe lies outside them.
fn drive(
    cfg: &Config,
    daemon: &Daemon,
    ops: &OpList,
    expected: &HashMap<String, Expected>,
) -> Result<Driven, String> {
    let client = daemon::client(daemon.addr);
    let origin = Instant::now();
    let mut tally = Tally::default();
    let ping_rtt_us = if cfg.trace {
        ping_rtt_us(&client)?
    } else {
        0.0
    };
    let timed_reads = ops.reads.len() - ops.read_warmup;
    let (mut before, mut after) = (None, None);
    let mut queries = Vec::with_capacity(timed_reads);
    let mut mutations = Vec::with_capacity(ops.batches.len());
    for step in ops.schedule() {
        let timed = match step {
            Step::Read(op) => op >= ops.read_warmup,
            Step::Batch(op) => op >= ops.batch_warmup,
        };
        if timed && before.is_none() {
            before = Some(Bracket::take(daemon, &client)?);
        }
        match step {
            Step::Read(op) => {
                let text = &ops.reads[op];
                let sample = timed_query(&client, op, text, expected[text], origin, &mut tally);
                if timed {
                    queries.extend(sample);
                }
                if op + 1 == ops.reads.len() {
                    after = Some(Bracket::take(daemon, &client)?);
                }
            }
            Step::Batch(op) => {
                let sample = timed_apply(&client, op, &ops.batches[op], origin, &mut tally);
                if timed {
                    mutations.extend(sample);
                }
            }
        }
    }
    let predicted_io_ratio = if cfg.trace {
        predicted_io_ratio(&client, ops)?
    } else {
        0.0
    };
    Ok(Driven {
        tally,
        queries,
        mutations,
        before: before.ok_or("the schedule has no timed operation")?,
        after: after.ok_or("the schedule has no read")?,
        origin,
        ping_rtt_us,
        predicted_io_ratio,
    })
}

/// The whole directory as the daemon now holds it must equal the op
/// list's final state (ids aside: the oracle's mirror assigns its own).
fn final_state_matches(client: &WireClient, ops: &OpList) -> Result<bool, String> {
    let served = client
        .query("", "(dc=bench ? sub ? objectClass=*)")
        .map_err(|e| format!("final-state query: {e}"))?;
    let mut want = ops.final_dir.iter_sorted();
    Ok(served.len() == ops.final_dir.len()
        && served.iter().all(|got| {
            want.next()
                .is_some_and(|w| w.dn() == got.dn() && w.pairs() == got.pairs())
        }))
}

/// Time windows of [`WINDOWS`] equal sample counts.
fn windows_of(samples: &[Sample]) -> Result<Vec<(Duration, Duration)>, String> {
    let len = samples.len() / WINDOWS;
    if len == 0 {
        return Err(format!(
            "{} timed samples cannot fill {WINDOWS} windows",
            samples.len()
        ));
    }
    Ok(samples
        .chunks_exact(len)
        .take(WINDOWS)
        .map(|w| (w[0].start, w[len - 1].end()))
        .collect())
}

/// Latencies, in ms, of the samples that lie wholly inside `window`.
fn within(samples: &[Sample], (from, to): (Duration, Duration)) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.start >= from && s.end() <= to)
        .map(|s| ms(s.latency))
        .collect()
}

fn latencies_ms(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| ms(s.latency)).collect()
}

fn mean(sample: &[f64]) -> f64 {
    sample.iter().sum::<f64>() / sample.len() as f64
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let wall = Instant::now();
    daemon::pin_to_one_cpu()?;

    // Inputs, from the seed alone.
    let dir = cfg.out.join(cfg.workload.name());
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let ldif_text = ldif::directory_to_ldif(&gen::bench_dir(cfg.seed, gen::ENTRIES));
    let ops = gen::op_list(cfg.workload, cfg.seed, cfg.seconds, &ldif_text);
    let ldif_path = dir.join("dir.ldif");
    for (path, text) in [
        (&ldif_path, &ldif_text),
        (&dir.join("ops.txt"), &gen::render_ops(&ops)),
    ] {
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let wal_path = (cfg.workload == Workload::WriteMix).then(|| dir.join("netdird.wal"));

    // Expected answers, from the same LDIF the daemon will parse (ids
    // are assigned in file order, and the wire encoding carries them).
    let loaded = ldif::directory_from_ldif(&ldif_text).map_err(|e| format!("own LDIF: {e}"))?;
    let expected = oracle::expectations(&loaded, &ops.reads)?;

    // Set-up, several times; the last daemon serves the run.
    let mut setups = Vec::with_capacity(cfg.setups);
    let mut daemon = Daemon::start(&cfg.netdird, &ldif_path, wal_path.as_deref())?;
    setups.push(daemon.setup.as_secs_f64());
    for _ in 1..cfg.setups {
        daemon.shutdown()?;
        daemon = Daemon::start(&cfg.netdird, &ldif_path, wal_path.as_deref())?;
        setups.push(daemon.setup.as_secs_f64());
    }

    let driven = drive(cfg, &daemon, &ops, &expected)?;
    let state_ok = final_state_matches(&daemon::client(daemon.addr), &ops)?;
    let rss_peak_mb = daemon.rss_peak_mb()?;
    daemon.shutdown()?;

    let Driven {
        tally,
        queries,
        mutations,
        before,
        after,
        ..
    } = &driven;
    if tally.failed > 0 {
        eprintln!(
            "benchmark: {} of {} operations failed, e.g.",
            tally.failed, tally.attempted
        );
        for example in &tally.examples {
            eprintln!("  {example}");
        }
    }
    if !state_ok {
        eprintln!("benchmark: the daemon's final directory differs from the op list's");
    }

    // Reads and batches are windowed each by their own count. A window
    // of reads also spans the batches applied among them (`write_mix`;
    // a probe comes after all reads), and throughput counts both.
    let read_windows = windows_of(queries)?;
    let query_ms: Vec<Vec<f64>> = read_windows.iter().map(|&w| within(queries, w)).collect();
    let mutate_ms: Vec<Vec<f64>> = windows_of(mutations)?
        .iter()
        .map(|&w| within(mutations, w))
        .collect();
    let completed: Vec<f64> = read_windows
        .iter()
        .zip(&query_ms)
        .map(|(&w, reads)| {
            (reads.len() + within(mutations, w).len()) as f64 / (w.1 - w.0).as_secs_f64()
        })
        .collect();
    let over = |windows: &[Vec<f64>], f: &dyn Fn(&[f64]) -> f64| {
        Windowed::lower_is_better(&windows.iter().map(|w| f(w)).collect::<Vec<_>>())
    };
    let windowed = [
        ("throughput_ops", Windowed::higher_is_better(&completed)),
        ("query_mean_ms", over(&query_ms, &mean)),
        ("query_p90_ms", over(&query_ms, &|w| percentile(w, 0.9))),
        ("mutate_mean_ms", over(&mutate_ms, &mean)),
    ];
    let mutate_p90 = over(&mutate_ms, &|w| percentile(w, 0.9));
    let query_p50 = over(&query_ms, &|w| percentile(w, 0.5));

    let delta = |name: &str| -> Result<f64, String> {
        Ok(prom_value(&after.stats, name)? - prom_value(&before.stats, name)?)
    };
    let served = delta("netdir_queries_total")?;
    if served <= 0.0 {
        return Err("the daemon counted no query in the timed section".into());
    }
    let page_fetches = delta("netdir_pool_hits_total")? + delta("netdir_pool_misses_total")?;

    let mut notes: Vec<String> = windowed
        .iter()
        .map(|(name, w)| {
            format!(
                "{name}: best {:.4} of {WINDOWS} windows, median {:.4}, worst {:.4}",
                w.best, w.median, w.worst
            )
        })
        .collect();
    notes.push(format!(
        "timed: {} queries, {} batches; set-ups {setups:.3?} s",
        queries.len(),
        mutations.len()
    ));

    let mut metrics: Vec<(&'static str, f64)> = if cfg.trace {
        // Operations between the two counter readings.
        let section = (before.at - driven.origin, after.at - driven.origin);
        let timed_ops = (queries.len() + within(mutations, section).len()) as f64;
        let all_queries = latencies_ms(queries);
        let all_mutations = latencies_ms(mutations);
        let misses = delta("netdir_pool_misses_total")?;
        let daemon_query_us = delta("netdir_query_duration_us_sum")? / served;
        let transfers = delta("netdir_io_reads_total")? + delta("netdir_io_writes_total")?;
        let mut m = vec![
            ("wire.ping_rtt_us", driven.ping_rtt_us),
            ("core.predicted_io_ratio", driven.predicted_io_ratio),
            ("daemon.query_mean_us", daemon_query_us),
            // Exact on the timed section: client mean = daemon mean +
            // everything outside `Cluster::query_from_with`.
            (
                "wire.overhead_us",
                mean(&all_queries) * 1e3 - daemon_query_us,
            ),
            ("daemon.pool_hit_rate", 1.0 - misses / page_fetches.max(1.0)),
            ("daemon.page_transfers_per_query", transfers / served),
            (
                "daemon.cpu_ms_per_op",
                ms(after.daemon_cpu - before.daemon_cpu) / timed_ops,
            ),
            (
                "daemon.threads",
                before.daemon_threads.max(after.daemon_threads),
            ),
            ("daemon.rss_peak_mb", rss_peak_mb),
            (
                "client.cpu_ms_per_op",
                ms(after.own_cpu - before.own_cpu) / timed_ops,
            ),
            ("client.query_p50_ms", query_p50.best),
            ("client.query_p99_ms", percentile(&all_queries, 0.99)),
            ("client.mutate_p50_ms", percentile(&all_mutations, 0.5)),
            ("client.mutate_p90_ms", mutate_p90.best),
            ("client.mutate_p99_ms", percentile(&all_mutations, 0.99)),
            ("client.window_spread_pct", windowed[1].1.spread_pct()),
            ("client.ops_attempted", tally.attempted as f64),
            (
                "client.timed_section_s",
                (after.at - before.at).as_secs_f64(),
            ),
        ];
        m.extend(trace::replay(cfg, &ldif_text, &ops, &dir)?);
        m
    } else {
        let mut m: Vec<_> = windowed.iter().map(|(name, w)| (*name, w.best)).collect();
        // Set-up noise is one-sided too: the quietest start stands.
        m.push((
            "setup_s",
            setups.iter().copied().fold(f64::INFINITY, f64::min),
        ));
        m.push(("pages_per_query", page_fetches / served));
        m.push(("daemon_rss_mb", after.daemon_rss_mb));
        m
    };
    // Report in the tables' order, and only if nothing is missing.
    let names: Vec<&'static str> = if cfg.trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    metrics = names
        .into_iter()
        .map(|name| {
            let found = metrics.iter().find(|(n, _)| *n == name);
            found.copied().ok_or(format!("{name} was not measured"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Report {
        attempted: tally.attempted,
        failed: tally.failed,
        correct: tally.failed == 0 && state_ok,
        metrics,
        notes,
        wall: wall.elapsed(),
    })
}

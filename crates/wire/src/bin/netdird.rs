//! `netdird` — a network directory daemon.
//!
//! Loads a directory from LDIF, partitions it across one or more naming
//! contexts (an in-process cluster: one zone per context, each answered
//! on the worker thread serving the request), and serves the netdir
//! frame protocol on a TCP listener through a [`DirectoryService`]
//! answering as the first declared server. Full distributed L0–L3
//! queries are evaluated as posed to that server (or to the server a
//! query frame names); atomic and baseline LDAP frames are answered
//! from its zone alone, so with several contexts a routed single-atomic
//! answer is a `Query` frame. `Mutate` frames go through the journal.
//! This file is argument parsing and LDIF/WAL loading. Threads: `main`,
//! the acceptor and `--workers` workers; no store threads (the overload
//! options add short-lived ones).
//!
//! ```text
//! netdird --listen 127.0.0.1:3890 --ldif dir.ldif \
//!         --context root= --context att="dc=att, dc=com" \
//!         [--secondary att2="dc=att, dc=com"] \
//!         [--workers 4] [--eval-threads 4] \
//!         [--max-frame 16777216] [--timeout-ms 30000]
//! ```
//!
//! With no `--context`, a single server named `root` owning the whole
//! namespace is assumed. `--eval-threads N` fetches the zones one atomic
//! sub-query reaches on up to N threads (default 1); the query tree is
//! evaluated one operator at a time either way. The daemon runs until killed or until a client
//! sends a Shutdown frame (`ndquery ADDR --shutdown`).

use netdir_journal::JournalStore;
use netdir_model::{ldif, Directory, Dn};
use netdir_obs::MetricsRegistry;
use netdir_query::Planner;
use netdir_server::{AdmissionConfig, AdmissionController, ClusterBuilder, EnumCap, RateLimit};
use netdir_wire::{DirectoryService, ServerOptions, WireServer};
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: netdird --listen ADDR [--ldif FILE] [--wal FILE] [--context NAME=DN]... \\\n\
         \x20              [--secondary NAME=DN]... [--workers N] \\\n\
         \x20              [--eval-threads N] [--planner] [--max-frame BYTES] [--timeout-ms MS] \\\n\
         \x20              [--max-inflight N] [--max-pending N] [--request-deadline-ms MS] \\\n\
         \x20              [--rate-limit PER_SEC[:BURST]] [--enum-cap ENTRIES[:WINDOW_MS]]\n\
         \n\
         Serves the netdir frame protocol over TCP. With no --context, one\n\
         server named `root` owns the whole namespace. With no --ldif, an\n\
         empty directory is served. With --wal, committed mutation batches\n\
         persist to FILE and replay over the seed LDIF on the next start\n\
         (keep the same --ldif across restarts).\n\
         \n\
         --eval-threads N fetches the zones a query's atomic sub-query\n\
         reaches on up to N threads (default 1: one after another).\n\
         \n\
         --planner enables the cost-based plan optimizer: queries are\n\
         rewritten to cheaper byte-identical plans using list-size\n\
         statistics observed from earlier queries, and repeated query\n\
         shapes replay cached plans (the planner series in --stats).\n\
         \n\
         Overload policy (all off by default): --max-inflight caps requests\n\
         executing at once, --max-pending caps connections queued for a\n\
         worker, --request-deadline-ms bounds one request's execution,\n\
         --rate-limit token-buckets each client address, and --enum-cap\n\
         bounds entries shipped per client per window. Work past a limit is\n\
         shed with a fast Busy frame instead of queueing without bound."
    );
    exit(2)
}

/// Parse `A[:B]` where both halves are integers; `B` is `None` when the
/// spec only gives `A` (each flag picks its own default).
fn parse_pair(flag: &str, spec: &str) -> (u64, Option<u64>) {
    let parsed = match spec.split_once(':') {
        Some((a, b)) => a.parse().ok().zip(b.parse().ok()).map(|(a, b)| (a, Some(b))),
        None => spec.parse().ok().map(|a| (a, None)),
    };
    parsed.unwrap_or_else(|| {
        eprintln!("netdird: {flag} wants N or N:M, got {spec:?}");
        exit(2)
    })
}

fn parse_name_dn(spec: &str) -> (String, Dn) {
    let Some((name, dn_text)) = spec.split_once('=') else {
        eprintln!("netdird: --context/--secondary wants NAME=DN, got {spec:?}");
        exit(2)
    };
    match Dn::parse(dn_text) {
        Ok(dn) => (name.to_string(), dn),
        Err(e) => {
            eprintln!("netdird: bad context DN {dn_text:?}: {e}");
            exit(2)
        }
    }
}

fn main() {
    let mut listen: Option<String> = None;
    let mut ldif_path: Option<String> = None;
    let mut wal_path: Option<String> = None;
    let mut contexts: Vec<(String, Dn, bool)> = Vec::new();
    let mut opts = ServerOptions::default();
    let mut eval_threads: usize = 1;
    let mut use_planner = false;
    let mut admission = AdmissionConfig::default();
    let mut any_admission_flag = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("netdird: {flag} needs a value");
                exit(2)
            })
        };
        match arg.as_str() {
            "--listen" => listen = Some(value("--listen")),
            "--ldif" => ldif_path = Some(value("--ldif")),
            "--wal" => wal_path = Some(value("--wal")),
            "--context" => {
                let (name, dn) = parse_name_dn(&value("--context"));
                contexts.push((name, dn, false));
            }
            "--secondary" => {
                let (name, dn) = parse_name_dn(&value("--secondary"));
                contexts.push((name, dn, true));
            }
            "--workers" => {
                opts.workers = value("--workers").parse().unwrap_or_else(|_| usage())
            }
            "--eval-threads" => {
                eval_threads = value("--eval-threads").parse().unwrap_or_else(|_| usage())
            }
            "--planner" => use_planner = true,
            "--max-frame" => {
                opts.max_frame = value("--max-frame").parse().unwrap_or_else(|_| usage())
            }
            "--timeout-ms" => {
                let ms: u64 = value("--timeout-ms").parse().unwrap_or_else(|_| usage());
                let t = Some(Duration::from_millis(ms));
                opts.read_timeout = t;
                opts.write_timeout = t;
            }
            "--max-inflight" => {
                admission.max_inflight =
                    value("--max-inflight").parse().unwrap_or_else(|_| usage());
                any_admission_flag = true;
            }
            "--max-pending" => {
                opts.max_pending = value("--max-pending").parse().unwrap_or_else(|_| usage())
            }
            "--request-deadline-ms" => {
                let ms: u64 = value("--request-deadline-ms")
                    .parse()
                    .unwrap_or_else(|_| usage());
                opts.request_deadline = Some(Duration::from_millis(ms));
            }
            "--rate-limit" => {
                let spec = value("--rate-limit");
                let (per_sec, burst) = parse_pair("--rate-limit", &spec);
                admission.rate = Some(RateLimit {
                    per_sec: per_sec.try_into().unwrap_or_else(|_| usage()),
                    // Default burst: one second's worth of tokens.
                    burst: burst.unwrap_or(per_sec).try_into().unwrap_or_else(|_| usage()),
                });
                any_admission_flag = true;
            }
            "--enum-cap" => {
                let spec = value("--enum-cap");
                let (max_entries, window_ms) = parse_pair("--enum-cap", &spec);
                admission.enumeration = Some(EnumCap {
                    max_entries,
                    window: Duration::from_millis(window_ms.unwrap_or(1_000)),
                });
                any_admission_flag = true;
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("netdird: unknown argument {other:?}");
                usage()
            }
        }
    }
    let Some(listen) = listen else { usage() };
    if contexts.is_empty() {
        contexts.push(("root".into(), Dn::root(), false));
    }

    let dir = match &ldif_path {
        None => Directory::new(),
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("netdird: cannot read {path}: {e}");
                exit(1)
            });
            ldif::directory_from_ldif(&text).unwrap_or_else(|e| {
                eprintln!("netdird: bad LDIF in {path}: {e}");
                exit(1)
            })
        }
    };

    // The journal owns the live state: seed it with the LDIF directory
    // and, when a WAL file is present, replay its committed prefix over
    // the seed before serving a single query.
    let journal_pager = netdir_pager::default_pager();
    let journal = match &wal_path {
        Some(path) if std::path::Path::new(path).exists() => {
            let bytes = std::fs::read(path).unwrap_or_else(|e| {
                eprintln!("netdird: cannot read WAL {path}: {e}");
                exit(1)
            });
            match JournalStore::open_from_wal_bytes(
                &journal_pager,
                dir,
                &bytes,
                journal_pager.page_size(),
            ) {
                Ok((store, report)) => {
                    println!(
                        "netdird: replayed {} batches ({} mutations) from {path} in {}us{}",
                        report.batches,
                        report.mutations,
                        report.replay_us,
                        if report.truncated_bytes > 0 {
                            format!(" ({} torn bytes discarded)", report.truncated_bytes)
                        } else {
                            String::new()
                        }
                    );
                    store
                }
                Err(e) => {
                    eprintln!("netdird: bad WAL {path}: {e}");
                    exit(1)
                }
            }
        }
        _ => JournalStore::create(&journal_pager, dir).unwrap_or_else(|e| {
            eprintln!("netdird: cannot initialise journal: {e}");
            exit(1)
        }),
    };

    let mut shape = ClusterBuilder::new().eval_threads(eval_threads);
    if use_planner {
        shape = shape.planner(Arc::new(Planner::new()));
    }
    for (name, dn, secondary) in contexts {
        shape = if secondary {
            shape.secondary(name, dn)
        } else {
            shape.server(name, dn)
        };
    }
    let metrics = MetricsRegistry::default();
    let service = Arc::new(DirectoryService::journaled(
        journal,
        shape,
        wal_path,
        metrics.clone(),
    ));
    // Scoped, so the first generation is not pinned past its last reader.
    let num_entries: usize = {
        let cluster = service.cluster();
        if cluster.orphaned() > 0 {
            eprintln!(
                "netdird: warning: {} entries matched no declared context and were dropped",
                cluster.orphaned()
            );
        }
        (0..cluster.num_servers())
            .map(|id| cluster.store(id).num_entries)
            .sum()
    };

    // Always build the controller on the daemon registry (even with no
    // limit configured) so admission/deadline accounting shows up in
    // `ndquery --stats`; with the default config it never rejects.
    opts.admission = Some(Arc::new(AdmissionController::new(
        admission,
        Arc::new(netdir_obs::MonotonicClock::new()),
        &metrics,
    )));
    if any_admission_flag || opts.request_deadline.is_some() {
        let cfg = opts.admission.as_ref().unwrap().config();
        println!(
            "netdird: overload policy: max_inflight={} max_pending={} deadline={:?} rate={:?} enum={:?}",
            cfg.max_inflight, opts.max_pending, opts.request_deadline, cfg.rate, cfg.enumeration
        );
    }
    let mut server = match WireServer::bind(listen.as_str(), service, opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("netdird: cannot listen on {listen}: {e}");
            exit(1)
        }
    };
    println!(
        "netdird: serving {num_entries} entries on {}",
        server.local_addr()
    );
    server.join();
    println!("netdird: shut down");
}

//! `ndquery` — command-line client for a `netdird` daemon.
//!
//! ```text
//! ndquery 127.0.0.1:3890 "(dc=att, dc=com ? sub ? surName=jagadish)"
//! ndquery 127.0.0.1:3890 --home att "(null-dn ? sub ? objectClass=person)"
//! ndquery 127.0.0.1:3890 --partial "(null-dn ? sub ? objectClass=person)"
//! ndquery 127.0.0.1:3890 --analyze "(null-dn ? sub ? objectClass=person)"
//! ndquery 127.0.0.1:3890 --ping
//! ndquery 127.0.0.1:3890 --stats
//! ndquery 127.0.0.1:3890 --shutdown
//! ```
//!
//! Query results print as LDIF, one blank-line-separated block per
//! entry, in the server's (DN-sorted) order.
//!
//! With `--partial`, zones the daemon cannot reach are skipped instead
//! of failing the query: entries from the surviving partitions print as
//! usual, each skipped zone is reported on stderr, and the exit status
//! stays 0 (a degraded answer is still an answer).
//!
//! With `--analyze`, the daemon evaluates the query and returns an
//! `EXPLAIN ANALYZE` trace: one line per operator with entries in/out,
//! pages, predicted vs observed I/O, and elapsed time. The trace prints
//! to stdout instead of the entries (the entry count goes to stderr).
//!
//! With `--stats`, the daemon's metrics print in Prometheus exposition
//! format.
//!
//! With `--apply FILE`, FILE is parsed as an LDIF change document
//! (RFC 2849 `changetype` records; plain entry records mean add) and
//! submitted as one atomic mutation batch: either every change lands
//! durably on the daemon, or none does and the rejection prints.
//! `--apply -` reads the changes from stdin.

use netdir_journal::MutationBatch;
use netdir_model::ldif::entry_to_ldif;
use netdir_model::Entry;
use netdir_obs::TimeDisplay;
use netdir_server::node::decode_entries;
use netdir_wire::{ClientOptions, WireClient, WireError};
use std::net::ToSocketAddrs;
use std::process::exit;
use std::time::Duration;

/// Overloaded daemon shed the request (transient): sysexits EX_TEMPFAIL.
const EXIT_BUSY: i32 = 75;
/// The daemon's execution deadline expired (the `timeout(1)` convention).
const EXIT_DEADLINE: i32 = 124;

fn usage() -> ! {
    eprintln!(
        "usage: ndquery ADDR [--home NAME] [--partial | --analyze] [--timeout-ms MS] QUERY\n\
         \x20      ndquery ADDR --apply FILE   (LDIF changes; - for stdin)\n\
         \x20      ndquery ADDR --ping | --stats | --shutdown"
    );
    exit(2)
}

/// Print `e` and exit with a status distinguishing transient overload
/// (retry later, exit 75) and a blown server-side deadline (exit 124)
/// from every other failure (exit 1).
/// Entries as LDIF records, blank-line separated.
fn print_ldif(entries: &[Entry]) {
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            println!();
        }
        print!("{}", entry_to_ldif(e));
    }
}

fn fail(e: WireError) -> ! {
    match e {
        WireError::Busy { retry_after_ms } => {
            eprintln!(
                "ndquery: server busy, request shed before execution; \
                 retry in {retry_after_ms}ms or later"
            );
            exit(EXIT_BUSY)
        }
        WireError::DeadlineExceeded { budget_ms } => {
            eprintln!(
                "ndquery: server gave up after its {budget_ms}ms execution deadline; \
                 retrying the same request will blow the same budget"
            );
            exit(EXIT_DEADLINE)
        }
        e => {
            eprintln!("ndquery: {e}");
            exit(1)
        }
    }
}

fn main() {
    let mut addr: Option<String> = None;
    let mut home = String::new();
    let mut query: Option<String> = None;
    let mut ping = false;
    let mut shutdown = false;
    let mut partial = false;
    let mut analyze = false;
    let mut stats = false;
    let mut apply: Option<String> = None;
    let mut opts = ClientOptions::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("ndquery: {flag} needs a value");
                exit(2)
            })
        };
        match arg.as_str() {
            "--home" => home = value("--home"),
            "--timeout-ms" => {
                let ms: u64 = value("--timeout-ms").parse().unwrap_or_else(|_| usage());
                opts.timeout = Duration::from_millis(ms);
            }
            "--ping" => ping = true,
            "--shutdown" => shutdown = true,
            "--partial" => partial = true,
            "--analyze" => analyze = true,
            "--stats" => stats = true,
            "--apply" => apply = Some(value("--apply")),
            "--help" | "-h" => usage(),
            other if addr.is_none() => addr = Some(other.to_string()),
            other if query.is_none() => query = Some(other.to_string()),
            other => {
                eprintln!("ndquery: unexpected argument {other:?}");
                usage()
            }
        }
    }

    let Some(addr) = addr else { usage() };
    let sock_addr = match addr.to_socket_addrs().ok().and_then(|mut a| a.next()) {
        Some(a) => a,
        None => {
            eprintln!("ndquery: cannot resolve {addr:?}");
            exit(1)
        }
    };
    let client = WireClient::connect(sock_addr, opts);

    if ping {
        match client.ping() {
            Ok(()) => println!("{addr} is alive"),
            Err(e) => fail(e),
        }
        return;
    }
    if shutdown {
        match client.shutdown_server() {
            Ok(()) => println!("{addr} acknowledged shutdown"),
            Err(e) => fail(e),
        }
        return;
    }
    if stats {
        match client.stats() {
            Ok(text) => print!("{text}"),
            Err(e) => fail(e),
        }
        return;
    }

    if let Some(path) = apply {
        let text = if path == "-" {
            let mut buf = String::new();
            use std::io::Read;
            if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
                eprintln!("ndquery: cannot read stdin: {e}");
                exit(1)
            }
            buf
        } else {
            match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("ndquery: cannot read {path}: {e}");
                    exit(1)
                }
            }
        };
        let batch = match MutationBatch::from_ldif(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("ndquery: bad LDIF changes: {e}");
                exit(1)
            }
        };
        if batch.is_empty() {
            eprintln!("ndquery: no changes in input");
            exit(1)
        }
        match client.apply(&batch) {
            Ok((epoch, mutations)) => {
                println!("applied {mutations} mutations; directory at epoch {epoch}");
            }
            Err(e) => fail(e),
        }
        return;
    }

    let Some(query) = query else { usage() };
    if analyze {
        match client.query_analyze(&home, &query) {
            Ok((entries, trace)) => {
                print!("{}", trace.render(TimeDisplay::Show));
                eprintln!("# {} entries", entries.len());
            }
            Err(e) => fail(e),
        }
        return;
    }
    if partial {
        match client.query_partial(&home, &query) {
            Ok(outcome) => {
                match decode_entries(&outcome.entries) {
                    Ok(entries) => print_ldif(&entries),
                    Err(e) => fail(WireError::Protocol(e.to_string())),
                }
                for skip in &outcome.partial {
                    eprintln!("# partial: skipped zone {skip}");
                }
                eprintln!(
                    "# {} entries ({} zones skipped)",
                    outcome.entries.len(),
                    outcome.partial.len()
                );
            }
            Err(e) => fail(e),
        }
        return;
    }
    match client.query(&home, &query) {
        Ok(entries) => {
            print_ldif(&entries);
            eprintln!("# {} entries", entries.len());
        }
        Err(e) => fail(e),
    }
}

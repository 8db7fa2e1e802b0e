//! Run every experiment binary in sequence — regenerates everything
//! recorded in EXPERIMENTS.md — and emit a machine-readable
//! `BENCH_*.json` report (schema in `netdir_bench::report`).
//!
//! ```sh
//! # Full run: all nine experiment binaries + the instrumented suite,
//! # report written to results/BENCH_full.json.
//! cargo run --release -p netdir-bench --bin run_experiments
//!
//! # Smoke run: instrumented suite only (seconds, used by
//! # `scripts/check.sh --bench-smoke`).
//! cargo run --release -p netdir-bench --bin run_experiments -- \
//!     --smoke --json target/BENCH_smoke.json
//!
//! # Validate an existing report and exit.
//! cargo run --release -p netdir-bench --bin run_experiments -- \
//!     --validate results/BENCH_full.json
//! ```

use netdir_bench::report::{validate_bench_json, ExperimentResult};
use netdir_bench::{load, smoke, suite};
use std::process::{exit, Command};
use std::time::Instant;

const EXPERIMENTS: [&str; 9] = [
    "exp_hs_linear",
    "exp_agg",
    "exp_er_nlogn",
    "exp_query_tree",
    "exp_rewrite_cost",
    "exp_expressiveness",
    "exp_distributed",
    "exp_apps",
    "exp_ablation",
];

fn usage() -> ! {
    eprintln!(
        "usage: run_experiments [--smoke] [--json PATH]\n\
         \x20      run_experiments --validate PATH"
    );
    exit(2)
}

/// Run one experiment binary, preferring a sibling binary (already
/// built alongside this one) and falling back to cargo so a bare
/// `cargo run --bin run_experiments` works too.
fn run_experiment(name: &str) -> ExperimentResult {
    println!("\n════════════════════ {name} ════════════════════\n");
    let sibling = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join(name)))
        .filter(|p| p.exists());
    let started = Instant::now();
    let status = match sibling {
        Some(path) => Command::new(path).status(),
        None => Command::new("cargo")
            .args(["run", "--release", "-q", "-p", "netdir-bench", "--bin", name])
            .status(),
    }
    .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
    assert!(status.success(), "{name} failed");
    ExperimentResult {
        name: name.to_string(),
        status: "ok".to_string(),
        wall_time_secs: started.elapsed().as_secs_f64(),
    }
}

fn main() {
    let mut smoke_only = false;
    let mut json_path: Option<String> = None;
    let mut validate_path: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("run_experiments: {flag} needs a value");
                exit(2)
            })
        };
        match arg.as_str() {
            "--smoke" => smoke_only = true,
            "--json" => json_path = Some(value("--json")),
            "--validate" => validate_path = Some(value("--validate")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("run_experiments: unknown argument {other:?}");
                usage()
            }
        }
    }

    if let Some(path) = validate_path {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("run_experiments: cannot read {path}: {e}");
            exit(1)
        });
        match validate_bench_json(&text) {
            Ok(()) => println!("{path}: valid BENCH report"),
            Err(e) => {
                eprintln!("run_experiments: {path}: {e}");
                exit(1)
            }
        }
        return;
    }

    let results: Vec<ExperimentResult> = if smoke_only {
        Vec::new()
    } else {
        EXPERIMENTS.iter().map(|name| run_experiment(name)).collect()
    };

    println!("\n════════════════════ instrumented suite ════════════════════\n");
    // Full runs record the full-sized suite; smoke keeps the
    // seconds-scale one.
    let suite_cfg = if smoke_only { suite::smoke_config() } else { suite::full_config() };
    let load_cfg = if smoke_only { load::smoke_config() } else { load::full_config() };
    let mut report = smoke::instrumented_suite_with(&suite_cfg, &load_cfg);
    report.mode = if smoke_only { "smoke" } else { "full" }.to_string();
    report.experiments = results;
    for q in &report.queries {
        println!(
            "{:>7}  entries={} spans={} predicted_io={:.1} observed_io={}",
            q.level, q.entries, q.spans, q.predicted_io, q.observed_io
        );
    }
    for m in &report.mutation {
        println!(
            "{:>7}  batches={} mutations={} wall={:.4}s wal_fsyncs={} wal_page_writes={}",
            m.phase, m.batches, m.mutations, m.wall_secs, m.wal_fsyncs, m.wal_page_writes
        );
    }
    for l in &report.load {
        println!(
            "{:>9}  clients={:<3} offered={:<4} completed={:<4} busy={:<4} deadline={} \
             rps={:.0} p50={}us p99={}us p999={}us",
            l.mode,
            l.clients,
            l.offered,
            l.completed,
            l.busy,
            l.deadline,
            l.throughput_rps,
            l.p50_us,
            l.p99_us,
            l.p999_us
        );
    }
    for p in &report.planner {
        println!(
            "{:>12}  steps={} cache_hit={} reads naive={} chosen={} \
             predicted naive={:.1} chosen={:.1} wall naive={:.4}s chosen={:.4}s",
            p.label,
            p.steps,
            p.cache_hit,
            p.naive_reads,
            p.chosen_reads,
            p.predicted_naive,
            p.predicted_chosen,
            p.naive_wall_secs,
            p.chosen_wall_secs
        );
    }
    for s in &report.storage {
        println!(
            "{:>9}  baseline_reads={} engine_reads={} reduction={:.1}% \
             hit_rate lru={:.3} two_q={:.3} bytes_saved={}",
            s.cell,
            s.baseline_reads,
            s.engine_reads,
            s.read_reduction * 100.0,
            s.hit_rate_baseline,
            s.hit_rate_engine,
            s.compressed_bytes_saved
        );
    }

    let text = report.to_json();
    validate_bench_json(&text).expect("self-check: emitted report must validate");
    let path = json_path.unwrap_or_else(|| {
        let dir = if smoke_only { "target" } else { "results" };
        format!("{dir}/BENCH_{}.json", report.mode)
    });
    if let Some(parent) = std::path::Path::new(&path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .unwrap_or_else(|e| panic!("create {}: {e}", parent.display()));
        }
    }
    std::fs::write(&path, &text).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nwrote {path}");
}

//! Command line of the benchmark; `run.sh` builds and calls it.

use netdir_benchmark::daemon;
use netdir_benchmark::gen::{Workload, DEFAULT_SEED};
use netdir_benchmark::metrics::{self, END_TO_END, RUN_SECONDS};
use netdir_benchmark::run::{run, Config, Report};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Daemon starts timed per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// A run must print its result well inside the 180 s it is given.
const RUN_LIMIT: Duration = Duration::from_secs(170);

const USAGE: &str = "usage: netdir-benchmark --netdird PATH --out DIR
         [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]
       netdir-benchmark --netdird PATH --out DIR --selfcheck [--seed N] [--seconds N]
       netdir-benchmark --manifest

With --workload, runs it once and prints one JSON object as the last
line: end-to-end metrics with --trace 0 (the default), per-layer metrics
with --trace 1. Without, runs every workload both ways. --seconds 1 is
the quick mode (a tenth of the operations, the same code paths).
--selfcheck runs every workload twice and fails if the two disagree by
more than a metric's bound. --manifest prints BENCHMARK.json.";

/// The result line the driver reads.
fn json_line(report: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct, report.attempted, report.failed
    );
    for (i, (name, value)) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let unit = metrics::unit_of(name);
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

struct Args {
    netdird: Option<PathBuf>,
    out: Option<PathBuf>,
    workload: Option<Workload>,
    seed: u64,
    seconds: usize,
    trace: bool,
    selfcheck: bool,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        netdird: None,
        out: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        selfcheck: false,
        manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--netdird" => args.netdird = Some(value()?.into()),
            "--out" => args.out = Some(value()?.into()),
            "--workload" => {
                let v = value()?;
                args.workload = Some(Workload::parse(&v).ok_or(format!("no workload {v:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds wants 1 to 60".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace wants 0 or 1, got {v:?}")),
                }
            }
            "--selfcheck" => args.selfcheck = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Run every workload twice on the same binary, A then B, and compare
/// every end-to-end metric against its bound.
fn selfcheck(base: impl Fn(Workload) -> Config) -> Result<bool, String> {
    let mut agree = true;
    for workload in Workload::ALL {
        let cfg = base(workload);
        let (a, b) = (run(&cfg)?, run(&cfg)?);
        println!(
            "{}: wall {:.1} s + {:.1} s, {} + {} operations, {} + {} failed",
            workload.name(),
            a.wall.as_secs_f64(),
            b.wall.as_secs_f64(),
            a.attempted,
            b.attempted,
            a.failed,
            b.failed
        );
        agree &= a.correct && b.correct;
        for m in &END_TO_END {
            let value = |r: &Report| {
                let found = r.metrics.iter().find(|(n, _)| *n == m.name);
                found
                    .map(|(_, v)| *v)
                    .ok_or(format!("no {} reported", m.name))
            };
            let (va, vb) = (value(&a)?, value(&b)?);
            let diff = (vb - va).abs() / va.abs();
            let breach = diff > m.bound;
            agree &= !breach;
            println!(
                "  {:<16} A {:>12.4} B {:>12.4} {:<5} diff {:>6.2}% of bound {:>4.1}%{}",
                m.name,
                va,
                vb,
                m.unit,
                diff * 100.0,
                m.bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
        }
    }
    Ok(agree)
}

fn main_inner() -> Result<bool, String> {
    let args = parse_args().map_err(|e| format!("{e}\n{USAGE}"))?;
    if args.manifest {
        print!("{}", metrics::manifest());
        return Ok(true);
    }
    let netdird = args
        .netdird
        .clone()
        .ok_or(format!("--netdird is required\n{USAGE}"))?;
    let out = args
        .out
        .clone()
        .ok_or(format!("--out is required\n{USAGE}"))?;
    let config = |workload: Workload, trace: bool| Config {
        netdird: netdird.clone(),
        out: out.clone(),
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace,
        setups: SETUPS,
    };
    if args.selfcheck {
        return selfcheck(|w| config(w, false));
    }
    if let Some(workload) = args.workload {
        daemon::arm_watchdog(RUN_LIMIT);
        let report = run(&config(workload, args.trace))?;
        for note in &report.notes {
            eprintln!("{note}");
        }
        println!("{}", json_line(&report));
        return Ok(report.correct);
    }
    let mut all_correct = true;
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = run(&config(workload, trace))?;
            println!(
                "{} --trace {}: {:.1} s",
                workload.name(),
                u8::from(trace),
                report.wall.as_secs_f64()
            );
            for note in &report.notes {
                println!("  {note}");
            }
            println!("{}", json_line(&report));
            all_correct &= report.correct;
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

//! The benchmark's own checks: inputs are a function of the seed, the
//! committed manifest is the one the code prints, and the quick mode
//! drives a real daemon through every workload, untraced and traced.

use netdir_benchmark::gen::{bench_dir, op_list, render_ops, Workload, ENTRIES};
use netdir_benchmark::metrics::{manifest, END_TO_END, PER_LAYER};
use netdir_benchmark::run::{run, Config};
use netdir_model::ldif::directory_to_ldif;
use std::path::{Path, PathBuf};
use std::process::Command;

#[test]
fn same_seed_gives_byte_identical_inputs() {
    let inputs = |seed: u64| {
        let ldif = directory_to_ldif(&bench_dir(seed, ENTRIES));
        let ops: Vec<String> = Workload::ALL
            .iter()
            .map(|&w| render_ops(&op_list(w, seed, 1, &ldif)))
            .collect();
        (ldif, ops)
    };
    let (a, b, other) = (inputs(7), inputs(7), inputs(8));
    assert!(a == b, "one seed, two different sets of inputs");
    assert!(a.0 != other.0, "the seed does not reach the directory");
    for (w, (mine, theirs)) in Workload::ALL.iter().zip(a.1.iter().zip(&other.1)) {
        assert!(
            mine != theirs,
            "the seed does not reach {}'s op list",
            w.name()
        );
    }
}

#[test]
fn committed_manifest_is_the_one_the_code_prints() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        manifest(),
        "regenerate with `run.sh --manifest > BENCHMARK.json`"
    );
}

/// Build `netdird` the way `run.sh` does and return its path.
fn netdird() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join("target"));
    let built = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "-p",
            "netdir-wire",
            "--bin",
            "netdird",
        ])
        .current_dir(&root)
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("cargo runs");
    assert!(built.success(), "netdird does not build");
    target.join("release/netdird")
}

#[test]
fn quick_mode_runs_every_workload_both_ways() {
    let netdird = netdird();
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick");
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = run(&Config {
                netdird: netdird.clone(),
                out: out.clone(),
                workload,
                seed: 42,
                seconds: 1,
                trace,
                setups: 1,
            })
            .unwrap_or_else(|e| panic!("{} --trace {trace}: {e}", workload.name()));
            assert!(
                report.correct && report.failed == 0,
                "{} failed operations",
                workload.name()
            );
            assert!(report.attempted > 0);
            let names: Vec<&str> = report.metrics.iter().map(|(n, _)| *n).collect();
            if trace {
                assert_eq!(names, PER_LAYER.map(|m| m.name));
                assert!(out
                    .join(format!("trace_{}.jsonl", workload.name()))
                    .exists());
            } else {
                assert_eq!(names, END_TO_END.map(|m| m.name));
                for (name, value) in &report.metrics {
                    assert!(*value > 0.0, "{} is {value} on {}", name, workload.name());
                }
            }
        }
    }
}

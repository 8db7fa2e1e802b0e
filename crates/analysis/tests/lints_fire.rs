//! Each lint must fire on its committed bad fixture (through both the
//! library and the `ndlint` binary's exit code) and the full run must
//! be silent on the real workspace.
//!
//! Fixtures live under `tests/fixtures/<name>/` and mirror the real
//! workspace layout (`crates/*/src`, `compat/`), so the *production*
//! configuration — not a test-only one — is what gets exercised.

use std::path::PathBuf;
use std::process::Command;

use netdir_analysis::{run, Config, Report};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

fn report_for(name: &str) -> Report {
    run(&fixture(name), &Config::default()).expect("fixture scan")
}

/// Diagnostics of one lint, as display strings.
fn of(report: &Report, lint: &str) -> Vec<String> {
    report
        .violations
        .iter()
        .filter(|d| d.lint == lint)
        .map(|d| d.to_string())
        .collect()
}

fn ndlint_exit(root: &PathBuf) -> i32 {
    Command::new(env!("CARGO_BIN_EXE_ndlint"))
        .arg("--root")
        .arg(root)
        .arg("--quiet")
        .output()
        .expect("run ndlint")
        .status
        .code()
        .expect("exit code")
}

#[test]
fn clock_fixture_fires_outside_tests_only() {
    let report = report_for("clock_bad");
    let hits = of(&report, "clock-discipline");
    assert_eq!(hits.len(), 2, "{hits:?}");
    assert!(hits.iter().any(|h| h.contains("Instant::now")), "{hits:?}");
    assert!(hits.iter().any(|h| h.contains("thread::sleep")), "{hits:?}");
    // The #[cfg(test)] use in the same file stays exempt.
    assert!(hits.iter().all(|h| h.contains("hot_path")), "{hits:?}");
    assert_eq!(ndlint_exit(&fixture("clock_bad")), 1);
}

#[test]
fn wire_tags_fixture_catches_renumber_delete_and_unlocked_add() {
    let report = report_for("wire_tags_bad");
    let hits = of(&report, "wire-tag-freeze");
    assert_eq!(hits.len(), 3, "{hits:?}");
    assert!(hits.iter().any(|h| h.contains("renumbered") && h.contains("REQ_PING")));
    assert!(hits.iter().any(|h| h.contains("deleted") && h.contains("REQ_ATOMIC")));
    assert!(hits.iter().any(|h| h.contains("REQ_NEW_THING") && h.contains("not in")));
    assert_eq!(ndlint_exit(&fixture("wire_tags_bad")), 1);
}

#[test]
fn metrics_fixture_catches_typo_duplicate_and_orphan() {
    let report = report_for("metrics_bad");
    let hits = of(&report, "metric-name-registry");
    assert_eq!(hits.len(), 3, "{hits:?}");
    assert!(hits.iter().any(|h| h.contains("netdir_queries_totl")), "{hits:?}");
    assert!(hits.iter().any(|h| h.contains("more than once")), "{hits:?}");
    assert!(hits.iter().any(|h| h.contains("orphaned") && h.contains("ORPHAN")));
    assert_eq!(ndlint_exit(&fixture("metrics_bad")), 1);
}

#[test]
fn locks_fixture_flags_io_under_guard_but_not_scoped_release() {
    let report = report_for("locks_bad");
    let hits = of(&report, "no-lock-across-io");
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("write_page"));
    assert!(hits[0].contains("in fn evict"), "{hits:?}");
    assert_eq!(ndlint_exit(&fixture("locks_bad")), 1);
}

#[test]
fn panics_fixture_flags_reachable_sites_with_call_path() {
    let report = report_for("panics_bad");
    let hits = of(&report, "panic-path");
    assert_eq!(hits.len(), 3, "{hits:?}");
    let decode: Vec<_> = hits.iter().filter(|h| h.contains("serve_conn -> decode")).collect();
    assert_eq!(decode.len(), 2, "{hits:?}");
    assert!(decode.iter().any(|h| h.contains("unwrap")), "{hits:?}");
    assert!(decode.iter().any(|h| h.contains("panic!")), "{hits:?}");
    // The call graph sees through `dyn Transport`: a zone answered on
    // the serving thread is on the walked path with no root of its own…
    assert!(
        hits.iter().any(|h| h.contains("serve_conn -> atomic")
            && h.contains("transport.rs")
            && h.contains("expect")),
        "{hits:?}"
    );
    // …and the unreachable `offline_tool` expect stays unflagged.
    assert!(!hits.iter().any(|h| h.contains("offline_tool")));
    assert_eq!(ndlint_exit(&fixture("panics_bad")), 1);
}

#[test]
fn the_real_workspace_is_clean() {
    let root = repo_root();
    let report = run(&root, &Config::default()).expect("workspace scan");
    assert!(
        report.violations.is_empty(),
        "real tree must be ndlint-clean:\n{}",
        report
            .violations
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.files_scanned > 50, "scan actually covered the tree");
    assert!(report.allowed > 0, "allowlist is exercised");
    assert!(
        report.unused_allows.is_empty(),
        "stale allow entries:\n{}",
        report.unused_allows.join("\n")
    );
    assert_eq!(ndlint_exit(&root), 0);
}

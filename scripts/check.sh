#!/bin/sh
# Pre-merge gate: release build, the whole test suite (every crate's
# unit, integration, chaos, recovery and analysis suites), clippy (all
# targets, warnings promoted to errors), ndlint (the workspace invariant
# linter — see DESIGN.md §11), and the committed deterministic tables
# (results/exp_{distributed,hs_linear,agg,er_nlogn,query_tree,
# rewrite_cost}.txt) regenerated and diffed. No step compares wall-clock
# times. Run from anywhere in the repo.
#
#   scripts/check.sh          the gate
#   scripts/check.sh --full   the gate, then the timed experiment
#                             reports (exp_ablation, exp_apps,
#                             exp_expressiveness, exp_overload) run to
#                             completion into target/, the nightly
#                             sanitizer jobs (each skips itself when its
#                             toolchain component is missing), and last
#                             the tests of the repository's benchmark
#                             (benchmark/, a package of its own)
set -eu
cd "$(dirname "$0")/.."

full=0
for arg in "$@"; do
  case "$arg" in
    --full) full=1 ;;
    *) echo "check.sh: unknown argument $arg" >&2; exit 2 ;;
  esac
done

cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
# The invariant linter: clock discipline, wire-tag freeze, metric-name
# registry, no-lock-across-io, panic-path.
cargo run --release -q -p netdir-analysis --bin ndlint
# The committed experiment tables are deterministic (E12's counts of
# requests, entries and bytes shipped; the theorem tables' page counts,
# I/Os and list sizes on seeded inputs), so each must regenerate byte
# for byte: a change that moves a page count or what a query ships
# commits the new table and says why.
for exp in exp_distributed exp_hs_linear exp_agg exp_er_nlogn exp_query_tree \
    exp_rewrite_cost; do
  cargo run --release -q -p netdir-bench --bin "$exp" > "target/$exp.txt"
  diff -u "results/$exp.txt" "target/$exp.txt"
done

if [ "$full" = 1 ]; then
  # Reports with timed columns: each must run to completion, and its
  # numbers are read, not diffed.
  for exp in exp_ablation exp_apps exp_expressiveness exp_overload; do
    echo "check.sh: $exp > target/$exp.txt"
    cargo run --release -q -p netdir-bench --bin "$exp" > "target/$exp.txt"
  done

  echo "check.sh: sanitizer jobs (nightly-only)"
  if rustup toolchain list 2>/dev/null | grep -q nightly; then
    # TSan needs -Zbuild-std, which needs the rust-src component.
    if rustup component list --toolchain nightly 2>/dev/null \
        | grep -q 'rust-src (installed)'; then
      echo "check.sh: ThreadSanitizer over the concurrent pool suite"
      RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -q \
        -Zbuild-std --target x86_64-unknown-linux-gnu \
        -p netdir-pager --test concurrent_pool
    else
      echo "check.sh: SKIP ThreadSanitizer (nightly rust-src not installed)"
    fi
    if rustup component list --toolchain nightly 2>/dev/null \
        | grep -q 'miri (installed)'; then
      echo "check.sh: Miri over the codec property tests"
      cargo +nightly miri test -q -p netdir-wire codec
    else
      echo "check.sh: SKIP Miri (not installed)"
    fi
  else
    echo "check.sh: SKIP sanitizers (no nightly toolchain installed)"
  fi

  echo "check.sh: the benchmark package's tests"
  # Into the root's target directory, where run.sh builds too.
  (cd benchmark && CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/../target}" \
    cargo test --release --offline)
fi

echo "check.sh: all green"

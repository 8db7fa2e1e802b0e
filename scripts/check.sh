#!/bin/sh
# Full pre-merge gate: release build, the whole test suite, clippy
# (all targets, warnings promoted to errors), ndlint (the workspace
# invariant linter — see DESIGN.md §11), and the committed deterministic
# tables (results/exp_{distributed,hs_linear,agg,er_nlogn,query_tree,
# rewrite_cost}.txt) regenerated and diffed. Run from anywhere in the
# repo.
#
#   scripts/check.sh                the gate
#   scripts/check.sh --chaos        gate + the seeded fault-injection
#                                   suites run explicitly (they are part
#                                   of `cargo test` too; this names them
#                                   for a loud, separate verdict)
#   scripts/check.sh --bench-smoke  gate + the instrumented benchmark
#                                   smoke suite: emits target/
#                                   BENCH_smoke.json and validates its
#                                   schema and tracked-metric coverage;
#                                   then the tests of the repository's
#                                   benchmark (benchmark/, a package of
#                                   its own: manifest equality, seeded
#                                   inputs, a quick run of every
#                                   workload against a real netdird)
#   scripts/check.sh --wal-smoke    gate + the write-path guards run
#                                   explicitly: the crash-recovery
#                                   torture suite (WAL truncated at
#                                   every byte), the journal unit
#                                   tests, and the publish-path
#                                   generation-isolation test
#   scripts/check.sh --load-smoke   gate + the overload guards run
#                                   explicitly: the daemon's admission/
#                                   deadline tests, the overload chaos
#                                   determinism suite, and the closed-
#                                   loop load sweep landing in target/
#                                   BENCH_smoke.json (schema validated,
#                                   shedding invariants asserted)
#   scripts/check.sh --storage-smoke  gate + the storage-engine guards
#                                   run explicitly: the buffer-pool unit
#                                   tests (two-queue policy, the
#                                   eviction no-full-scan regression),
#                                   the seeded scan-resistance suite,
#                                   and the compression/scan-mix sweep
#                                   landing in target/BENCH_smoke.json
#                                   (schema validated, the ≥20%
#                                   cold-read reduction and the scan-mix
#                                   hit-rate win asserted)
#   scripts/check.sh --analysis     gate + the static/dynamic analysis
#                                   suites run explicitly: the ndlint
#                                   fixture tests (each lint proven to
#                                   fire) and the exhaustive-interleaving
#                                   model of the buffer pool's
#                                   loading-frame protocol. ndlint itself
#                                   is always part of the default gate.
#   scripts/check.sh --sanitize     nightly-only dynamic analysis:
#                                   concurrency suites under
#                                   ThreadSanitizer and codec proptests
#                                   under Miri. Each job probes for its
#                                   toolchain component and skips with a
#                                   message when unavailable (this
#                                   container's nightly has neither
#                                   rust-src nor miri); intended for the
#                                   nightly CI lane, not the default
#                                   gate.
set -eu
cd "$(dirname "$0")/.."

chaos=0
bench_smoke=0
wal_smoke=0
load_smoke=0
storage_smoke=0
analysis=0
sanitize=0
for arg in "$@"; do
  case "$arg" in
    --chaos) chaos=1 ;;
    --bench-smoke) bench_smoke=1 ;;
    --wal-smoke) wal_smoke=1 ;;
    --load-smoke) load_smoke=1 ;;
    --storage-smoke) storage_smoke=1 ;;
    --analysis) analysis=1 ;;
    --sanitize) sanitize=1 ;;
    *) echo "check.sh: unknown argument $arg" >&2; exit 2 ;;
  esac
done

cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
# The invariant linter is part of the default gate: clock discipline,
# wire-tag freeze, metric-name registry, no-lock-across-io, panic-path.
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

if [ "$chaos" = 1 ]; then
  echo "check.sh: running seeded fault-injection suites"
  cargo test -q -p netdir-server fault
  cargo test -q -p netdir-server retry
  cargo test -q -p netdir-server health
  cargo test -q -p netdir-wire --test chaos
fi

if [ "$bench_smoke" = 1 ]; then
  echo "check.sh: running instrumented benchmark smoke suite"
  cargo run --release -q -p netdir-bench --bin run_experiments -- \
    --smoke --json target/BENCH_smoke.json
  cargo run --release -q -p netdir-bench --bin run_experiments -- \
    --validate target/BENCH_smoke.json
  # Into the root's target directory, where run.sh builds too.
  (cd benchmark && CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/../target}" \
    cargo test --release --offline)
fi

if [ "$wal_smoke" = 1 ]; then
  echo "check.sh: running write-path guards"
  cargo test -q -p netdir-journal
  cargo test -q -p netdir-journal --test recovery_torture
  cargo test -q --test publish
  cargo test -q -p netdir-bench mutation
fi

if [ "$load_smoke" = 1 ]; then
  echo "check.sh: running overload guards"
  cargo test -q -p netdir-server admission
  cargo test -q -p netdir-wire --lib
  cargo test -q -p netdir-wire --test chaos admission_under_chaos
  cargo test -q --release -p netdir-bench --lib load
  cargo run --release -q -p netdir-bench --bin run_experiments -- \
    --smoke --json target/BENCH_smoke.json
  cargo run --release -q -p netdir-bench --bin run_experiments -- \
    --validate target/BENCH_smoke.json
fi

if [ "$storage_smoke" = 1 ]; then
  echo "check.sh: running storage-engine guards"
  cargo test -q -p netdir-pager --lib
  cargo test -q -p netdir-pager --test scan_resistance
  cargo test -q --release -p netdir-bench --lib storage
  cargo run --release -q -p netdir-bench --bin run_experiments -- \
    --smoke --json target/BENCH_smoke.json
  cargo run --release -q -p netdir-bench --bin run_experiments -- \
    --validate target/BENCH_smoke.json
fi

if [ "$analysis" = 1 ]; then
  echo "check.sh: running analysis suites"
  # Every lint fires on its committed bad fixture; the real tree is clean.
  cargo test -q -p netdir-analysis --test lints_fire
  # The loading-frame protocol survives every interleaving (and the
  # checker catches the planted check-then-read bug).
  cargo test -q -p netdir-analysis model
  # The wire-tag freeze, re-checked dynamically against the lockfile.
  cargo test -q -p netdir-wire every_tag_round_trips
fi

if [ "$sanitize" = 1 ]; then
  echo "check.sh: running sanitizer jobs (nightly-only)"
  if rustup toolchain list 2>/dev/null | grep -q nightly; then
    # TSan needs -Zbuild-std, which needs the rust-src component.
    if rustup component list --toolchain nightly 2>/dev/null \
        | grep -q 'rust-src (installed)'; then
      echo "check.sh: ThreadSanitizer over the concurrency suites"
      RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -q \
        -Zbuild-std --target x86_64-unknown-linux-gnu \
        -p netdir-pager --test concurrent_pool
    else
      echo "check.sh: SKIP ThreadSanitizer (nightly rust-src not installed;" \
           "run: rustup component add rust-src --toolchain nightly)"
    fi
    if rustup component list --toolchain nightly 2>/dev/null \
        | grep -q 'miri (installed)'; then
      echo "check.sh: Miri over the codec property tests"
      cargo +nightly miri test -q -p netdir-wire codec
    else
      echo "check.sh: SKIP Miri (not installed;" \
           "run: rustup component add miri --toolchain nightly)"
    fi
  else
    echo "check.sh: SKIP sanitizers (no nightly toolchain installed)"
  fi
fi

echo "check.sh: all green"

#!/usr/bin/env bash
# Build the daemon and the benchmark from source, then run the benchmark.
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds N --trace 0|1
#   bash benchmark/run.sh                  # every workload, both ways
#   bash benchmark/run.sh --selfcheck      # two sets of runs must agree
#
# Everything is written under $CARGO_TARGET_DIR (default: target/).
set -euo pipefail
cd "$(dirname "$0")/.."

target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# netdird is built as a user of the repository builds it, from the root
# workspace with its profile and lockfile; the benchmark is a package of
# its own beside it.
cargo build --release --offline -p netdir-wire --bin netdird >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2

exec "$target/release/netdir-benchmark" \
    --netdird "$target/release/netdird" --out "$target/benchmark" "$@"

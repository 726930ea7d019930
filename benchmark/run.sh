#!/usr/bin/env bash
# Builds the release servers (root workspace) and the benchmark harness
# (this directory's own workspace), then runs the harness.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh [--seed N] [--seconds S] [--tiny] [--sets K]
#   benchmark/run.sh compare A.json B.json
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;; # relative to the checkout, whatever cargo's cwd
esac
export CARGO_TARGET_DIR="$target"

# Cargo's progress goes to stderr; standard output is the harness's alone.
cargo build --release --offline --manifest-path "$root/Cargo.toml" \
  -p secemb-adapt -p secemb-router --bins >&2
cargo build --release --offline --manifest-path "$root/benchmark/Cargo.toml" >&2

exec "$target/release/secemb-benchmark" \
  --root "$root" --bin-dir "$target/release" "$@"

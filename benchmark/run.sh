#!/usr/bin/env bash
# Builds the `fhp` CLI and the `fhp-bench` driver from this checkout, then
# runs `fhp-bench` with the arguments given, e.g.
#
#   bash benchmark/run.sh --workload serve-edit --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build at the
# checkout root). Cargo's output goes to stderr; the result line of `fhp-bench`
# is the last line of stdout.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p fhp-cli --bin fhp 1>&2
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" 1>&2

exec "$CARGO_TARGET_DIR/release/fhp-bench" --fhp "$CARGO_TARGET_DIR/release/fhp" "$@"

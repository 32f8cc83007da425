#!/usr/bin/env bash
# One entry point for the benchmark. Modes:
#
#   smoke                 every workload, untraced and traced, 2 s windows (<= 2 min);
#                         asserts every metric named in BENCHMARK.json was printed.
#                         Its numbers are not comparable with a full run's.
#   full  [--seed S]      every workload untraced, each in its own process -> out/full.jsonl
#   trace [--seed S]      every workload traced -> out/trace.jsonl, out/trace-<workload>.jsonl,
#                         then the end-to-end metrics of both runs side by side
#   repeat N [--seed S]   N sets of full (seed S+set) and trace (seed S) runs, then the
#                         distribution of every end-to-end metric; fails on an unsteady
#                         metric or an inexact ledger/count metric
#   compare A B           one row per (workload, end-to-end metric): ok/regressed/unresolved
#   check                 cargo fmt --check, clippy -D warnings, cargo test for this package
#   manifest              print BENCHMARK.json as the metric catalogue defines it
#
# Nothing but --seed, the workload and the smoke scale changes what is measured.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
cd "$here/.."
export CARGO_NET_OFFLINE=true
target=${CARGO_TARGET_DIR:-$here/target}
bin=$target/release/pardict-benchmark
out=$here/out
workloads=(dict-build match-scan archive serve-mixed cluster-scatter)

build() {
  cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
  mkdir -p "$out"
}

# run_set FILE TRACE SEED [extra flags]: every workload once, rows appended to FILE.
run_set() {
  local file=$1 trace=$2 seed=$3
  shift 3
  rm -f "$file"
  for w in "${workloads[@]}"; do
    "$bin" --workload "$w" --seed "$seed" --trace "$trace" --out "$file" "$@" | sed '$d'
  done
}

seed=20260927
mode=${1:-}
[ $# -gt 0 ] && shift
count=
if [ "$mode" = repeat ]; then
  count=${1:?repeat needs a count}
  shift
fi
if [ "${1:-}" = --seed ]; then
  seed=${2:?--seed needs a value}
  shift 2
fi

case "$mode" in
  smoke)
    build
    run_set "$out/smoke.jsonl" 0 "$seed" --seconds 2
    run_set "$out/smoke-trace.jsonl" 1 "$seed" --seconds 2
    "$bin" names "$out/smoke.jsonl" "$out/smoke-trace.jsonl"
    ;;
  full)
    build
    run_set "$out/full.jsonl" 0 "$seed"
    ;;
  trace)
    build
    run_set "$out/trace.jsonl" 1 "$seed"
    if [ -f "$out/full.jsonl" ]; then
      echo "# harness tracing overhead: out/full.jsonl beside out/trace.jsonl"
      "$bin" overhead "$out/full.jsonl" "$out/trace.jsonl"
    fi
    ;;
  repeat)
    build
    files=()
    for ((i = 0; i < count; i++)); do
      echo "# set $((i + 1)) of $count" >&2
      run_set "$out/repeat-$i.jsonl" 0 $((seed + i)) > /dev/null
      run_set "$out/repeat-$i-trace.jsonl" 1 "$seed" > /dev/null
      cat "$out/repeat-$i-trace.jsonl" >> "$out/repeat-$i.jsonl"
      rm "$out/repeat-$i-trace.jsonl"
      files+=("$out/repeat-$i.jsonl")
    done
    "$bin" summary "${files[@]}"
    ;;
  compare)
    build
    "$bin" compare "${1:?compare needs two result files}" "${2:?compare needs two result files}"
    ;;
  check)
    cargo fmt --manifest-path "$here/Cargo.toml" --check
    cargo clippy --offline --manifest-path "$here/Cargo.toml" --all-targets -- -D warnings
    cargo test --release --offline --manifest-path "$here/Cargo.toml"
    ;;
  manifest)
    build
    "$bin" manifest
    ;;
  *)
    sed -n '2,17p' "$0"
    exit 2
    ;;
esac

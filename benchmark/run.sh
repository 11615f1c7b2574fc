#!/usr/bin/env bash
# Builds the benchmark in release and runs workloads, each in its own
# process. With --workload: that one (the form the driver uses, result
# line last). Without: all five, one after the other.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
workloads=(reg_sgx reg_container pool_open pool_open_cached pool_faulted)
workload="" seed=300 seconds=10 trace=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --traced) trace=1; shift ;;
    *) echo "usage: $0 [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced]" >&2; exit 2 ;;
  esac
done

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/shield5g-benchmark"

[ -n "$workload" ] && workloads=("$workload")
for w in "${workloads[@]}"; do
  "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
    --out "$here/out" --repo "$here/.."
done

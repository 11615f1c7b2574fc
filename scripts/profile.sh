#!/usr/bin/env bash
# Frame-pointer sampling profile of one benchmark workload — the profile
# ROADMAP item 10's reopen rule asks for. Not part of check.sh or CI; needs
# gcc, nm and python3 besides cargo.
#
#   scripts/profile.sh [--allocs | --peak] <workload> [seconds] [frame]
#
# Builds benchmark/ with frame pointers into target/profile, preloads
# scripts/profile_sampler.c (SIGALRM every 200 us, rbp walk) and prints the
# top self and inclusive symbols over the samples whose stack contains
# `frame`, so set-up and the heap pre-touch stay out of the shares. `frame`
# defaults to the timed phase: RegWorld::op for reg_*, fault_sweep for
# pool_faulted, pool_sweep otherwise. --seconds 40 gives about 8k timed
# samples on pool_open.
#
# --allocs preloads scripts/alloc_sampler.c instead: one sample per 4th
# malloc/calloc/realloc on the main thread, so a sample is 4 allocations
# and the inclusive list names the sites that allocate. Each row then also
# gives the site's allocations per op (samples x 4 / the run's attempted
# ops). Either way the set-up's own calls of `frame` (its warm-ups) are
# left out, so the shares and counts are the timed phase's.
#
# --peak preloads scripts/heap_sampler.c: it tracks the live bytes of every
# call-site stack on all threads and snapshots them at the heap's peak, so
# the report lists the symbols under which the peak's bytes were allocated,
# in KB and as a share, at the snapshot that matches the run's own
# `peak_heap_mb` (the two agree within 1 %). `frame` then defaults to every
# site, set-up included: the peak is a state of the whole run, not of one
# phase.
#
# To see who calls a hot leaf, re-read the last run's samples with the
# report's callers view: the most common chains of DEPTH (default 4)
# frames above every leaf matching SYMBOL, with their shares, e.g.
#
#   python3 scripts/profile_report.py target/profile/release/shield5g-benchmark \
#     target/profile/samples.txt RegWorld::op 15 --callers sha256::compress 4
set -euo pipefail

sampler=profile_sampler
case "${1:-}" in
  --allocs) sampler=alloc_sampler; shift ;;
  --peak) sampler=heap_sampler; shift ;;
esac
[ $# -ge 1 ] || { sed -n '2,36p' "$0" >&2; exit 2; }
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
workload="$1" seconds="${2:-10}"
case "$workload" in
  reg_*) frame="RegWorld::op" ;;
  pool_faulted) frame="fault_sweep" ;;
  *) frame="pool_sweep" ;;
esac
[ "$sampler" = heap_sampler ] && frame=""
frame="${3:-$frame}"

dir="$root/target/profile"
RUSTFLAGS="-C force-frame-pointers=yes -C debuginfo=1" CARGO_TARGET_DIR="$dir" \
  cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"
gcc -O2 -fno-omit-frame-pointer -shared -fPIC -o "$dir/$sampler.so" "$root/scripts/$sampler.c"

bin="$dir/release/shield5g-benchmark"
PROFILE_OUT="$dir/samples.txt" LD_PRELOAD="$dir/$sampler.so" \
  "$bin" --workload "$workload" --seed 300 --seconds "$seconds" --trace 0 \
  --out "$dir/out" --repo "$root" > "$dir/run.log"
tail -n 1 "$dir/run.log" | cut -c 1-200
ops="$(tail -n 1 "$dir/run.log" | sed -n 's/.*"attempted": \([0-9]*\).*/\1/p')"
extra=(--ops "$ops")
if [ "$sampler" = heap_sampler ]; then
  heap="$(tail -n 1 "$dir/run.log" | sed -n 's/.*"peak_heap_mb": {"value": \([0-9.]*\).*/\1/p')"
  echo "run peak_heap_mb $heap"
  extra=(--at-mb "$heap")
fi
python3 "$root/scripts/profile_report.py" "$bin" "$dir/samples.txt" "$frame" "${extra[@]}"

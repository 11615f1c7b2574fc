#!/usr/bin/env bash
# Host-time record (ROADMAP item 10): runs each benchmark workload N times
# at `--seconds 10`, then tier-1's clean test compile and its test run, and
# appends one row to BENCH_host.json. A log, not a gate; needs python3
# besides cargo.
#
#   scripts/host_record.sh [--runs N] [--seed S] [--label TEXT] [--out FILE]
#
# A row holds the commit (suffixed `+dirty` when tracked files differ from
# it), the seed, the core count and the run count; per workload the median
# and IQR of `ops_per_s` and `setup_s` over the runs, the batch count the
# run's `ops_per_s` rests on, the exact `allocs_per_op` and `peak_heap_mb`,
# and the digest; then `tier1_compile_s` (a clean `cargo test -q --no-run`
# in a fresh target dir under $TMPDIR) and `tier1_run_s` (`cargo test -q`
# against it). Rows are one JSON object per line, oldest first. Run it on a
# quiet machine: every number but the counts is host time.
#
# benchmark/run.sh rewrites benchmark/Cargo.lock when it builds; restore it
# with `git checkout benchmark/Cargo.lock` afterwards.
set -euo pipefail

cd "$(dirname "$0")/.."

runs=5 seed=300 label="" out="$PWD/BENCH_host.json"
while [ $# -gt 0 ]; do
  case "$1" in
    --runs) runs="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --label) label="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    *) echo "usage: $0 [--runs N] [--seed S] [--label TEXT] [--out FILE]" >&2; exit 2 ;;
  esac
done

commit="$(git rev-parse --short HEAD)"
if [ -n "$(git status --porcelain --untracked-files=no -- . ':!BENCH_host.json' ':!benchmark/Cargo.lock')" ]; then
  commit="$commit+dirty"
fi

scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

# One line per run: `<workload> <digest> <batches> <result JSON>`.
for ((i = 0; i < runs; i++)); do
  for w in reg_sgx reg_container pool_open pool_open_cached pool_faulted; do
    output="$(bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds 10)"
    digest="$(printf '%s\n' "$output" | sed -n 's/^digest \([0-9a-f]*\).*/\1/p')"
    batches="$(printf '%s\n' "$output" | sed -n 's/^ops_per_s .* of n=\([0-9]*\) batches.*/\1/p')"
    echo "$w $digest $batches $(printf '%s\n' "$output" | tail -n 1)" >> "$scratch/runs"
    echo "    $w run $((i + 1))/$runs digest $digest" >&2
  done
done

t0="$(date +%s.%N)"
CARGO_TARGET_DIR="$scratch/target" cargo test --offline -q --no-run >&2
t1="$(date +%s.%N)"
CARGO_TARGET_DIR="$scratch/target" cargo test --offline -q >/dev/null
t2="$(date +%s.%N)"

python3 - "$scratch/runs" "$out" "$commit" "$label" "$seed" "$(nproc)" "$runs" "$t0" "$t1" "$t2" <<'EOF'
import json, os, statistics, sys

runs_file, out, commit, label, seed, cores, runs, t0, t1, t2 = sys.argv[1:]
samples = {}
for line in open(runs_file):
    workload, digest, batches, result = line.split(" ", 3)
    samples.setdefault(workload, []).append((digest, int(batches), json.loads(result)))

def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "iqr": round(q3 - q1, 4)}

workloads = {}
for workload, rows in samples.items():
    metric = lambda name: [r["metrics"][name]["value"] for _, _, r in rows]
    exact = {(d, b, a, h) for (d, b, _), a, h in
             zip(rows, metric("allocs_per_op"), metric("peak_heap_mb"))}
    if len(exact) != 1:
        sys.exit(f"{workload}: runs disagree on digest, batches or a count: {exact}")
    workloads[workload] = {
        "ops_per_s": spread(metric("ops_per_s")),
        "setup_s": spread(metric("setup_s")),
        "batches": rows[0][1],
        "allocs_per_op": metric("allocs_per_op")[0],
        "peak_heap_mb": round(metric("peak_heap_mb")[0], 6),
        "digest": rows[0][0],
    }
row = {"commit": commit}
if label:
    row["label"] = label
row.update(seed=int(seed), cores=int(cores), runs=int(runs), workloads=workloads,
           tier1_compile_s=round(float(t1) - float(t0), 1),
           tier1_run_s=round(float(t2) - float(t1), 1))

lines = []
if os.path.exists(out):
    lines = [l.rstrip(",\n") for l in open(out) if l.startswith('{"commit"')]
lines.append(json.dumps(row, separators=(",", ":")))
with open(out, "w") as f:
    f.write('{"bench":"host","rows":[\n' + ",\n".join(lines) + "\n]}\n")
print(lines[-1])
EOF

#!/usr/bin/env bash
# Runs the untraced benchmark twice over (two sets of --runs seeds per
# workload) and checks that the two sets agree:
#   - every simulated output (digest, sim_* metrics, fail_frac, SLO rate)
#     is bit-identical for the same seed;
#   - each end-to-end metric's set medians differ by no more than its
#     bound in BENCHMARK.json, in the worse direction.
# A host metric whose own spread exceeds its bound is printed as
# "unresolved", never as agreeing. Exits non-zero on any disagreement.
#
#   benchmark/repeat.sh [--runs N] [--seed S] [--seconds T] [--workload NAME]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs=10 seed=300 seconds=10
workloads=(reg_sgx reg_container pool_open pool_open_cached pool_faulted)
while [ $# -gt 0 ]; do
  case "$1" in
    --runs) runs="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --workload) workloads=("$2"); shift 2 ;;
    *) echo "usage: $0 [--runs N] [--seed S] [--seconds T] [--workload NAME]" >&2; exit 2 ;;
  esac
done

out="$here/out/repeat"
rm -rf "$out"
mkdir -p "$out"
for set in 1 2; do
  for w in "${workloads[@]}"; do
    for ((i = 0; i < runs; i++)); do
      s=$((seed + i))
      echo "set $set: $w seed $s" >&2
      "$here/run.sh" --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 \
        > "$out/$set.$w.$s.txt"
    done
  done
done

python3 - "$here/../BENCHMARK.json" "$out" "$seed" "$runs" "${workloads[@]}" <<'EOF'
import json, re, statistics, sys

spec = json.load(open(sys.argv[1]))
out, seed, runs, workloads = sys.argv[2], int(sys.argv[3]), int(sys.argv[4]), sys.argv[5:]
# Outputs that must repeat exactly for a seed; everything else is host-side.
EXACT = ("digest", "allocs_per_op", "peak_heap_mb", "sim_op_ms_p50", "sim_op_ms_p99",
         "sim_goodput_per_s", "sim_slo_rate_per_s", "fail_frac", "ok_frac")


def read(set_, workload, s):
    """The printed lines (name -> value text) and the result line's metrics."""
    lines = open(f"{out}/{set_}.{workload}.{s}.txt").read().splitlines()
    printed = {l.split()[0]: l.split()[1] for l in lines if l and l[0] not in "#{"}
    result = json.loads(lines[-1])
    assert result["correct"], f"{workload} seed {s}: incorrect run"
    # Within-run spread of the batches, for sets of a single run.
    note = next(l for l in lines if l.startswith("ops_per_s"))
    q1, med, q3 = map(float, re.search(r"q1 (\S+) median (\S+) q3 (\S+)", note).groups())
    return printed, {k: v["value"] for k, v in result["metrics"].items()}, (q3 - q1) / med


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


failed = False
for w in workloads:
    sets = {1: [], 2: []}
    for s in range(seed, seed + runs):
        a, b = read(1, w, s), read(2, w, s)
        for name in EXACT:
            if a[0].get(name) != b[0].get(name):
                print(f"{w} seed {s}: {name} differs between sets: {a[0].get(name)} vs {b[0].get(name)}")
                failed = True
        sets[1].append(a)
        sets[2].append(b)
    print(f"\n{w}: {runs} runs per set")
    print(f"  {'metric':<20}{'median 1':>14}{'median 2':>14}{'gap':>9}{'spread 1':>10}{'spread 2':>10}{'bound':>7}  verdict")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        med = [statistics.median(r[1][name] for r in sets[k]) for k in (1, 2)]
        # Positive gap = set 2 is worse than set 1.
        gap = (med[1] - med[0]) / med[0] * (1 if m["better"] == "lower" else -1)
        if runs >= 2:
            spreads = [spread([r[1][name] for r in sets[k]]) for k in (1, 2)]
        else:
            spreads = [sets[k][0][2] if name == "ops_per_s" else 0.0 for k in (1, 2)]
        if name in EXACT:
            verdict = "exact" if med[0] == med[1] else "DIFFERS"
        elif max(spreads) > bound:
            verdict = "unresolved"
        elif abs(gap) > bound:
            verdict = "DISAGREE"
        else:
            verdict = "agree"
        failed |= verdict in ("DIFFERS", "DISAGREE")
        print(f"  {name:<20}{med[0]:>14.6g}{med[1]:>14.6g}{gap:>+9.3f}{spreads[0]:>10.3f}{spreads[1]:>10.3f}{bound:>7}  {verdict}")
sys.exit(1 if failed else 0)
EOF

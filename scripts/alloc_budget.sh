#!/usr/bin/env sh
# Allocation and heap ratchet, beside the panic-budget ratchet of
# shield5g-lint: runs the benchmark's one-second form of each workload
# listed in scripts/alloc_budget.txt, reads `allocs_per_op` and
# `peak_heap_mb` from the JSON result line, and fails when either exceeds
# its committed number by more than 2 %, or reads more than 5 % below it
# (a gain is ratcheted in by the change that earns it).
# Only reads the benchmark's output; nothing under benchmark/ knows it.
set -eu

cd "$(dirname "$0")/.."

status=0
while read -r workload allocs heap; do
  case "$workload" in '' | '#'*) continue ;; esac
  result="$(bash benchmark/run.sh --workload "$workload" --seconds 1 | tail -n 1)"
  for pair in "allocs_per_op:$allocs" "peak_heap_mb:$heap"; do
    metric="${pair%%:*}" budget="${pair#*:}"
    got="$(printf '%s\n' "$result" |
      sed -n 's/.*"'"$metric"'": {"value": \([0-9.eE+-]*\).*/\1/p')"
    if [ -z "$got" ] || [ -z "$budget" ]; then
      echo "alloc budget: no $metric for $workload (result line or budget column missing)" >&2
      exit 1
    fi
    if ! awk -v got="$got" -v budget="$budget" 'BEGIN { exit !(got <= budget * 1.02) }'; then
      echo "alloc budget exceeded: $workload $metric $got > $budget + 2 %" >&2
      status=1
    elif ! awk -v got="$got" -v budget="$budget" 'BEGIN { exit !(got >= budget * 0.95) }'; then
      echo "alloc budget stale: $workload $metric $got < $budget - 5 %; lower it in scripts/alloc_budget.txt" >&2
      status=1
    else
      echo "    ok $workload $metric $got (budget $budget + 2 %)"
    fi
  done
done < scripts/alloc_budget.txt
exit "$status"

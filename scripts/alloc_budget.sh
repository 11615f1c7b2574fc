#!/usr/bin/env sh
# Allocation ratchet, beside the panic-budget ratchet of shield5g-lint:
# runs the benchmark's one-second form of each workload listed in
# scripts/alloc_budget.txt, reads `allocs_per_op` from the JSON result
# line, and fails when it exceeds the committed number by more than 2 %.
# Only reads the benchmark's output; nothing under benchmark/ knows it.
set -eu

cd "$(dirname "$0")/.."

status=0
while read -r workload budget; do
  case "$workload" in '' | '#'*) continue ;; esac
  got="$(bash benchmark/run.sh --workload "$workload" --seconds 1 | tail -n 1 |
    sed -n 's/.*"allocs_per_op": {"value": \([0-9.eE+-]*\).*/\1/p')"
  if [ -z "$got" ]; then
    echo "alloc budget: no allocs_per_op in the $workload result line" >&2
    exit 1
  fi
  if awk -v got="$got" -v budget="$budget" 'BEGIN { exit !(got <= budget * 1.02) }'; then
    echo "    ok $workload allocs_per_op $got (budget $budget + 2 %)"
  else
    echo "alloc budget exceeded: $workload allocs_per_op $got > $budget + 2 %" >&2
    status=1
  fi
done < scripts/alloc_budget.txt
exit "$status"

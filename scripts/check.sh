#!/usr/bin/env sh
# Repo-wide gate: formatting, lints, offline build, full test suite.
# Run from anywhere; everything executes against the workspace root.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (warnings are errors; clippy.toml's disallowed-types hold determinism; unwrap/expect outside tests needs an #[expect] waiver; an unused dependency edge fails; the criterion microbenches are compiled and linted; vendored shims excluded)"
cargo clippy --offline --workspace --all-targets \
  --exclude criterion --exclude proptest \
  -- -D warnings

echo "==> cargo doc (rustdoc warnings are errors: a link that does not resolve, such as a std:: path in the no_std crypto crate, fails here)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

# The lint step prints its findings as text and writes a SARIF copy of
# them into the observability dir so CI can upload it with the other
# artifacts; the self-benchmark line (files scanned, wall time) goes to
# stderr.
SHIELD5G_OBS_DIR="${SHIELD5G_OBS_DIR:-target/obs}"
case "$SHIELD5G_OBS_DIR" in
  /*) ;;
  *) SHIELD5G_OBS_DIR="$(pwd)/$SHIELD5G_OBS_DIR" ;;
esac
export SHIELD5G_OBS_DIR

mkdir -p "$SHIELD5G_OBS_DIR"

echo "==> shield5g-lint (enclave boundary / mw boundary / constant time; secret hygiene is each crate's registry test)"
cargo run --offline -q -p shield5g-lint
echo "    ok $SHIELD5G_OBS_DIR/lint_findings.sarif ($(wc -c < "$SHIELD5G_OBS_DIR/lint_findings.sarif") bytes)"

echo "==> cargo build (offline)"
cargo build --offline --workspace

echo "==> cargo test"
cargo test --offline --workspace -q

echo "==> crypto + hmee in release (overflow checks off, as shipped; incl. the ignored RFC 7748 million-iteration vector)"
cargo test --offline --release -p shield5g-crypto -p shield5g-hmee -- --include-ignored

echo "==> allocation + heap budget (benchmark allocs_per_op and peak_heap_mb on all five workloads vs scripts/alloc_budget.txt, +2 %)"
sh scripts/alloc_budget.sh

echo "==> experiments (every paper figure, table and sweep at bench reps; fails on an out-of-band paper check)"
# Absolute SHIELD5G_OBS_DIR (exported above): cargo runs bench binaries
# with the *package* directory as cwd, so a relative artifact dir would
# land under crates/bench/.
cargo bench --offline -p shield5g-bench --bench experiments

echo "==> thread-count byte-identity (pool_scaling, ablation, fault_sweep and degradation_sweep smokes: 1 vs 2 threads, runner line masked)"
# The sweep runner promises artifacts that are a pure function of the
# job list: the same smoke sweep on 1 and 2 threads must render
# byte-identical BENCH points and observability exports. Only the
# one-line '"runner"' wall-time block may differ, so it is masked out
# before comparing. POSIX sh: temp dirs + grep -v, no process
# substitution.
IDENT_DIR="$SHIELD5G_OBS_DIR/thread_identity"
rm -rf "$IDENT_DIR"
mkdir -p "$IDENT_DIR/t1" "$IDENT_DIR/t2"
for threads in 1 2; do
  SHIELD5G_BENCH_SMOKE=1 SHIELD5G_BENCH_THREADS=$threads SHIELD5G_OBS_DIR="$IDENT_DIR/t$threads" \
    cargo bench --offline -p shield5g-bench --bench experiments -- \
    pool_scaling ablation fault_sweep degradation_sweep > /dev/null
done
for artifact in \
  BENCH_pool_scaling.json BENCH_ablation.json BENCH_degradation.json BENCH_fault_sweep.json \
  pool_scaling_metrics.prom pool_scaling_metrics.jsonl pool_scaling_spans.jsonl; do
  grep -v '"runner"' "$IDENT_DIR/t1/$artifact" > "$IDENT_DIR/t1/$artifact.masked"
  grep -v '"runner"' "$IDENT_DIR/t2/$artifact" > "$IDENT_DIR/t2/$artifact.masked"
  if ! cmp -s "$IDENT_DIR/t1/$artifact.masked" "$IDENT_DIR/t2/$artifact.masked"; then
    echo "thread-count identity broken: $artifact differs between 1 and 2 threads" >&2
    diff "$IDENT_DIR/t1/$artifact.masked" "$IDENT_DIR/t2/$artifact.masked" >&2 || true
    exit 1
  fi
  echo "    ok $artifact byte-identical across thread counts"
done
rm -rf "$IDENT_DIR"

echo "==> observability artifacts (machine-readable bench output, non-empty)"
for artifact in \
  BENCH_pool_scaling.json BENCH_ablation.json BENCH_fault_sweep.json \
  BENCH_degradation.json \
  pool_scaling_metrics.prom pool_scaling_metrics.jsonl pool_scaling_spans.jsonl \
  lint_findings.sarif; do
  path="$SHIELD5G_OBS_DIR/$artifact"
  if [ ! -s "$path" ]; then
    echo "missing or empty observability artifact: $path" >&2
    exit 1
  fi
  echo "    ok $path ($(wc -c < "$path") bytes)"
done

echo "==> lines per crate, non-test then test (scripts/loc.sh; reported, not gated)"
sh scripts/loc.sh | sed 's/^/    /'

echo "All checks passed."

#!/usr/bin/env sh
# Repo-wide gate: formatting, lints, offline build, full test suite.
# Run from anywhere; everything executes against the workspace root.
set -eu

cd "$(dirname "$0")/.."

# Building benchmark/ (alloc_budget.sh, the harness tests) lets cargo
# rewrite its stale Cargo.lock: keep the committed copy and put it back
# on every exit, pass or fail, so the gate leaves the tree as it found it.
lock_copy="$(mktemp)"
cp benchmark/Cargo.lock "$lock_copy"
trap 'cp "$lock_copy" benchmark/Cargo.lock; rm -f "$lock_copy"' EXIT
trap 'exit 1' INT TERM

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (warnings are errors; clippy.toml's disallowed-types hold determinism; unwrap/expect outside tests needs an #[expect] waiver; an unused dependency edge fails; the criterion microbenches are compiled and linted; vendored shims excluded)"
cargo clippy --offline --workspace --all-targets \
  --exclude criterion --exclude proptest \
  -- -D warnings

echo "==> cargo doc (rustdoc warnings are errors: a link that does not resolve, such as a std:: path in the no_std crypto crate, fails here)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

# The observability dir the experiments bench writes its records and
# artifacts into (CI uploads it).
SHIELD5G_OBS_DIR="${SHIELD5G_OBS_DIR:-target/obs}"
case "$SHIELD5G_OBS_DIR" in
  /*) ;;
  *) SHIELD5G_OBS_DIR="$(pwd)/$SHIELD5G_OBS_DIR" ;;
esac
export SHIELD5G_OBS_DIR

mkdir -p "$SHIELD5G_OBS_DIR"

echo "==> cargo build (offline)"
cargo build --offline --workspace

echo "==> cargo test (includes shield5g-lint's repo_is_lint_clean: enclave boundary and constant time over the files each rule lists)"
cargo test --offline --workspace -q

echo "==> crypto + hmee in release (overflow checks off, as shipped; incl. the ignored RFC 7748 million-iteration vector)"
cargo test --offline --release -p shield5g-crypto -p shield5g-hmee -- --include-ignored

echo "==> allocation + heap budget and digests (benchmark allocs_per_op and peak_heap_mb on all five workloads vs scripts/alloc_budget.txt, +2 %; each digest exactly)"
sh scripts/alloc_budget.sh

echo "==> benchmark harness tests (the frozen benchmark/ still builds, in test cfg, against the facade paths it names; builds into the ignored benchmark/target)"
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> experiments (every paper figure, table and sweep at bench reps; fails on an out-of-band paper check or on drift from the committed record)"
# Absolute SHIELD5G_OBS_DIR (exported above): cargo runs bench binaries
# with the *package* directory as cwd, so a relative artifact dir would
# land under crates/bench/. SHIELD5G_REPS is unset so that a developer's
# shell cannot cause false drift. A full run
# writes BENCH_paper.json (one record per paper check), the four sweep
# BENCH documents and EXPERIMENTS.md with every row's block spliced in;
# each must be byte-identical to its committed copy at the root.
env -u SHIELD5G_REPS \
  cargo bench --offline -p shield5g-bench --bench experiments
for artifact in \
  BENCH_paper.json BENCH_pool_scaling.json BENCH_ablation.json BENCH_fault_sweep.json \
  BENCH_degradation.json EXPERIMENTS.md; do
  if ! cmp -s "$artifact" "$SHIELD5G_OBS_DIR/$artifact"; then
    echo "$artifact differs from the committed copy (< committed, > this run):" >&2
    diff "$artifact" "$SHIELD5G_OBS_DIR/$artifact" >&2 || true
    echo "if the move is intended, run: cp \"\$SHIELD5G_OBS_DIR\"/{EXPERIMENTS.md,BENCH_*.json} ." >&2
    exit 1
  fi
  echo "    ok $artifact matches the committed copy"
done

echo "==> observability artifacts (machine-readable bench output, non-empty)"
for artifact in \
  pool_scaling_metrics.prom pool_scaling_metrics.jsonl pool_scaling_spans.jsonl; do
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

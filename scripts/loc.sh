#!/usr/bin/env sh
# Non-test lines of Rust per crate and in total under crates/*/src: every
# line of a file before its first top-level `#[cfg(test)]` (a file without
# one counts whole). Prints `<crate> <lines>` per crate, then `total`.
# Run from anywhere; reports, never gates.
set -eu

cd "$(dirname "$0")/.."

for dir in crates/*/; do
  lines=$(find "${dir}src" -name '*.rs' \
    -exec awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' {} \; |
    awk '{ s += $1 } END { print s + 0 }')
  echo "$(basename "$dir") $lines"
done | awk '{ print; total += $2 } END { print "total", total }'

#!/usr/bin/env sh
# Lines of Rust per crate, in two columns: non-test lines under
# crates/<c>/src (every line of a file before its first top-level
# `#[cfg(test)]`; a file without one counts whole), then test lines (the
# rest of those files, plus every file under crates/<c>/tests/). A `tests`
# row counts the workspace's root tests/, and `total` sums both columns.
# Prints `<crate> <non-test> <test>`. Run from anywhere; reports, never
# gates.
set -eu

cd "$(dirname "$0")/.."

# `<non-test> <test>` summed over the files find(1) lists.
count() {
  find "$@" -name '*.rs' -exec awk '
    FNR == 1 { tail = 0 }
    /^#\[cfg\(test\)\]/ { tail = 1 }
    { if (tail) t++; else n++ }
    END { print n + 0, t + 0 }' {} + |
    awk '{ n += $1; t += $2 } END { print n + 0, t + 0 }'
}

{
  for dir in crates/*/; do
    set -- $(count "${dir}src")
    tests=0
    if [ -d "${dir}tests" ]; then
      tests=$(find "${dir}tests" -name '*.rs' -exec cat {} + | wc -l)
    fi
    echo "$(basename "$dir") $1 $(($2 + tests))"
  done
  echo "tests 0 $(find tests -name '*.rs' -exec cat {} + | wc -l)"
} | awk '{ print; n += $2; t += $3 } END { print "total", n, t }'

#!/usr/bin/env python3
"""Symbolises scripts/profile_sampler.c (or alloc_sampler.c) output against
`nm -C -n` of the PIE it sampled and prints top self / inclusive shares over
the samples whose stack contains FRAME.

Usage: profile_report.py BINARY SAMPLES FRAME [TOP] [--ops N]
                         [--callers SYMBOL [DEPTH]]

The benchmark runs FRAME in its set-up (warm-ups) before the timed phase,
along another call path. When the matching samples reach FRAME along more
than one path (return addresses from the root down to FRAME), the path of
the first one is the set-up's and its samples are left out.

With --ops N (the run's `attempted`) and an allocation sample file (whose
header names the sampler's `every`), each row also gives its allocations
per op: samples x every / N.

With --callers SYMBOL [DEPTH] (default 4), it prints instead who calls a
hot leaf: over the matching samples whose leaf symbol contains SYMBOL, the
TOP most common chains of the DEPTH frames above the leaf, innermost
first, each with its share of those samples and of all matching ones."""
import argparse, bisect, collections, re, subprocess

parser = argparse.ArgumentParser()
parser.add_argument("binary")
parser.add_argument("samples")
parser.add_argument("frame")
parser.add_argument("top", nargs="?", type=int, default=25)
parser.add_argument("--ops", type=int)
parser.add_argument("--callers", nargs="+", metavar=("SYMBOL", "DEPTH"))
args = parser.parse_args()
if args.callers and (len(args.callers) > 2 or not all(d.isdigit() for d in args.callers[1:])):
    parser.error("--callers takes SYMBOL and an optional integer DEPTH")

starts, names = [], []
for row in subprocess.run(["nm", "-C", "-n", "--defined-only", args.binary],
                          check=True, capture_output=True, text=True).stdout.splitlines():
    addr, kind, name = row.split(" ", 2)
    if kind in "tTwW":
        starts.append(int(addr, 16))
        names.append(re.sub(r"::h[0-9a-f]{16}$", "", name))

with open(args.samples) as f:
    header = f.readline().split()
    base = int(header[1], 16)
    every = int(header[3]) if len(header) > 3 and header[2] == "every" else None
    stacks = [[int(a, 16) - base for a in row.split()] for row in f]


def symbol(offset):
    # Shared libraries and the vDSO sit far above the PIE's last symbol.
    at = bisect.bisect_right(starts, offset) - 1
    return names[at] if at >= 0 and offset < starts[-1] + (1 << 20) else "[outside the binary]"


# Each matching sample with its path: the return addresses from the root
# down to the call of the innermost frame matching FRAME.
matching = []
for stack in stacks:
    symbols = [symbol(offset) for offset in stack]
    hits = [i for i, s in enumerate(symbols) if args.frame in s]
    if hits:
        matching.append((symbols, tuple(stack[hits[0] + 1:])))
paths = {path for _, path in matching}
setup = matching[0][1] if len(paths) > 1 else None

self_time, inclusive, kept, skipped = collections.Counter(), collections.Counter(), 0, 0
callers, leaf = collections.Counter(), 0
symbol_arg, depth = (args.callers[0], int((args.callers + ["4"])[1])) if args.callers else (None, 0)
for symbols, path in matching:
    if path == setup:
        skipped += 1
        continue
    kept += 1
    self_time[symbols[0]] += 1
    inclusive.update(set(symbols))
    if symbol_arg and symbol_arg in symbols[0]:
        leaf += 1
        callers[" <- ".join(symbols[1:1 + depth])] += 1

per_op = every and args.ops
print(f"{len(stacks)} samples, {kept} with a frame matching {args.frame!r}"
      f" ({skipped} more on the set-up path left out)")
if per_op:
    print(f"{every * kept / args.ops:.2f} allocations per op over {args.ops} ops"
          f" (one sample per {every} allocations)")
if symbol_arg:
    print(f"\n{leaf} samples ({100 * leaf / max(kept, 1):.1f} % of {kept}) have a leaf"
          f" matching {symbol_arg!r}; top {args.top} chains of {depth} callers"
          " (share of those samples, of all matching samples)")
    for chain, n in callers.most_common(args.top):
        print(f"{100 * n / max(leaf, 1):6.1f} %  {100 * n / max(kept, 1):6.1f} %  {n:7d}"
              f"  {chain[:300]}")
    raise SystemExit
for title, counts in (("self", self_time), ("inclusive", inclusive)):
    print(f"\ntop {args.top} {title} (share of the {kept} matching samples"
          + (", allocations per op)" if per_op else ")"))
    for name, n in counts.most_common(args.top):
        column = f"  {every * n / args.ops:7.2f}" if per_op else ""
        print(f"{100 * n / max(kept, 1):6.1f} %  {n:7d}{column}  {name[:150]}")

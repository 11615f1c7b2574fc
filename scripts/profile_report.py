#!/usr/bin/env python3
"""Symbolises scripts/profile_sampler.c (or alloc_sampler.c) output against
`nm -C -n` of the PIE it sampled and prints top self / inclusive shares over
the samples whose stack contains FRAME.

With heap_sampler.c output (header `base B peak P`), it prints instead
the TOP symbols by the KB that the call sites under them held at the
heap's peak, each with its share of the snapshot, over the sites whose
stack contains FRAME (an empty FRAME keeps every site). With --at-mb X
(the run's own `peak_heap_mb`) the snapshot is the last one taken at or
below X MB + 4 KiB, so a peak the process set after it read X is left out;
without it, the last one.

Usage: profile_report.py BINARY SAMPLES FRAME [TOP] [--ops N]
                         [--callers SYMBOL [DEPTH]] [--at-mb X]

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
import argparse, bisect, collections, re, signal, subprocess

# Piped into `head`, exit quietly when it closes the pipe, as a shell tool
# does, instead of raising BrokenPipeError.
signal.signal(signal.SIGPIPE, signal.SIG_DFL)

parser = argparse.ArgumentParser()
parser.add_argument("binary")
parser.add_argument("samples")
parser.add_argument("frame")
parser.add_argument("top", nargs="?", type=int, default=25)
parser.add_argument("--ops", type=int)
parser.add_argument("--callers", nargs="+", metavar=("SYMBOL", "DEPTH"))
parser.add_argument("--at-mb", type=float)
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
    rows = [row.split() for row in f]


def symbol(offset):
    # Shared libraries and the vDSO sit far above the PIE's last symbol.
    at = bisect.bisect_right(starts, offset) - 1
    return names[at] if at >= 0 and offset < starts[-1] + (1 << 20) else "[outside the binary]"


if header[2:3] == ["peak"]:
    sites, snapshots = {}, []
    for row in rows:
        if row[0] == "site":
            sites[row[1]] = {symbol(int(a, 16) - base) for a in row[2:]}
            sites[row[1]].discard("[outside the binary]")  # libc's own frames
        elif row[0] == "at":
            snapshots.append((int(row[1]), []))
        else:
            snapshots[-1][1].append((row[0], int(row[1])))
    limit = args.at_mb * 2**20 + 4096 if args.at_mb is not None else float("inf")
    peak, held = max((s for s in snapshots if s[0] <= limit), default=(0, []))
    inclusive, matched = collections.Counter(), 0
    for site, size in held:
        if not args.frame or any(args.frame in s for s in sites[site]):
            matched += size
            inclusive.update(dict.fromkeys(sites[site], size))
    print(f"peak {peak / 2**20:.4f} MB in {len(held)} of {len(sites)} call sites"
          f" (the process's own peak {int(header[3]) / 2**20:.4f} MB),"
          f" {matched / 1024:.1f} KB under a frame matching {args.frame!r}"
          + ("; OVERFLOW: some blocks went untracked" if len(header) > 4 else ""))
    print(f"\ntop {args.top} inclusive (share of the peak, KB held at it)")
    for name, size in inclusive.most_common(args.top):
        print(f"{100 * size / max(peak, 1):6.1f} %  {size / 1024:9.1f}  {name[:150]}")
    raise SystemExit
stacks = [[int(a, 16) - base for a in row] for row in rows]


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

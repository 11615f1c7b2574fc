#!/usr/bin/env python3
"""Symbolises scripts/profile_sampler.c output against `nm -C -n` of the
PIE it sampled and prints top self / inclusive shares over the samples
whose stack contains FRAME. Usage: profile_report.py BINARY SAMPLES FRAME [TOP]"""
import bisect, collections, re, subprocess, sys

binary, samples_path, frame = sys.argv[1:4]
top = int(sys.argv[4]) if len(sys.argv) > 4 else 25

starts, names = [], []
for row in subprocess.run(["nm", "-C", "-n", "--defined-only", binary],
                          check=True, capture_output=True, text=True).stdout.splitlines():
    addr, kind, name = row.split(" ", 2)
    if kind in "tTwW":
        starts.append(int(addr, 16))
        names.append(re.sub(r"::h[0-9a-f]{16}$", "", name))

with open(samples_path) as f:
    base = int(f.readline().split()[1], 16)
    stacks = [[int(a, 16) - base for a in row.split()] for row in f]


def symbol(offset):
    # Shared libraries and the vDSO sit far above the PIE's last symbol.
    at = bisect.bisect_right(starts, offset) - 1
    return names[at] if at >= 0 and offset < starts[-1] + (1 << 20) else "[outside the binary]"


self_time, inclusive, kept = collections.Counter(), collections.Counter(), 0
for stack in stacks:
    symbols = [symbol(offset) for offset in stack]
    if symbols and any(frame in s for s in symbols):
        kept += 1
        self_time[symbols[0]] += 1
        inclusive.update(set(symbols))

print(f"{len(stacks)} samples, {kept} with a frame matching {frame!r}")
for title, counts in (("self", self_time), ("inclusive", inclusive)):
    print(f"\ntop {top} {title} (share of the {kept} matching samples)")
    for name, n in counts.most_common(top):
        print(f"{100 * n / max(kept, 1):6.1f} %  {n:7d}  {name[:150]}")

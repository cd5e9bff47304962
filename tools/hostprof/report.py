#!/usr/bin/env python3
"""Self-time report for a hostprof profile (see README.md).

Maps each sampled program counter to its loaded object. Samples inside
the profiled executable are resolved with `addr2line` to a function and
a source line; samples elsewhere are counted per object. Prints the self
share of the top 25 functions and source lines.

    python3 tools/hostprof/report.py hostprof.1234.out

Exits 1 when the profile has fewer than 100 samples, or fewer than 90%
of them inside the executable: too thin, or mostly outside the code it
is meant to rank.
"""
import bisect
import collections
import os
import subprocess
import sys

TOP = 25
MIN_SAMPLES = 100
MIN_IN_BINARY = 0.9


def load(path):
    objects, segments, pcs = [], [], []
    with open(path) as f:
        for line in f:
            kind, _, rest = line.rstrip("\n").partition(" ")
            if kind == "obj":
                bias, _, name = rest.partition(" ")
                objects.append((int(bias, 16), name))
            elif kind == "seg":
                start, end, obj = rest.split()
                segments.append((int(start, 16), int(end, 16), int(obj)))
            elif kind == "pc":
                pcs.append(int(rest, 16))
    segments.sort()
    return objects, segments, pcs


def object_of(segments, starts, pc):
    i = bisect.bisect_right(starts, pc) - 1
    if i >= 0 and pc < segments[i][1]:
        return segments[i][2]
    return None


def short_path(path):
    for root in ("/crates/", "/library/", "/hostbench/"):
        if root in path:
            return root[1:] + path.split(root, 1)[1]
    return os.path.basename(path)


def resolve_binary(binary, addrs):
    """address -> (function, file:line) through one addr2line process."""
    query = "".join("%#x\n" % a for a in addrs)
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-e", binary],
        input=query, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    resolved = {}
    for i, addr in enumerate(addrs):
        func, loc = out[3 * i + 1], out[3 * i + 2]
        file, _, line = loc.rpartition(":")
        line = line.split(" ")[0]
        resolved[addr] = (func, "%s:%s" % (short_path(file), line) if file != "??" else "??")
    return resolved


def table(title, counter, total):
    print("\n%s\n  %6s %8s  %s" % (title, "self", "samples", "where"))
    for name, n in counter.most_common(TOP):
        print("  %5.1f%% %8d  %s" % (100.0 * n / total, n, name))


def main():
    if len(sys.argv) != 2:
        print("usage: report.py hostprof.<pid>.out", file=sys.stderr)
        return 2
    path = sys.argv[1]
    objects, segments, pcs = load(path)
    starts = [s for s, _, _ in segments]
    by_object = collections.defaultdict(list)
    for pc in pcs:
        by_object[object_of(segments, starts, pc)].append(pc)
    total = len(pcs)
    in_binary = len(by_object.get(0, []))
    share = in_binary / total if total else 0.0
    exe = objects[0][1] if objects else "?"
    print("profile %s: %d samples, %d (%.1f%%) inside %s"
          % (path, total, in_binary, 100.0 * share, exe))

    funcs, lines, outside = collections.Counter(), collections.Counter(), collections.Counter()
    if in_binary:
        bias = objects[0][0]
        vaddrs = [pc - bias for pc in by_object[0]]
        resolved = resolve_binary(exe, sorted(set(vaddrs)))
        for v in vaddrs:
            func, loc = resolved[v]
            funcs[func] += 1
            lines[loc] += 1
    for obj, obj_pcs in by_object.items():
        if obj != 0:
            name = "(unmapped)" if obj is None else os.path.basename(objects[obj][1])
            outside[name] += len(obj_pcs)

    if total:
        table("top functions inside the binary", funcs, total)
        table("top source lines inside the binary", lines, total)
        table("outside the binary, by object", outside, total)

    failed = []
    if total < MIN_SAMPLES:
        failed.append("%d samples < %d" % (total, MIN_SAMPLES))
    if share < MIN_IN_BINARY:
        failed.append("%.3f inside the binary < %.3f" % (share, MIN_IN_BINARY))
    if failed:
        print("hostprof check failed: " + "; ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

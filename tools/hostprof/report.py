#!/usr/bin/env python3
"""Self-time report for a hostprof profile (see README.md).

Maps each sampled program counter to its loaded object. Samples inside
the profiled executable are resolved with `addr2line` to a function and
a source line; samples elsewhere are counted per object. Prints the self
share of the top 25 functions and source lines, then the owners of the
synchronisation samples: those whose innermost line is lock, reference
count or atomic code, grouped by the innermost repository frame of their
inline chain. A last table groups every sample inside the binary by that
same frame, so a library line (a compare, a pointer step) inlined into a
repository loop is charged to the loop.

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

# The workspace's own lock. Its frames only forward to the lock, so the
# owner of a sample inside it is the caller that took it.
LOCK_SHIM = "crates/parking_lot/"
# Innermost lines that make a sample a synchronisation sample: std's
# mutex and rwlock, poison checks, `Arc` reference counts, atomics, and
# the lock shim.
SYNC_CODE = (
    "library/std/src/sys/sync/mutex/futex.rs",
    "library/std/src/sys/sync/rwlock/futex.rs",
    "library/std/src/sync/poison",
    "library/alloc/src/sync.rs",
    "library/core/src/sync/atomic.rs",
    LOCK_SHIM,
)
# Repository frames, which own a synchronisation sample.
OWNER_ROOTS = ("crates/", "hostbench/")


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


def short_loc(loc):
    file, _, line = loc.rpartition(":")
    line = line.split(" ")[0]
    return "%s:%s" % (short_path(file), line) if file != "??" else "??"


def resolve_binary(binary, addrs):
    """address -> inline chain [(function, file:line), ...], innermost
    first, through one addr2line process."""
    query = "".join("%#x\n" % a for a in addrs)
    out = subprocess.run(
        ["addr2line", "-a", "-i", "-f", "-C", "-e", binary],
        input=query, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    # Each address prints as its own "0x…" line followed by one
    # function/location pair per inlined frame.
    chains, i = [], 0
    while i < len(out):
        if out[i].startswith("0x"):
            chains.append([])
            i += 1
        else:
            chains[-1].append((out[i], short_loc(out[i + 1])))
            i += 2
    return dict(zip(addrs, chains))


def repo_frame(chain):
    """The innermost repository frame of an inline chain, skipping the
    lock shim's, as "file:line  function"; a chain without one is named
    by its outermost function."""
    for func, loc in chain:
        if loc.startswith(OWNER_ROOTS) and not loc.startswith(LOCK_SHIM):
            return "%s  %s" % (loc, func)
    return "(no repository frame)  %s" % chain[-1][0]


def sync_owner(chain):
    """The owner of a synchronisation sample, or None if the sample's
    innermost line is not synchronisation code."""
    if not any(root in chain[0][1] for root in SYNC_CODE):
        return None
    return repo_frame(chain)


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
    owners, frames = collections.Counter(), collections.Counter()
    if in_binary:
        bias = objects[0][0]
        vaddrs = [pc - bias for pc in by_object[0]]
        resolved = resolve_binary(exe, sorted(set(vaddrs)))
        for v in vaddrs:
            chain = resolved[v]
            func, loc = chain[0]
            funcs[func] += 1
            lines[loc] += 1
            frames[repo_frame(chain)] += 1
            owner = sync_owner(chain)
            if owner is not None:
                owners[owner] += 1
    for obj, obj_pcs in by_object.items():
        if obj != 0:
            name = "(unmapped)" if obj is None else os.path.basename(objects[obj][1])
            outside[name] += len(obj_pcs)

    if total:
        table("top functions inside the binary", funcs, total)
        table("top source lines inside the binary", lines, total)
        table("outside the binary, by object", outside, total)
        synced = sum(owners.values())
        table("synchronisation samples (%.1f%% of all), by innermost repository frame"
              % (100.0 * synced / total), owners, total)
        table("all samples inside the binary, by innermost repository frame",
              frames, total)

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

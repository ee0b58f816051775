"""Time two checkouts of pinquad against each other, op by op, on the in-process workloads.

Usage, from anywhere:

    python tools/ab.py PARENT CHANGE [--workload census ...] [--cycles 20]

PARENT and CHANGE are the roots of two checkouts (A and B below).  Each tree's ``src/``
and ``bench/workloads.py`` are imported in turn, without writing bytecode, and build the
workload's op list as ``bench/run.py --seed 1`` builds it (a held-out seed is checked with
``bench/run.py`` itself).  Then each op runs on both trees back to back,
the tree that goes first alternating from op to op and from cycle to cycle, and every
answer is checked with the op's own check.  On a machine whose speed drifts within
seconds, the two runs of a pair see the same speed, where two sequential runs of
``bench/run.py`` can differ by more than the change being measured.

Printed per workload: the p50 and p90 op latency and the total op time of each tree
with the ratio B/A, and the total op time per label.  Exit status 1 when an answer
fails its check or the two trees build different op lists.
"""
from __future__ import annotations

import argparse
import importlib
import os
import statistics
import sys
import time
from collections import defaultdict

WORKLOADS = ("census", "highrank", "algebra")


def load(tree: str, workloads: list[str]) -> dict[str, list]:
    """The op list of each workload, built by the tree's own bench/workloads.py and src/."""
    root = os.path.realpath(tree)
    src, bench = os.path.join(root, "src"), os.path.join(root, "bench")
    before = set(sys.modules)
    sys.path[:0] = [src, bench]
    try:
        W = importlib.import_module("workloads")
        if not os.path.realpath(W.P.__file__).startswith(src + os.sep):
            sys.exit(f"error: {tree}: imported pinquad from {W.P.__file__}, not from {src}")
        for name in W.P.__all__:  # the lazy package binds its names here, while src is on the path
            getattr(W.P, name)
        return {w: getattr(W, f"{w}_ops")(getattr(W, f"{w}_inputs")(1)) for w in workloads}
    finally:
        del sys.path[:2]
        # forget the tree's modules, so that the other tree imports its own; the ops keep theirs
        for name in set(sys.modules) - before:
            path = getattr(sys.modules[name], "__file__", None) or ""
            if os.path.realpath(path).startswith(root + os.sep):
                del sys.modules[name]


def interleave(pair: tuple[list, list], cycles: int) -> tuple[tuple, list, list]:
    """Per-op latencies (ns) of each side, the ops' labels, and the failed checks."""
    lat, labels, failures = ([], []), [], []
    clock = time.perf_counter_ns
    for c in range(cycles):
        for i, ops in enumerate(zip(*pair)):
            labels.append(ops[0].label)
            for side in (0, 1) if (c + i) % 2 == 0 else (1, 0):
                op = ops[side]
                t0 = clock()
                try:
                    got = op.call()
                except Exception as e:  # the op's check decides whether this error was expected
                    got = e
                lat[side].append(clock() - t0)
                failure = op.check(got)
                if failure is not None:
                    failures.append(f"{'AB'[side]} {op.label} rank {op.rank}: {failure.cause}")
    return lat, labels, failures


def report(workload: str, n_ops: int, cycles: int, lat: tuple, labels: list) -> None:
    def p90(xs):
        return statistics.quantiles(xs, n=10, method="inclusive")[8]

    print(f"{workload}: {n_ops} ops x {cycles} cycles")
    print(f"  {'':24s} {'A ms':>12s} {'B ms':>12s} {'B/A':>7s}")
    for name, stat in (("p50", statistics.median), ("p90", p90), ("total", sum)):
        a, b = stat(lat[0]) / 1e6, stat(lat[1]) / 1e6
        print(f"  {name:24s} {a:12.4f} {b:12.4f} {b / a:7.3f}")
    totals = defaultdict(lambda: [0, 0])
    for label, a, b in zip(labels, *lat):
        totals[label][0] += a
        totals[label][1] += b
    for label, (a, b) in sorted(totals.items()):
        print(f"  total {label:18s} {a / 1e6:12.4f} {b / 1e6:12.4f} {b / a:7.3f}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="root of checkout A")
    ap.add_argument("change", help="root of checkout B")
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="repeatable; default all three")
    ap.add_argument("--cycles", type=int, default=20)
    args = ap.parse_args()
    workloads = args.workload or list(WORKLOADS)

    sys.dont_write_bytecode = True  # read-only: no __pycache__ in either tree
    trees = (load(args.parent, workloads), load(args.change, workloads))
    print(f"A = {os.path.realpath(args.parent)}, B = {os.path.realpath(args.change)}")
    failed = False
    for w in workloads:
        pair = (trees[0][w], trees[1][w])
        if [(op.label, op.rank) for op in pair[0]] != [(op.label, op.rank) for op in pair[1]]:
            print(f"{w}: the trees build different op lists; not compared")
            failed = True
            continue
        lat, labels, failures = interleave(pair, args.cycles)
        report(w, len(pair[0]), args.cycles, lat, labels)
        for line in failures:
            print(f"  failed: {line}")
        failed = failed or bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

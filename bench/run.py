"""Benchmark for pinquad: one seeded workload, answer-checked, with metrics.

    python3 bench/run.py --workload census --seed 1 --seconds 15 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  The load is a closed loop with one client and no threads: each
op starts when the previous one has finished and its answer was checked.
With ``--trace 0`` the op list is cycled a fixed number of times, as many as
take ``--seconds`` at reference speed (see ``CYCLE_S``), and the end-to-end
metrics are printed.  With ``--trace 1`` a fixed number of cycles
of the op list runs in untraced and traced passes, and the per-layer metrics
are printed (``--span-dump FILE`` also writes every span).  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.  See
README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from array import array
from collections import Counter

import child
from speed import Probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
WORKLOADS = ("census", "highrank", "algebra", "cli_session")
# seconds one cycle of each workload's op list takes at the reference speed
# of speed.py, measured at the commit that defined the benchmark.  An
# untraced run does round(--seconds / CYCLE_S) whole cycles: a fixed amount
# of work for a seed, so that attempted and failed ops repeat exactly.
CYCLE_S = {"census": 6.2, "highrank": 2.6, "algebra": 0.25, "cli_session": 6.1}
# cycles of the op list in a traced run: a fixed amount of work, so the
# per-layer counts repeat exactly and self times compare across commits
TRACE_CYCLES = {"census": 1, "highrank": 1, "algebra": 6, "cli_session": 1}
TRACE_PAIRS = 2


def import_package() -> float:
    """Import pinquad from this checkout's src/ and return the seconds it took."""
    if not os.path.isfile(os.path.join(SRC, "pinquad", "__init__.py")):
        sys.exit(f"error: no pinquad sources under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import pinquad  # noqa: F401
    import pinquad.cli  # noqa: F401

    took = time.perf_counter() - t0
    if not os.path.abspath(pinquad.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported pinquad from {pinquad.__file__}, not from {SRC}")
    return took


def build_ops(workload: str, seed: int, workdir: str, in_process: bool) -> list:
    """Generate the inputs for the seed and turn them into ops."""
    import workloads as W

    if workload == "census":
        return W.census_ops(W.census_inputs(seed))
    if workload == "highrank":
        return W.highrank_ops(W.highrank_inputs(seed))
    if workload == "algebra":
        return W.algebra_ops(W.algebra_inputs(seed))
    return W.cli_ops(W.cli_inputs(seed), workdir, ROOT, in_process)


def warm_up(ops: list, children: bool) -> None:
    """Run the cheapest op of each kind once, unchecked and untimed.

    Child processes share nothing with this one, so for them a single run,
    which warms the file cache, is enough.
    """
    cheapest = {}
    for op in ops:
        if op.label not in cheapest or op.rank < cheapest[op.label].rank:
            cheapest[op.label] = op
    for op in list(cheapest.values())[: 1 if children else None]:
        run_op(op)


def set_up(workload: str, seed: int, workdir: str, in_process: bool, probe: Probe,
           import_s: float = 0.0) -> tuple[float, float, list]:
    """Set up SETUP_REPEATS times from scratch after the one-off import.

    Returns import time plus the median set-up time, raw and at reference
    speed, and the ops.
    """
    raw, scaled = [], []
    before = probe()
    import_scaled = import_s * probe.scale(before, before)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = build_ops(workload, seed, workdir, in_process)
        warm_up(ops, children=workload == "cli_session" and not in_process)
        took = time.perf_counter() - t0
        after = probe()
        raw.append(took)
        scaled.append(took * probe.scale(before, after))
        before = after
    return import_s + statistics.median(raw), import_scaled + statistics.median(scaled), ops


class Tally:
    """Outcomes of the ops run; each op's first answer is checked in full and a
    repeat of it is checked by comparison with the answer already checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.wrong = 0
        self.errors = 0
        self.causes: Counter[str] = Counter()
        self.labels: Counter[str] = Counter()
        self._seen: dict[int, tuple] = {}

    def record(self, index: int, op, got) -> None:
        key = answer_key(got)
        seen = self._seen.get(index)
        if seen is not None and seen[0] == key:
            failure = seen[1]
        else:
            try:
                failure = op.check(got)
            except Exception as e:  # an answer the check cannot even read is wrong
                from workloads import Failure

                failure = Failure("wrong", f"unreadable answer ({type(e).__name__}: {e})")
            self._seen[index] = (key, failure)
        self.attempted += 1
        self.labels[op.label] += 1
        if failure is not None:
            self.wrong += failure.kind == "wrong"
            self.errors += failure.kind == "error"
            self.causes[f"{op.label}: {failure.cause}"] += 1

    @property
    def failed(self) -> int:
        return self.wrong + self.errors


def answer_key(got):
    """An op's answer in a form that compares by value, exceptions included."""
    return (type(got).__name__, str(got)) if isinstance(got, BaseException) else got


def run_op(op):
    try:
        return op.call()
    except Exception as e:  # the op's check decides whether this error was expected
        return e


class Timing:
    """Per-op latency and slot (the op plus its check), raw and at reference speed.

    Kept in flat arrays of doubles, so that the benchmark's own memory, which
    grows with the number of ops run, barely moves ``peak_rss_mb``.
    """

    def __init__(self) -> None:
        self.lat_ms = array("d")
        self.slot_ns = array("d")
        self.scaled_lat_ms = array("d")
        self.scaled_slot_ns = array("d")
        self.probes_ms: list[float] = []


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / CYCLE_S[workload]))


def timed_loop(ops: list, cycles: int, tally: Tally, probe: Probe) -> Timing:
    """Cycle through the ops ``cycles`` times, probing the speed in between.

    Probes run before the first op, every ``probe.every_s`` and after the
    last op, so every op lies between two probes.
    """
    tm = Timing()
    clock = time.perf_counter_ns
    total = cycles * len(ops)
    next_probe = time.perf_counter()
    pending: list[tuple[float, int]] = []  # ops since the last probe
    i = 0
    while True:
        if i == total or time.perf_counter() >= next_probe:
            tm.probes_ms.append(probe())
            if pending:
                f = probe.scale(tm.probes_ms[-2], tm.probes_ms[-1])
                tm.scaled_lat_ms.extend(lat * f for lat, _ in pending)
                tm.scaled_slot_ns.extend(slot * f for _, slot in pending)
                pending = []
            if i == total:
                return tm
            next_probe = time.perf_counter() + probe.every_s
        op = ops[i % len(ops)]
        t0 = clock()
        got = run_op(op)
        t1 = clock()
        tally.record(i % len(ops), op, got)
        slot = clock() - t0
        tm.lat_ms.append((t1 - t0) / 1e6)
        tm.slot_ns.append(slot)
        pending.append(((t1 - t0) / 1e6, slot))
        i += 1


def fixed_pass(ops: list, cycles: int, tally: Tally) -> tuple[list, int]:
    """Run the op list a fixed number of times; the answers and the wall time (ns)."""
    answers = []
    t0 = time.perf_counter_ns()
    for _ in range(cycles):
        for i, op in enumerate(ops):
            got = run_op(op)
            tally.record(i, op, got)
            answers.append(got)
    return answers, time.perf_counter_ns() - t0


def import_ms_fresh(repeats: int = 5) -> float:
    """Median time to import pinquad.cli, measured inside fresh interpreters."""
    code = "import time; t = time.perf_counter(); import pinquad.cli; print((time.perf_counter() - t) * 1e3)"
    times = []
    for _ in range(repeats):
        status, out, err = child.run_python(["-c", code], dict(os.environ, PYTHONPATH=SRC), ROOT)
        if status:
            raise RuntimeError(f"importing pinquad.cli failed: {err}")
        times.append(float(out))
    return statistics.median(times)


def environment(seed: int, tally: Tally) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "pinquad")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "ops": dict(sorted(tally.labels.items())),
    }


def _git_commit() -> str:
    """HEAD of the checkout when it is a git repository (read directly, no git needed)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            return next(l.split()[0] for l in fh if l.rstrip().endswith(" " + ref))
    except (OSError, StopIteration):
        return "unknown (not a git checkout)"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--span-dump", help="with --trace 1, write every span to this JSON file")
    args = ap.parse_args()

    import_s = import_package()
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            return traced_run(args, workdir)
        return untraced_run(args, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def untraced_run(args, workdir: str, import_s: float) -> int:
    is_cli = args.workload == "cli_session"
    probe = Probe(dict(os.environ, PYTHONPATH=SRC), ROOT) if is_cli else Probe()
    setup_raw, setup_scaled, ops = set_up(args.workload, args.seed, workdir, False, probe, import_s)
    tally = Tally()
    cycles = cycles_for(args.workload, args.seconds)
    tm = timed_loop(ops, cycles, tally, probe)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF)

    def summary(lat: array, slot_ns: array, setup_s: float) -> dict:
        return {
            "setup_s": setup_s,
            "ops_per_s": len(lat) / (sum(slot_ns) / 1e9),
            "op_p50_ms": statistics.median(lat),
            "op_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8],
        }

    raw = summary(tm.lat_ms, tm.slot_ns, setup_raw)
    scaled = summary(tm.scaled_lat_ms, tm.scaled_slot_ns, setup_scaled)
    metrics = {name: (value, _unit(name)) for name, value in scaled.items()}
    metrics["peak_rss_mb"] = (usage.ru_maxrss / 1024, _unit("peak_rss_mb"))
    p90 = scaled["op_p90_ms"]
    extra = [
        f"cycles {cycles} of {len(ops)} ops, samples {len(tm.lat_ms)}, beyond p90 {sum(x > p90 for x in tm.scaled_lat_ms)}",
        f"speed probe: {len(tm.probes_ms)} probes, median {statistics.median(tm.probes_ms):.3f} ms, "
        f"reference {probe.reference_ms} ms",
        "raw (unscaled) " + ", ".join(f"{k} {v:.6f}" for k, v in raw.items()),
    ]
    return report(args, tally, metrics, extra)


def traced_run(args, workdir: str) -> int:
    import pinquad
    from spans import Tracer

    in_process = True  # cli_session replays pinquad.cli.main in this process
    _, _, ops = set_up(args.workload, args.seed, workdir, in_process, Probe())
    cycles = TRACE_CYCLES[args.workload]
    tally = Tally()
    tracer = Tracer()
    # a first untraced pass checks every answer in full; then untraced and
    # traced passes alternate, so a drift in machine speed hits both alike
    reference, _ = fixed_pass(ops, cycles, tally)
    plain_ns = traced_ns = changed = 0
    for _ in range(TRACE_PAIRS):
        _, ns = fixed_pass(ops, cycles, tally)
        plain_ns += ns
        tracer.install(pinquad)
        try:
            answers, ns = fixed_pass(ops, cycles, tally)
        finally:
            tracer.uninstall()
        traced_ns += ns
        changed += sum(answer_key(a) != answer_key(b) for a, b in zip(reference, answers))
    metrics = {k: (v, _unit(k)) for k, v in tracer.rollup(traced_ns).items()}
    for key in ("forms.classes_tabulated", "brown.classes_counted", "vanishing.decisions",
                "vanishing.subspaces_listed", "fourmanifold.forms_built"):
        metrics[key] = (tracer.counts[key], _unit(key))
    metrics["cli.import_ms"] = (import_ms_fresh(), "ms")
    metrics["trace.wall_ms"] = (traced_ns / 1e6, "ms")
    metrics["trace.overhead_ratio"] = (traced_ns / plain_ns - 1, "ratio")
    if args.span_dump:
        with open(args.span_dump, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    extra = [f"ops per pass {len(reference)}, traced passes {TRACE_PAIRS}, "
             f"answers changed by tracing {changed}"]
    if changed:
        tally.errors += changed
        tally.causes["tracing changed an answer"] += changed
    return report(args, tally, metrics, extra)


def _unit(key: str) -> str:
    if key in ("forms.classes_tabulated", "brown.classes_counted"):
        return "computed_count"  # derived from input sizes, not counted
    if key == "ops_per_s":
        return "1/s"
    if key.endswith("_s"):
        return "s"
    if key.endswith("_mb"):
        return "MB"
    if key.endswith("_ms"):
        return "ms"
    if key.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


def report(args, tally: Tally, metrics: dict, extra: list[str]) -> int:
    print(f"# workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}")
    print("# environment " + json.dumps(environment(args.seed, tally)))
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:16.6f} {unit}")
    ratio = tally.failed / tally.attempted
    print(f"failed_ratio {ratio:.6f} ({tally.failed} failed of {tally.attempted} attempted: "
          f"{tally.wrong} wrong answers, {tally.errors} errors)")
    for line in extra:
        print(line)
    for cause, count in sorted(tally.causes.items()):
        print(f"failure x{count}: {cause}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

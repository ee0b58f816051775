"""Tests of the benchmark itself: generator, checks, tracing and entry point.

Run with ``python -m pytest bench/tests``.
"""
import functools
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import gen
import oracle
import workloads as W
from conftest import BENCH, ROOT
from run import answer_key, run_op
from oracles import all_subspace_spans, law_table, naive_beta, naive_gauss
from spans import LAYERS, Tracer

import pinquad


def _cases(seed, max_rank):
    """Every feasible (rank, beta, parity type) of the generator, plus degenerate forms."""
    rng = gen.rng_for("test", seed)
    out = []
    for n in range(1, max_rank + 1):
        for beta in range(8):
            for odd in (True, False):
                try:
                    out.append(gen.rebased(rng, n, beta, odd))
                except ValueError:
                    pass
        for radical in (1, 2):
            if radical <= n:
                out.append(gen.degenerate(rng, n, radical))
    return out


@functools.lru_cache(maxsize=None)
def _spans(n, k):
    return tuple(all_subspace_spans(n, k))


def _null_dims(gram, values):
    """Dimensions k for which some k-dimensional subspace is q-null, from the naive oracles."""
    table = law_table(gram, values)
    n = len(values)
    return {k for k in range(n + 1) if any(all(table[x] == 0 for x in s) for s in _spans(n, k))}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_expected_beta_and_gauss_sum_match_naive_oracle(seed):
    for rec in _cases(seed, 8):
        if rec.get("degenerate"):
            continue
        assert naive_beta(rec["gram"], rec["values"]) == rec["beta"]
        assert list(naive_gauss(rec["gram"], rec["values"])) == rec["gauss"]


@pytest.mark.parametrize("seed", [0, 1])
def test_expected_null_dims_match_subspace_spans(seed):
    for rec in _cases(seed, 5):
        dims = _null_dims(rec["gram"], rec["values"])
        assert max(dims) == rec["max_null"]
        if not rec.get("degenerate"):
            assert (len(rec["values"]) // 2 in dims) == rec["lagrangian"] or len(rec["values"]) % 2


@pytest.mark.parametrize("seed", [0, 1])
def test_exhaustive_search_agrees_with_formula_up_to_rank_8(seed):
    for rec in _cases(seed, 8):
        if not rec.get("degenerate"):
            rows = W._rows(rec["gram"])
            assert oracle.max_null_dim_exhaustive(rows, rec["values"]) == rec["max_null"]
            assert oracle.beta_by_splitting(rows, rec["values"]) == rec["beta"]


def test_congruent_forms_keep_signature_and_characteristic_vector():
    rng = gen.rng_for("test", 3)
    for expr in W.LIBRARY_SUMS:
        f = gen.congruent_form(rng, expr, 24)
        m = pinquad.UnimodularForm.from_rows(f["gram"])
        assert pinquad.signature(m) == f["signature"]
        assert pinquad.is_characteristic(m, f["char"])
        assert not pinquad.is_characteristic(m, f["bad_char"])
        assert m.pair(f["char"], f["char"]) == f["cc"]


def _all_inputs(seed):
    return {
        "census": W.census_inputs(seed),
        "highrank": W.highrank_inputs(seed),
        "algebra": W.algebra_inputs(seed),
        "cli_session": W.cli_inputs(seed),
    }


def test_same_seed_gives_byte_identical_inputs():
    first = json.dumps(_all_inputs(7), sort_keys=True).encode()
    assert json.dumps(_all_inputs(7), sort_keys=True).encode() == first
    assert json.dumps(_all_inputs(8), sort_keys=True).encode() != first


def test_checks_reject_wrong_answers():
    ops = W.census_ops(W.census_inputs(0))
    for op in ops[:20]:
        got = op.call()
        assert op.check(got) is None
        wrong = (got + 1) if isinstance(got, int) and not isinstance(got, bool) else not got
        if not isinstance(got, Exception):
            assert op.check(wrong).kind == "wrong"
        assert op.check(RuntimeError("boom")) is not None


def _cheap_ops(tmp_path):
    ops = [op for op in W.highrank_ops(W.highrank_inputs(0)) if op.rank <= 15]
    ops += W.census_ops(W.census_inputs(0))[:300] + W.algebra_ops(W.algebra_inputs(0))
    cli = W.cli_ops(W.cli_inputs(0), str(tmp_path), ROOT, in_process=True)
    return ops + [op for op, (argv, _) in zip(cli, W.cli_inputs(0)["commands"]) if "{r0_brown20}" not in argv]


def _run(ops):
    return [answer_key(run_op(op)) for op in ops]


def test_tracing_changes_no_answer_and_restores_the_package(tmp_path):
    ops = _cheap_ops(tmp_path)
    before = _run(ops)
    original = pinquad.forms.value_table
    tracer = Tracer()
    tracer.install(pinquad)
    try:
        assert pinquad.brown.value_table is not original
        traced = _run(ops)
    finally:
        tracer.uninstall()
    assert traced == before
    assert pinquad.brown.value_table is original and pinquad.forms.value_table is original
    assert "__wrapped__" not in vars(pinquad.forms.Enhancement.__post_init__)
    roll = tracer.rollup(wall_ns=10**12)
    assert all(roll[f"{layer}.calls"] > 0 for layer in LAYERS)
    assert tracer.counts["fourmanifold.forms_built"] > 0 and tracer.counts["vanishing.decisions"] > 0


def test_self_times_and_benchmark_time_add_up_to_wall():
    tracer = Tracer()
    tracer.install(pinquad)
    try:
        ops = W.census_ops(W.census_inputs(0))[:40]
        t0 = time.perf_counter_ns()
        _run(ops)
        wall = time.perf_counter_ns() - t0
    finally:
        tracer.uninstall()
    roll = tracer.rollup(wall)
    total = sum(roll[f"{layer}.self_ms"] for layer in LAYERS) + roll["bench.self_ms"]
    assert total == pytest.approx(wall / 1e6)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_exactly_the_declared_metrics(trace, kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    p = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "algebra", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_run_refuses_without_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("tests", ".work", "__pycache__"))
    p = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0
    assert not any(line.startswith("{") for line in p.stdout.splitlines())

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines.  Every tolerance is exact: the checks count violations and demand
zero.
"""
import json
from collections import Counter
from itertools import product
from pathlib import Path

import numpy as np

from pinquad.brown import brown_invariant, gauss_sum
from pinquad.errors import SurgeryObstructionError
from pinquad.f2 import F2Vector
from pinquad.forms import (
    BilinearForm,
    Covector,
    crosscap_form,
    enumerate_enhancements,
    eval_q,
    hyperbolic_form,
    isotropic_reduction,
    poincare_dual,
    torsor_act,
    value_table,
)
from pinquad.fourmanifold import (
    FORM_LIBRARY,
    gm_required_beta,
    parse_form_name,
    signature,
)
from pinquad.vanishing import has_null_lagrangian, max_vanishing_dim
from oracles import (
    characteristic_class_mod2,
    enumerate_subspaces,
    kernel_vanishing_check,
    naive_dot,
    naive_pair,
    standard_grams,
)
from test_cli import CLI_CASES, run, run_case
from test_forms import orthogonal_sum
from test_vanishing import null_subspaces

GOLDEN = Path(__file__).parent / "golden"


def standard_forms(max_dim):
    return [BilinearForm.from_rows(g) for g in standard_grams(max_dim)]


def report(number, name, violations):
    verdict = "PASS" if violations == 0 else f"FAIL ({violations} violations)"
    print(f"ACCEPTANCE {number} ({name}): {verdict}")
    assert violations == 0


def _parity_lookup(n):
    par = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        par[1 << i : 1 << (i + 1)] = par[: 1 << i] ^ 1
    return par


def _gram_functionals(form):
    """gx[x] = bitmask of the functional y -> x.y, for every class x."""
    n = form.dim
    gx = np.zeros(1 << n, dtype=np.int64)
    for x in range(1, 1 << n):
        low = x & -x
        gx[x] = gx[x ^ low] ^ form.row_masks[low.bit_length() - 1]
    return gx


def test_criterion_1_enhancement_law_suite():
    # q(x+y) = q(x) + q(y) + 2*(x.y) for all 4^n pairs, q(x) = x.x mod 2,
    # for every enhancement of every standard form of dim <= 8
    violations = 0
    for form in standard_forms(8):
        n = form.dim
        size = 1 << n
        par = _parity_lookup(n)
        gx = _gram_functionals(form)
        idx = np.arange(size)
        self_int = par[idx & gx]
        xs = np.repeat(idx, size)
        ys = np.tile(idx, size)
        pair_dot = par[ys & gx[xs]]
        for q in enumerate_enhancements(form):
            table = np.array([eval_q(q, F2Vector(n, x)) for x in range(size)], dtype=np.int64)
            lhs = table[xs ^ ys]
            rhs = (table[xs] + table[ys] + 2 * pair_dot) % 4
            violations += int(np.count_nonzero(lhs != rhs))
            violations += int(np.count_nonzero(table % 2 != self_int))
    report(1, "enhancement law and parity", violations)


def test_criterion_2_brown_census_and_magnitude():
    frozen = json.loads((GOLDEN / "brown_census.json").read_text(encoding="utf-8"))
    named = {
        "rp2": crosscap_form(1),
        "klein": crosscap_form(2),
        "torus": hyperbolic_form(1),
        "genus2": hyperbolic_form(2),
    }
    violations = 0
    for name, form in named.items():
        census = Counter(str(brown_invariant(q)) for q in enumerate_enhancements(form))
        if dict(census) != frozen[name]:
            violations += 1
    for form in standard_forms(10):
        for q in enumerate_enhancements(form):
            gs = gauss_sum(q)
            if gs.a**2 + gs.b**2 != 1 << form.dim:
                violations += 1
    report(2, "Brown census and Gauss-sum magnitude", violations)


def test_criterion_3_additivity():
    pieces = []
    for form in standard_forms(3):
        pieces.extend(enumerate_enhancements(form))
    betas = {q: brown_invariant(q) for q in pieces}
    violations = 0
    for q1 in pieces:
        for q2 in pieces:
            if brown_invariant(orthogonal_sum(q1, q2)) != (betas[q1] + betas[q2]) % 8:
                violations += 1
    report(3, "Brown invariant additivity", violations)


def test_criterion_4_torsor_change_formula():
    # the calibrated convention: acting by y shifts beta by -2*q(dual y) mod 8
    violations = 0
    for form in standard_forms(6):
        n = form.dim
        betas = {q.values: brown_invariant(q) for q in enumerate_enhancements(form)}
        duals = {
            y: poincare_dual(form, Covector(n, y)) for y in range(1 << n)
        }
        for q in enumerate_enhancements(form):
            for y in range(1 << n):
                acted = torsor_act(q, Covector(n, y))
                measured = (betas[acted.values] - betas[q.values]) % 8
                predicted = (-2 * eval_q(q, duals[y])) % 8
                if measured != predicted:
                    violations += 1
    report(4, "torsor change formula", violations)


def test_criterion_5_surgery():
    violations = 0
    for form in standard_forms(8):
        n = form.dim
        for q in enumerate_enhancements(form):
            table = value_table(q)
            beta = brown_invariant(q)
            for c_bits in range(1 << n):
                c = F2Vector(n, c_bits)
                if c_bits == 0:
                    expected_reason = "zero class"
                elif naive_dot(form.gram, c_bits, c_bits):
                    expected_reason = "c.c != 0"
                elif table[c_bits]:
                    expected_reason = "q(c) != 0"
                else:
                    expected_reason = None
                if expected_reason is None:
                    reduced = isotropic_reduction(q, c)
                    if reduced.form.dim != n - 2 or brown_invariant(reduced) != beta:
                        violations += 1
                else:
                    try:
                        isotropic_reduction(q, c)
                    except SurgeryObstructionError as err:
                        if err.reason != expected_reason:
                            violations += 1
                    else:
                        violations += 1
    report(5, "surgery invariance and obstructions", violations)


def test_criterion_6_half_dimension_bound():
    violations = 0
    for form in standard_forms(8):
        n = form.dim
        gx = _gram_functionals(form)
        for q in enumerate_enhancements(form):
            if max_vanishing_dim(q) > n // 2:
                violations += 1
            # nothing q-null just above half dimension; emptiness there forces
            # emptiness at every larger dimension (subspaces of q-null spans
            # are q-null)
            if n // 2 + 1 <= n and null_subspaces(q, n // 2 + 1):
                violations += 1
            # every subspace found is isotropic: basis pairs suffice since the
            # pairing is bilinear
            for d in range(n // 2 + 1):
                for s in null_subspaces(q, d):
                    for a in s.row_masks:
                        for b in s.row_masks:
                            if (gx[a] & b).bit_count() & 1:
                                violations += 1
    report(6, "half-dimension bound and isotropy", violations)


def test_criterion_7_lagrangian_brown_bridge():
    violations = 0
    for form in standard_forms(6):
        n = form.dim
        half = n // 2
        for q in enumerate_enhancements(form):
            fast = has_null_lagrangian(q)
            if n % 2 == 1:
                oracle = False
            else:
                oracle = any(
                    kernel_vanishing_check(q, s) for s in enumerate_subspaces(n, half)
                )
            bridge = brown_invariant(q) == 0
            if fast != oracle or fast != bridge:
                violations += 1
    report(7, "q-null Lagrangian iff Brown invariant 0", violations)


def test_criterion_8_guillou_marin_instances():
    violations = 0
    instances = [
        ("1", (1,), 0),
        ("1", (3,), 4),
        ("H", (0, 0), 0),
        ("E8", (0,) * 8, 4),
    ]
    for name, char, expected in instances:
        if gm_required_beta(FORM_LIBRARY[name], char) != expected:
            violations += 1
    library = [
        FORM_LIBRARY[name] for name in ("1", "-1", "H", "E8")
    ] + [
        parse_form_name(expr)
        for expr in ("1+1", "1+-1", "-1+-1", "1+1+1", "1+1+-1", "H+1", "H+-1", "H+H", "H+H+H")
    ]
    for m in library:
        sig = signature(m)
        base = characteristic_class_mod2(m)
        choices = [
            [x for x in range(-3, 4) if x % 2 == p] for p in base
        ]
        for c in product(*choices):
            if (naive_pair(m.gram, c, c) - sig) % 8 != 0:
                violations += 1
    report(8, "Guillou-Marin instances and van der Blij", violations)


def test_criterion_9_cli_determinism(capsys, run_case):
    # every named CLI case twice, each run's exact (code, stdout, stderr) against the case's
    violations = 0
    for name in CLI_CASES:
        for _ in range(2):
            got, want = run_case(name)
            violations += got != want
    # the usage error of argparse, whose message differs between Python versions
    violations += run(capsys, "enumerate")[0] != 2
    with capsys.disabled():
        report(9, "CLI determinism and exit codes", violations)

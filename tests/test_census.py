"""Every symmetric Gram matrix over F2 of rank 0 to 4, with every enhancement, against the oracles.

There are 1 + 2 + 8 + 64 + 1,024 = 1,099 such forms and 16,933 enhancements, so the census
meets every radical shape and every order in which the split's pick can steer; with the
identity form of rank 5 it holds every standard surface form to rank 5.  On each enhancement
the Brown invariant (or DegenerateFormError), the Gauss-sum counts, the largest q-null
dimension and the Lagrangian answer are compared with the naive oracles, and so is the Gauss
sum of ``oracles.gauss_sum_by_elimination``, which checks the split at higher ranks.  Surgery
on every class and the torsor shift, which cost a reduction or a dual per class, run on every
form to rank 3, on a seeded sample of the rank-4 forms, and on the standard forms of rank 4
and 5.  Each test counts its mismatches and shows the first few.
"""
import random

from pinquad.brown import brown_invariant, gauss_sum
from pinquad.errors import DegenerateFormError, SurgeryObstructionError
from pinquad.f2 import F2Vector
from pinquad.forms import (
    BilinearForm,
    Covector,
    Enhancement,
    isotropic_reduction,
    poincare_dual,
    torsor_act,
)
from pinquad.vanishing import has_null_lagrangian, max_vanishing_dim
from oracles import (
    all_enhancement_values,
    bitmask,
    gauss_sum_by_elimination,
    hyperbolic_gram,
    identity_gram,
    naive_beta,
    naive_counts,
    naive_dot,
    naive_gauss,
    naive_mat_vec,
    naive_max_null_dim,
    naive_nondegenerate,
    naive_q,
    reference_reduction,
)

MAX_RANK = 4
RANK4_SAMPLE = 128  # rank-4 forms that surgery and the torsor shift also run on


def all_grams(n):
    """Every symmetric n x n matrix of bits, one per choice of its upper triangle."""
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    grams = []
    for choice in range(1 << len(cells)):
        gram = [[0] * n for _ in range(n)]
        for k, (i, j) in enumerate(cells):
            gram[i][j] = gram[j][i] = choice >> k & 1
        grams.append(gram)
    return grams


GRAMS = [gram for n in range(MAX_RANK + 1) for gram in all_grams(n)] + [identity_gram(5)]
SAMPLE = [g for g in GRAMS if len(g) < MAX_RANK] + random.Random("census-rank4").sample(
    all_grams(MAX_RANK), RANK4_SAMPLE
)
SAMPLE += [g for g in (hyperbolic_gram(2), identity_gram(4), identity_gram(5)) if g not in SAMPLE]


def check(mismatches):
    print(f"census: {len(mismatches)} mismatches")
    assert not mismatches, mismatches[:5]


def test_counts():
    assert len(GRAMS) == 1100
    assert sum(1 << len(g) for g in GRAMS) == 16965


def test_answers_match_the_oracles():
    mismatches = []
    for gram in GRAMS:
        n = len(gram)
        form = BilinearForm.from_rows(gram)
        nondegenerate = naive_nondegenerate(gram)
        for values in all_enhancement_values(gram):
            q = Enhancement(form, values)
            best = naive_max_null_dim(gram, values)
            got = {"counts": gauss_sum(q).counts, "max": max_vanishing_dim(q)}
            want = {"counts": naive_counts(gram, values), "max": best}
            for name, fast in (("beta", brown_invariant), ("lagrangian", has_null_lagrangian)):
                try:
                    got[name] = fast(q)
                except DegenerateFormError:
                    got[name] = "degenerate"
            if nondegenerate:
                want["beta"] = naive_beta(gram, values)
                want["lagrangian"] = n % 2 == 0 and best >= n // 2
            else:
                want["beta"] = want["lagrangian"] = "degenerate"
            if got != want:
                mismatches.append((gram, values, got, want))
    check(mismatches)


def test_poincare_dual_of_every_covector():
    mismatches = []
    for gram in GRAMS:
        n = len(gram)
        form, rows = BilinearForm.from_rows(gram), list(map(bitmask, gram))
        nondegenerate = naive_nondegenerate(gram)
        for y in range(1 << n):
            try:
                yhat = poincare_dual(form, Covector(n, y)).bits
                # <y, x> = yhat.x for every x: the Gram matrix takes yhat to y
                ok = nondegenerate and naive_mat_vec(rows, yhat) == y
            except DegenerateFormError:
                ok = not nondegenerate
            if not ok:
                mismatches.append((gram, y))
    check(mismatches)


def test_surgery_on_every_class():
    mismatches = []
    for gram in SAMPLE:
        n = len(gram)
        form, rows = BilinearForm.from_rows(gram), list(map(bitmask, gram))
        for values in all_enhancement_values(gram):
            q = Enhancement(form, values)
            for c_bits in range(1 << n):
                c = F2Vector(n, c_bits)
                if c_bits == 0:
                    want = "zero class"
                elif naive_dot(gram, c_bits, c_bits):
                    want = "c.c != 0"
                elif naive_q(gram, values, c_bits):
                    want = "q(c) != 0"
                elif naive_mat_vec(rows, c_bits) == 0:
                    want = "radical"
                else:
                    want = reference_reduction(q, c)
                try:
                    r = isotropic_reduction(q, c)
                    got = (r.form.gram, r.values)
                except SurgeryObstructionError as err:
                    got = err.reason
                except DegenerateFormError:
                    got = "radical"
                if got != want:
                    mismatches.append((gram, values, c_bits, got, want))
    check(mismatches)


def test_torsor_shift_by_the_dual():
    # beta(q + 2y) - beta(q) = -2 q(yhat) (mod 8), Theorem 2.1 (Kirby-Taylor 1990)
    mismatches = []
    for gram in SAMPLE:
        if not naive_nondegenerate(gram):
            continue
        n = len(gram)
        form = BilinearForm.from_rows(gram)
        for values in all_enhancement_values(gram):
            q = Enhancement(form, values)
            beta = brown_invariant(q)
            for y in range(1 << n):
                cov = Covector(n, y)
                shift = brown_invariant(torsor_act(q, cov)) - beta
                yhat = poincare_dual(form, cov).bits
                if (shift + 2 * naive_q(gram, values, yhat)) % 8:
                    mismatches.append((gram, values, y, shift))
    check(mismatches)


def test_gauss_sum_by_elimination_matches_counting():
    # the oracle that checks the split past these ranks, in test_brown.py::TestSplitOracle
    mismatches = [
        (gram, values)
        for gram in GRAMS
        for values in all_enhancement_values(gram)
        if gauss_sum_by_elimination(list(map(bitmask, gram)), values) != naive_gauss(gram, values)
    ]
    check(mismatches)

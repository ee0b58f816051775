import random

import pytest

from pinquad.errors import DegenerateFormError, DimensionMismatchError, LimitError
from pinquad.f2 import F2Vector, Subspace
from pinquad.forms import (
    BilinearForm,
    Enhancement,
    crosscap_form,
    enumerate_enhancements,
    hyperbolic_form,
)
from pinquad.vanishing import _null_bases, has_null_lagrangian, max_vanishing_dim
from oracles import (
    all_enhancement_values,
    bitmask,
    enumerate_subspaces,
    kernel_vanishing_check,
    naive_dot,
    naive_max_null_dim,
    naive_nondegenerate,
    naive_q,
    random_enhancement,
    spanned,
    standard_grams,
)

TORUS = hyperbolic_form(1)
RP2 = crosscap_form(1)
KLEIN = crosscap_form(2)


def span(*vectors):
    return spanned([F2Vector(len(v), bitmask(v)) for v in vectors])


def null_subspaces(q, d):
    """The d-dimensional q-null subspaces from the walk the CLI lists, each as a Subspace."""
    return [Subspace(q.form.dim, rows) for rows in _null_bases(q, d)]


class TestKernelVanishingCheck:
    def test_zero_subspace_always_vanishes(self):
        for q in enumerate_enhancements(KLEIN):
            assert kernel_vanishing_check(q, Subspace(2, ()))

    def test_torus_lines(self):
        q = Enhancement(TORUS, (0, 2))
        assert kernel_vanishing_check(q, span((1, 0)))
        assert not kernel_vanishing_check(q, span((0, 1)))

    def test_checks_every_element_not_just_basis(self):
        # q is zero on both basis vectors of the full space but not on their sum
        q = Enhancement(TORUS, (0, 0))
        assert not kernel_vanishing_check(q, span((1, 0), (0, 1)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            kernel_vanishing_check(Enhancement(RP2, (1,)), Subspace(2, ()))


# the kind ``oracles.random_enhancement`` draws for each case id below
KIND = {"rebased": "nondegenerate", "degenerate_q0": "radical_q0", "degenerate_q2": "radical_q2"}


def listing_cases():
    """(id, cases): every enhancement of the standard forms to rank 5, then seeded
    forms to rank 6 in random bases, nondegenerate or with q = 0 or q = 2 on the
    radical, so that canonical order is checked away from the standard basis."""
    out = [(f"dim{len(g)}", [(g, v) for v in all_enhancement_values(g)]) for g in standard_grams(5)]
    rng = random.Random("listing-order")
    for name, kind in KIND.items():
        low = 1 if name == "rebased" else 2
        cases = [random_enhancement(rng, rng.randint(low, 6), kind) for _ in range(25)]
        out.append((name, [case[:2] for case in cases]))
    return out


LISTING = listing_cases()


class TestVanishingSubspaces:
    def test_guard(self):
        q = Enhancement(crosscap_form(11), (1,) * 11)
        with pytest.raises(LimitError):
            null_subspaces(q, 1)

    @pytest.mark.parametrize("cases", [c for _, c in LISTING], ids=[i for i, _ in LISTING])
    def test_matches_filtered_enumeration(self, cases):
        # oracle route: filter the full subspace stream through the element check
        for gram, values in cases:
            q = Enhancement(BilinearForm.from_rows(gram), values)
            n = q.form.dim
            for d in range(n + 1):
                expected = sorted(
                    (s for s in enumerate_subspaces(n, d) if kernel_vanishing_check(q, s)),
                    key=lambda s: s.row_masks,
                )
                assert null_subspaces(q, d) == expected, (gram, values, d)


class TestMaxVanishingDim:
    def test_guard(self):
        # there is none: the answer is closed-form at any rank
        assert max_vanishing_dim(Enhancement(crosscap_form(11), (1,) * 11)) == 4
        assert max_vanishing_dim(Enhancement(hyperbolic_form(6), (0,) * 12)) == 6


class TestHasNullLagrangian:
    def test_torus(self):
        assert has_null_lagrangian(Enhancement(TORUS, (0, 0)))
        assert not has_null_lagrangian(Enhancement(TORUS, (2, 2)))

    def test_degenerate_rejected(self):
        q = Enhancement(BilinearForm.from_rows([[0]]), (0,))
        with pytest.raises(DegenerateFormError):
            has_null_lagrangian(q)

    def test_guard(self):
        # there is none: the answer is closed-form at any rank, "no" and "yes" alike
        assert not has_null_lagrangian(Enhancement(crosscap_form(11), (1,) * 11))
        assert has_null_lagrangian(Enhancement(hyperbolic_form(6), (0,) * 12))


def closed_form_cases(kind):
    rng = random.Random(f"closed-form-{kind}")
    if kind == "standard":
        return [(g, v) for g in standard_grams(7) for v in all_enhancement_values(g)]
    if kind == "rebased":
        draws = [(rng.randint(1, 7), "nondegenerate") for _ in range(100)]
    else:
        draws = [(rng.randint(1, 7), k) for k in ("radical_q0", "radical_q2") for _ in range(50)]
        draws += [(n, "zero_q0") for n in range(1, 8)] + [(n, "zero_q2") for n in (1, 7)]
    return [random_enhancement(rng, n, k)[:2] for n, k in draws]


class TestClosedForm:
    """max_vanishing_dim and has_null_lagrangian against exhaustive search."""

    @pytest.mark.parametrize("kind", ["standard", "rebased", "degenerate"])
    def test_matches_oracle_and_listing(self, kind):
        for gram, values in closed_form_cases(kind):
            q = Enhancement(BilinearForm.from_rows(gram), values)
            n = q.form.dim
            if kind == "degenerate":
                assert not naive_nondegenerate(gram)
            expected = naive_max_null_dim(gram, values)
            assert max_vanishing_dim(q) == expected, (gram, values)
            assert next(d for d in range(n, -1, -1) if null_subspaces(q, d)) == expected
            if naive_nondegenerate(gram):
                assert has_null_lagrangian(q) == (n % 2 == 0 and expected == n // 2)


def high_rank_case(n, kind):
    """A seeded enhancement of rank exactly n in a random basis: nondegenerate, or
    degenerate with q = 0 or q = 2 on the radical."""
    rng = random.Random(f"high-rank-{kind}-{n}")
    return random_enhancement(rng, n, KIND.get(kind, kind))[:2]


class TestListingCountsAtHighRank:
    """The walk at ranks 7-10, which the listing comparison above does not reach.

    A q-null line is a nonzero class with q = 0.  A q-null plane holds three
    such classes, pairwise orthogonal, and any two orthogonal ones span one
    (q(x + y) = q(x) + q(y) + 2*(x.y)), so the planes are a third of the pairs.
    """

    @pytest.mark.parametrize("kind", ["nondegenerate", "degenerate_q0", "degenerate_q2"])
    @pytest.mark.parametrize("n", [7, 8, 9, 10])
    def test_line_and_plane_counts(self, n, kind):
        gram, values = high_rank_case(n, kind)
        q = Enhancement(BilinearForm.from_rows(gram), values)
        zeros = [x for x in range(1, 1 << n) if naive_q(gram, values, x) == 0]
        pairs = sum(
            naive_dot(gram, x, y) == 0 for i, x in enumerate(zeros) for y in zeros[i + 1 :]
        )
        assert len(null_subspaces(q, 1)) == len(zeros)
        assert 3 * len(null_subspaces(q, 2)) == pairs
        if kind == "nondegenerate":
            assert has_null_lagrangian(q) == (2 * max_vanishing_dim(q) == n)
        else:
            assert not naive_nondegenerate(gram)
            with pytest.raises(DegenerateFormError):
                has_null_lagrangian(q)

"""Property tests: beta and the q-null answers do not depend on the basis.

Enhancements are drawn by ``oracles.random_enhancement`` from a hypothesis
``Random``: orthogonal sums of <1>, <-1> and hyperbolic planes (with any
values), whose Brown invariant is known piece by piece, written in a random
basis of F2^n.  Each is then written in a second random basis from
``oracles.random_gl``: the Gram matrix and the basis values are moved
together, so the enhancement is the same and only its presentation changes.
Some draws also get radical classes, with q = 0 or not on them.  Runs are
derandomized and bounded, so the suite is deterministic.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinquad.brown import brown_invariant, gauss_sum
from pinquad.errors import DegenerateFormError
from pinquad.forms import BilinearForm, Enhancement
from pinquad.vanishing import has_null_lagrangian, max_vanishing_dim
from oracles import naive_nondegenerate, random_enhancement, random_gl, rebase
from test_forms import orthogonal_sum

PROPERTY_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None, database=None)


@st.composite
def rebased(draw, max_dim, kinds=("nondegenerate",)):
    """An enhancement of one of the kinds, its beta (None when degenerate), and the same
    enhancement in another random basis."""
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(kind != "nondegenerate", max_dim))
    rng = draw(st.randoms(use_true_random=False))
    gram, values, beta, _ = random_enhancement(rng, n, kind)
    moved_gram, moved_values = rebase(gram, values, random_gl(rng, n))
    original = Enhancement(BilinearForm.from_rows(gram), values)
    moved = Enhancement(BilinearForm.from_rows(moved_gram), moved_values)
    return original, moved, beta


@PROPERTY_SETTINGS
@given(rebased(20))
def test_beta_is_invariant_under_change_of_basis(case):
    original, moved, beta = case
    assert naive_nondegenerate(moved.form.gram)
    assert brown_invariant(original) == brown_invariant(moved) == beta


@PROPERTY_SETTINGS
@given(rebased(10))
def test_null_answers_are_invariant_under_change_of_basis(case):
    original, moved, _beta = case
    assert max_vanishing_dim(moved) == max_vanishing_dim(original)
    assert has_null_lagrangian(moved) == has_null_lagrangian(original)


@PROPERTY_SETTINGS
@given(rebased(20, kinds=("nondegenerate", "radical_q0", "radical_q2")))
def test_answers_are_invariant_under_change_of_basis_on_degenerate_forms(case):
    original, moved, _beta = case
    degenerate = not naive_nondegenerate(original.form.gram)
    assert naive_nondegenerate(moved.form.gram) != degenerate
    assert gauss_sum(moved).counts == gauss_sum(original).counts
    if original.form.dim <= 10:
        assert max_vanishing_dim(moved) == max_vanishing_dim(original)
    if degenerate:
        for q in (original, moved):
            with pytest.raises(DegenerateFormError):
                brown_invariant(q)


@PROPERTY_SETTINGS
@given(st.integers(0, 20).flatmap(lambda k: st.tuples(rebased(k), rebased(20 - k))))
def test_beta_is_additive(cases):
    (_, q1, beta1), (_, q2, beta2) = cases
    total = brown_invariant(orthogonal_sum(q1, q2))
    assert total == (brown_invariant(q1) + brown_invariant(q2)) % 8 == (beta1 + beta2) % 8

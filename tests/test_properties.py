"""Property tests: beta and the q-null answers do not depend on the basis.

Enhancements are drawn as orthogonal sums of <1>, <-1> and hyperbolic planes
(with any values), whose Brown invariant is known piece by piece, and then
written in a random basis of F2^n: the Gram matrix and the basis values are
moved together, so the enhancement is the same and only its presentation
changes.  Some draws also get radical classes <0>, with q = 0 or 2 on them.
Runs are derandomized and bounded, so the suite is deterministic.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinquad.brown import brown_invariant, gauss_sum
from pinquad.errors import DegenerateFormError
from pinquad.forms import BilinearForm, Enhancement
from pinquad.vanishing import has_null_lagrangian, max_vanishing_dim
from oracles import block_sum, naive_nondegenerate, rebase
from test_forms import orthogonal_sum

PROPERTY_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None, database=None)

# beta of each piece: <1>, <-1>, and a plane by its values on the basis
PIECE_BETA = {(1,): 1, (3,): 7, (0, 0): 0, (0, 2): 0, (2, 0): 0, (2, 2): 4}


@st.composite
def split_enhancements(draw, max_dim, radical=False):
    """(gram, values, beta) of an orthogonal sum of pieces, rank at most max_dim.

    With ``radical``, some draws also have a zero block; beta is then that of the other pieces.
    """
    n = draw(st.integers(0, max_dim))
    blocks, values, beta = [], (), 0
    zeros = draw(st.integers(0, min(n, 3))) if radical else 0
    if zeros:
        blocks.append([[0] * zeros for _ in range(zeros)])
        values += tuple(draw(st.sampled_from((0, 2))) for _ in range(zeros))
    while len(values) < n:
        if n - len(values) >= 2 and draw(st.booleans()):
            blocks.append([[0, 1], [1, 0]])
            piece = (2 * draw(st.integers(0, 1)), 2 * draw(st.integers(0, 1)))
        else:
            blocks.append([[1]])
            piece = (draw(st.sampled_from((1, 3))),)
        values += piece
        beta += PIECE_BETA[piece]
    return block_sum(blocks), values, beta % 8


@st.composite
def bases(draw, n):
    """Rows of a random matrix in GL_n(F2), as class bitmasks.

    Every invertible matrix is P L U with P a permutation and L, U lower and
    upper unitriangular, so drawing the three factors reaches all of GL_n.
    """
    lower = [(1 << i) | draw(st.integers(0, (1 << i) - 1)) for i in range(n)]
    upper = [(1 << i) | draw(st.integers(0, (1 << n) - 1)) >> (i + 1) << (i + 1) for i in range(n)]
    rows = []
    for row in lower:
        acc = 0
        for j in range(n):
            if (row >> j) & 1:
                acc ^= upper[j]
        rows.append(acc)
    return draw(st.permutations(rows))


@st.composite
def rebased(draw, max_dim, radical=False):
    """An enhancement of known beta, and the same enhancement in a random basis."""
    gram, values, beta = draw(split_enhancements(max_dim, radical))
    moved_gram, moved_values = rebase(gram, values, draw(bases(len(values))))
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
@given(rebased(20, radical=True))
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

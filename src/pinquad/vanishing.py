"""Subspaces on which an enhancement vanishes identically.

Whether they exist is answered in closed form from the classification of
enhancements by rank and Brown invariant (E. H. Brown, Ann. of Math. 95,
1972; Kirby-Taylor, Pin structures on low-dimensional manifolds, 1990).  A
nondegenerate enhancement of rank n splits as a q-null hyperbolic part plus
an anisotropic part of rank d(beta) = (0, 1, 2, 3, 2, 3, 2, 1)[beta], so its
largest q-null subspace has dimension (n - d(beta)) / 2 and a q-null
Lagrangian exists exactly when n is even and beta = 0.  On a degenerate form
q is linear on the radical R, with values in {0, 2}: if it is zero there,
R adds to every q-null subspace of the nondegenerate quotient; otherwise a
q-null subspace meets R in at most the hyperplane ker(q|R), and every
isotropic subspace of the quotient lifts to a q-null one (its values are
corrected by a radical class with q = 2).  Beta, R and q on R all come from
the one orthogonal split in ``forms``; no rank is computed, so the largest
dimension and the Lagrangian test answer at any rank.

Listing the subspaces is exponential by nature.  One walk over
reduced-echelon bases serves it, and it holds the one search guard, as it
tabulates all 2^n values: rows are picked lowest pivot first, each
level in increasing class order, so the bases come out in canonical order
(by their row tuples) by construction and are never sorted.  Only
pairwise orthogonal classes with q = 0 are joined, so every partial span is
q-null.  The q-null Lagrangian witness is the walk's first basis, so finding
it stops at the first leaf.  Candidate sets are bitsets over all 2^n
classes, one bit per class, so each step is a handful of word operations.
"""
from __future__ import annotations

from collections.abc import Iterator

from . import forms
from .errors import DegenerateFormError, LimitError

MAX_SEARCH_DIM = 10

# rank of the anisotropic part of a nondegenerate enhancement, by beta
_ANISOTROPIC_RANK = (0, 1, 2, 3, 2, 3, 2, 1)


def _check_search_guard(q: forms.Enhancement) -> None:
    n = q.form.dim
    if n > MAX_SEARCH_DIM:
        raise LimitError(f"dim {n} exceeds vanishing-search guard {MAX_SEARCH_DIM}")


def _null_bases(q: forms.Enhancement, d: int) -> Iterator[tuple[int, ...]]:
    """Reduced-echelon bases of the d-dimensional q-null subspaces, in row-tuple order.

    A row y may follow x when q(y) = 0, y is orthogonal to x, and y's pivot
    lies above x's pivot and outside x's support (so the basis stays
    reduced).  Each level is its parent level cut down by the successors of
    the row picked there.
    """
    _check_search_guard(q)
    n = q.form.dim
    if not 0 <= d <= n:
        return
    zero_at_pivot = [0] * n  # nonzero classes with q = 0, by pivot, as bitsets
    for x, v in enumerate(forms.value_table(q)):
        if v == 0 and x:
            zero_at_pivot[(x & -x).bit_length() - 1] |= 1 << x
    rows = q.form.row_masks
    # ones[j]: the classes with bit j set; those pairing to 1 with x are the XOR of ones[j]
    # over the bits j of x's functional.  With w = 2^j, (2^(2^n) - 1) / (2^w + 1) is w ones
    # at the bottom of every 2w bits, the classes with bit j clear.
    full = (1 << (1 << n)) - 1
    ones = [(full // ((1 << (1 << j)) + 1)) << (1 << j) for j in range(n)]
    successors: dict[int, int] = {}

    def after(x: int) -> int:
        s = successors.get(x)
        if s is None:
            above = range((x & -x).bit_length(), n)
            s = sum(zero_at_pivot[k] for k in above if not (x >> k) & 1)  # disjoint sets
            f, paired = forms._functional(rows, x), 0
            for j in range(n):
                if f >> j & 1:
                    paired ^= ones[j]
            s = successors[x] = s & ~paired
        return s

    def walk(rows: tuple[int, ...], level: int) -> Iterator[tuple[int, ...]]:
        want = d - len(rows) - 1  # rows still needed after this one
        pool = level
        while pool:
            low = pool & -pool
            pool ^= low
            grown = rows + (low.bit_length() - 1,)
            if not want:
                yield grown
                continue
            nxt = level & after(grown[-1])
            if nxt.bit_count() >= want:
                yield from walk(grown, nxt)

    if d == 0:
        yield ()
    else:
        yield from walk((), sum(zero_at_pivot))


def max_vanishing_dim(q: forms.Enhancement) -> int:
    """Largest dimension of a q-null subspace, in closed form.

    Nondegenerate rank n: (n - d(beta)) // 2, where d(beta) is the rank of
    the anisotropic part (Brown; Kirby-Taylor).  Degenerate, with radical R
    of dimension r and m = n - r: r + (m - d(beta')) // 2 when q vanishes on
    R, where beta' is the Brown invariant of the pieces split off R (q
    descends to V/R); r - 1 + m // 2 when it does not.  So a degenerate
    form can exceed n / 2.
    """
    beta, r, null_radical, _, _ = forms._split(q.form._bits, q.values)
    return _max_null_dim(q.form.dim, beta, r, null_radical)


def _max_null_dim(n: int, beta: int, r: int, null_radical: bool) -> int:
    m = n - r  # the closed form above, from a rank-n form's split; enumerate reads it too
    return r + (m - _ANISOTROPIC_RANK[beta]) // 2 if null_radical else r - 1 + m // 2


def has_null_lagrangian(q: forms.Enhancement) -> bool:
    """Whether a q-null subspace of half the dimension exists.

    On a nondegenerate form this holds exactly when beta = 0 (the anisotropic
    part must vanish; Brown, Kirby-Taylor); beta = n (mod 2), so the rank is
    then even.
    """
    beta, r, _, _, _ = forms._split(q.form._bits, q.values)
    if r:
        raise DegenerateFormError("Lagrangian test needs a nondegenerate form")
    return beta == 0

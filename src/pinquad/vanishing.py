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
the one orthogonal split in ``brown``; no rank is computed.

Listing the subspaces is exponential by nature, so ``vanishing_subspaces``
walks reduced-echelon bases directly, pruning any branch whose partial span
is not q-null.  Candidate sets are kept as bitsets over all 2^n classes, one
bit per class, so each step of the walk is a handful of word operations.
"""
from __future__ import annotations

from .brown import _angle, _split
from .errors import DegenerateFormError, LimitError
from .f2 import F2Vector, Subspace
from .forms import Enhancement, value_table

MAX_SEARCH_DIM = 10

# rank of the anisotropic part of a nondegenerate enhancement, by beta
_ANISOTROPIC_RANK = (0, 1, 2, 3, 2, 3, 2, 1)


def _check_search_guard(q: Enhancement) -> None:
    n = q.form.dim
    if n > MAX_SEARCH_DIM:
        raise LimitError(f"dim {n} exceeds vanishing-search guard {MAX_SEARCH_DIM}")


def _class_set_with_zero_pairing(func_mask: int, n: int) -> int:
    """Bitset of classes x in [0, 2^n) with parity(x & func_mask) = 0.

    Doubling construction: appending coordinate j mirrors the lower block,
    complemented when bit j of the functional is set.
    """
    acc = 1  # x = 0 always pairs to 0
    for j in range(n):
        width = 1 << j
        block = (1 << width) - 1
        if (func_mask >> j) & 1:
            acc |= (block ^ acc) << width
        else:
            acc |= acc << width
    return acc


class _NullSearch:
    """Shared state for one enhancement's q-null subspace walks."""

    def __init__(self, q: Enhancement):
        self.q = q
        self.n = q.form.dim
        table = value_table(q)
        zero = 0
        for x, v in enumerate(table):
            if v == 0:
                zero |= 1 << x
        self.zero_set = zero & ~1  # nonzero classes with q = 0
        self._orth_cache: dict[int, int] = {}
        # has_low_bit[p]: classes with some set coordinate below p
        self.has_low_bit = [0] * (self.n + 1)
        acc = 0
        for p in range(self.n):
            self.has_low_bit[p] = acc
            acc |= self._col_set(p)
        self.has_low_bit[self.n] = acc

    def _orth(self, func_mask: int) -> int:
        m = self._orth_cache.get(func_mask)
        if m is None:
            m = _class_set_with_zero_pairing(func_mask, self.n)
            self._orth_cache[func_mask] = m
        return m

    def _col_set(self, p: int) -> int:
        """Bitset of classes with coordinate p set."""
        full = (1 << (1 << self.n)) - 1
        return full ^ self._orth(1 << p)

    def collect(self, d: int) -> list[tuple[int, ...]]:
        """All echelon bases (increasing pivot) of d-dimensional q-null subspaces."""
        if d == 0:
            return [()]
        if d > self.n:
            return []
        functional = self.q.form.functional_mask
        orth = self._orth
        has_low_bit = self.has_low_bit
        out: list[tuple[int, ...]] = []

        def walk(rows: list[int], cand: int, min_pivot: int) -> None:
            want = d - len(rows)
            pool = cand & has_low_bit[min_pivot]
            if pool.bit_count() < want:
                return
            last = want == 1
            while pool:
                low = pool & -pool
                pool &= pool - 1
                x = low.bit_length() - 1  # class bitmask, as an integer
                rows.append(x)
                if last:
                    out.append(tuple(rows[::-1]))
                else:
                    p = (x & -x).bit_length() - 1
                    walk(rows, cand & orth(functional(x)) & orth(1 << p), p)
                rows.pop()

        walk([], self.zero_set, self.n)
        return out


def _null_bases(q: Enhancement, d: int) -> list[tuple[int, ...]]:
    return sorted(_NullSearch(q).collect(d))


def vanishing_subspaces(q: Enhancement, dim: int) -> list[Subspace]:
    """All dim-dimensional subspaces with q identically zero, in canonical order.

    Every returned subspace is automatically isotropic: q zero on a span
    forces 2*(x.y) = 0 for all pairs in it.
    """
    _check_search_guard(q)
    n = q.form.dim
    if dim < 0 or dim > n:
        return []
    out = []
    for rows in _null_bases(q, dim):
        out.append(Subspace(n, tuple(F2Vector(n, r) for r in rows)))
    return out


def max_vanishing_dim(q: Enhancement) -> int:
    """Largest dimension of a q-null subspace, in closed form.

    Nondegenerate rank n: (n - d(beta)) // 2, where d(beta) is the rank of
    the anisotropic part (Brown; Kirby-Taylor).  Degenerate, with radical R
    of dimension r and m = n - r: r + (m - d(beta')) // 2 when q vanishes on
    R, where beta' is the Brown invariant of the pieces split off R (q
    descends to V/R); r - 1 + m // 2 when it does not.  So a degenerate
    form can exceed n / 2.
    """
    _check_search_guard(q)
    a, b, r, null_radical = _split(q)
    m = q.form.dim - r
    return r + (m - _ANISOTROPIC_RANK[_angle(a, b)]) // 2 if null_radical else r - 1 + m // 2


def has_null_lagrangian(q: Enhancement) -> bool:
    """Whether a q-null subspace of half the dimension exists.

    On a nondegenerate form this holds exactly when the rank is even and
    beta = 0 (the anisotropic part must vanish; Brown, Kirby-Taylor).
    """
    _check_search_guard(q)
    a, b, r, _ = _split(q)
    if r:
        raise DegenerateFormError("Lagrangian test needs a nondegenerate form")
    return q.form.dim % 2 == 0 and _angle(a, b) == 0

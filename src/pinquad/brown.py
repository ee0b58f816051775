"""The Brown invariant of a quadratic enhancement, by orthogonal splitting.

The Gauss sum of q is the sum of i^q(x) over all 2^n classes.  It equals
A + Bi with A = N0 - N2 and B = N1 - N3, where Nk counts classes of value k.
For a nondegenerate form it lands on one of the eight integer points with
A^2 + B^2 = 2^n, and the angle, in eighths of a turn, is the Brown invariant
beta in Z/8.

The sum is never enumerated.  It is multiplicative over orthogonal sums, and
every enhancement splits orthogonally into pieces of rank one, hyperbolic
planes and its radical (E. H. Brown, Ann. of Math. 95, 1972; Kirby-Taylor,
Pin structures on low-dimensional manifolds, 1990).  ``_split`` takes off one
piece at a time and moves the other basis vectors into its orthogonal
complement: a class u with u.u = 1 contributes 1 + i^q(u); once no odd class
is left, a pair u, w with u.w = 1 spans a plane that contributes -2 when
q(u) = q(w) = 2 and 2 otherwise; a class with no partner is radical.  That
one pass gives beta, the radical (so no rank is computed), the values of q
on it, the four counts and, in ``vanishing``, the largest q-null dimension.
Everything is integer arithmetic.
"""
from __future__ import annotations

from .errors import DegenerateFormError, InternalError, LimitError, UnsupportedInputError
from .f2 import Value
from .forms import Enhancement

MAX_GAUSS_DIM = 20


class GaussSumResult(Value):
    """Exact Gauss-sum pair of an enhancement, with the four value counts."""

    __slots__ = _fields = ("n", "counts")

    def __init__(self, n: int, counts: tuple[int, int, int, int]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "counts", counts)  # classes with q = 0, 1, 2, 3

    @property
    def a(self) -> int:
        return self.counts[0] - self.counts[2]

    @property
    def b(self) -> int:
        return self.counts[1] - self.counts[3]


def _split(q: Enhancement) -> tuple[int, int, int, bool]:
    """(a, b, r, null_radical): a + bi is the Gauss sum of the pieces off the radical,
    r its dimension and null_radical whether q is 0 on it.  A basis vector is kept as
    (class bitmask b, functional mask f, q value); u.v is the parity of f_v & b_u.
    """
    rest = [(1 << i, row, v) for i, (row, v) in enumerate(zip(q.form.row_masks, q.values))]
    a, b = 1, 0
    while True:
        # u.u = q(u) mod 2: split off an odd class, 1 + i^q(u) = 1 + i or 1 - i
        for k, (bu, fu, qu) in enumerate(rest):
            if qu & 1:
                break
        else:
            break
        del rest[k]
        a, b = (a - b, a + b) if qu == 1 else (a + b, b - a)
        shift = qu + 2  # q(v + u) = q(v) + q(u) + 2 when v.u = 1
        for j, (bv, fv, qv) in enumerate(rest):
            if (fv & bu).bit_count() & 1:
                rest[j] = (bv ^ bu, fv ^ fu, (qv + shift) & 3)
    r, null_radical = 0, True
    while rest:
        bu, fu, qu = rest.pop()
        for k, (bw, fw, qw) in enumerate(rest):
            if (fw & bu).bit_count() & 1:
                break
        else:
            # a radical class: q(u) is 0 or 2
            r += 1
            null_radical = null_radical and not qu
            continue
        del rest[k]
        # a hyperbolic plane: 1 + i^q(u) + i^q(w) - i^(q(u) + q(w))
        a, b = (-2 * a, -2 * b) if qu == qw == 2 else (2 * a, 2 * b)
        fuw, buw, quw = fu ^ fw, bu ^ bw, (qu + qw + 2) & 3
        for j, (bv, fv, qv) in enumerate(rest):
            # v + (v.w)u + (v.u)w is orthogonal to u and w and pairs to 0 with what it gains
            if (fv & bu).bit_count() & 1:
                if (fv & bw).bit_count() & 1:
                    rest[j] = (bv ^ buw, fv ^ fuw, (qv + quw) & 3)
                else:
                    rest[j] = (bv ^ bw, fv ^ fw, (qv + qw) & 3)
            elif (fv & bw).bit_count() & 1:
                rest[j] = (bv ^ bu, fv ^ fu, (qv + qu) & 3)
    return a, b, r, null_radical


def _check_gauss_guard(n: int) -> None:
    if n > MAX_GAUSS_DIM:
        raise LimitError(f"dim {n} exceeds Gauss-sum guard {MAX_GAUSS_DIM}")


def gauss_sum(q: Enhancement) -> GaussSumResult:
    """Gauss sum and value counts of an enhancement, by orthogonal splitting."""
    n = q.form.dim
    _check_gauss_guard(n)
    a, b, r, null_radical = _split(q)
    # a radical class contributes 1 + i^q(u): 2 for q(u) = 0, and 0 for q(u) = 2
    a, b = (a << r, b << r) if null_radical else (0, 0)
    # x -> x.x is linear: every class is even when every basis value is, else half are
    even = 1 << n if 1 not in q.values and 3 not in q.values else 1 << (n - 1)
    odd_count = (1 << n) - even
    return GaussSumResult(
        n, ((even + a) // 2, (odd_count + b) // 2, (even - a) // 2, (odd_count - b) // 2)
    )


# beta by the signs of (A, B) on the eight legal rays
_RAYS = {(1, 0): 0, (1, 1): 1, (0, 1): 2, (-1, 1): 3, (-1, 0): 4, (-1, -1): 5, (0, -1): 6, (1, -1): 7}


def _angle(a: int, b: int) -> int:
    return _RAYS[(a > 0) - (a < 0), (b > 0) - (b < 0)]


def brown_invariant(q: Enhancement) -> int:
    """The Brown invariant beta(q) in Z/8 of a nondegenerate enhancement.

    Raises DegenerateFormError when the form is degenerate (no convention is
    chosen for that case); a radical is reported before the Gauss-sum guard.
    """
    a, b, r, _ = _split(q)
    if r:
        raise DegenerateFormError("Brown invariant undefined: degenerate form")
    _check_gauss_guard(q.form.dim)
    return _angle(a, b)


def arf_from_brown(q: Enhancement) -> int:
    """The classical Arf invariant of an even (Spin) enhancement.

    Even enhancements have beta in {0, 4}; the Arf invariant is beta / 4.
    """
    odd = [i for i, v in enumerate(q.values) if v & 1]
    if odd:
        raise UnsupportedInputError(
            f"Arf invariant needs all basis values even; odd at indices {odd}"
        )
    beta = brown_invariant(q)
    if beta not in (0, 4):
        raise InternalError(f"even enhancement produced beta = {beta}, expected 0 or 4")
    return beta // 4

"""The Brown invariant of a quadratic enhancement, by orthogonal splitting.

The Gauss sum of q is the sum of i^q(x) over all 2^n classes.  It equals
A + Bi with A = N0 - N2 and B = N1 - N3, where Nk counts classes of value k.
For a nondegenerate form it lands on one of the eight integer points with
A^2 + B^2 = 2^n, and the angle, in eighths of a turn, is the Brown invariant
beta in Z/8.

The sum is never enumerated.  It is multiplicative over orthogonal sums, so it is
the product over the pieces of the split ``forms._split`` (E. H. Brown, Ann. of
Math. 95, 1972): 1 + i^q(u) for u.u = 1, 2 or -2 for a plane, 2 or 0 for a radical class.
"""
from __future__ import annotations

from typing import Sequence

from .errors import DegenerateFormError, InternalError, LimitError, UnsupportedInputError
from .f2 import Value
from .forms import Enhancement, _split

MAX_GAUSS_DIM = 20


class GaussSumResult(Value):
    """Exact Gauss-sum pair of an enhancement, with the four value counts."""

    __slots__ = _fields = ("n", "counts")

    def __init__(self, n: int, counts: Sequence[int]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "counts", tuple(counts))  # classes with q = 0, 1, 2, 3

    @property
    def a(self) -> int:
        return self.counts[0] - self.counts[2]

    @property
    def b(self) -> int:
        return self.counts[1] - self.counts[3]


def _check_gauss_guard(n: int) -> None:
    if n > MAX_GAUSS_DIM:
        raise LimitError(f"dim {n} exceeds Gauss-sum guard {MAX_GAUSS_DIM}")


def gauss_sum(q: Enhancement) -> GaussSumResult:
    """Gauss sum and value counts of an enhancement, by orthogonal splitting."""
    n = q.form.dim
    _check_gauss_guard(n)
    a, b, r, null_radical, odd, _ = _split(q.form, q.values)
    # a radical class contributes 1 + i^q(u): 2 for q(u) = 0, and 0 for q(u) = 2
    a, b = (a << r, b << r) if null_radical else (0, 0)
    # x -> x.x is linear: every class is even when the split has no odd piece, else half are
    even = 1 << (n - 1) if odd else 1 << n
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
    a, b, r, _, _, _ = _split(q.form, q.values)
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

"""The Brown invariant of a quadratic enhancement, by orthogonal splitting.

Beta in Z/8 adds up over orthogonal sums, so ``forms._split`` sums it over its pieces
(E. H. Brown, Ann. of Math. 95, 1972).  The Gauss sum of q, the sum of i^q(x) over all 2^n
classes, is A + Bi with A = N0 - N2 and B = N1 - N3, where Nk counts classes of value k.  It
is multiplicative over the same pieces, so it is never enumerated: when q is 0 on the
radical, of dimension r, it lies on the ray at beta eighths of a turn, 2^((n + r)/2) from 0;
otherwise it is 0.
"""
from __future__ import annotations

from collections.abc import Sequence

from .errors import DegenerateFormError, InternalError, UnsupportedInputError
from .forms import Enhancement, Value, _split


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


# the Gauss sum's direction by beta, counterclockwise from (1, 0) in eighths of a turn
_RAYS = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))


def gauss_sum(q: Enhancement) -> GaussSumResult:
    """Gauss sum and value counts of an enhancement, from the Brown invariant of its split."""
    n = q.form.dim
    beta, r, null_radical, odd, _ = _split(q.form._bits, q.values)
    # |G| = 2^((n + r)/2) unless a radical class with q = 2 kills G: an odd class gives sqrt 2,
    # a plane and a radical class 2.  n + r is odd when beta is, and then the ray has a sqrt 2
    shift = (n + r) // 2
    a, b = _RAYS[beta]
    a, b = (a << shift, b << shift) if null_radical else (0, 0)
    # x -> x.x is linear: every class is even when the split has no odd piece, else half are
    even = 1 << (n - 1) if odd else 1 << n
    odd_count = (1 << n) - even
    return GaussSumResult(
        n, ((even + a) // 2, (odd_count + b) // 2, (even - a) // 2, (odd_count - b) // 2)
    )


def brown_invariant(q: Enhancement) -> int:
    """The Brown invariant beta(q) in Z/8 of a nondegenerate enhancement.

    Raises DegenerateFormError when the form is degenerate (no convention is
    chosen for that case).
    """
    beta, r, _, _, _ = _split(q.form._bits, q.values)
    if r:
        raise DegenerateFormError("Brown invariant undefined: degenerate form")
    return beta


def arf_from_brown(q: Enhancement) -> int:
    """The classical Arf invariant of an even (Spin) enhancement.

    Even enhancements have beta in {0, 4}; the Arf invariant is beta / 4.
    """
    if 1 in q.form._diag:  # a value is odd exactly where the diagonal is 1
        odd = [i for i, v in enumerate(q.values) if v & 1]
        raise UnsupportedInputError(
            f"Arf invariant needs all basis values even; odd at indices {odd}"
        )
    beta = brown_invariant(q)
    if beta not in (0, 4):
        raise InternalError(f"even enhancement produced beta = {beta}, expected 0 or 4")
    return beta // 4

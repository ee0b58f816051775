"""The Brown invariant of a quadratic enhancement, by exact Gauss sums.

Summing i^q(x) over all 2^n classes gives A + Bi with A = N0 - N2 and
B = N1 - N3, where Nk counts classes of value k.  For a nondegenerate form
this lands on one of the eight integer points with A^2 + B^2 = 2^n, and the
angle, in eighths of a turn, is the Brown invariant beta in Z/8.  Everything
is integer arithmetic; no roots of unity are ever evaluated in floating point.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateFormError, LimitError, UnsupportedInputError
from .forms import Enhancement, value_table

MAX_GAUSS_DIM = 20


@dataclass(frozen=True)
class GaussSumResult:
    """Exact Gauss-sum pair of an enhancement, with the four value counts."""

    n: int
    counts: tuple[int, int, int, int]  # classes with q = 0, 1, 2, 3

    @property
    def a(self) -> int:
        return self.counts[0] - self.counts[2]

    @property
    def b(self) -> int:
        return self.counts[1] - self.counts[3]


def gauss_sum(q: Enhancement) -> GaussSumResult:
    """Count enhancement values over all 2^n classes."""
    n = q.form.dim
    if n > MAX_GAUSS_DIM:
        raise LimitError(f"dim {n} exceeds Gauss-sum guard {MAX_GAUSS_DIM}")
    counts = [0, 0, 0, 0]
    for v in value_table(q):
        counts[v] += 1
    return GaussSumResult(n, tuple(counts))


def decode_brown(gs: GaussSumResult) -> int:
    """Map a Gauss-sum pair to beta in Z/8.

    The eight legal patterns are (A, B) = 2^(n/2) * (cos, sin)(pi*beta/4)
    exactly; anything else means the form was degenerate.
    """
    a, b = gs.a, gs.b
    if a * a + b * b != 1 << gs.n:
        raise DegenerateFormError(
            f"Gauss sum ({a}, {b}) has |.|^2 = {a * a + b * b} != 2^{gs.n}: degenerate form"
        )
    if b == 0:
        return 0 if a > 0 else 4
    if a == 0:
        return 2 if b > 0 else 6
    if a > 0:
        return 1 if b > 0 else 7
    return 3 if b > 0 else 5


def _require_nondegenerate(q: Enhancement) -> None:
    if not q.form.nondegenerate:
        raise DegenerateFormError("Brown invariant undefined: degenerate form")


def brown_invariant(q: Enhancement) -> int:
    """The Brown invariant beta(q) in Z/8 of a nondegenerate enhancement.

    Raises DegenerateFormError when the form is degenerate (no convention is
    chosen for that case).
    """
    _require_nondegenerate(q)
    return decode_brown(gauss_sum(q))


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
        raise RuntimeError(f"even enhancement produced beta = {beta}, expected 0 or 4")
    return beta // 4

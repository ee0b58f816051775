"""The Brown invariant of a quadratic enhancement, by orthogonal splitting.

The Gauss sum of q is the sum of i^q(x) over all 2^n classes.  It equals
A + Bi with A = N0 - N2 and B = N1 - N3, where Nk counts classes of value k.
For a nondegenerate form it lands on one of the eight integer points with
A^2 + B^2 = 2^n, and the angle, in eighths of a turn, is the Brown invariant
beta in Z/8.

The sum is never enumerated.  It is multiplicative over orthogonal sums,
and every enhancement splits orthogonally into pieces of rank one and
hyperbolic planes (E. H. Brown, Ann. of Math. 95, 1972; Kirby-Taylor, Pin
structures on low-dimensional manifolds, 1990).  ``gauss_sum`` splits off
one piece at a time and multiplies a running Gaussian integer:

- a class u with u.u = 1 contributes 1 + i^q(u);
- once no odd class is left, a pair u, w with u.w = 1 spans a plane that
  contributes -2 when q(u) = q(w) = 2 and 2 otherwise;
- a class with no partner lies in the radical, where q is 0 or 2, and
  contributes 2 or 0.

Each remaining basis vector is moved into the orthogonal complement of the
piece, with its value corrected by the enhancement law.  The counts Nk then
follow from A, B and the number of classes of even value.  Everything is
integer arithmetic; no roots of unity are ever evaluated in floating point.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateFormError, InternalError, LimitError, UnsupportedInputError
from .forms import Enhancement

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
    """Gauss sum and value counts of an enhancement, by orthogonal splitting.

    Each basis vector is kept as (class bitmask, functional mask, q value);
    u.v is the parity of v's functional mask on u's bitmask.
    """
    n = q.form.dim
    if n > MAX_GAUSS_DIM:
        raise LimitError(f"dim {n} exceeds Gauss-sum guard {MAX_GAUSS_DIM}")
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
    while rest:
        bu, fu, qu = rest.pop()
        for k, (bw, fw, qw) in enumerate(rest):
            if (fw & bu).bit_count() & 1:
                break
        else:
            # a radical class: 1 + i^q(u) is 2 for q(u) = 0 and 0 for q(u) = 2
            if qu:
                a = b = 0
                break
            a, b = 2 * a, 2 * b
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
    # x -> x.x is linear: every class is even when every basis value is, else half are
    even = 1 << n if 1 not in q.values and 3 not in q.values else 1 << (n - 1)
    odd_count = (1 << n) - even
    return GaussSumResult(
        n, ((even + a) // 2, (odd_count + b) // 2, (even - a) // 2, (odd_count - b) // 2)
    )


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
        raise InternalError(f"even enhancement produced beta = {beta}, expected 0 or 4")
    return beta // 4

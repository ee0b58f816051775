"""Exact linear algebra over the two-element field.

Vectors are immutable bit vectors (stored as integer bitmasks, coordinate i is bit i),
matrices are tuples of row bitmasks, and subspaces are tuples of row bitmasks kept in
reduced row-echelon form so that structural equality coincides with equality of subspaces.
Elimination packs the rows into one integer and reduces them one multiply per pivot, as the
split does.  ``forms`` defines ``F2Vector`` and the value base, so no CLI command loads this
module.
"""
from __future__ import annotations

from collections.abc import Sequence

from .errors import DimensionMismatchError
from .forms import F2Vector, Value, _pack


class F2Matrix(Value):
    """A rows x cols matrix over F2; row i is the bitmask ``row_masks[i]``."""

    __slots__ = _fields = ("rows", "cols", "row_masks")

    def __init__(self, rows: int, cols: int, row_masks: Sequence[int]):
        row_masks = tuple(row_masks)
        if len(row_masks) != rows:
            raise ValueError(f"expected {rows} rows, got {len(row_masks)}")
        top = 1 << cols
        for i, r in enumerate(row_masks):
            if not 0 <= r < top:
                raise ValueError(f"row {i} mask {r:#x} does not fit in {cols} columns")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "row_masks", row_masks)


def _rref(masks: Sequence[int], top: bool = False) -> list[int]:
    """Reduced row echelon form of a list of row bitmasks.

    Returns nonzero rows with strictly increasing pivots (lowest set bit), each pivot column
    cleared in every other row; with ``top`` the pivots are the highest set bits, decreasing.
    The rows are packed into one integer, row k at bit k*w, w one more than the widest row's
    bit length.  The lowest nonzero row that is not a pivot row yet (the highest with ``top``)
    becomes the pivot row of its lowest bit p (its highest), and is added to each other row
    with bit p by one multiply, with no carry (the row is under 2^(w - 1), its copies w bits
    apart); so there is one step per pivot, whatever the width.
    """
    w = max(masks, default=0).bit_length() + 1
    row, n = (1 << w) - 1, len(masks)
    packed, ones = _pack(masks, w), ((1 << n * w) - 1) // row  # bit k*w for each row k
    rest, pivots = (1 << n * w) - 1, []  # the bits of the rows not yet pivot rows; (p, k)
    while x := packed & rest:
        q = x.bit_length() - 1 if top else (x & -x).bit_length() - 1
        k, p = q - q % w, q % w  # the row at bit k, its pivot column p
        packed ^= (packed >> k & row) * ((packed >> p & ones) ^ 1 << k)
        rest ^= row << k
        pivots.append((p, k))
    pivots.sort(reverse=top)
    return [packed >> k & row for _, k in pivots]


def rank(m: F2Matrix) -> int:
    """Dimension of the row space."""
    return len(_rref(m.row_masks))


def solve(m: F2Matrix, b: F2Vector) -> F2Vector | None:
    """One solution x of m.x = b, or None if the system is inconsistent.

    The right-hand side rides along as column ``m.cols`` of the elimination;
    a pivot there means the system is inconsistent.  Free variables are set
    to zero, so the returned solution is reproducible.
    """
    if b.dim != m.rows:
        raise DimensionMismatchError(f"matrix has {m.rows} rows, rhs has dim {b.dim}")
    rhs = 1 << m.cols
    augmented = [r | rhs * ((b.bits >> i) & 1) for i, r in enumerate(m.row_masks)]
    x = 0
    for r in _rref(augmented):
        if r == rhs:
            return None
        # rows are fully reduced, so each pivot variable equals its rhs bit
        x |= (r >> m.cols) * (r & -r)
    return F2Vector(m.cols, x)


class Subspace(Value):
    """A subspace of F2^ambient_dim, its basis held as reduced row-echelon row bitmasks.

    Rows are nonzero with strictly increasing pivots (lowest set bits), and no
    row has a bit at another row's pivot, so equal subspaces are equal objects.
    """

    __slots__ = _fields = ("ambient_dim", "row_masks")

    def __init__(self, ambient_dim: int, row_masks: Sequence[int]):
        row_masks = tuple(row_masks)
        n = ambient_dim
        top = 1 << n
        last = 0  # pivot bit of the previous row
        seen = 0  # union of the previous rows
        for r in row_masks:
            if not 0 < r < top:
                raise ValueError(f"basis row {r:#x} is zero or does not fit in dimension {n}")
            p = r & -r
            if p <= last:
                raise ValueError("basis not in echelon order")
            if p & seen:
                raise ValueError("basis not fully reduced")
            last, seen = p, seen | r
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "row_masks", row_masks)

    @property
    def basis(self) -> tuple[F2Vector, ...]:
        return tuple(F2Vector(self.ambient_dim, r) for r in self.row_masks)

    @property
    def dim(self) -> int:
        return len(self.row_masks)


def kernel_basis(m: F2Matrix) -> Subspace:
    """The solution space of m.x = 0 as a canonical Subspace.

    The rows are reduced at their highest bits.  Free column f gives e_f plus e_h for each
    reduced row, of pivot h, with bit f; each such h is above f, so the generators have
    increasing pivots f, each in no other generator, and need no second elimination.
    """
    rref_rows = _rref(m.row_masks, top=True)
    pivot_cols = [r.bit_length() - 1 for r in rref_rows]
    pivot_set = set(pivot_cols)
    gens = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        bits = 1 << free
        for r, p in zip(rref_rows, pivot_cols):
            if (r >> free) & 1:
                bits |= 1 << p
        gens.append(bits)
    return Subspace(m.cols, tuple(gens))

"""Exact linear algebra over the two-element field.

Vectors are immutable bit vectors (stored as integer bitmasks, coordinate i is bit i),
matrices are tuples of row bitmasks, and subspaces are tuples of row bitmasks kept in
reduced row-echelon form so that structural equality coincides with equality of subspaces.
``forms`` defines ``F2Vector`` and the value base, so no CLI command loads this module.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence

from .errors import DimensionMismatchError
from .forms import F2Vector, Value


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


def _rref(masks: Iterable[int]) -> list[int]:
    """Reduced row echelon form of a list of row bitmasks.

    Returns nonzero rows with strictly increasing pivots (lowest set bit),
    each pivot column cleared in every other row.  Each row is reduced by the
    basis row of its pivot, looked up by pivot bit, until it is zero or has a
    new pivot; one pass from the highest pivot down then clears every pivot
    column above a row's own, the rows above already being fully reduced.
    """
    basis: dict[int, int] = {}  # pivot bit -> basis row
    for r in masks:
        while r:
            p = r & -r
            b = basis.get(p)
            if b is None:
                basis[p] = r
                break
            r ^= b
    out: list[int] = []
    done = 0  # pivot bits of the rows already reduced
    for p in sorted(basis, reverse=True):
        r = basis[p]
        m = r & done  # a reduced row has no bit at another pivot: its XOR clears just one bit
        while m:
            b = m & -m
            r ^= basis[b]
            m ^= b
        basis[p] = r
        done |= p
        out.append(r)
    out.reverse()
    return out


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
    augmented = (r | rhs * ((b.bits >> i) & 1) for i, r in enumerate(m.row_masks))
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
    """The solution space of m.x = 0 as a canonical Subspace."""
    rref_rows = _rref(m.row_masks)
    pivot_cols = [(r & -r).bit_length() - 1 for r in rref_rows]
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
    # a generator's lowest bit may be a pivot column below its free column: reduce again
    return Subspace(m.cols, tuple(_rref(gens)))

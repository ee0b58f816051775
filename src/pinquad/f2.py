"""Exact linear algebra over the two-element field.

Vectors are immutable bit vectors (stored as integer bitmasks, coordinate i
is bit i), matrices are tuples of row bitmasks, and subspaces are tuples of
row bitmasks kept in reduced row-echelon form so that structural equality
coincides with equality of subspaces.
"""
from __future__ import annotations

from typing import Iterable

from .errors import DimensionMismatchError, LimitError

MAX_VECTOR_DIM = 32


def parity(mask: int) -> int:
    """Parity of the number of set bits."""
    return mask.bit_count() & 1


class Value:
    """An immutable value, equal only to an object of exactly its class with equal fields.

    A subclass names its fields in ``_fields``, in constructor order, and sets its slots in a
    validating ``__init__``, which copies and pickles run again; other slots do not compare.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")
    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return type(self), self._key()


class F2Vector(Value):
    """A vector in F2^dim, coordinates indexed 0..dim-1 (bit i of ``bits``)."""

    __slots__ = _fields = ("dim", "bits")

    def __init__(self, dim: int, bits: int):
        if not 0 <= dim <= MAX_VECTOR_DIM:
            raise LimitError(f"vector dimension {dim} outside [0, {MAX_VECTOR_DIM}]")
        if not 0 <= bits < (1 << dim):
            raise ValueError(f"bit mask {bits:#x} does not fit in dimension {dim}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "bits", bits)


class F2Matrix(Value):
    """A rows x cols matrix over F2; row i is the bitmask ``row_masks[i]``."""

    __slots__ = _fields = ("rows", "cols", "row_masks")

    def __init__(self, rows: int, cols: int, row_masks: tuple[int, ...]):
        if len(row_masks) != rows:
            raise ValueError(f"expected {rows} rows, got {len(row_masks)}")
        top = 1 << cols
        for i, r in enumerate(row_masks):
            if not 0 <= r < top:
                raise ValueError(f"row {i} mask {r:#x} does not fit in {cols} columns")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "row_masks", row_masks)


def _rref(masks: Iterable[int], cols: int) -> list[int]:
    """Reduced row echelon form of a list of row bitmasks.

    Returns nonzero rows with strictly increasing pivots (lowest set bit),
    each pivot column cleared in every other row.
    """
    rows = [m for m in masks if m]
    out: list[int] = []
    for col in range(cols):
        bit = 1 << col
        piv = None
        for i, r in enumerate(rows):
            if r & bit:
                piv = rows.pop(i)
                break
        if piv is None:
            continue
        out = [r ^ piv if r & bit else r for r in out]
        rows = [r ^ piv if r & bit else r for r in rows]
        out.append(piv)
        if not rows:
            break
    return out


def rank(m: F2Matrix) -> int:
    """Dimension of the row space."""
    return len(_rref(m.row_masks, m.cols))


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
    for r in _rref(augmented, m.cols + 1):
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

    def __init__(self, ambient_dim: int, row_masks: tuple[int, ...]):
        n = ambient_dim
        if not 0 <= n <= MAX_VECTOR_DIM:
            raise LimitError(f"ambient dimension {n} outside [0, {MAX_VECTOR_DIM}]")
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
    rref_rows = _rref(m.row_masks, m.cols)
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
    return Subspace(m.cols, tuple(_rref(gens, m.cols)))

"""Exact linear algebra over the two-element field.

Vectors are immutable bit vectors (stored as integer bitmasks, coordinate i
is bit i), matrices are tuples of row bitmasks, and subspaces are kept in
reduced row-echelon form so that structural equality coincides with equality
of subspaces.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DimensionMismatchError, LimitError

MAX_VECTOR_DIM = 32


def parity(mask: int) -> int:
    """Parity of the number of set bits."""
    return mask.bit_count() & 1


@dataclass(frozen=True)
class F2Vector:
    """A vector in F2^dim, coordinates indexed 0..dim-1 (bit i of ``bits``)."""

    dim: int
    bits: int

    def __post_init__(self):
        if not 0 <= self.dim <= MAX_VECTOR_DIM:
            raise LimitError(f"vector dimension {self.dim} outside [0, {MAX_VECTOR_DIM}]")
        if not 0 <= self.bits < (1 << self.dim):
            raise ValueError(f"bit mask {self.bits:#x} does not fit in dimension {self.dim}")

    @classmethod
    def from_coords(cls, coords: Sequence[int]) -> "F2Vector":
        bits = 0
        for i, c in enumerate(coords):
            if c not in (0, 1):
                raise ValueError(f"coordinate {i} is {c}, expected 0 or 1")
            bits |= c << i
        return cls(len(coords), bits)

    @property
    def coords(self) -> tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(self.dim))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.coords)


@dataclass(frozen=True)
class F2Matrix:
    """A rows x cols matrix over F2; row i is the bitmask ``row_masks[i]``."""

    rows: int
    cols: int
    row_masks: tuple[int, ...]

    def __post_init__(self):
        if len(self.row_masks) != self.rows:
            raise ValueError(f"expected {self.rows} rows, got {len(self.row_masks)}")
        top = 1 << self.cols
        for i, r in enumerate(self.row_masks):
            if not 0 <= r < top:
                raise ValueError(f"row {i} mask {r:#x} does not fit in {self.cols} columns")


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


@dataclass(frozen=True)
class Subspace:
    """A subspace of F2^ambient_dim, basis held in reduced row-echelon form."""

    ambient_dim: int
    basis: tuple[F2Vector, ...]

    def __post_init__(self):
        seen_pivot = -1
        pivot_bits = 0
        for v in self.basis:
            if v.dim != self.ambient_dim:
                raise DimensionMismatchError(
                    f"basis vector of dim {v.dim} in ambient dim {self.ambient_dim}"
                )
            if v.bits == 0:
                raise ValueError("zero vector in basis")
            p = (v.bits & -v.bits).bit_length() - 1
            if p <= seen_pivot:
                raise ValueError("basis not in echelon order")
            seen_pivot = p
            pivot_bits |= 1 << p
        for v in self.basis:
            p = (v.bits & -v.bits).bit_length() - 1
            if v.bits & pivot_bits & ~(1 << p):
                raise ValueError("basis not fully reduced")

    @classmethod
    def span(cls, vectors: Iterable[F2Vector], ambient_dim: int | None = None) -> "Subspace":
        vecs = list(vectors)
        if ambient_dim is None:
            if not vecs:
                raise ValueError("ambient_dim required for an empty spanning set")
            ambient_dim = vecs[0].dim
        for v in vecs:
            if v.dim != ambient_dim:
                raise DimensionMismatchError(
                    f"vector of dim {v.dim} in ambient dim {ambient_dim}"
                )
        masks = _rref((v.bits for v in vecs), ambient_dim)
        return cls(ambient_dim, tuple(F2Vector(ambient_dim, m) for m in masks))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def sort_key(self) -> tuple[int, ...]:
        return tuple(v.bits for v in self.basis)


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
        gens.append(F2Vector(m.cols, bits))
    return Subspace.span(gens, m.cols)

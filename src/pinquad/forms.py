"""Surface intersection forms and their Z/4-valued quadratic enhancements.

An enhancement q refines a symmetric mod-2 bilinear form via

    q(x + y) = q(x) + q(y) + 2*(x.y)   in Z/4,

and is determined by its values on a basis, which must match the diagonal
of the form mod 2 (set y = x in the law).  Enhancements of closed-surface
forms correspond bijectively to Pin^- structures, so this module stores a
Pin^- structure as nothing but its enhancement.
"""
from __future__ import annotations

from functools import cached_property
from operator import index
from typing import Iterator, Sequence

from .errors import (
    DegenerateFormError,
    DimensionMismatchError,
    LimitError,
    SurgeryObstructionError,
)
from .f2 import F2Matrix, F2Vector, Subspace, Value, parity, rank, solve

MAX_ENHANCEMENT_ENUMERATION_DIM = 12

# byte 0 -> "0", byte 1 -> "1"; every other byte is not a binary digit
_BIT_DIGITS = b"01" + b"x" * 254


def _json_int(x: object) -> int:
    """A JSON integer; floats, booleans and strings are refused, not coerced."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def _check_enumeration_guard(dim: int) -> None:
    if dim > MAX_ENHANCEMENT_ENUMERATION_DIM:
        raise LimitError(
            f"dim {dim} exceeds enhancement enumeration guard {MAX_ENHANCEMENT_ENUMERATION_DIM}"
        )


class BilinearForm(Value):
    """Symmetric bilinear form on F2^dim given by its Gram matrix."""

    __slots__ = ("dim", "gram", "row_masks", "__dict__")  # __dict__: the cached nondegenerate
    _fields = ("dim", "gram")

    def __init__(self, dim: int, gram: tuple[tuple[int, ...], ...]):
        if len(gram) != dim or any(len(r) != dim for r in gram):
            raise ValueError(f"Gram matrix is not {dim}x{dim}")
        try:  # whole rows at a time: int() refuses any byte that is not a bit
            masks = tuple(int(bytes(r)[::-1].translate(_BIT_DIGITS), 2) for r in gram)
            valid = tuple(zip(*gram)) == gram
        except (TypeError, ValueError):
            valid = False
        if not valid:  # find the first fault in row-major order, or accept rows of other types
            for i in range(dim):
                for j in range(dim):
                    if index(gram[i][j]) not in (0, 1):  # floats and strings raise TypeError
                        raise ValueError(f"Gram entry ({i},{j}) is {gram[i][j]}, expected a bit")
                    if gram[i][j] != gram[j][i]:
                        raise ValueError(f"Gram matrix not symmetric at ({i},{j})")
            masks = tuple(sum(int(bit) << j for j, bit in enumerate(row)) for row in gram)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "row_masks", masks)  # row i as a bitmask: bit j is gram[i][j]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "BilinearForm":
        return cls(len(rows), tuple(tuple(r) for r in rows))

    @cached_property
    def nondegenerate(self) -> bool:
        return rank(self.matrix) == self.dim

    @property
    def matrix(self) -> F2Matrix:
        return F2Matrix(self.dim, self.dim, self.row_masks)

    def functional_mask(self, x_bits: int) -> int:
        """Bitmask of the linear functional y -> x.y (the row gram.x)."""
        acc = 0
        m = x_bits
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            acc ^= self.row_masks[i]
        return acc

    def to_json(self) -> dict:
        return {"dim": self.dim, "gram": [list(row) for row in self.gram]}

    @classmethod
    def from_json(cls, data: dict) -> "BilinearForm":
        return cls(_json_int(data["dim"]), tuple(tuple(map(_json_int, row)) for row in data["gram"]))


def hyperbolic_form(genus: int) -> BilinearForm:
    """Orthogonal sum of ``genus`` hyperbolic planes [[0,1],[1,0]]."""
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    n = 2 * genus
    gram = [[0] * n for _ in range(n)]
    for g in range(genus):
        gram[2 * g][2 * g + 1] = gram[2 * g + 1][2 * g] = 1
    return BilinearForm.from_rows(gram)


def crosscap_form(crosscaps: int) -> BilinearForm:
    """Identity form of rank ``crosscaps`` (one crosscap class per generator)."""
    if crosscaps < 1:
        raise ValueError("need at least one crosscap")
    return BilinearForm.from_rows(
        [[1 if i == j else 0 for j in range(crosscaps)] for i in range(crosscaps)]
    )


class Covector(F2Vector):
    """A linear functional on F2^dim; <y, x> is the parity of y.bits & x.bits."""

    __slots__ = ()


class Enhancement(Value):
    """A quadratic enhancement, stored by its Z/4 values on the basis."""

    __slots__ = _fields = ("form", "values")

    def __init__(self, form: BilinearForm, values: tuple[int, ...]):
        if len(values) != form.dim:
            raise DimensionMismatchError(f"form has dim {form.dim}, got {len(values)} basis values")
        for i, v in enumerate(values):
            if not 0 <= v <= 3:
                raise ValueError(f"basis value {v} at index {i} is not in Z/4")
            if (v & 1) != form.gram[i][i]:
                raise ValueError(
                    f"parity constraint violated at index {i}: "
                    f"q(e{i}) = {v} but e{i}.e{i} = {form.gram[i][i]}"
                )
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.form.dim

    def to_json(self) -> dict:
        return {"form": self.form.to_json(), "values": list(self.values)}

    @classmethod
    def from_json(cls, data: dict) -> "Enhancement":
        return cls(
            BilinearForm.from_json(data["form"]), tuple(_json_int(v) % 4 for v in data["values"])
        )


def eval_q(q: Enhancement, x: F2Vector) -> int:
    """Value of the enhancement on a class, by the closed formula.

    For x with support S this is sum(values[i], i in S) plus twice the number
    of Gram pairs i < j in S, reduced mod 4; it is the unique extension of the
    basis values satisfying the enhancement law.
    """
    if x.dim != q.form.dim:
        raise DimensionMismatchError(f"enhancement dim {q.form.dim}, class dim {x.dim}")
    return _eval_bits(q, x.bits)


def _eval_bits(q: Enhancement, bits: int) -> int:
    total = 0
    pairs = 0
    rows = q.form.row_masks
    m = bits
    while m:
        i = (m & -m).bit_length() - 1
        m &= m - 1
        total += q.values[i]
        pairs += (rows[i] & m).bit_count()  # partners j > i within the support
    return (total + 2 * pairs) & 3


def value_table(q: Enhancement) -> list[int]:
    """All 2^dim values of the enhancement, indexed by class bitmask.

    Built by doubling: adding basis vector i to every class x supported on
    earlier indices changes q by values[i] + 2*(x.e_i).
    """
    rows = q.form.row_masks
    table = [0]
    for i in range(q.form.dim):
        vi = q.values[i]
        mask = rows[i] & ((1 << i) - 1)
        table += [(t + vi + 2 * ((x & mask).bit_count() & 1)) & 3 for x, t in enumerate(table)]
    return table


def enumerate_enhancements(form: BilinearForm) -> Iterator[Enhancement]:
    """All 2^dim enhancements of the form, in binary-counter order.

    Choice bit i toggles values[i] between gram[i][i] and gram[i][i] + 2.
    """
    _check_enumeration_guard(form.dim)
    diag = tuple(form.gram[i][i] for i in range(form.dim))
    for choice in range(1 << form.dim):
        values = tuple((diag[i] + 2 * ((choice >> i) & 1)) % 4 for i in range(form.dim))
        yield Enhancement(form, values)


def torsor_act(q: Enhancement, y: Covector) -> Enhancement:
    """Act on the enhancement by a cohomology class: q'(x) = q(x) + 2*<y, x>."""
    if y.dim != q.form.dim:
        raise DimensionMismatchError(f"enhancement dim {q.form.dim}, covector dim {y.dim}")
    values = tuple((v + 2 * ((y.bits >> i) & 1)) % 4 for i, v in enumerate(q.values))
    return Enhancement(q.form, values)


def poincare_dual(form: BilinearForm, y: Covector) -> F2Vector:
    """The unique class y_hat with <y, x> = y_hat.x for all x."""
    if y.dim != form.dim:
        raise DimensionMismatchError(f"form dim {form.dim}, covector dim {y.dim}")
    if not form.nondegenerate:
        raise DegenerateFormError("Poincare dual undefined: degenerate form")
    sol = solve(form.matrix, y)
    assert sol is not None  # nondegenerate Gram matrix is invertible
    return sol


def restrict(q: Enhancement, s: Subspace) -> Enhancement:
    """The enhancement induced on a subspace, in terms of its echelon basis.

    The restricted Gram matrix records pairwise intersections of the basis
    vectors and may be degenerate.
    """
    if s.ambient_dim != q.form.dim:
        raise DimensionMismatchError(
            f"enhancement dim {q.form.dim}, subspace ambient dim {s.ambient_dim}"
        )
    basis = s.row_masks
    funcs = [q.form.functional_mask(b) for b in basis]
    gram = tuple(tuple((f & b).bit_count() & 1 for b in basis) for f in funcs)
    values = tuple(_eval_bits(q, b) for b in basis)
    return Enhancement(BilinearForm(len(basis), gram), values)


def direct_sum(q1: Enhancement, q2: Enhancement) -> Enhancement:
    """Orthogonal sum: block-diagonal form, concatenated basis values."""
    n1, n2 = q1.form.dim, q2.form.dim
    gram = tuple(
        tuple(q1.form.gram[i][j] if j < n1 else 0 for j in range(n1 + n2)) for i in range(n1)
    ) + tuple(
        tuple(0 if j < n1 else q2.form.gram[i][j - n1] for j in range(n1 + n2))
        for i in range(n2)
    )
    return Enhancement(BilinearForm(n1 + n2, gram), q1.values + q2.values)


def isotropic_reduction(q: Enhancement, c: F2Vector) -> Enhancement:
    """Algebraic surgery on a class with q(c) = 0: the enhancement on c-perp/c.

    Preconditions, checked in order: c nonzero, c.c = 0, q(c) = 0.  Each
    failure raises SurgeryObstructionError naming the obstruction.  Because
    q(x + c) = q(x) for x in c-perp, the enhancement descends to cosets; the
    coset representatives are fixed by zeroing the pivot coordinate p of c.
    """
    if c.dim != q.form.dim:
        raise DimensionMismatchError(f"enhancement dim {q.form.dim}, class dim {c.dim}")
    if not q.form.nondegenerate:
        raise DegenerateFormError("surgery reduction needs a nondegenerate form")
    perp = q.form.functional_mask(c.bits)  # c-perp is the kernel of this functional
    if c.bits == 0:
        raise SurgeryObstructionError("zero class")
    if parity(perp & c.bits):
        raise SurgeryObstructionError("c.c != 0")
    if _eval_bits(q, c.bits):
        raise SurgeryObstructionError("q(c) != 0")
    n, p = q.form.dim, (c.bits & -c.bits).bit_length() - 1
    # On the representatives x_p = 0, and x.c = 0 fixes x_h, h the top bit of perp: perp is
    # nonzero (nondegenerate form), and h > p if perp has bit p (c.c = 0 needs a second bit).
    h = perp.bit_length() - 1
    rows = (1 << j | (perp >> j & 1) << h for j in range(n) if j not in (p, h))
    return restrict(q, Subspace(n, tuple(rows)))

"""Unimodular intersection forms of closed oriented 4-manifolds.

A 4-manifold enters only through its integer intersection form and a
characteristic vector (the class dual to w2).  Building a ``UnimodularForm``
runs one symmetric elimination of its Gram matrix in integers, with exact
divisions (Bareiss 1968).  Its leading minors give the determinant (the last
one, which must be +-1) and the signature (Jacobi's rule on their signs), and
the form keeps that signature.  So ``signature`` and the Guillou-Marin
congruence 2*beta = F.F - sign (mod 16), which pins the Brown invariant any
characteristic surface must carry, run no elimination at all.
"""
from __future__ import annotations

from operator import index
from typing import Sequence

from .brown import brown_invariant
from .errors import DimensionMismatchError, InternalError, LimitError, NotCharacteristicError
from .f2 import Value
from .forms import BilinearForm, Enhancement, _json_int

MAX_FORM_DIM = 12


def _check_form_cap(dim: int) -> None:
    if dim > MAX_FORM_DIM:
        raise LimitError(f"form dimension {dim} exceeds cap {MAX_FORM_DIM}")


def _leading_minors(gram: Sequence[Sequence[int]]) -> list[int]:
    """Leading principal minors D_1..D_n of a symmetric integer matrix, up to congruence.

    Symmetric elimination in integers (Bareiss 1968): each step picks a
    nonzero diagonal pivot d, swapping it into place by a symmetric
    permutation, and updates the trailing block by
    a[r][t] = (d * a[r][t] - a[r][k] * a[k][t]) // prev, with prev the previous
    pivot (1 at the start).  The division is exact because every active entry
    is a bordered minor: the determinant of the leading block bordered by one
    more row and column.  When the active block has an all-zero diagonal, a
    hyperbolic off-diagonal entry is folded onto the diagonal by adding row and
    column j to row and column i; a bordered minor is linear in its border row
    and column, so the active entries stay bordered minors of the folded basis.
    An all-zero active block contributes zeros.  Every basis change has
    determinant +-1, so D_n is the determinant of ``gram``.
    """
    n = len(gram)
    a = [list(row) for row in gram]
    minors: list[int] = []
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][i] != 0), None)
        if piv is None:
            pair = next(
                ((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j] != 0), None
            )
            if pair is None:
                return minors + [0] * (n - k)
            i, j = pair
            # e_i <- e_i + e_j puts 2*a[i][j] on the diagonal
            for t in range(k, n):
                a[i][t] += a[j][t]
            for t in range(k, n):
                a[t][i] += a[t][j]
            piv = i
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            for row in a[k:]:
                row[k], row[piv] = row[piv], row[k]
        d = a[k][k]
        minors.append(d)
        pivot_row = a[k]
        for r in range(k + 1, n):
            f, target = a[r][k], a[r]
            for t in range(k + 1, n):
                target[t] = (d * target[t] - f * pivot_row[t]) // prev
        prev = d
    return minors


class UnimodularForm(Value):
    """Symmetric integer Gram matrix with determinant +-1."""

    __slots__ = ("dim", "gram", "_signature")
    _fields = ("dim", "gram")

    def __init__(self, dim: int, gram: tuple[tuple[int, ...], ...]):
        _check_form_cap(dim)
        if len(gram) != dim or any(len(r) != dim for r in gram):
            raise ValueError(f"Gram matrix is not {dim}x{dim}")
        # floats and strings are refused, not truncated; numpy ints and bools become ints
        gram = tuple(tuple(map(index, r)) for r in gram)
        for i in range(dim):
            for j in range(i, dim):
                if gram[i][j] != gram[j][i]:
                    raise ValueError(f"Gram matrix not symmetric at ({i},{j})")
        minors = _leading_minors(gram)
        d = minors[-1] if minors else 1
        if d not in (1, -1):
            raise ValueError(f"form is not unimodular: det = {d}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "gram", gram)
        # Jacobi: with D_0 = 1 and every D_k nonzero, the signature counts the
        # sign agreements minus the sign changes of consecutive minors.
        object.__setattr__(
            self, "_signature", sum(1 if p * m > 0 else -1 for p, m in zip([1] + minors, minors))
        )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "UnimodularForm":
        return cls(len(rows), tuple(tuple(r) for r in rows))

    def pair(self, u: Sequence[int], v: Sequence[int]) -> int:
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatchError(
                f"form has dim {self.dim}, vectors have lengths {len(u)}, {len(v)}"
            )
        return sum(u[i] * self.gram[i][j] * v[j] for i in range(self.dim) for j in range(self.dim))

    def mod2(self) -> BilinearForm:
        """Reduction mod 2; nondegenerate because the form is unimodular."""
        return BilinearForm.from_rows([[x & 1 for x in row] for row in self.gram])

    def to_json(self) -> dict:
        return {"dim": self.dim, "gram": [list(row) for row in self.gram]}

    @classmethod
    def from_json(cls, data: dict) -> "UnimodularForm":
        return cls(_json_int(data["dim"]), tuple(tuple(map(_json_int, row)) for row in data["gram"]))


def _characteristic_coords(m: UnimodularForm, c: Sequence[int]) -> tuple[int, ...]:
    """c as integers, checked against c.e_i = e_i.e_i (mod 2) for every basis vector."""
    coords = tuple(map(index, c))  # floats and strings are refused, not truncated
    if len(coords) != m.dim:
        raise DimensionMismatchError(f"form has dim {m.dim}, vector has length {len(coords)}")
    for i in range(m.dim):
        pairing = sum(coords[j] * m.gram[j][i] for j in range(m.dim))
        if (pairing - m.gram[i][i]) % 2:
            raise NotCharacteristicError(i, pairing % 2, m.gram[i][i] % 2)
    return coords


def is_characteristic(m: UnimodularForm, c: Sequence[int]) -> bool:
    """Whether c.e_i = e_i.e_i (mod 2) for every basis vector."""
    try:
        _characteristic_coords(m, c)
    except NotCharacteristicError:
        return False
    return True


def signature(m: UnimodularForm) -> int:
    """Positive minus negative eigenvalue count, computed once when the form was built."""
    return m._signature


def gm_required_beta(m: UnimodularForm, c: Sequence[int]) -> int:
    """The Brown invariant forced on a characteristic surface: (c.c - sign)/2 mod 8.

    The difference c.c - sign(m) is a multiple of 8 for characteristic c
    (van der Blij), so in particular it is even; an odd difference signals a
    bug, not bad input.
    """
    coords = _characteristic_coords(m, c)
    cc = m.pair(coords, coords)
    sig = signature(m)
    if (cc - sig) % 2:
        raise InternalError(
            f"van der Blij violated: c.c = {cc}, sign = {sig}; difference is odd"
        )
    return ((cc - sig) // 2) % 8


def gm_check(m: UnimodularForm, c: Sequence[int], q: Enhancement) -> bool:
    """Whether the enhancement's Brown invariant matches the required value."""
    return brown_invariant(q) == gm_required_beta(m, c)


def _e8_gram() -> tuple[tuple[int, ...], ...]:
    # Cartan matrix of the E8 root system: 2s on the diagonal, -1 per edge
    # of the chain 0-1-2-3-4-5-6 with node 7 hanging off node 4.
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)]
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = 2
    for i, j in edges:
        g[i][j] = g[j][i] = -1
    return tuple(tuple(row) for row in g)


FORM_LIBRARY: dict[str, UnimodularForm] = {
    "1": UnimodularForm.from_rows([[1]]),
    "-1": UnimodularForm.from_rows([[-1]]),
    "H": UnimodularForm.from_rows([[0, 1], [1, 0]]),
    "E8": UnimodularForm(8, _e8_gram()),
}


def unimodular_direct_sum(*forms: UnimodularForm) -> UnimodularForm:
    """Block-diagonal sum of unimodular forms."""
    n = sum(f.dim for f in forms)
    _check_form_cap(n)  # before the n x n Gram matrix is built
    gram = [[0] * n for _ in range(n)]
    off = 0
    for f in forms:
        for i in range(f.dim):
            for j in range(f.dim):
                gram[off + i][off + j] = f.gram[i][j]
        off += f.dim
    return UnimodularForm.from_rows(gram)


def parse_form_name(expr: str) -> UnimodularForm:
    """Resolve a library form expression such as "1", "E8", or "1+1+-1"."""
    parts = expr.split("+")
    try:
        summands = [FORM_LIBRARY[p] for p in parts]
    except KeyError as e:
        raise ValueError(
            f"unknown form name {e.args[0]!r}; known names: {', '.join(FORM_LIBRARY)}"
        ) from None
    return unimodular_direct_sum(*summands)

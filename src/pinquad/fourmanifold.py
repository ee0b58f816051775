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

from operator import index, mul
from typing import Sequence

from .brown import brown_invariant
from .errors import DimensionMismatchError, InternalError, LimitError, NotCharacteristicError
from .forms import BilinearForm, Enhancement, _Gram, _block_diagonal

MAX_FORM_DIM = 12


def _check_form_cap(dim: int) -> None:
    if dim > MAX_FORM_DIM:
        raise LimitError(f"form dimension {dim} exceeds cap {MAX_FORM_DIM}")


def _leading_minors(gram: Sequence[Sequence[int]]) -> list[int]:
    """Leading principal minors D_1..D_n of a symmetric integer matrix, up to congruence.

    Symmetric elimination in integers (Bareiss 1968): step k takes the
    diagonal entry d = a[k][k] as its pivot and updates the trailing block by
    a[r][t] = (d * a[r][t] - a[r][k] * a[k][t]) // prev, with prev the previous
    pivot (1 at the start).  The division is exact because every active entry
    is a bordered minor: the determinant of the leading block bordered by one
    more row and column.  When a[k][k] = 0, the first partner j > k with
    a[k][j] != 0 is folded in, e_k <- e_k + s*e_j, by adding s times row and
    column j to row and column k.  A bordered minor is linear in its border
    row and column, so the active entries stay bordered minors of the folded
    basis, and the new pivot is 2*s*a[k][j] + a[j][j].  The two signs of s give
    pivots that differ by 4*a[k][j] != 0, so at least one is nonzero.  With no
    partner, row k of the active block is zero; the form is singular and the
    remaining minors are 0.  Every basis change has determinant 1, so D_n is
    the determinant of ``gram``.
    """
    n = len(gram)
    a = [list(row) for row in gram]
    minors: list[int] = []
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
            if j is None:
                return minors + [0] * (n - k)
            s = 1 if 2 * a[k][j] + a[j][j] else -1
            for t in range(k, n):
                a[k][t] += s * a[j][t]
            for t in range(k, n):
                a[t][k] += s * a[t][j]
        d = a[k][k]
        minors.append(d)
        pivot_row = a[k]
        for r in range(k + 1, n):
            f, target = a[r][k], a[r]
            for t in range(k + 1, n):
                target[t] = (d * target[t] - f * pivot_row[t]) // prev
        prev = d
    return minors


class UnimodularForm(_Gram):
    """Symmetric integer Gram matrix with determinant +-1."""

    __slots__ = ("dim", "gram", "_signature")

    def __init__(self, dim: int, gram: Sequence[Sequence[int]]):
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

    def pair(self, u: Sequence[int], v: Sequence[int]) -> int:
        """u.v over the integers; the Guillou-Marin check reads c.c off its Wu pass instead."""
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatchError(
                f"form has dim {self.dim}, vectors have lengths {len(u)}, {len(v)}"
            )
        return sum(u[i] * self.gram[i][j] * v[j] for i in range(self.dim) for j in range(self.dim))

    def mod2(self) -> BilinearForm:
        """Reduction mod 2; nondegenerate because the form is unimodular."""
        return BilinearForm.from_rows([[x & 1 for x in row] for row in self.gram])


def _characteristic_square(m: UnimodularForm, c: Sequence[int]) -> int:
    """c.c = sum of c_i * c.e_i, from the c.e_i that check c.e_i = e_i.e_i (mod 2) for each i."""
    coords = tuple(map(index, c))  # floats and strings are refused, not truncated
    if len(coords) != m.dim:
        raise DimensionMismatchError(f"form has dim {m.dim}, vector has length {len(coords)}")
    square = 0
    for i, (row, ci) in enumerate(zip(m.gram, coords)):
        pairing = sum(map(mul, row, coords))  # c.e_i: the form is symmetric
        if (pairing - row[i]) % 2:
            raise NotCharacteristicError(i, pairing % 2, row[i] % 2)
        square += ci * pairing
    return square


def is_characteristic(m: UnimodularForm, c: Sequence[int]) -> bool:
    """Whether c.e_i = e_i.e_i (mod 2) for every basis vector."""
    try:
        _characteristic_square(m, c)
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
    cc = _characteristic_square(m, c)
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
    return UnimodularForm(n, _block_diagonal([f.gram for f in forms]))


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

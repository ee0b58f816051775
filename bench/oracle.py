"""Reference arithmetic for the benchmark, sharing no code with pinquad.

A symmetric form over F2 is a list of row bitmasks (bit j of row i is the
entry (i, j)); an enhancement adds a list of Z/4 basis values.  Everything
here is plain loops over bitmasks, used to build inputs, derive expected
answers and check the package's outputs.
"""
from __future__ import annotations

# d(beta): rank of the anisotropic part of a nondegenerate enhancement, so
# that its largest q-null subspace has dimension (n - d(beta)) / 2.
ANISOTROPIC_RANK = (0, 1, 2, 3, 2, 3, 2, 1)


def dot(rows: list[int], x: int, y: int) -> int:
    """x.y under the form with the given row bitmasks."""
    acc = 0
    i = 0
    while x:
        if x & 1:
            acc ^= rows[i] & y
        x >>= 1
        i += 1
    return acc.bit_count() & 1


def q_value(rows: list[int], values: list[int], x: int) -> int:
    """q(x) = sum of basis values over the support + 2 * (pairs i < j with i.j = 1)."""
    total = 0
    i = 0
    m = x
    while m:
        if m & 1:
            total += values[i] + 2 * (rows[i] & (x >> (i + 1) << (i + 1))).bit_count()
        m >>= 1
        i += 1
    return total & 3


def f2_rank(masks: list[int]) -> int:
    """Rank of a list of row bitmasks over F2."""
    basis: list[int] = []  # distinct leading bits, in decreasing order
    for m in masks:
        for b in basis:
            m = min(m, m ^ b)
        if m:
            basis.append(m)
            basis.sort(reverse=True)
    return len(basis)


def mat_vec(rows: list[int], x: int) -> int:
    """M.x over F2 as a bitmask (bit i is row i dotted with x)."""
    out = 0
    for i, r in enumerate(rows):
        out |= ((r & x).bit_count() & 1) << i
    return out


def rebase(rows: list[int], values: list[int], basis: list[int]) -> tuple[list[int], list[int]]:
    """The form and enhancement in a new basis; ``basis[k]`` is f_k in old coordinates."""
    n = len(basis)
    new_rows = []
    for a in range(n):
        r = 0
        for b in range(n):
            r |= dot(rows, basis[a], basis[b]) << b
        new_rows.append(r)
    return new_rows, [q_value(rows, values, f) for f in basis]


def gauss_pair(n: int, beta: int) -> tuple[int, int]:
    """(A, B) = 2^(n/2) * (cos, sin)(pi * beta / 4) as exact integers."""
    if n % 2 == 0:
        m = 1 << (n // 2)
        return {0: (m, 0), 2: (0, m), 4: (-m, 0), 6: (0, -m)}[beta]
    s = 1 << (n // 2)
    return {1: (s, s), 3: (-s, s), 5: (-s, -s), 7: (s, -s)}[beta]


def beta_by_splitting(rows: list[int], values: list[int]) -> int:
    """Brown invariant of a nondegenerate enhancement by orthogonal splitting.

    An odd class u (u.u = 1) splits off <q(u)>, worth +1 for q(u) = 1 and -1
    for q(u) = 3; on an alternating remainder a pair u, w with u.w = 1 splits
    off a hyperbolic plane, worth 4 when q(u) = q(w) = 2 and 0 otherwise
    (Kirby-Taylor's classification of enhancements).
    """
    vecs = [1 << i for i in range(len(values))]
    beta = 0
    while vecs:
        u = next((v for v in vecs if dot(rows, v, v)), None)
        if u is not None:
            vecs.remove(u)
            beta += 1 if q_value(rows, values, u) == 1 else -1
            vecs = [v ^ u if dot(rows, v, u) else v for v in vecs]
            continue
        u = vecs.pop()
        w = next((v for v in vecs if dot(rows, u, v)), None)
        if w is None:
            raise ValueError("degenerate form has no Brown invariant")
        vecs.remove(w)
        if q_value(rows, values, u) == 2 and q_value(rows, values, w) == 2:
            beta += 4
        vecs = [
            v ^ (u if dot(rows, v, w) else 0) ^ (w if dot(rows, v, u) else 0) for v in vecs
        ]
    return beta % 8


def max_null_dim_exhaustive(rows: list[int], values: list[int]) -> int:
    """Largest dimension of a q-null subspace, by growing every q-null subspace.

    Level k holds all k-dimensional q-null subspaces; a subspace extends by
    a q-zero class orthogonal to it (then q vanishes on the new span, since
    q(s + x) = q(s) + q(x) + 2 s.x).  Sets of classes are bitsets (bit x
    stands for class x), and each subspace keeps the set of q-zero classes
    that could extend it.  Exponential in the rank: meant for ranks up to 8.
    """
    n = len(values)
    classes = range(1 << n)
    zero = [x for x in classes if x and q_value(rows, values, x) == 0]
    perp = {x: sum(1 << y for y in classes if not dot(rows, x, y)) for x in zero}
    level = {1: sum(1 << x for x in zero)}  # {span: candidates}, starting from {0}
    dim = 0
    while True:
        nxt: dict[int, int] = {}
        for span, cands in level.items():
            members = _members(span)
            for x in _members(cands):
                grown = span | sum(1 << (s ^ x) for s in members)
                if grown not in nxt:
                    nxt[grown] = cands & perp[x] & ~grown
        if not nxt:
            return dim
        level = nxt
        dim += 1


def _members(bitset: int) -> list[int]:
    out = []
    while bitset:
        out.append((bitset & -bitset).bit_length() - 1)
        bitset &= bitset - 1
    return out


def is_null_subspace(rows: list[int], values: list[int], basis: list[int]) -> bool:
    """Whether the vectors are independent, pairwise orthogonal and q-zero."""
    if f2_rank(basis) != len(basis):
        return False
    for i, u in enumerate(basis):
        if q_value(rows, values, u):
            return False
        if any(dot(rows, u, v) for v in basis[i + 1 :]):
            return False
    return True

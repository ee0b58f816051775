"""Seeded inputs with expected answers, built from pieces of known invariant.

Every nondegenerate enhancement is an orthogonal sum of pieces whose Brown
invariants are known (<+1> gives 1, <-1> gives 7, the hyperbolic plane with
values (2, 2) gives 4 and the other hyperbolic planes give 0), moved by a
uniformly random change of basis in GL_n(F2).  The expected answers then
follow from the classification: beta is the sum of the pieces, the Gauss sum
is 2^(n/2) e^(i pi beta/4), the largest q-null subspace has dimension
(n - d(beta))/2, and a q-null Lagrangian exists iff n is even and beta = 0.
Degenerate forms have no such formula (a radical class with q = 2 breaks
it), so their answers come from the exhaustive search in ``oracle``.

Unimodular forms are integer congruences P^T G P of library sums, which keep
the signature and carry a characteristic vector along as P^-1 c.

Everything returned is plain JSON data, so the package sees only inputs.
"""
from __future__ import annotations

import random

import oracle

PLANE_VALUES = ((0, 0), (0, 2), (2, 0))  # the hyperbolic planes with beta 0


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"pinquad-bench:{workload}:{seed}")


def random_gl(rng: random.Random, n: int) -> list[int]:
    """A uniformly random invertible n x n matrix over F2, as row bitmasks."""
    while True:
        rows = [rng.getrandbits(n) for _ in range(n)]
        if oracle.f2_rank(rows) == n:
            return rows


def _block_sum(pieces: list[tuple[int, ...]]) -> tuple[list[int], list[int]]:
    """Row bitmasks and values of the orthogonal sum of pieces.

    A piece is (v,) for the rank-1 form <1> with q = v, or (a, b) for the
    hyperbolic plane with q = a, b on its basis.
    """
    rows: list[int] = []
    values: list[int] = []
    for p in pieces:
        i = len(rows)
        if len(p) == 1:
            rows.append(1 << i)
        else:
            rows += [1 << (i + 1), 1 << i]
        values += p
    return rows, values


def _pieces_beta(pieces: list[tuple[int, ...]]) -> int:
    beta = 0
    for p in pieces:
        if len(p) == 1:
            beta += 1 if p[0] == 1 else -1
        elif p == (2, 2):
            beta += 4
    return beta % 8


def feasible_betas(n: int, odd: bool) -> list[int]:
    """The Brown invariants that enhancements of rank n and the given type take.

    Odd forms of rank 1 and 2 are <1> and <1>+<1>; even forms are sums of
    hyperbolic planes.
    """
    if not odd:
        return [0, 4] if n % 2 == 0 and n > 0 else [0] if n == 0 else []
    return {1: [1, 7], 2: [0, 2, 6]}.get(n, [b for b in range(8) if b % 2 == n % 2])


def _pieces(rng: random.Random, n: int, beta: int, odd: bool) -> list[tuple[int, ...]]:
    """Pieces of total rank n and Brown invariant beta.

    ``odd`` asks for at least one rank-1 piece (an odd form); otherwise all
    pieces are planes (an even form, so n is even and beta is 0 or 4).
    """
    if beta not in feasible_betas(n, odd):
        raise ValueError(f"no {'odd' if odd else 'even'} enhancement of rank {n} has beta {beta}")
    while True:
        ones = rng.randrange(1, n + 1) if odd else 0
        if ones % 2 != n % 2:
            continue
        pieces = [(rng.choice((1, 3)),) for _ in range(ones)]
        pieces += [rng.choice(PLANE_VALUES + ((2, 2),)) for _ in range((n - ones) // 2)]
        if _pieces_beta(pieces) == beta:
            rng.shuffle(pieces)
            return pieces


def gram_lists(rows: list[int]) -> list[list[int]]:
    n = len(rows)
    return [[(r >> j) & 1 for j in range(n)] for r in rows]


def enhancement(rows: list[int], values: list[int], **expect) -> dict:
    """An input record: the form as a Gram matrix, the values, and what to expect."""
    return {"gram": gram_lists(rows), "values": list(values), **expect}


def _nondegenerate_expect(n: int, beta: int) -> dict:
    a, b = oracle.gauss_pair(n, beta)
    return {
        "beta": beta,
        "gauss": [a, b],
        "max_null": (n - oracle.ANISOTROPIC_RANK[beta]) // 2,
        "lagrangian": n % 2 == 0 and beta == 0,
    }


def rebased(rng: random.Random, n: int, beta: int, odd: bool) -> dict:
    """A nondegenerate enhancement of rank n with invariant beta, in a random basis."""
    rows, values = _block_sum(_pieces(rng, n, beta, odd))
    rows, values = oracle.rebase(rows, values, random_gl(rng, n))
    return enhancement(rows, values, even=not odd, **_nondegenerate_expect(n, beta))


def hyperbolic(rng: random.Random, genus: int, beta: int) -> dict:
    """An enhancement of the standard H^genus with invariant beta (0 or 4)."""
    if beta not in feasible_betas(2 * genus, False):
        raise ValueError(f"no enhancement of H^{genus} has beta {beta}")
    while True:
        pieces = [rng.choice(PLANE_VALUES + ((2, 2),)) for _ in range(genus)]
        if _pieces_beta(pieces) == beta:
            rows, values = _block_sum(pieces)
            return enhancement(rows, values, even=True, **_nondegenerate_expect(2 * genus, beta))


def crosscaps(rng: random.Random, k: int, beta: int) -> dict:
    """An enhancement of the standard identity form of rank k with invariant beta."""
    if beta not in feasible_betas(k, True):
        raise ValueError(f"no enhancement of the rank-{k} identity form has beta {beta}")
    while True:
        pieces = [(rng.choice((1, 3)),) for _ in range(k)]
        if _pieces_beta(pieces) == beta:
            rows, values = _block_sum(pieces)
            return enhancement(rows, values, even=False, **_nondegenerate_expect(k, beta))


def degenerate(rng: random.Random, n: int, radical: int) -> dict:
    """A nondegenerate part of rank n - radical plus a radical, in a random basis.

    Radical classes carry q = 0 or 2 at random.  The largest q-null dimension
    is found by exhaustive search.
    """
    m = n - radical
    odd = m % 2 == 1 or rng.random() < 0.5
    rows, values = _block_sum(_pieces(rng, m, rng.choice(feasible_betas(m, odd)), odd) if m else [])
    rows += [0] * radical
    values += [rng.choice((0, 2)) for _ in range(radical)]
    rows, values = oracle.rebase(rows, values, random_gl(rng, n))
    return enhancement(
        rows, values, even=False, degenerate=True,
        max_null=oracle.max_null_dim_exhaustive(rows, values),
    )


def null_class(rng: random.Random, rows: list[int], values: list[int]) -> int:
    """A random nonzero class with q = 0 (hence c.c = 0).

    Every nondegenerate enhancement of rank 4 or more has one, since its
    largest q-null subspace has dimension (n - d(beta))/2 >= 1; at the ranks
    used here about a quarter of all classes are q-zero.
    """
    n = len(values)
    for _ in range(1000):
        c = rng.getrandbits(n)
        if c and oracle.q_value(rows, values, c) == 0:
            return c
    raise ValueError("no q-zero class found")


# --- unimodular integer forms -------------------------------------------------

LIBRARY_SIGNATURE = {"1": 1, "-1": -1, "H": 0, "E8": 8}
LIBRARY_DIM = {"1": 1, "-1": 1, "H": 2, "E8": 8}
E8_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7))


def library_gram(expr: str) -> list[list[int]]:
    """Block-diagonal Gram matrix of a '+'-separated library sum."""
    blocks = []
    for name in expr.split("+"):
        if name in ("1", "-1"):
            blocks.append([[int(name)]])
        elif name == "H":
            blocks.append([[0, 1], [1, 0]])
        else:
            g = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
            for i, j in E8_EDGES:
                g[i][j] = g[j][i] = -1
            blocks.append(g)
    n = sum(len(b) for b in blocks)
    gram = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            gram[off + i][off : off + len(b)] = row
        off += len(b)
    return gram


def congruent_form(rng: random.Random, expr: str, moves: int) -> dict:
    """A random integer congruence of a library sum, with a characteristic vector.

    Odd blocks (<1>, <-1>) need odd coordinates in a characteristic vector and
    even blocks (H, E8) need even ones; c = w + 2v for a random small v.  Each
    move adds +-1 times one basis vector to another (or swaps two), applied to
    the Gram matrix as a congruence and to c as the inverse coordinate change.
    """
    gram = library_gram(expr)
    n = len(gram)
    names = expr.split("+")
    c = []
    for name in names:
        c += [1 if name in ("1", "-1") else 0] * LIBRARY_DIM[name]
    c = [x + 2 * rng.choice((-1, 0, 1)) for x in c]
    cc = sum(c[i] * gram[i][j] * c[j] for i in range(n) for j in range(n))
    sig = sum(LIBRARY_SIGNATURE[name] for name in names)
    for _ in range(moves):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.2:
            gram[i], gram[j] = gram[j], gram[i]
            for row in gram:
                row[i], row[j] = row[j], row[i]
            c[i], c[j] = c[j], c[i]
            continue
        s = rng.choice((-1, 1))
        # f_j <- f_j + s f_i: row and column j gain s times row and column i
        gram[j] = [a + s * b for a, b in zip(gram[j], gram[i])]
        for row in gram:
            row[j] += s * row[i]
        c[i] -= s * c[j]
    bad_at = rng.randrange(n)  # c + e_bad_at fails the Wu condition at the first odd entry
    return {
        "expr": expr,
        "gram": gram,
        "char": c,
        "cc": cc,
        "signature": sig,
        "required_beta": ((cc - sig) // 2) % 8,
        "bad_char": [x + (k == bad_at) for k, x in enumerate(c)],
        "bad_index": next(k for k in range(n) if gram[bad_at][k] % 2),
    }


# --- F2 matrices ----------------------------------------------------------------


def f2_system(rng: random.Random, n: int) -> dict:
    """An n x n matrix M = U diag(I_r, 0) V of known rank r, with right-hand sides.

    ``b_in`` = M x0 is consistent; ``b_out`` is column r of U, which lies
    outside the column space (spanned by the first r columns of U).
    """
    r = rng.randrange(n // 2, n + 1)
    u, v = random_gl(rng, n), random_gl(rng, n)
    low = (1 << r) - 1
    # (U D V)[i] = sum over k < r of U[i][k] V[k]
    rows = []
    for ui in u:
        acc = 0
        sel = ui & low
        k = 0
        while sel:
            if sel & 1:
                acc ^= v[k]
            sel >>= 1
            k += 1
        rows.append(acc)
    x0 = rng.getrandbits(n)
    b_out = None if r == n else sum(((ui >> r) & 1) << i for i, ui in enumerate(u))
    return {"n": n, "rows": rows, "rank": r, "b_in": oracle.mat_vec(rows, x0), "b_out": b_out}

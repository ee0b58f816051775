"""Independent reference implementations used to check the library, most of them brute force.

Everything here works on plain lists and dicts with naive loops and calls
no package function; it borrows only the package's error class for a
dimension mismatch and builds its subspace type for results.  Values are
built from the enhancement law one basis vector at a time, subspaces are
enumerated as raw span sets or as every reduced-echelon basis, and Gauss
sums are counted per class.  The surgery reference finds the coset
representatives by its own elimination, where the package writes them down
by formula, and writes q on them with ``rebase``, as on any list of classes.
Every random enhancement in the tests comes from ``random_enhancement``, seeded
by the caller's ``Random``: an orthogonal sum of the pieces in ``PIECES``, each
with its Brown invariant, and radical classes, written in a basis drawn by
``random_gl`` as a product P L U, or a random symmetric Gram matrix.  One oracle
is not exhaustive: the Gauss sum at the end is summed one variable at a time, in
polynomial time, so it checks the orthogonal split at every rank the tests reach
without splitting the form.
"""
from itertools import combinations

from pinquad.errors import DimensionMismatchError
from pinquad.f2 import Subspace


def bitmask(coords):
    """The bitmask of 0/1 coordinates, coordinate 0 at bit 0."""
    return sum(bit << j for j, bit in enumerate(coords))


def naive_dot(gram, x_bits, y_bits):
    n = len(gram)
    total = 0
    for i in range(n):
        if (x_bits >> i) & 1:
            for j in range(n):
                if (y_bits >> j) & 1:
                    total += gram[i][j]
    return total % 2


def naive_pair(gram, u, v):
    """u.v over the integers, by the double sum of u_i * gram[i][j] * v_j."""
    n = len(gram)
    assert len(u) == len(v) == n
    return sum(u[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))


def naive_mat_vec(rows, x_bits):
    """The product m.x as a bitmask, for m given by its row bitmasks: bit i is the parity of
    the coordinates row i shares with x, one row at a time."""
    out = 0
    for i, row in enumerate(rows):
        out |= ((row & x_bits).bit_count() & 1) << i
    return out


def law_table(gram, values):
    """All 2^n enhancement values, grown from the law q(x + e_i) = q(x) + v_i + 2*(x.e_i)."""
    n = len(values)
    table = {0: 0}
    for i in range(n):
        for x in list(table):
            table[x | (1 << i)] = (table[x] + values[i] + 2 * naive_dot(gram, x, 1 << i)) % 4
    return [table[x] for x in range(1 << n)]


def naive_q(gram, values, x_bits):
    """q(x) by definition: basis values over the support plus twice the Gram pairs inside it."""
    support = [i for i in range(len(values)) if (x_bits >> i) & 1]
    pairs = sum(gram[i][j] for a, i in enumerate(support) for j in support[a + 1:])
    return (sum(values[i] for i in support) + 2 * pairs) % 4


def kernel_vanishing_check(q, k):
    """Whether the enhancement q is zero on every class of the subspace k (all 2^dim checked)."""
    if k.ambient_dim != q.form.dim:
        raise DimensionMismatchError(
            f"enhancement dim {q.form.dim}, subspace ambient dim {k.ambient_dim}"
        )
    return all(naive_q(q.form.gram, q.values, x) == 0 for x in span_of(k.row_masks))


def naive_counts(gram, values):
    """Number of classes with q = 0, 1, 2, 3, counted over all 2^n classes."""
    counts = [0, 0, 0, 0]
    for v in law_table(gram, values):
        counts[v] += 1
    return tuple(counts)


def naive_gauss(gram, values):
    counts = naive_counts(gram, values)
    return counts[0] - counts[2], counts[1] - counts[3]


def naive_beta(gram, values):
    a, b = naive_gauss(gram, values)
    assert a * a + b * b == 1 << len(values), "degenerate form has no Brown invariant"
    return ray(a, b)


def ray(a, b):
    """The direction of a + bi, on one of the eight rays, in eighths of a turn from 1."""
    if b == 0:
        return 0 if a > 0 else 4
    if a == 0:
        return 2 if b > 0 else 6
    if a > 0:
        return 1 if b > 0 else 7
    return 3 if b > 0 else 5


def surgery_representatives(form, c_bits):
    """c-perp cut by {x_p = 0}, p the pivot of c: one class per coset of c, as a Subspace.

    The two conditions, c's functional (by ``naive_mat_vec``) and e_p, are eliminated on a
    list: each is cleared at the pivots (highest bits) of the rows kept so far, and a nonzero
    remainder is cleared from those rows at its own pivot and kept.  Each free column j then
    gives the solution e_j plus the pivot of every kept row with bit j; those pivots lie
    above j, so the solutions are already the reduced-echelon basis.
    """
    n = form.dim
    gram_masks = list(map(bitmask, form.gram))
    p = (c_bits & -c_bits).bit_length() - 1
    kept = []
    for x in (naive_mat_vec(gram_masks, c_bits), 1 << p):
        for r in kept:
            if x >> (r.bit_length() - 1) & 1:
                x ^= r
        if x:
            top = x.bit_length() - 1
            kept = [r ^ x if r >> top & 1 else r for r in kept]
            kept.append(x)
    pivots = {r.bit_length() - 1: r for r in kept}
    solutions = [
        1 << j | sum(1 << t for t, r in pivots.items() if r >> j & 1)
        for j in range(n)
        if j not in pivots
    ]
    return Subspace(n, solutions)


def reference_reduction(q, c):
    """Surgery on an admissible class c: (Gram rows, values) of q on the eliminated coset
    representatives, as tuples, the shape of a reduced ``Enhancement``'s fields."""
    reps = surgery_representatives(q.form, c.bits).row_masks
    gram, values = rebase(q.form.gram, q.values, reps)
    return tuple(map(tuple, gram)), values


def characteristic_class_mod2(m):
    """The mod-2 Wu class of a unimodular form, as 0/1 coordinates: the one c with
    c.e_i = e_i.e_i (mod 2) for all i.

    Every class of F2^dim is tried; a unimodular form is nondegenerate mod 2,
    so exactly one passes.
    """
    n = m.dim
    wu = [
        c for c in range(1 << n)
        if all(naive_dot(m.gram, c, 1 << i) == m.gram[i][i] % 2 for i in range(n))
    ]
    assert len(wu) == 1
    return tuple((wu[0] >> i) & 1 for i in range(n))


def naive_leading_minors(gram):
    """Leading principal minors D_1..D_n of a symmetric integer matrix, up to congruence:
    Bareiss's exact-division elimination (1968) on the whole trailing block.

    Step k pivots on a[k][k]; when that is 0 it folds in the first j > k with
    a[k][j] != 0 (e_k <- e_k + s*e_j, s = 1 unless 2*a[k][j] + a[j][j] = 0, then -1)
    by adding s times row and column j to row and column k, and with no such j the
    remaining minors are 0.  Every entry of the block is updated, both triangles.
    """
    n = len(gram)
    a = [list(row) for row in gram]
    minors = []
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
        for r in range(k + 1, n):
            f = a[r][k]
            for t in range(k + 1, n):
                a[r][t] = (d * a[r][t] - f * a[k][t]) // prev
        prev = d
    return minors


def gaussian_binomial(n, k):
    """Number of k-dimensional subspaces of F2^n, by the product formula."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= (1 << (n - i)) - 1
        den *= (1 << (i + 1)) - 1
    assert num % den == 0
    return num // den


def naive_rank(row_masks):
    """Rank over F2, inserting each row into a basis keyed by its highest set bit."""
    basis = {}
    for r in row_masks:
        while r:
            top = r.bit_length() - 1
            if top not in basis:
                basis[top] = r
                break
            r ^= basis[top]
    return len(basis)


def naive_nondegenerate(gram):
    """Whether a Gram matrix of bits has full rank over F2, by ``naive_rank`` of its rows."""
    return naive_rank(list(map(bitmask, gram))) == len(gram)


def naive_radical(gram):
    """Every class x with x.e_i = 0 for each basis vector e_i, found by trying all 2^n."""
    n = len(gram)
    out = []
    for x in range(1 << n):
        support = [j for j in range(n) if (x >> j) & 1]
        if all(sum(gram[j][i] for j in support) % 2 == 0 for i in range(n)):
            out.append(x)
    return out


def span_of(bit_vectors):
    span = {0}
    for v in bit_vectors:
        span |= {s ^ v for s in span}
    return frozenset(span)


def spanned(vectors):
    """The Subspace spanned by a nonempty list of vectors, by naive elimination.

    Each vector is cleared at the pivots (lowest bits) of the rows kept so
    far; a nonzero remainder is cleared from those rows at its own pivot and
    kept.  Sorting by pivot then gives the reduced-echelon basis.
    """
    n = vectors[0].dim
    rows = []
    for v in vectors:
        assert v.dim == n
        x = v.bits
        for r in rows:
            if x & r & -r:
                x ^= r
        if x:
            rows = [r ^ x if r & x & -x else r for r in rows]
            rows.append(x)
    return Subspace(n, tuple(sorted(rows, key=lambda r: r & -r)))


def all_subspace_spans(n, k):
    """Every k-dimensional subspace of F2^n as a frozenset of class bitmasks."""
    if k == 0:
        return {frozenset({0})}
    found = set()
    for comb in combinations(range(1, 1 << n), k):
        span = span_of(comb)
        if len(span) == 1 << k:
            found.add(span)
    return found


def enumerate_subspaces(ambient_dim, dim):
    """All dim-dimensional subspaces of F2^ambient_dim, each exactly once.

    Subspaces are produced as reduced-echelon bases: pivot column sets in
    lexicographic order, free entries counted in binary within each set.
    """
    if dim < 0 or dim > ambient_dim:
        raise ValueError(f"subspace dim {dim} outside [0, {ambient_dim}]")
    for pivots in combinations(range(ambient_dim), dim):
        pivot_set = set(pivots)
        # free slots, row-major: column j of row i may be nonzero for j > pivots[i], j not a pivot
        slots = [
            (i, j)
            for i in range(dim)
            for j in range(pivots[i] + 1, ambient_dim)
            if j not in pivot_set
        ]
        for pattern in range(1 << len(slots)):
            rows = [1 << p for p in pivots]
            for s, (i, j) in enumerate(slots):
                if (pattern >> s) & 1:
                    rows[i] |= 1 << j
            yield Subspace(ambient_dim, tuple(rows))


def all_enhancement_values(gram):
    """Every parity-respecting basis-value tuple of the form."""
    n = len(gram)
    out = []
    for choice in range(1 << n):
        out.append(tuple((gram[i][i] + 2 * ((choice >> i) & 1)) % 4 for i in range(n)))
    return out


def hyperbolic_gram(genus):
    n = 2 * genus
    g = [[0] * n for _ in range(n)]
    for i in range(genus):
        g[2 * i][2 * i + 1] = g[2 * i + 1][2 * i] = 1
    return g


def identity_gram(k):
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def standard_grams(max_dim):
    """The standard surface forms (orientable and nonorientable) up to max_dim."""
    grams = [hyperbolic_gram(g) for g in range(0, max_dim // 2 + 1)]
    grams += [identity_gram(k) for k in range(1, max_dim + 1)]
    return [g for g in grams if len(g) <= max_dim]


def naive_max_null_dim(gram, values):
    """Largest dimension of a subspace on which the enhancement is identically zero.

    A subspace is q-null exactly when it is spanned by pairwise-orthogonal
    classes with q = 0, so the search grows spans one such class at a time.
    Each span is grown once, along its greedy basis (every new basis class is
    larger than the last and the smallest of its coset, so every class added
    later is larger too), and a branch stops when its span plus its
    candidates is too small to hold a larger q-null subspace than the best
    found.
    """
    n = len(values)
    table = law_table(gram, values)
    best = 0

    def grow(span, dim, cand):
        nonlocal best
        best = max(best, dim)
        if (len(span) + len(cand)).bit_length() - 1 <= best:
            return
        for x in cand:
            if all(x < x ^ s for s in span if s):
                wider = span | {x ^ s for s in span}
                rest = [c for c in cand if c > x and c not in wider and naive_dot(gram, x, c) == 0]
                grow(wider, dim + 1, rest)

    grow(frozenset({0}), 0, [x for x in range(1, 1 << n) if table[x] == 0])
    return best


def block_sum(blocks):
    n = sum(len(b) for b in blocks)
    gram = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            gram[at + i][at : at + len(b)] = row
        at += len(b)
    return gram


def rebase(gram, values, rows):
    """The same enhancement written in the basis ``rows``; for fewer rows, its
    restriction to their span, in that basis (the Gram matrix may be degenerate).

    Each new basis class a is paired with the old basis once: gram.a is the XOR of the
    Gram rows over the bits of a, and a.b is the parity of that mask on b.  q(a) is grown
    by the law q(x + e_i) = q(x) + v_i + 2*(x.e_i), one bit of a at a time.
    """
    gram_masks = list(map(bitmask, gram))

    def q(a):
        x = total = 0
        for i in bit_indices(a):
            total += values[i] + 2 * (gram_masks[i] & x).bit_count()
            x |= 1 << i
        return total % 4

    pairings = [xor_rows(gram_masks, a) for a in rows]
    new_gram = [[(p & b).bit_count() & 1 for b in rows] for p in pairings]
    return new_gram, tuple(q(a) for a in rows)


# the orthogonal pieces by their values, <1> with q = v and the hyperbolic plane with
# q = a, b on its basis, and their Brown invariants (Brown 1972; Kirby-Taylor 1990)
PIECES = {(1,): 1, (3,): 7, (0, 0): 0, (0, 2): 0, (2, 0): 0, (2, 2): 4}

KINDS = ("nondegenerate", "planes", "radical_q0", "radical_q2", "planes_q0", "planes_q2",
         "zero_q0", "zero_q2", "dense", "sparse", "even")


def random_gl(rng, n):
    """Rows of a random matrix in GL_n(F2), as class bitmasks.

    Every invertible matrix is P L U with P a permutation and L, U lower and upper
    unitriangular, so drawing the three factors reaches all of GL_n, with no n^2
    elementary moves.
    """
    upper = [1 << i | rng.getrandbits(n) >> i + 1 << i + 1 for i in range(n)]
    rows = [xor_rows(upper, 1 << i | rng.getrandbits(i)) for i in range(n)]
    rng.shuffle(rows)
    return rows


def random_enhancement(rng, n, kind="nondegenerate"):
    """A seeded enhancement of rank n of the given kind: (gram, values, beta, pieces).

    Each kind but the last three is an orthogonal sum of ``PIECES`` and r radical classes,
    written in a basis from ``random_gl``:
    - "nondegenerate": pieces only, <1> or a plane at even odds, each with its values drawn
      from the table; beta is the pieces' betas added mod 8;
    - "planes": planes only, so every value is even (n even);
    - "radical_q0", "radical_q2": pieces and a radical of dimension 1 or 2; q is 0 on the
      radical, or takes the value 2 on some class of it;
    - "planes_q0", "planes_q2": planes and a radical of dimension 1 or 2, whichever makes n;
    - "zero_q0", "zero_q2": the zero form, all radical.
    On a degenerate form beta is None; ``pieces`` lists the values of the pieces used.
    "dense", "sparse" and "even" are random symmetric Gram matrices in the standard basis,
    of density 1/2, about 2/n, and 1/2 with a zero diagonal, with values of the right
    parity; beta and pieces are None.
    """
    assert kind in KINDS, kind
    if kind in ("dense", "sparse", "even"):
        density = 2 / max(n, 2) if kind == "sparse" else 0.5
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + (kind == "even"), n):
                gram[i][j] = gram[j][i] = int(rng.random() < density)
        return gram, tuple(gram[i][i] + 2 * rng.randrange(2) for i in range(n)), None, None
    planes = kind.startswith("planes")
    if kind.startswith("zero"):
        r = n
    elif kind.endswith(("_q0", "_q2")):
        r = 2 - n % 2 if planes else rng.randint(1, min(n, 2))
    else:
        r = 0
    assert not planes or (n - r) % 2 == 0, (kind, n)
    pieces, m = [], n - r
    while m:
        size = 2 if planes or m > 1 and rng.randrange(2) else 1
        pieces.append(rng.choice([p for p in PIECES if len(p) == size]))
        m -= size
    radical = [0] * r
    if kind.endswith("_q2"):
        radical = [2 * rng.randrange(2) for _ in range(r)]
        radical[rng.randrange(r)] = 2
    blocks = [[[1]] if len(p) == 1 else hyperbolic_gram(1) for p in pieces]
    gram = block_sum(blocks + [[[0] * r for _ in range(r)]])
    gram, values = rebase(gram, sum(pieces, ()) + tuple(radical), random_gl(rng, n))
    return gram, values, None if r else sum(map(PIECES.get, pieces)) % 8, pieces


def gauss_sum_by_elimination(rows, values):
    """(Re G, Im G) for G the sum of i^q(x) over all 2^n classes, one variable summed out at a
    time (Cai, Chen, Lipton and Lu, "On tractable exponential sums", FAW 2010); no form is split.

    Here q(x) = sum v_i x_i + 2 sum_{i<j} g_ij x_i x_j (mod 4), from the values v_i in Z/4 and
    the Gram rows' bits off the diagonal; the parities of the v_i are not checked.  Each step
    takes out x_k, k the lowest live variable.  With x_N the XOR of its live neighbours, the
    sum over x_k is 1 + i^v_k (-1)^x_N:
    - v_k odd: that is (1 + i^v_k) i^(-v_k x_N), so -v_k x_N is added to q.
    - v_k even: it is 2 when x_N = v_k / 2 and 0 otherwise.  With no neighbour, G is 0 or the
      factor is 2.  Else x_l, l the lowest neighbour, is c + x_M, with c = v_k / 2 and M the
      other neighbours.  That goes into q's terms v_l x_l and 2 x_l x_A, A the live neighbours
      of l: they become (c + (-1)^c x_M) v_l and 2 (c + x_M) x_A, where 2 x_M x_A is the sum
      of 2 x_j x_m over j in M and m in A, and x_j x_j = x_j.
    A XOR is lifted to Z/4 as the sum of its bits plus twice their pairs; ``lift`` adds it to q
    times a constant.  A row is read only once its variable is out, so no diagonal bit is read.
    """
    n = len(values)
    adj, v = list(rows), [x & 3 for x in values]

    def lift(s, d):  # add d times the XOR of the variables in s
        for j in bit_indices(s):
            v[j] = (v[j] + d) & 3
            if d & 1:
                adj[j] ^= s

    re, im, turns = 1, 0, 0
    alive = (1 << n) - 1
    while alive:
        k = (alive & -alive).bit_length() - 1
        alive ^= 1 << k
        near = adj[k] & alive
        if v[k] & 1:
            s = 2 - v[k]  # 1 + i^v_k is 1 + s i
            re, im = re - s * im, im + s * re
            lift(near, -v[k])
        elif not near:
            if v[k]:
                return 0, 0
            re, im = 2 * re, 2 * im
        else:
            l = (near & -near).bit_length() - 1
            alive ^= 1 << l
            m, a, c = near ^ 1 << l, adj[l] & alive, v[k] >> 1
            turns += c * v[l]  # the constant term c v_l
            lift(m, -v[l] if c else v[l])  # (-1)^c v_l x_M
            for j in bit_indices(m):  # 2 x_M x_A: the pairs of j in M and m in A, both ways
                adj[j] ^= a
            for j in bit_indices(a):  # 2 c x_A, and 2 x_j x_j for j in both M and A
                adj[j] ^= m
                v[j] = (v[j] + 2 * c + 2 * (m >> j & 1)) & 3
            re, im = 2 * re, 2 * im
    for _ in range(turns & 3):  # times i
        re, im = -im, re
    return re, im


def xor_rows(rows, mask):
    """The XOR of rows[j] over the bits j of mask."""
    acc = 0
    for j in bit_indices(mask):
        acc ^= rows[j]
    return acc


def bit_indices(mask):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1

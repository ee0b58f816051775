import random

import pytest

import pinquad.brown
import pinquad.forms
from pinquad.brown import arf_from_brown, brown_invariant, gauss_sum
from pinquad.errors import (
    DegenerateFormError,
    InternalError,
    UnsupportedInputError,
)
from pinquad.f2 import F2Vector
from pinquad.vanishing import has_null_lagrangian
from pinquad.forms import (
    BilinearForm,
    Enhancement,
    crosscap_form,
    enumerate_enhancements,
    hyperbolic_form,
    isotropic_reduction,
    poincare_dual,
    torsor_act,
    Covector,
)
from oracles import (
    all_enhancement_values,
    bitmask,
    block_sum,
    gauss_sum_by_elimination,
    hyperbolic_gram,
    identity_gram,
    naive_counts,
    naive_dot,
    naive_mat_vec,
    naive_nondegenerate,
    naive_q,
    naive_radical,
    naive_rank,
    PIECES,
    random_enhancement,
    ray,
    rebase,
    standard_grams,
)

TORUS = hyperbolic_form(1)
RP2 = crosscap_form(1)
KLEIN = crosscap_form(2)
EMPTY = Enhancement(BilinearForm(0, ()), ())


def pack(rows, stride):
    """Row masks packed into one integer for ``forms._split``, row i at bit i * stride."""
    return sum(g << i * stride for i, g in enumerate(rows))


class TestGaussSum:
    def test_dim_zero(self):
        gs = gauss_sum(EMPTY)
        assert (gs.a, gs.b, gs.n) == (1, 0, 0)

    def test_rp2(self):
        gs = gauss_sum(Enhancement(RP2, (1,)))
        assert (gs.a, gs.b) == (1, 1)
        assert gs.counts == (1, 1, 0, 0)

    def test_torus_values(self):
        # classes evaluate to 0, 2, 2, 2
        gs = gauss_sum(Enhancement(TORUS, (2, 2)))
        assert (gs.a, gs.b) == (-2, 0)

    def test_guard(self):
        # there is none: the counts are closed-form at any rank
        gs = gauss_sum(Enhancement(hyperbolic_form(11), (0,) * 22))
        assert (gs.a, gs.b, sum(gs.counts)) == (1 << 11, 0, 1 << 22)


def count_cases(kind):
    rng = random.Random(f"gauss-counts-{kind}")
    if kind == "standard":  # the rank-0 form included
        return [(g, v) for g in standard_grams(8) for v in all_enhancement_values(g)]
    if kind == "rebased":
        draws = [(rng.randint(1, 12), "nondegenerate") for _ in range(200)]
    else:
        draws = [(rng.randint(1, 9), k) for k in ("radical_q0", "radical_q2") for _ in range(60)]
        draws += [(n, "zero_q0") for n in range(1, 9)] + [(n, "zero_q2") for n in (1, 4, 8)]
    return [random_enhancement(rng, n, k)[:2] for n, k in draws]


class TestGaussSumCounts:
    """All four value counts of the splitting against counting every class."""

    @pytest.mark.parametrize("kind", ["standard", "rebased", "degenerate"])
    def test_matches_oracle(self, kind):
        for gram, values in count_cases(kind):
            q = Enhancement(BilinearForm.from_rows(gram), values)
            if kind == "degenerate":
                assert not naive_nondegenerate(gram)
            assert gauss_sum(q).counts == naive_counts(gram, values), (gram, values)


def split_cases(kind):
    rng = random.Random(f"split-{kind}")
    kind = "nondegenerate" if kind == "rebased" else kind
    return [random_enhancement(rng, rng.randint(1, 12), kind)[:2] for _ in range(60)]


def piece_cases(kind):
    """Seeded forms of rank 0 to 40 with values of the right parity: random symmetric
    (dense, sparse, or even with a zero diagonal), or sums of known pieces, degenerate or
    not, written in a random basis."""
    rng = random.Random(f"pieces-{kind}")
    draw = "nondegenerate" if kind == "rebased" else kind
    cases = []
    for _ in range(24):
        n = rng.randint(0, 40)
        if kind == "degenerate":
            n, draw = max(n, 1), rng.choice(("radical_q0", "radical_q2"))
        cases.append(random_enhancement(rng, n, draw)[:2])
    return cases


class TestSplit:
    """The pieces and radical found by the splitting, against the oracles' pairings, rank
    and an exhaustive radical."""

    @pytest.mark.parametrize("kind", ["dense", "sparse", "even", "degenerate", "rebased"])
    def test_pieces_against_naive_pairings(self, kind):
        # the pieces' own Gram matrix, paired and valued by the oracles, is the orthogonal sum
        # of <1> per odd class and H per plane; beta adds up over it, r fills the rank
        for gram, values in piece_cases(kind):
            n = len(gram)
            # row i carries e_i above bit n, so the pieces come back as classes
            rows = [g | 1 << n + i for i, g in enumerate(BilinearForm.from_rows(gram).row_masks)]
            stride = 2 * n + 1
            beta, r, _null, odd, planes = pinquad.forms._split(pack(rows, stride), values, stride)
            for u in odd:
                assert naive_dot(gram, u, u) == 1
            for u, w in planes:
                assert naive_dot(gram, u, w) == 1
                assert naive_dot(gram, u, u) == naive_dot(gram, w, w) == 0
            pieces = odd + [c for plane in planes for c in plane]
            piece_gram, piece_q = rebase(gram, values, pieces)
            assert piece_gram == block_sum([identity_gram(len(odd)), hyperbolic_gram(len(planes))])
            assert len(odd) + 2 * len(planes) + r == n
            assert r == n - naive_rank(list(map(bitmask, gram)))
            odd_q, plane_q = piece_q[: len(odd)], piece_q[len(odd) :]
            pieces_beta = sum(2 - v for v in odd_q)
            pieces_beta += sum(4 for qu, qw in zip(plane_q[::2], plane_q[1::2]) if qu == qw == 2)
            assert beta == pieces_beta % 8, (gram, values)

    @pytest.mark.parametrize("kind", ["rebased", "radical_q0", "radical_q2"])
    def test_radical_matches_oracle(self, kind):
        for gram, values in split_cases(kind):
            q = Enhancement(BilinearForm.from_rows(gram), values)
            n = q.form.dim
            degenerate = naive_rank(list(map(bitmask, gram))) < n
            radical = naive_radical(gram)
            _beta, r, null_radical, odd, planes = pinquad.forms._split(q.form._bits, q.values)
            assert len(radical) == 1 << r, (gram, values)
            assert len(odd) + 2 * len(planes) + r == n
            assert (r > 0) == degenerate == (kind != "rebased")
            assert null_radical == all(naive_q(gram, values, x) == 0 for x in radical)
            assert null_radical == (kind != "radical_q2")
            for answer in (brown_invariant, has_null_lagrangian):
                if degenerate:
                    with pytest.raises(DegenerateFormError):
                        answer(q)
                else:
                    answer(q)


def contract_cases():
    """Seeded forms of rank 1 to 64 in a random basis, every other one degenerate."""
    rng = random.Random("split-contract")
    cases = []
    for k in range(24):
        n, kind = rng.randint(1, 64), "nondegenerate"
        if k % 2:
            kind = rng.choice(("radical_q0", "radical_q2"))
        gram, values, *_ = random_enhancement(rng, n, kind)
        cases.append((BilinearForm.from_rows(gram).row_masks, values))
    return cases


class TestSplitContract:
    """What a caller puts above bit n of a row rides along and steers nothing."""

    def test_bits_above_n_change_nothing(self):
        rng = random.Random("split-noise")
        for rows, values in contract_cases():
            n = len(rows)
            noisy = [g | rng.getrandbits(2 * n) << n for g in rows]
            plain = pinquad.forms._split(pack(rows, n + 1), values)
            loaded = pinquad.forms._split(pack(noisy, 3 * n + 1), values, 3 * n + 1)
            assert plain[:3] == loaded[:3], (rows, values)
            assert (len(plain[3]), len(plain[4])) == (len(loaded[3]), len(loaded[4]))

    def test_pieces_are_zeros_without_bits_above_n(self):
        seen = set()
        for rows, values in contract_cases():
            _beta, r, _null, odd, planes = pinquad.forms._split(pack(rows, len(rows) + 1), values)
            assert set(odd) <= {0} and set(planes) <= {(0, 0)}
            seen.add((bool(odd), bool(planes), bool(r)))
        assert (True, True, False) in seen and (True, True, True) in seen


CUT = pinquad.forms._MAX_PACKED_STRIDE  # rows this wide are packed; wider rows are not
ORACLE_RANKS = [*range(65), CUT // 2 - 1, CUT // 2, CUT - 1, CUT, 720]
# case k is of kind ORACLE_KINDS[k % 8]: rank 80 planes, 159 q 0 on its radical, 720 both
ORACLE_KINDS = ["nondegenerate", "planes_q2", "planes", "radical_q0"]
ORACLE_KINDS += ["nondegenerate", "planes_q0", "planes", "radical_q2"]


def oracle_cases():
    """Seeded forms of rank 0 to 64, on each side of the width where the split stops packing
    its rows (plain and carrying the identity), and of rank 720, each in a random basis, every
    other one degenerate, with q 0 on the radical in half of those.  Half are even, ranks 80
    and 720 among them: a form with an odd class splits off odd classes nearly to the end, so
    only an even one moves rows at a plane.  At 720 q is 0 on the radical, so G is not 0 and
    beta is compared past ``CUT`` on planes too."""
    rng = random.Random("split-oracle")
    for k, n in enumerate(ORACLE_RANKS):
        gram, values, *_ = random_enhancement(rng, n, ORACLE_KINDS[k % 8])
        yield list(map(bitmask, gram)), values


class TestSplitOracle:
    """The split, packed and row by row on either side of ``CUT``, against the Gauss sum G
    summed one variable at a time by ``oracles.gauss_sum_by_elimination``, which splits no
    form.  q is 0 on the radical exactly when G is not 0, beta is then the ray of G, and
    |G|^2 = 2^(n + r), with r from ``oracles.naive_rank``.  At every rank the four
    counts give G and the parity totals, which the diagonal fixes.  The pieces, which only
    ``poincare_dual`` reads, give the dual of a random covector, on rows 2n + 1 bits wide."""

    def test_matches_the_gauss_sum_by_elimination(self):
        rng = random.Random("split-oracle-covectors")
        ranks, even_beta_past_cut, mismatches = set(), set(), []
        for rows, values in oracle_cases():
            n = len(rows)
            ranks.add(n)
            form = BilinearForm._from_masks(tuple(rows))
            a, b = g = gauss_sum_by_elimination(rows, values)
            r = n - naive_rank(rows)
            if n >= CUT and any(g) and not any(v & 1 for v in values):
                even_beta_past_cut.add(n)
            got = pinquad.forms._split(form._bits, values)[:3]
            if got[1:] != (r, any(g)) or any(g) and got[0] != ray(a, b):
                mismatches.append((n, "split", got, g, r))
            if any(g) and a * a + b * b != 1 << n + r:
                mismatches.append((n, "|G|^2", g, r))
            c = gauss_sum(Enhancement(form, values)).counts
            even = 1 << n - any(row >> i & 1 for i, row in enumerate(rows))  # x.x = 0
            totals = (c[0] - c[2], c[1] - c[3], c[0] + c[2], c[1] + c[3])
            if totals != (a, b, even, (1 << n) - even):
                mismatches.append((n, "counts", c, g))
            y = rng.getrandbits(n)
            try:
                yhat = poincare_dual(form, Covector(n, y)).bits
                ok = not r and naive_mat_vec(rows, yhat) == y
            except DegenerateFormError:
                ok = r > 0
            if not ok:
                mismatches.append((n, "dual", r))
        print(f"split oracle: {len(mismatches)} mismatches at {len(ranks)} ranks")
        assert ranks == set(ORACLE_RANKS) and even_beta_past_cut
        assert not mismatches, mismatches[:5]


class TestBrownInvariant:
    @pytest.mark.parametrize(
        "form,values,beta",
        [
            (RP2, (1,), 1),
            (RP2, (3,), 7),
            (TORUS, (0, 0), 0),
            (TORUS, (2, 2), 4),
            (KLEIN, (1, 3), 0),
            (KLEIN, (1, 1), 2),
            (KLEIN, (3, 3), 6),
        ],
    )
    def test_known_values(self, form, values, beta):
        assert brown_invariant(Enhancement(form, values)) == beta

    def test_dim_zero_is_unit(self):
        assert brown_invariant(EMPTY) == 0

    def test_degenerate_rejected(self):
        degenerate = Enhancement(BilinearForm.from_rows([[0]]), (0,))
        with pytest.raises(DegenerateFormError):
            brown_invariant(degenerate)


def high_rank_sums(seed, even, ranks=(21, 32)):
    """A re-based orthogonal sum of pieces of rank in ``ranks`` (21 to 32 by default), its
    beta (the pieces' betas added mod 8) and the pieces used; an even sum of an odd target
    rank has one more plane, and 31 + 1 = 32."""
    rng = random.Random(f"high-rank-{seed}")
    n = rng.randint(*ranks)
    kind = "planes" if even else "nondegenerate"
    gram, values, beta, pieces = random_enhancement(rng, n + (even and n % 2), kind)
    return Enhancement(BilinearForm.from_rows(gram), values), beta, set(pieces)


class TestHighRank:
    """beta has no guard: it adds up over the split at ranks 21 to 64, and the Gauss sum, the
    Lagrangian test, surgery, the torsor action and the dual answer there too."""

    @pytest.mark.parametrize("seed", range(12))
    def test_beta_is_the_sum_over_the_pieces(self, seed):
        q, beta, _ = high_rank_sums(seed, even=False)
        assert 21 <= q.form.dim <= 32
        assert brown_invariant(q) == beta
        assert has_null_lagrangian(q) == (beta == 0)
        gs = gauss_sum(q)  # on the ray of beta, 2^(n/2) from 0
        assert ray(gs.a, gs.b) == beta and gs.a * gs.a + gs.b * gs.b == 1 << q.form.dim
        # past 32 coordinates: surgery keeps beta, acting by y moves it by -2 q(dual y)
        q, beta, _ = high_rank_sums(seed, even=False, ranks=(33, 64))
        n, gram, values = q.form.dim, q.form.gram, q.values
        assert 33 <= n <= 64 and brown_invariant(q) == beta
        rng = random.Random(f"high-rank-classes-{seed}")
        c = 0
        while not c or naive_dot(gram, c, c) or naive_q(gram, values, c):
            c = rng.getrandbits(n)
        assert brown_invariant(isotropic_reduction(q, F2Vector(n, c))) == beta
        y = Covector(n, rng.getrandbits(n))
        dual = poincare_dual(q.form, y)
        assert all(naive_dot(gram, dual.bits, 1 << i) == y.bits >> i & 1 for i in range(n))
        moved = brown_invariant(torsor_act(q, y))
        assert (moved - beta) % 8 == (-2 * naive_q(gram, values, dual.bits)) % 8

    @pytest.mark.parametrize("seed", range(6))
    def test_arf_of_an_even_sum(self, seed):
        q, beta, _ = high_rank_sums(seed, even=True)
        assert 21 < q.form.dim <= 32 and not any(v & 1 for v in q.values)
        assert arf_from_brown(q) == beta // 4

    def test_every_piece_is_used(self):
        used = set().union(*(high_rank_sums(seed, even=False)[2] for seed in range(12)))
        assert used == set(PIECES)

    @pytest.mark.parametrize(
        "form,values,beta",
        [
            (crosscap_form(24), (1,) * 24, 0),
            (crosscap_form(23), (3,) * 23, 1),
            (crosscap_form(21), (1,) * 10 + (3,) * 11, 7),
            (hyperbolic_form(15), (2,) * 30, 4),
            (hyperbolic_form(16), (0, 2) * 16, 0),
        ],
    )
    def test_standard_sums(self, form, values, beta):
        assert brown_invariant(Enhancement(form, values)) == beta


class TestArf:
    def test_torus_values(self):
        assert arf_from_brown(Enhancement(TORUS, (0, 0))) == 0
        assert arf_from_brown(Enhancement(TORUS, (2, 2))) == 1

    def test_genus_two_additivity(self):
        q = Enhancement(hyperbolic_form(2), (2, 2, 2, 2))
        assert arf_from_brown(q) == 0

    def test_odd_values_rejected(self):
        with pytest.raises(UnsupportedInputError):
            arf_from_brown(Enhancement(RP2, (1,)))

    def test_beta_off_zero_and_four_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(pinquad.brown, "brown_invariant", lambda q: 2)
        with pytest.raises(InternalError):
            arf_from_brown(Enhancement(TORUS, (0, 0)))

    def test_matches_quarter_of_beta(self):
        form = hyperbolic_form(2)
        for q in enumerate_enhancements(form):
            assert arf_from_brown(q) == brown_invariant(q) // 4

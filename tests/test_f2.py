import random

import pytest

from pinquad.errors import DimensionMismatchError
from pinquad.f2 import (
    F2Matrix,
    F2Vector,
    Subspace,
    _rref,
    kernel_basis,
    rank,
    solve,
)
from oracles import (
    all_subspace_spans,
    bitmask,
    enumerate_subspaces,
    gaussian_binomial,
    naive_mat_vec,
    naive_rank,
    span_of,
    spanned,
    xor_rows,
)
from test_forms import vec

WIDE = [159, 160, 161, 256, 720]  # about the split's packing cut (160), to the rank-720 forms


def mat(*rows):
    return F2Matrix(len(rows), len(rows[0]), tuple(map(bitmask, rows)))


def identity(n):
    return F2Matrix(n, n, tuple(1 << i for i in range(n)))


def zero(rows, cols):
    return F2Matrix(rows, cols, (0,) * rows)


def rows_of_rank(rng, count, cols, dim):
    """count rows of cols bits, each zero (one in ten), a repeat of an earlier row (one in ten)
    or a random sum of the same dim random rows, so of rank at most dim."""
    right = [rng.getrandbits(cols) for _ in range(dim)]
    rows = []
    for _ in range(count):
        pick = rng.random()
        if pick < 0.1:
            rows.append(0)
        elif pick < 0.2 and rows:
            rows.append(rng.choice(rows))
        else:
            rows.append(xor_rows(right, rng.getrandbits(dim)))
    return rows


def check_rref(masks, cols, top=False):
    """_rref of the rows, checked: nonzero rows, pivots (lowest bits, or highest with top)
    increasing (decreasing with top), each pivot column clear in every other row, the span of
    the rows and as many rows as their rank."""
    rows = _rref(masks, top)
    pivots = [1 << r.bit_length() - 1 if top else r & -r for r in rows]
    assert all(rows) and pivots == sorted(set(pivots), reverse=top)
    for r, p in zip(rows, pivots):
        assert all(not other & p for other in rows if other != r)
    assert len(rows) == naive_rank(masks)

    def span(xs):
        return spanned([F2Vector(cols, x) for x in xs]) if xs else Subspace(cols, ())

    # lowest-bit rows are the span's canonical basis itself
    assert (span(rows) if top else Subspace(cols, rows)) == span(masks)
    return rows


class TestF2Vector:
    def test_zero_is_unique(self):
        assert F2Vector(3, 0) == vec(0, 0, 0)

    def test_dimension_cap(self):
        # there is none: a class of a rank-720 form, about the largest under the CLI's
        # file cap, is a vector too; a negative dimension fails at 1 << dim
        assert F2Vector(720, 1 << 719).dim == 720
        with pytest.raises(ValueError):
            F2Vector(-1, 0)

    def test_bits_must_fit(self):
        with pytest.raises(ValueError, match=r"^bit mask 0x4 does not fit in dimension 2$"):
            F2Vector(2, 4)


class TestF2Matrix:
    @pytest.mark.parametrize(
        "rows,cols,masks,message",
        [
            (2, 3, (1,), "expected 2 rows, got 1"),
            (1, 2, (4,), "row 0 mask 0x4 does not fit in 2 columns"),
            (2, 2, (1, -1), "row 1 mask -0x1 does not fit in 2 columns"),
        ],
        ids=["row_count", "too_wide", "negative"],
    )
    def test_construction_messages(self, rows, cols, masks, message):
        with pytest.raises(ValueError) as info:
            F2Matrix(rows, cols, masks)
        assert str(info.value) == message


class TestRank:
    def test_zero_matrix(self):
        assert rank(zero(3, 3)) == 0

    def test_identity(self):
        assert rank(identity(4)) == 4

    def test_repeated_row(self):
        # row span of {(1,1), (1,1)} is {00, 11}, one dimension
        assert rank(mat([1, 1], [1, 1])) == 1

    def test_rank_nullity_exhaustive_small(self):
        for rows, cols in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            for bits in range(1 << (rows * cols)):
                masks = tuple((bits >> (cols * i)) & ((1 << cols) - 1) for i in range(rows))
                m = F2Matrix(rows, cols, masks)
                assert rank(m) + kernel_basis(m).dim == cols

    def test_rank_nullity_random(self):
        rng = random.Random(20240817)
        for _ in range(200):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = F2Matrix(rows, cols, tuple(rng.randrange(1 << cols) for _ in range(rows)))
            assert rank(m) + kernel_basis(m).dim == cols

    def test_against_naive_rank_to_64_columns(self):
        rng = random.Random(6464)
        for _ in range(300):
            cols = rng.randint(1, 64)
            masks = rows_of_rank(rng, rng.randint(1, 40), cols, rng.randint(0, cols))
            m = F2Matrix(len(masks), cols, tuple(masks))
            assert rank(m) == naive_rank(masks), masks


class TestRref:
    def test_reduced_echelon_spanning_the_rows(self):
        rng = random.Random(3232)
        for trial in range(300):
            cols = rng.randint(1, 32)
            masks = [0] * (trial % 3) + rows_of_rank(rng, rng.randint(1, 40), cols, rng.randint(0, cols))
            check_rref(masks + masks[: trial % 4], cols)
            check_rref(masks + masks[: trial % 4], cols, top=True)

    @pytest.mark.parametrize("cols", WIDE)
    def test_reduced_echelon_to_720_columns(self, cols):
        rng = random.Random(f"rref-{cols}")
        for count in (1, 2, 7, 20, 40):
            for dim in sorted({0, 1, count // 2, count}):
                masks = rows_of_rank(rng, count, cols, dim) + [1 << cols - 1]  # cols bits wide
                check_rref(masks, cols)
                check_rref(masks, cols, top=True)

    def test_tall_wide_zero_repeated_and_empty_lists(self):
        rng = random.Random("rref-shapes")
        row = rng.getrandbits(40) | 1 << 39
        cases = [
            (rows_of_rank(rng, 200, 32, 32), 32),
            ([rng.getrandbits(720) | 1 << 719 for _ in range(3)], 720),
            ([1 << 4999, 1, 1 << 2500], 5000),
            ([], 5),
            ([0] * 6, 5),
            ([row] * 4, 40),
            ([0, row, 0, row], 40),
        ]
        got = [check_rref(masks, cols) for masks, cols in cases]
        assert len(got[1]) == 3 and got[2:] == [[1, 1 << 2500, 1 << 4999], [], [], [row], [row]]


class TestSolve:
    def test_identity(self):
        assert solve(identity(2), vec(1, 0)) == vec(1, 0)

    def test_inconsistent(self):
        assert solve(zero(1, 1), vec(1)) is None

    def test_free_variables_zero(self):
        # candidates for x0 + x1 = 0 are 00 and 11; the free-variable rule picks 00
        assert solve(mat([1, 1]), vec(0)) == vec(0, 0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            solve(identity(2), vec(1))

    def test_solutions_verify_and_none_means_none_exhaustive(self):
        for rows, cols in [(2, 2), (3, 2), (2, 3)]:
            for bits in range(1 << (rows * cols)):
                masks = tuple((bits >> (cols * i)) & ((1 << cols) - 1) for i in range(rows))
                m = F2Matrix(rows, cols, masks)
                for b_bits in range(1 << rows):
                    b = F2Vector(rows, b_bits)
                    x = solve(m, b)
                    solvable = any(naive_mat_vec(masks, t) == b_bits for t in range(1 << cols))
                    if x is None:
                        assert not solvable
                    else:
                        assert x.dim == cols and naive_mat_vec(masks, x.bits) == b_bits

    def test_rank_deficient_32_against_rank_oracle(self):
        # m = L.R with L 32 x r and R r x 32, so rank(m) <= r; half the right-hand
        # sides are m.y (consistent), half random (mostly inconsistent)
        rng = random.Random(3232)
        n = 32
        outcomes = set()
        for trial in range(80):
            r = rng.randrange(n)
            right = [rng.getrandbits(n) for _ in range(r)]
            rows = []
            for _ in range(n):
                left, row = rng.getrandbits(r), 0
                for k in range(r):
                    if (left >> k) & 1:
                        row ^= right[k]
                rows.append(row)
            m = F2Matrix(n, n, tuple(rows))
            b = naive_mat_vec(rows, rng.getrandbits(n)) if trial % 2 else rng.getrandbits(n)
            x = solve(m, F2Vector(n, b))
            augmented = [row | (((b >> i) & 1) << n) for i, row in enumerate(rows)]
            consistent = naive_rank(augmented) == naive_rank(rows)
            outcomes.add(consistent)
            assert (x is not None) == consistent
            if x is None:
                continue
            assert naive_mat_vec(rows, x.bits) == b
            # column j is a pivot column iff it is independent of columns 0..j-1
            ranks = [naive_rank(row & ((1 << j) - 1) for row in rows) for j in range(n + 1)]
            for j in range(n):
                if ranks[j + 1] == ranks[j]:
                    assert not (x.bits >> j) & 1, f"free column {j} is set"
        assert outcomes == {True, False}

    @pytest.mark.parametrize("cols", [159, 256])
    def test_wide_systems_against_the_oracles(self, cols):
        # half the right-hand sides consistent; the rhs rides along as column cols
        rng = random.Random(f"solve-{cols}")
        outcomes = set()
        for trial in range(12):
            rows = rows_of_rank(rng, 30, cols, 20)
            rows[0] |= 1 << cols - 1
            m = F2Matrix(30, cols, rows)
            b = naive_mat_vec(rows, rng.getrandbits(cols)) if trial % 2 else rng.getrandbits(30)
            x = solve(m, F2Vector(30, b))
            augmented = [row | (b >> i & 1) << cols for i, row in enumerate(rows)]
            consistent = naive_rank(augmented) == naive_rank(rows)
            outcomes.add(consistent)
            assert (x is not None) == consistent
            assert x is None or naive_mat_vec(rows, x.bits) == b
            assert rank(m) == naive_rank(rows)
        assert outcomes == {True, False}


class TestKernelBasis:
    def test_identity_has_zero_kernel(self):
        assert kernel_basis(identity(3)) == Subspace(3, ())

    def test_zero_matrix_has_full_kernel(self):
        assert kernel_basis(zero(3, 3)) == Subspace(3, (0b001, 0b010, 0b100))

    def test_sum_row(self):
        assert kernel_basis(mat([1, 1])) == spanned([vec(1, 1)])

    def test_kernel_members_exhaustive(self):
        for bits in range(1 << 9):
            masks = tuple((bits >> (3 * i)) & 7 for i in range(3))
            m = F2Matrix(3, 3, masks)
            k = kernel_basis(m)
            members = span_of(k.row_masks)
            expected = {t for t in range(8) if naive_mat_vec(masks, t) == 0}
            assert members == expected

    def test_random_kernels_to_32_columns(self):
        # a subspace of the kernel with dimension cols - rank is the whole kernel
        rng = random.Random(3100)
        for _ in range(200):
            cols = rng.randint(1, 32)
            masks = tuple(rng.getrandbits(cols) for _ in range(rng.randint(1, 8)))
            k = kernel_basis(F2Matrix(len(masks), cols, masks))
            assert k.ambient_dim == cols and k.dim == cols - naive_rank(masks)
            assert all(naive_mat_vec(masks, r) == 0 for r in k.row_masks)

    @staticmethod
    def check_kernel(masks, cols):
        # as many rows, in reduced echelon form, as the kernel's dimension, each in the kernel:
        # they are its canonical basis
        k = kernel_basis(F2Matrix(len(masks), cols, masks))
        assert k.ambient_dim == cols and k.dim == cols - naive_rank(masks)
        assert all(naive_mat_vec(masks, x) == 0 for x in k.row_masks)
        return k

    @pytest.mark.parametrize("cols", WIDE)
    def test_kernels_to_720_columns(self, cols):
        rng = random.Random(f"kernel-{cols}")
        for count, dim in [(1, 1), (7, 3), (40, 20), (40, 40)]:
            self.check_kernel(tuple(rows_of_rank(rng, count, cols, dim)), cols)

    def test_wide_kernels_of_few_rows(self):
        rng = random.Random("kernel-wide")
        for cols, masks in [
            (720, [rng.getrandbits(720)]),
            (720, [rng.getrandbits(720) for _ in range(3)]),
            (720, [1 << 700, 1 << 3, 1 << 360]),
            (5000, [rng.getrandbits(5000) for _ in range(2)]),
            (5000, [1]),
            (5000, [1 << 4999, 1]),
        ]:
            self.check_kernel(tuple(masks), cols)
        assert self.check_kernel((1 << 4999 | 1,), 5000).row_masks[-1] == 1 << 4998


class TestSubspace:
    def test_span_canonicalizes(self):
        s1 = spanned([vec(1, 1, 0), vec(0, 1, 1)])
        s2 = spanned([vec(1, 0, 1), vec(0, 1, 1), vec(1, 1, 0)])
        assert s1 == s2 == Subspace(3, (0b101, 0b110))
        assert hash(s1) == hash(s2)

    def test_rejects_non_echelon_basis(self):
        with pytest.raises(ValueError, match="echelon order"):
            Subspace(2, (0b11, 0b01))

    def test_rejects_equal_pivots(self):
        with pytest.raises(ValueError, match="echelon order"):
            Subspace(3, (0b011, 0b101))

    def test_rejects_zero_row(self):
        with pytest.raises(ValueError, match="zero"):
            Subspace(3, (0b001, 0))

    def test_rejects_row_wider_than_ambient(self):
        Subspace(3, (0b100,))
        with pytest.raises(ValueError, match="does not fit"):
            Subspace(3, (0b1000,))

    def test_rejects_unreduced_basis(self):
        # row 0 has a bit at row 1's pivot
        with pytest.raises(ValueError, match="reduced"):
            Subspace(3, (0b011, 0b010))
        Subspace(3, (0b101, 0b010))

    def test_ambient_dimension_cap(self):
        # there is none, as for vectors
        assert Subspace(720, (1, 1 << 719)).dim == 2
        with pytest.raises(ValueError):
            Subspace(-1, ())

    def test_basis_is_vectors_with_the_same_bits(self):
        s = Subspace(4, (0b0101, 0b1010))
        assert s.basis == (F2Vector(4, 0b0101), F2Vector(4, 0b1010))
        assert s.dim == 2 and Subspace(4, ()).basis == ()

    def test_elements_count(self):
        s = spanned([vec(1, 0, 0), vec(0, 1, 0)])
        assert len(span_of(s.row_masks)) == 4

    def test_spanned_oracle_matches_enumeration(self):
        # every subspace of F2^4 is recovered from its member list, in any order
        rng = random.Random(44)
        for d in range(5):
            for s in enumerate_subspaces(4, d):
                members = [F2Vector(4, x) for x in span_of(s.row_masks)]
                rng.shuffle(members)
                assert spanned(members) == s


class TestEnumerateSubspaces:
    def test_lines_in_plane(self):
        assert len(list(enumerate_subspaces(2, 1))) == 3

    def test_zero_dim_is_just_zero_subspace(self):
        for n in range(5):
            assert list(enumerate_subspaces(n, 0)) == [Subspace(n, ())]

    def test_planes_in_four_space(self):
        spaces = list(enumerate_subspaces(4, 2))
        assert len(spaces) == 35

    def test_matches_bruteforce_spans(self):
        got = {span_of(s.row_masks) for s in enumerate_subspaces(4, 2)}
        assert got == all_subspace_spans(4, 2)

    @pytest.mark.parametrize("n", range(7))
    def test_counts_match_gaussian_binomial(self, n):
        for k in range(n + 1):
            spaces = list(enumerate_subspaces(n, k))
            assert len(spaces) == gaussian_binomial(n, k)
            assert len(set(spaces)) == len(spaces)


def test_gaussian_binomial_product_formula_vs_recursion():
    # Pascal-style recursion [n,k] = [n-1,k-1] + 2^k * [n-1,k] is an independent route
    memo = {}

    def rec(n, k):
        if k == 0:
            return 1
        if k > n:
            return 0
        if (n, k) not in memo:
            memo[(n, k)] = rec(n - 1, k - 1) + (1 << k) * rec(n - 1, k)
        return memo[(n, k)]

    for n in range(11):
        for k in range(n + 2):
            assert gaussian_binomial(n, k) == rec(n, k)

import json
import random
from itertools import product

import pytest

import pinquad.fourmanifold as fourmanifold
from pinquad.errors import DimensionMismatchError, LimitError, NotCharacteristicError
from pinquad.forms import Enhancement, crosscap_form, hyperbolic_form
from pinquad.fourmanifold import (
    FORM_LIBRARY,
    MAX_FORM_DIM,
    UnimodularForm,
    gm_check,
    gm_required_beta,
    is_characteristic,
    parse_form_name,
    signature,
    unimodular_direct_sum,
)

from oracles import characteristic_class_mod2, naive_pair

ONE = FORM_LIBRARY["1"]
MINUS_ONE = FORM_LIBRARY["-1"]
H = FORM_LIBRARY["H"]
E8 = FORM_LIBRARY["E8"]
BLOCKS = [ONE, MINUS_ONE, H, E8, UnimodularForm.from_rows([[-v for v in r] for r in E8.gram])]

# forms exercised by the library-wide properties (dims 1 through 8)
TEST_LIBRARY = [
    ONE,
    MINUS_ONE,
    H,
    E8,
    parse_form_name("1+1"),
    parse_form_name("1+-1"),
    parse_form_name("-1+-1"),
    parse_form_name("1+1+1"),
    parse_form_name("1+1+-1"),
    parse_form_name("H+1"),
    parse_form_name("H+-1"),
    parse_form_name("H+H"),
    parse_form_name("H+H+H"),
    parse_form_name("H+1+-1"),
]


def characteristic_candidates(m, bound=3):
    """Integer vectors with entries in [-bound, bound] of the right parity."""
    base = characteristic_class_mod2(m)
    choices = []
    for parity in base:
        choices.append([x for x in range(-bound, bound + 1) if x % 2 == parity])
    return product(*choices)


def random_congruence(gram, rng, steps=6):
    """T^t G T for a random integer T with |det T| = 1, built from row operations."""
    n = len(gram)
    t = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        op = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if op == 0 and i != j:
            f = rng.randint(-2, 2)
            for k in range(n):
                t[i][k] += f * t[j][k]
        elif op == 1:
            t[i], t[j] = t[j], t[i]
        else:
            t[i] = [-x for x in t[i]]
    return [
        [sum(t[k][i] * gram[k][l] * t[l][j] for k in range(n) for l in range(n)) for j in range(n)]
        for i in range(n)
    ]


def random_library_sum(rng, max_dim=MAX_FORM_DIM):
    """A direct sum of 1, -1, H, E8 and -E8 of random rank between 1 and max_dim."""
    target, summands = rng.randint(1, max_dim), []
    while sum(b.dim for b in summands) < target:
        summands.append(rng.choice(BLOCKS))
    if sum(b.dim for b in summands) > max_dim:
        summands.pop()
    return unimodular_direct_sum(*summands)


def descartes_signature(sympy, gram):
    """Signature from the characteristic polynomial.

    A symmetric matrix has a real-rooted characteristic polynomial, so
    Descartes' rule of signs counts its positive and negative eigenvalues
    exactly; the matrix must be nonsingular.
    """

    def sign_changes(coeffs):
        signs = [c > 0 for c in coeffs if c != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    coeffs = sympy.Matrix(gram).charpoly(sympy.symbols("x")).all_coeffs()
    n = len(gram)
    positive = sign_changes(coeffs)
    negative = sign_changes([c * (-1) ** (n - i) for i, c in enumerate(coeffs)])
    assert positive + negative == n
    return positive - negative


class TestUnimodularForm:
    def test_accepts_exactly_determinant_one_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(4242)
        verdicts = set()
        for trial in range(400):
            n = rng.randint(1, 6)
            g = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    g[i][j] = g[j][i] = rng.randint(-2, 2)
            if trial % 3 >= 1:  # zero diagonal: only the fold finds pivots
                for i in range(n):
                    g[i][i] = 0
            if trial % 3 == 2:  # a zero row and column leave a zero active row
                k = rng.randrange(n)
                for i in range(n):
                    g[i][k] = g[k][i] = 0
            det = sympy.Matrix(g).det()
            verdicts.add(det in (1, -1))
            if det in (1, -1):
                assert UnimodularForm.from_rows(g).dim == n
            else:
                with pytest.raises(ValueError, match=rf"not unimodular: det = {det}$"):
                    UnimodularForm.from_rows(g)
        assert verdicts == {True, False}

    def test_rank_cap_against_sympy(self):
        # ranks up to the cap, entries in the hundreds, negative pivots, the
        # fold with either sign and zero active rows, against sympy's det and
        # the characteristic polynomial's signature
        sympy = pytest.importorskip("sympy")
        rng = random.Random(8128)
        cases = []
        for _ in range(30):  # unimodular
            cases.append(random_congruence(random_library_sum(rng).gram, rng, steps=40))
        for _ in range(30):  # zero diagonal: the first pivot comes from the fold
            n = rng.randint(2, MAX_FORM_DIM)
            g = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    g[i][j] = g[j][i] = rng.choice((-1, 0, 0, 1))
            cases.append(g)
        for _ in range(30):  # singular: A + 0, as it is or moved by a congruence
            k = rng.randint(1, 4)
            a = random_library_sum(rng, MAX_FORM_DIM - k)
            n = a.dim + k
            g = [[a.gram[i][j] if i < a.dim and j < a.dim else 0 for j in range(n)] for i in range(n)]
            cases.append(random_congruence(g, rng, steps=rng.choice((0, 40))))
        cases.append([[0, 1], [1, -2]])  # only the fold e_0 - e_1 gives a nonzero pivot
        cases.append([[1, 0, 0], [0, 0, 0], [0, 0, 1]])  # a zero row after a nonzero pivot
        largest, negative_pivot, verdicts = 0, False, set()
        for g in cases:
            det = sympy.Matrix(g).det()
            verdicts.add(det in (1, -1))
            largest = max(largest, *(abs(x) for row in g for x in row))
            negative_pivot |= any(d < 0 for d in fourmanifold._leading_minors(g))
            if det in (1, -1):
                m = UnimodularForm.from_rows(g)
                assert signature(m) == descartes_signature(sympy, g)
            else:
                with pytest.raises(ValueError, match=rf"not unimodular: det = {det}$"):
                    UnimodularForm.from_rows(g)
        assert verdicts == {True, False}
        assert largest >= 100 and negative_pivot

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError, match="unimodular"):
            UnimodularForm.from_rows([[2]])
        with pytest.raises(ValueError, match="unimodular"):
            UnimodularForm.from_rows([[1, 0], [0, 2]])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            UnimodularForm.from_rows([[1, 1], [0, 1]])

    def test_rejects_a_short_gram(self):
        with pytest.raises(ValueError, match=r"^Gram matrix is not 2x2$"):
            UnimodularForm(2, ((1, 0),))

    @pytest.mark.parametrize("rows", [[[1.9]], [[1.0]], [["1"]]], ids=["1.9", "1.0", "str"])
    def test_from_rows_refuses_non_integers(self, rows):
        # int() would build [[1]] from each of these
        with pytest.raises(TypeError):
            UnimodularForm.from_rows(rows)

    @pytest.mark.parametrize("gram", [((0.5, 1), (1, 0)), ((1.0,),)], ids=["0.5", "1.0"])
    def test_constructor_refuses_non_integers(self, gram):
        # neither may pass as unimodular: 0.5 would get signature 0, 1.0 a float beta
        with pytest.raises(TypeError):
            UnimodularForm(len(gram), gram)

    def test_from_rows_accepts_integer_types(self):
        np = pytest.importorskip("numpy")
        assert UnimodularForm.from_rows([[True]]) == ONE
        m = UnimodularForm.from_rows(np.array([[0, 1], [1, 0]]))
        assert m == H and {type(x) for row in m.gram for x in row} == {int}

    def test_dimension_cap(self):
        with pytest.raises(LimitError):
            unimodular_direct_sum(E8, E8)

    def test_pair(self):
        assert H.pair((1, 0), (0, 1)) == 1
        assert E8.pair((1, 0, 0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 0)) == 2

    def test_pair_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            H.pair((1,), (0, 1))

    def test_mod2_reduction(self):
        assert H.mod2() == hyperbolic_form(1)
        assert ONE.mod2() == crosscap_form(1)
        assert E8.mod2().nondegenerate

    def test_json_roundtrip(self):
        data = json.loads(json.dumps(E8.to_json()))
        assert UnimodularForm.from_json(data) == E8

    def test_parse_form_name(self):
        m = parse_form_name("1+1+-1")
        assert m.dim == 3
        assert [m.gram[i][i] for i in range(3)] == [1, 1, -1]
        with pytest.raises(ValueError, match="unknown form name"):
            parse_form_name("K3")


class TestSignature:
    @pytest.mark.parametrize(
        "form,expected",
        [(ONE, 1), (MINUS_ONE, -1), (H, 0), (E8, 8)],
        ids=["1", "-1", "H", "E8"],
    )
    def test_library_values(self, form, expected):
        assert signature(form) == expected

    def test_additive_under_direct_sum(self):
        assert signature(parse_form_name("1+1+-1")) == 1
        assert signature(parse_form_name("H+H")) == 0
        assert signature(unimodular_direct_sum(E8, MINUS_ONE)) == 7

    def test_congruence_invariance(self):
        # T^t M T with |det T| = 1 never changes the signature
        rng = random.Random(6344)
        for m in [ONE, H, parse_form_name("1+1+-1"), parse_form_name("H+1"), parse_form_name("H+H+1")]:
            for _ in range(40):
                conj = random_congruence(m.gram, rng)
                assert signature(UnimodularForm.from_rows(conj)) == signature(m)

    def test_matches_characteristic_polynomial(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(1614)
        for _ in range(60):
            gram = random_congruence(random_library_sum(rng).gram, rng, steps=12)
            assert signature(UnimodularForm.from_rows(gram)) == descartes_signature(sympy, gram)

    def test_stored_at_construction(self, monkeypatch):
        # the form's one elimination is the only one: signature and the
        # Guillou-Marin checks answer with the elimination helper broken
        big = parse_form_name("E8+H+1+-1")
        rng = random.Random(5)
        moved = UnimodularForm.from_rows(random_congruence(big.gram, rng, steps=30))
        empty = UnimodularForm(0, ())

        def broken(gram):
            raise AssertionError("eliminated again")

        monkeypatch.setattr(fourmanifold, "_leading_minors", broken)
        torus_odd = Enhancement(hyperbolic_form(1), (2, 2))  # beta 4
        for m in (big, moved):
            c = characteristic_class_mod2(m)
            assert signature(m) == 8
            assert gm_required_beta(m, c) == ((naive_pair(m.gram, c, c) - 8) // 2) % 8
            assert gm_check(m, c, torus_odd) == (gm_required_beta(m, c) == 4)
        assert signature(empty) == 0
        assert gm_required_beta(empty, ()) == 0
        assert gm_check(empty, (), Enhancement(hyperbolic_form(0), ()))


class TestCharacteristic:
    def test_examples(self):
        assert is_characteristic(ONE, (1,))
        assert is_characteristic(H, (0, 0))
        assert not is_characteristic(ONE, (0,))
        assert not is_characteristic(ONE, (2,))

    def test_mod2_solutions(self):
        assert characteristic_class_mod2(ONE) == (1,)
        assert characteristic_class_mod2(H) == (0, 0)
        assert characteristic_class_mod2(parse_form_name("1+-1")) == (1, 1)
        assert characteristic_class_mod2(E8) == (0,) * 8

    def test_mod2_solution_is_characteristic(self):
        for m in TEST_LIBRARY:
            cls = characteristic_class_mod2(m)
            assert is_characteristic(m, cls)

    def test_error_names_basis_vector(self):
        with pytest.raises(NotCharacteristicError) as err:
            gm_required_beta(parse_form_name("H+1"), (0, 0, 0))
        assert err.value.index == 2

    @pytest.mark.parametrize("c", [(1.9,), (3.7,), ("1",)], ids=["1.9", "3.7", "str"])
    def test_refuses_non_integer_coordinates(self, c):
        # int() would truncate 1.9 to a characteristic 1 and 3.7 to 3 (beta 4)
        with pytest.raises(TypeError):
            is_characteristic(ONE, c)
        with pytest.raises(TypeError):
            gm_required_beta(ONE, c)

    def test_accepts_integer_types(self):
        np = pytest.importorskip("numpy")
        assert is_characteristic(ONE, (True,))
        assert gm_required_beta(ONE, (np.int64(3),)) == 4
        assert gm_required_beta(ONE, np.array([3])) == 4


class TestGuillouMarin:
    @pytest.mark.parametrize(
        "form,char,expected",
        [
            (ONE, (1,), 0),
            (ONE, (3,), 4),
            (ONE, (-1,), 0),
            (H, (0, 0), 0),
            (E8, (0,) * 8, 4),
        ],
    )
    def test_required_beta(self, form, char, expected):
        assert gm_required_beta(form, char) == expected

    def test_rejects_non_characteristic(self):
        with pytest.raises(NotCharacteristicError):
            gm_required_beta(ONE, (2,))

    def test_rejects_a_vector_of_the_wrong_length(self):
        with pytest.raises(DimensionMismatchError, match=r"^form has dim 1, vector has length 2$"):
            gm_required_beta(ONE, (1, 1))

    def test_check_against_enhancements(self):
        torus_even = Enhancement(hyperbolic_form(1), (0, 0))  # beta 0
        torus_odd = Enhancement(hyperbolic_form(1), (2, 2))  # beta 4
        rp2 = Enhancement(crosscap_form(1), (1,))  # beta 1
        genus2 = Enhancement(hyperbolic_form(2), (2, 2, 2, 2))  # beta 0
        assert gm_check(ONE, (1,), torus_even)
        assert not gm_check(ONE, (1,), rp2)
        assert gm_check(E8, (0,) * 8, torus_odd)
        assert not gm_check(E8, (0,) * 8, genus2)

    def test_van_der_blij(self):
        # c.c = signature (mod 8) for every characteristic vector in the box
        for m in TEST_LIBRARY:
            sig = signature(m)
            for c in characteristic_candidates(m, bound=3 if m.dim <= 6 else 2):
                assert is_characteristic(m, c)
                assert (naive_pair(m.gram, c, c) - sig) % 8 == 0

    def test_required_beta_is_always_0_or_4(self):
        # van der Blij makes (c.c - sign)/2 a multiple of 4
        for m in TEST_LIBRARY[:10]:
            for c in characteristic_candidates(m, bound=2):
                assert gm_required_beta(m, c) in (0, 4)

    def test_shift_by_even_vectors(self):
        # required beta moves by 2*(c.v + v.v) when c moves by 2v
        rng = random.Random(97)
        for m in TEST_LIBRARY:
            base = characteristic_class_mod2(m)
            for _ in range(25):
                v = tuple(rng.randint(-2, 2) for _ in range(m.dim))
                shifted = tuple(b + 2 * x for b, x in zip(base, v))
                cv, vv = naive_pair(m.gram, base, v), naive_pair(m.gram, v, v)
                expected = (gm_required_beta(m, base) + 2 * (cv + vv)) % 8
                assert gm_required_beta(m, shifted) == expected

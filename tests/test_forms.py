import copy
import json
import pickle
import random

import pytest

import pinquad.forms
from pinquad.errors import (
    DegenerateFormError,
    DimensionMismatchError,
    LimitError,
    SurgeryObstructionError,
)
from pinquad.f2 import F2Vector, Subspace
from pinquad.forms import (
    BilinearForm,
    Covector,
    Enhancement,
    crosscap_form,
    enumerate_enhancements,
    eval_q,
    hyperbolic_form,
    isotropic_reduction,
    poincare_dual,
    torsor_act,
    value_table,
)
from oracles import (
    all_enhancement_values,
    bitmask,
    block_sum,
    law_table,
    naive_dot,
    naive_mat_vec,
    naive_nondegenerate,
    naive_q,
    random_enhancement,
    rebase,
    reference_reduction,
    spanned,
    standard_grams,
)

TORUS = hyperbolic_form(1)
RP2 = crosscap_form(1)
KLEIN = crosscap_form(2)


def vec(*coords):
    return F2Vector(len(coords), bitmask(coords))


def cov(*coords):
    return Covector(len(coords), bitmask(coords))


def obstruction(gram, values, c_bits):
    """The reason surgery on c is refused, from the oracles; None for an admissible class."""
    if c_bits == 0:
        return "zero class"
    if naive_dot(gram, c_bits, c_bits):
        return "c.c != 0"
    return "q(c) != 0" if naive_q(gram, values, c_bits) else None


def orthogonal_sum(q1, q2):
    """q1 + q2 on the block sum of their forms, laid out by the oracles' ``block_sum``."""
    gram = block_sum([q1.form.gram, q2.form.gram])
    return Enhancement(BilinearForm.from_rows(gram), q1.values + q2.values)


class TestBilinearForm:
    def test_rejects_asymmetric_gram(self):
        with pytest.raises(ValueError):
            BilinearForm.from_rows([[0, 1], [0, 0]])

    def test_hyperbolic_basis_vectors_are_isotropic(self):
        form = hyperbolic_form(3)
        for i in range(6):
            assert naive_dot(form.gram, 1 << i, 1 << i) == 0

    def test_crosscap_basis_vectors_self_intersect(self):
        form = crosscap_form(3)
        for i in range(3):
            assert naive_dot(form.gram, 1 << i, 1 << i) == 1

    def test_surface_forms_refuse_bad_counts(self):
        with pytest.raises(ValueError, match=r"^genus must be nonnegative$"):
            hyperbolic_form(-1)
        with pytest.raises(ValueError, match=r"^need at least one crosscap$"):
            crosscap_form(0)

    def test_json_roundtrip(self):
        data = json.loads(json.dumps(TORUS.to_json()))
        assert BilinearForm.from_json(data) == TORUS

    @pytest.mark.parametrize(
        "dim,gram,message",
        [
            (2, ((0, 1), (1,)), "Gram matrix is not 2x2"),
            (3, ((0, 0, 0), (0, 0, 0)), "Gram matrix is not 3x3"),
            (2, ((0, 2), (2, 0)), "Gram entry (0,1) is 2, expected a bit"),
            (2, ((0, 1), (0, 0)), "Gram matrix not symmetric at (0,1)"),
            # the first fault in row-major order wins; at one entry the bit check comes first
            (3, ((0, 1, 0), (0, 0, 0), (0, 0, 5)), "Gram matrix not symmetric at (0,1)"),
            (3, ((0, 0, 0), (0, 3, 1), (0, 0, 0)), "Gram entry (1,1) is 3, expected a bit"),
            (2, ((0, 0), (5, 0)), "Gram matrix not symmetric at (0,1)"),
            (2, ((0, -1), (0, 0)), "Gram entry (0,1) is -1, expected a bit"),
            (2, ((0, 0), (0, 256)), "Gram entry (1,1) is 256, expected a bit"),
        ],
    )
    def test_construction_messages(self, dim, gram, message):
        with pytest.raises(ValueError) as info:
            BilinearForm(dim, gram)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "dim,gram",
        [
            (2, ((0, 1.0), (1.0, 0))),
            (1, ((0.0,),)),
            (2, ((0, 1), (1.0, 0))),
            (1, (("1",),)),
            (2, ([0, 1], [1, 0.5])),
        ],
        ids=["floats", "float_zero", "one_float", "string", "list_rows"],
    )
    def test_refuses_non_integer_entries(self, dim, gram):
        with pytest.raises(TypeError):
            BilinearForm(dim, gram)

    def test_booleans_are_bits(self):
        form = BilinearForm(2, ((False, True), (True, False)))
        assert form == TORUS and hash(form) == hash(TORUS)
        assert form.row_masks == (2, 1)

    def test_row_masks(self):
        rng = random.Random(6)
        for _ in range(200):
            gram = random_enhancement(rng, rng.randint(0, 32), "dense")[0]
            form = BilinearForm.from_rows(gram)
            assert form.row_masks == tuple(map(bitmask, gram))


def first_fault(dim, gram):
    """(exception type, message) a row-major scan names first, or None for a valid matrix."""
    if len(gram) != dim or any(len(r) != dim for r in gram):
        return ValueError, f"Gram matrix is not {dim}x{dim}"
    for i in range(dim):
        for j in range(dim):
            x = gram[i][j]
            if not hasattr(x, "__index__"):  # named as the interpreter names a type
                name = type(x).__name__
                if type(x).__module__ != "builtins":
                    name = f"{type(x).__module__}.{name}"
                return TypeError, f"'{name}' object cannot be interpreted as an integer"
            if x not in (0, 1):
                return ValueError, f"Gram entry ({i},{j}) is {x}, expected a bit"
            if x != gram[j][i]:
                return ValueError, f"Gram matrix not symmetric at ({i},{j})"
    return None


def faulty_grams(rng, n):
    """(dim, rows) with one fault each: a bad entry, an asymmetric pair, a ragged row, a bad dim."""
    gram = random_enhancement(rng, n, "dense")[0]

    def with_row(i, row):
        return [row if k == i else r for k, r in enumerate(gram)]

    cases = [(n + 1, gram)] + [(n - 1, gram)] * (n > 0)
    if n:
        i, j = rng.randrange(n), rng.randrange(n)
        row = gram[i]
        cases += [(n, with_row(i, row[:j] + [bad] + row[j + 1 :])) for bad in (2, 256, -1, 1.0)]
        cases += [(n, with_row(i, row[:-1])), (n, with_row(i, row + [0]))]
    if n > 1:
        i, j = rng.sample(range(n), 2)
        row = gram[i]
        cases.append((n, with_row(i, row[:j] + [1 - row[j]] + row[j + 1 :])))
    return cases


def as_tuples(rows):
    return tuple(map(tuple, rows))


def as_arrays(rows):
    np = pytest.importorskip("numpy")
    if len({len(r) for r in rows}) > 1:  # ragged: a list of row arrays
        return [np.array(r) for r in rows]
    return np.array(rows)


CONTAINERS = pytest.mark.parametrize(
    "container", [as_tuples, list, as_arrays], ids=["tuples", "lists", "numpy"]
)


def seeded_forms(seed, count=40, max_dim=64):
    """Gram tuples of random forms of rank up to max_dim, moved by a random basis; every
    other one degenerate, q on its radical alternately 0 and not."""
    rng = random.Random(seed)
    for k in range(count):
        kind = ("nondegenerate", "radical_q2", "nondegenerate", "radical_q0")[k % 4]
        yield as_tuples(random_enhancement(rng, rng.randint(2, max_dim), kind)[0])


class TestMaskConstructor:
    """A form built from trusted row masks is the form built from its Gram tuple."""

    def test_equals_the_form_of_its_gram_tuple(self):
        clones = (lambda o: pickle.loads(pickle.dumps(o)), copy.copy, copy.deepcopy)
        for gram in seeded_forms(31):
            parsed = BilinearForm(len(gram), gram)
            built = BilinearForm._from_masks(parsed.row_masks)
            assert type(built) is BilinearForm and built.dim == len(gram)
            assert built == parsed and hash(built) == hash(parsed)
            assert built.gram == parsed.gram == gram and built.to_json() == parsed.to_json()
            assert built._diag == parsed._diag == bytes(gram[i][i] for i in range(len(gram)))
            for clone in clones:
                for form in (parsed, built):
                    back = clone(form)
                    assert type(back) is BilinearForm and back == parsed
                    assert hash(back) == hash(parsed) and back._diag == parsed._diag

    def test_equality_and_hashing_never_build_the_gram_view(self, monkeypatch):
        # a form compares by its masks: rebuilding Gram tuples on == cost the benchmark 12%
        forms = [BilinearForm(len(g), g) for g in seeded_forms(32, count=10, max_dim=24)]
        qs = [Enhancement(f, f._diag) for f in forms]

        def no_view(self):
            raise AssertionError("the Gram view was built")

        monkeypatch.setattr(BilinearForm, "gram", property(no_view))
        for f, q in zip(forms, qs):
            twin = BilinearForm._from_masks(f.row_masks)
            assert f == twin and hash(f) == hash(twin) and not f != twin
            assert q == Enhancement(twin, q.values) and hash(q) == hash(Enhancement(twin, q.values))
            assert pickle.loads(pickle.dumps(q)) == q and copy.deepcopy(f) == f
        twins = {BilinearForm._from_masks(f.row_masks) for f in forms}
        assert len(set(forms) | twins) == len({f.row_masks for f in forms})
        with pytest.raises(AssertionError, match="Gram view"):
            repr(forms[0])


class TestGramCheck:
    """The one-parse check against a per-entry loop, for rows as tuples, lists and arrays."""

    @CONTAINERS
    def test_valid_forms_match_a_per_entry_loop(self, container):
        rng = random.Random(25)
        for n in range(41):
            gram = random_enhancement(rng, n, "dense")[0]
            form = BilinearForm(n, container(gram))
            assert form.row_masks == tuple(map(bitmask, gram))
            reference = BilinearForm(n, as_tuples(gram))
            assert form.gram == reference.gram == as_tuples(gram)
            assert all(type(x) is int for row in form.gram for x in row)
            assert form == reference and hash(form) == hash(reference)

    @CONTAINERS
    def test_faults_are_named_as_a_row_major_scan_names_them(self, container):
        rng = random.Random(26)
        for n in range(41):
            for dim, rows in faulty_grams(rng, n):
                gram = container(rows)
                kind, message = first_fault(dim, gram)
                with pytest.raises(kind) as info:
                    BilinearForm(dim, gram)
                assert str(info.value) == message

    def test_a_tuple_of_row_arrays(self):
        # at dim 1 such rows pass the transpose test: the entries, not the arrays' buffers, count
        np = pytest.importorskip("numpy")
        rng = random.Random(27)
        for n in range(41):
            gram = random_enhancement(rng, n, "dense")[0]
            form = BilinearForm(n, tuple(map(np.array, gram)))
            reference = BilinearForm.from_rows(gram)
            assert form == reference and hash(form) == hash(reference)
            assert all(type(row) is tuple for row in form.gram)
            for dim, rows in faulty_grams(rng, n):
                rows = tuple(map(np.array, rows))
                kind, message = first_fault(dim, rows)
                with pytest.raises(kind) as info:
                    BilinearForm(dim, rows)
                assert str(info.value) == message
        for x in (2, 256, 257, -1):  # 256 is the bytes 00 01 00 .. of an int64
            with pytest.raises(ValueError, match=rf"^Gram entry \(0,0\) is {x}, expected a bit$"):
                BilinearForm(1, (np.array([x]),))


class TestEnhancementConstruction:
    def test_parity_constraint_enforced(self):
        with pytest.raises(ValueError, match="parity"):
            Enhancement(RP2, (0,))
        with pytest.raises(ValueError, match="parity"):
            Enhancement(TORUS, (1, 0))

    def test_value_range(self):
        with pytest.raises(ValueError):
            Enhancement(RP2, (5,))

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Enhancement(TORUS, (0,))

    @pytest.mark.parametrize(
        "form,values,kind,message",
        [
            (TORUS, (0, 4), ValueError, "basis value 4 at index 1 is not in Z/4"),
            (TORUS, (-1, 0), ValueError, "basis value -1 at index 0 is not in Z/4"),
            (TORUS, (0, 256), ValueError, "basis value 256 at index 1 is not in Z/4"),
            (TORUS, (2, 1), ValueError, "parity constraint violated at index 1: q(e1) = 1 but e1.e1 = 0"),
            (KLEIN, (1, 2), ValueError, "parity constraint violated at index 1: q(e1) = 2 but e1.e1 = 1"),
            (TORUS, (2.0, 0), TypeError, None),
            (TORUS, ("0", 0), TypeError, None),
            (TORUS, (0, None), TypeError, None),
            (TORUS, (0,), DimensionMismatchError, "form has dim 2, got 1 basis values"),
            (TORUS, (0, 0, 5), DimensionMismatchError, "form has dim 2, got 3 basis values"),
            (TORUS, (2.0,), DimensionMismatchError, "form has dim 2, got 1 basis values"),
        ],
        ids=["4", "-1", "256", "parity-even", "parity-odd", "float", "str", "None", "short", "long",
             "short-float"],
    )
    def test_faults_are_named(self, form, values, kind, message):
        # the length first, then each value in order: its range, then its parity
        with pytest.raises(kind) as info:
            Enhancement(form, values)
        if message is not None:
            assert str(info.value) == message

    def test_values_are_stored_as_ints(self):
        np = pytest.importorskip("numpy")
        for values in ((np.int64(2), 0), np.array([2, 0]), (2, False), iter((2, 0)), b"\2\0"):
            q = Enhancement(TORUS, values)
            assert q == Enhancement(TORUS, (2, 0)) and [type(v) for v in q.values] == [int, int]
            assert repr(q) == repr(Enhancement(TORUS, (2, 0)))
        with pytest.raises(TypeError):  # refused like a Gram entry: a numpy bool has no __index__
            Enhancement(RP2, (np.True_,))

    def test_json_roundtrip(self):
        q = Enhancement(KLEIN, (1, 3))
        data = json.loads(json.dumps(q.to_json()))
        assert Enhancement.from_json(data) == q


class TestEvalQ:
    def test_zero_class(self):
        for q in enumerate_enhancements(KLEIN):
            assert eval_q(q, vec(0, 0)) == 0

    def test_torus_cross_term(self):
        # q(a+b) = q(a) + q(b) + 2*(a.b) = 0 + 0 + 2
        q = Enhancement(TORUS, (0, 0))
        assert eval_q(q, vec(1, 1)) == 2

    def test_klein_values_wrap(self):
        # 1 + 3 + 2*0 = 4 = 0 in Z/4
        q = Enhancement(KLEIN, (1, 3))
        assert eval_q(q, vec(1, 1)) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            eval_q(Enhancement(RP2, (1,)), vec(1, 0))

    @pytest.mark.parametrize("gram", standard_grams(5), ids=lambda g: f"dim{len(g)}")
    def test_matches_law_construction(self, gram):
        form = BilinearForm.from_rows(gram)
        n = form.dim
        for values in all_enhancement_values(gram):
            q = Enhancement(form, values)
            expected = law_table(gram, values)
            got = [eval_q(q, F2Vector(n, x)) for x in range(1 << n)]
            assert got == expected
            assert value_table(q) == expected


class TestEnumerateEnhancements:
    def test_rp2(self):
        assert [q.values for q in enumerate_enhancements(RP2)] == [(1,), (3,)]

    def test_torus_count_and_parity(self):
        qs = list(enumerate_enhancements(TORUS))
        assert len(qs) == 4
        assert {q.values for q in qs} == {(0, 0), (2, 0), (0, 2), (2, 2)}

    def test_dim_zero(self):
        qs = list(enumerate_enhancements(BilinearForm(0, ())))
        assert qs == [Enhancement(BilinearForm(0, ()), ())]

    def test_counts(self):
        for gram in standard_grams(4):
            form = BilinearForm.from_rows(gram)
            qs = list(enumerate_enhancements(form))
            assert len(qs) == 1 << form.dim
            assert len(set(qs)) == len(qs)

    def test_guard(self):
        big = crosscap_form(13)
        with pytest.raises(LimitError):  # at the call, before any enhancement is asked for
            enumerate_enhancements(big)


class TestTorsorAction:
    def test_shifts_all_values(self):
        # q'(x) = q(x) + 2<y, x> for every class, not just basis vectors
        for gram in standard_grams(4):
            form = BilinearForm.from_rows(gram)
            n = form.dim
            for q in enumerate_enhancements(form):
                for y_bits in range(1 << n):
                    y = Covector(n, y_bits)
                    acted = torsor_act(q, y)
                    for x in range(1 << n):
                        xv = F2Vector(n, x)
                        shift = 2 * ((y.bits & x).bit_count() & 1)
                        assert eval_q(acted, xv) == (eval_q(q, xv) + shift) % 4

    def test_free_and_transitive(self):
        for gram in standard_grams(4):
            form = BilinearForm.from_rows(gram)
            q0 = next(enumerate_enhancements(form))
            hit = {torsor_act(q0, Covector(form.dim, y)) for y in range(1 << form.dim)}
            assert hit == set(enumerate_enhancements(form))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            torsor_act(Enhancement(RP2, (1,)), cov(1, 0))


class TestPoincareDual:
    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateFormError):
            poincare_dual(BilinearForm.from_rows([[0]]), cov(1))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError, match=r"^form dim 2, covector dim 3$"):
            poincare_dual(TORUS, cov(1, 0, 0))

    def test_random_bases(self):
        # re-based forms to rank 32: the split's pieces are not basis vectors there
        rng = random.Random("dual-rebased")
        for _ in range(200):
            gram, *_ = random_enhancement(rng, rng.randint(1, 32))
            form, rows = BilinearForm.from_rows(gram), list(map(bitmask, gram))
            assert naive_nondegenerate(gram)
            for _ in range(3):
                y = Covector(form.dim, rng.getrandbits(form.dim))
                assert naive_mat_vec(rows, poincare_dual(form, y).bits) == y.bits, (gram, y)

    def test_random_degenerate_bases(self):
        rng = random.Random("dual-degenerate")
        for _ in range(100):
            n, kind = rng.randint(1, 32), rng.choice(("radical_q0", "radical_q2"))
            gram, *_ = random_enhancement(rng, n, kind)
            form = BilinearForm.from_rows(gram)
            assert not naive_nondegenerate(gram)
            with pytest.raises(DegenerateFormError):
                poincare_dual(form, Covector(form.dim, rng.getrandbits(form.dim)))


class TestRestrict:
    """The oracles' restriction, ``rebase`` on the basis of a subspace, which the surgery
    tests below compare ``isotropic_reduction`` against."""

    def test_zero_subspace(self):
        assert rebase(TORUS.gram, (0, 0), Subspace(2, ()).row_masks) == ([], ())

    def test_torus_line(self):
        assert rebase(TORUS.gram, (0, 2), spanned([vec(1, 0)]).row_masks) == ([[0]], (0,))

    def test_klein_diagonal_line(self):
        assert rebase(KLEIN.gram, (1, 1), spanned([vec(1, 1)]).row_masks) == ([[0]], (2,))

    def test_restriction_agrees_on_elements(self):
        form = hyperbolic_form(2)
        q = Enhancement(form, (0, 2, 2, 0))
        s = spanned([vec(1, 0, 0, 0), vec(0, 0, 1, 1)])
        gram, values = rebase(form.gram, q.values, s.row_masks)
        r = Enhancement(BilinearForm.from_rows(gram), values)
        # evaluating the restriction on coordinates matches evaluating q on the classes
        for sel in range(4):
            inner = F2Vector(2, sel)
            outer = 0
            for i in range(2):
                if (sel >> i) & 1:
                    outer ^= s.row_masks[i]
            assert eval_q(r, inner) == eval_q(q, F2Vector(4, outer))


class TestDirectSum:
    def test_block_diagonal_layout(self):
        # the surface forms are built from row masks: pin their Gram matrices outright, and
        # that each equals the form parsed from its Gram tuple
        assert hyperbolic_form(0).gram == ()
        assert hyperbolic_form(2).gram == ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
        assert crosscap_form(3).gram == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        for form in [hyperbolic_form(g) for g in range(5)] + [crosscap_form(k) for k in range(1, 5)]:
            assert form == BilinearForm(form.dim, form.gram) and form._diag == bytes(
                form.gram[i][i] for i in range(form.dim)
            )

    def test_eval_splits(self):
        # q on an orthogonal sum is the sum of q on the summands
        q1 = Enhancement(TORUS, (2, 0))
        q2 = Enhancement(KLEIN, (1, 3))
        s = orthogonal_sum(q1, q2)
        for x1 in range(4):
            for x2 in range(4):
                whole = F2Vector(4, x1 | (x2 << 2))
                split = (eval_q(q1, F2Vector(2, x1)) + eval_q(q2, F2Vector(2, x2))) % 4
                assert eval_q(s, whole) == split


class TestIsotropicReduction:
    def test_dimension_mismatch(self):
        q = Enhancement(TORUS, (0, 0))
        with pytest.raises(DimensionMismatchError, match=r"^enhancement dim 2, class dim 3$"):
            isotropic_reduction(q, vec(1, 0, 0))

    def test_zero_class_rejected(self):
        q = Enhancement(TORUS, (0, 0))
        with pytest.raises(SurgeryObstructionError) as err:
            isotropic_reduction(q, vec(0, 0))
        assert err.value.reason == "zero class"

    def test_non_isotropic_rejected(self):
        q = Enhancement(RP2, (1,))
        with pytest.raises(SurgeryObstructionError) as err:
            isotropic_reduction(q, vec(1))
        assert err.value.reason == "c.c != 0"

    def test_nonzero_value_rejected(self):
        q = Enhancement(TORUS, (2, 2))
        with pytest.raises(SurgeryObstructionError) as err:
            isotropic_reduction(q, vec(1, 1))
        assert err.value.reason == "q(c) != 0"

    def test_degenerate_rejected(self):
        # after the obstructions: the zero class is refused as such, an admissible class for
        # the degenerate form
        q = Enhancement(BilinearForm.from_rows([[0, 0], [0, 0]]), (0, 0))
        with pytest.raises(SurgeryObstructionError) as err:
            isotropic_reduction(q, vec(0, 0))
        assert err.value.reason == "zero class"
        with pytest.raises(DegenerateFormError):
            isotropic_reduction(q, vec(1, 0))

    def test_obstruction_before_degeneracy_on_random_forms(self):
        # degenerate forms to rank 32 with q 0 or 2 on the radical, in random bases: every
        # class to rank 6, seeded random ones above; an obstructed class raises the oracle's
        # reason, an admissible one in the radical DegenerateFormError, and an admissible one
        # off it reduces to c-perp/c as the kernel elimination does
        rng = random.Random(29)
        for kind in ("radical_q0", "radical_q2"):
            seen = set()
            for n in list(range(1, 33)) * 2:
                gram, values, *_ = random_enhancement(rng, n, kind)
                masks = list(map(bitmask, gram))
                q = Enhancement(BilinearForm.from_rows(gram), values)
                classes = range(1 << n) if n <= 6 else [0] + [rng.getrandbits(n) for _ in range(40)]
                for c_bits in classes:
                    c = F2Vector(n, c_bits)
                    reason = obstruction(gram, values, c_bits)
                    if reason is None and not naive_mat_vec(masks, c_bits):
                        reason = "in the radical"
                        with pytest.raises(DegenerateFormError):
                            isotropic_reduction(q, c)
                    elif reason is None:
                        r = isotropic_reduction(q, c)
                        assert (r.form.gram, r.values) == reference_reduction(q, c)
                    else:
                        with pytest.raises(SurgeryObstructionError) as err:
                            isotropic_reduction(q, c)
                        assert err.value.reason == reason
                    seen.add(reason)
            assert seen == {"zero class", "c.c != 0", "q(c) != 0", "in the radical", None}

    def test_obstructed_class_costs_no_split(self, monkeypatch):
        # rank 32 in a random basis: each obstruction refused, and an admissible class
        # reduced, with no split
        rng = random.Random(32)
        gram, values, *_ = random_enhancement(rng, 32)
        q = Enhancement(BilinearForm.from_rows(gram), values)
        splits = []
        split = pinquad.forms._split
        monkeypatch.setattr(pinquad.forms, "_split", lambda *a: splits.append(a) or split(*a))
        classes = {}
        while len(classes) < 4:
            c_bits = rng.getrandbits(32) if classes else 0
            classes.setdefault(obstruction(gram, values, c_bits), c_bits)
        admissible = classes.pop(None)
        for reason, c_bits in classes.items():
            with pytest.raises(SurgeryObstructionError) as err:
                isotropic_reduction(q, F2Vector(32, c_bits))
            assert err.value.reason == reason
        isotropic_reduction(q, F2Vector(32, admissible))
        assert splits == []

    def test_matches_kernel_elimination(self):
        # every admissible class of every enhancement of the standard forms to rank 6, of the
        # odd rank-2 forms with an isotropic class, and of sums re-based to rank 5; among them,
        # with h the top bit of c-perp and p the pivot of c, the edges of the row formula
        rng = random.Random(5)
        rebased = [random_enhancement(rng, 5)[0] for _ in range(3)]
        edges = set()
        for gram in standard_grams(6) + [[[1, 1], [1, 0]], [[0, 1], [1, 1]]] + rebased:
            form = BilinearForm.from_rows(gram)
            n = form.dim
            masks = list(map(bitmask, gram))
            for q in enumerate_enhancements(form):
                for c_bits in range(1, 1 << n):
                    c = F2Vector(n, c_bits)
                    if naive_dot(gram, c_bits, c_bits) or eval_q(q, c):
                        continue
                    r = isotropic_reduction(q, c)
                    assert (r.form.gram, r.values) == reference_reduction(q, c)
                    assert r.form.dim == n - 2
                    perp = naive_mat_vec(masks, c_bits)
                    p, h = (c_bits & -c_bits).bit_length() - 1, perp.bit_length() - 1
                    if h < p and perp != 1 << h:
                        edges.add("h below p, c-perp wider than e_h")
                    if perp >> p & 1:
                        edges.add("c-perp has bit p")
                    if n == 2:
                        edges.add("rank 2 reduced to rank 0")
        assert len(edges) == 3

    def test_matches_kernel_elimination_on_rebased_forms(self):
        # random classes, obstructed ones included, on nondegenerate forms to rank 32
        # written in random bases, where c's functional has no block structure
        rng = random.Random(9)
        for _ in range(200):
            gram, values, *_ = random_enhancement(rng, rng.randint(2, 32))
            n = len(gram)
            q = Enhancement(BilinearForm.from_rows(gram), values)
            for _ in range(40):
                c_bits = rng.randrange(1, 1 << n)
                c = F2Vector(n, c_bits)
                if naive_dot(gram, c_bits, c_bits):
                    reason = "c.c != 0"
                elif naive_q(gram, values, c_bits):
                    reason = "q(c) != 0"
                else:
                    r = isotropic_reduction(q, c)
                    assert (r.form.gram, r.values) == reference_reduction(q, c)
                    continue
                with pytest.raises(SurgeryObstructionError) as err:
                    isotropic_reduction(q, c)
                assert err.value.reason == reason

    def test_descends_to_cosets(self):
        # q agrees on both representatives of each coset of c inside c-perp,
        # for every admissible class of every enhancement up to dim 8
        for gram in standard_grams(8):
            if not naive_nondegenerate(gram):
                continue
            form = BilinearForm.from_rows(gram)
            n = form.dim
            for q in enumerate_enhancements(form):
                table = value_table(q)
                for c_bits in range(1, 1 << n):
                    if table[c_bits]:
                        continue  # q(c) = 0 already forces c.c = 0
                    perp = naive_mat_vec(form.row_masks, c_bits)
                    for x_bits in range(1 << n):
                        if (perp & x_bits).bit_count() & 1:
                            continue
                        assert table[x_bits] == table[x_bits ^ c_bits]

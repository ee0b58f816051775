"""Value semantics of the package's immutable classes.

Each class compares equal only to an object of exactly its own class with
equal fields, hashes its fields, prints them in a fixed ``repr``, refuses
assignment and deletion, and survives pickle, copy and deepcopy.  Values
computed from the fields (a form's row masks, its nondegeneracy, a
unimodular form's signature) take no part in any of this.
"""
import copy
import pickle

import pytest

import pinquad.forms
from pinquad.brown import GaussSumResult, gauss_sum
from pinquad.f2 import F2Matrix, F2Vector, Subspace
from pinquad.forms import BilinearForm, Covector, Enhancement
from pinquad.fourmanifold import FORM_LIBRARY, UnimodularForm, signature

TORUS = BilinearForm(2, ((0, 1), (1, 0)))

# (object, its repr, its fields in order)
CASES = [
    (F2Vector(3, 5), "F2Vector(dim=3, bits=5)", {"dim": 3, "bits": 5}),
    (F2Vector(0, 0), "F2Vector(dim=0, bits=0)", {"dim": 0, "bits": 0}),
    (Covector(3, 5), "Covector(dim=3, bits=5)", {"dim": 3, "bits": 5}),
    (
        F2Matrix(2, 3, (5, 2)),
        "F2Matrix(rows=2, cols=3, row_masks=(5, 2))",
        {"rows": 2, "cols": 3, "row_masks": (5, 2)},
    ),
    (
        Subspace(4, (5, 10)),
        "Subspace(ambient_dim=4, row_masks=(5, 10))",
        {"ambient_dim": 4, "row_masks": (5, 10)},
    ),
    (Subspace(3, ()), "Subspace(ambient_dim=3, row_masks=())", {"ambient_dim": 3, "row_masks": ()}),
    (TORUS, "BilinearForm(dim=2, gram=((0, 1), (1, 0)))", {"dim": 2, "gram": ((0, 1), (1, 0))}),
    (
        Enhancement(TORUS, (0, 2)),
        "Enhancement(form=BilinearForm(dim=2, gram=((0, 1), (1, 0))), values=(0, 2))",
        {"form": TORUS, "values": (0, 2)},
    ),
    (
        gauss_sum(Enhancement(TORUS, (0, 2))),
        "GaussSumResult(n=2, counts=(3, 0, 1, 0))",
        {"n": 2, "counts": (3, 0, 1, 0)},
    ),
    (
        UnimodularForm(2, ((0, 1), (1, 0))),
        "UnimodularForm(dim=2, gram=((0, 1), (1, 0)))",
        {"dim": 2, "gram": ((0, 1), (1, 0))},
    ),
    # entries are normalised to ints before they are stored
    (UnimodularForm(1, ((True,),)), "UnimodularForm(dim=1, gram=((1,),))", {"dim": 1, "gram": ((1,),)}),
]
IDS = [type(obj).__name__ for obj, _, _ in CASES]


@pytest.mark.parametrize("obj,text,fields", CASES, ids=IDS)
def test_repr(obj, text, fields):
    assert repr(obj) == text


@pytest.mark.parametrize("obj,text,fields", CASES, ids=IDS)
def test_equality_and_hash_are_over_the_fields(obj, text, fields):
    same = type(obj)(**fields)
    assert same == obj and not same != obj
    assert hash(same) == hash(obj) == hash(tuple(fields.values()))
    assert obj != tuple(fields.values())
    assert obj != object()


@pytest.mark.parametrize(
    "a,b",
    [
        (F2Vector(3, 5), F2Vector(3, 4)),
        (F2Vector(3, 5), F2Vector(4, 5)),
        (F2Matrix(2, 3, (5, 2)), F2Matrix(2, 3, (5, 3))),
        (Subspace(4, (5, 10)), Subspace(4, (5,))),
        (TORUS, BilinearForm(2, ((1, 1), (1, 0)))),
        (Enhancement(TORUS, (0, 2)), Enhancement(TORUS, (2, 2))),
        (GaussSumResult(2, (3, 0, 1, 0)), GaussSumResult(2, (1, 0, 3, 0))),
        (FORM_LIBRARY["1"], FORM_LIBRARY["-1"]),
    ],
)
def test_a_different_field_is_a_different_value(a, b):
    assert a != b and not a == b


@pytest.mark.parametrize(
    "a,b",
    [
        (Covector(3, 5), F2Vector(3, 5)),
        (BilinearForm(2, ((0, 1), (1, 0))), UnimodularForm(2, ((0, 1), (1, 0)))),
    ],
)
def test_equal_fields_of_another_class_are_not_equal(a, b):
    assert a != b and b != a
    assert not a == b and not b == a
    assert len({a, b}) == 2


@pytest.mark.parametrize("obj,text,fields", CASES, ids=IDS)
def test_fields_are_read_only(obj, text, fields):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert repr(obj) == text


@pytest.mark.parametrize(
    "obj,text,fields",
    [c for c in CASES if type(c[0]) is not Covector],
    ids=[i for i in IDS if i != "Covector"],
)
def test_no_new_attributes(obj, text, fields):
    with pytest.raises(AttributeError):
        obj.extra = 1


@pytest.mark.parametrize("obj,text,fields", CASES, ids=IDS)
@pytest.mark.parametrize(
    "clone",
    [lambda o: pickle.loads(pickle.dumps(o)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_round_trips(obj, text, fields, clone):
    back = clone(obj)
    assert type(back) is type(obj)
    assert back == obj and hash(back) == hash(obj) and repr(back) == text


def test_derived_values_survive_round_trips():
    form = BilinearForm(3, ((1, 1, 0), (1, 0, 0), (0, 0, 0)))
    assert not form.nondegenerate
    for clone in (lambda o: pickle.loads(pickle.dumps(o)), copy.copy, copy.deepcopy):
        back = clone(form)
        assert back.row_masks == form.row_masks == (3, 1, 0)
        assert not back.nondegenerate
        assert signature(clone(FORM_LIBRARY["E8"])) == 8
        assert signature(clone(FORM_LIBRARY["-1"])) == -1


def test_equality_ignores_derived_values():
    # row masks, the cached nondegeneracy and the signature are never compared or printed
    fresh, used = BilinearForm(2, ((0, 1), (1, 0))), BilinearForm(2, ((0, 1), (1, 0)))
    assert used.nondegenerate
    assert used == fresh and hash(used) == hash(fresh) == hash((2, ((0, 1), (1, 0))))
    assert repr(used) == repr(fresh) and pickle.loads(pickle.dumps(used)) == fresh
    e8 = FORM_LIBRARY["E8"]
    assert UnimodularForm(8, e8.gram) == e8 and hash(e8) == hash((8, e8.gram))
    assert "signature" not in repr(e8)


def test_nondegenerate_is_computed_once(monkeypatch):
    calls = []
    real = pinquad.forms.rank

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(pinquad.forms, "rank", counting)
    form = BilinearForm(3, ((1, 1, 0), (1, 0, 0), (0, 0, 1)))
    assert form.nondegenerate and form.nondegenerate and form.nondegenerate
    assert len(calls) == 1

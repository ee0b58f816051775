import ast
import contextlib
import errno
import io
import json
import os
import random
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pinquad
import pinquad.brown
import pinquad.cli as cli
import pinquad.f2
import pinquad.forms
import pinquad.fourmanifold
import pinquad.vanishing
from pinquad.brown import arf_from_brown, brown_invariant, gauss_sum
from pinquad.cli import EXIT_CODES, main
from pinquad.errors import DegenerateFormError, PinquadError
from pinquad.f2 import F2Matrix, F2Vector
from pinquad.forms import (
    BilinearForm,
    Covector,
    Enhancement,
    crosscap_form,
    hyperbolic_form,
    isotropic_reduction,
    poincare_dual,
)
from pinquad.vanishing import has_null_lagrangian, max_vanishing_dim

import oracles
from oracles import naive_dot, naive_q

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN_CASES = [
    (["enumerate", "--crosscaps", "1"], "enumerate_crosscaps1.txt", 0),
    (["enumerate", "--genus", "1"], "enumerate_genus1.txt", 0),
    (["enumerate", "--genus", "0"], "enumerate_genus0.txt", 0),
    (["enumerate", "--genus", "1", "--json"], "enumerate_genus1.json", 0),
    (["enumerate", "--form", str(DATA / "klein_form.json")], "enumerate_klein_form.txt", 0),
    (
        ["enumerate", "--form", str(DATA / "klein_form.json"), "--json"],
        "enumerate_klein_form.json",
        0,
    ),
    (["brown", str(DATA / "rp2_v1.json")], "brown_rp2_v1.txt", 0),
    (["brown", str(DATA / "torus_v22.json")], "brown_torus_v22.txt", 0),
    (["brown", str(DATA / "dim0.json")], "brown_dim0.txt", 0),
    (["vanishing", str(DATA / "torus_v00.json"), "--max"], "vanishing_torus_v00_max.txt", 0),
    (
        ["vanishing", str(DATA / "torus_v00.json"), "--lagrangian"],
        "vanishing_torus_v00_lagrangian.txt",
        0,
    ),
    (
        ["vanishing", str(DATA / "genus5_v0.json"), "--lagrangian"],
        "vanishing_genus5_v0_lagrangian.txt",
        0,
    ),
    (
        ["vanishing", str(DATA / "torus_v22.json"), "--lagrangian"],
        "vanishing_torus_v22_lagrangian.txt",
        0,
    ),
    (
        ["vanishing", str(DATA / "torus_v22.json"), "--lagrangian", "--json"],
        "vanishing_torus_v22_lagrangian.json",
        0,
    ),
    (["vanishing", str(DATA / "torus_v00.json"), "--dim", "3"], "vanishing_torus_v00_dim3.txt", 0),
    (
        ["vanishing", str(DATA / "torus_v00.json"), "--dim", "3", "--json"],
        "vanishing_torus_v00_dim3.json",
        0,
    ),
    (["vanishing", str(DATA / "rp2_v1.json"), "--dim", "1"], "vanishing_rp2_v1_dim1.txt", 0),
    (["vanishing", str(DATA / "torus_v00.json"), "--dim", "1"], "vanishing_torus_v00_dim1.txt", 0),
    (
        ["vanishing", str(DATA / "genus2_v0000.json"), "--dim", "2"],
        "vanishing_genus2_v0000_dim2.txt",
        0,
    ),
    (
        ["vanishing", str(DATA / "genus2_v0000.json"), "--dim", "2", "--json"],
        "vanishing_genus2_v0000_dim2.json",
        0,
    ),
    (
        ["vanishing", str(DATA / "genus5_v0.json"), "--lagrangian", "--json"],
        "vanishing_genus5_v0_lagrangian.json",
        0,
    ),
    (["gm", "--form", "1", "--char", "1"], "gm_one_char1.txt", 0),
    (
        ["gm", "--form", "E8", "--char", "0,0,0,0,0,0,0,0", "--beta", "4"],
        "gm_e8_char0_beta4.txt",
        0,
    ),
    # the E8 Cartan matrix read from a file gives what the expression E8 gives
    (
        ["gm", "--form", str(DATA / "e8_form.json"), "--char", "0,0,0,0,0,0,0,0", "--beta", "4"],
        "gm_e8_char0_beta4.txt",
        0,
    ),
    (
        ["gm", "--form", str(DATA / "e8_form.json"), "--char", "0,0,0,0,0,0,0,0", "--beta", "4"]
        + ["--json"],
        "gm_e8_char0_beta4.json",
        0,
    ),
    (["gm", "--form", "1", "--char", "3", "--beta", "0"], "gm_one_char3_beta0.txt", 1),
    (["surgery", str(DATA / "torus_v00.json"), "--class", "10"], "surgery_torus_v00_a.txt", 0),
    (
        ["surgery", str(DATA / "genus5_v0.json"), "--class", "1010000000"],
        "surgery_genus5_v0_1010000000.txt",
        0,
    ),
    (["torsor", str(DATA / "torus_v00.json"), "--covector", "10"], "torsor_torus_v00_y10.txt", 0),
    (["torsor", str(DATA / "rp2_v1.json"), "--covector", "1"], "torsor_rp2_v1_y1.txt", 0),
    # rank 24: beta answers above the Gauss-sum guard of brown, and surgery and torsor with it
    (
        ["surgery", str(DATA / "genus12_beta4.json"), "--class", "1" + "0" * 23],
        "surgery_genus12_beta4_e0.txt",
        0,
    ),
    (
        ["torsor", str(DATA / "genus12_beta4.json"), "--covector", "001" + "0" * 21],
        "torsor_genus12_beta4_e2.txt",
        0,
    ),
    (
        ["gm", "--form", "E8", "--char", ",".join("0" * 8), "--enhancement"]
        + [str(DATA / "genus12_beta4.json")],
        "gm_e8_char0_genus12_beta4.txt",
        0,
    ),
]
# a case's id is its golden's name; a later case with the same golden adds its index
GOLDEN_IDS = [
    g + (f"#{i}" if any(h == g for _, h, _ in GOLDEN_CASES[:i]) else "")
    for i, (_, g, _) in enumerate(GOLDEN_CASES)
]


@pytest.mark.parametrize("argv,golden,code", GOLDEN_CASES, ids=GOLDEN_IDS)
def test_golden_output(capsys, argv, golden, code):
    got_code, out, _err = run(capsys, *argv)
    assert got_code == code
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("argv,golden,code", GOLDEN_CASES, ids=GOLDEN_IDS)
def test_byte_determinism(capsys, argv, golden, code):
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_bit_strings_round_trip():
    # the CLI's bit strings put coordinate 0 first, read and written alike
    assert cli._parse_bits("1101", "--class") == 0b1011
    for n in range(1, 8):
        for x in range(1 << n):
            text = "".join(str(x >> i & 1) for i in range(n))
            assert cli._parse_bits(text, "--class") == x
            assert cli._basis_text([x, x], n) == f"[{text}, {text}]"
            assert cli._basis_json([x], n) == [[int(ch) for ch in text]]
    assert cli._basis_text([], 0) == "[]" and cli._basis_json([], 0) == []


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_conflicting_surface_flags(self, capsys):
        assert main(["enumerate", "--genus", "1", "--crosscaps", "2"]) == 2
        capsys.readouterr()

    def test_missing_file(self, capsys):
        code, _out, err = run(capsys, "brown", str(DATA / "missing.json"))
        assert code == 2
        assert "cannot read" in err

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _out, err = run(capsys, "brown", str(bad))
        assert code == 2
        assert "not valid JSON" in err

    def test_deeply_nested_json(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        assert deep.stat().st_size < cli.MAX_FILE_BYTES  # parsed, not refused for its size
        code, out, err = run(capsys, "brown", str(deep))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "nested too deeply" in err

    def test_parity_violating_enhancement(self, capsys, tmp_path):
        bad = tmp_path / "bad_values.json"
        bad.write_text(
            json.dumps({"form": {"dim": 1, "gram": [[1]]}, "values": [0]}), encoding="utf-8"
        )
        code, _out, err = run(capsys, "brown", str(bad))
        assert code == 2
        assert "parity" in err

    def test_degenerate_brown(self, capsys):
        code, _out, err = run(capsys, "brown", str(DATA / "degenerate.json"))
        assert code == 3
        assert "degenerate" in err

    def test_guard_exceeded(self, capsys):
        code, _out, err = run(capsys, "vanishing", str(DATA / "crosscaps11.json"), "--max")
        assert code == 4
        assert "guard" in err

    def test_lagrangian_past_the_search_guard(self, capsys, tmp_path):
        # "no" is closed-form at any rank; "yes" prints the walk's first basis, which is guarded
        code, out, err = run(capsys, "vanishing", str(DATA / "genus12_beta4.json"), "--lagrangian")
        assert (code, out, err) == (0, "no\n", "")
        h6 = tmp_path / "h6.json"
        h6.write_text(json.dumps(Enhancement(hyperbolic_form(6), (0,) * 12).to_json()))
        code, out, err = run(capsys, "vanishing", str(h6), "--lagrangian")
        assert (code, out, err) == (4, "", "error: dim 12 exceeds vanishing-search guard 10\n")

    @pytest.mark.parametrize("summands", [2_000, 20_000])
    @pytest.mark.parametrize("command", [["gm", "--char", "1"], ["enumerate"]], ids=["gm", "enumerate"])
    def test_form_expression_over_the_cap_builds_nothing(self, capsys, command, summands):
        # the summands' ranks are added up before any Gram matrix is built: a
        # 2,000 x 2,000 one would take about 60 MB, a 20,000 x 20,000 one GBs
        expr = "+".join(["1"] * summands)
        tracemalloc.start()
        try:
            code = main([command[0], "--form", expr, *command[1:]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cap = pinquad.fourmanifold.MAX_FORM_DIM
        assert (code, *capsys.readouterr()) == (
            4, "", f"error: form dimension {summands} exceeds cap {cap}\n"
        )
        assert peak < 2_000_000

    @pytest.mark.parametrize("path", ["torus_v00.json", "missing.json"])
    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_negative_dim(self, capsys, path, flags):
        # checked before the file is read, like a negative --genus
        code, out, err = run(capsys, "vanishing", str(DATA / path), "--dim", "-1", *flags)
        assert (code, out, err) == (2, "", "error: --dim must be >= 0\n")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["enumerate", "--genus", "-1"], "--genus must be >= 0"),
            (["enumerate", "--crosscaps", "0"], "--crosscaps must be >= 1"),
            (["gm", "--form", "1", "--char", "1,x"], "expected comma-separated integers, got '1,x'"),
        ],
        ids=["negative_genus", "no_crosscaps", "bad_char"],
    )
    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_bad_argument_values(self, capsys, argv, message, flags):
        code, out, err = run(capsys, *argv, *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_not_characteristic(self, capsys):
        code, _out, err = run(capsys, "gm", "--form", "1", "--char", "2")
        assert code == 5
        assert "basis vector 0" in err

    def test_unknown_form_name(self, capsys):
        code, _out, err = run(capsys, "gm", "--form", "K3", "--char", "1")
        assert code == 2
        assert "unknown form name" in err

    def test_surgery_obstructions(self, capsys):
        code, _out, err = run(capsys, "surgery", str(DATA / "torus_v22.json"), "--class", "11")
        assert code == 6
        assert "q(c) != 0" in err
        code, _out, err = run(capsys, "surgery", str(DATA / "rp2_v1.json"), "--class", "1")
        assert code == 6
        assert "c.c != 0" in err
        code, _out, err = run(capsys, "surgery", str(DATA / "torus_v00.json"), "--class", "00")
        assert code == 6
        assert "zero class" in err

    def test_torsor_dimension_mismatch(self, capsys):
        code, _out, _err = run(capsys, "torsor", str(DATA / "rp2_v1.json"), "--covector", "10")
        assert code == 2

    def test_torsor_mismatch_is_reported(self, capsys, monkeypatch):
        # a wrong dual predicts delta 0 where acting by y = 1 on RP^2 shifts beta by 6: a
        # failed self-check is a bug, exit 7 with one line on stderr, in both output modes
        monkeypatch.setattr(pinquad.forms, "poincare_dual", lambda form, y: F2Vector(form.dim, 0))
        message = "error: torsor changed beta by 6, predicted 0; this is a bug\n"
        for flags in ([], ["--json"]):
            code, out, err = run(capsys, "torsor", str(DATA / "rp2_v1.json"), "--covector", "1", *flags)
            assert (code, out, err) == (7, "", message)

    @pytest.mark.parametrize("command,flag", [("surgery", "--class"), ("torsor", "--covector")])
    @pytest.mark.parametrize("text", ["", "012", "1 0", "1_0", "0b1"])
    def test_malformed_bit_string(self, capsys, command, flag, text):
        code, out, err = run(capsys, command, str(DATA / "torus_v00.json"), flag, text)
        assert (code, out) == (2, "")
        assert err == f"error: {flag} must be a nonempty string of 0s and 1s, got {text!r}\n"

    @pytest.mark.parametrize(
        "command,flag,what", [("surgery", "--class", "class"), ("torsor", "--covector", "covector")]
    )
    def test_over_long_vector_is_a_mismatch(self, capsys, command, flag, what):
        # a class longer than the form is a dimension mismatch, found after beta
        path = DATA / "torus_v00.json"
        code, out, err = run(capsys, command, str(path), flag, "1" * 40)
        assert (code, out, err) == (2, "", f"error: enhancement dim 2, {what} dim 40\n")

    @pytest.mark.parametrize(
        "gram,message",
        [
            ([[0, 1], [0, 0]], "Gram matrix not symmetric at (0,1)"),
            ([[0, 2], [2, 0]], "Gram entry (0,1) is 2, expected a bit"),
            ([[0, 1], [1]], "Gram matrix is not 2x2"),
        ],
        ids=["asymmetric", "non_bit", "ragged"],
    )
    def test_invalid_gram_matrix(self, capsys, tmp_path, gram, message):
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"form": {"dim": 2, "gram": gram}, "values": [0, 0]}))
        code, out, err = run(capsys, "brown", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path} is not a valid enhancement: {message}\n"

    def test_every_package_error_has_an_exit_code(self):
        pending, seen = [PinquadError], []
        while pending:
            cls = pending.pop()
            pending += cls.__subclasses__()
            seen.append(cls)
        for cls in seen[1:]:
            assert any(issubclass(cls, handled) for handled, _code in EXIT_CODES), cls

    @pytest.mark.parametrize("flag", ["--genus", "--crosscaps"])
    def test_enumeration_guard_checked_before_building_the_form(self, capsys, monkeypatch, flag):
        def refuse(_n):
            raise AssertionError("form built before the enumeration guard")

        monkeypatch.setattr(pinquad.forms, "hyperbolic_form", refuse)
        monkeypatch.setattr(pinquad.forms, "crosscap_form", refuse)
        code, out, err = run(capsys, "enumerate", flag, str(10**6))
        assert code == 4
        assert out == ""
        assert err.startswith("error: dim ") and "enumeration guard 12" in err

    def test_enumeration_guard_checked_before_splitting_a_form_file(
        self, capsys, monkeypatch, tmp_path
    ):
        splits = []
        split = pinquad.forms._split
        monkeypatch.setattr(pinquad.forms, "_split", lambda *a: splits.append(a) or split(*a))
        path = tmp_path / "crosscaps13.json"
        path.write_text(json.dumps(crosscap_form(13).to_json()))
        code, out, err = run(capsys, "enumerate", "--form", str(path))
        assert (code, out, err) == (4, "", "error: dim 13 exceeds enhancement enumeration guard 12\n")
        assert splits == []

    def test_brown_builds_no_value_table(self, capsys, monkeypatch):
        def refuse(_q):
            raise AssertionError("value table built")

        monkeypatch.setattr(pinquad.forms, "value_table", refuse)
        monkeypatch.setattr(pinquad.vanishing, "value_table", refuse)
        monkeypatch.setattr(pinquad.brown, "value_table", refuse, raising=False)
        code, out, _err = run(capsys, "brown", str(DATA / "genus2_v0000.json"))
        assert code == 0
        assert out == "beta=0 A=4 B=0 n=4\n"
        q = cli._read(str(DATA / "genus2_v0000.json"), Enhancement, "enhancement")
        assert brown_invariant(q) == 0
        assert gauss_sum(q).counts == (10, 0, 6, 0)
        assert arf_from_brown(q) == 0
        assert max_vanishing_dim(q) == 2
        assert has_null_lagrangian(q)
        degenerate = cli._read(str(DATA / "degenerate.json"), Enhancement, "enhancement")
        assert max_vanishing_dim(degenerate) == 1

    def test_enhancement_answers_run_no_elimination(self, capsys, monkeypatch):
        # nondegeneracy, beta, the null dimension and the dual all come from the splitting
        def refuse(*_args):
            raise AssertionError("F2 elimination run")

        names = ("_rref", "rank", "solve", "kernel_basis")
        eliminations = [getattr(pinquad.f2, name) for name in names]
        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "pinquad"]:
            for name in names:
                if getattr(module, name, None) in eliminations:
                    monkeypatch.setattr(module, name, refuse)
        with pytest.raises(AssertionError):
            pinquad.f2.rank(F2Matrix(1, 1, (1,)))
        torus = Enhancement(BilinearForm.from_rows([[0, 1], [1, 0]]), (0, 0))
        assert torus.form.nondegenerate and not BilinearForm.from_rows([[0]]).nondegenerate
        assert poincare_dual(torus.form, Covector(2, 0b01)) == F2Vector(2, 0b10)
        assert poincare_dual(BilinearForm.from_rows([[1]]), Covector(1, 1)) == F2Vector(1, 1)
        assert isotropic_reduction(torus, F2Vector(2, 0b01)).form.dim == 0
        for argv, golden, code in GOLDEN_CASES:
            if argv[0] in ("enumerate", "surgery", "torsor"):
                got = run(capsys, *argv)[:2]
                assert got == (code, (GOLDEN / golden).read_text(encoding="utf-8")), argv
        code, out, _err = run(capsys, "brown", str(DATA / "genus2_v0000.json"))
        assert (code, out) == (0, "beta=0 A=4 B=0 n=4\n")
        code, _out, err = run(capsys, "brown", str(DATA / "degenerate.json"))
        assert code == 3 and "degenerate" in err
        q = cli._read(str(DATA / "genus2_v0000.json"), Enhancement, "enhancement")
        assert (brown_invariant(q), max_vanishing_dim(q), has_null_lagrangian(q)) == (0, 2, True)
        degenerate = cli._read(str(DATA / "degenerate.json"), Enhancement, "enhancement")
        assert max_vanishing_dim(degenerate) == 1
        for answer in (brown_invariant, has_null_lagrangian):
            with pytest.raises(DegenerateFormError):
                answer(degenerate)
        radical_q2 = Enhancement(BilinearForm.from_rows([[1, 0], [0, 0]]), (1, 2))
        assert max_vanishing_dim(radical_q2) == 0

    def test_lagrangian_tabulates_once(self, capsys, monkeypatch):
        calls = []
        table = pinquad.forms.value_table

        def counting(q):
            calls.append(q)
            return table(q)

        monkeypatch.setattr(pinquad.forms, "value_table", counting)
        monkeypatch.setattr(pinquad.vanishing, "value_table", counting)
        monkeypatch.setattr(pinquad.brown, "value_table", counting, raising=False)

        drawn = []
        walk = pinquad.vanishing._null_bases

        def counting_walk(q, d):  # --lagrangian lists nothing: it draws the witness only
            for rows in walk(q, d):
                drawn.append(rows)
                yield rows

        monkeypatch.setattr(pinquad.vanishing, "_null_bases", counting_walk)
        code, out, _err = run(capsys, "vanishing", str(DATA / "genus2_v0000.json"), "--lagrangian")
        assert code == 0
        assert out == "yes: [1000, 0010]\n"
        assert len(calls) == 1
        assert drawn == [(0b0001, 0b0100)]  # e0 and e2, the witness printed

    @pytest.mark.parametrize("command", ["surgery", "gm"])
    def test_internal_error(self, capsys, monkeypatch, command):
        # a consistency check that fails is a bug: exit 7 and one line on stderr
        if command == "surgery":
            monkeypatch.setattr(pinquad.brown, "brown_invariant", lambda q: q.form.dim)
            argv = ["surgery", str(DATA / "genus2_v0000.json"), "--class", "1000"]
            message = "error: surgery changed beta: 4 -> 2; this is a bug\n"
        else:
            real = pinquad.fourmanifold.signature
            monkeypatch.setattr(pinquad.fourmanifold, "signature", lambda m: real(m) + 1)
            argv = ["gm", "--form", "1", "--char", "1"]
            message = "error: van der Blij violated: c.c = 1, sign = 2; difference is odd\n"
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (7, "", message)

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_brown_over_the_gauss_guard(self, capsys, flags):
        # beta itself has no guard (rank 24 answers in surgery, torsor and gm), the Gauss sum does
        code, out, err = run(capsys, "brown", str(DATA / "genus12_beta4.json"), *flags)
        assert (code, out, err) == (4, "", "error: dim 24 exceeds Gauss-sum guard 20\n")

    def test_degenerate_brown_over_the_gauss_guard(self, capsys, tmp_path):
        n = 21
        big = tmp_path / "degenerate21.json"
        gram = [[0] * n for _ in range(n)]
        big.write_text(json.dumps({"form": {"dim": n, "gram": gram}, "values": [0] * n}))
        code, _out, err = run(capsys, "brown", str(big))
        assert code == 3
        assert "degenerate" in err


STRICT_JSON_CASES = {
    "dim_overflow": '{"form": {"dim": 1e400, "gram": [[1]]}, "values": [1]}',
    "values_overflow": '{"form": {"dim": 1, "gram": [[1]]}, "values": [1e400]}',
    "float": '{"form": {"dim": 1, "gram": [[1.7]]}, "values": [1]}',
    "bool": '{"form": {"dim": 1, "gram": [[true]]}, "values": [1]}',
    "string": '{"form": {"dim": 1, "gram": [["1"]]}, "values": [1]}',
    "past_digit_limit": '{"form": {"dim": 1, "gram": [[1]]}, "values": [%s]}' % ("1" * 5000),
}


class TestStrictJson:
    @pytest.mark.parametrize("text", STRICT_JSON_CASES.values(), ids=STRICT_JSON_CASES)
    def test_only_json_integers(self, capsys, tmp_path, text):
        path = tmp_path / "q.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "brown", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unimodular_form_file(self, capsys, tmp_path):
        path = tmp_path / "form.json"
        path.write_text('{"dim": 1e400, "gram": [[1]]}', encoding="utf-8")
        code, out, err = run(capsys, "gm", "--form", str(path), "--char", "1")
        assert code == 2
        assert out == ""
        assert err == f"error: {path} is not a valid unimodular form: expected an integer, got inf\n"

    @pytest.mark.parametrize(
        "gram,det",
        [([[2, 1], [1, 2]], 3), ([[0, 1, 1], [1, 0, 0], [1, 0, 0]], 0)],
        ids=["det3", "zero_diagonal_singular"],
    )
    def test_non_unimodular_form_file(self, capsys, tmp_path, gram, det):
        path = tmp_path / "form.json"
        path.write_text(json.dumps({"dim": len(gram), "gram": gram}), encoding="utf-8")
        code, out, err = run(capsys, "gm", "--form", str(path), "--char", ",".join("1" * len(gram)))
        assert (code, out) == (2, "")
        assert err == f"error: {path} is not a valid unimodular form: form is not unimodular: det = {det}\n"

    def test_form_file_over_the_rank_cap(self, capsys, tmp_path):
        n = 13
        path = tmp_path / "form.json"
        gram = [[int(i == j) for j in range(n)] for i in range(n)]
        path.write_text(json.dumps({"dim": n, "gram": gram}), encoding="utf-8")
        code, out, err = run(capsys, "gm", "--form", str(path), "--char", ",".join("1" * n))
        assert (code, out) == (4, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_invalid_utf8(self, capsys, tmp_path):
        path = tmp_path / "q.json"
        path.write_bytes(b'{"form": {"dim": 1, "gram": [[1]]}, "values": [\xff]}')
        code, _out, err = run(capsys, "brown", str(path))
        assert code == 2
        assert err.startswith(f"error: {path} is not valid JSON: ") and err.count("\n") == 1

    def test_integer_values_still_reduced_mod_4(self, capsys, tmp_path):
        # whatever their size: the 64-bit cap is on Gram entries only
        path = tmp_path / "q.json"
        for value, beta in (("-3", 1), ("9" * 4000 + "5", 7)):
            path.write_text('{"form": {"dim": 1, "gram": [[1]]}, "values": [%s]}' % value)
            code, out, _err = run(capsys, "brown", str(path))
            assert code == 0
            assert out.startswith(f"beta={beta} ")


@pytest.fixture(scope="module")
def h750(tmp_path_factory):
    """H^750, rank 1,500: a 6.8 MB enhancement file."""
    n = 1500
    rows = (", ".join("1" if j == i ^ 1 else "0" for j in range(n)) for i in range(n))
    path = tmp_path_factory.mktemp("hostile") / "h750.json"
    gram = ", ".join(f"[{row}]" for row in rows)
    path.write_text(f'{{"form": {{"dim": {n}, "gram": [{gram}]}}, "values": [{", ".join("0" * n)}]}}')
    return path


class TestJsonBounds:
    """Hostile sizes are refused at the JSON boundary, with exit 4, before the work they cost."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["brown", "{}"],
            ["vanishing", "{}", "--max"],
            ["gm", "--form", "1", "--char", "1", "--enhancement", "{}"],
        ],
        ids=["brown", "vanishing", "gm"],
    )
    def test_file_over_the_size_cap_is_not_parsed(self, capsys, h750, argv):
        assert h750.stat().st_size > cli.MAX_FILE_BYTES
        tracemalloc.start()
        try:
            code = main([arg.format(h750) for arg in argv])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        message = f"error: {h750} exceeds file size cap {cli.MAX_FILE_BYTES} bytes\n"
        assert (code, *capsys.readouterr()) == (4, "", message)
        assert peak < 2_000_000

    @pytest.mark.parametrize("command", ["gm", "brown"])
    def test_gram_entry_over_the_bit_cap(self, capsys, monkeypatch, tmp_path, command):
        # 4,000 digits parse as JSON (under Python's 4,300-digit limit), but are refused before
        # Bareiss runs and before any message would print them
        def refuse(*_args):
            raise AssertionError("form built")

        monkeypatch.setattr(pinquad.fourmanifold.UnimodularForm, "__init__", refuse)
        monkeypatch.setattr(BilinearForm, "__init__", refuse)
        n, big = 12, int("7" * 4000)
        form = {"dim": n, "gram": [[big if i == j else 0 for j in range(n)] for i in range(n)]}
        path = tmp_path / "big.json"
        if command == "gm":
            path.write_text(json.dumps(form))
            argv = ["gm", "--form", str(path), "--char", ",".join("1" * n)]
        else:
            path.write_text(json.dumps({"form": form, "values": [0] * n}))
            argv = ["brown", str(path)]
        assert run(capsys, *argv) == (4, "", "error: a Gram entry exceeds entry cap 64 bits\n")

    @pytest.mark.parametrize("entry,code", [(2**63, 2), (-(2**63), 2), (2**64, 4), (-(2**64) - 1, 4)])
    def test_gram_entry_bit_cap_boundary(self, capsys, tmp_path, entry, code):
        path = tmp_path / "form.json"
        path.write_text(json.dumps({"dim": 1, "gram": [[entry]]}))
        got, out, err = run(capsys, "gm", "--form", str(path), "--char", "1")
        assert (got, out) == (code, "")
        if code == 2:  # read, then refused as not unimodular
            assert err.endswith(f"form is not unimodular: det = {entry}\n")


@pytest.fixture(scope="module")
def rank720(tmp_path_factory):
    """A seeded nondegenerate rank-720 enhancement in compact JSON, about the largest the
    file cap admits, with a q-null class and a covector of it as bit strings."""
    rng = random.Random("rank-720")
    n = 720
    form = None
    while form is None or not form.nondegenerate:  # about 42% of random forms are
        masks = [0] * n
        for i in range(n):
            row = rng.getrandbits(n - i) << i  # the entries j >= i of row i
            masks[i] |= row
            for j in range(i + 1, n):
                masks[j] |= (row >> j & 1) << i
        gram = [[m >> j & 1 for j in range(n)] for m in masks]
        form = BilinearForm.from_rows(gram)
    values = [gram[i][i] + 2 * rng.getrandbits(1) for i in range(n)]
    c = 0
    while not c or naive_dot(gram, c, c) or naive_q(gram, values, c):
        c = rng.getrandbits(n)
    path = tmp_path_factory.mktemp("at_cap") / "rank720.json"
    path.write_text(json.dumps(Enhancement(form, values).to_json(), separators=(",", ":")))
    bits = lambda x: f"{x:0{n}b}"[::-1]
    return path, bits(c), bits(rng.getrandbits(n))


class TestAtTheFileCap:
    """Rank 720, under the file cap: surgery and the torsor action are polynomial and
    answer; brown's Gauss sum is still refused by its guard."""

    def test_file_is_under_the_cap(self, rank720):
        assert 1_000_000 < rank720[0].stat().st_size < cli.MAX_FILE_BYTES

    def test_surgery_keeps_beta(self, capsys, rank720):
        path, c, _y = rank720
        code, out, err = run(capsys, "surgery", str(path), "--class", c, "--json")
        assert (code, err) == (0, "")
        record = json.loads(out)
        assert record["beta_before"] == record["beta_after"]
        assert record["form"]["dim"] == len(record["values"]) == 718

    def test_torsor_matches(self, capsys, rank720):
        path, _c, y = rank720
        code, out, err = run(capsys, "torsor", str(path), "--covector", y, "--json")
        assert (code, err) == (0, "")
        record = json.loads(out)
        assert record["verdict"] == "MATCH"
        assert record["predicted_delta"] == record["measured_delta"]

    def test_brown_at_the_gauss_guard(self, capsys, rank720):
        code, out, err = run(capsys, "brown", str(rank720[0]))
        assert (code, out, err) == (4, "", "error: dim 720 exceeds Gauss-sum guard 20\n")


FORM_NAME_CASES = {
    "gm_H": ["gm", "--form", "H", "--char", "0,0", "--beta", "0"],
    "gm_E8": ["gm", "--form", "E8", "--char", ",".join("0" * 8)],
    "gm_1": ["gm", "--form", "1", "--char", "1", "--json"],
    "enumerate_H": ["enumerate", "--form", "H"],
    "enumerate_E8": ["enumerate", "--form", "E8", "--json"],
    "enumerate_1": ["enumerate", "--form", "1"],
}


class TestFormArgument:
    """--form is a library expression first, and a file only when it does not parse."""

    @pytest.mark.parametrize("argv", FORM_NAME_CASES.values(), ids=FORM_NAME_CASES)
    def test_names_beat_stray_files(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        expected = run(capsys, *argv)
        for name in ("H", "E8", "1"):
            (tmp_path / name).write_text("not json\n", encoding="utf-8")
        assert expected[0] == 0 and expected[2] == ""
        assert run(capsys, *argv) == expected

    @pytest.mark.parametrize("command", [["gm", "--char", "1"], ["enumerate"]], ids=["gm", "enumerate"])
    def test_missing_path_is_an_unknown_name(self, capsys, monkeypatch, tmp_path, command):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, command[0], "--form", "missing.json", *command[1:])
        message = "unknown form name 'missing.json'; known names: 1, -1, H, E8"
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", [["gm", "--char", "1"], ["enumerate"]], ids=["gm", "enumerate"])
    def test_sum_over_the_cap_beats_a_file_of_that_name(self, capsys, monkeypatch, tmp_path, command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "E8+E8").write_text('{"dim": 1, "gram": [[1]]}', encoding="utf-8")
        code, out, err = run(capsys, command[0], "--form", "E8+E8", *command[1:])
        cap = pinquad.fourmanifold.MAX_FORM_DIM
        assert (code, out, err) == (4, "", f"error: form dimension 16 exceeds cap {cap}\n")


class TestJsonMode:
    def test_text_is_not_rendered(self, capsys, monkeypatch):
        # under --json the text table is never built: its cost would be thrown away
        def refuse(*_args):
            raise AssertionError("text rendered in JSON mode")

        monkeypatch.setattr(cli, "_render_table", refuse)
        code, out, _ = run(capsys, "enumerate", "--genus", "1", "--json")
        assert (code, out) == (0, (GOLDEN / "enumerate_genus1.json").read_text(encoding="utf-8"))

    def test_enumerate_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--genus", "1", "--json")
        assert code == 0
        records = json.loads(out)
        assert [r["beta"] for r in records] == [0, 0, 0, 4]
        assert [r["max_null_dim"] for r in records] == [1, 1, 1, 0]

    def test_brown_json(self, capsys):
        code, out, _ = run(capsys, "brown", str(DATA / "klein_v13.json"), "--json")
        assert code == 0
        assert json.loads(out) == {"beta": 0, "A": 2, "B": 0, "n": 2}

    def test_vanishing_json(self, capsys):
        code, out, _ = run(capsys, "vanishing", str(DATA / "klein_v13.json"), "--lagrangian", "--json")
        assert code == 0
        assert json.loads(out) == {"lagrangian": True, "witness": [[1, 1]]}

    def test_vanishing_dim_json_uses_bit_arrays(self, capsys):
        code, out, _ = run(capsys, "vanishing", str(DATA / "torus_v00.json"), "--dim", "1", "--json")
        assert code == 0
        assert json.loads(out) == {"dim": 1, "subspaces": [[[1, 0]], [[0, 1]]]}

    def test_gm_json(self, capsys):
        code, out, _ = run(
            capsys, "gm", "--form", "H", "--char", "0,0",
            "--enhancement", str(DATA / "torus_v00.json"), "--json",
        )
        assert code == 0
        assert json.loads(out) == {"required_beta": 0, "observed_beta": 0, "verdict": "PASS"}

    def test_degenerate_enumerate_marks_beta(self, capsys, tmp_path):
        form = tmp_path / "degenerate_form.json"
        form.write_text(json.dumps({"dim": 1, "gram": [[0]]}), encoding="utf-8")
        code, out, _ = run(capsys, "enumerate", "--form", str(form))
        assert code == 0
        assert "degenerate" in out


class TestRoundTrips:
    def test_surgery_json_reparses_as_enhancement(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "surgery", str(DATA / "genus2_v0000.json"), "--class", "1000", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["beta_before"] == payload["beta_after"] == 0
        q = Enhancement.from_json(payload)  # extra report keys are ignored
        assert q.form.dim == 2
        reloaded = tmp_path / "reduced.json"
        reloaded.write_text(out, encoding="utf-8")
        code, out, _ = run(capsys, "brown", str(reloaded))
        assert code == 0
        assert out == "beta=0 A=2 B=0 n=2\n"

    def test_surgery_text_json_line_reparses(self, capsys, tmp_path):
        code, out, _ = run(capsys, "surgery", str(DATA / "torus_v00.json"), "--class", "10")
        assert code == 0
        last = out.splitlines()[-1]
        q = Enhancement.from_json(json.loads(last))
        assert q.form.dim == 0

    def test_torsor_json_reparses_and_feeds_other_commands(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "torsor", str(DATA / "torus_v00.json"), "--covector", "11", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "MATCH"
        acted = tmp_path / "acted.json"
        acted.write_text(out, encoding="utf-8")
        code, out, _ = run(capsys, "vanishing", str(acted), "--max")
        assert code == 0

    def test_torsor_acts_by_doubled_covector(self, capsys):
        # acting twice by the same class returns the original values
        code, first, _ = run(capsys, "torsor", str(DATA / "klein_v13.json"), "--covector", "10", "--json")
        assert code == 0
        v1 = json.loads(first)["values"]
        assert v1 == [3, 3]


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_output_pipe_ends_quietly():
    # a reader that stops early (pinquad ... | head -1) ends the command by
    # SIGPIPE, with no traceback and not with exit 1, which means FAIL
    env = dict(os.environ, PYTHONPATH=str(Path(pinquad.__file__).resolve().parents[1]))
    # 188 kB of output, more than a pipe holds, so the child is still writing at the close
    argv = [sys.executable, "-m", "pinquad.cli", "enumerate", "--genus", "6"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline().startswith(b"values")
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (-signal.SIGPIPE, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [["enumerate", "--genus", "1"], ["brown", str(DATA / "torus_v22.json")]],
    ids=["enumerate", "brown"],
)
def test_unwritable_output_is_a_usage_error(argv, buffered):
    # a write that fails (here: no space left) is not a FAIL and not a traceback,
    # whether print raises at once or the flush at exit meets the error
    env = dict(os.environ, PYTHONPATH=str(Path(pinquad.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "pinquad.cli", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    assert done.returncode == 2
    assert done.stderr == f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"


def test_import_loads_no_decimal_arithmetic():
    # the package computes in integers; a fresh interpreter without site
    # packages shows what importing the CLI and every module it can load pulls in
    probe = (
        "import sys, pinquad.cli; from pinquad import *; "
        "print(sorted({'decimal', 'fractions'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(pinquad.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def fresh_python(code, *argv):
    """(exit code, stdout, stderr) of code run in a fresh interpreter that imports this pinquad."""
    env = dict(os.environ, PYTHONPATH=str(Path(pinquad.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    return done.returncode, done.stdout, done.stderr


def test_import_loads_no_dataclass_machinery():
    # the value classes are plain slotted classes: importing the CLI and every
    # module it can load builds no dataclass, so it pulls in neither dataclasses
    # nor inspect (with ast, dis and tokenize); modules loaded before the import,
    # by site or .pth files, do not count
    probe = (
        "import sys; before = set(sys.modules); import pinquad.cli; from pinquad import *; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    assert fresh_python(probe) == (0, "[]\n", "")


RUN_COMMAND = "import pinquad.cli; pinquad.cli.main(sys.argv[1:])"


@pytest.mark.parametrize(
    "code,argv,loaded",
    [
        ("import pinquad", [], []),
        ("import pinquad.cli", [], ["cli", "errors"]),
        (RUN_COMMAND, ["brown", str(DATA / "torus_v22.json")], ["brown", "cli", "errors", "f2", "forms"]),
        (
            RUN_COMMAND,
            ["vanishing", str(DATA / "genus2_v0000.json"), "--max"],
            ["cli", "errors", "f2", "forms", "vanishing"],
        ),
        (
            RUN_COMMAND,
            ["gm", "--form", "E8", "--char", "0,0,0,0,0,0,0,0", "--beta", "4"],
            ["brown", "cli", "errors", "f2", "forms", "fourmanifold"],
        ),
        (RUN_COMMAND, ["enumerate", "--genus", "1"], ["brown", "cli", "errors", "f2", "forms", "vanishing"]),
        (RUN_COMMAND, ["enumerate", "--crosscaps", "2"], ["brown", "cli", "errors", "f2", "forms", "vanishing"]),
    ],
    ids=["import", "import_cli", "brown", "vanishing_max", "gm", "enumerate_genus", "enumerate_crosscaps"],
)
def test_each_command_loads_only_its_modules(code, argv, loaded):
    # without a bytecode cache every module loaded is compiled at start-up: a command
    # loads the modules it calls and no others
    probe = f"import sys; {code}; print(sorted(m for m in sys.modules if m.startswith('pinquad.')))"
    status, out, err = fresh_python(probe, *argv)
    assert (status, err) == (0, "")
    assert out.splitlines()[-1] == str([f"pinquad.{m}" for m in loaded])


PUBLIC_API = {  # each public name, by the module that defines it
    "brown": {"GaussSumResult", "arf_from_brown", "brown_invariant", "gauss_sum"},
    "errors": {
        "DegenerateFormError", "DimensionMismatchError", "InternalError", "LimitError",
        "NotCharacteristicError", "PinquadError", "SurgeryObstructionError", "UnsupportedInputError",
    },
    "f2": {"F2Matrix", "F2Vector", "Subspace", "kernel_basis", "rank", "solve"},
    "forms": {
        "BilinearForm", "Covector", "Enhancement", "crosscap_form", "enumerate_enhancements",
        "eval_q", "hyperbolic_form", "isotropic_reduction", "poincare_dual", "torsor_act",
        "value_table",
    },
    "fourmanifold": {
        "FORM_LIBRARY", "UnimodularForm", "gm_check", "gm_required_beta", "is_characteristic",
        "parse_form_name", "signature", "unimodular_direct_sum",
    },
    "vanishing": {"has_null_lagrangian", "max_vanishing_dim"},
}


def imported_names(path):
    """(module, name) for each name a file imports, (module, None) for a plain import."""
    return {
        (node.module, a.name) if isinstance(node, ast.ImportFrom) else (a.name, None)
        for node in ast.walk(ast.parse(Path(path).read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for a in node.names
    }


def test_public_api_is_pinned():
    # a public name added to or dropped from the package shows up here as a change; each
    # resolves to the object its home module defines, and no other name resolves
    names = set().union(*PUBLIC_API.values())
    assert sorted(pinquad.__all__) == sorted(names) and len(names) == 39
    for module, defined in PUBLIC_API.items():
        home = sys.modules[f"pinquad.{module}"]
        for name in defined:
            assert getattr(pinquad, name) is vars(home)[name], name
            assert getattr(vars(home)[name], "__module__", home.__name__) == home.__name__, name
    star = {}
    exec("from pinquad import *", star)
    assert set(star) - {"__builtins__"} == names
    assert names <= set(dir(pinquad))
    # before first use no name is bound, dir lists every one and another name is an
    # AttributeError; the first use binds every name and drops the hook, which would
    # keep CPython from specialising pinquad.X loads
    probe = (
        "import pinquad as p; before = set(p.__all__) - set(dir(p)) | set(p.__all__) & set(vars(p)); "
        "other = getattr(p, 'no_such_name', None), getattr(p, '_null_bases', None); p.F2Vector; "
        "print(sorted(before), other, sorted(set(p.__all__) - set(vars(p))), '__getattr__' in vars(p))"
    )
    assert fresh_python(probe)[:2] == (0, "[] (None, None) [] False\n")


def test_oracles_share_little_code_with_the_package():
    # the references check the package, so they borrow from it only these; the names the
    # benchmark's tests import from them stay
    imports = imported_names(oracles.__file__)
    assert {(m, name) for m, name in imports if m.split(".")[0] == "pinquad"} == {
        ("pinquad.errors", "DimensionMismatchError"),
        ("pinquad.f2", "F2Matrix"),
        ("pinquad.f2", "Subspace"),
        ("pinquad.f2", "kernel_basis"),
    }
    for name in ("all_subspace_spans", "law_table", "naive_beta", "naive_gauss"):
        assert callable(getattr(oracles, name))


JSON_VALUES = st.recursive(
    st.integers(-1, 4) | st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
FUZZ_BASES = [
    "torus_v00.json",
    "rp2_v1.json",
    "klein_v13.json",
    "genus2_v0000.json",
    "degenerate.json",
    "dim0.json",
    "rebased6.json",
    "klein_form.json",
    "e8_form.json",
]
FUZZ_COMMANDS = [
    ["brown", "{path}"],
    ["vanishing", "{path}", "--max"],
    ["vanishing", "{path}", "--lagrangian"],
    ["vanishing", "{path}", "--dim", "1"],
    ["surgery", "{path}", "--class", "{bits}"],
    ["torsor", "{path}", "--covector", "{bits}"],
    ["gm", "--form", "H", "--char", "0,0", "--enhancement", "{path}"],
    ["enumerate", "--form", "{path}"],
]


@st.composite
def mutated_documents(draw):
    """A document of tests/data with one to three of its parts replaced, deleted or added."""
    doc = json.loads((DATA / draw(st.sampled_from(FUZZ_BASES))).read_text())
    for _ in range(draw(st.integers(1, 3))):
        if not doc:
            break
        pick = lambda node: draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        parent = doc
        key = pick(parent)
        while isinstance(parent[key], (dict, list)) and parent[key] and draw(st.integers(0, 3)):
            parent = parent[key]
            key = pick(parent)
        op = draw(st.sampled_from(["replace", "delete", "insert"]))
        if op == "replace":
            parent[key] = draw(JSON_VALUES)
        elif op == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, draw(JSON_VALUES))
        else:
            parent[draw(st.text(max_size=4))] = draw(JSON_VALUES)
    return doc


@given(doc=mutated_documents(), bits=st.text(alphabet="01", min_size=1, max_size=8))
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
def test_mutated_documents_keep_the_exit_contract(tmp_path_factory, doc, bits):
    # every command on a malformed or out-of-domain file exits in the contract, with an
    # error line for each code past FAIL, and no exception escapes main
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    for argv in FUZZ_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.format(path=path, bits=bits) for arg in argv])
        assert code in range(8), (argv, doc)
        assert code in (0, 1) or err.getvalue().startswith("error: "), (argv, doc)

import errno
import json
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

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
from pinquad.forms import BilinearForm, Enhancement
from pinquad.vanishing import has_null_lagrangian, max_vanishing_dim

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
    (["gm", "--form", "1", "--char", "3", "--beta", "0"], "gm_one_char3_beta0.txt", 1),
    (["surgery", str(DATA / "torus_v00.json"), "--class", "10"], "surgery_torus_v00_a.txt", 0),
    (
        ["surgery", str(DATA / "genus5_v0.json"), "--class", "1010000000"],
        "surgery_genus5_v0_1010000000.txt",
        0,
    ),
    (["torsor", str(DATA / "torus_v00.json"), "--covector", "10"], "torsor_torus_v00_y10.txt", 0),
    (["torsor", str(DATA / "rp2_v1.json"), "--covector", "1"], "torsor_rp2_v1_y1.txt", 0),
]


@pytest.mark.parametrize(
    "argv,golden,code", GOLDEN_CASES, ids=[g for _, g, _ in GOLDEN_CASES]
)
def test_golden_output(capsys, argv, golden, code):
    got_code, out, _err = run(capsys, *argv)
    assert got_code == code
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("argv,golden,code", GOLDEN_CASES, ids=[g for _, g, _ in GOLDEN_CASES])
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
        # past the 32-coordinate vector cap it is still a dimension mismatch, not a guard
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

        monkeypatch.setattr(cli, "hyperbolic_form", refuse)
        monkeypatch.setattr(cli, "crosscap_form", refuse)
        code, out, err = run(capsys, "enumerate", flag, str(10**6))
        assert code == 4
        assert out == ""
        assert err.startswith("error: dim ") and "enumeration guard 12" in err

    def test_brown_builds_no_value_table(self, capsys, monkeypatch):
        def refuse(_q):
            raise AssertionError("value table built")

        monkeypatch.setattr(pinquad.forms, "value_table", refuse)
        monkeypatch.setattr(pinquad.vanishing, "value_table", refuse)
        monkeypatch.setattr(pinquad.brown, "value_table", refuse, raising=False)
        code, out, _err = run(capsys, "brown", str(DATA / "genus2_v0000.json"))
        assert code == 0
        assert out == "beta=0 A=4 B=0 n=4\n"
        q = cli._load_enhancement(str(DATA / "genus2_v0000.json"))
        assert brown_invariant(q) == 0
        assert gauss_sum(q).counts == (10, 0, 6, 0)
        assert arf_from_brown(q) == 0
        assert max_vanishing_dim(q) == 2
        assert has_null_lagrangian(q)
        assert max_vanishing_dim(cli._load_enhancement(str(DATA / "degenerate.json"))) == 1

    def test_enhancement_answers_run_no_elimination(self, capsys, monkeypatch):
        # nondegeneracy, beta and the null dimension all come from the splitting
        def refuse(*_args):
            raise AssertionError("F2 elimination run")

        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "pinquad"]:
            for name in ("_rref", "rank"):
                if getattr(module, name, None) in (pinquad.f2._rref, pinquad.f2.rank):
                    monkeypatch.setattr(module, name, refuse)
        with pytest.raises(AssertionError):
            BilinearForm.from_rows([[0]]).nondegenerate
        code, out, _err = run(capsys, "brown", str(DATA / "genus2_v0000.json"))
        assert (code, out) == (0, "beta=0 A=4 B=0 n=4\n")
        code, _out, err = run(capsys, "brown", str(DATA / "degenerate.json"))
        assert code == 3 and "degenerate" in err
        q = cli._load_enhancement(str(DATA / "genus2_v0000.json"))
        assert (brown_invariant(q), max_vanishing_dim(q), has_null_lagrangian(q)) == (0, 2, True)
        degenerate = cli._load_enhancement(str(DATA / "degenerate.json"))
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

        def no_listing(q, dim):
            raise AssertionError("--lagrangian must not list subspaces")

        for module in (pinquad, pinquad.vanishing, cli):
            monkeypatch.setattr(module, "vanishing_subspaces", no_listing)
        code, out, _err = run(capsys, "vanishing", str(DATA / "genus2_v0000.json"), "--lagrangian")
        assert code == 0
        assert out == "yes: [1000, 0010]\n"
        assert len(calls) == 1

    @pytest.mark.parametrize("command", ["surgery", "gm"])
    def test_internal_error(self, capsys, monkeypatch, command):
        # a consistency check that fails is a bug: exit 7 and one line on stderr
        if command == "surgery":
            monkeypatch.setattr(cli, "brown_invariant", lambda q: q.form.dim)
            argv = ["surgery", str(DATA / "genus2_v0000.json"), "--class", "1000"]
            message = "error: surgery changed beta: 4 -> 2; this is a bug\n"
        else:
            real = pinquad.fourmanifold.signature
            monkeypatch.setattr(pinquad.fourmanifold, "signature", lambda m: real(m) + 1)
            argv = ["gm", "--form", "1", "--char", "1"]
            message = "error: van der Blij violated: c.c = 1, sign = 2; difference is odd\n"
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (7, "", message)

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
        path = tmp_path / "q.json"
        path.write_text('{"form": {"dim": 1, "gram": [[1]]}, "values": [-3]}', encoding="utf-8")
        code, out, _err = run(capsys, "brown", str(path))
        assert code == 0
        assert out.startswith("beta=1 ")


class TestJsonMode:
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
    # packages shows what importing the CLI alone pulls in
    probe = "import sys, pinquad.cli; print(sorted({'decimal', 'fractions'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(pinquad.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_import_loads_no_dataclass_machinery():
    # the value classes are plain slotted classes: importing the CLI builds no
    # dataclass, so it pulls in neither dataclasses nor inspect (with ast, dis
    # and tokenize); modules loaded before the import, by site or .pth files,
    # do not count
    probe = (
        "import sys; before = set(sys.modules); import pinquad.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(pinquad.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")

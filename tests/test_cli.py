"""The pinquad command line: its exit-code contract, outputs, bounds and start-up.

Each exit code's named cases are rows of one table, ``CLI_CASES``, by code: a command line
and its exact (code, stdout, stderr), the golden outputs of tests/golden among them.
``test_golden_output`` runs the rows named after a golden file, ``test_cli_case`` the others,
and acceptance criterion 9 runs each row twice.  Text that Python writes differs between the
Python versions CI runs, so a row that holds strerror or a JSON decoder message reads it from
the running Python.  The tests below the table hold the cases a row cannot: what argparse
answers; monkeypatched faults; memory and size bounds; and runs in a child process.
"""
import ast
import contextlib
import errno
import gc
import io
import json
import os
import random
import re
import shlex
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import NamedTuple

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
from pinquad.f2 import F2Matrix
from pinquad.forms import (
    BilinearForm,
    Covector,
    Enhancement,
    F2Vector,
    crosscap_form,
    isotropic_reduction,
    poincare_dual,
)
from pinquad.vanishing import has_null_lagrangian, max_vanishing_dim

import oracles
from oracles import hyperbolic_gram, identity_gram, naive_dot, naive_nondegenerate, naive_q

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
# a child interpreter's environment: this pinquad first on its path
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(pinquad.__file__).resolve().parents[1]))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_splits(monkeypatch):
    """The argument tuples of every orthogonal split, through its one binding in forms."""
    splits, split = [], pinquad.forms._split
    monkeypatch.setattr(pinquad.forms, "_split", lambda *a: splits.append(a) or split(*a))
    return splits


def enhancement_json(gram, values):
    return json.dumps({"form": {"dim": len(gram), "gram": gram}, "values": values})


def form_json(gram):
    return json.dumps({"dim": len(gram), "gram": gram})


class Case(NamedTuple):
    """A CLI run and its exact (code, stdout, stderr).  argv is split as a shell splits it and
    run in tests/data, or, when the case has ``files`` (name: text or bytes), in an empty temporary
    directory they are written to first.  A case named after a file of tests/golden, up to any
    "#", prints that file; ``out`` is any other case's stdout."""

    argv: str
    code: int = 0
    out: str = ""
    err: str = ""
    files: dict = {}


BAD_Q = "error: q.json is not a valid enhancement: "
BAD_FORM = "error: form.json is not a valid unimodular form: "
BAD_DET = BAD_FORM + "form is not unimodular: det = "
UNKNOWN = "error: unknown form name {!r}; known names: 1, -1, H, E8\n"
UNKNOWN_PATH = UNKNOWN.format("missing.json")
DEGENERATE = "error: Brown invariant undefined: degenerate form\n"
GAUSS_GUARD = "error: dim 24 exceeds Gauss-sum guard 20\n"
ENTRY_CAP = "error: a Gram entry exceeds entry cap 64 bits\n"
OBSTRUCTED = "error: surgery obstructed: "
E8_CHAR0 = "gm --form E8 --char 0,0,0,0,0,0,0,0"


def decoder_message(data):
    """What the running Python says of a file's text or bytes read as UTF-8 JSON: the decoder's,
    the integer digit limit's or the UTF-8 codec's message, whose wording may change with it."""
    try:
        json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except ValueError as e:
        return str(e)


PAST_DIGIT_LIMIT = '{"form": {"dim": 1, "gram": [[1]]}, "values": [%s]}' % ("1" * 5000)
INVALID_UTF8 = b'{"form": {"dim": 1, "gram": [[1]]}, "values": [\xff]}'


CLI_CASES = {
    # 0: success
    "enumerate_crosscaps1.txt": Case("enumerate --crosscaps 1"),
    "enumerate_genus1.txt": Case("enumerate --genus 1"),
    "enumerate_genus0.txt": Case("enumerate --genus 0"),
    "enumerate_genus2.txt": Case("enumerate --genus 2"),
    "enumerate_genus1.json": Case("enumerate --genus 1 --json"),
    "enumerate_klein_form.txt": Case("enumerate --form klein_form.json"),
    "enumerate_klein_form.json": Case("enumerate --form klein_form.json --json"),
    "brown_rp2_v1.txt": Case("brown rp2_v1.json"),
    "brown_torus_v22.txt": Case("brown torus_v22.json"),
    "brown_dim0.txt": Case("brown dim0.json"),
    "brown_klein_v13_json": Case("brown klein_v13.json --json", 0, '{"beta": 0, "A": 2, "B": 0, "n": 2}\n'),
    # values are reduced mod 4 whatever their size: the 64-bit cap is on Gram entries only
    "brown_value_minus_3": Case(
        "brown q.json", 0, "beta=1 A=1 B=1 n=1\n", files={"q.json": enhancement_json([[1]], [-3])}),
    "brown_value_of_4001_digits": Case(
        "brown q.json", 0, "beta=7 A=1 B=-1 n=1\n", files={"q.json": enhancement_json([[1]], [10**4001 - 5])}),
    "vanishing_torus_v00_max.txt": Case("vanishing torus_v00.json --max"),
    "vanishing_genus5_v0_max": Case("vanishing genus5_v0.json --max", 0, "5\n"),
    "vanishing_torus_v00_lagrangian.txt": Case("vanishing torus_v00.json --lagrangian"),
    "vanishing_genus5_v0_lagrangian.txt": Case("vanishing genus5_v0.json --lagrangian"),
    "vanishing_genus5_v0_lagrangian.json": Case("vanishing genus5_v0.json --lagrangian --json"),
    "vanishing_torus_v22_lagrangian.txt": Case("vanishing torus_v22.json --lagrangian"),
    "vanishing_torus_v22_lagrangian.json": Case("vanishing torus_v22.json --lagrangian --json"),
    # "no" is closed-form at any rank; "yes" prints the walk's first basis, which is guarded
    "vanishing_lagrangian_no_past_the_search_guard": Case(
        "vanishing genus12_beta4.json --lagrangian", 0, "no\n"),
    "vanishing_klein_v13_lagrangian_json": Case(
        "vanishing klein_v13.json --lagrangian --json", 0, '{"lagrangian": true, "witness": [[1, 1]]}\n'),
    "vanishing_torus_v00_dim3.txt": Case("vanishing torus_v00.json --dim 3"),
    "vanishing_torus_v00_dim3.json": Case("vanishing torus_v00.json --dim 3 --json"),
    "vanishing_rp2_v1_dim1.txt": Case("vanishing rp2_v1.json --dim 1"),
    "vanishing_torus_v00_dim1.txt": Case("vanishing torus_v00.json --dim 1"),
    # --dim --json writes each basis vector as an array of its bits
    "vanishing_torus_v00_dim1_json": Case(
        "vanishing torus_v00.json --dim 1 --json", 0, '{"dim": 1, "subspaces": [[[1, 0]], [[0, 1]]]}\n'),
    "vanishing_genus2_v0000_dim2.txt": Case("vanishing genus2_v0000.json --dim 2"),
    "vanishing_genus2_v0000_dim2.json": Case("vanishing genus2_v0000.json --dim 2 --json"),
    "gm_one_char1.txt": Case("gm --form 1 --char 1"),
    "gm_h_torus_v00_json": Case(
        "gm --form H --char 0,0 --enhancement torus_v00.json --json", 0,
        '{"required_beta": 0, "observed_beta": 0, "verdict": "PASS"}\n'),
    "gm_one_char3_beta4": Case(
        "gm --form 1 --char 3 --beta 4", 0, "required beta = 4\nobserved beta = 4\nPASS\n"),
    "gm_e8_char0_beta4.txt": Case(E8_CHAR0 + " --beta 4"),
    # the E8 Cartan matrix read from a file gives what the expression E8 gives (23: the case's
    # index in the list the golden cases were first kept in, which names its test)
    "gm_e8_char0_beta4.txt#23": Case("gm --form e8_form.json --char 0,0,0,0,0,0,0,0 --beta 4"),
    "gm_e8_char0_beta4.json": Case("gm --form e8_form.json --char 0,0,0,0,0,0,0,0 --beta 4 --json"),
    "surgery_torus_v00_a.txt": Case("surgery torus_v00.json --class 10"),
    "surgery_genus5_v0_1010000000.txt": Case("surgery genus5_v0.json --class 1010000000"),
    "torsor_torus_v00_y10.txt": Case("torsor torus_v00.json --covector 10"),
    "torsor_rp2_v1_y1.txt": Case("torsor rp2_v1.json --covector 1"),
    # rank 20: the largest rank whose Gauss sum brown prints
    "brown_rank20_under_the_gauss_guard": Case(
        "brown h10.json", 0, "beta=0 A=1024 B=0 n=20\n",
        files={"h10.json": enhancement_json(hyperbolic_gram(10), [0] * 20)}),
    # rank 24: beta answers above the Gauss-sum guard of brown, and surgery and torsor with it
    "surgery_genus12_beta4_e0.txt": Case("surgery genus12_beta4.json --class 1" + "0" * 23),
    "torsor_genus12_beta4_e2.txt": Case("torsor genus12_beta4.json --covector 001" + "0" * 21),
    "gm_e8_char0_genus12_beta4.txt": Case(E8_CHAR0 + " --enhancement genus12_beta4.json"),
    # 1: FAIL
    "gm_one_char3_beta0.txt": Case("gm --form 1 --char 3 --beta 0", 1),
    # 2: usage errors; a bad flag value is refused before any file is read, in both output modes
    **{
        name + suffix: Case(argv + flag, 2, "", f"error: {message}\n")
        for name, argv, message in [
            ("vanishing_negative_dim", "vanishing torus_v00.json --dim -1", "--dim must be >= 0"),
            ("vanishing_negative_dim_missing_file", "vanishing missing.json --dim -1", "--dim must be >= 0"),
            ("enumerate_negative_genus", "enumerate --genus -1", "--genus must be >= 0"),
            ("enumerate_no_crosscaps", "enumerate --crosscaps 0", "--crosscaps must be >= 1"),
            ("gm_bad_char", "gm --form 1 --char 1,x", "expected comma-separated integers, got '1,x'"),
        ]
        for suffix, flag in [("", ""), ("_json", " --json")]
    },
    **{
        f"{command}_bits_{name}": Case(
            f"{command} torus_v00.json --{flag} '{text}'", 2, "",
            f"error: --{flag} must be a nonempty string of 0s and 1s, got {text!r}\n")
        for command, flag in [("surgery", "class"), ("torsor", "covector")]
        for name, text in [("empty", ""), ("012", "012"), ("space", "1 0"), ("underscore", "1_0"),
                           ("0b1", "0b1")]
    },
    # a file that cannot be read or parsed; strerror and the decoder's message, as the running
    # Python writes them
    "brown_missing_file": Case(
        "brown missing.json", 2, "", f"error: cannot read missing.json: {os.strerror(errno.ENOENT)}\n"),
    "brown_malformed_json": Case(
        "brown bad.json", 2, "", f"error: bad.json is not valid JSON: {decoder_message('{not json')}\n",
        files={"bad.json": "{not json"}),
    "brown_json_past_digit_limit": Case(
        "brown q.json", 2, "", f"error: q.json is not valid JSON: {decoder_message(PAST_DIGIT_LIMIT)}\n",
        files={"q.json": PAST_DIGIT_LIMIT}),
    "brown_json_invalid_utf8": Case(
        "brown q.json", 2, "", f"error: q.json is not valid JSON: {decoder_message(INVALID_UTF8)}\n",
        files={"q.json": INVALID_UTF8}),
    "gm_unknown_form_name": Case("gm --form K3 --char 1", 2, "", UNKNOWN.format("K3")),
    # --form is a library expression first, and a file only when it does not parse
    "gm_missing_path_is_an_unknown_name": Case("gm --form missing.json --char 1", 2, "", UNKNOWN_PATH),
    "enumerate_missing_path_is_an_unknown_name": Case("enumerate --form missing.json", 2, "", UNKNOWN_PATH),
    # a vector of the wrong length is a dimension mismatch, found after beta
    "torsor_dimension_mismatch": Case(
        "torsor rp2_v1.json --covector 10", 2, "", "error: enhancement dim 1, covector dim 2\n"),
    "surgery_over_long_class": Case(
        "surgery torus_v00.json --class " + "1" * 40, 2, "", "error: enhancement dim 2, class dim 40\n"),
    "torsor_over_long_covector": Case(
        "torsor torus_v00.json --covector " + "1" * 40, 2, "", "error: enhancement dim 2, covector dim 40\n"),
    "brown_parity_violating": Case(
        "brown bad_values.json", 2, "", "error: bad_values.json is not a valid enhancement: parity "
        "constraint violated at index 0: q(e0) = 0 but e0.e0 = 1\n",
        files={"bad_values.json": enhancement_json([[1]], [0])}),
    "brown_gram_asymmetric": Case(
        "brown q.json", 2, "", BAD_Q + "Gram matrix not symmetric at (0,1)\n",
        files={"q.json": enhancement_json([[0, 1], [0, 0]], [0, 0])}),
    "brown_gram_non_bit": Case(
        "brown q.json", 2, "", BAD_Q + "Gram entry (0,1) is 2, expected a bit\n",
        files={"q.json": enhancement_json([[0, 2], [2, 0]], [0, 0])}),
    "brown_gram_ragged": Case(
        "brown q.json", 2, "", BAD_Q + "Gram matrix is not 2x2\n",
        files={"q.json": enhancement_json([[0, 1], [1]], [0, 0])}),
    # every number must be a JSON integer: no float, however large, no bool, no string
    "brown_json_dim_overflow": Case(
        "brown q.json", 2, "", BAD_Q + "expected an integer, got inf\n",
        files={"q.json": '{"form": {"dim": 1e400, "gram": [[1]]}, "values": [1]}'}),
    "brown_json_values_overflow": Case(
        "brown q.json", 2, "", BAD_Q + "expected an integer, got inf\n",
        files={"q.json": '{"form": {"dim": 1, "gram": [[1]]}, "values": [1e400]}'}),
    "brown_json_float": Case(
        "brown q.json", 2, "", BAD_Q + "expected an integer, got 1.7\n",
        files={"q.json": '{"form": {"dim": 1, "gram": [[1.7]]}, "values": [1]}'}),
    "brown_json_bool": Case(
        "brown q.json", 2, "", BAD_Q + "expected an integer, got True\n",
        files={"q.json": '{"form": {"dim": 1, "gram": [[true]]}, "values": [1]}'}),
    "brown_json_string": Case(
        "brown q.json", 2, "", BAD_Q + "expected an integer, got '1'\n",
        files={"q.json": '{"form": {"dim": 1, "gram": [["1"]]}, "values": [1]}'}),
    "gm_form_file_dim_overflow": Case(
        "gm --form form.json --char 1", 2, "", BAD_FORM + "expected an integer, got inf\n",
        files={"form.json": '{"dim": 1e400, "gram": [[1]]}'}),
    "gm_form_file_det3": Case(
        "gm --form form.json --char 1,1", 2, "", BAD_DET + "3\n",
        files={"form.json": form_json([[2, 1], [1, 2]])}),
    "gm_form_file_zero_diagonal_singular": Case(
        "gm --form form.json --char 1,1,1", 2, "", BAD_DET + "0\n",
        files={"form.json": form_json([[0, 1, 1], [1, 0, 0], [1, 0, 0]])}),
    # a Gram entry of 64 bits is read, then refused as not unimodular; one of 65 bits is a guard
    "gm_entry_2_63": Case(
        "gm --form form.json --char 1", 2, "", BAD_DET + "9223372036854775808\n",
        files={"form.json": form_json([[2**63]])}),
    "gm_entry_minus_2_63": Case(
        "gm --form form.json --char 1", 2, "", BAD_DET + "-9223372036854775808\n",
        files={"form.json": form_json([[-(2**63)]])}),
    # 3: degenerate, at any rank
    "brown_degenerate": Case("brown degenerate.json", 3, "", DEGENERATE),
    "surgery_degenerate": Case("surgery degenerate.json --class 0", 3, "", DEGENERATE),
    "brown_degenerate_over_the_gauss_guard": Case(
        "brown degenerate21.json", 3, "", DEGENERATE,
        files={"degenerate21.json": enhancement_json([[0] * 21 for _ in range(21)], [0] * 21)}),
    # 4: guards; beta has none (rank 24 answers in surgery, torsor and gm); the CLI refuses the
    # Gauss sum past rank 20 and --max past the search guard, though both are closed forms
    "brown_over_the_gauss_guard": Case("brown genus12_beta4.json", 4, "", GAUSS_GUARD),
    "brown_over_the_gauss_guard_json": Case("brown genus12_beta4.json --json", 4, "", GAUSS_GUARD),
    "vanishing_max_past_the_search_guard": Case(
        "vanishing crosscaps11.json --max", 4, "", "error: dim 11 exceeds vanishing-search guard 10\n"),
    "vanishing_lagrangian_yes_past_the_search_guard": Case(
        "vanishing h6.json --lagrangian", 4, "", "error: dim 12 exceeds vanishing-search guard 10\n",
        files={"h6.json": enhancement_json(hyperbolic_gram(6), [0] * 12)}),
    "gm_form_file_over_the_rank_cap": Case(
        "gm --form form.json --char 1,1,1,1,1,1,1,1,1,1,1,1,1", 4, "",
        "error: form dimension 13 exceeds cap 12\n",
        files={"form.json": form_json(identity_gram(13))}),
    # a sum over the rank cap is refused, not read as the file of that name
    "gm_sum_over_the_cap_beats_a_file_of_that_name": Case(
        "gm --form E8+E8 --char 1", 4, "", "error: form dimension 16 exceeds cap 12\n",
        files={"E8+E8": form_json([[1]])}),
    "enumerate_sum_over_the_cap_beats_a_file_of_that_name": Case(
        "enumerate --form E8+E8", 4, "", "error: form dimension 16 exceeds cap 12\n",
        files={"E8+E8": form_json([[1]])}),
    "gm_entry_2_64": Case(
        "gm --form form.json --char 1", 4, "", ENTRY_CAP, files={"form.json": form_json([[2**64]])}),
    "gm_entry_minus_2_64_minus_1": Case(
        "gm --form form.json --char 1", 4, "", ENTRY_CAP, files={"form.json": form_json([[-(2**64) - 1]])}),
    # 5: not characteristic
    "gm_not_characteristic": Case(
        "gm --form 1 --char 2", 5, "",
        "error: not characteristic: at basis vector 0, c.e0 = 0 but e0.e0 = 1 (mod 2)\n"),
    # 6: surgery obstructed
    "surgery_q_nonzero": Case("surgery torus_v22.json --class 11", 6, "", OBSTRUCTED + "q(c) != 0\n"),
    "surgery_self_intersection": Case("surgery rp2_v1.json --class 1", 6, "", OBSTRUCTED + "c.c != 0\n"),
    "surgery_zero_class": Case("surgery torus_v00.json --class 00", 6, "", OBSTRUCTED + "zero class\n"),
}


@pytest.fixture
def run_case(capsys, monkeypatch, tmp_path):
    """Runs the row of CLI_CASES of that name: (got, want), each a (code, stdout, stderr)."""

    def run_case(name):
        case = CLI_CASES[name]
        monkeypatch.chdir(tmp_path if case.files else DATA)
        for file, data in case.files.items():
            (tmp_path / file).write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
        golden = GOLDEN / name.split("#")[0]
        out = golden.read_text(encoding="utf-8") if golden.suffix else case.out
        return run(capsys, *shlex.split(case.argv)), (case.code, out, case.err)

    return run_case


@pytest.mark.parametrize("name", [name for name in CLI_CASES if not Path(name).suffix])
def test_cli_case(run_case, name):
    got, want = run_case(name)
    assert got == want


@pytest.mark.parametrize("name", [name for name in CLI_CASES if Path(name).suffix])
def test_golden_output(run_case, name):
    """The rows named after a file of tests/golden, run under the test name they have always had."""
    test_cli_case(run_case, name)


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


# argv that argparse itself answers, by help or a usage error, in each command and before one;
# file names are never read
ARGPARSE_CASES = {
    "help": "--help",
    "no_command": "",
    "invalid_choice": "bogus torus_v00.json",
    "help_before_brown": "-h brown",
    "option_before_brown": "--json brown torus_v00.json",
    **{
        f"{command}_{case}": f"{command} {args}"
        for command, cases in {
            "enumerate": {"missing": "", "bad_int": "--genus x", "conflict": "--genus 1 --crosscaps 2",
                          "unrecognized": "--genus 1 --bogus"},
            "brown": {"missing": "", "unrecognized": "torus_v00.json --bogus"},
            "vanishing": {"missing": "torus_v00.json", "bad_int": "torus_v00.json --dim x",
                          "conflict": "torus_v00.json --max --lagrangian",
                          "unrecognized": "torus_v00.json --max --bogus"},
            "gm": {"missing": "--char 1", "bad_int": "--form 1 --char 1 --beta x",
                   "conflict": "--form 1 --char 1 --beta 0 --enhancement q.json",
                   "unrecognized": "--form 1 --char 1 --bogus"},
            "surgery": {"missing": "torus_v00.json", "unrecognized": "torus_v00.json --class 10 --bogus"},
            "torsor": {"missing": "torus_v00.json", "unrecognized": "torus_v00.json --covector 10 --bogus"},
        }.items()
        for case, args in {"help": "--help", **cases}.items()
    },
}


@pytest.mark.parametrize("name", ARGPARSE_CASES)
def test_argparse_help_exits_0_and_usage_errors_exit_2(capsys, name):
    # main returns argparse's exit code; its wording differs between Python versions, so only
    # the usage line and the error line's prefix are pinned
    code, out, err = run(capsys, *shlex.split(ARGPARSE_CASES[name]))
    if "help" in name:
        assert (code, out.startswith("usage: pinquad"), err) == (0, True, "")
    else:
        assert (code, out, err.startswith("usage: pinquad")) == (2, "", True)
        assert re.match(r"^pinquad( \w+)?: error: ", err.splitlines()[-1])


class TestExitCodes:
    def test_deeply_nested_json(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        assert deep.stat().st_size < cli.MAX_FILE_BYTES  # parsed, not refused for its size
        code, out, err = run(capsys, "brown", str(deep))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "nested too deeply" in err

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

    def test_torsor_mismatch_is_reported(self, capsys, monkeypatch):
        # a wrong dual predicts delta 0 where acting by y = 1 on RP^2 shifts beta by 6: a
        # failed self-check is a bug, exit 7 with one line on stderr, in both output modes
        monkeypatch.setattr(pinquad.forms, "poincare_dual", lambda form, y: F2Vector(form.dim, 0))
        message = "error: torsor changed beta by 6, predicted 0; this is a bug\n"
        for flags in ([], ["--json"]):
            code, out, err = run(capsys, "torsor", str(DATA / "rp2_v1.json"), "--covector", "1", *flags)
            assert (code, out, err) == (7, "", message)

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
        splits = count_splits(monkeypatch)
        path = tmp_path / "crosscaps13.json"
        path.write_text(json.dumps(crosscap_form(13).to_json()))
        code, out, err = run(capsys, "enumerate", "--form", str(path))
        assert (code, out, err) == (4, "", "error: dim 13 exceeds enhancement enumeration guard 12\n")
        assert splits == []

    SPLITS = {  # test ID: the row of CLI_CASES it runs, and the splits the row makes
        "brown": ("brown_torus_v22.txt", 2),
        "vanishing-max": ("vanishing_genus5_v0_max", 1),
        "vanishing-lagrangian": ("vanishing_genus5_v0_lagrangian.txt", 1),
        "torsor": ("torsor_torus_v00_y10.txt", 3),
        "surgery-admissible": ("surgery_genus5_v0_1010000000.txt", 2),
        "surgery-degenerate": ("surgery_degenerate", 1),
        "surgery-obstructed": ("surgery_q_nonzero", 1),
        "enumerate-genus2": ("enumerate_genus2.txt", 16),
    }

    @pytest.mark.parametrize("name,expected", SPLITS.values(), ids=SPLITS)
    def test_splits_per_command(self, monkeypatch, run_case, name, expected):
        # the reduction splits nothing: surgery splits for beta before and after, and an
        # obstructed class is refused before the second; enumerate splits each enhancement once
        splits = count_splits(monkeypatch)
        got, want = run_case(name)
        assert got == want
        assert len(splits) == expected

    def test_brown_builds_no_value_table(self, capsys, monkeypatch):
        def refuse(_q):
            raise AssertionError("value table built")

        monkeypatch.setattr(pinquad.forms, "value_table", refuse)
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

    def test_enhancement_answers_run_no_elimination(self, capsys, monkeypatch, run_case):
        # beta, the null dimension and the dual all come from the splitting
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
        assert poincare_dual(torus.form, Covector(2, 0b01)) == F2Vector(2, 0b10)
        assert poincare_dual(BilinearForm.from_rows([[1]]), Covector(1, 1)) == F2Vector(1, 1)
        assert isotropic_reduction(torus, F2Vector(2, 0b01)).form.dim == 0
        for name in CLI_CASES:
            got, want = run_case(name)
            assert got == want, name
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

    @pytest.mark.parametrize(
        "name",
        [
            "brown_torus_v22.txt",
            "enumerate_genus1.txt",
            "vanishing_genus5_v0_max",
            "surgery_genus5_v0_1010000000.txt",
            "torsor_torus_v00_y10.txt",
        ],
        ids=["brown", "enumerate", "vanishing", "surgery", "torsor"],
    )
    def test_unexpected_exception(self, capsys, monkeypatch, name):
        # an exception the package does not raise on purpose is a bug as well: exit 7 and one
        # line on stderr, not exit 1 (a FAIL) and not a traceback; an OSError is left to
        # entry(), which makes a failed write a usage error
        monkeypatch.chdir(DATA)
        argv = shlex.split(CLI_CASES[name].argv)

        def plant(error):
            def planted(*_args):
                raise error("planted")

            monkeypatch.setattr(pinquad.forms, "_split", planted)

        plant(ZeroDivisionError)
        assert run(capsys, *argv) == (7, "", "error: internal error: ZeroDivisionError: planted\n")
        plant(OSError)
        with pytest.raises(OSError, match="^planted$"):
            main(argv)

    def test_unexpected_exception_in_the_installed_entry(self):
        # through entry(), as the pinquad script runs it: a callee that is not callable
        code = "import pinquad.brown as b; b.gauss_sum = None; from pinquad.cli import entry; entry()"
        status, out, err = fresh_python(code, "brown", str(DATA / "torus_v22.json"))
        assert (status, out) == (7, "")
        assert err == "error: internal error: TypeError: 'NoneType' object is not callable\n"


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

    @pytest.mark.parametrize("extra", [0, 1], ids=["at_the_cap", "one_byte_over"])
    def test_size_cap_boundary(self, capsys, tmp_path, extra):
        # a valid enhancement padded with spaces to exactly the cap is parsed; one byte more is not
        text = (DATA / "torus_v22.json").read_bytes()
        path = tmp_path / "padded.json"
        path.write_bytes(text + b" " * (cli.MAX_FILE_BYTES + extra - len(text)))
        assert path.stat().st_size == cli.MAX_FILE_BYTES + extra
        if extra:
            message = f"error: {path} exceeds file size cap {cli.MAX_FILE_BYTES} bytes\n"
            assert run(capsys, "brown", str(path)) == (4, "", message)
        else:
            golden = (GOLDEN / "brown_torus_v22.txt").read_text(encoding="utf-8")
            assert run(capsys, "brown", str(path)) == (0, golden, "")

    @pytest.mark.parametrize("command", ["gm", "brown"])
    def test_gram_entry_over_the_bit_cap(self, capsys, monkeypatch, tmp_path, command):
        # 4,000 digits parse as JSON (under Python's 4,300-digit limit), but are refused before
        # Bareiss runs and before any message would print them
        def refuse(*_args):
            raise AssertionError("form built")

        monkeypatch.setattr(pinquad.fourmanifold.UnimodularForm, "__init__", refuse)
        monkeypatch.setattr(BilinearForm, "__init__", refuse)
        n, big = 12, int("7" * 4000)
        gram = [[big if i == j else 0 for j in range(n)] for i in range(n)]
        path = tmp_path / "big.json"
        if command == "gm":
            path.write_text(form_json(gram))
            argv = ["gm", "--form", str(path), "--char", ",".join("1" * n)]
        else:
            path.write_text(enhancement_json(gram, [0] * n))
            argv = ["brown", str(path)]
        assert run(capsys, *argv) == (4, "", ENTRY_CAP)


@pytest.fixture(scope="module")
def rank720(tmp_path_factory):
    """A seeded nondegenerate rank-720 enhancement in compact JSON, about the largest the
    file cap admits, with a q-null class and a covector of it as bit strings."""
    rng = random.Random("rank-720")
    n = 720
    gram, values, *_ = oracles.random_enhancement(rng, n)
    form = BilinearForm.from_rows(gram)
    c = 0
    while not c or naive_dot(gram, c, c) or naive_q(gram, values, c):
        c = rng.getrandbits(n)
    path = tmp_path_factory.mktemp("at_cap") / "rank720.json"
    path.write_text(json.dumps(Enhancement(form, values).to_json(), separators=(",", ":")))
    bits = lambda x: f"{x:0{n}b}"[::-1]
    return path, bits(c), bits(rng.getrandbits(n))


class TestAtTheFileCap:
    """Rank 720, under the file cap: surgery and the torsor action are polynomial and
    answer; the CLI still refuses brown's Gauss sum there."""

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
        if "--beta" in argv:  # gm's verdict
            assert expected[1].endswith("\nPASS\n")
        assert run(capsys, *argv) == expected


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

    def test_degenerate_enumerate_marks_beta(self, capsys, tmp_path):
        form = tmp_path / "degenerate_form.json"
        form.write_text(form_json([[0]]), encoding="utf-8")
        code, out, _ = run(capsys, "enumerate", "--form", str(form))
        assert code == 0
        assert "degenerate" in out

    def test_enumerate_columns_on_random_forms(self, capsys, tmp_path):
        # seeded forms to rank 12 in random bases, nondegenerate or with q 0 or 2 on the
        # radical: the rows are every enhancement in counter order, beta is brown_invariant's
        # (None on a degenerate form), and max_null_dim is max_vanishing_dim's at every rank
        rng = random.Random("enumerate-columns")
        path, degenerate = tmp_path / "form.json", 0
        for kind in ("nondegenerate", "radical_q0", "radical_q2"):
            for n in list(range(1, 13)) * 2:
                gram = oracles.random_enhancement(rng, n, kind)[0]
                form = BilinearForm.from_rows(gram)
                path.write_text(json.dumps(form.to_json()), encoding="utf-8")
                code, out, err = run(capsys, "enumerate", "--form", str(path), "--json")
                assert (code, err) == (0, "")
                records = json.loads(out)
                want = oracles.all_enhancement_values(gram)
                assert [tuple(rec["values"]) for rec in records] == want
                degenerate += not naive_nondegenerate(gram)
                for rec in records:
                    q = Enhancement(form, rec["values"])
                    try:
                        beta = brown_invariant(q)
                    except DegenerateFormError:
                        beta = None
                    null_dim = max_vanishing_dim(q)
                    assert (rec["beta"], rec["max_null_dim"]) == (beta, null_dim), (kind, gram)
        assert degenerate == 48


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
        assert run(capsys, "vanishing", str(acted), "--max") == (0, "0\n", "")

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
    # 188 kB of output, more than a pipe holds, so the child is still writing at the close
    argv = [sys.executable, "-m", "pinquad.cli", "enumerate", "--genus", "6"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV) as proc:
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
    env = dict(CHILD_ENV)
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


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_out_of_memory_is_a_resource_limit(tmp_path):
    # every guard admits the rank-10 zero form, whose 109,221,651 q-null 5-planes the listing
    # builds before it prints one; past the memory the process may use, that is a resource
    # limit (exit 4), not a bug (exit 7).  The 150 MB address-space cap binds this child only
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (150 << 20, 150 << 20))

    path = tmp_path / "zero10.json"
    path.write_text(enhancement_json([[0] * 10] * 10, [0] * 10), encoding="utf-8")
    argv = [sys.executable, "-m", "pinquad.cli", "vanishing", str(path), "--dim", "5"]
    for _ in range(2):  # the same on every run
        done = subprocess.run(
            argv, capture_output=True, text=True, env=CHILD_ENV, preexec_fn=cap, timeout=30
        )
        assert (done.returncode, done.stdout, done.stderr) == (4, "", "error: out of memory\n")


@pytest.fixture(scope="module")
def startup_modules():
    # which of decimal, fractions, typing, dataclasses and inspect importing the CLI and
    # every module it can load, then running a command, pulls in; one fresh interpreter
    # without site packages serves both tests below
    probe = (
        "import sys; before = set(sys.modules); import pinquad.cli; from pinquad import *; "
        "pinquad.cli.main(sys.argv[1:]); print(*{'decimal', 'fractions', 'typing', "
        "'dataclasses', 'inspect'} & (set(sys.modules) - before))"
    )
    argv = [sys.executable, "-S", "-c", probe, "brown", str(DATA / "torus_v22.json")]
    done = subprocess.run(argv, capture_output=True, text=True, env=CHILD_ENV, timeout=60)
    golden = (GOLDEN / "brown_torus_v22.txt").read_text(encoding="utf-8")
    out, _, loaded = done.stdout[:-1].rpartition("\n")
    assert (done.returncode, out + "\n", done.stderr) == (0, golden, "")
    return set(loaded.split())


def test_import_loads_no_decimal_arithmetic(startup_modules):
    # the package computes in integers and annotates from collections.abc (typing costs
    # about 5 ms a start-up)
    assert not startup_modules & {"decimal", "fractions", "typing"}


def test_import_loads_no_dataclass_machinery(startup_modules):
    # the value classes are plain slotted classes, so no dataclass pulls in dataclasses
    # and inspect (with ast, dis and tokenize)
    assert not startup_modules & {"dataclasses", "inspect"}


def fresh_python(code, *argv):
    """(exit code, stdout, stderr) of code run in a fresh interpreter that imports this pinquad."""
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=CHILD_ENV, timeout=60
    )
    return done.returncode, done.stdout, done.stderr


FREEZE_CASES = {  # test ID: the row of CLI_CASES it runs, one for each exit code up to 4, or argv
    "ok": "brown_torus_v22.txt",
    "fail": "gm_one_char3_beta0.txt",
    "usage": "vanishing_negative_dim",
    # argparse's exit 2, a SystemExit caught inside main(); its text differs between Pythons,
    # so the child is compared with the same argv run in-process, not with a row
    "usage-argparse": ["enumerate", "--genus", "1", "--no-such-flag"],
    "degenerate": "brown_degenerate",
    "guard": "brown_over_the_gauss_guard",
}


@pytest.mark.parametrize("case", FREEZE_CASES.values(), ids=FREEZE_CASES)
def test_a_command_run_freezes_the_collector_before_it_exits(run_case, capsys, case):
    # entry() freezes every object so the collections at exit skip them; main() leaves the
    # collector alone for in-process callers, and atexit handlers still run after the freeze.
    # Counts are compared, not read against 0: from Python 3.12 start-up may freeze objects
    frozen = gc.get_freeze_count()
    if isinstance(case, str):
        got, want = run_case(case)
        assert got == want
        argv = shlex.split(CLI_CASES[case].argv)
    else:
        argv, want = case, run(capsys, *case)
        assert want[0] == cli.EXIT_USAGE
    assert gc.get_freeze_count() == frozen
    code, out, err = want
    probe = (
        "import atexit, gc; frozen = gc.get_freeze_count(); "
        "atexit.register(lambda: print(gc.get_freeze_count() > frozen)); "
        "from pinquad.cli import entry; entry()"
    )
    # the child runs where run_case ran the row, in tests/data
    assert fresh_python(probe, *argv) == (code, out + "True\n", err)


RUN_COMMAND = "import pinquad.cli; pinquad.cli.main(sys.argv[1:])"
ENHANCEMENT_MODULES = ["brown", "cli", "errors", "forms"]
SEARCH_MODULES = ["cli", "errors", "forms", "vanishing"]


@pytest.mark.parametrize(
    "code,argv,loaded",
    [
        ("import pinquad", [], []),
        ("import pinquad.cli", [], ["cli", "errors"]),
        (RUN_COMMAND, ["--help"], ["cli", "errors"]),
        (RUN_COMMAND, ["brown", str(DATA / "torus_v22.json")], ENHANCEMENT_MODULES),
        (RUN_COMMAND, ["surgery", str(DATA / "genus5_v0.json"), "--class", "1010000000"], ENHANCEMENT_MODULES),
        (RUN_COMMAND, ["torsor", str(DATA / "torus_v00.json"), "--covector", "10"], ENHANCEMENT_MODULES),
        (RUN_COMMAND, ["vanishing", str(DATA / "genus2_v0000.json"), "--max"], SEARCH_MODULES),
        (RUN_COMMAND, ["vanishing", str(DATA / "genus2_v0000.json"), "--dim", "2"], SEARCH_MODULES),
        (RUN_COMMAND, ["vanishing", str(DATA / "genus5_v0.json"), "--lagrangian"], SEARCH_MODULES),
        (
            RUN_COMMAND,
            ["gm", "--form", "E8", "--char", "0,0,0,0,0,0,0,0", "--beta", "4"],
            ["brown", "cli", "errors", "forms", "fourmanifold"],
        ),
        (RUN_COMMAND, ["enumerate", "--genus", "1"], SEARCH_MODULES),
        (RUN_COMMAND, ["enumerate", "--crosscaps", "2"], SEARCH_MODULES),
        (
            RUN_COMMAND,
            ["enumerate", "--form", "H"],
            ["brown", "cli", "errors", "forms", "fourmanifold", "vanishing"],
        ),
    ],
    ids=[
        "import", "import_cli", "help", "brown", "surgery", "torsor", "vanishing_max", "vanishing_dim",
        "vanishing_lagrangian", "gm", "enumerate_genus", "enumerate_crosscaps", "enumerate_form",
    ],
)
def test_each_command_loads_only_its_modules(code, argv, loaded):
    # without a bytecode cache every module loaded is compiled at start-up: a command
    # loads the modules it calls and no others, and none of them loads f2's elimination
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
    "f2": {"F2Matrix", "Subspace", "kernel_basis", "rank", "solve"},
    "forms": {
        "BilinearForm", "Covector", "Enhancement", "F2Vector", "crosscap_form", "enumerate_enhancements",
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
    # a star import as the first use binds the same names
    probe = "star = {}; exec('from pinquad import *', star); print(sorted(set(star) - {'__builtins__'}))"
    assert fresh_python(probe)[:2] == (0, f"{sorted(names)}\n")


def test_readme_library_example(capsys):
    # the README's example runs as written and prints what its comments say it prints
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Library example\n\n```python\n", 1)[1].split("```", 1)[0]
    comments = [line.split("#")[1].strip() for line in block.splitlines() if "#" in line]
    assert comments == ["4", "[0, 0, 0, 4]", "4"]
    exec(block, {})
    assert capsys.readouterr().out.splitlines() == comments


def test_ci_and_readme_name_only_files_that_exist():
    # a deleted script or test file takes its CI step and its README paragraph with it
    root = Path(__file__).parent.parent
    for doc in ("README.md", ".github/workflows/tests.yml"):
        text = (root / doc).read_text()
        named = re.findall(r"\bpython3? +(?!-)([\w./-]+)", text)
        named += re.findall(r"\b(?:tools|bench|tests)/[\w./-]*", text)
        assert named
        assert [path for path in named if not (root / path.rstrip(".")).exists()] == [], doc


def test_oracles_share_little_code_with_the_package():
    # the references check the package, so they borrow from it only these; the names the
    # benchmark's tests import from them stay
    imports = imported_names(oracles.__file__)
    assert {(m, name) for m, name in imports if m.split(".")[0] == "pinquad"} == {
        ("pinquad.errors", "DimensionMismatchError"),
        ("pinquad.f2", "Subspace"),
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

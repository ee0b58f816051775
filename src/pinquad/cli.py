"""Command-line interface.

JSON files in, fixed-width text on stdout (or machine-readable JSON with
--json); diagnostics go to stderr.  Exit codes are part of the contract:

    0  success / PASS
    1  FAIL (Guillou-Marin mismatch)
    2  usage error (bad flags, malformed files, dimension mismatches,
       or output that cannot be written)
    3  degenerate form where a nondegenerate one is required
    4  resource guard exceeded
    5  vector is not characteristic
    6  surgery obstructed
    7  internal error: a failed consistency check or any other exception; a bug

A closed output pipe ends the command quietly by SIGPIPE (status 141 in a shell).
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from collections.abc import Callable, Sequence

# each command imports the other package modules it uses when it runs, and none imports f2:
# with no bytecode cache a start-up compiles only those, and main builds one subparser
from .errors import (
    DegenerateFormError,
    DimensionMismatchError,
    InternalError,
    LimitError,
    NotCharacteristicError,
    PinquadError,
    SurgeryObstructionError,
    UnsupportedInputError,
)

TYPE_CHECKING = False  # type checkers read it as True; importing typing costs about 5 ms
if TYPE_CHECKING:
    from .forms import BilinearForm, F2Vector

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_GUARD = 4
EXIT_NOT_CHARACTERISTIC = 5
EXIT_OBSTRUCTED = 6
EXIT_INTERNAL = 7

MAX_FILE_BYTES = 1 << 20  # JSON files, refused unparsed above it; it admits about rank 720
# two closed forms the CLI refuses, for the exit 4 the benchmark's cli_session pins at ranks 22, 12:
MAX_GAUSS_DIM = 20  # brown's Gauss sum; vanishing --max past the search guard (ROADMAP item 5)
COMMANDS = ("enumerate", "brown", "vanishing", "gm", "surgery", "torsor")


class UsageError(PinquadError):
    """Bad flags or malformed input files."""


# the exit code of each error class; main reports the first entry that matches
EXIT_CODES: tuple[tuple[type[PinquadError], int], ...] = (
    (SurgeryObstructionError, EXIT_OBSTRUCTED),
    (NotCharacteristicError, EXIT_NOT_CHARACTERISTIC),
    (LimitError, EXIT_GUARD),
    (DegenerateFormError, EXIT_DEGENERATE),
    (DimensionMismatchError, EXIT_USAGE),
    (UnsupportedInputError, EXIT_USAGE),
    (UsageError, EXIT_USAGE),
    (InternalError, EXIT_INTERNAL),
)


def _load_json(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_FILE_BYTES + 1)
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror}") from None
    if len(data) > MAX_FILE_BYTES:  # refused before parsing, whose cost grows with the file
        raise LimitError(f"{path} exceeds file size cap {MAX_FILE_BYTES} bytes")
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError as e:  # bad syntax, bad UTF-8, or an integer past the digit limit
        raise UsageError(f"{path} is not valid JSON: {e}") from None
    except RecursionError:
        raise UsageError(f"{path} is not valid JSON: nested too deeply") from None


def _parse(parse, data, prefix: str = ""):
    """parse(data); malformed data becomes a UsageError, the package's own errors pass through."""
    try:
        return parse(data)
    except PinquadError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise UsageError(f"{prefix}{e}") from None


def _read(path: str, cls: type, what: str):
    """A cls read from a JSON file; a malformed file is a UsageError that names it a ``what``."""
    return _parse(cls.from_json, _load_json(path), f"{path} is not a valid {what}: ")


def _parse_bits(text: str, what: str) -> int:
    """A bit string, coordinate 0 first, as a class bitmask."""
    if not text or any(ch not in "01" for ch in text):
        raise UsageError(f"{what} must be a nonempty string of 0s and 1s, got {text!r}")
    return int(text[::-1], 2)


def _class_argument(path: str, text: str, flag: str, cls: type[F2Vector]) -> tuple:
    """(q, beta, class) from a file and a bit string.

    Checked in this order: the file, the bit string, beta (a degenerate form; beta has no
    guard); the class dimension is checked by the command's own operation.
    """
    from .brown import brown_invariant
    from .forms import Enhancement
    q = _read(path, Enhancement, "enhancement")
    bits = _parse_bits(text, flag)
    return q, brown_invariant(q), cls(len(text), bits)


def _basis_text(rows: Sequence[int], n: int) -> str:
    """Basis rows as ``[b, ...]``, each a bit string of length n, coordinate 0 first."""
    return f"[{', '.join(f'{r:0{n}b}'[::-1] for r in rows)}]"


def _basis_json(rows: Sequence[int], n: int) -> list[list[int]]:
    """Basis rows as lists of n coordinates."""
    return [[r >> i & 1 for i in range(n)] for r in rows]


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from None


def _surface_form(args: argparse.Namespace) -> BilinearForm:
    from .forms import BilinearForm, _check_enumeration_guard, crosscap_form, hyperbolic_form
    if args.genus is not None:
        if args.genus < 0:
            raise UsageError("--genus must be >= 0")
        # checked before the form is built: its row masks hold bits quadratic in the genus
        _check_enumeration_guard(2 * args.genus)
        return hyperbolic_form(args.genus)
    if args.crosscaps is not None:
        if args.crosscaps < 1:
            raise UsageError("--crosscaps must be >= 1")
        _check_enumeration_guard(args.crosscaps)
        return crosscap_form(args.crosscaps)
    return _form_argument(args.form, BilinearForm, "form")


def _form_argument(expr: str, cls: type, what: str):
    """A library form expression (mod 2 for a surface form), else a JSON file: names beat files."""
    from .fourmanifold import UnimodularForm, parse_form_name
    try:
        form = _parse(parse_form_name, expr)
    except UsageError:  # an unknown name; a sum over the rank cap is a LimitError and passes
        if not os.path.exists(expr):
            raise
        return _read(expr, cls, what)
    return form if cls is UnimodularForm else form.mod2()


def _emit(args: argparse.Namespace, record: Callable[[], object], text: Callable[[], str]) -> None:
    """Print the record as JSON under --json, else the text; only the one printed is built."""
    print(json.dumps(record()) if args.json else text())


def _render_table(records: Sequence[dict]) -> str:
    """The enumerate table: one row per enhancement, each column as wide as its widest cell."""
    rows = [["values", "beta", "max_null_dim"]] + [
        [
            str(rec["values"]),
            "degenerate" if rec["beta"] is None else str(rec["beta"]),
            str(rec["max_null_dim"]),
        ]
        for rec in records
    ]
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows)


def cmd_enumerate(args: argparse.Namespace) -> int:
    from .forms import _split, enumerate_enhancements
    from .vanishing import _max_null_dim
    form = _surface_form(args)
    n, records = form.dim, []
    for q in enumerate_enhancements(form):  # its guard comes before the first split
        beta, r, null_radical, _, _ = _split(form._bits, q.values)  # both columns read it
        null_dim = _max_null_dim(n, beta, r, null_radical)
        records.append({"values": list(q.values), "beta": None if r else beta, "max_null_dim": null_dim})
    _emit(args, lambda: records, lambda: _render_table(records))
    return EXIT_OK


def cmd_brown(args: argparse.Namespace) -> int:
    from .brown import brown_invariant, gauss_sum
    from .forms import Enhancement
    q = _read(args.enhancement, Enhancement, "enhancement")
    beta = brown_invariant(q)  # a degenerate form exits 3 at any rank
    if q.form.dim > MAX_GAUSS_DIM:
        raise LimitError(f"dim {q.form.dim} exceeds Gauss-sum guard {MAX_GAUSS_DIM}")
    gs = gauss_sum(q)
    record = lambda: {"beta": beta, "A": gs.a, "B": gs.b, "n": gs.n}
    _emit(args, record, lambda: f"beta={beta} A={gs.a} B={gs.b} n={gs.n}")
    return EXIT_OK


def cmd_vanishing(args: argparse.Namespace) -> int:
    from .forms import Enhancement
    from .vanishing import _check_search_guard, _null_bases, has_null_lagrangian, max_vanishing_dim
    if args.dim is not None and args.dim < 0:
        raise UsageError("--dim must be >= 0")
    q = _read(args.enhancement, Enhancement, "enhancement")
    n = q.form.dim
    if args.dim is not None:
        bases = list(_null_bases(q, args.dim))
        record = lambda: {"dim": args.dim, "subspaces": [_basis_json(b, n) for b in bases]}
        text = lambda: "\n".join(_basis_text(b, n) for b in bases) or "none"
        _emit(args, record, text)
        return EXIT_OK
    if args.max:
        _check_search_guard(q)
        d = max_vanishing_dim(q)
        _emit(args, lambda: {"max_null_dim": d}, lambda: str(d))
        return EXIT_OK
    lag = has_null_lagrangian(q)
    witness = next(_null_bases(q, n // 2)) if lag else None
    record = lambda: {"lagrangian": lag, "witness": _basis_json(witness, n) if lag else None}
    _emit(args, record, lambda: f"yes: {_basis_text(witness, n)}" if lag else "no")
    return EXIT_OK


def cmd_gm(args: argparse.Namespace) -> int:
    from .brown import brown_invariant
    from .forms import Enhancement
    from .fourmanifold import UnimodularForm, gm_required_beta
    form = _form_argument(args.form, UnimodularForm, "unimodular form")
    char = _parse_ints(args.char)
    required = gm_required_beta(form, char)
    observed = None
    if args.beta is not None:
        observed = args.beta % 8
    elif args.enhancement is not None:
        observed = brown_invariant(_read(args.enhancement, Enhancement, "enhancement"))
    verdict = None if observed is None else ("PASS" if observed == required else "FAIL")
    record = lambda: {"required_beta": required, "observed_beta": observed, "verdict": verdict}
    text = lambda: f"required beta = {required}" + (
        "" if observed is None else f"\nobserved beta = {observed}\n{verdict}"
    )
    _emit(args, record, text)
    return EXIT_OK if verdict in (None, "PASS") else EXIT_FAIL


def cmd_surgery(args: argparse.Namespace) -> int:
    from .brown import brown_invariant
    from .forms import F2Vector, isotropic_reduction
    q, beta_before, c = _class_argument(args.enhancement, args.surgery_class, "--class", F2Vector)
    reduced = isotropic_reduction(q, c)
    beta_after = brown_invariant(reduced)
    if beta_before != beta_after:
        raise InternalError(f"surgery changed beta: {beta_before} -> {beta_after}; this is a bug")
    report = {"beta_before": beta_before, "beta_after": beta_after}
    text = lambda: f"beta {beta_before} -> {beta_after}\n{json.dumps(reduced.to_json())}"
    _emit(args, lambda: {**reduced.to_json(), **report}, text)
    return EXIT_OK


def cmd_torsor(args: argparse.Namespace) -> int:
    from .brown import brown_invariant
    from .forms import Covector, eval_q, poincare_dual, torsor_act
    q, beta_before, y = _class_argument(args.enhancement, args.covector, "--covector", Covector)
    acted = torsor_act(q, y)
    beta_after = brown_invariant(acted)
    measured = (beta_after - beta_before) % 8
    # sign convention of the ray table in brown: acting by y shifts beta by -2*q(dual(y)) mod 8
    predicted = (-2 * eval_q(q, poincare_dual(q.form, y))) % 8
    if measured != predicted:
        raise InternalError(f"torsor changed beta by {measured}, predicted {predicted}; this is a bug")
    report = {
        "beta_before": beta_before,
        "beta_after": beta_after,
        "predicted_delta": predicted,
        "measured_delta": measured,
        "verdict": "MATCH",
    }
    text = lambda: (
        f"predicted delta = {predicted}\nmeasured delta = {measured}\n"
        f"MATCH\n{json.dumps(acted.to_json())}"
    )
    _emit(args, lambda: {**acted.to_json(), **report}, text)
    return EXIT_OK


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of all six commands, or the top-level parser with the named command's alone."""
    parser = argparse.ArgumentParser(
        prog="pinquad",
        description="Quadratic enhancements of surface forms: Brown invariants, "
        "q-null subspaces, surgery, and Guillou-Marin checks.",
    )
    # with one subparser the usage line of an error still names all six commands; the full
    # parser keeps no metavar, which would rename "argument command" in its own errors
    metavar = "{%s}" % ",".join(COMMANDS) if command else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    if command in (None, "enumerate"):
        p = sub.add_parser("enumerate", help="list all enhancements of a surface form")
        kind = p.add_mutually_exclusive_group(required=True)
        kind.add_argument("--genus", type=int, help="orientable surface of this genus")
        kind.add_argument("--crosscaps", type=int, help="nonorientable surface with this many crosscaps")
        kind.add_argument("--form", help="JSON form file, or a library name such as H or 1+1")
        p.set_defaults(func=cmd_enumerate)

    if command in (None, "brown"):
        p = sub.add_parser("brown", help="Brown invariant and Gauss sum of an enhancement")
        p.add_argument("enhancement", help="enhancement JSON file")
        p.set_defaults(func=cmd_brown)

    if command in (None, "vanishing"):
        p = sub.add_parser("vanishing", help="subspaces on which the enhancement vanishes")
        p.add_argument("enhancement", help="enhancement JSON file")
        mode = p.add_mutually_exclusive_group(required=True)
        mode.add_argument("--dim", type=int, help="list all q-null subspaces of this dimension")
        mode.add_argument("--max", action="store_true", help="largest q-null dimension")
        mode.add_argument(
            "--lagrangian", action="store_true", help="test for a half-dimensional q-null subspace"
        )
        p.set_defaults(func=cmd_vanishing)

    if command in (None, "gm"):
        p = sub.add_parser("gm", help="Guillou-Marin congruence for a characteristic vector")
        p.add_argument("--form", required=True, help="unimodular form file or name (1, -1, H, E8, sums with +)")
        p.add_argument("--char", required=True, help="characteristic vector, comma-separated integers")
        check = p.add_mutually_exclusive_group()
        check.add_argument("--beta", type=int, help="candidate Brown invariant to verify")
        check.add_argument("--enhancement", help="enhancement JSON file to verify")
        p.set_defaults(func=cmd_gm)

    if command in (None, "surgery"):
        p = sub.add_parser("surgery", help="reduce an enhancement along a q-null class")
        p.add_argument("enhancement", help="enhancement JSON file")
        p.add_argument("--class", dest="surgery_class", required=True, help="class as a bit string")
        p.set_defaults(func=cmd_surgery)

    if command in (None, "torsor"):
        p = sub.add_parser("torsor", help="act on an enhancement by a cohomology class")
        p.add_argument("enhancement", help="enhancement JSON file")
        p.add_argument("--covector", required=True, help="acting class as a bit string")
        p.set_defaults(func=cmd_torsor)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a command named first parses with its own subparser alone; anything else, with all six
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except PinquadError as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(e, cls))
    except OSError:  # a failed write: entry() makes it a usage error
        raise
    except Exception as e:  # any other exception is a bug, not a FAIL and not a traceback
        print(f"error: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    import signal  # only a command run needs it; importing it builds three enums, about 1.5 ms

    # Python ignores SIGPIPE, which turns a closed pipe into a traceback and exit 1
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    try:  # any other write error (a full disk, /dev/full) is a usage error, not a traceback
        code = main()
        sys.stdout.flush()
    except OSError as e:
        print(f"error: cannot write output: {e.strerror}", file=sys.stderr)
        # the unwritten buffer is flushed again at exit; let that flush go nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = EXIT_USAGE
    # frozen objects skip the collections at exit, which walk every class, function and global
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()

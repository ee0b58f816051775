"""The four workloads: seeded inputs turned into answer-checked operations.

An op is one call of a public pinquad function (or one ``pinquad`` command)
on generated inputs.  Its check returns None when the answer is right, or a
``Failure``: kind "wrong" for a wrong value, kind "error" for an unexpected
exception or exit code.

Objects with lazily cached state (``BilinearForm`` caches its rank) are built
inside each op from plain data, so every repetition of an op does the same
work; objects without such state are built once when the op list is made.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable

import child
import gen
import oracle

import pinquad as P
import pinquad.cli


@dataclass(frozen=True)
class Failure:
    kind: str  # "wrong" or "error"
    cause: str


@dataclass
class Op:
    label: str  # public function or CLI command exercised
    rank: int
    call: Callable[[], Any]
    check: Callable[[Any], Failure | None]


def _describe(x: Any) -> str:
    if isinstance(x, BaseException):
        return f"{type(x).__name__}: {str(x)[:80]}"
    return repr(x)[:120]


def expect_value(want: Any) -> Callable[[Any], Failure | None]:
    def check(got):
        if isinstance(got, BaseException):
            return Failure("error", f"raised {_describe(got)}, expected {want!r}")
        if got != want:
            return Failure("wrong", f"returned {_describe(got)}, expected {want!r}")
        return None

    return check


def expect_raise(exc: type, **attrs) -> Callable[[Any], Failure | None]:
    def check(got):
        if not isinstance(got, exc):
            return Failure("error", f"got {_describe(got)}, expected {exc.__name__}")
        for k, v in attrs.items():
            if getattr(got, k, None) != v:
                return Failure("wrong", f"{exc.__name__}.{k} = {getattr(got, k, None)!r}, expected {v!r}")
        return None

    return check


def expect_true(pred: Callable[[Any], bool], what: str) -> Callable[[Any], Failure | None]:
    def check(got):
        if isinstance(got, BaseException):
            return Failure("error", f"raised {_describe(got)}, expected {what}")
        if not pred(got):
            return Failure("wrong", f"returned {_describe(got)}, expected {what}")
        return None

    return check


def _rows(gram: list[list[int]]) -> list[int]:
    return [sum(b << j for j, b in enumerate(r)) for r in gram]


def _enh(rec: dict) -> Callable[[], P.Enhancement]:
    """A builder of a fresh Enhancement from an input record."""
    n = len(rec["values"])
    gram = tuple(tuple(r) for r in rec["gram"])
    values = tuple(rec["values"])
    return lambda: P.Enhancement(P.BilinearForm(n, gram), values)


# --- census ---------------------------------------------------------------------
#
# Every rank from 2 to 10 in each round: the standard H^g (beta 0 and 4) and
# crosscap forms in their own basis, a re-based nondegenerate form, and one
# degenerate form.  The beta of each slot is fixed by the round number, so
# every seed runs the same mix of easy and hard null searches; the seed picks
# the pieces and the change of basis.

CENSUS_ROUNDS = 12


def census_inputs(seed: int) -> list[dict]:
    rng = gen.rng_for("census", seed)
    recs = []
    for rnd in range(CENSUS_ROUNDS):
        for n in range(2, 11):
            if n % 2 == 0:
                recs += [gen.hyperbolic(rng, n // 2, 0), gen.hyperbolic(rng, n // 2, 4)]
            # crosscaps take every beta of their parity, rank 2 only 0, 2 and 6
            betas = gen.feasible_betas(n, True)
            recs.append(gen.crosscaps(rng, n, betas[(rnd + n) % len(betas)]))
            # re-based forms: even forms (beta 0 or 4) every other round at even rank
            odd = n % 2 == 1 or rnd % 2 == 0
            betas = gen.feasible_betas(n, odd)
            recs.append(gen.rebased(rng, n, betas[(rnd + n // 2) % len(betas)], odd))
        recs.append(gen.degenerate(rng, 4 + rnd % 4, 1 + rnd % 2))
    return recs


def census_ops(recs: list[dict]) -> list[Op]:
    ops = []
    for rec in recs:
        n, enh = len(rec["values"]), _enh(rec)
        degenerate = rec.get("degenerate", False)
        beta = expect_raise(P.DegenerateFormError) if degenerate else expect_value(rec["beta"])
        ops += [
            Op("brown_invariant", n, lambda e=enh: P.brown_invariant(e()), beta),
            Op("max_vanishing_dim", n, lambda e=enh: P.max_vanishing_dim(e()),
               expect_value(rec["max_null"])),
        ]
        if n % 2 == 0 and not degenerate:
            ops.append(Op("has_null_lagrangian", n, lambda e=enh: P.has_null_lagrangian(e()),
                          expect_value(rec["lagrangian"])))
    return ops


# --- highrank -------------------------------------------------------------------
#
# One enhancement of each rank 14..20 per round; even ranks alternate between
# even forms (which also get arf_from_brown) and odd forms, so the op mix per
# pair of rounds is fixed.  Every op tabulates all 2^n classes.

HIGHRANK_ROUNDS = 4


def highrank_inputs(seed: int) -> list[dict]:
    rng = gen.rng_for("highrank", seed)
    recs = []
    for rnd in range(HIGHRANK_ROUNDS):
        for n in range(14, 21):
            odd = n % 2 == 1 or rnd % 2 == 1
            recs.append(gen.rebased(rng, n, rng.choice(gen.feasible_betas(n, odd)), odd))
    return recs


def highrank_ops(recs: list[dict]) -> list[Op]:
    ops = []
    for rec in recs:
        n, enh = len(rec["values"]), _enh(rec)
        want = (n, *rec["gauss"], 1 << n)
        ops += [
            Op("brown_invariant", n, lambda e=enh: P.brown_invariant(e()), expect_value(rec["beta"])),
            Op("gauss_sum", n, lambda e=enh: P.gauss_sum(e()),
               expect_true(lambda r, w=want: (r.n, r.a, r.b, sum(r.counts)) == w,
                           f"(n, A, B, 2^n) = {want}")),
        ]
        if rec["even"]:
            ops.append(Op("arf_from_brown", n, lambda e=enh: P.arf_from_brown(e()),
                          expect_value(rec["beta"] // 4)))
    return ops


# --- algebra --------------------------------------------------------------------
#
# Small exact linear algebra: unimodular forms at the rank-12 cap, Poincare
# duality, torsor action and surgery on surface forms up to rank 32, and F2
# elimination at rank 32.  Obstructed surgery classes and non-characteristic
# vectors are included, each with its expected error.

ALGEBRA_ROUNDS = 3
LIBRARY_SUMS = ("E8+H+H", "E8+1+1+1+-1", "H+H+H+H+H+H", "1+1+1+1+1+1+1+1+-1+-1+-1+-1", "E8+H+1+-1")
SURFACE_RANKS = (8, 16, 24, 32)


def algebra_inputs(seed: int) -> dict:
    rng = gen.rng_for("algebra", seed)
    forms, surfaces, systems = [], [], []
    for rnd in range(ALGEBRA_ROUNDS):
        for i, expr in enumerate(LIBRARY_SUMS):
            f = gen.congruent_form(rng, expr, 24)
            # an enhancement whose beta matches the required one on alternate forms
            g = rng.randrange(1, 7)
            f["enhancement"] = gen.rebased(rng, 2 * g, (f["required_beta"] + 4 * ((rnd + i) % 2)) % 8, False)
            forms.append(f)
        for n in SURFACE_RANKS:
            odd = (rnd + n // 8) % 2 == 1
            s = gen.rebased(rng, n, rng.choice(gen.feasible_betas(n, odd)), odd)
            rows, values = _rows(s["gram"]), s["values"]
            z = rng.getrandbits(n) or 1
            s["covector"] = oracle.mat_vec(rows, z)  # y = G z, so its Poincare dual is z
            s["null_class"] = gen.null_class(rng, rows, values)
            s["obstructed"] = {"zero class": 0}
            while "q(c) != 0" not in s["obstructed"] or (odd and "c.c != 0" not in s["obstructed"]):
                c = rng.getrandbits(n)
                if oracle.dot(rows, c, c):
                    s["obstructed"].setdefault("c.c != 0", c)
                elif oracle.q_value(rows, values, c):
                    s["obstructed"].setdefault("q(c) != 0", c)
            surfaces.append(s)
        systems += [gen.f2_system(rng, 32) for _ in range(4)]
    return {"forms": forms, "surfaces": surfaces, "systems": systems}


def _check_reduction(n: int, beta: int):
    def ok(r):
        rows = _rows([list(row) for row in r.form.gram])
        return (
            r.form.dim == n - 2
            and oracle.f2_rank(rows) == n - 2
            and oracle.beta_by_splitting(rows, list(r.values)) == beta
        )

    return expect_true(ok, f"a rank-{n - 2} enhancement with beta {beta}")


def _annihilates(rows: list[int], basis) -> bool:
    return all(oracle.mat_vec(rows, v.bits) == 0 for v in basis)


def algebra_ops(inputs: dict) -> list[Op]:
    ops = []
    for f in inputs["forms"]:
        n, gram = len(f["gram"]), tuple(tuple(r) for r in f["gram"])
        m = P.UnimodularForm(n, gram)
        char, bad = tuple(f["char"]), tuple(f["bad_char"])
        enh = _enh(f["enhancement"])
        not_char = expect_raise(P.NotCharacteristicError, index=f["bad_index"])
        ops += [
            Op("UnimodularForm", n, lambda g=gram, n=n: P.UnimodularForm(n, g), expect_value(m)),
            Op("signature", n, lambda m=m: P.signature(m), expect_value(f["signature"])),
            Op("gm_required_beta", n, lambda m=m, c=char: P.gm_required_beta(m, c),
               expect_value(f["required_beta"])),
            Op("gm_required_beta", n, lambda m=m, c=bad: P.gm_required_beta(m, c), not_char),
            Op("gm_check", n, lambda m=m, c=char, e=enh: P.gm_check(m, c, e()),
               expect_value(f["enhancement"]["beta"] == f["required_beta"])),
        ]
    for s in inputs["surfaces"]:
        n, enh, rows, y = len(s["values"]), _enh(s), _rows(s["gram"]), s["covector"]
        gram = tuple(tuple(r) for r in s["gram"])
        cov = P.Covector(n, y)
        acted = [(v + 2 * ((y >> i) & 1)) % 4 for i, v in enumerate(s["values"])]
        ops += [
            Op("poincare_dual", n, lambda g=gram, n=n, y=cov: P.poincare_dual(P.BilinearForm(n, g), y),
               expect_true(lambda r, rows=rows, y=y: oracle.mat_vec(rows, r.bits) == y, "G.x = y")),
            Op("torsor_act", n, lambda e=enh, y=cov: P.torsor_act(e(), y),
               expect_true(lambda r, a=acted: list(r.values) == a, f"values {acted}")),
            Op("isotropic_reduction", n,
               lambda e=enh, c=P.F2Vector(n, s["null_class"]): P.isotropic_reduction(e(), c),
               _check_reduction(n, s["beta"])),
        ]
        for reason, c in s["obstructed"].items():
            ops.append(Op(
                "isotropic_reduction", n, lambda e=enh, c=P.F2Vector(n, c): P.isotropic_reduction(e(), c),
                expect_raise(P.SurgeryObstructionError, reason=reason),
            ))
    for sy in inputs["systems"]:
        n, rows, r = sy["n"], sy["rows"], sy["rank"]
        mat = P.F2Matrix(n, n, tuple(rows))
        b_in = sy["b_in"]
        ops += [
            Op("rank", n, lambda m=mat: P.rank(m), expect_value(r)),
            Op("solve", n, lambda m=mat, b=P.F2Vector(n, b_in): P.solve(m, b),
               expect_true(lambda x, rows=rows, b=b_in: x is not None and oracle.mat_vec(rows, x.bits) == b,
                           "a solution")),
            Op("kernel_basis", n, lambda m=mat: P.kernel_basis(m),
               expect_true(lambda k, rows=rows, d=n - r: k.dim == d and _annihilates(rows, k.basis),
                           f"a kernel of dim {n - r}")),
        ]
        if sy["b_out"] is not None:
            ops.append(Op("solve", n, lambda m=mat, b=P.F2Vector(n, sy["b_out"]): P.solve(m, b),
                          expect_value(None)))
    return ops


# --- cli_session ------------------------------------------------------------------
#
# A fixed script of ``pinquad`` commands over generated JSON files, one child
# process at a time.  It is the only workload that pays interpreter start-up,
# imports, JSON parsing and rendering, and the only one that lists q-null
# subspaces.  A small share of the files are malformed or out of domain and
# expect the documented exit codes 2-6.

CLI_ROUNDS = 2
DEEP_NESTING = 100_000


def _enh_json(rec: dict) -> dict:
    n = len(rec["values"])
    return {"form": {"dim": n, "gram": rec["gram"]}, "values": rec["values"]}


def _bits(mask: int, n: int) -> str:
    return "".join(str((mask >> i) & 1) for i in range(n))


def _null_count(rows: list[int], values: list[int], dim: int) -> int:
    """Number of q-null subspaces of dimension 1 or 2, counted over classes."""
    zero = [x for x in range(1, 1 << len(values)) if oracle.q_value(rows, values, x) == 0]
    if dim == 1:
        return len(zero)
    # each q-null plane holds three q-zero classes, pairwise orthogonal
    pairs = sum(1 for i, x in enumerate(zero) for y in zero[i + 1 :] if not oracle.dot(rows, x, y))
    return pairs // 3


def cli_inputs(seed: int) -> dict:
    """Files (name -> JSON text) and commands (argv with {name} placeholders, expectation)."""
    rng = gen.rng_for("cli_session", seed)
    files: dict[str, str] = {}
    cmds: list[tuple[list[str], dict]] = []

    def put(name: str, data: Any) -> str:
        files[name] = data if isinstance(data, str) else json.dumps(data)
        return "{" + name + "}"

    for rnd in range(CLI_ROUNDS):
        r = f"r{rnd}"
        # the costly commands (brown at rank 20, Lagrangian searches at rank 10)
        # run once per script, so the slowest tenth of commands is made of them
        for n in ((2, 6, 12, 16, 20), (2, 6, 12, 16, 18))[rnd]:
            e = gen.rebased(rng, n, rng.choice(gen.feasible_betas(n, True)), True)
            a, b = e["gauss"]
            cmds.append((["brown", put(f"{r}_brown{n}", _enh_json(e))],
                         {"stdout": f"beta={e['beta']} A={a} B={b} n={n}\n"}))
        e = gen.rebased(rng, 14, 4, False)
        cmds.append((["brown", put(f"{r}_brown14", _enh_json(e)), "--json"],
                     {"json": {"beta": 4, "A": -128, "B": 0, "n": 14}}))
        for n, beta, odd in ((6, 2, True), (8, 4, False), (10, 2 + 4 * rnd, True)):
            e = gen.rebased(rng, n, beta, odd)
            cmds.append((["vanishing", put(f"{r}_max{n}", _enh_json(e)), "--max"],
                         {"stdout": f"{e['max_null']}\n"}))
        for n, beta in (((8, 0), (10, 0), (10, 4)), ((6, 0), (8, 0), (8, 4)))[rnd]:
            e = gen.rebased(rng, n, beta, rnd == 0)
            cmds.append((["vanishing", put(f"{r}_lag{n}_{beta}", _enh_json(e)), "--lagrangian", "--json"],
                         {"lagrangian": e["lagrangian"], "rec": e}))
        for n, dim in ((10, 1), (8, 2)):
            e = gen.rebased(rng, n, 0, rnd == 1)
            count = _null_count(_rows(e["gram"]), e["values"], dim)
            cmds.append((["vanishing", put(f"{r}_dim{n}", _enh_json(e)), "--dim", str(dim), "--json"],
                         {"subspaces": count, "dim": dim, "rec": e}))
        f = gen.congruent_form(rng, LIBRARY_SUMS[rnd], 0)
        char = ",".join(map(str, f["char"]))
        req = f["required_beta"]
        cmds.append((["gm", "--form", f["expr"], f"--char={char}", "--beta", str(req)],
                     {"stdout": f"required beta = {req}\nobserved beta = {req}\nPASS\n"}))
        cmds.append((["gm", "--form", f["expr"], f"--char={char}", "--beta", str(req + 2)],
                     {"stdout": f"required beta = {req}\nobserved beta = {(req + 2) % 8}\nFAIL\n",
                      "code": 1}))
        f = gen.congruent_form(rng, LIBRARY_SUMS[2 + rnd], 24)
        e = gen.rebased(rng, 8, f["required_beta"], False)
        form_file = put(f"{r}_form", {"dim": len(f["gram"]), "gram": f["gram"]})
        char = ",".join(map(str, f["char"]))
        enh_file = put(f"{r}_gm_enh", _enh_json(e))
        req = f["required_beta"]
        cmds.append((["gm", "--form", form_file, f"--char={char}", "--enhancement", enh_file],
                     {"stdout": f"required beta = {req}\nobserved beta = {e['beta']}\nPASS\n"}))
        e = gen.rebased(rng, 12, rng.choice(gen.feasible_betas(12, True)), True)
        rows = _rows(e["gram"])
        c = gen.null_class(rng, rows, e["values"])
        cmds.append((["surgery", put(f"{r}_surg", _enh_json(e)), "--class", _bits(c, 12)], {"surgery": e}))
        z = rng.getrandbits(12) or 1
        y = oracle.mat_vec(rows, z)
        delta = (-2 * oracle.q_value(rows, e["values"], z)) % 8
        acted = [(v + 2 * ((y >> i) & 1)) % 4 for i, v in enumerate(e["values"])]
        acted_json = json.dumps({"form": {"dim": 12, "gram": e["gram"]}, "values": acted})
        cmds.append((["torsor", put(f"{r}_tors", _enh_json(e)), "--covector", _bits(y, 12)],
                     {"stdout": f"predicted delta = {delta}\nmeasured delta = {delta}\nMATCH\n"
                                f"{acted_json}\n"}))
        cmds.append((["enumerate", "--genus", str(1 + rnd), "--json"], {"enumerate": ("genus", 1 + rnd)}))
        cmds.append((["enumerate", "--crosscaps", str(2 + rnd), "--json"],
                     {"enumerate": ("crosscaps", 2 + rnd)}))
    # out-of-domain and malformed inputs, with the exit codes the CLI documents
    e = gen.rebased(rng, 4, 0, True)
    truncated = json.dumps(_enh_json(e))[:-10]
    short = {"form": {"dim": 4, "gram": e["gram"]}, "values": e["values"][:3]}
    cmds += [
        (["brown", put("bad_json", truncated)], {"code": 2}),
        (["brown", put("bad_len", short)], {"code": 2}),
        (["brown", put("degenerate", _enh_json(gen.degenerate(rng, 6, 2)))], {"code": 3}),
        (["brown", put("rank22", _enh_json(gen.rebased(rng, 22, 0, True)))], {"code": 4}),
        (["vanishing", put("rank12", _enh_json(gen.rebased(rng, 12, 0, False))), "--max"], {"code": 4}),
        (["gm", "--form", "E8+H+1+-1", "--char", ",".join(["0"] * 10 + ["2", "1"])], {"code": 5}),
        (["surgery", "{r0_surg}", "--class", "0" * 12], {"code": 6}),
        (["brown", put("deep", "[" * DEEP_NESTING + "]" * DEEP_NESTING)], {"code": 2}),
    ]
    return {"files": files, "commands": cmds}


def _enumerate_records(kind: str, k: int) -> list[dict]:
    n = 2 * k if kind == "genus" else k
    rows = [1 << (i ^ 1) for i in range(n)] if kind == "genus" else [1 << i for i in range(n)]
    diag = [(r >> i) & 1 for i, r in enumerate(rows)]
    out = []
    for choice in range(1 << n):
        values = [diag[i] + 2 * ((choice >> i) & 1) for i in range(n)]
        beta = oracle.beta_by_splitting(rows, values)
        out.append({"values": values, "beta": beta, "max_null_dim": (n - oracle.ANISOTROPIC_RANK[beta]) // 2})
    return out


def _cli_check(want: dict) -> Callable[[Any], Failure | None]:
    code_want = want.get("code", 0)

    def check(got):
        if isinstance(got, BaseException):
            return Failure("error", f"the command could not run: {_describe(got)}")
        code, out, err = got
        if code != code_want:
            tail = err.strip().splitlines()[-1:] if err.strip() else ["no stderr"]
            return Failure("error", f"exit {code}, expected {code_want}: {tail[0][:100]}")
        if "stdout" in want:
            if out != want["stdout"]:
                return Failure("wrong", f"stdout {out[:80]!r}, expected {want['stdout'][:80]!r}")
            return None
        if "json" in want:
            return None if json.loads(out) == want["json"] else Failure("wrong", f"stdout {out[:80]!r}")
        if "lagrangian" in want:
            return _check_lagrangian(json.loads(out), want)
        if "subspaces" in want:
            return _check_listing(json.loads(out), want)
        if "surgery" in want:
            return _check_surgery(out, want["surgery"])
        if "enumerate" in want:
            if json.loads(out) != _enumerate_records(*want["enumerate"]):
                return Failure("wrong", "enumerate records differ")
        return None

    return check


def _coord_masks(basis: list[list[int]]) -> list[int]:
    return [sum(b << i for i, b in enumerate(v)) for v in basis]


def _check_lagrangian(got: dict, want: dict) -> Failure | None:
    rec = want["rec"]
    n = len(rec["values"])
    if got["lagrangian"] != want["lagrangian"]:
        return Failure("wrong", f"lagrangian {got['lagrangian']}, expected {want['lagrangian']}")
    if not want["lagrangian"]:
        return None if got["witness"] is None else Failure("wrong", "witness without a Lagrangian")
    basis = _coord_masks(got["witness"])
    if len(basis) != n // 2 or not oracle.is_null_subspace(_rows(rec["gram"]), rec["values"], basis):
        return Failure("wrong", "witness is not a q-null Lagrangian")
    return None


def _check_listing(got: dict, want: dict) -> Failure | None:
    rec = want["rec"]
    rows = _rows(rec["gram"])
    bases = [tuple(_coord_masks(b)) for b in got["subspaces"]]
    if len(bases) != want["subspaces"] or len(set(bases)) != len(bases):
        return Failure("wrong", f"{len(bases)} subspaces listed, expected {want['subspaces']}")
    null = [len(b) == want["dim"] and oracle.is_null_subspace(rows, rec["values"], list(b)) for b in bases]
    if not all(null):
        return Failure("wrong", "a listed subspace is not q-null")
    return None


def _check_surgery(out: str, rec: dict) -> Failure | None:
    head, _, body = out.partition("\n")
    if head != f"beta {rec['beta']} -> {rec['beta']}":
        return Failure("wrong", f"surgery reported {head!r}")
    red = json.loads(body)
    rows = _rows(red["form"]["gram"])
    n = len(rec["values"]) - 2
    beta = oracle.beta_by_splitting(rows, red["values"]) if oracle.f2_rank(rows) == n else None
    if red["form"]["dim"] != n or beta != rec["beta"]:
        return Failure("wrong", "reduced enhancement has the wrong rank or beta")
    return None


def cli_ops(inputs: dict, workdir: str, root: str, in_process: bool) -> list[Op]:
    """Write the files and build one op per command.

    Each op runs ``python -m pinquad.cli`` as a child process, or, for the
    traced replay, calls ``pinquad.cli.main`` in this process; an exception
    escaping ``main`` counts as exit status 1, as it does for the child.
    """
    paths = {}
    for name, text in inputs["files"].items():
        paths[name] = os.path.join(workdir, name + ".json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    ops = []
    for argv, want in inputs["commands"]:
        args = [a.format(**paths) if a.startswith("{") else a for a in argv]
        if in_process:
            call = lambda args=args: _main_in_process(args)
        else:
            call = lambda args=args: child.run_python(["-m", "pinquad.cli", *args], env, root)
        ops.append(Op(argv[0], 0, call, _cli_check(want)))
    return ops


def _main_in_process(args: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = pinquad.cli.main(args)
        except Exception as e:  # an uncaught error ends the real process with status 1
            print(f"{type(e).__name__}: {e}", file=sys.stderr)
            code = 1
    return code, out.getvalue(), err.getvalue()

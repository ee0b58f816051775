"""Mutation gate: every fault listed here, planted in ``src/``, must make its listed tests fail.

Usage, from anywhere (no options):

    python tools/mutants.py

Each entry of ``MUTANTS`` names a file in ``src/pinquad``, text that occurs in it exactly once,
the text that replaces it, and the tests expected to kill the mutant.  The mutants run one at
a time on a temporary copy of ``src/``: the file is rewritten there, the listed tests run with
``python -m pytest -q -x -p no:cacheprovider`` from the repository root, with ``PYTHONPATH``
set to the copy and no bytecode written, and the file is put back.  A mutant is killed when
pytest exits 1 (a test failed) or 2 (collection failed, as when the mutant breaks the import;
such a mutant lists a test file, since a test ID in a file that fails to import is not found).
Exit 0 is a survivor.  ``EQUIVALENT`` lists mutants no test can kill, each with its proof;
they are checked to apply, but not run.

Exit status 1 on a survivor or on an error of the gate: old text that does not occur exactly
once, a mutant that does not compile, listed tests that fail on the unmutated copy, or pytest
exiting 4 (a test ID not found) or 5 (no test collected).  Reference: DeMillo, Lipton and
Sayward, "Hints on test data selection", IEEE Computer 11(4), 1978.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]

# (file in src/pinquad, old text, new text, tests in tests/ expected to kill the mutant)
MUTANTS = [
    # the orthogonal split: its pick, a plane's 4, an odd class's sign; a step with one partner,
    # or a plane whose u alone has partners, skipped as if nothing paired with it; the pieces
    # collected on rows of n + 1 bits too, the constants of a shape kept by its width alone
    ("forms.py", "pick = q0 & alive or alive", "pick = alive",
     ["test_brown.py::TestSplit::test_pieces_against_naive_pairings"]),
    ("forms.py", "beta += 4", "beta += 0",
     ["test_brown.py::TestBrownInvariant::test_known_values"]),
    ("forms.py", "beta -= 1", "beta += 1",
     ["test_brown.py::TestBrownInvariant::test_known_values"]),
    ("forms.py", "if s:  # v + u", "if s & s - 1:  # v + u",
     ["test_brown.py::TestSplit::test_pieces_against_naive_pairings"]),
    ("forms.py", "if su | sw:", "if sw:",
     ["test_brown.py::TestSplit::test_pieces_against_naive_pairings"]),
    ("forms.py", "carry = w > n + 1", "carry = w > n",
     ["test_brown.py::TestSplitContract::test_no_pieces_without_bits_above_n"]),
    ("forms.py", "_SHAPES[n, w] = row, ones, fan",
     "_SHAPES.update(dict.fromkeys([(m, w) for m in range(w)], (row, ones, fan)))",
     ["test_brown.py::TestSplitContract::test_shapes_of_one_width_keep_their_own_constants"]),
    # the split's rows past _MAX_PACKED_STRIDE, one at a time: a plane's row w, the addition
    ("forms.py", "_add_rows(rows, gw, su)", "_add_rows(rows, gu, su)",
     ["test_brown.py::TestSplitOracle::test_matches_the_gauss_sum_by_elimination"]),
    ("forms.py", "rows[b.bit_length() - 1] ^= g", "rows[b.bit_length() - 1] |= g",
     ["test_brown.py::TestSplitOracle::test_matches_the_gauss_sum_by_elimination"]),
    # F2 elimination on packed rows: the pivot row added to the others only, the pivot row read
    # one bit off, its column read one bit off, the pivot always a highest bit, the rows in
    # increasing pivot order with top; the kernel read off rows reduced at their highest bits
    ("f2.py", "* ((packed >> p & ones) ^ 1 << k)", "* (packed >> p & ones)",
     ["test_f2.py::TestRref::test_reduced_echelon_to_720_columns[159]"]),
    ("f2.py", "(packed >> k & row) *", "(packed >> k + 1 & row) *",
     ["test_f2.py::TestRref::test_reduced_echelon_spanning_the_rows"]),
    ("f2.py", "((packed >> p & ones) ^", "((packed >> p + 1 & ones) ^",
     ["test_f2.py::TestRref::test_tall_wide_zero_repeated_and_empty_lists"]),
    ("f2.py", "if top else (x & -x).bit_length() - 1", "",
     ["test_f2.py::TestRref::test_reduced_echelon_spanning_the_rows"]),
    ("f2.py", "pivots.sort(reverse=top)", "pivots.sort()",
     ["test_f2.py::TestRref::test_reduced_echelon_spanning_the_rows"]),
    ("f2.py", "_rref(m.row_masks, top=True)", "_rref(m.row_masks)",
     ["test_f2.py::TestKernelBasis::test_wide_kernels_of_few_rows"]),
    # the Gauss sum: its modulus, its ray, the count of even classes by the diagonal
    ("brown.py", "shift = (n + r) // 2", "shift = n // 2",
     ["test_brown.py::TestGaussSumCounts::test_matches_oracle[degenerate]"]),
    ("brown.py", "a, b = _RAYS[beta]", "a, b = _RAYS[-beta]",
     ["test_brown.py::TestGaussSum::test_rp2"]),
    ("brown.py", "even = 1 << (n - 1) if 1 in q.form._diag else", "even = 1 << (n - 1) if n else",
     ["test_brown.py::TestGaussSumCounts::test_matches_oracle[standard]"]),
    # the form: the Gram check, the packed rows, the diagonal; the parity of q's values
    ("forms.py", "valid = len(gram) == dim and cols == gram", "valid = len(gram) == dim",
     ["test_forms.py::TestBilinearForm::test_rejects_asymmetric_gram"]),
    ("forms.py", "_unpack(bits >> h * w, n - h, w)", "_unpack(bits >> h * w, h, w)",
     ["test_forms.py::TestMaskConstructor::test_equals_the_form_of_its_gram_tuple"]),
    ("forms.py", "_pack(rows[h:], w) << h * w", "_pack(rows[h:], w) << (h - 1) * w",
     ["test_forms.py::TestMaskConstructor::test_equals_the_form_of_its_gram_tuple"]),
    ("forms.py", "joined[:: dim + 2]", "joined[:: dim + 1]",
     ["test_forms.py::TestMaskConstructor::test_equals_the_form_of_its_gram_tuple"]),
    ("forms.py", "if raw.translate(_PARITY) != form._diag:",
     'if b"\\xff" in raw.translate(_PARITY):',
     ["test_forms.py::TestEnhancementConstruction::test_parity_constraint_enforced"]),
    # the values of q: the table's pairing term, the closed formula's pairs
    ("forms.py", "(t + vi + 2 * ((x & row).bit_count() & 1)) & 3", "(t + vi) & 3",
     ["test_forms.py::TestEvalQ::test_matches_law_construction"]),
    ("forms.py", "pairs += (rows[i] & m).bit_count()", "pairs += (rows[i] & bits).bit_count()",
     ["test_forms.py::TestEvalQ::test_torus_cross_term"]),
    # the Poincare dual: a plane's two classes left unswapped
    ("forms.py", "dual ^= u * ((yb & w).bit_count() & 1) ^ w * ((yb & u).bit_count() & 1)",
     "dual ^= u * ((yb & u).bit_count() & 1) ^ w * ((yb & w).bit_count() & 1)",
     ["test_census.py::test_poincare_dual_of_every_covector"]),
    # surgery: the radical check, the choice of h, the value term 2 e_j.e_h
    ("forms.py", "if not perp:", "if False:",
     ["test_forms.py::TestIsotropicReduction::test_degenerate_rejected"]),
    ("forms.py", "h = perp.bit_length() - 1", "h = (perp & -perp).bit_length() - 1",
     ["test_forms.py::TestIsotropicReduction::test_matches_kernel_elimination"]),
    ("forms.py", "v += qh + 2 * (gh >> j & 1)", "v += qh",
     ["test_forms.py::TestIsotropicReduction::test_matches_kernel_elimination"]),
    # the listing walk: its pivot range and its prune
    ("vanishing.py", "above = range((x & -x).bit_length(), n)", "above = range(x.bit_length(), n)",
     ["test_vanishing.py::TestVanishingSubspaces::test_matches_filtered_enumeration"]),
    ("vanishing.py", "if nxt.bit_count() >= want:", "if nxt.bit_count() > want:",
     ["test_vanishing.py::TestVanishingSubspaces::test_matches_filtered_enumeration"]),
    # the closed forms: the radical rule, the anisotropic rank, the answer above rank 12, where
    # no search reaches, the Lagrangian test
    ("vanishing.py", "else r - 1 + m // 2", "else r + m // 2",
     ["test_vanishing.py::TestClosedForm::test_matches_oracle_and_listing[degenerate]"]),
    ("vanishing.py", "m = n - r  #", "m = n - r - 2 * (n > 12)  #",
     ["test_vanishing.py::TestClosedForm::test_planes_with_q_zero_add_one_each_to_rank_40"]),
    ("vanishing.py", "RANK = (0, 1, 2, 3, 2, 3, 2, 1)", "RANK = (0, 1, 2, 3, 2, 3, 2, 3)",
     ["test_vanishing.py::TestClosedForm::test_matches_oracle_and_listing[standard]"]),
    ("vanishing.py", "return beta == 0", "return beta % 4 == 0",
     ["test_vanishing.py::TestHasNullLagrangian::test_torus"]),
    # the integer forms: the Bareiss division (then E8 in FORM_LIBRARY fails to build, and so
    # does the import), the fold's sign, Jacobi's rule, the Wu condition, beta mod 8
    ("fourmanifold.py", "* pivot_row[t]) // prev", "* pivot_row[t]) // 1",
     ["test_fourmanifold.py"]),
    ("fourmanifold.py", "s = 1 if 2 * pivot_row[j] + a[j][j] else -1", "s = 1",
     ["test_fourmanifold.py::TestLeadingMinors::test_matches_the_full_block_on_small_matrices"]),
    ("fourmanifold.py", "zip([1] + minors, minors)", "zip(minors, minors)",
     ["test_fourmanifold.py::TestSignature::test_library_values"]),
    ("fourmanifold.py", "if (pairing - row[i]) % 2:", "if (pairing - ci) % 2:",
     ["test_fourmanifold.py::TestCharacteristic::test_examples"]),
    ("fourmanifold.py", "return ((cc - sig) // 2) % 8", "return ((cc - sig) // 2) % 4",
     ["test_fourmanifold.py::TestGuillouMarin::test_required_beta"]),
    # the CLI: exit 7 for an unexpected exception, exit 4 for running out of memory, the file
    # size cap at its boundary, the collector frozen before a command run exits
    ("cli.py", "except Exception as e:  # any other", "except ArithmeticError as e:  # any other",
     ["test_cli.py::TestExitCodes::test_unexpected_exception_in_the_installed_entry"]),
    ("cli.py", "    except MemoryError:  # a legal input past the memory the process may use: a limit, "
     'not a bug\n        print("error: out of memory", file=sys.stderr)\n        return EXIT_GUARD\n', "",
     ["test_cli.py::test_out_of_memory_is_a_resource_limit"]),
    ("cli.py", "if len(data) > MAX_FILE_BYTES:", "if len(data) >= MAX_FILE_BYTES:",
     ["test_cli.py::TestJsonBounds::test_size_cap_boundary[at_the_cap]"]),
    ("cli.py", "    gc.freeze()\n", "",
     ["test_cli.py::test_a_command_run_freezes_the_collector_before_it_exits[ok]"]),
    # argparse's own exit code returned: 0 after help, not the usage error's 2
    ("cli.py", "return e.code if isinstance(e.code, int) else EXIT_USAGE", "return EXIT_USAGE",
     ["test_cli.py::test_argparse_help_exits_0_and_usage_errors_exit_2[help]"]),
    # the CLI's two refusals of closed forms: brown's at its boundary, vanishing --max's call
    ("cli.py", "if q.form.dim > MAX_GAUSS_DIM:", "if q.form.dim >= MAX_GAUSS_DIM:",
     ["test_cli.py::test_cli_case[brown_rank20_under_the_gauss_guard]"]),
    ("cli.py", "        _check_search_guard(q)\n", "",
     ["test_cli.py::test_cli_case[vanishing_max_past_the_search_guard]"]),
    # enumerate's q-null column, read off the split at every rank the enumeration guard admits
    ("cli.py", "null_dim = _max_null_dim(n, beta, r, null_radical)",
     "null_dim = _max_null_dim(n, beta, r, null_radical) if n <= 10 else None",
     ["test_cli.py::TestJsonMode::test_enumerate_columns_on_random_forms"]),
    # the input checks: a negative --dim, an empty bit string, the Gram entry cap at 64 bits, a
    # JSON boolean where an integer is due; each is killed by a row of the CLI case table
    ("cli.py", "args.dim < 0", "args.dim < -1",
     ["test_cli.py::test_cli_case[vanishing_negative_dim]"]),
    ("cli.py", "if not text or any(", "if any(",
     ["test_cli.py::test_cli_case[surgery_bits_empty]"]),
    ("forms.py", "x.bit_length() > MAX_ENTRY_BITS", "x.bit_length() >= MAX_ENTRY_BITS",
     ["test_cli.py::test_cli_case[gm_entry_2_63]"]),
    ("forms.py", "type(x) is not int", "not isinstance(x, int)",
     ["test_cli.py::test_cli_case[brown_json_bool]"]),
]

# (file, old text, new text, why no test can tell the mutant from the code)
EQUIVALENT = [
    ("forms.py", "if w > _MAX_PACKED_STRIDE:", "if w >= _MAX_PACKED_STRIDE:",
     "at w = 160 the row loop and the packed step make the same row additions, so every "
     "output is the same; only the speed differs"),
    ("cli.py", "    (LimitError, EXIT_GUARD),\n    (DegenerateFormError, EXIT_DEGENERATE),\n",
     "    (DegenerateFormError, EXIT_DEGENERATE),\n    (LimitError, EXIT_GUARD),\n",
     "main returns the code of the first entry whose class an error is an instance of, and no "
     "error class subclasses both LimitError and DegenerateFormError"),
]


def run_tests(src: str, tests: list[str]) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    argv = PYTEST + [f"tests/{test}" for test in tests]
    p = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    return p.returncode, p.stdout + p.stderr


def main() -> int:
    t0 = time.perf_counter()
    tmp = tempfile.mkdtemp(prefix="mutants-")
    try:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        pristine = {}
        for file in {m[0] for m in MUTANTS + EQUIVALENT}:
            with open(os.path.join(src, "pinquad", file), encoding="utf-8") as fh:
                pristine[file] = fh.read()

        def mutated(file: str, old: str, new: str) -> str:
            text = pristine[file]
            if text.count(old) != 1:
                sys.exit(f"gate error: {file}: {old!r} occurs {text.count(old)} times, not once")
            out = text.replace(old, new)
            try:
                compile(out, file, "exec")
            except SyntaxError as e:
                sys.exit(f"gate error: {file}: {old!r} -> {new!r} does not compile: {e}")
            return out

        def where(file: str, old: str, new: str) -> str:
            line = pristine[file][: pristine[file].index(old)].count("\n") + 1
            first = [(text.strip().splitlines() or [""])[0] for text in (old, new)]
            return f"{file}:{line} {first[0]!r} -> {first[1]!r}"

        for file, old, new, _ in MUTANTS + EQUIVALENT:
            mutated(file, old, new)
        killers = sorted({test for *_, tests in MUTANTS for test in tests})
        code, out = run_tests(src, killers)
        if code != 0:
            sys.exit(f"{out}\ngate error: the listed tests exit {code} on the unmutated copy")
        print(f"{len(MUTANTS)} mutants; their {len(killers)} tests pass on the unmutated copy")

        survivors = 0
        for file, old, new, tests in MUTANTS:
            t = time.perf_counter()
            path = os.path.join(src, "pinquad", file)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(mutated(file, old, new))
            code, out = run_tests(src, tests)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(pristine[file])
            if code not in (0, 1, 2):
                sys.exit(f"{out}\ngate error: pytest exits {code} on {where(file, old, new)}")
            survivors += code == 0
            verdict = "SURVIVED" if code == 0 else "killed"
            print(f"{verdict:8s} {time.perf_counter() - t:4.1f} s  {where(file, old, new)}")
        for file, old, new, why in EQUIVALENT:
            print(f"equivalent  {where(file, old, new)}: {why}")
        print(f"{len(MUTANTS) - survivors} killed, {survivors} survived, "
              f"{len(EQUIVALENT)} equivalent, in {time.perf_counter() - t0:.0f} s")
        return 1 if survivors else 0
    finally:
        shutil.rmtree(tmp)


if __name__ == "__main__":
    sys.exit(main())

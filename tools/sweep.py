"""Run a fixed list of pinquad commands through ``cli.main`` and digest what each prints.

Usage, from the repository root:

    PYTHONPATH=src python tools/sweep.py           # compare with tests/golden/sweep.sha256
    PYTHONPATH=src python tools/sweep.py --write   # rewrite tests/golden/sweep.sha256

The commands are in ``tools/sweep_commands.txt``, one shell-quoted argv a line (``#``
starts a comment).  Each runs in a temporary working directory that holds a copy of
``tests/data``, so the paths the commands name, and the messages that quote them, do
not depend on where the repository is checked out.  A digest line holds the SHA-256 of
stdout, the SHA-256 of stderr and the exit code, then the argv.  Only commands that
reach the package belong in the list: argparse's usage errors and help text vary
between Python versions.  A change that means to alter output rewrites the digest and
names the lines that changed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ROOT / "tools" / "sweep_commands.txt"
DIGEST = ROOT / "tests" / "golden" / "sweep.sha256"


def commands() -> list[list[str]]:
    lines = COMMANDS.read_text(encoding="utf-8").splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.startswith("#")]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest(argvs: list[list[str]]) -> list[str]:
    """One digest line per argv, each command run by ``cli.main`` next to a copy of tests/data."""
    from pinquad.cli import main

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "tests" / "data", Path(tmp) / "tests" / "data")
        os.chdir(tmp)
        try:
            lines = []
            for argv in argvs:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                lines.append(f"{_sha(out.getvalue())} {_sha(err.getvalue())} {code} {shlex.join(argv)}")
        finally:
            os.chdir(cwd)
    return lines


def changed(got: list[str], want: list[str]) -> list[str]:
    """The argvs whose digest lines differ, with a note when the lists differ in length."""
    diff = [g.split(" ", 3)[3] for g, w in zip(got, want) if g != w]
    if len(got) != len(want):
        diff.append(f"{len(got)} commands run, {len(want)} digested")
    return diff


def main() -> int:
    got = digest(commands())
    if sys.argv[1:] == ["--write"]:
        DIGEST.write_text("\n".join(got) + "\n", encoding="utf-8")
        print(f"wrote {len(got)} lines to {DIGEST.relative_to(ROOT)}")
        return 0
    diff = changed(got, DIGEST.read_text(encoding="utf-8").splitlines())
    for line in diff:
        print(line)
    print(f"{len(got)} commands, {len(diff)} differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())

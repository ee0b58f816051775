"""The CLI sweep: every command in tools/sweep_commands.txt prints what tests/golden/sweep.sha256 says."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import sweep  # noqa: E402


def test_sweep_matches_its_digest():
    argvs = sweep.commands()
    assert len(argvs) >= 1000
    want = sweep.DIGEST.read_text(encoding="utf-8").splitlines()
    assert sweep.changed(sweep.digest(argvs), want) == []

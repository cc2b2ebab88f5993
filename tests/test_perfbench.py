"""The benchmark's checks and recorded CLI digests, run from the test suite.

Nothing under perfbench/ is written: selftest.py runs as it is, and the
digests are read from perfbench/cli_digests.json.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from weylsplit.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """A perfbench module, loaded under a private name from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_" + name,
                                                  PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CLI_POOL = _load("queries").CLI_POOL
DIGESTS = json.loads((PERFBENCH / "cli_digests.json").read_text())


def test_benchmark_selftest_passes():
    # exit 0 means every benchmark check rejects its wrong answers
    res = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                         cwd=PERFBENCH.parent, capture_output=True, text=True,
                         timeout=300)
    assert res.returncode == 0, res.stdout + res.stderr


@pytest.mark.parametrize("argv", CLI_POOL["umax"] + CLI_POOL["experiment"], ids=" ".join)
def test_cli_stdout_matches_recorded_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(list(argv))
    assert rc == 0
    got = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert got == DIGESTS[" ".join(argv)]

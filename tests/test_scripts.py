"""Smoke runs of the experiment scripts at tiny sizes.

Each script runs in a subprocess against this checkout's ``src`` so that an
API change which breaks a script fails here instead of silently.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPT_RUNS = [
    ["run_preconditioner_study.py", "--n", "6", "--max-outer", "1"],
]


@pytest.mark.parametrize("argv", SCRIPT_RUNS, ids=lambda argv: argv[0])
def test_script_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()

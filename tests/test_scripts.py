"""The scripts under scripts/ run to completion at small sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["exotic_scan.py", "--q", "2", "3", "4"],
        ["opp_report.py", "--q", "2", "--family-q", "4"],
        ["family_census.py", "--q", "2"],
    ],
)
def test_script_exits_zero(argv):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout and proc.stderr == ""

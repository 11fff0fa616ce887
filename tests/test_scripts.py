"""The scripts under scripts/ run to completion at small sizes, and report a
failed check with exit status 1."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from trigon import tripres
from trigon.linkgraph import AutFull
from trigon.permgrp import bsgs_build

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
    proc = run_script(argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout and proc.stderr == ""


def run_script(argv):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env,
    )


def test_opp_report_counts_distinct_presentations():
    """The 2^((q-1)/3) sign choices of each twist family give as many
    distinct presentations."""
    proc = run_script(["opp_report.py", "--q", "--family-q", "4", "7"])
    assert proc.returncode == 0, proc.stderr
    counts = re.findall(r"(\d+) presentations, (\d+) distinct", proc.stdout)
    assert counts == [("2", "2"), ("4", "4")]


def test_family_census_reports_a_broken_counting_identity(capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "family_census", ROOT / "scripts" / "family_census.py"
    )
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    real = tripres._orbit_stabilizer

    def trivial_stabilizer(T, full):
        trivial = AutFull(plus=bsgs_build(full.plus.degree, []), witness=None)
        return real(T, full)[0], trivial

    monkeypatch.setattr(tripres, "_orbit_stabilizer", trivial_stabilizer)
    monkeypatch.setattr(sys, "argv", ["family_census.py", "--q", "2"])
    assert census.main() == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "complete digraph on 4: error: |Aut(F)| = 48 is not orbit" in err
    assert len(err.splitlines()) == 3

"""The scripts under scripts/ run to completion at small sizes, report a
failed check with exit status 1 and a usage error with exit status 2."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from test_family_writer import bend_one_step
from trigon import census
from trigon.census import AutFull
from trigon.cli import kappa_spec_of
from trigon.oppmodel import opp_datum

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


@pytest.mark.parametrize("script", ["exotic_scan.py", "family_census.py",
                                    "opp_report.py"])
def test_a_q_that_is_not_a_prime_power_is_a_usage_error(script):
    """As the command line does: one stderr line naming the script, and exit
    status 2, not a traceback with the status of a failed check."""
    proc = run_script([script, "--q", "6"])
    assert proc.returncode == 2
    assert proc.stderr == f"{script}: 6 is not a prime power\n"


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


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_family_census_reports_a_broken_counting_identity(capsys, monkeypatch):
    script = load_script("family_census")
    real = census._orbit_stabilizer

    def trivial_stabilizer(F, thirds, full):
        trivial = AutFull(generators=(), order=1, witness=None)
        return real(F, thirds, full)[0], trivial

    monkeypatch.setattr(census, "_orbit_stabilizer", trivial_stabilizer)
    monkeypatch.setattr(sys, "argv", ["family_census.py", "--q", "2"])
    assert script.main() == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "complete digraph on 4: error: |Aut(F)| = 48 is not orbit" in err
    assert len(err.splitlines()) == 3


def test_opp_report_reports_a_failed_twist(capsys, monkeypatch):
    """A family member that fails the twist check ends the family with one
    stderr line naming q and the kappa, after the choices before it, and
    the exit status is 1.  At q = 7 the bent key is the first of two, so
    the third choice is the first to fail."""
    kappas = list(opp_datum(7).signs().choices())
    bend_one_step(monkeypatch)
    report = load_script("opp_report")
    monkeypatch.setattr(sys, "argv", ["opp_report.py", "--q", "--family-q", "7"])
    with pytest.raises(SystemExit) as exit_:
        report.main()
    assert exit_.value.code == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == "twist family at q=7:"
    assert re.findall(r"kappa (\S+)", out) == list(map(kappa_spec_of, kappas[:2]))
    assert "presentations" not in out
    assert len(err.splitlines()) == 1
    spec = kappa_spec_of(kappas[2])
    assert err.startswith(f"q=7: twist check failed at kappa {spec}: ")

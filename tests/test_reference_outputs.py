"""Every benchmark invocation, run in-process, against the exit code and
stdout SHA-256 that perfbench/reference.json pins, and one invocation per
workload as the benchmark runs it, through main's exit.

The document invocations run first and write the census inputs into a
temporary directory, which stands in for {docs} in the census commands.
perfbench/ is only read: its DOCUMENTS table is taken from the syntax tree
of run.py, not imported."""

import ast
import hashlib
import json
import shlex
import subprocess
import sys
from pathlib import Path

from trigon.cli import run

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _documents():
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "DOCUMENTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError("perfbench/run.py defines no DOCUMENTS")


def test_reference_invocations_match(capsys, tmp_path):
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    want = reference["invocations"]
    documents = _documents()
    docs = tmp_path / "docs"
    docs.mkdir()
    outputs = {key: docs / name for name, key in documents.items()}
    keys = list(documents.values())
    keys += [key for key in want if key not in outputs]
    got = {}
    for key in keys:
        code = run(shlex.split(key.format(docs=docs)))
        out = capsys.readouterr().out.encode()
        if key in outputs:
            outputs[key].write_bytes(out)
        got[key] = {"exit": code, "sha256": hashlib.sha256(out).hexdigest()}
    assert len(got) == len(want) == 18
    assert got == {
        key: {"exit": ref["exit"], "sha256": ref["sha256"]}
        for key, ref in want.items()
    }


# one invocation of each workload, exotic-scan, family-build, census and
# opp-check, with the census document it reads written first
FRESH = [
    "quad --q 2 --format json",
    "exotic --q 7 --all-kappa",
    "quad --q 3 --all-kappa",
    "enumerate --from-json {docs}/quad-q2.json",
    "opp --check --q 9",
]


def test_one_invocation_per_workload_in_a_fresh_process(tmp_path):
    """run() alone never reaches main's exit; each of these is a fresh
    python -m trigon.cli, as the benchmark starts it, whose exit code, stdout
    SHA-256 and byte count must be the pinned ones."""
    want = json.loads((PERFBENCH / "reference.json").read_text())["invocations"]
    outputs = {key: name for name, key in _documents().items()}
    docs = tmp_path / "docs"
    docs.mkdir()
    for key in FRESH:
        proc = subprocess.run(
            [sys.executable, "-m", "trigon.cli",
             *shlex.split(key.format(docs=docs))],
            capture_output=True, timeout=120,
        )
        if key in outputs:
            (docs / outputs[key]).write_bytes(proc.stdout)
        assert {
            "exit": proc.returncode,
            "sha256": hashlib.sha256(proc.stdout).hexdigest(),
            "bytes": len(proc.stdout),
        } == want[key], key
        assert proc.stderr == b"", key

"""Every benchmark invocation, run in-process, against the exit code and
stdout SHA-256 that perfbench/reference.json pins.

The document invocations run first and write the census inputs into a
temporary directory, which stands in for {docs} in the census commands.
perfbench/ is only read: its DOCUMENTS table is taken from the syntax tree
of run.py, not imported."""

import ast
import hashlib
import json
import shlex
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

"""Record the reference exit codes and stdout digests of every invocation.

Run from the repository root, at the commit whose outputs are the
reference (the outputs are meant never to change):

    python3 perfbench/record_reference.py

Each invocation runs twice and must give the same bytes both times.  The
reference records the git SHA it was made at.
"""

from __future__ import annotations

import json
import time

import run
from report import git_sha


def main():
    run.WORK.mkdir(exist_ok=True)
    (run.WORK / "docs").mkdir(exist_ok=True)
    deadline = time.perf_counter() + 3600
    keys = [(key, run.WORK / "docs" / name) for name, key in run.DOCUMENTS.items()]
    keys += [(key, run.WORK / "stdout.bin")
             for wl in run.WORKLOADS.values() for key in wl]
    invocations = {}
    for key, out in keys:
        a, b = (run.run_cli(key, out, deadline) for _ in range(2))
        if a.exit != 0:
            raise SystemExit(f"{key}: exit {a.exit}, see {run.WORK / 'stderr.txt'}")
        if a.sha256 != b.sha256:
            raise SystemExit(f"{key}: two runs differ")
        invocations[key] = {"exit": a.exit, "sha256": a.sha256, "bytes": a.nbytes}
        print(f"{key}: exit {a.exit}, {a.nbytes} bytes, {a.wall:.2f} s")
    blob = {"recorded_at": git_sha(), "invocations": invocations}
    run.REFERENCE.write_text(json.dumps(blob, indent=2) + "\n")


if __name__ == "__main__":
    main()

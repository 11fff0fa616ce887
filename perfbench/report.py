"""Run every workload once untraced and once traced, and print one report.

Run from the repository root:

    python3 perfbench/report.py [--out FILE]

It prints every end-to-end metric by name and unit for each workload, with
``fail_frac``, then the per-layer self-time table of each traced run, the
split that ``perfbench/NOTES.md`` predicts, and the ROADMAP baselines next to
the harness's own numbers.  With ``--out`` it also writes all of it, with the
git SHA and the Python and numpy versions, as JSON.  Every run uses seed 1
and the ``run_seconds`` of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run

SEED = 1
# the split the workloads were chosen for: the layer with the largest self
# time, and layers that must not run at all
LARGEST_SELF = {"exotic-scan": "permgrp.bsgs_build", "opp-check": "linkgraph.metrics"}
ZERO_CALLS = {"family-build": ("permgrp.bsgs_build", "autosearch.refine")}
ROADMAP_BASELINES = {
    "build_probe q=7 (s)": ("exotic --q 7 --all-kappa", "exoticity.build_probe", 0.46),
    "build_probe q=9 (s)": ("exotic --q 9 --all-kappa", "exoticity.build_probe", 1.85),
    "build_probe q=11 (s)": ("exotic --q 11 --all-kappa", "exoticity.build_probe", 4.2),
    "quad q=3 family build (s)": ("quad --q 3 --all-kappa", "singer.quad_T_kappa", 2.5),
}


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def split_checks(workload, spans):
    largest = max(spans, key=lambda name: spans[name]["self_s"])
    checks = {}
    if workload in LARGEST_SELF:
        want = LARGEST_SELF[workload]
        checks[f"largest self time is {want}"] = largest == want
    for name in ZERO_CALLS.get(workload, ()):
        checks[f"{name}.calls == 0"] = spans.get(name, {}).get("calls", 0) == 0
    return largest, checks


def roadmap_cross_check(traces):
    invocations = {k: inv for details in traces.values()
                   for k, inv in details["per_invocation"].items()}
    rows = {}
    for label, (key, span, roadmap) in ROADMAP_BASELINES.items():
        inv = invocations.get(key)
        if inv is None:  # the traced invocation failed
            continue
        rows[label] = {"roadmap": roadmap,
                       "traced": inv["spans"].get(span, {}).get("incl_s", 0.0),
                       "invocation_wall_s": inv["wall_s"]}
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    seconds = run.load_spec()["run_seconds"]

    report = {"git_sha": git_sha(), **run.environment(), "seed": SEED,
              "seconds": seconds, "workloads": {}}
    traces = {}
    ok = True
    for workload in run.WORKLOADS:
        plain, _ = run.run_workload(workload, SEED, seconds, False)
        traced, details = run.run_workload(workload, SEED, seconds, True)
        traces[workload] = details
        largest, checks = split_checks(workload, details["spans"])
        fail_frac = ((plain["failed"] + traced["failed"])
                     / (plain["attempted"] + traced["attempted"]))
        ok &= fail_frac == 0 and all(checks.values())
        report["workloads"][workload] = {
            "end_to_end": {k: m["value"] for k, m in plain["metrics"].items()},
            "fail_frac": fail_frac,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "largest_self_time": largest,
            "predicted_split": checks,
            "spans": details["spans"],
        }
    report["roadmap_cross_check"] = roadmap_cross_check(traces)

    units = {m["name"]: m["unit"] for m in run.load_spec()["end_to_end"]}
    print(f"git {report['git_sha']}  python {report['python']}  "
          f"numpy {report['numpy']}  nproc {report['nproc']}")
    for workload, r in report["workloads"].items():
        print(f"\n== {workload}")
        for name, value in r["end_to_end"].items():
            print(f"  {name:12s} {value:12.6g} {units[name]}")
        print(f"  {'fail_frac':12s} {r['fail_frac']:12.6g} share")
        print("  traced self time, largest first:")
        rows = sorted(r["spans"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, a in rows[:12]:
            print(f"    {name:44s} calls {a['calls']:>7d}  self {a['self_s']:9.4f} s")
        for check, passed in r["predicted_split"].items():
            print(f"  predicted: {check}: {'yes' if passed else 'NO'}")
    print("\n== ROADMAP baselines against this harness (traced inclusive time)")
    for label, row in report["roadmap_cross_check"].items():
        print(f"  {label:28s} roadmap {row['roadmap']:6.2f}  traced "
              f"{row['traced']:6.2f}  whole invocation {row['invocation_wall_s']:6.2f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

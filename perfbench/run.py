"""Benchmark harness for the trigon command line.

Run from the repository root:

    python3 perfbench/run.py --workload census --seed 1 --seconds 28 --trace 0

Each invocation of a workload is a fresh ``python -m trigon.cli`` process with
``PYTHONPATH=src``, run by one client in a closed loop: the next invocation
starts only after the previous one has exited, with no threads or pools.  The
seed only shuffles the order of invocations within each pass; the inputs are
fixed.  Every invocation's exit code and stdout SHA-256 are checked against
``perfbench/reference.json``, recorded at the seed commit.

With ``--trace 0`` the run repeats passes over the workload until
``--seconds`` is used up (at least one whole pass) and reports the
end-to-end metrics of ``BENCHMARK.json``, each a median over the samples of
the run.  The run is pinned to one CPU, and a fixed pure-Python probe is
timed on it before and after every invocation and set-up start, and every
``PROBE_INTERVAL_S`` while one runs; each time is scaled by ``PROBE_REF_S``
over the mean of the probe times from its start to its end, so that the
times are seconds at one reference speed of the CPU, not at whatever speed a
shared host gives it at that moment.  The unscaled times are printed too.
With ``--trace 1`` it runs every invocation once under
``perfbench/tracer.py`` and reports the per-layer metrics; ``--seconds``
does not apply.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import select
import shlex
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"
REFERENCE = HERE / "reference.json"
TRACER = HERE / "tracer.py"
SPEC_FILE = Path("BENCHMARK.json")
CLI_SOURCE = Path("src/trigon/cli.py")
ENV = dict(os.environ, PYTHONPATH="src")
# the whole run must end well inside the 180 s a run is allowed
HARD_LIMIT_S = 165.0
# the probe's time at the reference speed, that of a quiet host: about the
# fastest sixth of 9,200 probes over 40 s on the 2-vCPU VM the baseline was
# recorded on (Xeon at 2.1 GHz, Python 3.11.7), where they took 2.9-5.5 ms
PROBE_REF_S = 0.0032
# a probe every half second pauses an invocation for about 0.6% of its time
PROBE_INTERVAL_S = 0.5
# probes at each end of a sample, where the CPU is free
PROBE_REPEATS = 3

# census inputs, written by the CLI under test; their bytes are pinned in the
# reference like every other invocation's stdout
DOCUMENTS = {
    "singer-q7.json": "singer --q 7 --format json",
    "singer-q5.json": "singer --q 5 --format json",
    "opp-q7.json": "opp --q 7 --kappa +1 --format json",
    "quad-q2.json": "quad --q 2 --format json",
}
WORKLOADS = {
    "exotic-scan": [
        "exotic --q 7 --all-kappa",
        "exotic --q 8 --all-kappa",
        "exotic --q 9 --all-kappa",
        "exotic --q 11 --all-kappa",
    ],
    "family-build": [
        "singer --q 13 --all-kappa --format json",
        "quad --q 3 --all-kappa",
        "opp --q 13 --all-kappa --format gap",
    ],
    "census": [
        "classify --from-json {docs}/singer-q7.json",
        "classify --from-json {docs}/opp-q7.json",
        "enumerate --from-json {docs}/singer-q5.json",
        "enumerate --from-json {docs}/quad-q2.json",
    ],
    "opp-check": [
        "opp --check --q 9",
        "opp --check --q 13",
        "opp --check --q 16",
    ],
}
SPAN_FIELDS = ("self_s", "incl_s", "calls")


class RunTimeout(Exception):
    """The run reached HARD_LIMIT_S; the current invocation was killed."""


@dataclass
class Sample:
    key: str
    wall: float
    cpu: float
    rss_mb: float
    exit: int
    sha256: str
    nbytes: int
    # PROBE_REF_S over the mean probe time around the sample; 1.0 if unprobed
    speed: float = 1.0


def run_cli(key, stdout_path, deadline, launcher=("-m", "trigon.cli"),
            probes=None):
    """One invocation in a fresh process; stdout goes to stdout_path.

    If ``probes`` is a list, a probe time is appended to it every
    PROBE_INTERVAL_S while the child runs.  The child is stopped while the
    probe runs, as the two would share the CPU, and the pause is not counted
    in its wall time.  The child's exit is waited for on a pidfd, so the
    wall time ends when the child does, and it is reaped with wait4 so that
    its own CPU time and max RSS are read, not those of every child so far.
    """
    argv = shlex.split(key.format(docs=WORK / "docs"))
    cmd = [sys.executable, *launcher, *argv]
    if deadline <= time.perf_counter():
        raise RunTimeout
    with open(stdout_path, "wb") as out, open(WORK / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        paused = 0.0
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=ENV)
        pidfd = os.pidfd_open(proc.pid)
        try:
            while True:
                wait = deadline - time.perf_counter()
                if wait <= 0:
                    raise RunTimeout
                if probes is not None:
                    wait = min(wait, PROBE_INTERVAL_S)
                if select.select([pidfd], [], [], wait)[0]:
                    break
                if probes is not None:
                    stop = time.perf_counter()
                    os.kill(proc.pid, signal.SIGSTOP)
                    probes.append(probe())
                    os.kill(proc.pid, signal.SIGCONT)
                    paused += time.perf_counter() - stop
            wall = time.perf_counter() - start - paused
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        finally:
            os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    data = Path(stdout_path).read_bytes()
    return Sample(
        key=key,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        exit=proc.returncode,
        sha256=hashlib.sha256(data).hexdigest(),
        nbytes=len(data),
    )


class Checker:
    """Compares each sample with the reference recorded at the seed commit."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def check(self, sample):
        self.attempted += 1
        want = self.reference.get(sample.key)
        got = {"exit": sample.exit, "sha256": sample.sha256, "bytes": sample.nbytes}
        if want is None or any(want[k] != got[k] for k in got):
            self.failed += 1
            err = (WORK / "stderr.txt").read_text(errors="replace")[-400:]
            print(f"MISMATCH {sample.key}: expected {want}, got {got}\n{err}",
                  file=sys.stderr)
            return False
        return True


def prepare_documents(checker, deadline):
    """Write the census inputs with the CLI itself and check their digests."""
    docs = WORK / "docs"
    docs.mkdir(parents=True, exist_ok=True)
    for name, key in DOCUMENTS.items():
        checker.check(run_cli(key, docs / name, deadline))


def pin_to_one_cpu():
    """Run this process and its children on one CPU, so that the probe
    measures the CPU the invocations run on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _probe_perms():
    rng = random.Random(0)
    perms = []
    for _ in range(8):
        p = list(range(96))
        rng.shuffle(p)
        perms.append(tuple(p))
    return perms


PROBE_PERMS = _probe_perms()


def probe():
    """Seconds for a fixed pure-Python task of a few milliseconds.

    The task composes permutations stored as tuples and hashes them, then
    builds, sorts, indexes and JSON-encodes a list of small tuples: the kind
    of work trigon does.  Of the probes tried, this one's time followed the
    CLI's times most closely as the host's load changed.  It does not touch
    trigon, so a change to the program leaves it alone.
    """
    start = time.perf_counter()
    seen, g = set(), PROBE_PERMS[0]
    for i in range(250):
        h = PROBE_PERMS[i % 8]
        g = tuple(g[j] for j in h)
        seen.add(g)
    rows = sorted((i % 97, i * 31 % 1013, str(i)) for i in range(4000))
    index = {r[1]: r for r in rows}
    json.dumps([list(index[r[1]]) for r in rows[:1300]])
    return time.perf_counter() - start


def end_probes():
    return [probe() for _ in range(PROBE_REPEATS)]


def probed(run, before):
    """Call run(probes) with the probe times ``before`` it, add probes after
    it, and set the sample's speed from the mean of them all.

    Returns the sample and the probe times after it, which are the probe
    times before the next sample."""
    probes = list(before)
    s = run(probes)
    after = end_probes()
    s.speed = PROBE_REF_S / statistics.fmean(probes + after)
    return s, after


def setup_start(deadline, probes=None):
    """Interpreter start plus ``import trigon.cli``, no work."""
    s = run_cli("", WORK / "stdout.bin", deadline,
                launcher=("-c", "import trigon.cli"), probes=probes)
    if s.exit != 0:
        raise SystemExit(f"perfbench: import trigon.cli exited {s.exit}")
    return s


def measure(keys, seconds, rng, checker, deadline):
    """Closed loop over shuffled passes until ``seconds`` is used up.

    Each invocation is followed by one set-up start, so the set-up samples
    spread over the whole run like the invocations, and every invocation and
    set-up start is probed before, during and after.  The first pass always completes;
    after it, an invocation starts only if its last time still fits in the
    budget.  Returns the samples per invocation and the set-up samples.
    """
    samples = {k: [] for k in keys}
    setup = []
    setup_start(deadline)  # discarded: the first start may compile bytecode
    start = time.perf_counter()
    last_probes = end_probes()
    first = True
    while True:
        order = list(keys)
        rng.shuffle(order)
        for key in order:
            if not first:
                elapsed = time.perf_counter() - start
                if elapsed + samples[key][-1].wall > seconds:
                    return samples, setup
            s, last_probes = probed(
                lambda probes: run_cli(key, WORK / "stdout.bin", deadline,
                                       probes=probes), last_probes)
            checker.check(s)
            samples[key].append(s)
            s, last_probes = probed(lambda probes: setup_start(deadline, probes),
                                   last_probes)
            setup.append(s)
        first = False


def end_to_end(samples, setup, scaled=True):
    """Per-invocation medians, combined into one pass; median set-up time.

    Times are scaled to the reference speed unless ``scaled`` is false."""
    def time_of(s, f):
        return getattr(s, f) * (s.speed if scaled else 1.0)

    med = {
        k: {"wall": statistics.median(time_of(s, "wall") for s in ss),
            "cpu": statistics.median(time_of(s, "cpu") for s in ss),
            "rss_mb": statistics.median(s.rss_mb for s in ss)}
        for k, ss in samples.items()
    }
    return {
        "wall_s": sum(m["wall"] for m in med.values()),
        "slowest_s": max(m["wall"] for m in med.values()),
        "cpu_s": sum(m["cpu"] for m in med.values()),
        "setup_s": statistics.median(time_of(s, "wall") for s in setup),
        "peak_rss_mb": max(m["rss_mb"] for m in med.values()),
    }


def aggregate_spans(blob):
    """Per span name: calls, self time and outermost inclusive time."""
    names, spans = blob["names"], blob["spans"]
    agg = {}
    for nid, start, end, parent in spans:
        a = agg.setdefault(names[nid], {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        a["calls"] += 1
        a["self_s"] += end - start
        if parent >= 0:
            agg[names[spans[parent][0]]]["self_s"] -= end - start
        # inclusive time counts only activations with no same-name ancestor
        p = parent
        while p >= 0 and spans[p][0] != nid:
            p = spans[p][3]
        if p < 0:
            a["incl_s"] += end - start
    return agg


def layer_value(name, totals, counts):
    span, _, field = name.rpartition(".")
    if field in SPAN_FIELDS:
        return totals.get(span, {}).get(field, 0)
    return counts.get(name, 0)


def run_trace(keys, rng, checker, deadline):
    """Each invocation under the tracer, in its own process; sums the spans.

    The tracing overhead is the tracer's own estimate of the CPU time it
    added, over the CLI's CPU time less that estimate, summed over the pass.
    """
    order = list(keys)
    rng.shuffle(order)
    totals, counts, per_invocation = {}, {}, {}
    spans_path = WORK / "spans.json"
    for key in order:
        spans_path.unlink(missing_ok=True)
        s = run_cli(key, WORK / "stdout.bin", deadline,
                    launcher=(str(TRACER), str(spans_path), "--"))
        if not checker.check(s) and not spans_path.exists():
            continue
        blob = json.loads(spans_path.read_text())
        agg = aggregate_spans(blob)
        per_invocation[key] = {"wall_s": s.wall, "spans": agg}
        for name, a in agg.items():
            t = totals.setdefault(name, dict.fromkeys(SPAN_FIELDS, 0))
            for f in SPAN_FIELDS:
                t[f] += a[f]
        for name, n in blob["counts"].items():
            counts[name] = counts.get(name, 0) + n
        counts["cli.output_bytes"] = counts.get("cli.output_bytes", 0) + s.nbytes
    overhead = counts.get("tracer.overhead_s", 0.0)
    cli_cpu = counts.get("tracer.cli_cpu_s", 0.0)
    counts["tracer.overhead_frac"] = overhead / (cli_cpu - overhead) if cli_cpu else 0.0
    return totals, counts, per_invocation


def load_spec():
    return json.loads(SPEC_FILE.read_text())


def load_reference():
    return json.loads(REFERENCE.read_text())["invocations"]


def environment():
    return {
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
    }


def run_workload(workload, seed, seconds, trace):
    """One benchmark run; returns (result, details) without printing."""
    deadline = time.perf_counter() + HARD_LIMIT_S
    spec = load_spec()
    checker = Checker(load_reference())
    rng = random.Random(seed)
    keys = WORKLOADS[workload]
    WORK.mkdir(exist_ok=True)
    pin_to_one_cpu()
    if any("{docs}" in key for key in keys):
        prepare_documents(checker, deadline)
    if trace:
        totals, counts, per_invocation = run_trace(keys, rng, checker, deadline)
        wanted = spec["per_layer"]
        values = {m["name"]: layer_value(m["name"], totals, counts) for m in wanted}
        details = {"spans": totals, "counts": counts, "per_invocation": per_invocation}
    else:
        samples, setup = measure(keys, seconds, rng, checker, deadline)
        wanted = spec["end_to_end"]
        values = end_to_end(samples, setup)
        speeds = [s.speed for ss in samples.values() for s in ss]
        details = {"samples": {k: len(v) for k, v in samples.items()},
                   "setup_samples": len(setup),
                   "raw": end_to_end(samples, setup, scaled=False),
                   "speed": (min(speeds), statistics.median(speeds), max(speeds))}
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    return result, details


def print_report(workload, seed, result, details):
    env = environment()
    print(f"workload {workload}  seed {seed}  python {env['python']}  "
          f"numpy {env['numpy']}  nproc {env['nproc']}")
    if "samples" in details:
        print("samples per invocation: " + ", ".join(
            f"{k} x{n}" for k, n in details["samples"].items())
            + f"; set-up starts x{details['setup_samples']}")
        print("CPU speed against the reference, min/median/max: "
              + " / ".join(f"{x:.3f}" for x in details["speed"]))
    for name, m in result["metrics"].items():
        raw = details.get("raw", {}).get(name)
        note = "" if raw is None or raw == m["value"] else f"  (unscaled {raw:.6g})"
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}{note}")
    print(f"  {'fail_frac':48s} {result['failed'] / result['attempted']:>14.6g} share")
    if "spans" in details:
        print("self time by span, largest first:")
        rows = sorted(details["spans"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, a in rows[:25]:
            print(f"  {name:48s} calls {a['calls']:>7d}  self {a['self_s']:9.4f} s"
                  f"  incl {a['incl_s']:9.4f} s")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not CLI_SOURCE.is_file() or not REFERENCE.is_file() or not SPEC_FILE.is_file():
        print(f"perfbench: run from a trigon checkout; {CLI_SOURCE}, "
              f"{REFERENCE} and {SPEC_FILE} are needed", file=sys.stderr)
        return 2
    try:
        result, details = run_workload(args.workload, args.seed, args.seconds,
                                       bool(args.trace))
    except RunTimeout:
        print(f"perfbench: run exceeded {HARD_LIMIT_S:.0f} s", file=sys.stderr)
        return 1
    print_report(args.workload, args.seed, result, details)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

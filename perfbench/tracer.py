"""Run one trigon CLI invocation with spans around calls into each layer.

Usage (from the repository root, with PYTHONPATH=src):

    python3 perfbench/tracer.py SPANS_OUT -- <trigon cli arguments>

Every public module-level function of every trigon module is wrapped in each
module namespace that binds it, because ``from .x import y`` copies the name
(``trigon.cli.exotic_certificate`` is the same object as
``trigon.exoticity.exotic_certificate``).  The ``PermGroup`` methods and the
``SubgroupDatum.reps`` property are wrapped too, and ``Perm.__mul__`` is
counted without a span.  Spans (name, start, end, parent) are kept in memory
and written to SPANS_OUT as JSON when the invocation ends.  The program's
stdout and exit code are left as they are, so they can be checked against the
untraced run.

The tracing overhead is estimated in the same process, after the invocation:
the cost of one span and of one counted product are timed on a no-op, and
multiplied by the numbers of spans and products.  Timing an untraced run
against a traced one does not work on a machine whose speed swings by tens of
percent from one run to the next.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import resource
import sys
import time

MODULES = (
    "autosearch", "catalog", "cli", "documents", "exoticity", "ffield",
    "fgroup", "grouptools", "linkgraph", "oppmodel", "permgrp", "singer",
    "tripres",
)
PERMGROUP_METHODS = (
    "order", "strip", "contains", "orbit", "orbits", "elements",
    "stabilizer", "restrict",
)
# result counts recorded next to the span, keyed "<span name>.<count name>"
RESULT_COUNTS = {
    "permgrp.bsgs_build": ("strong_generators", lambda g: len(g.strong_generators)),
    "permgrp.elements": ("count", len),
    "autosearch.automorphism_generators": ("generators", len),
    "tripres.enumerate_all": ("results", len),
}


class Tracer:
    """Span and count store for one process; nothing is written until dump."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self._stack = [-1]

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        count = RESULT_COUNTS.get(name)
        count_key = f"{name}.{count[0]}" if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if count is not None:
                counts[count_key] = counts.get(count_key, 0) + count[1](result)
            return result

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counts": self.counts}, fh)


def _defined_in(obj, modname):
    # a callable, not just a function: conway_polynomial is an lru_cache wrapper
    return (
        callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == modname
    )


def install(tracer):
    """Wrap the trigon layers in place; returns the Perm product counter."""
    mods = {m: importlib.import_module(f"trigon.{m}") for m in MODULES}
    wrapped = {}
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not _defined_in(obj, mod.__name__):
                continue
            wrapped[id(obj)] = tracer.wrap(f"{short}.{attr}", obj)
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])

    permgrp, fgroup = mods["permgrp"], mods["fgroup"]
    for meth in PERMGROUP_METHODS:
        fn = getattr(permgrp.PermGroup, meth)
        setattr(permgrp.PermGroup, meth, tracer.wrap(f"permgrp.{meth}", fn))
    reps = fgroup.SubgroupDatum.reps
    fgroup.SubgroupDatum.reps = property(tracer.wrap("fgroup.reps", reps.fget))

    products = itertools.count()
    tick = products.__next__
    mul = permgrp.Perm.__mul__

    def counted_mul(self, other):
        tick()
        return mul(self, other)

    permgrp.Perm.__mul__ = counted_mul
    return products


def per_call_costs():
    """Seconds that one span and one counted product add to a call.

    Each is timed on a no-op, best of 5 loops of 10,000 calls, less the
    no-op's own time.
    """
    def noop(a, b):
        return None

    spanned = Tracer().wrap("noop", noop)
    tick = itertools.count().__next__

    def counted(a, b):
        tick()
        return noop(a, b)

    def best(fn):
        times = []
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(10_000):
                fn(1, 2)
            times.append(time.perf_counter() - start)
        return min(times) / 10_000

    base = best(noop)
    return best(spanned) - base, best(counted) - base


def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_OUT -- <trigon cli arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    products = install(tracer)
    from trigon import cli

    cpu_start = cpu_seconds()
    try:
        code = cli.run(cli_args)
    finally:
        sys.stdout.flush()
        cli_cpu = cpu_seconds() - cpu_start
        n_products = next(products)
        span_cost, product_cost = per_call_costs()
        tracer.counts["permgrp.perm_products"] = n_products
        tracer.counts["tracer.cli_cpu_s"] = cli_cpu
        tracer.counts["tracer.overhead_s"] = (len(tracer.spans) * span_cost
                                              + n_products * product_cost)
        tracer.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

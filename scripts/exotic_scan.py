"""Scan prime powers: neighborhood stabilizer orders and twist verdicts.

For each q the stabilizer of the base vertex is recomputed from the link
graph, by an automorphism search with that vertex colored apart, so the
printed |Q0| column is a measurement, not the closed formula; the formula
value sits next to it for comparison.  Verdicts enumerate all 2^R sign
choices when R is small enough to print.  A q whose probe fails a check, its
|Q0| included, is reported on stderr and makes the exit status 1; a q the
constructions refuse, such as one that is not a prime power, ends the scan
with exit status 2.
"""

import argparse
import math
import sys
import time

from trigon.cli import kappa_spec_of
from trigon.errors import UsageError
from trigon.exoticity import (
    ProbeCheckFailed,
    build_probe,
    exotic_certificate,
    exotic_lower_bounds,
    expected_q0_order,
)
from trigon.singer import singer_datum

# the most sign choices, 2^R, whose verdicts are printed one per line
MAX_FAMILY = 16


def scan_one(q):
    t0 = time.time()
    d = singer_datum(q)
    probe = build_probe(d)
    order = probe.q0.order()
    want = expected_q0_order(q)
    sym = math.factorial(q + 1)
    print(
        f"q={q:3d}  |Q0|={order}  formula={want}  "
        f"full Sym(Lambda)={'yes' if order == sym else 'no'}  "
        f"({time.time() - t0:.2f}s)"
    )
    count = 2 ** len(probe.family.keys)
    if count > MAX_FAMILY:
        print(f"        {count} sign choices, skipping the verdict table")
        return
    for kappa in probe.family.choices():
        cert = exotic_certificate(probe, kappa)
        print(f"        kappa {kappa_spec_of(kappa):24s} -> {cert.verdict}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q", type=int, nargs="*", default=[2, 3, 4, 5, 7, 8, 9])
    ap.add_argument("--bounds", action="store_true",
                    help="also print the counting lower bounds")
    args = ap.parse_args()
    status = 0
    try:
        for q in args.q:
            try:
                scan_one(q)
            except ProbeCheckFailed as err:
                print(f"q={q:3d}  error: {err}", file=sys.stderr)
                status = 1
            if args.bounds:
                b = exotic_lower_bounds(q)
                tag = "vacuous" if b.vacuous else "positive"
                print(f"        bound 2^R - e(q-1)q(q+1) = {b.exotic_kappa_lower} ({tag})")
    except UsageError as err:
        print(f"{ap.prog}: {err}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())

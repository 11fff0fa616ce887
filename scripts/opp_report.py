"""Opposition-graph checklist and the twisted presentation families.

Prints the seven structural facts per q, then for q = 1 mod 3 builds all
2^((q-1)/3) twisted presentations, verifies them, and reports their
abelianizations as a cheap distinguishing invariant.  A failed checklist
row or twist check makes the exit status 1; a q the constructions refuse,
such as one that is not a prime power, ends the report with exit status 2.
"""

import argparse
import sys
import time

from trigon.cli import kappa_spec_of
from trigon.errors import TwistCheckFailed, UsageError
from trigon.grouptools import abelianization
from trigon.oppmodel import opp_datum, opp_properties


def checklist(q):
    report = opp_properties(q)
    print(f"q={q}: gap={report.gap:.6f}  Zuk gap > 1/2: {report.zuk}")
    for name, want, got, ok in report.rows:
        print(f"    {'pass' if ok else 'FAIL'}  {name}: expected {want}, got {got}")
    return report.ok


def family(q):
    """Print the twist family at q; False at the first member that fails
    its twist check, which build runs."""
    t0 = time.time()
    signs = opp_datum(q).signs()
    seen = set()
    for kappa in signs.choices():
        spec = kappa_spec_of(kappa)
        try:
            t = signs.build(kappa)
        except TwistCheckFailed as err:
            print(f"q={q}: twist check failed at kappa {spec}: {err}", file=sys.stderr)
            return False
        seen.add(tuple(map(tuple, t.third)))
        ab = abelianization(t)
        print(f"    kappa {spec:24s} abelianization {list(ab.factors)}"
              + (f" + Z^{ab.free_rank}" if ab.free_rank else ""))
    print(f"    {2 ** len(signs.keys)} presentations, {len(seen)} distinct "
          f"({time.time() - t0:.2f}s)")
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q", type=int, nargs="*", default=[2, 3, 4, 5])
    ap.add_argument("--family-q", type=int, nargs="*", default=[4, 7, 13])
    args = ap.parse_args()
    all_ok = True
    try:
        for q in args.q:
            all_ok &= checklist(q)
        for q in args.family_q:
            print(f"twist family at q={q}:")
            all_ok &= family(q)
    except UsageError as err:
        print(f"{ap.prog}: {err}", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(0 if all_ok else 1)


if __name__ == "__main__":
    main()

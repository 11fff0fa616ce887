"""Census of triangle presentations on the small reference pair sets.

Enumerates every compatible presentation, groups them into isomorphism
classes, and checks the counting identity orbit * stabilizer = |Aut(F)|
on each class.  A failed check is reported and makes the exit status 1.
"""

import argparse
import sys
import time

from trigon.linkgraph import FSet, aut_full
from trigon.singer import quad_datum, singer_datum
from trigon.tripres import classify, enumerate_all

ALT_F = FSet.from_labels(
    range(1, 5), [(i, j) for i in range(1, 5) for j in range(1, 5) if i != j]
)


def instances(qs):
    yield "complete digraph on 4", ALT_F
    for q in qs:
        yield f"plane of order {q}", singer_datum(q).F()
    yield "plane of order 4 with coset split", quad_datum(2).F()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q", type=int, nargs="*", default=[2, 3])
    args = ap.parse_args()
    status = 0
    for name, f in instances(args.q):
        t0 = time.time()
        found = enumerate_all(f)
        classes = classify(f)
        full = aut_full(f).order
        print(f"{name}: {len(found)} presentations, {len(classes)} classes, "
              f"|Aut(F)| = {full}  ({time.time() - t0:.2f}s)")
        for i, c in enumerate(classes, start=1):
            ok = c.orbit_size * c.aut_order == full
            if not ok:
                status = 1
            print(f"    class {i}: orbit {c.orbit_size} x stabilizer "
                  f"{c.aut_order} = {c.orbit_size * c.aut_order}"
                  f"{'' if ok else '  COUNTING IDENTITY FAILED'}")
        total = sum(c.orbit_size for c in classes)
        if total != len(found):
            print(f"{name}: class orbits cover {total} presentations, "
                  f"enumeration found {len(found)}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

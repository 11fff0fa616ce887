"""Census of triangle presentations on the small reference pair sets.

Enumerates every compatible presentation once and groups them into
isomorphism classes; classify checks orbit * stabilizer = |Aut(F)| on each
class and that the orbits cover every presentation.  A failed check is
reported on stderr and makes the exit status 1; a q the constructions
refuse, such as one that is not a prime power, ends the census with exit
status 2.
"""

import argparse
import sys
import time

from trigon.census import classify
from trigon.errors import CheckFailed, UsageError
from trigon.pairset import FSet
from trigon.singer import quad_datum, singer_datum

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
    try:
        for name, f in instances(args.q):
            t0 = time.time()
            try:
                classes = classify(f)
            except CheckFailed as err:
                print(f"{name}: error: {err}", file=sys.stderr)
                status = 1
                continue
            found = sum(c.orbit_size for c in classes)
            # classify checked orbit x stabilizer = |Aut(F)| on every class
            aut = classes[0].orbit_size * classes[0].aut_order
            print(f"{name}: {found} presentations, {len(classes)} classes, "
                  f"|Aut(F)| = {aut}  ({time.time() - t0:.2f}s)")
            for i, c in enumerate(classes, start=1):
                print(f"    class {i}: orbit {c.orbit_size} x stabilizer "
                      f"{c.aut_order} = {c.orbit_size * c.aut_order}")
    except UsageError as err:
        print(f"{ap.prog}: {err}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())

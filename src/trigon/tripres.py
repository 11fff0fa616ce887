"""Triangle presentations: the record, its axioms, and the table writer."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import accumulate, repeat
from operator import itemgetter

from .pairset import FSet
from .record import Record


class TrianglePresentation(Record, eq=True):
    """A set of triples over a fixed labeled index set, held as 0-based
    positions in one row per first position: out[i] is the sorted list of
    the heads j of the triples (i, j, k), and third[i][r] is the k of
    (i, out[i][r], k).  A head repeats, its thirds sorted, only where a read
    document gives one pair two thirds.  walk gives the triples sorted.
    Labels appear only in documents, tables and exports.

    The constructor takes the rows as a builder makes them and neither
    closes nor checks them: verify is the check.  from_labels is the one
    way in from label triples."""

    labels: tuple
    out: tuple
    third: tuple

    @classmethod
    def from_labels(cls, labels, triples) -> TrianglePresentation:
        """The presentation of the label triples, closed by rotation."""
        labels = tuple(labels)
        pos = {a: i for i, a in enumerate(labels)}
        closed = []
        for t in triples:
            if not all(a in pos for a in t):
                raise ValueError(f"triple {t} uses unknown labels")
            i, j, k = (pos[a] for a in t)
            closed += ((i, j, k), (j, k, i), (k, i, j))
        out, third = [[] for _ in labels], [[] for _ in labels]
        for i, j, k in sorted(closed):
            if out[i][-1:] != [j] or third[i][-1] != k:
                out[i].append(j)
                third[i].append(k)
        return cls(labels, tuple(out), tuple(third))

    @property
    def n(self) -> int:
        return len(self.labels)

    def walk(self):
        """The triples (i, out[i][r], third[i][r]), in i, then r order."""
        for i, (js, ks) in enumerate(zip(self.out, self.third)):
            yield from zip(repeat(i), js, ks)

    def __repr__(self):
        orbits = rep_entries(lambda i, j, k: 1, self.walk()).count(1)
        return f"TrianglePresentation(n={self.n}, orbits={orbits})"


class Violation(Record, eq=True):
    """One broken presentation axiom: 1 projection, 2 uniqueness, 3 rotation."""

    axiom: int
    data: tuple


def verify(F: FSet, T: TrianglePresentation) -> list[Violation]:
    """All axiom violations of T against F, in labels; empty means
    compatible."""
    if F.n != T.n:
        raise ValueError("index sets differ in size")
    out = []
    for v in _violations(F.out, T):
        lab = F.labels if v.axiom == 2 else T.labels
        out.append(Violation(v.axiom, tuple(lab[x] for x in v.data)))
    return out


def _violations(fout, T) -> list[Violation]:
    """The axiom violations of T's rows against the out-lists of position
    pairs, with position data: per triple in walk order its projection and
    rotation, then per pair in out-list order its uniqueness."""
    out = []
    for i, j, k in T.walk():
        lo, hi = _run(fout[i], j)
        if lo == hi:
            out.append(Violation(1, (i, j, k)))
        lo, hi = _run(T.out[j], k)
        if i not in T.third[j][lo:hi]:
            out.append(Violation(3, (i, j, k)))
    for p in ((i, j) for i, js in enumerate(fout) for j in js):
        lo, hi = _run(T.out[p[0]], p[1])
        if hi - lo != 1:
            out.append(Violation(2, p))
    return out


def _run(js, j) -> tuple:
    """The bounds of the run of entries equal to j in the sorted list js."""
    return bisect_left(js, j), bisect_right(js, j)


def table_writer(labels):
    """The table's entry renderer, separator and assembler: the entry of
    each of a sorted run of triples is its cell in labels, then a space, or
    a newline where the next triple starts another row, and entries join
    with nothing between.  The table is the parts of the join, one empty
    line when they are all empty."""
    lab = [str(a) for a in labels]

    def entries(triples):
        cells = [f"({lab[i]},{lab[j]},{lab[k]}) " for i, j, k in triples]
        for end in accumulate(Counter(map(itemgetter(0), triples)).values()):
            cells[end - 1] = cells[end - 1][:-1] + "\n"
        return cells

    return entries, "", lambda body, meta: body if any(body) else ["\n"]


def rep_entries(render, triples) -> list:
    """render(i, j, k) for each of the triples that is the least of its
    rotations, "" for any other: the entries of the canonical reps, in the
    order of the triples, from the slots of a choice or a presentation's
    walk.  A strict minimum first decides most triples without a tuple."""
    return [
        render(i, j, k)
        if i < j and i < k or (i, j, k) <= (j, k, i) and (i, j, k) <= (k, i, j)
        else "" for i, j, k in triples
    ]


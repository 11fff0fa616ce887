"""Triangle presentations: axioms, actions, enumeration, classification, and
the table writer."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, groupby
from operator import itemgetter

from .linkgraph import AutFull, FSet, aut_full

# the largest |Aut+(F)| classify and stabilizer_of_T accept: an orbit they
# walk has at most 2 |Aut+(F)| triple sets, all held at once
_AUT_LIMIT = 10**6


class CheckFailed(Exception):
    """An identity that a construction or census rests on does not hold.

    Not a ValueError: the input was valid, the result is wrong."""


class IncompatiblePresentation(ValueError):
    """Raised when an operation needs verify(F, T) to pass and it does not."""


class LambdaConditionFailed(CheckFailed):
    """Raised when the folding map breaks its defining identities."""


class TooLarge(ValueError):
    """Raised when an input is over a size limit: |Aut+(F)| for a search, a
    presentation or --all-kappa family, a certificate count, or a link graph
    to build or measure."""


class BadCongruence(ValueError):
    """Raised when a construction needs q congruent to 1 mod 3."""


class KappaSpecError(ValueError):
    """A sign choice whose keys do not match the datum's orbit keys."""


class ParseError(ValueError):
    """Malformed presentation document; the message names the offending key."""


class TwistCheckFailed(CheckFailed):
    """A twisted presentation built from a valid folding fails its axioms."""


@dataclass(frozen=True)
class TrianglePresentation:
    """A set of triples over a fixed labeled index set, held as 0-based
    positions into labels; labels appear only in documents, tables and
    exports.

    The constructor takes the rotation-closed position set as a builder
    makes it and neither closes nor checks it: verify is the check.
    from_labels is the one way in from label triples."""

    labels: tuple
    triples: frozenset

    @classmethod
    def from_labels(cls, labels, triples) -> TrianglePresentation:
        """The presentation of the label triples, closed by rotation."""
        labels = tuple(labels)
        pos = {a: i for i, a in enumerate(labels)}
        closed = set()
        for t in triples:
            if not all(a in pos for a in t):
                raise ValueError(f"triple {t} uses unknown labels")
            i, j, k = (pos[a] for a in t)
            closed.update(((i, j, k), (j, k, i), (k, i, j)))
        return cls(labels, frozenset(closed))

    @property
    def n(self) -> int:
        return len(self.labels)

    def canonical_reps(self) -> list:
        """The least rotation of each triple, sorted, so the same for a set
        and its rotation closure: the rotation that starts at the strict
        minimum entry, the least of the three on a tie."""
        reps = set()
        for t in self.triples:
            i, j, k = t
            if i < j and i < k:
                reps.add(t)
            elif j < k and j < i:
                reps.add((j, k, i))
            elif k < i and k < j:
                reps.add((k, i, j))
            else:
                reps.add(min(t, (j, k, i), (k, i, j)))
        return sorted(reps)

    def __repr__(self):
        return (
            f"TrianglePresentation(n={self.n}, "
            f"orbits={len(self.canonical_reps())})"
        )


@dataclass(frozen=True)
class Violation:
    """One broken presentation axiom: 1 projection, 2 uniqueness, 3 rotation."""

    axiom: int
    data: tuple


def verify(F: FSet, T: TrianglePresentation) -> list[Violation]:
    """All axiom violations of T against F, in labels; empty means
    compatible."""
    if F.n != T.n:
        raise ValueError("index sets differ in size")
    out = []
    for v in _violations(F.pairs, T.triples):
        lab = F.labels if v.axiom == 2 else T.labels
        out.append(Violation(v.axiom, tuple(lab[x] for x in v.data)))
    return out


def _violations(fpairs, triples) -> list[Violation]:
    """The axiom violations of position triples against position pairs,
    with position data: per sorted triple its projection and rotation,
    then per sorted pair its uniqueness."""
    out = []
    for t in sorted(triples):
        i, j, k = t
        if (i, j) not in fpairs:
            out.append(Violation(1, t))
        if (j, k, i) not in triples:
            out.append(Violation(3, t))
    thirds = Counter((i, j) for i, j, _ in triples)
    for p in sorted(fpairs):
        if thirds[p] != 1:
            out.append(Violation(2, p))
    return out


def enumerate_all(F: FSet):
    """Every triangle presentation compatible with F, in a canonical order.

    Exact cover: the chosen triple for a pair (i,j) covers (i,j), (j,k) and
    (k,i) at once, so each pair is consumed exactly once.
    """
    return [
        TrianglePresentation(F.labels, frozenset(key))
        for key in _exact_covers(F)
    ]


def _exact_covers(F: FSet) -> list[tuple]:
    """The compatible presentations as sorted tuples of rotation-closed
    position triples, in sorted order.

    Knuth's Algorithm X column rule: each node branches on the free pair
    with the fewest live thirds, the first in sorted order on a tie, so the
    search tree depends on F alone.  out[v] holds the heads w of the free
    pairs (v, w) and inn[v] the tails u of the free pairs (u, v); the live
    thirds of a free pair (i, j) are out[j] & inn[i], the k with (j, k) and
    (k, i) both free.  Choosing (i, j, k) clears the bits of its three
    pairs, one pair when i = j = k, and backtracking sets them again.

    A cover gives each pair one third, so its key is the sorted pairs, each
    with the third that its branch last wrote.  The stack is a list, not
    recursion: a branch is |F|/3 choices deep.
    """
    n = F.n
    pairlist = sorted(F.pairs)
    out = [0] * n
    inn = [0] * n
    third = {}
    for i, j in pairlist:
        out[i] |= 1 << j
        inn[j] |= 1 << i

    def most_constrained():
        """(i, j, live thirds) of the pair to branch on; None if none is free."""
        best = None
        fewest = n + 1
        for i in range(n):
            heads = out[i]
            tails = inn[i]
            while heads:
                low = heads & -heads
                heads ^= low
                j = low.bit_length() - 1
                live = out[j] & tails
                count = live.bit_count()
                if count < fewest:
                    if count <= 1:
                        return i, j, live
                    best, fewest = (i, j, live), count
        return best

    keys = []
    chosen: list = []  # per level (i, j, k, live thirds not yet tried)
    node = most_constrained()
    while True:
        if node is None:
            keys.append(tuple((i, j, third[i, j]) for i, j in pairlist))
        elif node[2]:
            i, j, live = node
            low = live & -live
            k = low.bit_length() - 1
            for u, w, x in ((i, j, k), (j, k, i), (k, i, j)):
                out[u] &= ~(1 << w)
                inn[w] &= ~(1 << u)
                third[u, w] = x
            chosen.append((i, j, k, live ^ low))
            node = most_constrained()
            continue
        if not chosen:
            return sorted(set(keys))
        i, j, k, live = chosen.pop()
        for u, w in ((i, j), (j, k), (k, i)):
            out[u] |= 1 << w
            inn[w] |= 1 << u
        node = (i, j, live)


def image_triples(ptrip, im, use_rho: bool = False) -> frozenset:
    """The position triples ptrip moved by the image tuple im, after the
    coordinate swap (i,j,k) -> (j,i,k) when use_rho: act on positions."""
    if use_rho:
        return frozenset((im[j], im[i], im[k]) for i, j, k in ptrip)
    return frozenset((im[i], im[j], im[k]) for i, j, k in ptrip)


def stabilizer_of_T(F: FSet, T: TrianglePresentation):
    """Aut+(T) plus a triple-preserving sigma rho, from the Schreier
    generators of the orbit of T under Aut(F).  Backs the counting identity
    on the complete digraph (test_03)."""
    if verify(F, T):
        raise IncompatiblePresentation("T fails its axioms against F")
    return _orbit_stabilizer(T.triples, _bounded_aut_full(F))[1]


def _bounded_aut_full(F: FSet) -> AutFull:
    """Aut(F), after checking |Aut+(F)| against _AUT_LIMIT."""
    full = aut_full(F)
    order = full.plus.order()
    if order > _AUT_LIMIT:
        raise TooLarge(f"|Aut+(F)| = {order} exceeds {_AUT_LIMIT}")
    return full


def _orbit_stabilizer(ptrip, full: AutFull):
    """The orbit of the position triples ptrip under Aut(F), in walk order,
    and their stabilizer, from the Schreier generators of that walk.

    (g, 1) is g after the coordinate swap, so (g, a) * (h, b) = (g*h, a ^ b).
    The walk moves by the generators of Aut+(F) with bit 0 and full.witness
    with bit 1, and keeps a (u_x, b_x) carrying ptrip to each triple set x;
    a move x -> y by (g, b) gives the Schreier generator (u_x * g * u_y^-1,
    b_x ^ b ^ b_y) (Seress, Permutation Group Algorithms, 4.2).  The first
    bit-1 one, t, is the witness; Aut+(T) is generated by the bit-0 ones e,
    t*e*t^-1, and t*s and s*t^-1 for each bit-1 s (Reidemeister-Schreier)."""
    from .permgrp import Perm, bsgs_build

    movers = [(g, 0) for g in full.plus.generators]
    if full.witness is not None:
        movers.append((full.witness, 1))
    degree = full.plus.degree
    walk = {ptrip: (Perm.identity(degree), 0)}
    orbit = [ptrip]
    schreier = {}
    for x in orbit:
        ux, bx = walk[x]
        for g, b in movers:
            y = image_triples(x, g.images, b)
            if y not in walk:
                walk[y] = (ux * g, bx ^ b)
                orbit.append(y)
                continue
            uy, by = walk[y]
            schreier[ux * g * uy.inverse(), bx ^ b ^ by] = None
    plus = [s for s, bit in schreier if not bit]
    swaps = [s for s, bit in schreier if bit]
    witness = swaps[0] if swaps else None
    if witness is not None:
        w_inv = witness.inverse()
        plus += [witness * e * w_inv for e in plus]
        plus += [witness * s for s in swaps] + [s * w_inv for s in swaps]
    return orbit, AutFull(plus=bsgs_build(degree, plus), witness=witness)


@dataclass(frozen=True, eq=False)
class TClass:
    """One isomorphism class of presentations on a fixed F."""

    representative: TrianglePresentation
    orbit_size: int
    aut_order: int


def classify(F: FSet) -> list[TClass]:
    """Orbits of Aut(F) on all compatible presentations, each represented by
    its first presentation in enumeration order.

    |Aut+(F)| is checked against _AUT_LIMIT before the enumeration starts.
    orbit * stabilizer = |Aut(F)| per class and the sum of the orbits are
    checked on every run; a failure raises CheckFailed.
    """
    full = _bounded_aut_full(F)
    allt = enumerate_all(F)
    left = {t.triples for t in allt}
    classes = []
    for t in allt:
        if t.triples not in left:
            continue
        orbit, st = _orbit_stabilizer(t.triples, full)
        left.difference_update(orbit)
        if full.order != len(orbit) * st.order:
            raise CheckFailed(
                f"|Aut(F)| = {full.order} is not orbit size {len(orbit)} "
                f"times stabilizer order {st.order}"
            )
        classes.append(TClass(t, len(orbit), st.order))
    total = sum(c.orbit_size for c in classes)
    if total != len(allt):
        raise CheckFailed(
            f"orbit sizes sum to {total}, not to {len(allt)} presentations"
        )
    return classes


def table_writer(labels):
    """The table's entry renderer and assembler: the entry of each of a
    sorted run of triples is its cell in labels, then a space, or a newline
    where the next triple starts another row; the table is their join, one
    empty line when there are none."""
    lab = [str(a) for a in labels]

    def entries(triples):
        cells = [f"({lab[i]},{lab[j]},{lab[k]}) " for i, j, k in triples]
        for end in accumulate(Counter(map(itemgetter(0), triples)).values()):
            cells[end - 1] = cells[end - 1][:-1] + "\n"
        return cells

    return entries, lambda body, meta: body or "\n"


def rep_entries(render, triples) -> list:
    """render(i, j, k) for each of the triples that is the least of its
    rotations, "" for any other: the entries of the canonical reps, in the
    order of the triples, from the slots of a choice or canonical_reps().
    A strict minimum first decides most triples without a tuple."""
    return [
        render(i, j, k)
        if i < j and i < k or (i, j, k) <= (j, k, i) and (i, j, k) <= (k, i, j)
        else "" for i, j, k in triples
    ]


def format_table(T: TrianglePresentation) -> str:
    """Rows grouped by first coordinate, triples sorted by second, written
    in labels, each label rendered once."""
    entries, assemble = table_writer(T.labels)
    rows = groupby(sorted(T.triples), key=itemgetter(0))
    return assemble("".join("".join(entries(list(r))) for _, r in rows), None)

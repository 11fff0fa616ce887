"""Triangle presentations: axioms, actions, enumeration, and classification."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, groupby, product
from operator import itemgetter
from typing import TYPE_CHECKING

from .linkgraph import AutFull, FSet, aut_full

if TYPE_CHECKING:
    from .fgroup import FiniteGroup, SubgroupDatum

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


def _check_lambda(G: FiniteGroup, S, lam) -> list:
    S = sorted(S)
    if sorted(lam) != S:
        raise LambdaConditionFailed("domain of the folding map is not S")
    for s in S:
        if lam[s] not in set(S):
            raise LambdaConditionFailed(f"image of {s} leaves S")
    for s in S:
        t = lam[s]
        if G.mul(G.mul(s, t), lam[t]) != 0:
            raise LambdaConditionFailed(
                f"s*lam(s)*lam^2(s) != 1 at s = {s}"
            )
    return S


def lambda_orbits(S, lam) -> list[tuple]:
    """Cycle partition of S under the folding map, each orbit sorted."""
    left = set(S)
    orbits = []
    while left:
        s = min(left)
        orb = [s]
        t = lam[s]
        while t != s:
            orb.append(t)
            t = lam[t]
        left.difference_update(orb)
        orbits.append(tuple(sorted(orb)))
    return sorted(orbits)


@dataclass(frozen=True, eq=False)
class SignFamily:
    """The sign twists of one folded datum: one sign per length-3 folding
    orbit inside H, for each coset of H.  A key is the orbit minimum when H
    has one coset, else the pair (coset representative, orbit minimum).

    The constructor checks the folding identities once; twist holds the
    only copy of the rule a sign applies."""

    G: FiniteGroup
    S: tuple
    lam: dict
    H: SubgroupDatum
    keys: tuple = field(init=False)
    orbit_min: dict = field(init=False, repr=False)

    def __post_init__(self):
        G, lam = self.G, self.lam
        for s in _check_lambda(G, self.S, lam):
            t = lam[s]
            if G.mul(G.mul(s, lam[t]), t) != 0:
                raise LambdaConditionFailed(f"s*lam^2(s)*lam(s) != 1 at s = {s}")
        twisted = [
            o for o in lambda_orbits(self.S, lam)
            if len(o) == 3 and all(s in self.H for s in o)
        ]
        keys = [o[0] for o in twisted]
        if self.H.index > 1:
            keys = sorted((rep, omin) for rep in self.H.reps for omin in keys)
        object.__setattr__(self, "keys", tuple(keys))
        object.__setattr__(
            self, "orbit_min", {s: o[0] for o in twisted for s in o}
        )

    def check(self, kappa) -> None:
        """Raise KappaSpecError unless kappa maps exactly the keys to signs."""
        keys = set(self.keys)
        if set(kappa) != keys:
            missing = [k for k in self.keys if k not in kappa]
            unknown = [k for k in kappa if k not in keys]
            raise KappaSpecError(
                f"kappa keys do not match the orbit keys {list(self.keys)}: "
                f"missing {missing}, unknown {unknown}"
            )
        for key, sign in kappa.items():
            if sign not in (1, -1):
                raise KappaSpecError(f"kappa value {sign!r} at {key} is not a sign")

    def choices(self):
        """All 2^len(keys) sign choices, the all-plus choice first."""
        for signs in product((1, -1), repeat=len(self.keys)):
            yield dict(zip(self.keys, signs))

    def twist(self, kappa, rep=0) -> tuple:
        """The step of each s of S on the coset of rep, in the order of S:
        lam(s), or lam^2(s) = lam^-1(s) where kappa puts -1 on the orbit of
        s on that coset; rep is unused when H has one coset.  Checks kappa
        first."""
        self.check(kappa)
        lam = self.lam
        flip = {
            s for s, omin in self.orbit_min.items()
            if kappa[(rep, omin) if self.H.index > 1 else omin] == -1
        }
        return tuple(lam[lam[s]] if s in flip else lam[s] for s in self.S)

    def build(self, kappa) -> TrianglePresentation:
        """The twisted presentation of one sign choice."""
        return build_T_kappa(self, kappa)


@dataclass(frozen=True, eq=False)
class Datum:
    """One construction: the group G, the subset S whose pairs {(x, xs)}
    make the link, the folding lam of S, None when there is none, and the
    subgroup H on whose cosets the signs sit."""

    q: int
    G: FiniteGroup
    S: tuple
    H: SubgroupDatum
    lam: dict | None

    def F(self):
        """The pair set {(x, xs)} for x in G and s in S."""
        pairs = frozenset(p for s in self.S for p in enumerate(self.G.right(s)))
        return FSet(tuple(range(self.G.n)), pairs)

    def signs(self):
        """The sign family of the folding on the cosets of H."""
        if self.lam is None:
            raise BadCongruence(f"q = {self.q} is not 1 mod 3, so there is no folding")
        return SignFamily(self.G, self.S, self.lam, self.H)


def build_T_kappa(family: SignFamily, kappa) -> TrianglePresentation:
    """The sign-twisted presentation {(x, xs, xs*step)}, where step is the
    twist of s on the coset of x, read from the right translations of G.

    Each pair (x, xs) is made once, so it has one third; the rotation
    (xs, xs*step, x) is a triple iff the third of the pair (xs, step) is x.
    third[a] holds the thirds of the pairs (x, x*S[a]), x in coset order;
    place(y) is the index of y in that order."""
    G, S = family.G, family.S
    steps = [family.twist(kappa, rep) for rep in family.H.reps]
    cosets = [[] for _ in steps]
    for x, c in enumerate(family.H.coset_index):
        cosets[c].append(x)
    order = [x for xs in cosets for x in xs]
    place = sorted(range(G.n), key=order.__getitem__).__getitem__
    where = {s: b for b, s in enumerate(S)}
    seconds, third, checks = [], [], []
    for a, s in enumerate(S):
        col = []
        for xs, step in zip(cosets, steps):
            ys = list(map(G.right(s).__getitem__, xs))
            col += map(G.right(step[a]).__getitem__, ys)
            seconds += ys
            checks.append((xs, ys, where.get(step[a])))
        third.append(col)
    triples = frozenset(zip(order * len(S), seconds, chain.from_iterable(third)))
    for xs, ys, b in checks:
        if b is None or list(map(third[b].__getitem__, map(place, ys))) != xs:
            bad = _violations({(i, j) for i, j, _ in triples}, triples)
            raise TwistCheckFailed(f"twisted presentation broke its axioms: {bad[:3]}")
    return TrianglePresentation(tuple(range(G.n)), triples)


def format_table(T: TrianglePresentation) -> str:
    """Rows grouped by first coordinate, triples sorted by second, written
    in labels, each label rendered once."""
    lab = [str(a) for a in T.labels]
    lines = [
        " ".join(f"({lab[i]},{lab[j]},{lab[k]})" for i, j, k in row)
        for _, row in groupby(sorted(T.triples), key=itemgetter(0))
    ]
    return "\n".join(lines) + "\n"

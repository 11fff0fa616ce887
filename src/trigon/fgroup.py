"""Explicit finite groups with indexed elements, subgroups, and cosets, and
the construction data on them: the datum (G, S, H, lambda) that the
constructions build, and the sign family of its folding."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, product
from typing import Callable

from .ffield import factor_prime_power, make_field
from .linkgraph import FSet
from .tripres import (BadCongruence, KappaSpecError, LambdaConditionFailed,
                      TrianglePresentation, TwistCheckFailed, verify)


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group on indices 0..n-1, given by its right translations:
    translation(s) is the list x -> x*s indexed by x, and 0 is the
    identity.  Products, inverses and cosets are all read from these lists."""

    n: int
    translation: Callable[[int], list[int]] = field(repr=False)
    _rights: dict = field(default_factory=dict, init=False, repr=False)

    def right(self, s: int) -> list[int]:
        """Right translation x -> x*s, built on the first request for s and
        kept."""
        arr = self._rights.get(s)
        if arr is None:
            arr = self._rights[s] = self.translation(s)
        return arr

    def mul(self, a: int, b: int) -> int:
        """a*b, read from the right translation by b."""
        return self.right(b)[a]

    def inv(self, a: int) -> int:
        """The x with x*a = 0."""
        return self.right(a).index(0)

    def __repr__(self):
        return f"FiniteGroup(n={self.n})"


@dataclass(frozen=True, eq=False)
class SubgroupDatum:
    """A subgroup H of a parent group together with its left-coset partition."""

    parent: FiniteGroup
    members: tuple[int, ...]
    coset_index: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def index(self) -> int:
        return self.parent.n // len(self.members)

    @property
    def reps(self) -> tuple[int, ...]:
        """Minimum element of each left coset, indexed by coset id."""
        out: dict[int, int] = {}
        for a, cid in enumerate(self.coset_index):
            out.setdefault(cid, a)
        return tuple(out[cid] for cid in range(len(out)))

    def __contains__(self, a: int) -> bool:
        return self.coset_index[a] == self.coset_index[0]

    def __repr__(self):
        return f"SubgroupDatum(order={self.order}, index={self.index})"


def make_cyclic(m: int) -> FiniteGroup:
    """The additive cyclic group Z/m on {0..m-1}."""
    if m < 1:
        raise ValueError("order must be positive")

    def translation(s):
        s %= m
        return [*range(s, m), *range(s)]

    return FiniteGroup(n=m, translation=translation)


def make_opp_group(q: int) -> FiniteGroup:
    """The order-q^2 group of matrices [[1,y,z],[0,1,y],[0,0,1]] over GF(q).

    In coordinates (y1,z1)(y2,z2) = (y1+y2, z1+z2+y1*y2).  Elements are
    indexed y.index*q + z.index, and the product reads the q x q addition
    and multiplication tables of the field, so the group takes O(q^2)
    memory.

    A right translation x -> x*s is built a block of q at a time: for fixed
    y1 the z1 entry of (y1,z1)*(y2,z2) is z1 + (z2 + y1*y2), so the block is
    one row of the addition table shifted by the block's y index.
    """
    p, e = factor_prime_power(q)
    elems = make_field(p, e).elements()
    add = [[(x + y).index for y in elems] for x in elems]
    mul = [[(x * y).index for y in elems] for x in elems]

    def translation(s):
        y2, z2 = divmod(s, q)
        out = []
        for y1 in range(q):
            base = add[y1][y2] * q
            out += [base + v for v in add[add[z2][mul[y1][y2]]]]
        return out

    return FiniteGroup(n=q * q, translation=translation)


def subgroup(G: FiniteGroup, generators) -> SubgroupDatum:
    """Closure of the generators in G, with left cosets xH indexed by rank
    of their minimum element.  The coset xH is the orbit of x under the
    generators' right translations, so H is the coset of 0; a search stops
    once its coset holds all of G."""
    gens = list(generators)
    for g in gens:
        if not 0 <= g < G.n:
            raise ValueError(f"generator {g} outside 0..{G.n - 1}")
    rights = [G.right(g) for g in gens]
    coset_index = [-1] * G.n
    cid = 0
    for x in range(G.n):
        if coset_index[x] >= 0:
            continue
        coset_index[x] = cid
        orbit = [x]
        for a in orbit:
            if len(orbit) == G.n:
                break
            for r in rights:
                b = r[a]
                if coset_index[b] < 0:
                    coset_index[b] = cid
                    orbit.append(b)
        cid += 1
    members = tuple(x for x, c in enumerate(coset_index) if c == 0)
    return SubgroupDatum(parent=G, members=members, coset_index=tuple(coset_index))


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


class SignFamily:
    """The sign twists of one folded datum: one sign per length-3 folding
    orbit inside H, for each coset of H.  A key is the orbit minimum when H
    has one coset, else the pair (coset representative, orbit minimum).

    The constructor checks the folding identities once; twist holds the
    only copy of the rule a sign applies.  Its fields are set once, like a
    frozen dataclass's, but it is a plain class: the dataclass machinery
    would cost every start of a construction command about 0.7 ms
    (2-core Xeon, Python 3.11).

    A slot is a pair (x, x*S[a]) of F, held per a and x.  Its key is the key
    of the orbit of S[a] on the coset of x, none for an untwisted slot; its
    third under a sign is read from the constant choice of that sign, made
    and checked once, when a requested choice first gives a key that sign."""

    def __init__(self, G: FiniteGroup, S, lam: dict, H: SubgroupDatum):
        for s in _check_lambda(G, S, lam):
            t = lam[s]
            if G.mul(G.mul(s, lam[t]), t) != 0:
                raise LambdaConditionFailed(f"s*lam^2(s)*lam(s) != 1 at s = {s}")
        twisted = [
            o for o in lambda_orbits(S, lam)
            if len(o) == 3 and all(s in H for s in o)
        ]
        keys = [o[0] for o in twisted]
        if H.index > 1:
            keys = sorted((rep, omin) for rep in H.reps for omin in keys)
        # the caches map (a, sign) to the thirds of the slots (x, x*S[a])
        # under sign, and to what _open finds for them
        vars(self).update(
            G=G, S=S, lam=lam, H=H, keys=tuple(keys),
            orbit_min={s: o[0] for o in twisted for s in o},
            _columns={}, _opens={},
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

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
        """The twisted presentation {(x, xs, xs*step)} of one sign choice,
        where step is the twist of s on the coset of x."""
        triples = self._triples(self._signs(kappa))
        return TrianglePresentation(tuple(range(self.G.n)), triples)

    @cached_property
    def slots(self) -> list:
        """(x, y, a) for each slot, in sorted (x, y) order."""
        rights = map(self.G.right, self.S)
        return sorted((x, y, a) for a, r in enumerate(rights) for x, y in enumerate(r))

    @cached_property
    def _slot_order_keys(self) -> list:
        """The key index of each slot, in slot order."""
        kid = self._slot_keys
        return [kid[a][x] for x, _, a in self.slots]

    def slot_signs(self, kappa) -> list:
        """The sign of each slot's key under kappa, +1 for an untwisted
        slot, in slot order; checks kappa and its choice as build does."""
        return list(map(self._signs(kappa).__getitem__, self._slot_order_keys))

    def slot_triples(self, sign) -> list:
        """The triple of each slot under sign, in slot order."""
        thirds = [self._thirds(a, sign) for a in range(len(self.S))]
        return [(x, y, thirds[a][x]) for x, y, a in self.slots]

    @cached_property
    def _slot_keys(self) -> list:
        """Per a, the index in keys of the key of each slot (x, x*S[a]),
        len(keys) where the slot is untwisted."""
        index = {k: i for i, k in enumerate(self.keys)}
        reps, out = self.H.reps, []
        for s in self.S:
            omin = self.orbit_min.get(s)
            ids = [
                len(self.keys) if omin is None
                else index[(rep, omin) if self.H.index > 1 else omin]
                for rep in reps
            ]
            out.append(list(map(ids.__getitem__, self.H.coset_index)))
        return out

    @cached_property
    def _steps(self) -> dict:
        """The twist of each constant choice, by its sign."""
        return {sign: self.twist(dict.fromkeys(self.keys, sign)) for sign in (1, -1)}

    def _thirds(self, a, sign) -> list:
        """The thirds of the slots (x, x*S[a]) under sign, by x."""
        col = self._columns.get((a, sign))
        if col is None:
            G = self.G
            step = G.right(self._steps[sign][a])
            col = list(map(step.__getitem__, G.right(self.S[a])))
            self._columns[a, sign] = col
        return col

    def _open(self, a, sign):
        """(bad, cross) of the slots (x, x*S[a]) under sign.  The rotation
        of a slot's triple (x, y, z) is the slot (y, z) with third x: bad
        holds the keys of the slots whose rotation is no slot, or a slot of
        the same key with another third; cross holds (key index, b, y, x)
        for each slot whose rotation (y, y*S[b]) lies under another key,
        for each choice to check."""
        kid, step = self._slot_keys, self._steps[sign][a]
        if step not in self.S:
            return set(kid[a]), []
        b = self.S.index(step)
        ys, z_of = self.G.right(self.S[a]), self._thirds(b, sign)
        bad, cross = set(), []
        if (list(map(kid[b].__getitem__, ys)) != kid[a]
                or list(map(z_of.__getitem__, ys)) != list(range(self.G.n))):
            for x, y in enumerate(ys):
                if kid[b][y] != kid[a][x]:
                    cross.append((kid[a][x], b, y, x))
                elif z_of[y] != x:
                    bad.add(kid[a][x])
        return bad, cross

    def _signs(self, kappa) -> list:
        """The sign of each key index under kappa, then +1 for the untwisted
        slots, once kappa and the rotation closure of its choice pass: each
        slot is checked once per sign, and a slot whose rotation lies under
        another key once per choice."""
        self.check(kappa)
        signs = [kappa[k] for k in self.keys] + [1]
        kid = self._slot_keys
        for a, kid_a in enumerate(kid):
            for sign in set(map(signs.__getitem__, kid_a)):
                if (a, sign) not in self._opens:
                    self._opens[a, sign] = self._open(a, sign)
                bad, cross = self._opens[a, sign]
                if any(signs[k] == sign for k in bad) or any(
                    signs[k] == sign and self._thirds(b, signs[kid[b][y]])[y] != x
                    for k, b, y, x in cross
                ):
                    triples = self._triples(signs)
                    F = FSet(tuple(range(self.G.n)), {(i, j) for i, j, _ in triples})
                    found = verify(F, TrianglePresentation(F.labels, triples))
                    raise TwistCheckFailed(
                        f"twisted presentation broke its axioms: {found[:3]}"
                    )
        return signs

    def _triples(self, signs) -> frozenset:
        """The triples of the choice whose key indices have these signs."""
        G, S = self.G, self.S
        xs = range(G.n)
        thirds = []
        for a, kid in enumerate(self._slot_keys):
            if kid.count(kid[0]) == len(kid):
                thirds += self._thirds(a, signs[kid[0]])
            else:
                by_key = [self._thirds(a, sign) for sign in signs]
                thirds += map(list.__getitem__, map(by_key.__getitem__, kid), xs)
        seconds = chain.from_iterable(map(G.right, S))
        return frozenset(zip(list(xs) * len(S), seconds, thirds))


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

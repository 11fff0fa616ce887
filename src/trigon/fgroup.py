"""Explicit finite groups with indexed elements, subgroups, and cosets, and
the construction data on them: the datum (G, S, H, lambda) that the
constructions build, and the sign family of its folding."""

from __future__ import annotations

from functools import cached_property
from itertools import product
from typing import TYPE_CHECKING, Callable

from .errors import (BadCongruence, KappaSpecError, LambdaConditionFailed,
                     TwistCheckFailed)
from .ffield import field_tables
from .pairset import FSet
from .record import Record

if TYPE_CHECKING:
    from .tripres import TrianglePresentation


class FiniteGroup(Record, eq=False):
    """A finite group on indices 0..n-1, given by its right translations:
    translation(s) is the list x -> x*s indexed by x, and 0 is the
    identity.  Products and cosets are read from these lists."""

    n: int
    translation: Callable[[int], list[int]]

    def __init__(self, n, translation):
        super().__init__(n, translation)
        vars(self).update(_rights={})

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

    def __repr__(self):
        return f"FiniteGroup(n={self.n})"


class SubgroupDatum(Record, eq=False):
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
    # every translation is a rotation of one list, so the cached rows share
    # its int objects instead of each making its own above 256
    elems = list(range(m))

    def translation(s):
        s %= m
        return elems[s:] + elems[:s]

    return FiniteGroup(n=m, translation=translation)


def make_opp_group(q: int) -> FiniteGroup:
    """The order-q^2 group of matrices [[1,y,z],[0,1,y],[0,0,1]] over GF(q).

    In coordinates (y1,z1)(y2,z2) = (y1+y2, z1+z2+y1*y2).  Elements are
    indexed y*q + z over the field's element indices, and the product reads
    the q x q addition and multiplication tables of the field, so the group
    takes O(q^2) memory.

    A right translation x -> x*s is built a block of q at a time: for fixed
    y1 the z1 entry of (y1,z1)*(y2,z2) is z1 + (z2 + y1*y2), so the block is
    one row of the addition table shifted by the block's y index.  It picks
    its entries from one list of the elements, so the cached translations
    share their int objects.
    """
    add, mul, _ = field_tables(q)
    elems = list(range(q * q))

    def translation(s):
        y2, z2 = divmod(s, q)
        out = []
        for y1 in range(q):
            base = add[y1][y2] * q
            block = elems[base:base + q]
            out += map(block.__getitem__, add[add[z2][mul[y1][y2]]])
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


def _pair_set(G: FiniteGroup, S) -> FSet:
    """F = {(x, xs)} from the translations: out[x] is the sorted x*s, s in S."""
    return FSet(tuple(range(G.n)), tuple(map(sorted, zip(*map(G.right, S)))))


class SignFamily(Record, eq=False):
    """The sign twists of one folded datum: one sign per length-3 folding
    orbit inside H, for each coset of H.  A key is the orbit minimum when H
    has one coset, else the pair (coset representative, orbit minimum).

    The constructor checks the folding identities once and derives keys and
    orbit_min; twist holds the only copy of the rule a sign applies.

    A slot is a pair (x, x*S[a]) of F, held per a and x.  Its key is the key
    of the orbit of S[a] on the coset of x, none for an untwisted slot; its
    third under a sign is read from the constant choice of that sign, made
    and checked once, when a requested choice first gives a key that sign.  A
    writer of many choices re-picks only the key_slots of the keys it flips."""

    G: FiniteGroup
    S: tuple
    lam: dict
    H: SubgroupDatum

    def __init__(self, G, S, lam, H):
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
        super().__init__(G, S, lam, H)
        # the caches map (a, sign) to the thirds of the slots (x, x*S[a])
        # under sign, and to what _open finds for them
        vars(self).update(keys=tuple(keys), _columns={}, _opens={},
                          orbit_min={s: o[0] for o in twisted for s in o})

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

    def twist(self, kappa) -> tuple:
        """The step of each s of S on H, in the order of S: lam(s), or
        lam^2(s) = lam^-1(s) where kappa puts -1 on the orbit of s on H.
        Checks kappa first."""
        self.check(kappa)
        lam = self.lam
        flip = {
            s for s, omin in self.orbit_min.items()
            if kappa[(0, omin) if self.H.index > 1 else omin] == -1
        }
        return tuple(lam[lam[s]] if s in flip else lam[s] for s in self.S)

    def build(self, kappa) -> TrianglePresentation:
        """The twisted presentation {(x, xs, xs*step)} of one sign choice,
        where step is lam(s), or lam^2(s) where kappa puts -1 on the orbit
        of s on the coset of x."""
        return self._presentation(self.key_signs(kappa))

    @cached_property
    def slots(self) -> list:
        """(x, y, a) for each slot, in sorted (x, y) order."""
        rights = map(self.G.right, self.S)
        return sorted((x, y, a) for a, r in enumerate(rights) for x, y in enumerate(r))

    @cached_property
    def key_slots(self) -> list:
        """Per key index, then for the untwisted slots, their places in slots."""
        kid, out = self._slot_keys, [[] for _ in range(len(self.keys) + 1)]
        for r, (x, _, a) in enumerate(self.slots):
            out[kid[a][x]].append(r)
        return out

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
    def _column_keys(self) -> list:
        """Per a, the distinct key indices of the slots (x, x*S[a])."""
        return [set(kid) for kid in self._slot_keys]

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

    def key_signs(self, kappa) -> list:
        """The sign of each key index under kappa, then +1 for the untwisted
        slots, once kappa and the rotation closure of its choice pass: each
        slot is checked once per sign, a choice once per key of each a, and
        a slot whose rotation lies under another key once per choice."""
        self.check(kappa)
        signs = [kappa[k] for k in self.keys] + [1]
        kid = self._slot_keys
        for a, ids in enumerate(self._column_keys):
            for sign in {signs[k] for k in ids}:
                if (a, sign) not in self._opens:
                    self._opens[a, sign] = self._open(a, sign)
                bad, cross = self._opens[a, sign]
                if bad and any(signs[k] == sign for k in bad) or cross and any(
                    signs[k] == sign and self._thirds(b, signs[kid[b][y]])[y] != x
                    for k, b, y, x in cross
                ):
                    from .tripres import verify

                    found = verify(_pair_set(self.G, self.S), self._presentation(signs))
                    raise TwistCheckFailed(
                        f"twisted presentation broke its axioms: {found[:3]}"
                    )
        return signs

    def _presentation(self, signs) -> TrianglePresentation:
        """The presentation of the choice whose key indices have these
        signs: per x, its heads x*s sorted, each with its third."""
        from .tripres import TrianglePresentation

        G = self.G
        columns = []
        for a, kid in enumerate(self._slot_keys):
            if kid.count(kid[0]) == len(kid):
                columns.append(self._thirds(a, signs[kid[0]]))
            else:
                picks = map([self._thirds(a, sign) for sign in signs].__getitem__, kid)
                columns.append(list(map(list.__getitem__, picks, range(G.n))))
        heads, out, third = list(map(G.right, self.S)), [], []
        for x in range(G.n):
            row = sorted((h[x], c[x]) for h, c in zip(heads, columns))
            out.append([j for j, _ in row])
            third.append([k for _, k in row])
        return TrianglePresentation(tuple(range(G.n)), tuple(out), tuple(third))


class Datum(Record, eq=False):
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
        return _pair_set(self.G, self.S)

    def signs(self):
        """The sign family of the folding on the cosets of H."""
        if self.lam is None:
            raise BadCongruence(f"q = {self.q} is not 1 mod 3, so there is no folding")
        return SignFamily(self.G, self.S, self.lam, self.H)

"""Explicit finite groups with indexed elements, subgroups, and cosets."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from .ffield import factor_prime_power, make_field

if TYPE_CHECKING:
    from .permgrp import Perm


class NonAbelianGroup(ValueError):
    """Raised when an abelian group is required but the group is not."""


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

    def is_abelian(self) -> bool:
        return all(
            self.mul(a, b) == self.mul(b, a)
            for a in range(self.n)
            for b in range(a + 1, self.n)
        )

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


def mu_permutation(G: FiniteGroup) -> Perm:
    """The inversion map x -> x^{-1} as a permutation of element indices.

    Only an automorphism when G is abelian, and that is how callers use it,
    so nonabelian groups are rejected.
    """
    from .permgrp import Perm

    if not G.is_abelian():
        raise NonAbelianGroup("inversion is only an automorphism when abelian")
    return Perm(tuple(G.inv(a) for a in range(G.n)))

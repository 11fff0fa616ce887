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
    """A finite group on indices 0..n-1 with explicit mul and inv maps.

    translation, when given, builds the whole list x -> x*s for an s faster
    than one mul call per x; right uses it in place of mul."""

    n: int
    mul: Callable[[int, int], int]
    inv: Callable[[int], int]
    id: int
    abelian: bool | None = None
    translation: Callable[[int], list[int]] | None = field(default=None, repr=False)
    _rights: dict = field(default_factory=dict, init=False, repr=False)

    def right(self, s: int) -> list[int]:
        """Right translation x -> x*s as a list indexed by x, built on the
        first request for s and kept."""
        arr = self._rights.get(s)
        if arr is None:
            if self.translation is not None:
                arr = self.translation(s)
            else:
                arr = [self.mul(x, s) for x in range(self.n)]
            self._rights[s] = arr
        return arr

    def is_abelian(self) -> bool:
        if self.abelian is not None:
            return self.abelian
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
        return self.coset_index[a] == self.coset_index[self.parent.id]

    def __repr__(self):
        return f"SubgroupDatum(order={self.order}, index={self.index})"


def make_cyclic(m: int) -> FiniteGroup:
    """The additive cyclic group Z/m on {0..m-1}."""
    if m < 1:
        raise ValueError("order must be positive")
    return FiniteGroup(
        n=m,
        mul=lambda a, b: (a + b) % m,
        inv=lambda a: (-a) % m,
        id=0,
        abelian=True,
    )


def make_opp_group(q: int) -> FiniteGroup:
    """The order-q^2 group of matrices [[1,y,z],[0,1,y],[0,0,1]] over GF(q).

    In coordinates (y1,z1)(y2,z2) = (y1+y2, z1+z2+y1*y2) and (y,z)^-1 =
    (-y, y*y-z).  Elements are indexed y.index*q + z.index, and both maps
    read the q x q addition and multiplication tables of the field, so the
    group takes O(q^2) memory.

    A right translation x -> x*s is built a block of q at a time: for fixed
    y1 the z1 entry of (y1,z1)*(y2,z2) is z1 + (z2 + y1*y2), so the block is
    one row of the addition table shifted by the block's y index.
    """
    p, e = factor_prime_power(q)
    elems = make_field(p, e).elements()
    add = [[(x + y).index for y in elems] for x in elems]
    mul = [[(x * y).index for y in elems] for x in elems]
    neg = [row.index(0) for row in add]

    def product(a, b):
        y1, z1 = divmod(a, q)
        y2, z2 = divmod(b, q)
        return add[y1][y2] * q + add[add[z1][z2]][mul[y1][y2]]

    def inverse(a):
        y, z = divmod(a, q)
        return neg[y] * q + add[mul[y][y]][neg[z]]

    def translation(s):
        y2, z2 = divmod(s, q)
        out = []
        for y1 in range(q):
            base = add[y1][y2] * q
            out += [base + v for v in add[add[z2][mul[y1][y2]]]]
        return out

    return FiniteGroup(n=q * q, mul=product, inv=inverse, id=0, abelian=True,
                       translation=translation)


def subgroup(G: FiniteGroup, generators) -> SubgroupDatum:
    """Closure of the generators in G, with left cosets xH indexed by rank
    of their minimum element."""
    gens = list(generators)
    for g in gens:
        if not 0 <= g < G.n:
            raise ValueError(f"generator {g} outside 0..{G.n - 1}")
    rights = [G.right(g) for g in gens]
    members = {G.id}
    queue = [G.id]
    for a in queue:
        for r in rights:
            b = r[a]
            if b not in members:
                members.add(b)
                queue.append(b)
    mem = tuple(sorted(members))
    coset_index = [-1] * G.n
    next_id = 0
    for x in range(G.n):
        if coset_index[x] >= 0:
            continue
        for h in mem:
            coset_index[G.mul(x, h)] = next_id
        next_id += 1
    return SubgroupDatum(parent=G, members=mem, coset_index=tuple(coset_index))


def mu_permutation(G: FiniteGroup) -> Perm:
    """The inversion map x -> x^{-1} as a permutation of element indices.

    Only an automorphism when G is abelian, and that is how callers use it,
    so nonabelian groups are rejected.
    """
    from .permgrp import Perm

    if not G.is_abelian():
        raise NonAbelianGroup("inversion is only an automorphism when abelian")
    return Perm(tuple(G.inv(a) for a in range(G.n)))

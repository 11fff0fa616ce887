"""Explicit finite groups with indexed elements, subgroups, and cosets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .ffield import factor_prime_power, make_field
from .permgrp import Perm


class NonAbelianGroup(ValueError):
    """Raised when an abelian group is required but the group is not."""


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group on indices 0..n-1 with explicit mul and inv maps."""

    n: int
    mul: Callable[[int, int], int]
    inv: Callable[[int], int]
    id: int
    abelian: bool | None = None

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
            if cid not in out:
                out[cid] = a
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

    Product in coordinates: (y1,z1)(y2,z2) = (y1+y2, z1+z2+y1*y2).  Elements
    are indexed y.index*q + z.index; the multiplication table is precomputed
    from the field's addition and multiplication tables over element indices.
    """
    p, e = factor_prime_power(q)
    gf = make_field(p, e)
    elems = gf.elements()
    add = [[(x + y).index for y in elems] for x in elems]
    mul = [[(x * y).index for y in elems] for x in elems]
    n = q * q
    table = []
    invs = [0] * n
    for a in range(n):
        y1, z1 = divmod(a, q)
        add_y1, add_z1, mul_y1 = add[y1], add[z1], mul[y1]
        row = [
            add_y1[y2] * q + add[add_z1[z2]][mul_y1[y2]]
            for y2 in range(q)
            for z2 in range(q)
        ]
        table.append(row)
        invs[a] = row.index(0)
    return FiniteGroup(
        n=n,
        mul=lambda a, b: table[a][b],
        inv=lambda a: invs[a],
        id=0,
        abelian=True,
    )


def subgroup(G: FiniteGroup, generators) -> SubgroupDatum:
    """Closure of the generators in G, with left cosets xH indexed by rank
    of their minimum element."""
    gens = list(generators)
    for g in gens:
        if not 0 <= g < G.n:
            raise ValueError(f"generator {g} outside 0..{G.n - 1}")
    members = {G.id}
    queue = [G.id]
    for a in queue:
        for g in gens:
            b = G.mul(a, g)
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
    if not G.is_abelian():
        raise NonAbelianGroup("inversion is only an automorphism when abelian")
    return Perm(tuple(G.inv(a) for a in range(G.n)))

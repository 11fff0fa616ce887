"""Exoticness certificate: the induced neighborhood group Q0, the twist
permutation sigma, and the counting lower bounds.

Q0 is measured, not taken from the closed formula: an automorphism search on
the link graph with the base vertex colored apart yields generators of that
vertex's stabilizer directly, and only their action on the neighborhood
Lambda (q+1 points) goes through Schreier-Sims."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import CheckFailed
from .ffield import factor_prime_power
from .fgroup import Datum, SignFamily
from .autosearch import automorphism_generators
from .pairset import from_F
from .permgrp import (
    NotInvariant,
    Perm,
    PermGroup,
    bsgs_build,
    restricted_generators,
)
from .record import Record
from .singer import r_of_q

if TYPE_CHECKING:
    from fractions import Fraction


class ProbeCheckFailed(CheckFailed):
    """A link-graph invariant that the Q0 probe relies on does not hold."""


class OrderMismatch(ProbeCheckFailed):
    """Raised when the computed |Q0| disagrees with e(q-1)q(q+1)."""


class ExoticProbe(Record, eq=False):
    """The group Q0 induced on the neighborhood Lambda of the base vertex,
    the point-side vertex 0, whose neighbors are the line-side copies of S,
    by the link automorphisms fixing it; and the datum's sign family."""

    datum: Datum
    q0: PermGroup
    family: SignFamily


def expected_q0_order(q):
    """e(q-1)q(q+1) for q = p^e."""
    _, e = factor_prime_power(q)
    return e * (q - 1) * q * (q + 1)


def build_probe(d: Datum) -> ExoticProbe:
    """Compute Q0 from the link graph itself, then check its order.

    The base vertex gets a color of its own, so the search returns generators
    of its stabilizer; no chain on all 2n vertices is built.  The folding is
    checked first, so a broken one fails before the search is paid for."""
    family = d.signs()
    link = from_F(d.F())
    n = link.n
    v1 = 0
    lam_set = tuple(n + s for s in d.S)
    nbrs = link.adj[v1]
    if tuple(nbrs) != lam_set:
        raise ProbeCheckFailed(
            f"neighbors {nbrs} of the base vertex are not the copies "
            f"{list(lam_set)} of S"
        )
    colors = [0] * (2 * n)
    colors[v1] = 1
    stab_gens = automorphism_generators(link.adj, colors)
    # fixing a one-sided vertex rules out the side swap
    for g in stab_gens:
        if any(g(v) >= n for v in range(n)):
            raise ProbeCheckFailed(
                "an automorphism fixing the base vertex swaps the sides"
            )
    try:
        lam_gens = restricted_generators(stab_gens, lam_set)
    except NotInvariant as err:
        raise ProbeCheckFailed(
            "the stabilizer of the base vertex does not preserve its neighbors"
        ) from err
    q0 = bsgs_build(len(lam_set), lam_gens)
    want = expected_q0_order(d.q)
    got = q0.order()
    if got != want:
        raise OrderMismatch(f"|Q0| = {got}, expected {want} for q = {d.q}")
    return ExoticProbe(datum=d, q0=q0, family=family)


def sigma_kappa(probe: ExoticProbe, kappa) -> Perm:
    """The family's twist of S as a permutation of the neighborhood
    positions; folding fixed points stay put."""
    family = probe.family
    pos = {s: i for i, s in enumerate(family.S)}
    return Perm(tuple(pos[step] for step in family.twist(kappa)))


class Certificate(Record, eq=True):
    """Outcome of the sigma-in-Q0 membership test; the implication only ever
    certifies exoticness, never arithmeticity."""

    q: int
    kappa: tuple
    sigma: Perm
    member: bool

    @property
    def verdict(self):
        return "Inconclusive" if self.member else "Exotic"


def exotic_certificate(probe: ExoticProbe, kappa) -> Certificate:
    """Exotic iff the twist permutation falls outside Q0."""
    sigma = sigma_kappa(probe, kappa)
    member = probe.q0.contains(sigma)
    return Certificate(
        q=probe.datum.q,
        kappa=tuple(sorted(kappa.items())),
        sigma=sigma,
        member=member,
    )


class Bounds(Record, eq=True):
    """Exact lower bounds on exotic sign choices and quasi-isometry classes."""

    exotic_kappa_lower: int
    qi_class_lower: Fraction
    vacuous: bool


def exotic_lower_bounds(q) -> Bounds:
    """Evaluate 2^R(q) - e(q-1)q(q+1), for q = p^e, and its quasi-isometry
    companion, that count over 2e(q-1)^2 q^3 (q+1), exactly; a non-positive
    count makes both bounds vacuous."""
    from fractions import Fraction

    order = expected_q0_order(q)
    count = 2 ** r_of_q(q) - order
    qi = Fraction(count, 2 * (q - 1) * q * q * order)
    return Bounds(exotic_kappa_lower=count, qi_class_lower=qi, vacuous=count <= 0)

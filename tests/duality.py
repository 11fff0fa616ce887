"""The duality claim's maps, which only the tests read: inversion in an
abelian group, and the mu-rho dual of a presentation, an involution that
flips every kappa sign (test_06)."""

from trigon.permgrp import Perm
from trigon.tripres import TrianglePresentation, image_triples


class NonAbelianGroup(ValueError):
    """Raised when an abelian group is required but the group is not."""


def is_abelian(G):
    return all(
        G.mul(a, b) == G.mul(b, a) for a in range(G.n) for b in range(a + 1, G.n)
    )


def mu_permutation(G):
    """The inversion map x -> x^{-1} as a permutation of element indices.

    Only an automorphism when G is abelian, and that is how callers use it,
    so nonabelian groups are rejected."""
    if not is_abelian(G):
        raise NonAbelianGroup("inversion is only an automorphism when abelian")
    return Perm(tuple(G.inv(a) for a in range(G.n)))


def murho_dual(T, G):
    """Transpose the first two slots of every triple, then relabel each
    index by inversion in G."""
    if T.n != G.n:
        raise ValueError("presentation labels do not match the group order")
    mu = mu_permutation(G).images
    return TrianglePresentation(T.labels, image_triples(T.triples, mu, use_rho=True))

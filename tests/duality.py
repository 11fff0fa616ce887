"""The duality claim's maps, which only the tests read: inversion in a
group, and the mu-rho dual of a presentation, an involution that
flips every kappa sign (test_06)."""

from label_oracle import image_triples, presentation_of, triples_of

from trigon.permgrp import Perm


class NonAbelianGroup(ValueError):
    """Raised when an abelian group is required but the group is not."""


def is_abelian(G):
    return all(
        G.mul(a, b) == G.mul(b, a) for a in range(G.n) for b in range(a + 1, G.n)
    )


def inverse(G, a):
    """The x with x*a = 0 in G."""
    return G.right(a).index(0)


def mu_permutation(G):
    """The inversion map x -> x^{-1} as a permutation of element indices.

    Only an automorphism when G is abelian, and that is how callers use it,
    so nonabelian groups are rejected."""
    if not is_abelian(G):
        raise NonAbelianGroup("inversion is only an automorphism when abelian")
    return Perm(tuple(inverse(G, a) for a in range(G.n)))


def murho_dual(T, G):
    """Transpose the first two slots of every triple, then relabel each
    index by inversion in G."""
    if T.n != G.n:
        raise ValueError("presentation labels do not match the group order")
    mu = mu_permutation(G).images
    return presentation_of(T.labels, image_triples(triples_of(T), mu, use_rho=True))

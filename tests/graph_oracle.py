"""Graph and group oracles that only the tests read: the whole automorphism
group of a link graph, Aut+(F) as a stabilizer chain, the numpy spectral
gap, the generalized-polygon check, and the brute-force closure of a
permutation group."""

from trigon.autosearch import automorphism_generators
from trigon.linkgraph import Disconnected, metrics, spectrum
from trigon.pairset import LinkGraph
from trigon.permgrp import Perm, PermGroup, bsgs_build


def graph_automorphisms(g: LinkGraph) -> PermGroup:
    """Full automorphism group of the bipartite graph on 2n vertices; maps
    exchanging the sides are allowed.  The whole-group oracle for the
    probe's Q0."""
    return bsgs_build(2 * g.n, automorphism_generators(g.adj).generators)


def aut_plus(F) -> PermGroup:
    """Aut+(F), the stabilizer of F in Sym(n) under the diagonal action, as
    a Schreier-Sims chain over the search's generators: the independent
    side of the order that the search reads off its path."""
    return bsgs_build(F.n, automorphism_generators(F.out).generators)


def spectral_gap(g: LinkGraph) -> float:
    """Smallest nonzero eigenvalue of the normalized Laplacian, the numpy
    oracle for the exact point-transitive gap.  A connected graph with an
    edge has one: the eigenvalues sum to its vertex count."""
    if not metrics(g).connected:
        raise Disconnected("spectral gap needs a connected graph")
    return next(x for x in spectrum(g) if x > 1e-9)


def is_generalized_mgon(g: LinkGraph, m: int) -> bool:
    """Connected, biregular, girth 2m, diameter m; backs the claim that
    each link is a generalized 3-gon (a projective plane)."""
    met = metrics(g)
    return (
        met.connected
        and met.biregular is not None
        and met.girth == 2 * m
        and met.diameter == m
    )


def closure_elements(degree: int, generators) -> list[Perm]:
    """Brute-force closure of at most 10^6 elements, for cross-checks."""
    seen = {Perm.identity(degree)}
    queue = list(seen)
    for g in queue:
        for s in generators:
            h = g * s
            if h not in seen:
                if len(seen) >= 10**6:
                    raise ValueError("closure exceeded 10^6 elements")
                seen.add(h)
                queue.append(h)
    return sorted(seen, key=lambda p: p.images)

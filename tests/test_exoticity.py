"""Neighborhood group Q0, twist permutations, certificates, and bounds."""

from fractions import Fraction
from math import factorial

import pytest

from graph_oracle import graph_automorphisms
from label_oracle import triples_of
from trigon import cli, exoticity, singer
from trigon.autosearch import Automorphisms
from trigon.errors import KappaSpecError, LambdaConditionFailed, NotPrime
from trigon.exoticity import (
    Bounds,
    OrderMismatch,
    build_probe,
    exotic_certificate,
    exotic_lower_bounds,
    expected_q0_order,
    sigma_kappa,
)
from trigon.fgroup import Datum, lambda_orbits
from trigon.pairset import from_F
from trigon.permgrp import Perm
from trigon.singer import r_of_q, singer_datum


def length_three_orbits(d):
    """The length-3 orbits of the datum's folding, sorted."""
    return [o for o in lambda_orbits(d.S, d.lam) if len(o) == 3]


def orbit_of(start, gens):
    seen = {start}
    queue = [start]
    for v in queue:
        for g in gens:
            w = g(v)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def test_expected_order_formula():
    assert [expected_q0_order(q) for q in (2, 3, 4, 5, 7, 8, 9)] == [
        6, 24, 120, 120, 336, 1512, 1440,
    ]
    with pytest.raises(Exception):
        expected_q0_order(6)


# q = 16, 27, 32 and 53 (e = 4, 3, 5, 1) are where the orbit pruning and the
# early abort of the symmetry search matter; the squares 25 and 49 are where
# the probe refines most (64 and 81 are still too slow for the suite)
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 53])
def test_q0_census(q, probe_for):
    probe = probe_for(q)
    assert probe.q0.degree == q + 1
    assert probe.q0.order() == expected_q0_order(q)
    if q <= 4:
        # PGL2(2), PGL2(3), PGammaL2(4) exhaust the symmetric group
        assert probe.q0.order() == factorial(q + 1)
    else:
        assert probe.q0.order() < factorial(q + 1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
def test_q0_matches_full_group_stabilizer(q, probe_for):
    # slow oracle: the whole link group, then the stabilizer, then Lambda
    probe = probe_for(q)
    link = from_F(probe.datum.F())
    full = graph_automorphisms(link)
    oracle = full.stabilizer(0).restrict([link.n + s for s in probe.datum.S])
    assert oracle.order() == probe.q0.order()
    assert all(probe.q0.contains(g) for g in oracle.generators)
    assert all(oracle.contains(g) for g in probe.q0.generators)


# the search reads the link graph's neighbor lists in a fixed order, so its
# Q0 generators are fixed too; a change of how the graph is stored or read
# must leave them as they are
Q0_GENERATORS = {
    7: [(3, 7, 4, 0, 2, 5, 6, 1), (4, 0, 1, 2, 7, 5, 6, 3),
        (7, 0, 3, 5, 4, 2, 6, 1), (2, 4, 5, 3, 0, 7, 6, 1),
        (0, 4, 7, 3, 1, 6, 5, 2)],
    8: [(3, 1, 2, 5, 7, 0, 4, 6, 8), (3, 5, 2, 6, 4, 7, 0, 1, 8),
        (4, 6, 2, 8, 3, 0, 1, 5, 7), (4, 1, 8, 7, 3, 6, 0, 5, 2)],
    9: [(5, 0, 7, 2, 3, 9, 6, 4, 8, 1), (3, 4, 0, 1, 9, 2, 6, 5, 8, 7),
        (5, 9, 4, 3, 2, 0, 6, 7, 8, 1), (8, 9, 7, 1, 0, 5, 6, 3, 2, 4),
        (1, 0, 4, 3, 2, 9, 8, 7, 6, 5)],
}


@pytest.mark.parametrize("q", sorted(Q0_GENERATORS))
def test_q0_generators_are_pinned(q, probe_for):
    assert [g.images for g in probe_for(q).q0.generators] == Q0_GENERATORS[q]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_q0_transitive_on_neighborhood(q, probe_for):
    probe = probe_for(q)
    assert orbit_of(0, probe.q0.generators) == set(range(q + 1))


def test_neighborhood_identification(probe_for):
    # Lambda, the neighbors of the base vertex 0, are the line-side copies of
    # S, in the order of S, which is the order of Q0's points
    d = probe_for(5).datum
    link = from_F(d.F())
    assert list(link.adj[0]) == [link.n + s for s in d.S]


def test_sigma_fano():
    d = singer_datum(2)
    plus = sigma_kappa(build_probe(d), {1: 1})
    minus = sigma_kappa(build_probe(d), {1: -1})
    # S = (1, 2, 4) and the fold doubles, so positions rotate by one
    assert plus == Perm((1, 2, 0))
    assert minus == Perm((2, 0, 1))
    assert plus * minus == Perm((0, 1, 2))


def test_sigma_quartic_fixed_points(probe_for):
    probe = probe_for(4)
    d = probe.datum
    assert d.S == (7, 9, 14, 15, 18)
    plus = sigma_kappa(probe, {9: 1})
    minus = sigma_kappa(probe, {9: -1})
    assert plus == Perm((0, 3, 2, 4, 1))
    for sigma in (plus, minus):
        assert sigma(0) == 0 and sigma(2) == 2


def test_sigma_kappa_keys_checked(probe_for):
    probe = probe_for(5)
    threes = length_three_orbits(probe.datum)
    with pytest.raises(KappaSpecError):
        sigma_kappa(probe, {o: 1 for o in threes})
    with pytest.raises(KappaSpecError):
        sigma_kappa(probe, {threes[0][0]: 1})
    full = {o[0]: 1 for o in threes}
    with pytest.raises(KappaSpecError):
        sigma_kappa(probe, {**full, 99: 1})


@pytest.mark.parametrize("q", [4, 5, 7])
def test_sigma_matches_the_built_triples(q, probe_for):
    """The two readers of the twist agree: the triple of the built
    presentation that starts (0, s) ends at s + S[sigma(pos s)]."""
    probe = probe_for(q)
    S, m = probe.datum.S, probe.datum.G.n
    for kappa in probe.family.choices():
        sigma = sigma_kappa(probe, kappa)
        third = {j: k for i, j, k in triples_of(probe.family.build(kappa)) if i == 0}
        assert third == {s: (s + S[sigma(p)]) % m for p, s in enumerate(S)}


def mixed_folding_datum():
    """The q = 7 datum with its folding replaced by (a1 b1 a2)(b2 a3 b3),
    built from its two 3-orbits (a1 a2 a3) and (b1 b2 b3): still two
    3-cycles and two fixed points, but s*lam(s)*lam^2(s) != 1."""
    d = singer_datum(7)
    (a1, a2, a3), (b1, b2, b3) = length_three_orbits(d)
    lam = dict(d.lam)
    for x, y, z in ((a1, b1, a2), (b2, a3, b3)):
        lam.update({x: y, y: z, z: x})
    return Datum(d.q, d.G, d.S, d.H, lam)


def test_mixed_folding_is_rejected(capsys, monkeypatch):
    bad = mixed_folding_datum()
    threes = length_three_orbits(bad)
    assert threes != length_three_orbits(singer_datum(7))
    assert len(threes) == r_of_q(7)
    assert len(lambda_orbits(bad.S, bad.lam)) - len(threes) == 2
    with pytest.raises(LambdaConditionFailed, match=r"s\*lam\(s\)\*lam\^2\(s\)"):
        build_probe(bad)
    monkeypatch.setattr(singer, "singer_datum", lambda q, modulus=None: bad)
    code = cli.run(["exotic", "--q", "7", "--all-kappa"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("trigon exotic: s*lam(s)*lam^2(s) != 1")


@pytest.mark.parametrize("q", [2, 3, 4])
def test_small_q_always_inconclusive(q, probe_for):
    probe = probe_for(q)
    for kappa in probe.family.choices():
        cert = exotic_certificate(probe, kappa)
        assert cert.member and cert.verdict == "Inconclusive"


def test_q5_regression_baselines(probe_for):
    probe = probe_for(5)
    d = probe.datum
    expected = {
        (1, 1): ("Inconclusive", (1, 5, 4, 2, 3, 0)),
        (1, -1): ("Exotic", (1, 5, 3, 4, 2, 0)),
        (-1, 1): ("Exotic", (5, 0, 4, 2, 3, 1)),
        (-1, -1): ("Inconclusive", (5, 0, 3, 4, 2, 1)),
    }
    for signs, (verdict, images) in expected.items():
        kappa = {o[0]: s for o, s in zip(length_three_orbits(d), signs)}
        cert = exotic_certificate(probe, kappa)
        assert cert.verdict == verdict
        assert cert.sigma.images == images
        assert cert.q == 5


@pytest.mark.parametrize("q", [4, 5, 8])
def test_kappa_negation_pairing(q, probe_for):
    probe = probe_for(q)
    identity = Perm(tuple(range(q + 1)))
    for kappa in probe.family.choices():
        negated = {o: -s for o, s in kappa.items()}
        assert sigma_kappa(probe, kappa) * sigma_kappa(probe, negated) == identity
        a = exotic_certificate(probe, kappa)
        b = exotic_certificate(probe, negated)
        assert a.verdict == b.verdict


def test_order_mismatch_on_tampered_datum():
    # the Fano datum filed under q = 3: a valid folding, |Aut_v| = 24, not
    # 432, and |Q0| = 6, not 24; the search's order fails first
    d = singer_datum(2)
    with pytest.raises(OrderMismatch, match=r"\|Aut_v\| = 24, expected 432"):
        build_probe(Datum(3, d.G, d.S, d.H, d.lam))


def test_stabilizer_order_mismatch_raises_before_the_q0_chain(monkeypatch):
    """The search's |Aut_v| is checked against e q^3 (q-1)^2 (q+1) before
    Q0's chain is built: one order too many fails with no chain."""
    real = exoticity.automorphism_generators

    def one_too_many(adj, colors):
        found = real(adj, colors)
        return Automorphisms(found.generators, found.order + 1)

    def no_chain(*args):
        raise AssertionError("Q0's chain was built")

    monkeypatch.setattr(exoticity, "automorphism_generators", one_too_many)
    monkeypatch.setattr(exoticity, "bsgs_build", no_chain)
    with pytest.raises(OrderMismatch, match=r"\|Aut_v\| = 98785, expected 98784"):
        build_probe(singer_datum(7))


def test_q0_order_mismatch_raises(monkeypatch):
    """|Q0| is still checked on its own: with one generator of Aut_v left
    out of its action on Lambda, Q0 comes out too small."""
    real = exoticity.restricted_generators
    monkeypatch.setattr(exoticity, "restricted_generators",
                        lambda gens, points: real(gens, points)[:1])
    with pytest.raises(OrderMismatch, match="expected 336 for q = 7"):
        build_probe(singer_datum(7))


def test_bounds_exact_small():
    b2 = exotic_lower_bounds(2)
    assert b2 == Bounds(
        exotic_kappa_lower=-4, qi_class_lower=Fraction(-1, 12), vacuous=True,
    )
    b3 = exotic_lower_bounds(3)
    assert b3.exotic_kappa_lower == -22
    assert b3.qi_class_lower == Fraction(-11, 432)
    assert b3.vacuous


def test_bounds_q64():
    b = exotic_lower_bounds(64)
    assert b.exotic_kappa_lower == 2 ** 21 - 6 * 63 * 64 * 65 == 524672
    assert b.qi_class_lower == Fraction(524672, 2 * 6 * 63 ** 2 * 64 ** 3 * 65)
    assert not b.vacuous


def test_bounds_validate_the_exponent():
    with pytest.raises(NotPrime):
        exotic_lower_bounds(6)

"""Subspace model, coset model, checklist, and twisted parabola families."""

import math

import pytest

from duality import murho_dual
from trigon import oppmodel
from trigon.linkgraph import FSet, f_wreath_equivalent, metrics
from trigon.oppmodel import (
    a2_graph,
    incidence_model_checks,
    opp_datum,
    opp_graph_building,
    opp_properties,
)
from trigon.singer import singer_datum
from trigon.fgroup import lambda_orbits
from trigon.tripres import BadCongruence, KappaSpecError, verify


def test_a2_graph_small_planes():
    m2 = a2_graph(2)
    met = metrics(m2.graph)
    assert 2 * m2.graph.n == 14
    assert len(m2.graph.edges()) == 21
    assert met.biregular == (3, 3)
    assert met.girth == 6 and met.diameter == 3
    m3 = a2_graph(3)
    met3 = metrics(m3.graph)
    assert 2 * m3.graph.n == 26
    assert len(m3.graph.edges()) == 52
    assert met3.biregular == (4, 4)
    assert met3.girth == 6


def test_a2_graph_matches_difference_set_plane():
    model = a2_graph(2)
    n = model.graph.n
    pairs = frozenset((v, w - n) for v, w in model.graph.edges())
    assert f_wreath_equivalent(FSet(tuple(range(n)), pairs), singer_datum(2).F())


def test_building_opposition_subgraph():
    g2 = opp_graph_building(2)
    m2 = metrics(g2)
    # connected 2-regular on 8 vertices with girth 8 pins the 8-cycle
    assert 2 * g2.n == 8 and len(g2.edges()) == 8
    assert m2.biregular == (2, 2) and m2.girth == 8 and m2.connected
    g3 = opp_graph_building(3)
    m3 = metrics(g3)
    assert 2 * g3.n == 18 and len(g3.edges()) == 27
    assert m3.biregular == (3, 3) and m3.girth == 6 and m3.diameter == 4


def test_datum_parabola_and_group_type():
    # d.G is make_opp_group(q), whose type test_fgroup checks by its
    # element-order census
    expected = {
        2: (0, 3),
        3: (0, 4, 7),
        4: (0, 5, 11, 14),
        5: (0, 6, 14, 19, 21),
    }
    for q, S in expected.items():
        d = opp_datum(q)
        assert d.S == S
        assert d.G.n == q * q
        # the identity sits on the parabola, so every loop pair is present
        pairs = d.F().pairs
        assert all((g, g) in pairs for g in range(d.G.n))


def test_datum_closes_the_parabola_once(monkeypatch):
    """opp_datum keeps the subgroup it checks, and signs() reuses it."""
    calls = []

    def subgroup(G, S):
        calls.append(S)
        return real(G, S)

    real = oppmodel.subgroup
    monkeypatch.setattr(oppmodel, "subgroup", subgroup)
    d = opp_datum(7)
    assert d.H.order == 49
    assert d.signs().H is d.H
    assert len(calls) == 1


@pytest.mark.parametrize("q", [2, 3, 4])
def test_incidence_three_way_equivalence(q):
    assert incidence_model_checks(q)


# 1 - 1/sqrt(q) > 1/2 exactly when q > 4; 16 is a degree-4 extension field
@pytest.mark.parametrize(
    "q,zuk",
    [(2, False), (3, False), (4, False), (5, True), (7, True), (8, True),
     (9, True), (16, True)],
)
def test_properties_checklist(q, zuk):
    r = opp_properties(q)
    assert r.ok
    assert len(r.rows) == 7
    assert r.zuk is zuk
    assert abs(r.gap - (1 - math.sqrt(q) / q)) <= 1e-6


def test_q4_gap_is_exactly_one_half():
    """1 - sqrt(4)/4 = 1/2, so the Zuk row is False; numpy's eigvalsh gave
    0.49999999999999867 here."""
    r = opp_properties(4)
    assert (r.gap, r.zuk) == (0.5, False)


def test_properties_rows_q2():
    r = opp_properties(2)
    by_name = {row[0]: row for row in r.rows}
    assert by_name["girth"][2] == 8
    assert by_name["diameter"][2] == 4
    assert by_name["2q^2 vertices, q^3 edges"][2] == (8, 8)


@pytest.mark.parametrize("q,count", [(4, 2), (7, 4), (13, 16)])
def test_twisted_family_counts(q, count):
    d = opp_datum(q)
    # the folding multiplies y by a cube root of unity other than 1: it
    # fixes the point of y = 0, the identity 0, and moves every other
    # parabola point in a 3-cycle
    lengths = [len(o) for o in lambda_orbits(d.S, d.lam)]
    assert sorted(lengths) == [1] + [3] * ((q - 1) // 3)
    assert d.lam[0] == 0
    signs = d.signs()
    fam = [signs.build(k) for k in signs.choices()]
    assert len(fam) == count
    assert len({T.triples for T in fam}) == count
    F = d.F()
    for T in fam[:4]:
        assert verify(F, T) == []


def test_congruence_guard():
    for q in (2, 3, 5):
        d = opp_datum(q)
        assert d.lam is None
        with pytest.raises(BadCongruence):
            d.signs()


def test_kappa_keys_checked():
    d = opp_datum(7)
    mins = [o[0] for o in lambda_orbits(d.S, d.lam) if len(o) == 3]
    signs = d.signs()
    assert signs.keys == tuple(mins)
    with pytest.raises(KappaSpecError):
        signs.build({mins[0]: 1})
    good = signs.build({m: 1 for m in mins})
    assert len(good.triples) == 7 ** 2 * 7


def test_inversion_duality_flips_signs():
    d = opp_datum(4)
    signs = d.signs()
    fam = {tuple(sorted(k.items())): signs.build(k) for k in signs.choices()}
    for key, T in fam.items():
        neg = tuple(sorted((o, -s) for o, s in key))
        assert murho_dual(T, d.G).triples == fam[neg].triples

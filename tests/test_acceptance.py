"""Acceptance gate: one test per criterion, run with -v for the checklist."""

import math
import random

from duality import is_abelian, murho_dual
from label_oracle import act, project_F

from trigon.catalog import TABLE_TEXTS, table
from trigon.exoticity import (
    exotic_certificate,
    exotic_lower_bounds,
    expected_q0_order,
    sigma_kappa,
)
from trigon.ffield import factor_prime_power, make_field, trace_to_subfield
from trigon.fgroup import lambda_orbits
from trigon.grouptools import abelianization, todd_coxeter
from trigon.linkgraph import (
    FSet,
    aut_full,
    aut_plus,
    from_F,
    metrics,
    spectrum,
)
from trigon.oppmodel import (
    incidence_model_checks,
    opp_datum,
    opp_graph_building,
    opp_properties,
)
from trigon.permgrp import Perm, bsgs_build, closure_elements
from trigon.singer import quad_datum, r_of_q, singer_datum
from trigon.tripres import (
    TrianglePresentation,
    classify,
    enumerate_all,
    format_table,
    stabilizer_of_T,
    verify,
)

GAP_TOL = 1e-6
EIG_TOL = 1e-8

ALT_F = FSet.from_labels(
    range(1, 5), [(i, j) for i in range(1, 5) for j in range(1, 5) if i != j]
)
SQUARE_F = FSet.from_labels((1, 2), [(1, 1), (1, 2), (2, 1), (2, 2)])
SQUARE_T = TrianglePresentation.from_labels((1, 2), [(1, 1, 2), (2, 2, 2)])

Q5_BASELINES = {
    (1, 1): ("Inconclusive", (1, 5, 4, 2, 3, 0)),
    (1, -1): ("Exotic", (1, 5, 3, 4, 2, 0)),
    (-1, 1): ("Exotic", (5, 0, 4, 2, 3, 1)),
    (-1, -1): ("Inconclusive", (5, 0, 3, 4, 2, 1)),
}


def all_plus(datum):
    signs = datum.signs()
    return signs.build(next(signs.choices()))


def test_01_order2_difference_set_and_reference_table():
    d = singer_datum(2, modulus=(1, 1, 0, 1))
    assert d.S == (1, 2, 4)
    t = all_plus(d)
    assert len(t.triples) == 21
    assert format_table(t) == TABLE_TEXTS[3]


def test_02_order4_coset_census_and_twisted_tables():
    dq = quad_datum(2)
    assert dq.G.n == 21 and is_abelian(dq.G)
    assert set(dq.S) == {7, 9, 14, 15, 18}
    # fixed points 7 and 14, one length-3 orbit
    assert lambda_orbits(dq.S, dq.lam) == [(7,), (9, 15, 18), (14,)]
    assert sorted(dq.H.members) == [0, 3, 6, 9, 12, 15, 18]

    f = dq.F()
    found = enumerate_all(f)
    assert len(found) == 8
    assert len(classify(f)) == 2

    signs = dq.signs()
    t_plus = signs.build({(0, 9): 1, (1, 9): 1, (2, 9): 1})
    t_mix = signs.build({(0, 9): 1, (1, 9): 1, (2, 9): -1})
    assert t_plus.triples == table(1).triples
    assert t_mix.triples == table(2).triples
    coset2 = {x for x in range(21) if x % 3 == 2}
    on_coset = {
        t for t in t_plus.triples | t_mix.triples if set(t) <= coset2
    }
    assert t_plus.triples ^ t_mix.triples == on_coset


def test_03_complete_digraph_pair_and_counting_identity():
    found = enumerate_all(ALT_F)
    assert len(found) == 2
    t1, t2 = found
    assert t1.triples != t2.triples
    assert aut_plus(ALT_F).order() == 24
    assert aut_full(ALT_F).order == 48
    st = stabilizer_of_T(ALT_F, t1)
    assert st.plus.order() == 12
    assert st.order == 24
    cls = classify(ALT_F)
    # one class holds both presentations: orbit 48 / 24 = 2
    assert [(c.representative.triples, c.orbit_size) for c in cls] == [
        (t1.triples, 48 // 24)
    ]


def test_04_octahedron_link_group():
    assert verify(SQUARE_F, SQUARE_T) == []
    assert todd_coxeter(SQUARE_T) == 6
    ab = abelianization(SQUARE_T)
    assert ab.factors == (6,) and ab.free_rank == 0
    assert metrics(from_F(SQUARE_F)).girth == 4


def test_05_folding_orbit_census():
    for q in (2, 3, 4, 5, 7, 8, 9, 13):
        d = singer_datum(q)
        orbits = lambda_orbits(d.S, d.lam)
        assert len([o for o in orbits if len(o) == 3]) == r_of_q(q)
        want_fixed = set()
        if q % 3 == 0:
            want_fixed = {0}
        elif q % 3 == 1:
            third = (q * q + q + 1) // 3
            want_fixed = {third, d.G.n - third}
        assert {o[0] for o in orbits if len(o) == 1} == want_fixed
        assert (0 in d.S) == (q % 3 == 0)


def test_06_duality_flips_every_sign():
    rng = random.Random(20260823)
    for q in (2, 3, 4, 5):
        d = singer_datum(q)
        signs = d.signs()
        for _ in range(3):
            kappa = {k: rng.choice((1, -1)) for k in signs.keys}
            neg = {k: -s for k, s in kappa.items()}
            dual = murho_dual(signs.build(kappa), d.G)
            assert dual.triples == signs.build(neg).triples


def test_07_opposition_graph_checklist():
    for q in (2, 3, 4, 5):
        report = opp_properties(q)
        assert report.ok, [r for r in report.rows if not r[3]]
        assert abs(report.gap - (1 - math.sqrt(q) / q)) <= GAP_TOL
        assert report.zuk is (q == 5)


def test_08_coset_model_matches_subspace_model():
    from trigon.linkgraph import f_wreath_equivalent

    for q in (2, 3, 4):
        g = opp_graph_building(q)
        building_f = FSet(
            tuple(range(g.n)), frozenset((v, w - g.n) for v, w in g.edges())
        )
        assert f_wreath_equivalent(opp_datum(q).F(), building_f)
        assert incidence_model_checks(q) is True


def test_09_opposition_twist_family():
    for q, size in ((4, 2), (7, 4), (13, 16)):
        d = opp_datum(q)
        signs = d.signs()
        fam = [signs.build(k) for k in signs.choices()]
        assert len(fam) == size == 2 ** ((q - 1) // 3)
        f = d.F()
        seen = {t.triples for t in fam}
        assert len(seen) == size
        for t in fam:
            assert verify(f, t) == []


def test_10_exoticity_pipeline(probe_for):
    for q in (2, 3, 4, 5):
        probe = probe_for(q)
        p, e = factor_prime_power(q)
        assert probe.q0.order() == expected_q0_order(q) == e * (q - 1) * q * (q + 1)
    for q in (2, 3, 4):
        probe = probe_for(q)
        assert probe.q0.order() == math.factorial(q + 1)
        d = probe.datum
        (key,) = (o[0] for o in lambda_orbits(d.S, d.lam) if len(o) == 3)
        for signs in [(s,) for s in (1, -1)]:
            kappa = {key: signs[0]}
            assert exotic_certificate(probe, kappa).verdict == "Inconclusive"
    probe5 = probe_for(5)
    d5 = probe5.datum
    keys = [o[0] for o in lambda_orbits(d5.S, d5.lam) if len(o) == 3]
    for signs, (verdict, images) in Q5_BASELINES.items():
        kappa = dict(zip(keys, signs))
        cert = exotic_certificate(probe5, kappa)
        assert cert.verdict == verdict
        assert sigma_kappa(probe5, kappa).images == images
        neg = {k: -s for k, s in kappa.items()}
        assert exotic_certificate(probe5, neg).verdict == verdict


def test_11_lower_bound_evaluations():
    b2 = exotic_lower_bounds(2, 1)
    assert (b2.exotic_kappa_lower, b2.vacuous) == (-4, True)
    b3 = exotic_lower_bounds(3, 1)
    assert (b3.exotic_kappa_lower, b3.vacuous) == (-22, True)
    b64 = exotic_lower_bounds(64, 6)
    assert (b64.exotic_kappa_lower, b64.vacuous) == (524672, False)
    assert b64.exotic_kappa_lower == 2 ** 21 - 6 * 63 * 64 * 65


def test_12_nauru_tables():
    for which in (4, 5):
        t = table(which)
        f = project_F(t)
        assert verify(f, t) == []
        g = from_F(f)
        met = metrics(g)
        assert 2 * g.n == 24 and len(g.edges()) == 36
        assert met.biregular == (3, 3)
        assert met.connected and met.girth == 6 and met.diameter == 4


def test_13_structural_property_suite():
    # fixed productive instances
    constructed = [
        (SQUARE_F, SQUARE_T),
        (singer_datum(2).F(), all_plus(singer_datum(2))),
        (singer_datum(3).F(), singer_datum(3).signs().build({1: -1})),
        (quad_datum(2).F(), all_plus(quad_datum(2))),
        (opp_datum(4).F(), all_plus(opp_datum(4))),
    ]
    for f, t in constructed:
        assert verify(f, t) == []

    # randomized cyclic pair sets: closure and counting identities
    rng = random.Random(26)
    fsets = [ALT_F, SQUARE_F]
    for _ in range(4):
        m = rng.randrange(5, 10)
        s = rng.sample(range(1, m), rng.randrange(2, 4))
        fsets.append(
            FSet.from_labels(
                range(m), [(x, (x + a) % m) for x in range(m) for a in s]
            )
        )
    productive = 0
    for f in fsets:
        found = enumerate_all(f)
        productive += bool(found)
        pool = {t.triples for t in found}
        for t in found:
            for pi in aut_plus(f).generators:
                assert act(t, pi).triples in pool
        cls = classify(f)
        assert sum(c.orbit_size for c in cls) == len(found)
        full = aut_full(f).order
        for c in cls:
            assert c.orbit_size * c.aut_order == full
    assert productive >= 4  # the draws must exercise the closure check

    # zero eigenvalues of the normalized Laplacian count components
    sq = [(1, 1), (1, 2), (2, 1), (2, 2)]
    for k in (1, 2, 3):
        pairs = [(i + 2 * c, j + 2 * c) for c in range(k) for i, j in sq]
        g = from_F(FSet.from_labels(range(1, 2 * k + 1), pairs))
        assert sum(1 for x in spectrum(g) if abs(x) < EIG_TOL) == k
        assert metrics(g).connected is (k == 1)

    # trace is invariant under the relative Frobenius
    for q in (2, 3, 4):
        p, e = factor_prime_power(q)
        gf = make_field(p, 3 * e)
        for x in gf.elements():
            assert trace_to_subfield(x ** q, q) == trace_to_subfield(x, q)

    # stabilizer-chain order against orbit product and element census
    g = bsgs_build(5, [Perm((1, 0, 2, 3, 4)), Perm((1, 2, 3, 4, 0))])
    assert g.order() == 120
    assert g.order() == len(g.orbit(0)) * g.stabilizer(0).order()
    assert g.order() == len(closure_elements(5, g.generators))

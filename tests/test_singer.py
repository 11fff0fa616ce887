"""Difference-set data, twisted families, and the inversion duality."""

from collections import Counter
from itertools import product

import pytest

from duality import NonAbelianGroup, murho_dual
from trigon.autosearch import find_isomorphism
from trigon.catalog import TABLE_TEXTS
from trigon.ffield import factor_prime_power, poly_is_primitive
from trigon.fgroup import FiniteGroup, lambda_orbits
from trigon.linkgraph import digraph_of, from_F, is_generalized_mgon
from trigon.permgrp import Perm, closure_elements
from trigon.singer import quad_datum, r_of_q, singer_datum
from trigon.tripres import KappaSpecError, enumerate_all, format_table, verify


def orbit_split(d):
    """The length-3 folding orbits of d and its fixed points, sorted."""
    orbits = lambda_orbits(d.S, d.lam)
    return ([o for o in orbits if len(o) == 3],
            [o[0] for o in orbits if len(o) == 1])


def inside_H(d):
    """The points of S in H and the length-3 folding orbits inside H."""
    threes, _ = orbit_split(d)
    return ([s for s in d.S if s in d.H],
            [o for o in threes if all(s in d.H for s in o)])


def test_r_of_q_cases():
    assert [r_of_q(q) for q in (2, 3, 4, 5, 7, 8, 9, 13)] == [
        1, 1, 1, 2, 2, 3, 3, 4,
    ]
    with pytest.raises(Exception):
        r_of_q(6)


def test_fano_datum():
    d = singer_datum(2)
    assert (factor_prime_power(d.q), d.G.n) == ((2, 1), 7)
    assert d.H.index == 1
    assert d.S == (1, 2, 4)
    assert d.lam == {1: 2, 2: 4, 4: 1}
    assert lambda_orbits(d.S, d.lam) == [(1, 2, 4)]
    assert orbit_split(d) == ([(1, 2, 4)], [])
    explicit = singer_datum(2, (1, 1, 0, 1))
    assert explicit.S == d.S


def test_quartic_datum():
    d = singer_datum(4)
    assert d.G.n == 21
    assert d.S == (7, 9, 14, 15, 18)
    assert orbit_split(d) == ([(9, 15, 18)], [7, 14])
    assert d.lam[7] == 7 and d.lam[14] == 14 and d.lam[9] == 15


def test_cubic_datum():
    d = singer_datum(3)
    assert d.G.n == 13
    assert d.S == (0, 1, 3, 9)
    assert orbit_split(d) == ([(1, 3, 9)], [0])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 13])
def test_orbit_census(q):
    d = singer_datum(q)
    threes, fixed = orbit_split(d)
    m = d.G.n
    assert len(d.S) == q + 1
    assert len(threes) == r_of_q(q)
    assert all(len(o) in (1, 3) for o in lambda_orbits(d.S, d.lam))
    assert (0 in d.S) == (q % 3 == 0)
    if q % 3 == 0:
        assert fixed == [0]
    elif q % 3 == 1:
        assert fixed == [m // 3, 2 * m // 3]
    else:
        assert fixed == []


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_perfect_difference_set(q):
    # every nonzero residue is a difference of set members exactly once
    d = singer_datum(q)
    m = d.G.n
    diffs = Counter((x - y) % m for x in d.S for y in d.S if x != y)
    assert set(diffs) == set(range(1, m))
    assert set(diffs.values()) == {1}


def test_nonprimitive_modulus_rejected():
    # x^3 + x^2 + x + 1 = (x+1)(x^2+1) over GF(2) is not even irreducible
    with pytest.raises(Exception):
        singer_datum(2, (1, 1, 1, 1))


def test_fano_table_byte_exact():
    d = singer_datum(2)
    T = d.signs().build({1: 1})
    assert format_table(T) == TABLE_TEXTS[3]


def test_kappa_must_cover_all_orbits():
    d = singer_datum(5)
    threes, _ = orbit_split(d)
    signs = d.signs()
    assert signs.keys == tuple(o[0] for o in threes)
    for bad in ({threes[0][0]: 1}, {0: 1, 1: 1}, {k: 0 for k in signs.keys}):
        with pytest.raises(KappaSpecError):
            signs.build(bad)
    assert issubclass(KappaSpecError, ValueError)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_family_valid_and_distinct(q):
    d = singer_datum(q)
    signs = d.signs()
    fam = [signs.build(k) for k in signs.choices()]
    assert len(fam) == 2 ** r_of_q(q)
    assert next(signs.choices()) == {o[0]: 1 for o in orbit_split(d)[0]}
    seen = {T.triples for T in fam}
    assert len(seen) == len(fam)
    F = d.F()
    for T in fam:
        assert verify(F, T) == []


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_murho_flips_every_sign(q):
    d = singer_datum(q)
    signs = d.signs()
    fam = {tuple(sorted(k.items())): signs.build(k) for k in signs.choices()}
    for key, T in fam.items():
        neg = tuple(sorted((omin, -sign) for omin, sign in key))
        dual = murho_dual(T, d.G)
        assert dual.triples == fam[neg].triples
        assert murho_dual(dual, d.G).triples == T.triples


def test_murho_needs_abelian_group():
    elems = closure_elements(3, [Perm((1, 0, 2)), Perm((1, 2, 0))])
    elems = sorted(elems, key=lambda g: g.images)
    idx = {g: i for i, g in enumerate(elems)}
    # the identity has the least images, so it is element 0
    s3 = FiniteGroup(
        n=6, translation=lambda s: [idx[g * elems[s]] for g in elems]
    )
    from trigon.tripres import TrianglePresentation

    T = TrianglePresentation(tuple(range(6)), frozenset())
    with pytest.raises(NonAbelianGroup):
        murho_dual(T, s3)
    with pytest.raises(ValueError):
        murho_dual(singer_datum(2).signs().build({1: 1}), s3)


@pytest.mark.parametrize("q", [2, 3])
def test_modulus_choice_stays_diagonal_equivalent(q):
    moduli = [
        tail + (1,) for tail in product(range(q), repeat=3)
        if poly_is_primitive(tail + (1,), q)
    ]
    fsets = [singer_datum(q, mod).F() for mod in moduli]
    assert len(fsets) == (2 if q == 2 else 4)
    first = fsets[0]
    for other in fsets[1:]:
        w = find_isomorphism(digraph_of(first), digraph_of(other))
        assert w is not None


@pytest.mark.parametrize("q", [2, 3, 4])
def test_graph_is_generalized_triangle(q):
    g = from_F(singer_datum(q).F())
    assert is_generalized_mgon(g, 3)


def test_quad_marking_q2():
    dq = quad_datum(2)
    base = singer_datum(4)
    assert (dq.G.n, dq.S, dq.lam) == (base.G.n, base.S, base.lam)
    assert dq.G.n == 21
    assert dq.S == (7, 9, 14, 15, 18)
    assert sorted(dq.H.members) == [0, 3, 6, 9, 12, 15, 18]
    assert dq.H.reps == (0, 1, 2)
    assert inside_H(dq) == ([9, 15, 18], [(9, 15, 18)])


def test_quad_tables_byte_exact():
    signs = quad_datum(2).signs()
    assert signs.keys == ((0, 9), (1, 9), (2, 9))
    plus = {k: 1 for k in signs.keys}
    assert format_table(signs.build(plus)) == TABLE_TEXTS[1]
    assert format_table(signs.build({**plus, (2, 9): -1})) == TABLE_TEXTS[2]


def test_quad_family_is_the_whole_enumeration():
    dq = quad_datum(2)
    signs = dq.signs()
    fam = [signs.build(k) for k in signs.choices()]
    assert len(fam) == 8
    built = {T.triples for T in fam}
    assert len(built) == 8
    found = {T.triples for T in enumerate_all(dq.F())}
    assert found == built


def test_quad_marking_q3():
    dq = quad_datum(3)
    base = singer_datum(9)
    assert (dq.G.n, dq.S, dq.lam) == (base.G.n, base.S, base.lam)
    assert dq.G.n == 91
    assert dq.H.order == 13
    assert inside_H(dq) == ([0, 28, 70, 84], [(28, 70, 84)])
    assert len(dq.H.reps) == 7


def test_quad_family_q3_distinct():
    signs = quad_datum(3).signs()
    fam = [signs.build(k) for k in signs.choices()]
    assert len(fam) == 2 ** 7
    assert len({T.triples for T in fam}) == 2 ** 7

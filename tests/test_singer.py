"""Difference-set data, twisted families, and the inversion duality."""

from collections import Counter
from itertools import product

import pytest

from duality import NonAbelianGroup, murho_dual
from graph_oracle import closure_elements, is_generalized_mgon
from label_oracle import presentation_of, presentations, triples_of
from trigon.autosearch import find_isomorphism
from trigon.catalog import TABLE_TEXTS
from trigon.cli import present
from trigon.errors import KappaSpecError
from trigon.ffield import (
    _polypowmod,
    factor_prime_power,
    make_field,
    poly_is_primitive,
    trace_to_subfield,
)
from trigon.fgroup import FiniteGroup, lambda_orbits
from trigon.pairset import from_F
from trigon.permgrp import Perm
from trigon.singer import quad_datum, r_of_q, singer_datum
from trigon.tripres import verify


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


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_trace_scan_matches_the_trace_of_each_power(q):
    """The scan's S, with alpha^(l+1) from alpha^l by one shift and
    reduction, is the set of l whose alpha^l, from its own square-and-
    multiply power, has trace 0."""
    p, e = factor_prime_power(q)
    gf = make_field(p, 3 * e)
    m = q * q + q + 1

    def alpha_to(l):
        raw = _polypowmod((0, 1), l, gf.modulus, p)
        return raw + (0,) * (3 * e - len(raw))

    want = tuple(l for l in range(m) if not any(trace_to_subfield(gf, alpha_to(l), q)))
    assert singer_datum(q).S == want


def test_nonprimitive_modulus_rejected():
    # x^3 + x^2 + x + 1 = (x+1)(x^2+1) over GF(2) is not even irreducible
    with pytest.raises(Exception):
        singer_datum(2, (1, 1, 1, 1))


def test_fano_table_byte_exact():
    d = singer_datum(2)
    T = d.signs().build({1: 1})
    assert "".join(present(T, None, "table")) == TABLE_TEXTS[3]


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
    seen = {triples_of(T) for T in fam}
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
        assert triples_of(dual) == triples_of(fam[neg])
        assert triples_of(murho_dual(dual, d.G)) == triples_of(T)


def test_murho_needs_abelian_group():
    elems = closure_elements(3, [Perm((1, 0, 2)), Perm((1, 2, 0))])
    elems = sorted(elems, key=lambda g: g.images)
    idx = {g: i for i, g in enumerate(elems)}
    # the identity has the least images, so it is element 0
    s3 = FiniteGroup(
        n=6, translation=lambda s: [idx[g * elems[s]] for g in elems]
    )
    T = presentation_of(tuple(range(6)), ())
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
        w = find_isomorphism(first.out, other.out)
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
    assert "".join(present(signs.build(plus), None, "table")) == TABLE_TEXTS[1]
    twisted = signs.build({**plus, (2, 9): -1})
    assert "".join(present(twisted, None, "table")) == TABLE_TEXTS[2]


def test_quad_family_is_the_whole_enumeration():
    dq = quad_datum(2)
    signs = dq.signs()
    fam = [signs.build(k) for k in signs.choices()]
    assert len(fam) == 8
    built = {triples_of(T) for T in fam}
    assert len(built) == 8
    found = {triples_of(T) for T in presentations(dq.F())}
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
    assert len({triples_of(T) for T in fam}) == 2 ** 7

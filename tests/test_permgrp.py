"""Stabilizer chains, orbits and permutation plumbing."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graph_oracle import closure_elements
from trigon import census
from trigon.census import aut_full, classify
from trigon.oppmodel import opp_datum
from trigon.permgrp import (
    InvalidPermutation,
    NotInvariant,
    Perm,
    bsgs_build,
)
from trigon.singer import quad_datum, singer_datum


def test_perm_basics():
    p = Perm((1, 2, 0))
    q = Perm((0, 2, 1))
    assert (p * q).images == (2, 1, 0)
    assert p.inverse().images == (2, 0, 1)
    assert (p * p.inverse()).is_identity()
    assert p(0) == 1
    with pytest.raises(InvalidPermutation):
        Perm((0, 0, 1))
    with pytest.raises(InvalidPermutation):
        Perm((0, 0))


def from_cycles(n, cycles):
    """The permutation of range(n) with these cycles: the inverse of
    Perm.cycle_string."""
    images = list(range(n))
    for pts in cycles:
        pts = list(pts)
        for pt in pts:
            if not 0 <= pt < n:
                raise InvalidPermutation(f"point {pt} out of range")
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return Perm(images)


def test_cycle_roundtrip():
    p = from_cycles(6, [(0, 1), (2, 4, 5)])
    assert p.cycle_string() == "(0 1)(2 4 5)"
    assert Perm.identity(3).cycle_string() == "()"
    with pytest.raises(InvalidPermutation):
        from_cycles(4, [(1, 9)])


def perm_from_cycle_data(n, cycles):
    return from_cycles(n, cycles)


S4_GENS = [Perm((1, 0, 2, 3)), Perm((1, 2, 3, 0))]
A4_GENS = [Perm((1, 0, 3, 2)), Perm((1, 2, 0, 3))]
D8_GENS = [Perm((1, 2, 3, 0)), Perm((3, 2, 1, 0))]


@pytest.mark.parametrize(
    "degree,gens,order",
    [
        (4, S4_GENS, 24),
        (4, A4_GENS, 12),
        (4, D8_GENS, 8),
        (5, [Perm((1, 2, 3, 4, 0))], 5),
        (3, [], 1),
        (7, [Perm((1, 0, 2, 3, 4, 5, 6)), Perm((0, 1, 3, 2, 4, 5, 6))], 4),
    ],
)
def test_bsgs_order_matches_closure(degree, gens, order):
    g = bsgs_build(degree, gens)
    assert g.order() == order
    assert len(closure_elements(degree, gens)) == order


def test_contains_and_elements():
    g = bsgs_build(4, A4_GENS)
    elements = g.elements()
    assert len(elements) == 12
    assert len(set(elements)) == 12
    transposition = Perm((1, 0, 2, 3))
    assert not g.contains(transposition)
    for h in elements:
        assert g.contains(h)
    brute = set(closure_elements(4, A4_GENS))
    assert set(elements) == brute


def test_orbit_stabilizer_identity():
    g = bsgs_build(4, S4_GENS)
    stab = g.stabilizer(0)
    assert stab.order() == 6
    assert len(g.orbit(0)) * stab.order() == g.order()
    for h in stab.elements():
        assert h(0) == 0


def test_base_hint_respected():
    g = bsgs_build(4, S4_GENS, base_hint=(2,))
    assert g.base[0] == 2
    assert g.order() == 24


def test_restrict():
    # the Klein subgroup of D8 preserves the diagonal pair {0, 2}
    klein = bsgs_build(4, [Perm((2, 3, 0, 1)), Perm((0, 3, 2, 1))])
    assert klein.order() == 4
    r = klein.restrict([0, 2])
    assert r.degree == 2
    assert r.order() == 2
    g = bsgs_build(4, D8_GENS)
    with pytest.raises(NotInvariant):
        g.restrict([0, 1])


def test_restrict_quotients_kernel():
    # the kernel of the action on an invariant set disappears in the image
    gens = [Perm((1, 0, 2, 3)), Perm((0, 1, 3, 2))]
    g = bsgs_build(4, gens)
    assert g.order() == 4
    r = g.restrict([0, 1])
    assert r.order() == 2


def test_orbits_partition():
    g = bsgs_build(6, [Perm((1, 0, 2, 3, 4, 5)), Perm((0, 1, 3, 4, 2, 5))])
    orbs = g.orbits()
    assert orbs == [[0, 1], [2, 3, 4], [5]]


def test_deterministic_rebuild():
    a = bsgs_build(4, S4_GENS)
    b = bsgs_build(4, S4_GENS)
    assert a.base == b.base
    assert [p.images for p in a.elements()] == [p.images for p in b.elements()]


@settings(max_examples=60, deadline=None)
@given(st.permutations(range(6)), st.permutations(range(6)))
def test_product_inverse_law(pi, qi):
    p, q = Perm(pi), Perm(qi)
    assert (p * q).inverse() == q.inverse() * p.inverse()
    assert ((p * q) * q.inverse()) == p


@settings(max_examples=30, deadline=None)
@given(st.lists(st.permutations(range(5)), min_size=1, max_size=3))
def test_random_groups_match_closure(gen_images):
    gens = [Perm(images) for images in gen_images]
    g = bsgs_build(5, gens)
    brute = closure_elements(5, gens)
    assert g.order() == len(brute)
    assert all(g.contains(h) for h in brute)
    # the stabilizer is the tail of one chain based at the point
    stab = g.stabilizer(0)
    assert set(stab.elements()) == {h for h in brute if h(0) == 0}


@st.composite
def same_degree_pair(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    return draw(st.permutations(range(n))), draw(st.permutations(range(n)))


@settings(max_examples=60, deadline=None)
@given(same_degree_pair())
def test_unchecked_products_match_checked_constructor(pair):
    a, b = Perm(pair[0]), Perm(pair[1])
    n = a.degree
    assert a * b == Perm(tuple(b.images[i] for i in a.images))
    assert a.inverse() == Perm(tuple(a.images.index(j) for j in range(n)))
    assert Perm.identity(n) == Perm(range(n))
    with pytest.raises(InvalidPermutation):
        a * Perm.identity(n + 1)


@settings(max_examples=30, deadline=None)
@given(st.permutations(range(7)))
def test_cycle_string_parse_inverse(images):
    p = Perm(images)
    text = p.cycle_string()
    cycles = [c.split() for c in text[1:-1].split(")(")] if text != "()" else []
    points = [[int(x) for x in c] for c in cycles]
    assert from_cycles(7, points) == p


def check_chain_against_closure(g, brute, others):
    """The chain g against the brute-force element list of its group: the
    order, membership of every element and of each permutation in others,
    and each level against the pointwise stabilizer of the base before it:
    its orbit is the transversal's points, each transversal element lies in
    that stabilizer and carries the base point to its point, and its stored
    inverse is its inverse.  Only the identity fixes the whole base."""
    elements = set(brute)
    assert g.order() == len(elements)
    assert all(g.contains(h) for h in brute)
    for h in others:
        assert g.contains(h) == (h in elements)
    stab = elements
    for point, t, inv in zip(g.base, g._transversals, g._inverses):
        assert set(t) == {h(point) for h in stab}
        for b, u in t.items():
            u = Perm(u)
            assert u in stab and u(point) == b
            assert Perm(inv[b]) == u.inverse()
        stab = {h for h in stab if h(point) == point}
    assert stab == {Perm.identity(g.degree)}


@st.composite
def sparse_permutations(draw, n):
    """A permutation of range(n) that often moves only a few points, so
    that the generated groups are not only symmetric or alternating."""
    support = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    images = list(range(n))
    for a, b in zip(support, draw(st.permutations(support))):
        images[a] = b
    return Perm(images)


@st.composite
def generating_sets(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    gens = draw(st.lists(sparse_permutations(n), max_size=4))
    # repeats and identities, which the chain keeps out of its generators
    gens += draw(st.lists(st.sampled_from(gens or [Perm.identity(n)]), max_size=2))
    hint = draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=3))
    others = draw(st.lists(sparse_permutations(n), max_size=5))
    return n, gens, tuple(hint), others


def cycles_of(n, *cycle_lists):
    return [from_cycles(n, cycles) for cycles in cycle_lists]


@settings(max_examples=200, deadline=None)
@given(generating_sets())
# a chain that never checks a new strong generator at the orbit points it
# already had reads S_5 from a 4-cycle and a 3-cycle as A_5, and halves
# these groups of order 48, one with a fixed hint point and one with two
@example((5, cycles_of(5, [(0, 4, 1, 3)], [(0, 2, 1)]), (), []))
@example((7, cycles_of(7, [(0, 6), (1, 2)], [(1, 2, 4, 3)]), (5,), []))
@example((6, cycles_of(6, [(0, 2, 3, 1)], [(0, 2, 1), (4, 5)]), (5, 1), []))
def test_chain_matches_closure_on_random_generating_sets(drawn):
    """The incremental Schreier-Sims against the brute-force closure, on up
    to 6 generators of degree at most 7 with repeats, identities and a base
    hint."""
    n, gens, hint, others = drawn
    g = bsgs_build(n, gens, base_hint=hint)
    check_chain_against_closure(g, closure_elements(n, gens), others)
    # the generators once each, in input order, without the identity
    once = list(dict.fromkeys(h for h in gens if not h.is_identity()))
    assert list(g.generators) == once
    # the hint first, once per point, then points moved at their level
    lead = tuple(dict.fromkeys(hint))
    assert g.base[:len(lead)] == lead
    assert all(len(t) > 1 for t in g._transversals[len(lead):])
    again = bsgs_build(n, list(reversed(gens)) + gens, base_hint=hint)
    assert again.order() == g.order()
    twin = bsgs_build(n, gens, base_hint=hint)
    assert (twin.base, twin.strong_generators) == (g.base, g.strong_generators)
    assert twin._transversals == g._transversals


# the pair sets of the benchmark's census documents
CENSUS_F = {
    "singer q=5": lambda: singer_datum(5).F(),
    "singer q=7": lambda: singer_datum(7).F(),
    "opp q=7": lambda: opp_datum(7).F(),
    "quad q=2": lambda: quad_datum(2).F(),
}


@pytest.mark.parametrize("name", sorted(CENSUS_F))
def test_census_chains_match_closure(name):
    """Aut+(F) and the stabilizer in it of each class's representative,
    each against the closure of its generators; every element of Aut+(F)
    is sifted through each stabilizer's chain."""
    f = CENSUS_F[name]()
    aut = aut_full(f)
    plus = aut.plus
    brute = closure_elements(f.n, plus.generators)
    check_chain_against_closure(plus, brute, [])
    for c in classify(f):
        full = census._orbit_stabilizer(f, c.thirds, aut)[1]
        assert full.order == c.aut_order
        st = full.plus
        check_chain_against_closure(
            st, closure_elements(f.n, st.generators), brute)

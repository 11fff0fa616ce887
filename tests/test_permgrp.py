"""Stabilizer chains, orbits and permutation plumbing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigon.permgrp import (
    InvalidPermutation,
    NotInvariant,
    Perm,
    bsgs_build,
    closure_elements,
)


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

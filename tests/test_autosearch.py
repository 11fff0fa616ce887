"""Colored-digraph automorphism and isomorphism search against brute force."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from trigon.autosearch import (
    arc_masks,
    automorphism_generators,
    find_isomorphism,
    refine,
)
from trigon.permgrp import Perm, bsgs_build, closure_elements


def brute_automorphisms(n, arcs, colors=None):
    arcset = set(arcs)
    out = []
    for images in itertools.permutations(range(n)):
        if colors and any(
            colors[v] != colors[images[v]] for v in range(n)
        ):
            continue
        if all((images[i], images[j]) in arcset for i, j in arcset):
            out.append(images)
    return sorted(out)


def group_elements(n, gens):
    if not gens:
        return [tuple(range(n))]
    return [p.images for p in closure_elements(n, gens)]


def edge_adjacency(n, edges):
    """Symmetric adjacency bitmasks of a simple graph: the out-masks of the
    arcs in both directions."""
    return arc_masks(n, edges + [(j, i) for i, j in edges])[0]


PETERSEN = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
]


def test_refine_splits_by_degree():
    # path 0-1-2: endpoints split from the middle vertex
    adj = edge_adjacency(3, [(0, 1), (1, 2)])
    cols, trace = refine(3, adj, adj, [0, 0, 0])
    assert cols[0] == cols[2] != cols[1]
    assert len(trace) >= 1


def test_path_automorphisms():
    adj = edge_adjacency(3, [(0, 1), (1, 2)])
    gens = automorphism_generators(3, adj, adj)
    assert group_elements(3, gens) == [(0, 1, 2), (2, 1, 0)]


def test_square_automorphisms():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    adj = edge_adjacency(4, edges)
    gens = automorphism_generators(4, adj, adj)
    assert bsgs_build(4, gens).order() == 8
    assert group_elements(4, gens) == brute_automorphisms(
        4, edges + [(j, i) for i, j in edges]
    )


def test_directed_cycle_automorphisms():
    arcs = [(i, (i + 1) % 5) for i in range(5)]
    outm, inm = arc_masks(5, arcs)
    gens = automorphism_generators(5, outm, inm)
    assert bsgs_build(5, gens).order() == 5
    assert group_elements(5, gens) == brute_automorphisms(5, arcs)


def test_petersen_automorphism_order():
    adj = edge_adjacency(10, PETERSEN)
    gens = automorphism_generators(10, adj, adj)
    assert bsgs_build(10, gens).order() == 120


def test_colors_restrict_automorphisms():
    arcs = [(i, (i + 1) % 6) for i in range(6)]
    outm, inm = arc_masks(6, arcs)
    free = automorphism_generators(6, outm, inm)
    assert bsgs_build(6, free).order() == 6
    pinned = automorphism_generators(6, outm, inm, colors=[1, 0, 0, 0, 0, 0])
    assert pinned == []


def test_determinism():
    adj = edge_adjacency(10, PETERSEN)
    a = automorphism_generators(10, adj, adj)
    b = automorphism_generators(10, adj, adj)
    assert [p.images for p in a] == [p.images for p in b]


def test_loops_matter():
    arcs = [(0, 0), (0, 1), (1, 0)]
    outm, inm = arc_masks(2, arcs)
    assert automorphism_generators(2, outm, inm) == []


def test_find_isomorphism_cycles():
    a = [(i, (i + 1) % 6) for i in range(6)]
    b = [((i + 2) % 6, (i + 3) % 6) for i in range(6)]
    oa, ia = arc_masks(6, a)
    ob, ib = arc_masks(6, b)
    w = find_isomorphism(6, oa, ia, ob, ib)
    assert w is not None
    assert {(w(i), w(j)) for i, j in a} == set(b)
    # two triangles are not a hexagon
    two = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    ot, it_ = arc_masks(6, two)
    assert find_isomorphism(6, oa, ia, ot, it_) is None


def test_find_isomorphism_respects_colors():
    arcs = [(0, 1)]
    o, i = arc_masks(2, arcs)
    assert find_isomorphism(2, o, i, o, i, [0, 1], [0, 1]) is not None
    assert find_isomorphism(2, o, i, o, i, [0, 1], [1, 0]) is None


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_automorphisms_match_brute_force(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    arcs = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=8,
            unique=True,
        )
    )
    outm, inm = arc_masks(n, arcs)
    gens = automorphism_generators(n, outm, inm)
    assert group_elements(n, gens) == brute_automorphisms(n, arcs)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_relabelled_digraph_is_found_isomorphic(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    arcs = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=10,
            unique=True,
        )
    )
    images = data.draw(st.permutations(range(n)))
    sigma = Perm(tuple(images))
    relabelled = [(sigma(i), sigma(j)) for i, j in arcs]
    o1, i1 = arc_masks(n, arcs)
    o2, i2 = arc_masks(n, relabelled)
    w = find_isomorphism(n, o1, i1, o2, i2)
    assert w is not None
    assert {(w(i), w(j)) for i, j in arcs} == set(relabelled)

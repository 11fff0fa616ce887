"""Colored-digraph automorphism and isomorphism search against brute force."""

import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refine_oracle
import search_oracle
from graph_oracle import closure_elements
from trigon import autosearch, permgrp
from trigon.autosearch import (
    Automorphisms,
    _neighbor_lists,
    _Partition,
    automorphism_generators,
    find_isomorphism,
    refine,
)
from trigon.census import aut_full
from trigon.oppmodel import opp_datum
from trigon.pairset import from_F
from trigon.permgrp import Perm, bsgs_build
from trigon.singer import quad_datum, singer_datum


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


def out_lists(n, arcs):
    """Sorted out-neighbor lists of the digraph on 0..n-1 with these arcs,
    each arc once however often it is listed."""
    outs = [[] for _ in range(n)]
    for i, j in sorted(set(arcs)):
        outs[i].append(j)
    return outs


def edge_adjacency(n, edges):
    """Symmetric adjacency lists of a simple graph: the out-lists of the
    arcs in both directions."""
    return out_lists(n, edges + [(j, i) for i, j in edges])


PETERSEN = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
]


def stable_cells(adj, colors, ref=None):
    """The cells of refine's stable partition, in order, and its trace (None
    when it aborts against ref)."""
    part = _Partition.from_colors(colors)
    trace = refine(_neighbor_lists(adj), part, part.starts(), ref)
    return [part.verts[s:part.end[s]] for s in part.starts()], trace


def test_refine_splits_by_degree():
    # path 0-1-2: endpoints split from the middle vertex
    adj = edge_adjacency(3, [(0, 1), (1, 2)])
    cells, trace = stable_cells(adj, [0, 0, 0])
    assert [sorted(c) for c in cells] == [[0, 2], [1]]
    assert trace == [(0, 0, ((1, 2), (2, 1)))]


def test_refine_stops_when_discrete():
    # the directed path 0->1->2 is discrete after its first splitter: the
    # key out + 4 * in is 1 at the source, 4 at the sink, 5 in the middle
    cells, trace = stable_cells(out_lists(3, [(0, 1), (1, 2)]), [0, 0, 0])
    assert cells == [[0], [2], [1]]
    assert trace == [(0, 0, ((1, 1), (4, 1), (5, 1)))]


def test_path_automorphisms():
    adj = edge_adjacency(3, [(0, 1), (1, 2)])
    gens = automorphism_generators(adj).generators
    assert group_elements(3, gens) == [(0, 1, 2), (2, 1, 0)]


def test_square_automorphisms():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    adj = edge_adjacency(4, edges)
    gens = automorphism_generators(adj).generators
    assert bsgs_build(4, gens).order() == 8
    assert group_elements(4, gens) == brute_automorphisms(
        4, edges + [(j, i) for i, j in edges]
    )


def test_directed_cycle_automorphisms():
    arcs = [(i, (i + 1) % 5) for i in range(5)]
    gens = automorphism_generators(out_lists(5, arcs)).generators
    assert bsgs_build(5, gens).order() == 5
    assert group_elements(5, gens) == brute_automorphisms(5, arcs)


def test_petersen_automorphism_order():
    adj = edge_adjacency(10, PETERSEN)
    gens = automorphism_generators(adj).generators
    assert bsgs_build(10, gens).order() == 120


def test_colors_restrict_automorphisms():
    arcs = [(i, (i + 1) % 6) for i in range(6)]
    adj = out_lists(6, arcs)
    free = automorphism_generators(adj).generators
    assert bsgs_build(6, free).order() == 6
    pinned = automorphism_generators(adj, colors=[1, 0, 0, 0, 0, 0])
    assert pinned == Automorphisms((), 1)


def test_determinism():
    adj = edge_adjacency(10, PETERSEN)
    a = automorphism_generators(adj)
    b = automorphism_generators(adj)
    assert images_of(a.generators) == images_of(b.generators)


def test_loops_matter():
    arcs = [(0, 0), (0, 1), (1, 0)]
    assert automorphism_generators(out_lists(2, arcs)) == Automorphisms((), 1)


def test_find_isomorphism_cycles():
    a = [(i, (i + 1) % 6) for i in range(6)]
    b = [((i + 2) % 6, (i + 3) % 6) for i in range(6)]
    w = find_isomorphism(out_lists(6, a), out_lists(6, b))
    assert w is not None
    assert {(w(i), w(j)) for i, j in a} == set(b)
    # two triangles are not a hexagon
    two = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    assert find_isomorphism(out_lists(6, a), out_lists(6, two)) is None
    # a hexagon plus an isolated vertex is not a hexagon either
    assert find_isomorphism(out_lists(6, a), out_lists(7, a)) is None


def test_tuple_rows_are_searched_as_lists():
    """The leaf check compares a sorted image list with a target's out-list,
    and a list never equals a tuple: rows given as tuples must find what
    the same rows as lists find."""
    a = [(i, (i + 1) % 6) for i in range(6)]
    b = [((i + 2) % 6, (i + 3) % 6) for i in range(6)]
    la, lb = out_lists(6, a), out_lists(6, b)
    ta, tb = tuple(map(tuple, la)), tuple(map(tuple, lb))
    assert automorphism_generators(ta) == automorphism_generators(la)
    assert automorphism_generators(la).generators
    assert find_isomorphism(ta, tb) == find_isomorphism(la, lb) is not None


def test_find_isomorphism_respects_colors():
    arcs = [(0, 1)]
    adj = out_lists(2, arcs)
    assert find_isomorphism(adj, adj, [0, 1], [0, 1]) is not None
    assert find_isomorphism(adj, adj, [0, 1], [1, 0]) is None


def test_an_extra_arc_is_not_isomorphic_under_discrete_colors():
    """Distinct colors leave refinement nothing to compare, so the leaf check
    alone decides; the identity carries every arc of the smaller digraph
    into the larger one, and only the arc count tells them apart."""
    arcs = [(0, 1), (1, 2), (2, 0)]
    small, large = out_lists(3, arcs), out_lists(3, arcs + [(0, 2)])
    colors = [0, 1, 2]
    assert find_isomorphism(small, large, colors, colors) is None
    assert find_isomorphism(large, small, colors, colors) is None
    assert find_isomorphism(small, small, colors, colors).images == (0, 1, 2)


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
    found = automorphism_generators(out_lists(n, arcs))
    brute = brute_automorphisms(n, arcs)
    assert group_elements(n, found.generators) == brute
    assert found.order == len(brute) == bsgs_build(n, found.generators).order()


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
    w = find_isomorphism(out_lists(n, arcs), out_lists(n, relabelled))
    assert w is not None
    assert {(w(i), w(j)) for i, j in arcs} == set(relabelled)


def brute_isomorphic(n, arcs1, arcs2, colors1, colors2):
    target = set(arcs2)
    return any(
        all(colors1[v] == colors2[p[v]] for v in range(n))
        and {(p[i], p[j]) for i, j in arcs1} == target
        for p in itertools.permutations(range(n))
    )


def arc_lists(n):
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=n - 1),
            st.integers(min_value=0, max_value=n - 1),
        ),
        max_size=10,
        unique=True,
    )


def two_colorings(n):
    return st.lists(st.integers(0, 1), min_size=n, max_size=n)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_find_isomorphism_matches_brute_force(data):
    """Loops, two colors and unrelated pairs as well as relabellings."""
    n = data.draw(st.integers(min_value=1, max_value=5))
    arcs1 = data.draw(arc_lists(n))
    colors1 = data.draw(two_colorings(n))
    if data.draw(st.booleans()):
        sigma = data.draw(st.permutations(range(n)))
        arcs2 = [(sigma[i], sigma[j]) for i, j in arcs1]
        colors2 = [0] * n
        for v in range(n):
            colors2[sigma[v]] = colors1[v]
    else:
        arcs2 = data.draw(arc_lists(n))
        colors2 = data.draw(two_colorings(n))
    adj1, adj2 = out_lists(n, arcs1), out_lists(n, arcs2)
    w = find_isomorphism(adj1, adj2, colors1, colors2)
    assert (w is not None) == brute_isomorphic(n, arcs1, arcs2, colors1,
                                               colors2)
    if w is not None:
        assert {(w(i), w(j)) for i, j in arcs1} == set(arcs2)
        assert all(colors1[v] == colors2[w(v)] for v in range(n))


def refine_both_ways(adj, colors):
    """The stable coloring from out- and in-signatures read off the
    out-lists, the reference for refine's symmetric path."""
    n = len(adj)
    ins = [[v for v in range(n) if w in adj[v]] for w in range(n)]

    def seen(ws, colors):
        return tuple(sorted(colors[u] for u in ws))

    k = len(set(colors))
    while True:
        sigs = [(colors[v], seen(adj[v], colors), seen(ins[v], colors))
                for v in range(n)]
        ranked = sorted(set(sigs))
        colors = [ranked.index(s) for s in sigs]
        if len(ranked) == k:
            return colors
        k = len(ranked)


def classes(colors):
    """The color classes of a coloring, as a set of vertex sets."""
    out = {}
    for v, c in enumerate(colors):
        out.setdefault(c, set()).add(v)
    return {frozenset(c) for c in out.values()}


def colored_digraphs(data, symmetric, max_n=8):
    n = data.draw(st.integers(min_value=1, max_value=max_n))
    arcs = data.draw(arc_lists(n))
    if symmetric:
        arcs += [(j, i) for i, j in arcs]
    colors = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return n, arcs, colors


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_symmetric_refinement_matches_both_way_signatures(data):
    n, arcs, colors = colored_digraphs(data, symmetric=True)
    adj = out_lists(n, arcs)
    assert len(_neighbor_lists(adj)) == 1  # the search takes the symmetric path
    cells, _ = stable_cells(adj, colors)
    assert {frozenset(c) for c in cells} == classes(refine_both_ways(adj, colors))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_directed_refinement_matches_both_way_signatures(data):
    n, arcs, colors = colored_digraphs(data, symmetric=False)
    adj = out_lists(n, arcs)
    cells, _ = stable_cells(adj, colors)
    assert {frozenset(c) for c in cells} == classes(refine_both_ways(adj, colors))


def relabelled(data, n, arcs, colors):
    sigma = data.draw(st.permutations(range(n)))
    colors2 = [0] * n
    for v in range(n):
        colors2[sigma[v]] = colors[v]
    return sigma, [(sigma[i], sigma[j]) for i, j in arcs], colors2


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_refinement_is_invariant_under_relabelling(data):
    n, arcs, colors = colored_digraphs(data, symmetric=data.draw(st.booleans()))
    sigma, arcs2, colors2 = relabelled(data, n, arcs, colors)
    cells1, trace1 = stable_cells(out_lists(n, arcs), colors)
    cells2, trace2 = stable_cells(out_lists(n, arcs2), colors2)
    assert trace1 == trace2
    assert [{sigma[v] for v in c} for c in cells1] == [set(c) for c in cells2]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_early_abort_matches_the_full_trace(data):
    """Given a reference trace, refine aborts exactly when its own full trace
    differs from it, and otherwise ends at the full run's partition."""
    n, arcs1, colors1 = colored_digraphs(data, symmetric=data.draw(st.booleans()))
    if data.draw(st.booleans()):
        _, arcs2, colors2 = relabelled(data, n, arcs1, colors1)
        if arcs2 and data.draw(st.booleans()):
            arcs2 = arcs2[1:]
    else:
        arcs2 = data.draw(arc_lists(n))
        colors2 = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    adj2 = out_lists(n, arcs2)
    _, ref = stable_cells(out_lists(n, arcs1), colors1)
    cells, full = stable_cells(adj2, colors2)
    cut, aborted = stable_cells(adj2, colors2, ref)
    assert (aborted is None) == (full != ref)
    if aborted is not None:
        assert aborted == full
        assert cut == cells


def test_asymmetric_digraph_keeps_in_lists():
    assert _neighbor_lists(out_lists(2, [(0, 1)])) == ([[1], []], [[], [0]])


def test_repeated_arc_is_refused():
    with pytest.raises(ValueError, match="vertex 1"):
        _neighbor_lists([[1], [0, 0]])
    with pytest.raises(ValueError, match="vertex 0"):
        _neighbor_lists([[2, 1], [0], [0]])


def refine_against_oracle(nbrs, part, queue, ref=None):
    """refine on a copy of part, checked against the oracle's run on another
    copy: the same trace (or None) and the same partition arrays, also where
    both abort.  Returns the trace and refine's partition."""
    got, want = part.copy(), part.copy()
    trace = refine(nbrs, got, queue, ref)
    assert trace == refine_oracle.refine(nbrs, want, queue, ref)
    for name in ("verts", "pos", "cell", "end", "cells"):
        assert getattr(got, name) == getattr(want, name), name
    return trace, got


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_refine_matches_the_counting_oracle(data):
    """Random individualizations down one path of a random colored digraph;
    at each step a second vertex of the same cell is refined against the
    first one's trace, so that runs with a reference both abort and end."""
    n = data.draw(st.integers(min_value=1, max_value=12))
    vertex = st.integers(min_value=0, max_value=n - 1)
    arcs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    if data.draw(st.booleans()):
        arcs += [(j, i) for i, j in arcs]
    colors = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    nbrs = _neighbor_lists(out_lists(n, arcs))
    part = _Partition.from_colors(colors)
    _, part = refine_against_oracle(nbrs, part, part.starts())
    for _ in range(data.draw(st.integers(min_value=0, max_value=4))):
        starts = [s for s in part.starts() if part.end[s] > s + 1]
        if not starts:
            break
        s = data.draw(st.sampled_from(starts))
        cell = part.verts[s:part.end[s]]
        first, second = part.copy(), part.copy()
        sp = first.individualize(data.draw(st.sampled_from(cell)))
        second.individualize(data.draw(st.sampled_from(cell)))
        ref, first = refine_against_oracle(nbrs, first, [sp])
        refine_against_oracle(nbrs, second, [sp], ref)
        part = first


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_probe_search_matches_the_counting_oracle(q, monkeypatch):
    """The base-vertex stabilizer of the probe's link graph, searched with
    refine and with the oracle in its place, has the same generators."""
    adj = from_F(singer_datum(q).F()).adj
    colors = [1] + [0] * (len(adj) - 1)
    gens = automorphism_generators(adj, colors)
    monkeypatch.setattr(autosearch, "refine", refine_oracle.refine)
    assert automorphism_generators(adj, colors) == gens


def images_of(perms):
    return [p.images for p in perms]


def witness_images(w):
    return None if w is None else w.images


def circulant(n, jumps):
    """The arcs i -> i + j mod n for each jump j, a digraph that Z/n acts on
    transitively, so that the search goes deep and prunes by orbits."""
    return [(i, (i + j) % n) for i in range(n) for j in jumps]


def searched_digraphs(data):
    """A random colored digraph, or a circulant one with its colors constant
    on the cosets of a subgroup; symmetric or directed."""
    symmetric = data.draw(st.booleans())
    if data.draw(st.booleans()):
        n, arcs, colors = colored_digraphs(data, symmetric, max_n=10)
    else:
        n = data.draw(st.integers(min_value=1, max_value=16))
        jumps = data.draw(st.lists(st.integers(0, n - 1), max_size=3))
        arcs = circulant(n, jumps)
        if symmetric:
            arcs += [(j, i) for i, j in arcs]
        m = data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
        colors = [i % m for i in range(n)]
    return n, arcs, colors


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_search_matches_the_two_backtrack_oracle(data):
    """The leftmost path and first-match descent give the generators of the
    two-backtrack search they replaced, with the order of their chain, and
    the same witness, or None for both, on a relabelled pair and on one
    perturbed by an arc or a color."""
    n, arcs, colors = searched_digraphs(data)
    adj = out_lists(n, arcs)
    found = automorphism_generators(adj, colors)
    assert images_of(found.generators) == images_of(
        search_oracle.automorphism_generators(adj, colors))
    assert found.order == bsgs_build(n, found.generators).order()
    _, arcs2, colors2 = relabelled(data, n, arcs, colors)
    if arcs2 and data.draw(st.booleans()):
        arcs2 = arcs2[1:]
    if data.draw(st.booleans()):
        colors2[data.draw(st.integers(0, n - 1))] += 1
    adj2 = out_lists(n, arcs2)
    assert witness_images(find_isomorphism(adj, adj2, colors, colors2)) == (
        witness_images(search_oracle.find_isomorphism(adj, adj2, colors, colors2)))


def counting_refine(calls):
    def counted(*args):
        calls.append(None)
        return refine(*args)

    return counted


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_probe_search_matches_the_two_backtrack_oracle(q, monkeypatch):
    """The same generators from as many refinements: the orbit pruning
    skips the vertices it did.  The order read off the path is that of the
    generators' chain."""
    adj = from_F(singer_datum(q).F()).adj
    colors = [1] + [0] * (len(adj) - 1)
    got, want = [], []
    monkeypatch.setattr(autosearch, "refine", counting_refine(got))
    monkeypatch.setattr(search_oracle, "refine", counting_refine(want))
    found = automorphism_generators(adj, colors)
    assert images_of(found.generators) == images_of(
        search_oracle.automorphism_generators(adj, colors))
    assert len(got) == len(want)
    assert found.order == bsgs_build(len(adj), found.generators).order()


def test_probe_search_holds_no_second_copy_of_the_graph():
    """The search checks a leaf against the out-lists it is given.  On the
    q = 32 probe's link graph (2,114 vertices) it peaks at about 2.4 times
    the graph's own traced size above it, the partitions along its paths;
    a set per vertex beside the out-lists reads about 7.9."""
    f = singer_datum(32).F()
    tracemalloc.start()
    try:
        adj = from_F(f).adj
        graph = tracemalloc.get_traced_memory()[0]
        colors = [1] + [0] * (len(adj) - 1)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        automorphism_generators(adj, colors)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 3 * graph


# the pair sets of the benchmark's census documents
CENSUS_F = {
    "singer q=5": lambda: singer_datum(5).F(),
    "singer q=7": lambda: singer_datum(7).F(),
    "opp q=7": lambda: opp_datum(7).F(),
    "quad q=2": lambda: quad_datum(2).F(),
}


@pytest.mark.parametrize("name", sorted(CENSUS_F))
def test_aut_full_matches_the_two_backtrack_oracle(name, monkeypatch):
    """aut_full's Aut+(F) generators and its rho-swapping witness.  Both
    searches are looked up in autosearch when aut_full runs, so the oracle's
    must be the ones called the second time; the oracle's generators get
    the order of their chain."""
    f = CENSUS_F[name]()
    got = aut_full(f)

    def oracle_search(adj, limit):
        calls.append("automorphism_generators")
        gens = search_oracle.automorphism_generators(adj)
        return Automorphisms(gens, bsgs_build(len(adj), gens).order())

    def oracle_isomorphism(*args):
        calls.append("find_isomorphism")
        return search_oracle.find_isomorphism(*args)

    calls = []
    monkeypatch.setattr(autosearch, "automorphism_generators", oracle_search)
    monkeypatch.setattr(autosearch, "find_isomorphism", oracle_isomorphism)
    want = aut_full(f)
    assert sorted(calls) == ["automorphism_generators", "find_isomorphism"]
    assert images_of(got.generators) == images_of(want.generators)
    assert got.order == want.order
    assert got.witness is not None
    assert got.witness.images == want.witness.images


@pytest.mark.parametrize("name", sorted(CENSUS_F))
def test_aut_full_builds_no_stabilizer_chain(name, monkeypatch):
    """|Aut(F)| comes from the search's path, not from Schreier-Sims: with
    bsgs_build raising, aut_full still gives the order of the chain that
    its generators build."""
    f = CENSUS_F[name]()

    def no_chain(*args, **kwargs):
        raise AssertionError("aut_full built a stabilizer chain")

    monkeypatch.setattr(permgrp, "bsgs_build", no_chain)
    full = aut_full(f)
    monkeypatch.undo()
    assert full.witness is not None
    assert full.order == 2 * bsgs_build(f.n, full.generators).order()

"""Link graphs, their invariants, and F-equivalence searches."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graph_oracle import aut_plus, graph_automorphisms, is_generalized_mgon, spectral_gap
from label_oracle import fset_of, pairs_of
from trigon.autosearch import _neighbor_lists, find_isomorphism
from trigon.census import aut_full
from trigon.errors import CheckFailed
from trigon.linkgraph import (
    Disconnected,
    _largest_root,
    _minimal_polynomial,
    export_edge_list,
    f_wreath_equivalent,
    metrics,
    point_transitive_gap,
    spectrum,
)
from trigon.oppmodel import a2_graph, opp_datum
from trigon.pairset import FSet, LinkGraph, apply_rho, from_F
from trigon.permgrp import Perm
from trigon.singer import singer_datum


def singer_f_q2():
    """Pairs (x, x+s) mod 7 with s in {1,2,4}; the Heawood graph."""
    return FSet.from_labels(
        range(7), [(x, (x + s) % 7) for x in range(7) for s in (1, 2, 4)]
    )


def square_f():
    return FSet.from_labels((1, 2), [(1, 1), (1, 2), (2, 1), (2, 2)])


def cycle8_f():
    return FSet.from_labels(
        range(4),
        [(x, x) for x in range(4)] + [(x, (x + 1) % 4) for x in range(4)],
    )


def a2_subspace_model(p):
    """Incidence pairs of the projective plane over GF(p) from functionals."""
    norm = []
    for v in itertools.product(range(p), repeat=3):
        if any(v) and next(c for c in v if c) == 1:
            norm.append(v)
    pairs = [
        (i + 1, j + 1)
        for i, v in enumerate(norm)
        for j, f in enumerate(norm)
        if sum(a * b for a, b in zip(v, f)) % p == 0
    ]
    return FSet.from_labels(range(1, len(norm) + 1), pairs)


def _bfs_dist(adj, src):
    dist = {src: 0}
    queue = [src]
    for v in queue:
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def _girth(adj):
    # min over all roots of the shortest cycle seen from a BFS; exact on
    # simple graphs
    best = math.inf
    for r in range(len(adj)):
        dist = {r: 0}
        parent = {r: -1}
        queue = [r]
        for v in queue:
            if dist[v] * 2 >= best:
                break
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    queue.append(w)
                elif w != parent[v]:
                    best = min(best, dist[v] + dist[w] + 1)
    return best


def oracle_metrics(g):
    """(connected, girth, diameter) from one dict BFS per root plus a
    separate girth pass; the reference for metrics."""
    diam = 0
    for v in range(len(g.adj)):
        dist = _bfs_dist(g.adj, v)
        if len(dist) < len(g.adj):
            return False, _girth(g.adj), math.inf
        diam = max(diam, max(dist.values()))
    return True, _girth(g.adj), diam


def graph_of_edges(n_vertices, edges):
    """A LinkGraph on an even vertex count from an arbitrary simple edge
    list; the bipartition is ignored, so odd cycles are allowed."""
    adj = [[] for _ in range(n_vertices)]
    for v, w in edges:
        adj[v].append(w)
        adj[w].append(v)
    return LinkGraph(tuple(sorted(ws) for ws in adj))


def check_against_oracle(g):
    met = metrics(g)
    assert (met.connected, met.girth, met.diameter) == oracle_metrics(g)
    return met


def diagonal(F, sigma):
    """sigma F = {(sigma i, sigma j)}, on positions."""
    return fset_of(F.labels, {(sigma(i), sigma(j)) for i, j in pairs_of(F)})


def wreath(F, alpha, beta, swapped):
    """{(alpha i, beta j)} over (i,j) in F, or (j,i) when swapped."""
    pairs = pairs_of(F)
    if swapped:
        pairs = {(j, i) for i, j in pairs}
    return fset_of(F.labels, {(alpha(i), beta(j)) for i, j in pairs})


def isomorphism(F1, F2):
    """A sigma with sigma F1 = F2, searched on the two pair digraphs."""
    return find_isomorphism(F1.out, F2.out)


def test_fset_validation():
    with pytest.raises(ValueError, match="duplicate labels"):
        FSet.from_labels((1, 1, 2), [])
    with pytest.raises(ValueError, match="unknown labels"):
        FSet.from_labels((1, 2), [(1, 3)])
    f = square_f()
    assert f.n == 2
    assert f.out == ([0, 1], [0, 1])
    shuffled = FSet.from_labels((9, 3, 5), [(5, 9), (3, 3)])
    assert shuffled.out == ([], [1], [0])


def test_square_gives_four_cycle():
    g = from_F(square_f())
    met = metrics(g)
    assert met.connected and met.girth == 4 and met.diameter == 2
    assert met.biregular == (2, 2)
    assert graph_automorphisms(g).order() == 8
    assert not is_generalized_mgon(g, 3)


def test_empty_f():
    f = FSet.from_labels((1, 2, 3), [])
    g = from_F(f)
    met = metrics(g)
    assert not met.connected
    assert met.girth == math.inf and met.diameter == math.inf
    assert aut_plus(f).order() == 6
    with pytest.raises(Disconnected):
        spectral_gap(g)
    with pytest.raises(Disconnected):
        point_transitive_gap(g)


def test_single_edge():
    g = from_F(FSet.from_labels((1,), [(1, 1)]))
    met = metrics(g)
    assert met.connected and met.diameter == 1 and met.girth == math.inf
    assert spectral_gap(g) == pytest.approx(2.0, abs=1e-9)
    assert point_transitive_gap(g) == 2.0


def test_heawood_metrics_and_groups():
    f = singer_f_q2()
    g = from_F(f)
    met = metrics(g)
    assert met.connected and met.girth == 6 and met.diameter == 3
    assert met.degree_profile == ((3, 14),)
    assert is_generalized_mgon(g, 3)
    assert graph_automorphisms(g).order() == 336
    ap = aut_plus(f)
    assert ap.order() == 21
    assert ap.contains(Perm(tuple((i + 1) % 7 for i in range(7))))
    assert ap.contains(Perm(tuple((2 * i) % 7 for i in range(7))))
    assert spectral_gap(g) == pytest.approx(1 - math.sqrt(2) / 3, abs=1e-9)


def test_heawood_rho_part():
    f = singer_f_q2()
    af = aut_full(f)
    assert af.witness is not None
    assert af.order == 42
    assert diagonal(apply_rho(f), af.witness) == f


def test_aut_plus_generators_stabilize():
    f = singer_f_q2()
    for g in aut_plus(f).generators:
        assert diagonal(f, g) == f


def test_cycle8():
    g = from_F(cycle8_f())
    met = metrics(g)
    assert met.connected and met.girth == 8 and met.diameter == 4
    assert met.biregular == (2, 2)
    assert graph_automorphisms(g).order() == 16
    assert spectral_gap(g) == pytest.approx(1 - math.sqrt(2) / 2, abs=1e-9)


def test_laplacian_zero_multiplicity_counts_components():
    f = FSet.from_labels((1, 2), [(1, 1), (2, 2)])
    assert sum(1 for x in spectrum(from_F(f)) if abs(x) < 1e-9) == 2
    with pytest.raises(Disconnected):
        spectral_gap(from_F(f))
    with pytest.raises(Disconnected):
        point_transitive_gap(from_F(f))


def test_a2_f3_is_generalized_3gon():
    f = a2_subspace_model(3)
    assert f.n == 13
    g = from_F(f)
    assert is_generalized_mgon(g, 3)
    met = metrics(g)
    assert met.biregular == (4, 4)


def test_rho_swaps_sides():
    f = singer_f_q2()
    g, gr = from_F(f), from_F(apply_rho(f))
    n = f.n
    for v, w in g.edges():
        assert v + n in gr.adj[w - n]
    assert spectral_gap(g) == pytest.approx(spectral_gap(gr), abs=1e-9)


def test_f_equivalent_self_is_identity():
    f = singer_f_q2()
    w = isomorphism(f, f)
    assert w is not None and w.is_identity()


def test_f_equivalent_after_relabelling():
    f = singer_f_q2()
    sigma = Perm((3, 0, 5, 1, 6, 2, 4))
    for base in (f, apply_rho(f)):
        target = diagonal(base, sigma)
        w = isomorphism(base, target)
        assert w is not None
        assert diagonal(base, w) == target


def test_f_equivalent_distinguishes():
    f = square_f()
    other = FSet.from_labels((1, 2), [(1, 1), (1, 2), (2, 1)])
    assert isomorphism(f, other) is None
    assert isomorphism(apply_rho(f), other) is None
    assert f_wreath_equivalent(f, other) is False


def test_singer_vs_subspace_model_wreath():
    f = singer_f_q2()
    m = a2_subspace_model(2)
    assert f_wreath_equivalent(f, m) is True
    short = fset_of(m.labels, pairs_of(m) - {min(pairs_of(m))})
    assert f_wreath_equivalent(f, short) is False


def test_export_edge_list():
    text = export_edge_list(from_F(square_f()))
    assert text == "1 3\n1 4\n2 3\n2 4\n"
    assert export_edge_list(from_F(FSet.from_labels((1,), []))) == ""


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_wreath_equivalence_of_random_relabellings(data):
    f = cycle8_f()
    alpha = Perm(tuple(data.draw(st.permutations(range(4)))))
    beta = Perm(tuple(data.draw(st.permutations(range(4)))))
    swapped = data.draw(st.booleans())
    target = wreath(f, alpha, beta, swapped)
    assert f_wreath_equivalent(f, target) is True
    short = fset_of(f.labels, pairs_of(target) - {min(pairs_of(target))})
    assert f_wreath_equivalent(f, short) is False


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=7),
    cells=st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6))),
)
def test_neighbor_lists_match_brute_force(n, cells):
    """F.out and from_F hold the sorted neighbor lists, read here off the
    pair set one vertex at a time, and edges() lists the pairs in order."""
    pairs = {(i, j) for i, j in cells if i < n and j < n}
    F = fset_of(range(n), pairs)
    g = from_F(F)
    points = [[j + n for j in range(n) if (i, j) in pairs] for i in range(n)]
    lines = [[i for i in range(n) if (i, j) in pairs] for j in range(n)]
    assert list(g.adj) == points + lines
    assert list(F.out) == [[j for j in range(n) if (i, j) in pairs]
                           for i in range(n)]
    assert g.edges() == sorted((i, j + n) for i, j in pairs)


@pytest.mark.parametrize("make, q", [
    pytest.param(lambda q: from_F(singer_datum(q).F()), 4, id="singer-4"),
    pytest.param(lambda q: from_F(opp_datum(q).F()), 5, id="opp-5"),
    pytest.param(lambda q: a2_graph(q).graph, 3, id="a2-3"),
])
def test_link_graphs_take_the_symmetric_path(make, q):
    """A link graph's lists are symmetric, and the search must see it: an
    in-list that compared unequal only for its type would send the search
    down the directed path."""
    assert len(_neighbor_lists(make(q).adj)) == 1


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=7),
    cells=st.sets(st.tuples(st.integers(1, 7), st.integers(1, 7))),
)
@example(n=4, cells=set())
@example(n=4, cells={(1, 1), (1, 2), (2, 3), (3, 4)})  # a tree
@example(n=4, cells={(1, 1), (2, 2), (3, 3)})  # a disconnected forest
@example(n=4, cells={(1, 1), (1, 2), (2, 1), (2, 2), (3, 3), (3, 4), (4, 3)})
def test_metrics_match_oracle_on_random_pair_sets(n, cells):
    pairs = {(a, b) for a, b in cells if a <= n and b <= n}
    check_against_oracle(from_F(FSet.from_labels(range(1, n + 1), pairs)))


@pytest.mark.parametrize(
    "n_vertices,edges,girth,diameter",
    [
        (4, [(0, 1), (1, 2), (2, 0), (2, 3)], 3, 2),  # triangle with a tail
        (6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], 3, math.inf),
        (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (4, 5)], 5, 3),
        (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 3, 1),
    ],
    ids=["triangle-pendant", "two-triangles", "pentagon-pendant", "k4"],
)
def test_metrics_match_oracle_on_odd_cycles(n_vertices, edges, girth, diameter):
    met = check_against_oracle(graph_of_edges(n_vertices, edges))
    assert met.girth == girth and met.diameter == diameter


@pytest.mark.parametrize("q", [2, 3, 4])
def test_metrics_match_oracle_on_planes(q):
    met = check_against_oracle(a2_graph(q).graph)
    assert (met.connected, met.girth, met.diameter) == (True, 6, 3)


def opp_graph(q):
    return from_F(opp_datum(q).F())


def singer_graph(q):
    return from_F(singer_datum(q).F())


# link graphs with a group transitive on the points: the opposition graphs
# and the Singer planes are Cayley-like (point g, line g*s), the square is
# K_{2,2}, the 8-cycle is dihedral and the plane over GF(3) has PGL(3, 3)
TRANSITIVE_GRAPHS = (
    [pytest.param(opp_graph, q, id=f"opp-{q}") for q in (2, 3, 4, 5, 7, 8, 9, 13, 16)]
    + [pytest.param(singer_graph, q, id=f"singer-{q}") for q in (2, 3, 4, 5, 7, 8)]
    + [pytest.param(lambda _: from_F(square_f()), None, id="square"),
       pytest.param(lambda _: from_F(cycle8_f()), None, id="cycle8"),
       pytest.param(lambda p: from_F(a2_subspace_model(p)), 3, id="plane-3")]
)


@pytest.mark.parametrize("make, q", TRANSITIVE_GRAPHS)
def test_exact_gap_matches_numpy(make, q):
    g = make(q)
    assert point_transitive_gap(g) == pytest.approx(spectral_gap(g), abs=1e-9)


@pytest.mark.parametrize("make, q", TRANSITIVE_GRAPHS)
def test_two_roots_match_every_root_on_transitive_graphs(make, q):
    g = make(q)
    met = metrics(g, (0, g.n))
    assert met == metrics(g)
    assert (met.connected, met.girth, met.diameter) == oracle_metrics(g)


def test_exact_gap_of_known_spectra():
    # Singer planes: B B^T = qI + J, so mu_2 = q; K_{2,2}: B B^T = 2J, mu_2 = 0
    assert point_transitive_gap(singer_graph(4)) == 1 - math.sqrt(4 / 25)
    assert point_transitive_gap(from_F(square_f())) == 1.0


def test_largest_root_is_exact_at_an_integer():
    # x (x - 2) (x - 3): Newton's method from 14 stops at 2.9999999999999996
    root = _largest_root([Fraction(c) for c in (0, 6, -5, 1)], 14)
    assert type(root) is int and root == 3
    # x^2 - 2 has no integer root, so Newton's float stands
    assert _largest_root([Fraction(-2), 0, Fraction(1)], 4) == pytest.approx(
        math.sqrt(2), abs=1e-15)


def test_minimal_polynomial_is_monic_in_integers():
    # M = [[2, 1], [1, 2]] has eigenvalues 1 and 3: (x - 1)(x - 3) kills e_0
    poly, last = _minimal_polynomial(lambda u: [2 * u[0] + u[1], u[0] + 2 * u[1]],
                                     [1, 0])
    assert poly == [3, -4, 1] and {type(c) for c in poly} == {int}
    assert last == [5, 4]
    # a step that is not linear can give a dependency 2 x - 3 with no monic
    # integer multiple; that raises, as python -O would strip an assert
    with pytest.raises(CheckFailed, match="not a multiple"):
        _minimal_polynomial(lambda u: [3 * u[0] // 2], [2])


@pytest.mark.parametrize(
    "graph",
    [
        from_F(FSet.from_labels(range(3), [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)])),
        graph_of_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    ],
    ids=["path", "point-to-point"],
)
def test_exact_gap_refuses_what_it_cannot_read(graph):
    """A path has points of degree 2 and 1; a point joined to a point is
    not bipartite.  Both raise ValueError, not a numeric answer."""
    with pytest.raises(ValueError, match="biregular bipartite"):
        point_transitive_gap(graph)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_exact_gap_reads_connectivity_like_the_bfs(data):
    """On random d-regular bipartite graphs, unions of circulants
    {(i, i + c)} with degree-preserving edge switches and both sides
    relabeled, the exact gap raises Disconnected exactly when one BFS from
    point 0 misses a vertex.  A single circulant with no switch is
    point-transitive, so there the gap must match numpy's too."""
    d = data.draw(st.integers(1, 3))
    sizes = data.draw(st.lists(st.integers(d, 7), min_size=1, max_size=3))
    pairs, n = set(), 0
    for size in sizes:
        offsets = data.draw(
            st.sets(st.integers(0, size - 1), min_size=d, max_size=d))
        pairs |= {(n + i, n + (i + c) % size) for i in range(size) for c in offsets}
        n += size
    edge = st.integers(0, n * d - 1)
    switched = False
    for e, f in data.draw(st.lists(st.tuples(edge, edge), max_size=4)):
        (a, x), (b, y) = sorted(pairs)[e], sorted(pairs)[f]
        if (a, y) not in pairs and (b, x) not in pairs:
            pairs = pairs - {(a, x), (b, y)} | {(a, y), (b, x)}
            switched = True
    points = data.draw(st.permutations(range(n)))
    lines = data.draw(st.permutations(range(n)))
    g = from_F(fset_of(range(n), {(points[i], lines[j]) for i, j in pairs}))
    if not metrics(g, (0,)).connected:
        with pytest.raises(Disconnected):
            point_transitive_gap(g)
    elif len(sizes) == 1 and not switched:
        assert point_transitive_gap(g) == pytest.approx(spectral_gap(g), abs=1e-9)
    else:
        point_transitive_gap(g)

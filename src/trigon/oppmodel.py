"""Opposition subcomplex of the order-q plane: subspace model, coset model,
property checklist, and the twisted parabola presentations."""

from __future__ import annotations

import math
from itertools import product

from .errors import CheckFailed, TooLarge
from .ffield import factor_prime_power, field_tables
from .fgroup import Datum, make_opp_group, subgroup
from .pairset import FSet, LinkGraph, from_F
from .record import Record

# the most link-graph edges, q^3, that opp_datum accepts, so every q <= 81.
# The pair set and the neighbor lists grow as q^3, the bitmasks of the
# metrics BFS as q^4 bits: opp --check took 0.4-0.5 s and 39 MB at q = 64
# and 0.6-1.0 s and 64 MB at q = 81 (peak RSS of a fresh process, 2-core
# Xeon, Python 3.11).
_EDGE_LIMIT = 81 ** 3


class A2Model(Record, eq=False):
    """Subspace model of the plane: points are lead-1 vectors of field
    element indices, lines are lead-1 dual vectors, which are the same
    tuples, so points lists both; incidence is a vanishing dot product."""

    graph: LinkGraph
    points: tuple


def a2_graph(q):
    """Incidence graph of the proper subspaces of GF(q)^3."""
    add, mul, _ = field_tables(q)
    # one lead-1 representative per projective point, in index order
    pts = tuple(v for v in product(range(q), repeat=3) if next(filter(None, v), 0) == 1)
    n = len(pts)
    if n != q * q + q + 1:
        raise CheckFailed(f"{n} points, not q^2+q+1 = {q * q + q + 1}")
    out = tuple(
        [j for j, ln in enumerate(pts)
         if add[add[mul[pt[0]][ln[0]]][mul[pt[1]][ln[1]]]][mul[pt[2]][ln[2]]] == 0]
        for pt in pts
    )
    graph = from_F(FSet(tuple(range(n)), out))
    return A2Model(graph=graph, points=pts)


def _building_fset(q):
    # induced incidences on points off the base line and lines off the base
    # point, for the incident base pair ((1,0,0), (0,0,1))
    model = a2_graph(q)
    n, adj = len(model.points), model.graph.adj
    v1 = model.points.index((1, 0, 0))
    v2 = model.points.index((0, 0, 1))
    keep_p = [i for i in range(n) if n + v2 not in adj[i]]
    keep_l = [j for j in range(n) if n + j not in adj[v1]]
    if len(keep_p) != q * q or len(keep_l) != q * q:
        raise CheckFailed(
            f"kept {len(keep_p)} points and {len(keep_l)} lines, not q^2 = {q * q}"
        )
    pos_l = {n + v: k for k, v in enumerate(keep_l)}
    # adj[i] is sorted and pos_l increasing, so each list comes out sorted
    out = tuple([pos_l[w] for w in adj[i] if w in pos_l] for i in keep_p)
    return FSet(tuple(range(q * q)), out)


def _parabola_index(y, q, mul):
    return y * q + mul[y][y]


def opp_datum(q):
    """The Heisenberg-section group G of order q^2 with the parabola S, which
    generates it, so H = G; for q = 1 mod 3 the folding is multiplication
    of y by a cube root of unity.  The pair graph is the opposition
    subgraph."""
    factor_prime_power(q)
    if q ** 3 > _EDGE_LIMIT:
        raise TooLarge(
            f"q = {q} would build a link graph of q^3 = {q ** 3} edges; "
            f"the limit is {_EDGE_LIMIT}"
        )
    _, mul, g = field_tables(q)
    G = make_opp_group(q)
    S = tuple(sorted(_parabola_index(y, q, mul) for y in range(q)))
    if len(S) != q:
        raise CheckFailed(f"parabola has {len(S)} points, not q = {q}")
    H = subgroup(G, S)
    if H.order != q * q:
        raise CheckFailed("parabola must generate the group")
    lam = None
    if q % 3 == 1:
        alpha = 1
        for _ in range((q - 1) // 3):
            alpha = mul[alpha][g]
        lam = {_parabola_index(y, q, mul): _parabola_index(mul[alpha][y], q, mul)
               for y in range(q)}
    datum = Datum(q=q, G=G, S=S, H=H, lam=lam)
    if q <= 5:
        from .linkgraph import f_wreath_equivalent

        if not f_wreath_equivalent(datum.F(), _building_fset(q)):
            raise CheckFailed("coset model disagrees with the subspace model")
    return datum


class PropertyReport(Record, eq=True):
    """Checklist of the opposition graph facts, one row per claim."""

    q: int
    rows: tuple
    gap: float
    zuk: bool

    @property
    def ok(self):
        return all(row[3] for row in self.rows)


def opp_properties(q):
    """Compute the opposition-graph checklist on the coset model."""
    from .linkgraph import metrics, point_transitive_gap

    d = opp_datum(q)
    g = from_F(d.F())
    # point g is joined to line g*s for s in S, so left multiplication by G
    # is transitive on the points and on the lines: point 0 and line n
    # stand for every vertex
    met = metrics(g, (0, g.n))
    # lambda_2 of a disconnected graph is 0, so both rows fail instead of
    # point_transitive_gap raising Disconnected
    gap = point_transitive_gap(g) if met.connected else 0.0
    want_gap = 1 - math.sqrt(q) / q
    size = (2 * g.n, sum(map(len, g.adj[:g.n])))
    girth_want = 8 if q == 2 else 6
    rows = (
        ("2q^2 vertices, q^3 edges", (2 * q * q, q ** 3),
         size, size == (2 * q * q, q ** 3)),
        ("regular of degree q", (q, q), met.biregular, met.biregular == (q, q)),
        ("bipartite", True, g.bipartite, g.bipartite),
        ("connected", True, met.connected, met.connected is True),
        ("girth", girth_want, met.girth, met.girth == girth_want),
        ("diameter", 4, met.diameter, met.diameter == 4),
        ("spectral gap 1-sqrt(q)/q", want_gap, gap, abs(gap - want_gap) <= 1e-6),
    )
    return PropertyReport(q=q, rows=rows, gap=gap, zuk=gap > 0.5)

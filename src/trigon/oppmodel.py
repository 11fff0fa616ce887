"""Opposition subcomplex of the order-q plane: subspace model, coset model,
property checklist, and the twisted parabola presentations."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .ffield import factor_prime_power, make_field
from .fgroup import Datum, make_opp_group, subgroup
from .linkgraph import (
    FSet,
    LinkGraph,
    f_wreath_equivalent,
    from_F,
    metrics,
    point_transitive_gap,
)
from .tripres import CheckFailed, TooLarge

# the most link-graph edges, q^3, that opp_datum accepts, so every q <= 81.
# The pair set and the neighbor lists grow as q^3, the bitmasks of the
# metrics BFS as q^4 bits: opp --check took 0.7 s and 66 MB at q = 64 and
# 1.7 s and 120 MB at q = 81 (2-core Xeon, Python 3.11).
_EDGE_LIMIT = 81 ** 3


@dataclass(frozen=True, eq=False)
class A2Model:
    """Subspace model of the plane: points are lead-1 vectors, lines are
    lead-1 dual vectors, which are the same tuples, so points lists both;
    incidence is a vanishing dot product."""

    q: int
    graph: LinkGraph
    points: tuple


def _lead_one_vectors(gf):
    # one representative per projective point, in element enumeration order
    zero, one = gf.zero(), gf.one()
    out = []
    for vec in product(gf.elements(), repeat=3):
        lead = next((c for c in vec if c != zero), None)
        if lead == one:
            out.append(vec)
    return tuple(out)


def a2_graph(q):
    """Incidence graph of the proper subspaces of GF(q)^3."""
    p, e = factor_prime_power(q)
    gf = make_field(p, e)
    zero = gf.zero()
    pts = _lead_one_vectors(gf)
    n = len(pts)
    if n != q * q + q + 1:
        raise CheckFailed(f"{n} points, not q^2+q+1 = {q * q + q + 1}")
    pairs = frozenset(
        (i, j)
        for i, pt in enumerate(pts)
        for j, ln in enumerate(pts)
        if pt[0] * ln[0] + pt[1] * ln[1] + pt[2] * ln[2] == zero
    )
    graph = from_F(FSet(tuple(range(n)), pairs))
    return A2Model(q=q, graph=graph, points=pts)


def _building_fset(q):
    # induced incidences on points off the base line and lines off the base
    # point, for the incident base pair ((1,0,0), (0,0,1))
    model = a2_graph(q)
    gf = make_field(*factor_prime_power(q))
    zero, one = gf.zero(), gf.one()
    n, adj = len(model.points), model.graph.adj
    v1 = model.points.index((one, zero, zero))
    v2 = model.points.index((zero, zero, one))
    keep_p = [i for i in range(n) if n + v2 not in adj[i]]
    keep_l = [j for j in range(n) if n + j not in adj[v1]]
    if len(keep_p) != q * q or len(keep_l) != q * q:
        raise CheckFailed(
            f"kept {len(keep_p)} points and {len(keep_l)} lines, not q^2 = {q * q}"
        )
    pos_l = {v: k for k, v in enumerate(keep_l)}
    pairs = set()
    for k, i in enumerate(keep_p):
        for j in keep_l:
            if n + j in adj[i]:
                pairs.add((k, pos_l[j]))
    return FSet(tuple(range(q * q)), frozenset(pairs))


def opp_graph_building(q):
    """Subgraph of the plane on the vertices opposite the base point-line
    pair; backs the coset-model-matches-subspace-model claim (test_08)."""
    return from_F(_building_fset(q))


def _parabola_index(y, q):
    return y.index * q + (y * y).index


def opp_datum(q):
    """The Heisenberg-section group G of order q^2 with the parabola S, which
    generates it, so H = G; for q = 1 mod 3 the folding is multiplication
    of y by a cube root of unity.  The pair graph is the opposition
    subgraph."""
    p, e = factor_prime_power(q)
    if q ** 3 > _EDGE_LIMIT:
        raise TooLarge(
            f"q = {q} would build a link graph of q^3 = {q ** 3} edges; "
            f"the limit is {_EDGE_LIMIT}"
        )
    gf = make_field(p, e)
    G = make_opp_group(q)
    elems = gf.elements()
    S = tuple(sorted(_parabola_index(y, q) for y in elems))
    if len(S) != q:
        raise CheckFailed(f"parabola has {len(S)} points, not q = {q}")
    H = subgroup(G, S)
    if H.order != q * q:
        raise CheckFailed("parabola must generate the group")
    lam = None
    if q % 3 == 1:
        alpha = gf.generator() ** ((q - 1) // 3)
        lam = {_parabola_index(y, q): _parabola_index(alpha * y, q) for y in elems}
    datum = Datum(q=q, G=G, S=S, H=H, lam=lam)
    if q <= 5:
        if not f_wreath_equivalent(datum.F(), _building_fset(q)):
            raise CheckFailed("coset model disagrees with the subspace model")
    return datum


@dataclass(frozen=True)
class PropertyReport:
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


def incidence_model_checks(q):
    """Brute three-way equivalence, over every pair of section representatives:
    the point and line cosets meet, the closed incidence formula vanishes, and
    g2 lies in g1 times the parabola, read from the parabola's right
    translations.  Backs the coset-model-matches-subspace-model claim
    (test_08)."""
    p, e = factor_prime_power(q)
    gf = make_field(p, e)
    elems = gf.elements()
    zero = gf.zero()
    G = make_opp_group(q)
    rights = [G.right(_parabola_index(y, q)) for y in elems]

    def mul(u, v):
        return (u[0] + v[0], u[1] + v[1], u[2] + v[2] + u[0] * v[1])

    u1 = [(x, zero, zero) for x in elems]
    u2 = [(zero, y, zero) for y in elems]
    reps = [(elems[a // q], elems[a // q], elems[a % q]) for a in range(q * q)]
    left = [frozenset(mul(g, u) for u in u1) for g in reps]
    right = [frozenset(mul(g, u) for u in u2) for g in reps]
    for a in range(q * q):
        y1, z1 = reps[a][1], reps[a][2]
        joined = {r[a] for r in rights}
        for b in range(q * q):
            y2, z2 = reps[b][1], reps[b][2]
            meets = not left[a].isdisjoint(right[b])
            formula = (-z1 + z2 - y2 * (-y1 + y2)) == zero
            member = b in joined
            if not (meets == formula == member):
                return False
    return True

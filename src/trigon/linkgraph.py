"""Measurements of a pair set's link graph, and wreath equivalence.

The symmetry search is imported inside the one function that uses it, so
that a command which only measures a graph does not compile it at start-up;
F and its graph are built in pairset, and the symmetries of F in census."""

from __future__ import annotations

import math

from .errors import CheckFailed
from .pairset import FSet, LinkGraph, from_F
from .record import Record


class Disconnected(ValueError):
    """Raised when a spectral quantity is asked of a disconnected graph."""


def _masks(adj):
    """One neighbor bitmask per vertex, the form _bfs_scan reads."""
    out = []
    for ws in adj:
        m = 0
        for w in ws:
            m |= 1 << w
        out.append(m)
    return out


def _bfs_scan(adj, root, best=math.inf):
    """One level-synchronous BFS from root over the neighbor bitmasks.

    Returns (eccentricity, reached mask, shortest cycle seen from root).  A
    vertex of level k+1 with two neighbors in level k closes a cycle of
    length 2k+2; an edge inside level k closes one of length 2k+1.  The
    cycle tests stop once they cannot beat best, so passing best=0 turns
    them off.  The minimum over all roots is the girth of a simple graph.
    """
    frontier = seen = 1 << root
    k = 0
    while True:
        look = 2 * k + 1 < best
        once = twice = 0
        f = frontier
        while f:
            b = f & -f
            f ^= b
            m = adj[b.bit_length() - 1]
            if look:
                if m & frontier:
                    best = 2 * k + 1
                    look = False
                twice |= once & m
            once |= m
        nxt = once & ~seen
        if not nxt:
            return k, seen, best
        if twice & nxt and 2 * k + 2 < best:
            best = 2 * k + 2
        seen |= nxt
        frontier = nxt
        k += 1


class GraphMetrics(Record, eq=True):
    connected: bool
    girth: object
    diameter: object
    degree_profile: tuple
    biregular: object


def metrics(g: LinkGraph, roots=None) -> GraphMetrics:
    """Connectivity, girth, diameter and degrees from one BFS per root, every
    vertex when roots is None.  One root per orbit of an automorphism group
    gives the same answer: a root's eccentricity and the shortest cycle its
    scan sees are the same at every vertex of its orbit."""
    n = g.n
    degs = list(map(len, g.adj))
    hist: dict[int, int] = {}
    for d in degs:
        hist[d] = hist.get(d, 0) + 1
    profile = tuple(sorted(hist.items()))
    pt, ln = set(degs[:n]), set(degs[n:])
    bireg = (min(pt), min(ln)) if len(pt) == 1 and len(ln) == 1 else None
    masks = _masks(g.adj)
    full = (1 << (2 * n)) - 1
    diam = 0
    connected = True
    girth = math.inf
    for v in range(2 * n) if roots is None else roots:
        ecc, seen, girth = _bfs_scan(masks, v, girth)
        connected = connected and seen == full
        diam = max(diam, ecc)
    if not connected:
        diam = math.inf
    return GraphMetrics(connected, girth, diam, profile, bireg)


def _normalized_laplacian(g: LinkGraph):
    """I - D^{-1/2} A D^{-1/2} as a numpy array, with zero rows at isolated
    vertices.  numpy is imported here and in spectrum, not at module level,
    so that a command with no spectrum does not pay for it at start-up."""
    import numpy as np

    n2 = 2 * g.n
    a = np.zeros((n2, n2))
    for v, ws in enumerate(g.adj):
        a[v, ws] = 1.0
    d = a.sum(axis=1)
    s = np.zeros(n2)
    nz = d > 0
    s[nz] = 1.0 / np.sqrt(d[nz])
    lap = -(s[:, None] * a) * s[None, :]
    lap[nz, nz] = 1.0
    return lap


def spectrum(g: LinkGraph) -> list[float]:
    """The eigenvalues of the normalized Laplacian, ascending."""
    import numpy as np

    return [float(x) for x in np.linalg.eigvalsh(_normalized_laplacian(g))]


def _minimal_polynomial(step, v):
    """The monic p of least degree with p(M) v = 0, as integers, constant
    term first, where step(u) = M u for an integer matrix M, and the vector
    M^deg(p) v: the first linear dependency of the Krylov sequence v, Mv,
    M^2 v, ..., found by fraction-free integer elimination.  Each row is
    kept with its combination of the sequence.  p divides the minimal
    polynomial of M, which is monic with integer coefficients, so by
    Gauss's lemma p has integer coefficients too: the combination's last
    entry divides every other."""
    rows = []
    while True:
        row, comb = v, [0] * len(rows) + [1]
        for pivot, r, c in rows:
            f, p = row[pivot], r[pivot]
            if f:
                row = [p * a - f * b for a, b in zip(row, r)]
                c = c + [0] * (len(comb) - len(c))
                comb = [p * a - f * b for a, b in zip(comb, c)]
        pivot = next((i for i, x in enumerate(row) if x), None)
        if pivot is None:
            lead = comb[-1]
            if any(a % lead for a in comb):
                raise CheckFailed(
                    f"the Krylov dependency {comb} is not a multiple of a "
                    "monic integer polynomial"
                )
            return [a // lead for a in comb], v
        rows.append((pivot, row, comb))
        v = step(v)


def _poly_at(coeffs, x):
    """Horner's rule, constant term first."""
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _largest_root(coeffs, start):
    """The largest root of a real-rooted polynomial (constant term first)
    whose roots all lie below start.  Right of its largest root such a
    polynomial is convex and increasing, so Newton's method from start falls
    to that root from above; it stops once a step no longer goes down.  An
    integer root is returned exactly, as Newton may stop an ulp off it."""
    slope = [k * c for k, c in enumerate(coeffs)][1:]
    x = float(start)
    while True:
        nxt = x - float(_poly_at(coeffs, x)) / float(_poly_at(slope, x))
        if not nxt < x:
            break
        x = nxt
    root = round(x)
    return root if _poly_at(coeffs, root) == 0 else x


def point_transitive_gap(g: LinkGraph) -> float:
    """The spectral gap of a connected biregular (d1, d2) bipartite graph
    whose automorphism group is transitive on the points, from exact
    integers; the caller vouches for the transitivity.

    With B the point-line incidence matrix the normalized Laplacian is
    I - [[0, B], [B^T, 0]] / sqrt(d1 d2), so its eigenvalues are 1 and
    1 +- sqrt(mu / (d1 d2)) for the eigenvalues mu of M = B B^T.  M commutes
    with a group transitive on the points, so an eigenprojection that killed
    e_0 would kill every e_v: the Krylov sequence of e_0 gives the minimal
    polynomial of M, whose roots are its distinct eigenvalues.  d1 d2 is the
    largest and, the graph being connected, simple; the largest of the rest,
    mu_2, gives the gap 1 - sqrt(mu_2 / (d1 d2)).  M is symmetric, so the
    quotient by x - d1 d2 is real-rooted and _largest_root finds mu_2.

    The sequence also decides connectivity.  M is non-negative with the
    degree d1 on its diagonal, so for d1 > 0 the support of M^k e_0 grows
    until it is the component of point 0, and while it grows M^k e_0 is
    independent of the vectors before it: the first dependent one is
    non-zero exactly on that component, and for d1 = 0 it is M e_0 = 0.
    Every line then has a point, as d1 = d2, so the graph is connected iff
    that vector has no zero entry."""
    n = g.n
    d1 = set(map(len, g.adj[:n]))
    d2 = set(map(len, g.adj[n:]))
    if not g.bipartite or len(d1) != 1 or len(d2) != 1:
        raise ValueError("the exact spectral gap needs a biregular bipartite graph")
    top = d1.pop() * d2.pop()
    lines_of = [[w - n for w in ws] for ws in g.adj[:n]]
    points_of = g.adj[n:]

    def step(v):
        u = [sum(map(v.__getitem__, pts)) for pts in points_of]
        return [sum(map(u.__getitem__, lines)) for lines in lines_of]

    poly, last = _minimal_polynomial(step, [1] + [0] * (n - 1))
    if not all(last):
        raise Disconnected("spectral gap needs a connected graph")
    # divide out x - top, which divides poly as M 1 = top 1 and e_0 meets 1:
    # synthetic division, highest coefficient first
    quotient = [poly[-1]]
    for c in reversed(poly[1:-1]):
        quotient.append(c + top * quotient[-1])
    quotient.reverse()
    if len(quotient) == 1:
        # M = top I: a single edge, whose spectrum is 0 and 2
        return 2.0
    return 1 - math.sqrt(_largest_root(quotient, top) / top)


def f_wreath_equivalent(F1: FSet, F2: FSet) -> bool:
    """Whether some (alpha, beta) in Sym(n) wr Z/2 maps F1 onto F2, the two
    sides permuted independently and possibly exchanged; weaker than
    diagonal equivalence.  opp_datum checks the coset model against the
    subspace model with it."""
    from .autosearch import find_isomorphism

    n = F1.n
    g1, g2 = from_F(F1), from_F(F2)
    side = [0] * n + [1] * n
    return any(
        find_isomorphism(g1.adj, g2.adj, side, side2) is not None
        for side2 in (side, side[n:] + side[:n])
    )


def export_edge_list(g: LinkGraph) -> str:
    """One 'point line' pair per line, both 1-based, lines offset by n."""
    out = []
    for v, w in g.edges():
        out.append(f"{v + 1} {w + 1}")
    return "\n".join(out) + ("\n" if out else "")

"""Backtracking search for automorphisms and isomorphisms of colored digraphs.

A digraph is one out-neighbor bitmask per vertex; each search derives the
vertex count and the neighbor lists once, when it starts."""

from __future__ import annotations

from .permgrp import Perm


def arc_masks(n, arcs):
    """Out-neighbor bitmasks of a digraph on 0..n-1."""
    adj = [0] * n
    for i, j in arcs:
        adj[i] |= 1 << j
    return adj


def _bits(mask):
    """The set bits of mask, least first."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def _neighbor_lists(adj):
    """(out-lists,) for a symmetric digraph, else (out-lists, in-lists)."""
    outs = [_bits(m) for m in adj]
    ins = [[] for _ in adj]
    for v, ws in enumerate(outs):
        for w in ws:
            ins[w].append(v)
    return (outs,) if ins == outs else (outs, ins)


def refine(nbrs, colors):
    """Equitable refinement of a vertex coloring.

    nbrs holds the out- and in-neighbor lists, or the out-lists alone when
    the digraph is symmetric.  Returns the stable coloring, renumbered
    0..k-1 in signature order, and a trace of per-round signature lists; the
    trace is equal for two colored digraphs exactly when the refinement runs
    are indistinguishable.

    The signature of a vertex is its color together with the sorted colors of
    its out- and in-neighbors, which carries the same information as counting
    neighbors per class but costs one dictionary lookup per edge end.
    """
    colors = list(colors)
    trace = []
    outs, ins = nbrs[0], nbrs[-1]
    k = len(set(colors))
    while True:
        if len(nbrs) == 1:
            sigs = [
                (c, tuple(sorted([colors[u] for u in ws])))
                for c, ws in zip(colors, outs)
            ]
        else:
            sigs = [
                (
                    c,
                    tuple(sorted([colors[u] for u in ws])),
                    tuple(sorted([colors[u] for u in vs])),
                )
                for c, ws, vs in zip(colors, outs, ins)
            ]
        ranked = sorted(set(sigs))
        trace.append(tuple(ranked))
        rank = {s: i for i, s in enumerate(ranked)}
        new = [rank[s] for s in sigs]
        if len(ranked) == k:
            return new, tuple(trace)
        colors = new
        k = len(ranked)


def _target_class(colors):
    """Largest non-singleton class, ties broken by class number.

    Individualizing in a large class triggers the longest refinement cascade,
    which matters on distance-regular graphs where small classes are locally
    interchangeable and splitting them discriminates almost nothing.
    """
    sizes = {}
    for c in colors:
        sizes[c] = sizes.get(c, 0) + 1
    best = None
    for c, s in sizes.items():
        if s > 1 and (best is None or (-s, c) < best):
            best = (-s, c)
    return None if best is None else best[1]


def _maps_arcs(outs1, adj2, images):
    for v, ws in enumerate(outs1):
        t = 0
        for w in ws:
            t |= 1 << images[w]
        if t != adj2[images[v]]:
            return False
    return True


def automorphism_generators(adj, colors=None):
    """Generators of the color-preserving automorphism group of a digraph.

    Individualization-refinement with the first leaf as reference; subtrees
    whose refinement trace departs from the reference path are pruned, as are
    target-cell vertices lying in the orbit of an already-expanded vertex
    under the automorphisms found so far.
    """
    n = len(adj)
    if colors is None:
        colors = [0] * n
    nbrs = _neighbor_lists(adj)
    gens: list[Perm] = []
    ref_trace: list = []
    ref_base: list[int] = []
    ref_leaf: list = [None]

    def orbit_closure(seeds, fixed):
        use = [g for g in gens if all(g.images[b] == b for b in fixed)]
        seen = set(seeds)
        queue = list(seeds)
        for u in queue:
            for g in use:
                w = g.images[u]
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return seen

    def dfs(raw, depth, on_ref):
        cols, tr = refine(nbrs, raw)
        if on_ref:
            ref_trace.append(tr)
        elif depth >= len(ref_trace) or tr != ref_trace[depth]:
            return False
        cls = _target_class(cols)
        if cls is None:
            vert = [0] * n
            for v, c in enumerate(cols):
                vert[c] = v
            if ref_leaf[0] is None:
                ref_leaf[0] = vert
                return False
            images = [0] * n
            for c in range(n):
                images[ref_leaf[0][c]] = vert[c]
            if _maps_arcs(nbrs[0], adj, images):
                p = Perm(tuple(images))
                if not p.is_identity():
                    gens.append(p)
                    return True
            return False
        cell = sorted(v for v in range(n) if cols[v] == cls)
        if on_ref:
            ref_base.append(cell[0])
        fixed = ref_base[:depth]
        found = False
        done = []
        for idx, v in enumerate(cell):
            if on_ref and idx > 0 and v in orbit_closure(done, fixed):
                done.append(v)
                continue
            child = list(cols)
            child[v] = n
            got = dfs(child, depth + 1, on_ref and idx == 0)
            done.append(v)
            if got:
                found = True
                if not on_ref:
                    # the rest of this subtree repeats reference-side work
                    return True
        return found

    dfs(list(colors), 0, True)
    return sorted(set(gens), key=lambda p: p.images)


def find_isomorphism(adj1, adj2, colors1=None, colors2=None):
    """A color-preserving digraph isomorphism as a Perm, or None.

    Vertices of the first digraph are individualized in a fixed order and
    matched against every vertex of the corresponding class on the other
    side, so the returned witness is deterministic.
    """
    n = len(adj1)
    if colors1 is None:
        colors1 = [0] * n
    if colors2 is None:
        colors2 = [0] * n
    nbrs1, nbrs2 = _neighbor_lists(adj1), _neighbor_lists(adj2)
    # an isomorphism keeps the vertex count and keeps a digraph symmetric
    if len(adj2) != n or len(nbrs1) != len(nbrs2):
        return None

    def dfs(raw1, raw2):
        c1, t1 = refine(nbrs1, raw1)
        c2, t2 = refine(nbrs2, raw2)
        if t1 != t2:
            return None
        cls = _target_class(c1)
        if cls is None:
            vert2 = [0] * n
            for w, c in enumerate(c2):
                vert2[c] = w
            images = [vert2[c] for c in c1]
            if _maps_arcs(nbrs1[0], adj2, images):
                return tuple(images)
            return None
        v = min(u for u in range(n) if c1[u] == cls)
        for w in sorted(u for u in range(n) if c2[u] == cls):
            a = list(c1)
            a[v] = n
            b = list(c2)
            b[w] = n
            r = dfs(a, b)
            if r is not None:
                return r
        return None

    r = dfs(list(colors1), list(colors2))
    return None if r is None else Perm(r)

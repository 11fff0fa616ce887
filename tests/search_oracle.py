"""trigon.autosearch's two searches as they were before they shared one
reference path: automorphism_generators recurses with an on-reference flag,
and find_isomorphism re-refines the first side at every node it enters on
the second.  Kept verbatim as the differential oracle for the leftmost path
and first-match descent that replaced them, with the leaf check they made
then, which sorts the image of every out-list, in place of the set lookups
of the package's _maps_arcs."""

from trigon.autosearch import (
    _extend_orbit,
    _neighbor_lists,
    _Partition,
    refine,
)
from trigon.permgrp import Perm


def _maps_arcs(outs1, outs2, images):
    """Whether images carries every out-list of the first digraph onto the
    out-list of the image vertex; out-lists are sorted, so a bijection that
    passes is an isomorphism."""
    get = images.__getitem__
    return all(
        sorted(map(get, ws)) == outs2[images[v]] for v, ws in enumerate(outs1)
    )


def automorphism_generators(adj, colors=None):
    """Generators of the color-preserving automorphism group of a digraph.

    Individualization-refinement with the first leaf as reference; a child
    whose refinement trace departs from the reference path's at the same
    depth is pruned as soon as it does, as are target-cell vertices on the
    reference path lying in the orbit of an already-expanded vertex under
    the automorphisms found so far.
    """
    n = len(adj)
    if colors is None:
        colors = [0] * n
    nbrs = _neighbor_lists(adj)
    gens: list[Perm] = []
    ref_traces: list = []
    ref_leaf: list = [None]

    def leaf(part):
        if ref_leaf[0] is None:
            ref_leaf[0] = part.verts
            return False
        images = [0] * n
        for a, b in zip(ref_leaf[0], part.verts):
            images[a] = b
        if _maps_arcs(nbrs[0], nbrs[0], images):
            p = Perm(tuple(images))
            if not p.is_identity():
                gens.append(p)
                return True
        return False

    def dfs(part, depth, on_ref):
        s = part.target()
        if s is None:
            return leaf(part)
        cell = sorted(part.verts[s:part.end[s]])
        found = False
        # the closure of the expanded vertices under the generators, rebuilt
        # only when a new generator is found.  On the reference path every
        # generator so far comes from a leaf below this node, so it fixes
        # the vertices individualized on the way here and maps the target
        # cell onto itself.
        done, orbit, seen = [], set(), -1
        for idx, v in enumerate(cell):
            if on_ref and idx > 0:
                if len(gens) != seen:
                    seen = len(gens)
                    orbit = set()
                    _extend_orbit(orbit, done, gens)
                if v in orbit:
                    continue
            child = part.copy()
            sp = child.individualize(v)
            if on_ref and idx == 0:
                ref_traces.append(refine(nbrs, child, [sp]))
                got = dfs(child, depth + 1, True)
            elif refine(nbrs, child, [sp], ref_traces[depth]) is None:
                got = False
            else:
                got = dfs(child, depth + 1, False)
            done.append(v)
            if on_ref and idx > 0 and len(gens) == seen:
                _extend_orbit(orbit, [v], gens)
            if got:
                found = True
                if not on_ref:
                    # the rest of this subtree repeats reference-side work
                    return True
        return found

    root = _Partition.from_colors(colors)
    refine(nbrs, root, root.starts())
    dfs(root, 0, True)
    return sorted(set(gens), key=lambda p: p.images)


def find_isomorphism(adj1, adj2, colors1=None, colors2=None):
    """A color-preserving digraph isomorphism as a Perm, or None.

    Vertices of the first digraph are individualized in a fixed order and
    matched against every vertex of the corresponding cell on the other
    side, whose refinement is checked step by step against the first side's
    trace; the returned witness is deterministic.
    """
    n = len(adj1)
    if colors1 is None:
        colors1 = [0] * n
    if colors2 is None:
        colors2 = [0] * n
    nbrs1, nbrs2 = _neighbor_lists(adj1), _neighbor_lists(adj2)
    # an isomorphism keeps the vertex count, keeps a digraph symmetric and
    # keeps every color's class; the partitions then start cell for cell
    # with the same color values
    if (len(adj2) != n or len(nbrs1) != len(nbrs2)
            or sorted(colors1) != sorted(colors2)):
        return None

    def dfs(p1, p2):
        s = p1.target()
        if s is None:
            images = [0] * n
            for v, w in zip(p1.verts, p2.verts):
                images[v] = w
            if _maps_arcs(nbrs1[0], nbrs2[0], images):
                return tuple(images)
            return None
        c1 = p1.copy()
        sp = c1.individualize(min(p1.verts[s:p1.end[s]]))
        t1 = refine(nbrs1, c1, [sp])
        for w in sorted(p2.verts[s:p2.end[s]]):
            c2 = p2.copy()
            c2.individualize(w)
            if refine(nbrs2, c2, [sp], t1) is not None:
                r = dfs(c1, c2)
                if r is not None:
                    return r
        return None

    p1 = _Partition.from_colors(colors1)
    p2 = _Partition.from_colors(colors2)
    t1 = refine(nbrs1, p1, p1.starts())
    if refine(nbrs2, p2, p2.starts(), t1) is None:
        return None
    r = dfs(p1, p2)
    return None if r is None else Perm(r)

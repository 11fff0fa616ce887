"""Backtracking search for automorphisms and isomorphisms of colored digraphs.

A digraph is one sorted out-neighbor list per vertex; each search derives the
in-lists once, when it starts.

Each search node holds an ordered partition of the vertices and refines it
with a splitter queue (McKay & Piperno, "Practical graph isomorphism, II",
arXiv:1301.1493): a splitter cell splits every cell it touches by neighbor
counts, and only the fragments that can split something further are queued.
On a symmetric digraph a one-vertex splitter, the common case below the
root, splits each cell it touches in two without counting.
Both searches refer to one leftmost path, which individualizes the least
vertex of each target cell, and share one descent to the first leaf that
matches it; a child stops as soon as its trace departs from the path's.
The automorphism search takes the path's nodes deepest first and descends
from each sibling its orbits do not prune, the isomorphism search from the
other digraph's root.  The automorphism search also gives the group's order,
as nauty does: the product over the path's nodes of the orbit of each node's
path vertex under the generators found at that node and below, so no
stabilizer chain is built for it."""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import chain

from .errors import TooLarge
from .permgrp import Perm
from .record import Record

# the most partition entries, levels x vertices, that a leftmost path holds;
# a longer path is refused (TooLarge) while it is built.  The q = 157 probe,
# the largest exotic admits, holds 3 x 49,614 = 148,842 entries in 24 MB, its
# traces included; every probe from q = 7 to 121 holds at most 118,104 (15 MB
# at q = 121), and the empty digraph on 447 points, 446 levels at the limit,
# takes 6.6 MB (tracemalloc, Python 3.11).  A path has fewer levels than
# vertices, so it is under sqrt(200,000) < 448 levels deep
_PATH_LIMIT = 200_000


def _neighbor_lists(adj):
    """(out-lists,) for a symmetric digraph, else (out-lists, in-lists).  The
    out-lists are adj's rows, a row that is not a list copied into one: the
    in-lists are built as sorted lists, so the two compare equal exactly
    when the digraph is symmetric, and _maps_arcs compares a sorted image
    list with them.  An out-list that is not strictly increasing, a
    repeated arc among them, is refused: refine counts each neighbor of a
    one-vertex splitter once."""
    outs = [ws if type(ws) is list else list(ws) for ws in adj]
    ins = [[] for _ in outs]
    for v, ws in enumerate(outs):
        prev = -1
        for w in ws:
            if w <= prev:
                raise ValueError(
                    f"the out-list of vertex {v} is not strictly increasing"
                )
            prev = w
            ins[w].append(v)
    return (outs,) if ins == outs else (outs, ins)


class _Partition:
    """An ordered partition of 0..n-1: the vertices in one array, each cell a
    contiguous range of it named by its start index.

    verts lists the vertices cell by cell, pos[v] is v's index in verts,
    cell[v] the start of v's cell, and end[s] one past the last index of the
    cell that starts at s (end is meaningless at other indices)."""

    __slots__ = ("verts", "pos", "cell", "end", "cells")

    def __init__(self, verts, pos, cell, end, cells):
        self.verts = verts
        self.pos = pos
        self.cell = cell
        self.end = end
        self.cells = cells

    @classmethod
    def from_colors(cls, colors):
        """One cell per color value, in increasing value order."""
        n = len(colors)
        verts = sorted(range(n), key=colors.__getitem__)
        pos = [0] * n
        cell = [0] * n
        end = [n] * n
        s = 0
        for i, v in enumerate(verts):
            pos[v] = i
            if colors[v] != colors[verts[s]]:
                end[s] = i
                s = i
            cell[v] = s
        return cls(verts, pos, cell, end, len(set(colors)))

    def starts(self):
        """The cell starts, in order."""
        out = []
        s, n = 0, len(self.verts)
        while s < n:
            out.append(s)
            s = self.end[s]
        return out

    def copy(self):
        return _Partition(list(self.verts), list(self.pos), list(self.cell),
                          list(self.end), self.cells)

    def individualize(self, v):
        """Split v off as a singleton at the end of its cell; returns the
        singleton's start, the only splitter the child needs."""
        s = self.cell[v]
        last = self.end[s] - 1
        verts, pos = self.verts, self.pos
        u, pv = verts[last], pos[v]
        verts[pv], pos[u] = u, pv
        verts[last], pos[v] = v, last
        self.end[s] = last
        self.end[last] = last + 1
        self.cell[v] = last
        self.cells += 1
        return last

    def target(self):
        """Start of the largest non-singleton cell, the first on a tie; None
        when the partition is discrete.

        Individualizing in a large cell triggers the longest refinement
        cascade, which matters on distance-regular graphs where small cells
        are locally interchangeable and splitting them discriminates almost
        nothing."""
        n = len(self.verts)
        if self.cells == n:
            return None
        best, size = None, 1
        s, end = 0, self.end
        while s < n:
            e = end[s]
            if e - s > size:
                best, size = s, e - s
            s = e
        return best


def refine(nbrs, part, queue, ref=None):
    """Refine part in place to the coarsest equitable partition finer than it.

    nbrs holds the out- and in-neighbor lists, or the out-lists alone when
    the digraph is symmetric; queue holds the starts of the splitter cells to
    begin with.  Each splitter splits the cells it touches by the numbers of
    out- and in-neighbors their vertices have in it; the fragments are
    ordered by count, untouched vertices first, and the first fragment keeps
    the cell's start.  Fragments are queued by Hopcroft's rule: all of them
    if the cell was still queued, otherwise all but the largest, whose counts
    follow from the others'.  The newest splitter is taken first, which
    carries the refinement away from an individualized vertex soonest and so
    lets a child that departs from the reference path abort earliest.
    Refinement stops as soon as part is discrete.

    Returns the trace, one (splitter, cell, ((count, size), ...)) step per
    split; two colored digraphs related by an isomorphism that maps one
    partition onto the other give equal traces.  Given the trace ref of
    another run, returns None as soon as a step differs from it, or when
    this run ends before or after ref does."""
    verts, pos, cell, end = part.verts, part.pos, part.cell, part.end
    n = len(verts)
    outs, ins = nbrs[0], nbrs[-1]
    directed = len(nbrs) == 2
    queue = list(queue)
    pending = set(queue)
    trace = []
    while queue and part.cells < n:
        sp = queue.pop()
        pending.discard(sp)
        if not directed and end[sp] == sp + 1:
            # one vertex: each neighbor counts 1, so a touched cell splits
            # into its untouched part, which keeps the start, and its
            # touched part, moved to the tail in in-list order
            touched = defaultdict(list)
            for w in ins[verts[sp]]:
                c = cell[w]
                if end[c] > c + 1:
                    touched[c].append(w)
            for c in sorted(touched):
                ws = touched[c]
                e = end[c]
                f = e - len(ws)
                if f == c:
                    continue
                t = f
                for w in ws:
                    u, pw = verts[t], pos[w]
                    verts[pw], pos[u] = u, pw
                    verts[t], pos[w] = w, t
                    cell[w] = f
                    t += 1
                end[c] = f
                end[f] = e
                part.cells += 1
                step = (sp, c, ((0, f - c), (1, e - f)))
                if ref is not None and (
                    len(trace) >= len(ref) or ref[len(trace)] != step
                ):
                    return None
                trace.append(step)
                # Hopcroft: the touched fragment if c is still queued, else
                # the smaller one, the touched one on a tie
                new = f if c in pending or e - f <= f - c else c
                queue.append(new)
                pending.add(new)
                if part.cells == n:
                    break
            continue
        members = verts[sp:end[sp]]
        # a vertex's out-neighbors in the splitter are the splitter's in-lists
        cnt = Counter(chain.from_iterable(map(ins.__getitem__, members)))
        if directed:
            for w, c in Counter(
                chain.from_iterable(map(outs.__getitem__, members))
            ).items():
                cnt[w] += c * (n + 1)
        touched = defaultdict(list)
        for w in cnt:
            touched[cell[w]].append(w)
        for c in sorted(touched):
            e = end[c]
            size = e - c
            if size == 1:
                continue
            ws = touched[c]
            ws.sort(key=cnt.__getitem__)
            k = len(ws)
            if k == size and cnt[ws[0]] == cnt[ws[-1]]:
                continue
            # move the touched vertices to the tail of the cell, by count
            t = e - k
            for w in ws:
                u, pw = verts[t], pos[w]
                verts[pw], pos[u] = u, pw
                verts[t], pos[w] = w, t
                t += 1
            frags = [(c, 0)] if k < size else []
            prev = None
            for i, w in enumerate(ws):
                x = cnt[w]
                if x != prev:
                    frags.append((e - k + i, x))
                    prev = x
            profile = []
            for j, (f, x) in enumerate(frags):
                fe = frags[j + 1][0] if j + 1 < len(frags) else e
                end[f] = fe
                profile.append((x, fe - f))
                if f != c:
                    for i in range(f, fe):
                        cell[verts[i]] = f
            part.cells += len(frags) - 1
            step = (sp, c, tuple(profile))
            if ref is not None and (
                len(trace) >= len(ref) or ref[len(trace)] != step
            ):
                return None
            trace.append(step)
            if c in pending:
                new = [f for f, _ in frags[1:]]
            else:
                big = max(range(len(frags)), key=lambda j: profile[j][1])
                new = [f for j, (f, _) in enumerate(frags) if j != big]
            queue.extend(new)
            pending.update(new)
            if part.cells == n:
                break
    if ref is not None and len(trace) != len(ref):
        return None
    return trace


def _maps_arcs(outs1, outs2, images):
    """Whether images carries every out-list of the first digraph onto the
    out-list of the image vertex in the second; out-lists are strictly
    increasing, so a bijection that passes is an isomorphism."""
    get = images.__getitem__
    return all(
        sorted(map(get, ws)) == outs2[images[v]] for v, ws in enumerate(outs1)
    )


def _extend_orbit(orbit, seeds, gens):
    """Add to orbit the closure of seeds under gens."""
    queue = [u for u in seeds if u not in orbit]
    orbit.update(queue)
    for u in queue:
        for g in gens:
            w = g.images[u]
            if w not in orbit:
                orbit.add(w)
                queue.append(w)


def _leftmost_path(nbrs, part):
    """The first path from the equitable partition part to a leaf: the
    partition at each node above the leaf, the trace of each step, which
    individualizes the least vertex of the node's target cell, and the
    leaf's vertex order.  Raises TooLarge once the path would hold more
    than _PATH_LIMIT partition entries."""
    parts, traces = [], []
    n = len(part.verts)
    s = part.target()
    while s is not None:
        if (len(parts) + 1) * n > _PATH_LIMIT:
            raise TooLarge(
                f"the search path on {n} vertices is more than {len(parts)} "
                f"levels deep; the limit is {_PATH_LIMIT} levels x vertices"
            )
        parts.append(part)
        part = part.copy()
        sp = part.individualize(min(part.verts[s:part.end[s]]))
        traces.append(refine(nbrs, part, [sp]))
        s = part.target()
    return parts, traces, part.verts


def _first_leaf(nbrs, part, depth, traces, ref_verts, ref_outs):
    """The images of the first leaf below part, its target-cell vertices
    tried in increasing order, whose refinement follows traces from depth
    on and whose map from ref_verts carries the out-lists ref_outs onto
    nbrs[0]; None if there is none.  One call per level: _PATH_LIMIT keeps
    a path under 448 levels, inside the interpreter's recursion limit."""
    s = part.target()
    if s is None:
        images = [0] * len(ref_verts)
        for a, b in zip(ref_verts, part.verts):
            images[a] = b
        return images if _maps_arcs(ref_outs, nbrs[0], images) else None
    for w in sorted(part.verts[s:part.end[s]]):
        child = part.copy()
        sp = child.individualize(w)
        if refine(nbrs, child, [sp], traces[depth]) is not None:
            images = _first_leaf(nbrs, child, depth + 1, traces, ref_verts,
                                 ref_outs)
            if images is not None:
                return images
    return None


class Automorphisms(Record, eq=True):
    """The color-preserving automorphism group of a digraph: its generators,
    sorted by images, and its order."""

    generators: tuple
    order: int

    def __len__(self):
        # the number of generators, which perfbench's tracer records
        return len(self.generators)


def automorphism_generators(adj, colors=None, limit=None) -> Automorphisms:
    """The color-preserving automorphism group of a digraph.

    At each node of the leftmost path, deepest first, each other target-cell
    vertex outside the orbits of the expanded ones under the generators so
    far gives at most one generator, from the first leaf below it that maps
    the path's leaf onto it.  Then the orbit of the node's path vertex under
    the generators found at the node and below is the index in the node's
    stabilizer of the next node's, so the product of these orbit lengths is
    the order of a subgroup at each node and the group's order at the root.
    Given a limit, raises TooLarge as soon as the product passes it."""
    n = len(adj)
    if colors is None:
        colors = [0] * n
    nbrs = _neighbor_lists(adj)
    root = _Partition.from_colors(colors)
    refine(nbrs, root, root.starts())
    parts, traces, ref_verts = _leftmost_path(nbrs, root)
    gens: list[Perm] = []
    order = 1
    for depth in range(len(parts) - 1, -1, -1):
        part = parts[depth]
        s = part.target()
        cell = sorted(part.verts[s:part.end[s]])
        # the closure of the expanded vertices under the generators, rebuilt
        # only when a new generator is found.  Every generator so far comes
        # from a leaf below this node, so it fixes the vertices individualized
        # on the way here and maps the target cell onto itself.
        done, orbit, seen = [cell[0]], set(), -1
        for v in cell[1:]:
            if len(gens) != seen:
                seen = len(gens)
                orbit = set()
                _extend_orbit(orbit, done, gens)
            if v in orbit:
                continue
            child = part.copy()
            sp = child.individualize(v)
            if refine(nbrs, child, [sp], traces[depth]) is not None:
                images = _first_leaf(nbrs, child, depth + 1, traces,
                                     ref_verts, nbrs[0])
                if images is not None:
                    gens.append(Perm(images))
            done.append(v)
            if len(gens) == seen:
                _extend_orbit(orbit, [v], gens)
        path_orbit = set()
        _extend_orbit(path_orbit, [cell[0]], gens)
        order *= len(path_orbit)
        if limit is not None and order > limit:
            raise TooLarge(f"the digraph has at least {order} automorphisms, "
                           f"more than the limit {limit}")
    return Automorphisms(tuple(sorted(set(gens), key=lambda p: p.images)), order)


def find_isomorphism(adj1, adj2, colors1=None, colors2=None):
    """A color-preserving digraph isomorphism as a Perm, or None: the map
    from the first digraph's leftmost leaf to the second's first leaf that
    follows the path's traces and carries the out-lists, so deterministic."""
    n = len(adj1)
    if colors1 is None:
        colors1 = [0] * n
    if colors2 is None:
        colors2 = [0] * n
    nbrs1, nbrs2 = _neighbor_lists(adj1), _neighbor_lists(adj2)
    # an isomorphism keeps the vertex count and the arc count, keeps a
    # digraph symmetric and keeps every color's class; the partitions then
    # start cell for cell with the same color values
    if (len(adj2) != n or len(nbrs1) != len(nbrs2)
            or sum(map(len, nbrs1[0])) != sum(map(len, nbrs2[0]))
            or sorted(colors1) != sorted(colors2)):
        return None
    p1 = _Partition.from_colors(colors1)
    p2 = _Partition.from_colors(colors2)
    t1 = refine(nbrs1, p1, p1.starts())
    if refine(nbrs2, p2, p2.starts(), t1) is None:
        return None
    _, traces, verts1 = _leftmost_path(nbrs1, p1)
    images = _first_leaf(nbrs2, p2, 0, traces, verts1, nbrs1[0])
    return None if images is None else Perm(images)

"""trigon.autosearch.refine as it was before its one-vertex split: every
splitter, one vertex or many, splits the cells it touches by neighbor
counts.  Kept verbatim as the differential oracle for the split that
replaced it on symmetric digraphs."""

from collections import Counter, defaultdict
from itertools import chain


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

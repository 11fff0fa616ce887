"""The label-level presentation code that the position-indexed core replaced,
kept as the oracle for the label boundary.

Here a presentation is a set of label triples and a pair set is a set of
label pairs, over one label list; positions are looked up through a label ->
position dict at every step, as the old TrianglePresentation and FSet did.
The functions take trigon pair sets and presentations and map them to labels
first, so a test can compare both sides on the same input.

The pair-set half holds F as a set of position pairs, the form FSet had
before its out-lists: pairs_of and fset_of convert between the two, and
from_F, transpose and exact_covers are the pair-set oracles of the link
graph, rho and the enumeration.

The triple-set half holds a presentation as a set of position triples, the
form TrianglePresentation had before its rows: triples_of and
presentation_of convert between the two, and image_triples and
orbit_stabilizer are the triple-set oracles of the action of Aut(F) and of
the orbit walk.  The census holds a presentation as the tuple of its
thirds, one per pair of F in out-list order: thirds_of and on_rows convert
between that and TrianglePresentation, and presentations lists the census's
covers as presentations.  coset_steps is the sign rule of a twisted family
on every coset of H, the oracles' own copy of SignFamily.twist.

The tables half reads the published tables of trigon.catalog back into
presentations: table(which) is reference table 1..5.
"""

import itertools
import json
import re

from trigon import census
from trigon.catalog import TABLE_TEXTS
from trigon.census import AutFull
from trigon.pairset import FSet, LinkGraph
from trigon.permgrp import Perm, bsgs_build
from trigon.tripres import TrianglePresentation, Violation


def triples_of(T):
    """The position triples of T."""
    return frozenset(T.walk())


def presentation_of(labels, triples):
    """The presentation of a set of position triples over labels, as given:
    neither closed by rotation nor checked."""
    rows = [[] for _ in labels]
    for i, j, k in sorted(triples):
        rows[i].append((j, k))
    return TrianglePresentation(
        tuple(labels),
        tuple([j for j, _ in row] for row in rows),
        tuple([k for _, k in row] for row in rows),
    )


def thirds_of(T):
    """The thirds of T, one per pair in out-list order: the census's key."""
    return tuple(itertools.chain.from_iterable(T.third))


def on_rows(F, thirds):
    """The presentation on F with these thirds, one per pair in out-list
    order."""
    ends = itertools.accumulate(map(len, F.out))
    rows = tuple(list(thirds[e - len(js):e]) for js, e in zip(F.out, ends))
    return TrianglePresentation(F.labels, F.out, rows)


def presentations(F):
    """Every presentation compatible with F, in the census's order: each
    cover census._exact_covers lists, on F's rows."""
    return [on_rows(F, thirds) for thirds in census._exact_covers(F)]


def label_triples(T):
    """The triples of T written in labels."""
    lab = T.labels
    return frozenset((lab[i], lab[j], lab[k]) for i, j, k in triples_of(T))


def pairs_of(F):
    """The position pairs of F."""
    return frozenset((i, j) for i, js in enumerate(F.out) for j in js)


def fset_of(labels, pairs):
    """The FSet of a set of position pairs over labels."""
    labels = tuple(labels)
    return FSet.from_labels(labels, [(labels[i], labels[j]) for i, j in pairs])


def label_pairs(F):
    """The pairs of F written in labels."""
    lab = F.labels
    return frozenset((lab[i], lab[j]) for i, j in pairs_of(F))


def from_F(F):
    """The link graph built from the pair set: both ends of each pair
    appended, then every list sorted."""
    n = F.n
    adj = [[] for _ in range(2 * n)]
    for i, j in pairs_of(F):
        adj[i].append(j + n)
        adj[j + n].append(i)
    for ws in adj:
        ws.sort()
    return LinkGraph(tuple(adj))


def transpose(F):
    """rho(F) = {(j, i)}, from the pair set."""
    return fset_of(F.labels, {(j, i) for i, j in pairs_of(F)})


def exact_covers(F):
    """Every presentation compatible with F, in the census's order, by the
    set-based exact-cover DFS that census._exact_covers replaced: it rebuilds
    the list of free pairs at every node and tests conflicts pair by pair."""
    fpairs = pairs_of(F)
    pairlist = sorted(fpairs)
    cand = {
        (i, j): [k for k in range(F.n) if (j, k) in fpairs and (k, i) in fpairs]
        for i, j in pairlist
    }
    results = set()
    covered = set()
    chosen = []

    def dfs():
        free = [p for p in pairlist if p not in covered]
        if not free:
            results.add(frozenset(
                r for i, j, k in chosen for r in ((i, j, k), (j, k, i), (k, i, j))
            ))
            return
        i, j = free[0]
        for k in cand[i, j]:
            need = {(i, j), (j, k), (k, i)}
            if any(q in covered for q in need):
                continue
            covered.update(need)
            chosen.append((i, j, k))
            dfs()
            chosen.pop()
            covered.difference_update(need)

    dfs()
    return [presentation_of(F.labels, r) for r in sorted(results, key=sorted)]


def image_triples(ptrip, im, use_rho=False):
    """The position triples ptrip moved by the image tuple im, after the
    coordinate swap (i,j,k) -> (j,i,k) when use_rho: act on positions."""
    if use_rho:
        return frozenset((im[j], im[i], im[k]) for i, j, k in ptrip)
    return frozenset((im[i], im[j], im[k]) for i, j, k in ptrip)


def orbit_stabilizer(ptrip, full):
    """The orbit of the position triples ptrip under Aut(F), in walk order,
    and their stabilizer, by the triple-set walk that the thirds-key walk
    replaced: each move rebuilds the moved set through image_triples."""
    movers = [(g, 0) for g in full.plus.generators]
    if full.witness is not None:
        movers.append((full.witness, 1))
    degree = full.plus.degree
    walk = {ptrip: (Perm.identity(degree), 0)}
    orbit = [ptrip]
    schreier = {}
    for x in orbit:
        ux, bx = walk[x]
        for g, b in movers:
            y = image_triples(x, g.images, b)
            if y not in walk:
                walk[y] = (ux * g, bx ^ b)
                orbit.append(y)
                continue
            uy, by = walk[y]
            schreier[ux * g * uy.inverse(), bx ^ b ^ by] = None
    plus = [s for s, bit in schreier if not bit]
    swaps = [s for s, bit in schreier if bit]
    witness = swaps[0] if swaps else None
    if witness is not None:
        w_inv = witness.inverse()
        plus += [witness * e * w_inv for e in plus]
        plus += [witness * s for s in swaps] + [s * w_inv for s in swaps]
    return orbit, AutFull(plus=bsgs_build(degree, plus), witness=witness)


def coset_steps(family, kappa):
    """The step of each s of S on each coset of H, in coset id order: lam(s),
    or lam^2(s) = lam^-1(s) where kappa puts -1 on the key of the orbit of s
    on that coset, the orbit minimum alone when H has one coset."""
    lam, H = family.lam, family.H

    def step(rep, s):
        omin = family.orbit_min.get(s)
        key = omin if H.index == 1 else (rep, omin)
        return lam[lam[s]] if omin is not None and kappa[key] == -1 else lam[s]

    return [tuple(step(rep, s) for s in family.S) for rep in H.reps]


def relabel(T, labels):
    """The same position triples over another label list."""
    return TrianglePresentation(tuple(labels), T.out, T.third)


def project_F(T):
    """The pair set {(i,j) : (i,j,k) in T}, read from label triples."""
    return FSet.from_labels(T.labels, {(a, b) for a, b, _ in label_triples(T)})


def act(T, sigma, use_rho=False):
    """sigma T = {(si,sj,sk)} on label triples; with use_rho apply
    (i,j,k) -> (j,i,k) first."""
    lab = T.labels
    pos = {a: i for i, a in enumerate(lab)}
    trip = label_triples(T)
    if use_rho:
        trip = {(j, i, k) for i, j, k in trip}
    return TrianglePresentation.from_labels(
        lab,
        [(lab[sigma(pos[a])], lab[sigma(pos[b])], lab[sigma(pos[c])])
         for a, b, c in trip],
    )


def canonical_reps(labels, trip):
    """Least rotation of each orbit by position, sorted by position."""
    pos = {a: i for i, a in enumerate(labels)}

    def key(t):
        return (pos[t[0]], pos[t[1]], pos[t[2]])

    reps = {min(((i, j, k), (j, k, i), (k, i, j)), key=key) for i, j, k in trip}
    return sorted(reps, key=key)


def dump_document(F, T, meta):
    """Document text built from label pairs and label triples."""
    pos = {a: i for i, a in enumerate(T.labels)}
    blob = {
        "n": len(T.labels),
        "labels": list(T.labels),
        "F": [
            list(p)
            for p in sorted(label_pairs(F), key=lambda p: (pos[p[0]], pos[p[1]]))
        ],
        "T": [list(t) for t in canonical_reps(T.labels, label_triples(T))],
        "meta": meta,
    }
    return json.dumps(blob, sort_keys=True, indent=2) + "\n"


def format_table(T):
    """Rows grouped by first coordinate, triples sorted by second."""
    pos = {a: i for i, a in enumerate(T.labels)}
    rows = {}
    for t in label_triples(T):
        rows.setdefault(pos[t[0]], []).append(t)
    lines = []
    for i in sorted(rows):
        row = sorted(rows[i], key=lambda t: (pos[t[1]], pos[t[2]]))
        lines.append(" ".join(f"({a},{b},{c})" for a, b, c in row))
    return "\n".join(lines) + "\n"


def relators(T):
    """One canonical rotation per orbit, labels renamed to positions 1..n."""
    pos = {a: i for i, a in enumerate(T.labels)}
    return tuple(
        (pos[a] + 1, pos[b] + 1, pos[c] + 1)
        for a, b, c in canonical_reps(T.labels, label_triples(T))
    )


def export_presentation(T, format):
    """The two export texts from label-level relators."""
    n = len(T.labels)
    rels = relators(T)
    if format == "gap":
        words = ", ".join(f"F.{i}*F.{j}*F.{k}" for i, j, k in rels)
        return f"F := FreeGroup({n});\nG := F / [ {words} ];\n"
    blob = {"n": n, "relators": [list(r) for r in rels]}
    return json.dumps(blob, sort_keys=True) + "\n"


def verify(F, T):
    """Axiom violations found on label pairs and label triples, in position
    order through a label -> position dict."""
    pos = {a: i for i, a in enumerate(T.labels)}

    def key(p):
        return tuple(pos[a] for a in p)

    lpairs = label_pairs(F)
    ltrip = label_triples(T)
    out = []
    for a, b, c in sorted(ltrip, key=key):
        if (a, b) not in lpairs:
            out.append(Violation(1, (a, b, c)))
        if (b, c, a) not in ltrip:
            out.append(Violation(3, (a, b, c)))
    for p in sorted(lpairs, key=key):
        if sum(1 for t in ltrip if t[:2] == p) != 1:
            out.append(Violation(2, p))
    return out


# First label of the index set each published table lives on.
TABLE_STARTS = {1: 0, 2: 0, 3: 0, 4: 1, 5: 1}

_TRIPLE_RE = re.compile(r"\((-?\d+),(-?\d+),(-?\d+)\)")


def parse_table(text, start=0):
    """Parse emitted table text back into a TrianglePresentation."""
    triples = [tuple(map(int, t)) for t in _TRIPLE_RE.findall(text)]
    if not triples:
        raise ValueError("no triples found in table text")
    hi = max(max(t) for t in triples)
    labels = tuple(range(start, hi + 1))
    return TrianglePresentation.from_labels(labels, triples)


def table(which):
    """Return reference table 1..5 as a TrianglePresentation."""
    return parse_table(TABLE_TEXTS[which], TABLE_STARTS[which])

"""Presentation export and abelianization for the group presented by a
triangle presentation."""

from __future__ import annotations

import json
from functools import partial

from .record import Record
from .tripres import TrianglePresentation, rep_entries


def _relators(T: TrianglePresentation) -> list[tuple[int, int, int]]:
    """One canonical rotation per orbit, as 1-based positions, in walk order."""
    return list(filter(None, rep_entries(lambda *t: tuple(x + 1 for x in t), T.walk())))


def export_presentation(T: TrianglePresentation) -> str:
    """The JSON relator text of T: n and one relator per rotation orbit, in
    walk order."""
    blob = {"n": T.n, "relators": [list(r) for r in _relators(T)]}
    return json.dumps(blob, sort_keys=True) + "\n"


def gap_writer(n):
    """GAP's entry renderer, separator and assembler: the entry of a
    canonical triple is its relator word, "" for any other triple, and
    entries join by ", ".  The text is the free group on n generators over
    the relators of the join, whose parts it takes, as a list of parts."""
    gen = [f"F.{i}" for i in range(1, n + 1)]

    def relator(i, j, k):
        return f"{gen[i]}*{gen[j]}*{gen[k]}"

    def assemble(body, meta):
        return [f"F := FreeGroup({n});\nG := F / [ ", *body, " ];\n"]

    return partial(rep_entries, relator), ", ", assemble


def _snf_diagonal(mat, m, n):
    # Row and column operations over Z; the minimal pivot strictly shrinks
    # whenever a remainder or a non-dividing entry forces another pass.
    a = [row[:] for row in mat]
    diag = []
    t = 0
    while t < m and t < n:
        best, i0, j0 = 0, -1, -1
        for i in range(t, m):
            for j in range(t, n):
                v = abs(a[i][j])
                if v and (best == 0 or v < best):
                    best, i0, j0 = v, i, j
        if best == 0:
            break
        a[t], a[i0] = a[i0], a[t]
        for row in a:
            row[t], row[j0] = row[j0], row[t]
        dirty = False
        for i in range(t + 1, m):
            q = a[i][t] // a[t][t]
            if q:
                for j in range(t, n):
                    a[i][j] -= q * a[t][j]
            if a[i][t]:
                dirty = True
        for j in range(t + 1, n):
            q = a[t][j] // a[t][t]
            if q:
                for i in range(t, m):
                    a[i][j] -= q * a[i][t]
            if a[t][j]:
                dirty = True
        if dirty:
            continue
        stray = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t]:
                    stray = i
                    break
            if stray is not None:
                break
        if stray is not None:
            for j in range(t, n):
                a[t][j] += a[stray][j]
            continue
        diag.append(abs(a[t][t]))
        t += 1
    return diag


class Abelianization(Record, eq=True):
    """Torsion invariant factors in divisibility order, plus the free rank."""

    factors: tuple
    free_rank: int


def abelianization(T: TrianglePresentation) -> Abelianization:
    """Smith normal form of the relation matrix, one row e_i + e_j + e_k per
    rotation-orbit; exact integer arithmetic throughout."""
    rows = []
    for i, j, k in _relators(T):
        row = [0] * T.n
        for x in (i, j, k):
            row[x - 1] += 1
        rows.append(row)
    diag = _snf_diagonal(rows, len(rows), T.n)
    factors = tuple(d for d in diag if d != 1)
    return Abelianization(factors=factors, free_rank=T.n - len(diag))

"""Presentation export, abelianization, and bounded coset enumeration for
the group presented by a triangle presentation."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

from .tripres import TrianglePresentation, rep_entries


def _relators(T: TrianglePresentation) -> list[tuple[int, int, int]]:
    """One canonical rotation per orbit, as 1-based positions."""
    return [(i + 1, j + 1, k + 1) for i, j, k in T.canonical_reps()]


def export_presentation(T: TrianglePresentation, format: str = "gap") -> str:
    """Deterministic presentation text; same relator order in every format."""
    if format == "gap":
        entries, assemble = gap_writer(T.n)
        return assemble("".join(entries(T.canonical_reps())), None)
    if format == "json":
        blob = {"n": T.n, "relators": [list(r) for r in _relators(T)]}
        return json.dumps(blob, sort_keys=True) + "\n"
    raise ValueError(f"unknown format {format!r}")


def gap_writer(n):
    """GAP's entry renderer and assembler: the entry of a canonical triple
    is ", " and its relator word, and the text is the free group on n
    generators over the relators of the joined entries."""
    gen = [f"F.{i}" for i in range(1, n + 1)]

    def relator(i, j, k):
        return f", {gen[i]}*{gen[j]}*{gen[k]}"

    def assemble(body, meta):
        return f"F := FreeGroup({n});\nG := F / [ {body[2:]} ];\n"

    return partial(rep_entries, relator), assemble


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


@dataclass(frozen=True)
class Abelianization:
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


@dataclass(frozen=True)
class Exceeded:
    """Coset enumeration hit the table cap without closing."""

    max_cosets: int


def todd_coxeter(T: TrianglePresentation, subgroup_gens=(), max_cosets=10**6):
    """Index of the given subgroup by HLT coset enumeration, or Exceeded.

    Words are tuples over 1..n with negatives for inverses; the trivial
    subgroup gives the group order.  Scan order is fixed, so the outcome is
    deterministic for a given cap.  Kept for the octahedron link group claim
    (test_acceptance test_04).
    """
    n = T.n

    def col(x):
        return 2 * (x - 1) if x > 0 else 2 * (-x - 1) + 1

    def inv_col(c):
        return c ^ 1

    table = [[None] * (2 * n)]
    parent = [0]

    def rep(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    merge_queue = []

    def join(x, y):
        x, y = rep(x), rep(y)
        if x != y:
            if x > y:
                x, y = y, x
            parent[y] = x
            merge_queue.append(y)

    def process_merges():
        while merge_queue:
            dead = merge_queue.pop()
            keep = rep(dead)
            for c in range(2 * n):
                d = table[dead][c]
                if d is None:
                    continue
                d = rep(d)
                e = table[keep][c]
                if e is None:
                    table[keep][c] = d
                    if table[d][inv_col(c)] is None:
                        table[d][inv_col(c)] = keep
                else:
                    join(rep(e), d)

    def scan_and_fill(start, cols):
        # forward as far as possible, then backward; stalls define new cosets
        while True:
            f, i = rep(start), 0
            while i < len(cols) and table[f][cols[i]] is not None:
                f = rep(table[f][cols[i]])
                i += 1
            if i == len(cols):
                join(f, rep(start))
                process_merges()
                return True
            b, j = rep(start), len(cols)
            while j > i and table[b][inv_col(cols[j - 1])] is not None:
                b = rep(table[b][inv_col(cols[j - 1])])
                j -= 1
            if j == i + 1:
                table[f][cols[i]] = b
                table[b][inv_col(cols[i])] = f
                process_merges()
                return True
            if j == i:
                join(f, b)
                process_merges()
                return True
            if len(table) >= max_cosets:
                return False
            new = len(table)
            table.append([None] * (2 * n))
            parent.append(new)
            table[f][cols[i]] = new
            table[new][inv_col(cols[i])] = f

    rel_cols = [tuple(col(x) for x in r) for r in _relators(T)]
    for word in subgroup_gens:
        if not scan_and_fill(0, tuple(col(x) for x in word)):
            return Exceeded(max_cosets)
    alpha = 0
    while alpha < len(table):
        if rep(alpha) != alpha:
            alpha += 1
            continue
        for cols in rel_cols:
            if not scan_and_fill(alpha, cols):
                return Exceeded(max_cosets)
            if rep(alpha) != alpha:
                break
        # close the row: relators need not mention every generator
        for c in range(2 * n):
            if rep(alpha) != alpha:
                break
            if table[alpha][c] is None:
                if len(table) >= max_cosets:
                    return Exceeded(max_cosets)
                new = len(table)
                table.append([None] * (2 * n))
                parent.append(new)
                table[alpha][c] = new
                table[new][inv_col(c)] = alpha
        alpha += 1
    return sum(1 for c in range(len(table)) if rep(c) == c)

"""Presentation export, abelianization, and bounded coset enumeration for
the group presented by a triangle presentation."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .tripres import TrianglePresentation


@dataclass(frozen=True)
class PresentationDoc:
    """Generators a1..an with one length-3 relator per rotation-orbit, as
    1-based index triples in a fixed order."""

    n: int
    relators: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "relators", tuple(tuple(r) for r in self.relators)
        )
        for r in self.relators:
            if len(r) != 3 or any(not 1 <= i <= self.n for i in r):
                raise ValueError(f"bad relator {r} for n = {self.n}")


def presentation_doc(T: TrianglePresentation) -> PresentationDoc:
    """One canonical rotation per orbit, as 1-based positions."""
    relators = tuple((i + 1, j + 1, k + 1) for i, j, k in T.canonical_reps())
    return PresentationDoc(n=T.n, relators=relators)


def export_presentation(T: TrianglePresentation, format: str = "gap-like") -> str:
    """Deterministic presentation text; same relator order in every format."""
    doc = presentation_doc(T)
    if format == "gap-like":
        words = ", ".join(f"F.{i}*F.{j}*F.{k}" for i, j, k in doc.relators)
        return f"F := FreeGroup({doc.n});\nG := F / [ {words} ];\n"
    if format == "magma-like":
        gens = ",".join(f"a{i}" for i in range(1, doc.n + 1))
        words = ", ".join(f"a{i}*a{j}*a{k}" for i, j, k in doc.relators)
        return f"G<{gens}> := Group< {gens} | {words} >;\n"
    if format == "json":
        blob = {"n": doc.n, "relators": [list(r) for r in doc.relators]}
        return json.dumps(blob, sort_keys=True) + "\n"
    raise ValueError(f"unknown format {format!r}")


_GAP_RE = re.compile(r"F\.(\d+)\*F\.(\d+)\*F\.(\d+)")
_MAGMA_RE = re.compile(r"a(\d+)\*a(\d+)\*a(\d+)")


def parse_presentation(text: str, format: str = "gap-like") -> PresentationDoc:
    """Inverse of export_presentation for each of the three formats."""
    if format == "gap-like":
        head = re.search(r"FreeGroup\((\d+)\)", text)
        if head is None:
            raise ValueError("no FreeGroup header")
        rels = [tuple(int(x) for x in m) for m in _GAP_RE.findall(text)]
        return PresentationDoc(n=int(head.group(1)), relators=tuple(rels))
    if format == "magma-like":
        head = re.search(r"G<([^>]*)>", text)
        if head is None:
            raise ValueError("no generator list")
        n = len(head.group(1).split(","))
        rels = [tuple(int(x) for x in m) for m in _MAGMA_RE.findall(text)]
        return PresentationDoc(n=n, relators=tuple(rels))
    if format == "json":
        blob = json.loads(text)
        return PresentationDoc(
            n=blob["n"], relators=tuple(tuple(r) for r in blob["relators"])
        )
    raise ValueError(f"unknown format {format!r}")


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
    doc = presentation_doc(T)
    rows = []
    for i, j, k in doc.relators:
        row = [0] * doc.n
        for x in (i, j, k):
            row[x - 1] += 1
        rows.append(row)
    diag = _snf_diagonal(rows, len(rows), doc.n)
    factors = tuple(d for d in diag if d != 1)
    return Abelianization(factors=factors, free_rank=doc.n - len(diag))


@dataclass(frozen=True)
class Exceeded:
    """Coset enumeration hit the table cap without closing."""

    max_cosets: int


def todd_coxeter(T: TrianglePresentation, subgroup_gens=(), max_cosets=10**6):
    """Index of the given subgroup by HLT coset enumeration, or Exceeded.

    Words are tuples over 1..n with negatives for inverses; the trivial
    subgroup gives the group order.  Scan order is fixed, so the outcome is
    deterministic for a given cap.
    """
    doc = presentation_doc(T)
    n = doc.n

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

    rel_cols = [tuple(col(x) for x in r) for r in doc.relators]
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

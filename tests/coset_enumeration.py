"""Bounded Todd-Coxeter coset enumeration for the group a triangle
presentation presents: the check behind the octahedron link group claim
(test_acceptance test_04).  No command runs it."""

from trigon.grouptools import _relators
from trigon.record import Record
from trigon.tripres import TrianglePresentation


class Exceeded(Record, eq=True):
    """Coset enumeration hit the table cap without closing."""

    max_cosets: int


def todd_coxeter(T: TrianglePresentation, subgroup_gens=(), max_cosets=10**6):
    """Index of the given subgroup by HLT coset enumeration, or Exceeded.

    Words are tuples over 1..n with negatives for inverses; the trivial
    subgroup gives the group order.  Scan order is fixed, so the outcome is
    deterministic for a given cap.
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

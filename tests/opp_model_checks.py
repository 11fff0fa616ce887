"""The checks behind the coset-model-matches-subspace-model claim
(test_acceptance test_08): the opposition subgraph of the subspace model,
and a brute three-way incidence check of the coset model.  No command runs
them."""

from trigon.ffield import field_tables
from trigon.fgroup import make_opp_group
from trigon.oppmodel import _building_fset, _parabola_index
from trigon.pairset import from_F


def opp_graph_building(q):
    """Subgraph of the plane on the vertices opposite the base point-line
    pair."""
    return from_F(_building_fset(q))


def incidence_model_checks(q):
    """Brute three-way equivalence, over every pair of section representatives:
    the point and line cosets meet, the closed incidence formula vanishes, and
    g2 lies in g1 times the parabola, read from the parabola's right
    translations."""
    add, mul, _ = field_tables(q)
    neg = [row.index(0) for row in add]
    G = make_opp_group(q)
    rights = [G.right(_parabola_index(y, q, mul)) for y in range(q)]

    def times(u, v):
        return (add[u[0]][v[0]], add[u[1]][v[1]], add[add[u[2]][v[2]]][mul[u[0]][v[1]]])

    u1 = [(x, 0, 0) for x in range(q)]
    u2 = [(0, y, 0) for y in range(q)]
    reps = [(a // q, a // q, a % q) for a in range(q * q)]
    left = [frozenset(times(g, u) for u in u1) for g in reps]
    right = [frozenset(times(g, u) for u in u2) for g in reps]
    for a in range(q * q):
        y1, z1 = reps[a][1], reps[a][2]
        joined = {r[a] for r in rights}
        for b in range(q * q):
            y2, z2 = reps[b][1], reps[b][2]
            meets = not left[a].isdisjoint(right[b])
            # -z1 + z2 - y2*(-y1 + y2) = 0
            formula = z2 == add[z1][mul[y2][add[y2][neg[y1]]]]
            member = b in joined
            if not (meets == formula == member):
                return False
    return True

"""Group constructions, subgroups, cosets, inversion, opp group structure."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duality import NonAbelianGroup, is_abelian, mu_permutation
from trigon.fgroup import FiniteGroup, make_cyclic, make_opp_group, subgroup
from trigon.ffield import factor_prime_power, make_field
from trigon.oppmodel import opp_datum
from trigon.permgrp import Perm, closure_elements
from trigon.singer import quad_datum, singer_datum


def table_group(degree, gens):
    """Independent table-backed group from explicit permutations; the
    identity has the least images, so closure_elements puts it at 0."""
    perms = closure_elements(degree, gens)
    assert perms[0].is_identity()
    idx = {p.images: i for i, p in enumerate(perms)}
    table = [
        [idx[(a * b).images] for b in perms] for a in perms
    ]
    return FiniteGroup(
        n=len(perms), translation=lambda s: [row[s] for row in table]
    )


def brute_cosets(n, product, gens):
    """The subgroup H the generators make, closed under products until it
    stops growing; its left cosets {x*h : h in H}, numbered by rank of their
    minimum element; and those minima.  The oracle for subgroup."""
    members = {0}
    while True:
        grown = members | {product(h, g) for h in members for g in gens}
        if grown == members:
            break
        members = grown
    cosets = sorted(
        {frozenset(product(x, h) for h in members) for x in range(n)}, key=min
    )
    index = [None] * n
    for cid, coset in enumerate(cosets):
        for x in coset:
            index[x] = cid
    return tuple(sorted(members)), tuple(index), tuple(map(min, cosets))


def coset_data(h):
    return h.members, h.coset_index, h.reps


def order_census(G):
    counts = {}
    for a in range(G.n):
        k, b = 1, a
        while b != 0:
            b = G.mul(b, a)
            k += 1
        counts[k] = counts.get(k, 0) + 1
    return counts


def census_of_type(primaries):
    """Order census of a direct product of cyclic groups, brute force."""
    counts = {}
    for tup in itertools.product(*(range(m) for m in primaries)):
        k = math.lcm(
            1, *(m // math.gcd(m, t) for m, t in zip(primaries, tup))
        )
        counts[k] = counts.get(k, 0) + 1
    return counts


def test_cyclic_basics():
    g = make_cyclic(7)
    assert g.mul(3, 5) == 1
    assert g.inv(2) == 5
    assert g.right(0) == list(range(7))
    assert make_cyclic(1).n == 1


def test_opp_group_examples():
    g2 = make_opp_group(2)
    # (1,0)*(1,0) = (0, 0+0+1*1) = (0,1), and (0,1)^2 = (0,0): order 4
    assert g2.mul(2, 2) == 1
    assert g2.mul(1, 1) == 0
    assert g2.right(0) == list(range(4))
    g3 = make_opp_group(3)
    # (1,0)*(2,0) = (0, 1*2) = (0,2)
    assert g3.mul(3, 6) == 2


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_opp_group_axioms(q):
    g = make_opp_group(q)
    assert g.n == q * q
    assert is_abelian(g)
    elems = range(g.n)
    for a in elems:
        assert g.mul(0, a) == a == g.mul(a, 0)
        assert g.mul(a, g.inv(a)) == 0
        for b in elems:
            assert g.mul(a, b) == g.mul(b, a)
    # every triple up to q = 5; the first 25 elements above
    for a, b, c in itertools.product(range(min(g.n, 25)), repeat=3):
        assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_opp_group_matches_field_formula(q):
    # (y1,z1)(y2,z2) = (y1+y2, z1+z2+y1*y2) and (y,z)^-1 = (-y, y*y-z), in
    # field elements rather than index tables
    g = make_opp_group(q)
    elems = make_field(*factor_prime_power(q)).elements()
    coords = [(elems[a // q], elems[a % q]) for a in range(q * q)]

    def index(y, z):
        return y.index * q + z.index

    for a, (y1, z1) in enumerate(coords):
        assert g.inv(a) == index(-y1, y1 * y1 - z1)
        for b, (y2, z2) in enumerate(coords):
            assert g.mul(a, b) == index(y1 + y2, z1 + z2 + y1 * y2)


def table_opp_group(q):
    """The whole q^2 x q^2 multiplication table of the opposition group and
    its inverses, from the field's addition and multiplication tables; the
    oracle for the group's table-free products."""
    elems = make_field(*factor_prime_power(q)).elements()
    add = [[(x + y).index for y in elems] for x in elems]
    mul = [[(x * y).index for y in elems] for x in elems]
    table = []
    for a in range(q * q):
        y1, z1 = divmod(a, q)
        table.append([
            add[y1][y2] * q + add[add[z1][z2]][mul[y1][y2]]
            for y2 in range(q)
            for z2 in range(q)
        ])
    return table, [row.index(0) for row in table]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_opp_group_matches_the_table_oracle(q):
    g = make_opp_group(q)
    table, invs = table_opp_group(q)
    assert [g.inv(a) for a in range(g.n)] == invs
    for s in range(g.n):
        assert g.right(s) == [row[s] for row in table]
        assert [g.mul(s, b) for b in range(g.n)] == table[s]


def test_right_translation_is_built_once():
    g = make_cyclic(7)
    assert g.right(3) == [3, 4, 5, 6, 0, 1, 2]
    assert g.right(3) is g.right(3)
    assert g.right(0) == list(range(7))


@pytest.mark.parametrize(
    "q,expected",
    [(2, (4,)), (3, (3, 3)), (4, (4, 4)), (5, (5, 5)), (8, (4, 4, 4))],
)
def test_opp_group_primary_type(q, expected):
    # in characteristic 2 the squares (y,z)^2 = (0,y^2) are nontrivial for
    # y != 0, so the group picks up order-4 elements; a finite abelian group
    # is fixed up to isomorphism by how many elements it has of each order
    g = make_opp_group(q)
    assert g.n == math.prod(expected)
    assert order_census(g) == census_of_type(expected)


def test_subgroup_of_z21():
    g = make_cyclic(21)
    h = subgroup(g, [3])
    assert h.members == (0, 3, 6, 9, 12, 15, 18)
    assert h.order == 7 and h.index == 3
    assert h.reps == (0, 1, 2)
    assert h.coset_index[4] == h.coset_index[10] == h.coset_index[1]
    assert 6 in h and 5 not in h
    k = subgroup(g, [7])
    assert k.members == (0, 7, 14)
    assert k.index == 7


def test_cosets_of_a_non_normal_subgroup_are_left_cosets():
    # closure_elements sorts by images: element 2 is the transposition
    # (1, 0, 2), whose subgroup is not normal in S3
    s3 = table_group(3, [Perm((1, 0, 2)), Perm((1, 2, 0))])
    h = subgroup(s3, [2])
    assert h.members == (0, 2)
    assert coset_data(h) == brute_cosets(6, s3.mul, [2])
    right_cosets = {frozenset(s3.mul(a, x) for a in h.members) for x in range(6)}
    left_cosets = {frozenset(s3.mul(x, a) for a in h.members) for x in range(6)}
    assert right_cosets != left_cosets


@pytest.mark.parametrize("gens", [[], [1], [2], [3], [1, 2], [1, 2, 3]])
def test_cosets_of_the_klein_group(gens):
    klein = table_group(4, [Perm((1, 0, 3, 2)), Perm((2, 3, 0, 1))])
    assert klein.n == 4 and is_abelian(klein)
    assert coset_data(subgroup(klein, gens)) == brute_cosets(4, klein.mul, gens)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_opp_group_cosets_match_the_table_oracle(q):
    g = make_opp_group(q)
    table, _ = table_opp_group(q)

    def product(a, b):
        return table[a][b]

    elems = make_field(*factor_prime_power(q)).elements()
    parabola = [y.index * q + (y * y).index for y in elems]
    h = subgroup(g, parabola)
    assert h.order == g.n
    assert coset_data(h) == brute_cosets(g.n, product, parabola)
    for a in range(g.n):
        assert coset_data(subgroup(g, [a])) == brute_cosets(g.n, product, [a])


@pytest.mark.parametrize(
    "make, q, gens",
    [(singer_datum, 5, {1}), (quad_datum, 2, {1, 3}), (opp_datum, 7, set())],
    ids=["singer", "quad", "opp"],
)
def test_only_S_and_the_subgroup_generators_are_translated(make, q, gens):
    """Building the sign family, one twisted presentation and the pair set
    reads right translations by S and by the subgroup generators only, so
    no path multiplies over all of G.  quad_datum builds its H after the
    order-q^2 Singer datum's H = <1>."""
    d = make(q)
    signs = d.signs()
    signs.build(next(signs.choices()))
    d.F()
    assert set(d.G._rights) == set(d.S) | gens


def test_trivial_subgroup():
    g = make_cyclic(7)
    h = subgroup(g, [0])
    assert h.members == (0,)
    assert h.index == 7
    assert h.reps == tuple(range(7))


def test_subgroup_rejects_foreign_generator():
    with pytest.raises(ValueError):
        subgroup(make_cyclic(7), [7])


def test_mu_on_cyclic():
    g = make_cyclic(21)
    mu = mu_permutation(g)
    assert mu.images == tuple((-a) % 21 for a in range(21))
    assert (mu * mu).is_identity()


def test_mu_rejects_nonabelian():
    s3 = table_group(3, [Perm((1, 0, 2)), Perm((1, 2, 0))])
    assert s3.n == 6
    assert not is_abelian(s3)
    with pytest.raises(NonAbelianGroup):
        mu_permutation(s3)
    # inversion still reverses products
    for a in range(6):
        for b in range(6):
            assert s3.inv(s3.mul(a, b)) == s3.mul(s3.inv(b), s3.inv(a))
    assert any(
        s3.inv(s3.mul(a, b)) != s3.mul(s3.inv(a), s3.inv(b))
        for a in range(6)
        for b in range(6)
    )


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=40),
    data=st.data(),
)
def test_lagrange_on_cyclic(m, data):
    g = make_cyclic(m)
    gens = data.draw(
        st.lists(st.integers(min_value=0, max_value=m - 1), max_size=3)
    )
    h = subgroup(g, gens)
    assert m % h.order == 0
    assert coset_data(h) == brute_cosets(m, lambda a, b: (a + b) % m, gens)
    sizes = {}
    for cid in h.coset_index:
        sizes[cid] = sizes.get(cid, 0) + 1
    assert set(sizes.values()) == {h.order}
    for a in h.members:
        assert g.inv(a) in h.members
        for b in h.members:
            assert g.mul(a, b) in h.members

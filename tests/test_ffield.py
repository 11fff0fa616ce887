"""Field arithmetic, canonical moduli, index tables and relative traces."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from field_oracle import OracleField, multiplicative_order, naive_mul
from trigon import ffield
from trigon.errors import DegreeMismatch, NotPrime, ReduciblePolynomial
from trigon.ffield import (
    _polypowmod,
    conway_polynomial,
    factor_prime_power,
    field_tables,
    is_prime,
    make_field,
    poly_is_irreducible,
    poly_is_primitive,
    trace_to_subfield,
)


def naive_order_of_x(coeffs, p):
    e = len(coeffs) - 1
    x = [0, 1] + [0] * (e - 2)
    one = [1] + [0] * (e - 1)
    cur = list(x)
    for k in range(1, p**e):
        if cur == one:
            return k
        cur = naive_mul(cur, x, coeffs, p)
    return None


def test_smallest_primitive_cubic_over_gf3():
    """Brute-force scan of monic cubics over GF(3) in canonical order."""
    found = None
    for c2 in range(3):
        for c1 in range(3):
            for c0 in range(3):
                # same candidate ordering as the canonical modulus search
                coeffs = [(-c0) % 3, c1, (-c2) % 3, 1]
                has_root = any(
                    (a**3 + coeffs[2] * a**2 + coeffs[1] * a + coeffs[0]) % 3 == 0
                    for a in range(3)
                )
                if has_root:
                    continue
                if naive_order_of_x(coeffs, 3) == 26:
                    found = tuple(coeffs)
                    break
            if found:
                break
        if found:
            break
    assert found == (1, 2, 0, 1)
    assert conway_polynomial(3, 3) == found


def test_conway_reference_values():
    assert conway_polynomial(2, 1) == (1, 1)
    assert conway_polynomial(2, 2) == (1, 1, 1)
    assert conway_polynomial(2, 3) == (1, 1, 0, 1)
    assert conway_polynomial(2, 4) == (1, 1, 0, 0, 1)
    assert conway_polynomial(2, 6) == (1, 1, 0, 1, 1, 0, 1)
    assert conway_polynomial(3, 1) == (1, 1)
    assert conway_polynomial(3, 2) == (2, 2, 1)
    assert conway_polynomial(5, 1) == (3, 1)


def uncut_candidates(p, n):
    """Every monic degree-n polynomial in the standard ordering, c_0 free:
    the enumeration before the c_0 = g cut, kept as its oracle."""
    for word in itertools.product(range(p), repeat=n):
        coeffs = [0] * (n + 1)
        coeffs[n] = 1
        for idx, c in enumerate(word):
            i = n - 1 - idx
            coeffs[i] = ((-1) ** (n - i) * c) % p
        yield tuple(coeffs)


# (p, d) for every subfield GF(p^d) of the fields that opp (GF(q)) and
# singer and exotic (GF(q^3)) build at q <= 16; quad at q <= 4 builds the
# singer fields of q^2 <= 16
CONWAY_REACHED = sorted({
    (p, d)
    for p, e in map(factor_prime_power, (2, 3, 4, 5, 7, 8, 9, 11, 13, 16))
    for n in (e, 3 * e)
    for d in range(1, n + 1)
    if n % d == 0
})


@pytest.mark.parametrize("p, n", CONWAY_REACHED)
def test_conway_cut_matches_the_uncut_search(monkeypatch, p, n):
    cut = conway_polynomial(p, n)
    monkeypatch.setattr(ffield, "_conway_candidates", uncut_candidates)
    monkeypatch.setattr(ffield, "_CONWAY_TABLE", "\n")
    assert conway_polynomial.__wrapped__(p, n) == cut


# the table holds every GF(p^n) with n >= 2 and p^n <= 2^18
CONWAY_BOUND = 2**18
CONWAY_ROWS = [
    (int(p), int(n), tuple(map(int, coeffs)))
    for p, n, *coeffs in map(str.split, ffield._CONWAY_TABLE.split("\n")[1:-1])
]


@pytest.fixture
def searched(monkeypatch):
    """conway_polynomial with the table bypassed, so that every polynomial,
    each subfield's too, comes from the search; the cache is emptied
    before and after, so no searched value outlives the test."""
    monkeypatch.setattr(ffield, "_CONWAY_TABLE", "\n")
    conway_polynomial.cache_clear()
    yield conway_polynomial
    conway_polynomial.cache_clear()


def test_conway_table_is_the_search_up_to_its_bound(searched):
    """Each row is what the search finds, and the rows are the fields of the
    bound in (p, n) order.  On a mismatch the message lists the rows the
    table should hold: with the table's literal emptied, it lists them all,
    which is how the table is made."""
    want = [
        (p, n, searched(p, n))
        for p in range(2, math.isqrt(CONWAY_BOUND) + 1) if is_prime(p)
        for n in range(2, CONWAY_BOUND.bit_length())
        if p**n <= CONWAY_BOUND
    ]
    assert len(want) == 150
    wrong = [row for row in want if row not in CONWAY_ROWS]
    fields = {(p, n) for p, n, _ in want}
    extra = [(p, n) for p, n, _ in CONWAY_ROWS if (p, n) not in fields]
    assert CONWAY_ROWS == want, (
        "the table should hold these rows:\n"
        + "\n".join(" ".join(map(str, (p, n, *f))) for p, n, f in wrong)
        + f"\nand no rows for (p, n) = {extra}"
    )


def test_conway_table_rows_are_primitive():
    for p, n, f in CONWAY_ROWS:
        assert len(f) == n + 1 and f[-1] == 1, (p, n)
        assert poly_is_primitive(f, p), (p, n)


def test_conway_polys_are_primitive():
    for p, n in [(2, 6), (2, 9), (3, 6), (5, 3), (7, 3), (13, 3)]:
        f = conway_polynomial(p, n)
        assert poly_is_primitive(f, p)
        assert len(f) == n + 1 and f[-1] == 1


def test_make_field_defaults():
    f8 = make_field(2, 3)
    assert f8.modulus == (1, 1, 0, 1)
    assert f8.primitive
    f2 = make_field(2, 1)
    assert f2.modulus == (1, 1)
    assert f2.primitive
    assert field_tables(2)[2] == 1
    f13 = make_field(13, 1)
    assert f13.modulus == (11, 1)
    assert field_tables(13)[2] == 2
    assert multiplicative_order((2,), f13.modulus, 13) == 12


def test_make_field_validation():
    with pytest.raises(NotPrime):
        make_field(6, 2)
    with pytest.raises(ReduciblePolynomial):
        make_field(2, 2, modulus=[1, 0, 1])
    with pytest.raises(DegreeMismatch):
        make_field(2, 3, modulus=[1, 1, 1])
    with pytest.raises(ReduciblePolynomial):
        make_field(2, 2, modulus=[1, 1, 2])


def test_factor_prime_power():
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(13) == (13, 1)
    with pytest.raises(NotPrime):
        factor_prime_power(12)


def test_gf8_arithmetic_table():
    # element k has the binary digits of k as coefficients, so x is 2 and
    # x^3 = x + 1 is 3 with this modulus
    add, mul, g = field_tables(8)
    assert g == 2
    assert mul[mul[g][g]][g] == 3 == add[2][1]
    assert multiplicative_order((0, 1, 0), (1, 1, 0, 1), 2) == 7
    powers, x = [], 1
    for _ in range(7):
        powers.append(x)
        x = mul[x][g]
    assert sorted(powers) == list(range(1, 8))


PRIME_POWERS = [q for q in range(2, 82) if len(ffield.prime_factors(q)) == 1]


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_field_tables_match_the_oracle(q):
    """Every sum and product of field_tables(q) is the schoolbook one on the
    Conway polynomial, the tables obey the field axioms, and g is the
    residue of x, of order q - 1."""
    add, mul, g = field_tables(q)
    F = OracleField(q)
    els = F.elements
    assert add == tuple(tuple(F.index(F.add(x, y)) for y in els) for x in els)
    assert mul == tuple(tuple(F.index(F.mul(x, y)) for y in els) for x in els)
    x = (0, 1) if F.e > 1 else (-F.modulus[0] % F.p,)
    assert els[g] == x + (0,) * (F.e - len(x))
    assert multiplicative_order(els[g], F.modulus, F.p) == q - 1
    for a in range(q):
        assert add[a][0] == a == mul[a][1] and mul[a][0] == 0
        assert sorted(add[a]) == list(range(q))
        if a:
            assert sorted(mul[a]) == list(range(q))
        for b in range(q):
            assert add[a][b] == add[b][a] and mul[a][b] == mul[b][a]
    # associativity and distributivity on a sample of triples
    for a, b, c in itertools.islice(itertools.product(range(q), repeat=3), 0, None, 7):
        assert add[add[a][b]][c] == add[a][add[b][c]]
        assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
        assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


def test_field_tables_are_built_once():
    assert field_tables(9) is field_tables(9)


def test_trace_kernel_sizes():
    # the relative trace is a surjective F_q-linear map, kernel of size q^2
    for q in [2, 3, 4, 5]:
        p, e = factor_prime_power(q)
        big = make_field(p, 3 * e)
        zeros = sum(
            1 for x in OracleField(q**3).elements
            if not any(trace_to_subfield(big, x, q))
        )
        assert zeros == q * q


def test_trace_frobenius_invariance():
    q = 4
    big = make_field(2, 6)
    F = OracleField(64)
    x = (0, 1, 0, 0, 0, 0)
    for k in range(0, 63, 5):
        xk = F.pow(x, k)
        tr = trace_to_subfield(big, xk, q)
        assert trace_to_subfield(big, F.pow(xk, q), q) == tr == F.pow(tr, q)


def test_trace_degree_guard():
    f = make_field(2, 4)
    with pytest.raises(DegreeMismatch):
        trace_to_subfield(f, (1, 0, 0, 0), 2)
    with pytest.raises(DegreeMismatch, match="expected 6 coefficients, got 2"):
        trace_to_subfield(make_field(2, 6), (1, 0), 4)


def test_trace_frobenius_check_raises(monkeypatch):
    """A trace that lands outside the subfield is an ArithmeticError: with
    x^(q^2) dropped, x + x^q is not fixed by the Frobenius."""
    real = _polypowmod

    def no_square(a, n, mod, p):
        return () if n == 16 else real(a, n, mod, p)

    monkeypatch.setattr(ffield, "_polypowmod", no_square)
    with pytest.raises(ArithmeticError, match="outside the subfield"):
        trace_to_subfield(make_field(2, 6), (0, 1, 0, 0, 0, 0), 4)


@pytest.mark.parametrize("p,e", [(2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_poly_is_primitive_matches_multiplicative_order(p, e):
    """A monic irreducible f is primitive exactly when x has order p^e - 1
    in GF(p)[x]/f; reducible f are never primitive."""
    found = set()
    x = (0, 1) + (0,) * (e - 2)
    for tail in itertools.product(range(p), repeat=e):
        f = tail + (1,)
        if not poly_is_irreducible(f, p):
            assert not poly_is_primitive(f, p)
            continue
        primitive = multiplicative_order(x, f, p) == p**e - 1
        assert poly_is_primitive(f, p) == primitive
        if primitive:
            found.add(f)
    if (p, e) == (2, 3):
        assert found == {(1, 1, 0, 1), (1, 0, 1, 1)}


def test_irreducibility_matches_root_counting_deg2():
    for p in [2, 3, 5]:
        for c0 in range(p):
            for c1 in range(p):
                f = (c0, c1, 1)
                has_root = any((a * a + c1 * a + c0) % p == 0 for a in range(p))
                assert poly_is_irreducible(f, p) == (not has_root)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 26), st.integers(0, 26), st.integers(0, 26))
def test_field_axioms_gf27(i, j, k):
    """Associativity and distributivity on sampled triples."""
    add, mul, _ = field_tables(27)
    assert mul[mul[i][j]][k] == mul[i][mul[j][k]]
    assert mul[i][add[j][k]] == add[mul[i][j]][mul[i][k]]
    assert add[add[i][j]][k] == add[i][add[j][k]]


def table_power(mul, x, n):
    acc = 1
    for _ in range(n):
        acc = mul[acc][x]
    return acc


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 63), st.integers(1, 63))
def test_inverse_and_order_gf64(i, j):
    _, mul, _ = field_tables(64)
    # x^62 is the inverse of a nonzero x of GF(64)
    inv_i, inv_j = table_power(mul, i, 62), table_power(mul, j, 62)
    assert mul[i][inv_i] == 1
    assert table_power(mul, mul[i][j], 62) == mul[inv_j][inv_i]
    x = OracleField(64).elements[i]
    assert multiplicative_order(x, make_field(2, 6).modulus, 2) in {1, 3, 7, 9, 21, 63}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 63), st.integers(0, 63))
def test_trace_additivity_gf64(i, j):
    f, F = make_field(2, 6), OracleField(64)
    x, y = F.elements[i], F.elements[j]
    assert trace_to_subfield(f, F.add(x, y), 4) == F.add(
        trace_to_subfield(f, x, 4), trace_to_subfield(f, y, 4)
    )

"""Field arithmetic, canonical moduli and relative traces."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigon import ffield
from trigon.ffield import (
    DegreeMismatch,
    DivisionByZero,
    MixedFields,
    NotPrime,
    ReduciblePolynomial,
    ZeroElement,
    conway_polynomial,
    factor_prime_power,
    make_field,
    multiplicative_order,
    poly_is_irreducible,
    poly_is_primitive,
    trace_to_subfield,
)


def naive_mul(a, b, coeffs, p):
    """Schoolbook multiply-and-reduce, independent of the library internals."""
    e = len(coeffs) - 1
    out = [0] * (2 * e - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    for k in range(2 * e - 2, e - 1, -1):
        lead = out[k]
        if lead:
            out[k] = 0
            for i in range(e):
                out[k - e + i] = (out[k - e + i] - lead * coeffs[i]) % p
    return out[:e]


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
    assert conway_polynomial.__wrapped__(p, n) == cut


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
    assert f2.generator().coeffs == (1,)
    f13 = make_field(13, 1)
    assert f13.modulus == (11, 1)
    assert f13.generator().coeffs == (2,)
    assert multiplicative_order(f13.generator()) == 12


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
    f = make_field(2, 3)
    a = f.generator()
    # x^3 = x + 1 with this modulus
    assert (a**3).coeffs == (1, 1, 0)
    assert multiplicative_order(a) == 7
    powers = [a**k for k in range(7)]
    assert len(set(powers)) == 7


def test_element_indexing_roundtrip():
    f = make_field(3, 2)
    for k in range(9):
        assert f.from_index(k).index == k
    assert len(f.elements()) == 9


def test_division_and_errors():
    f = make_field(5, 1)
    two = f.from_index(2)
    three = f.from_index(3)
    assert (two * three).coeffs == (1,)
    assert (two / two) == f.one()
    with pytest.raises(DivisionByZero):
        f.zero().inverse()
    with pytest.raises(ZeroElement):
        multiplicative_order(f.zero())
    g = make_field(7, 1)
    with pytest.raises(MixedFields):
        _ = two + g.one()


def test_trace_kernel_sizes():
    # the relative trace is a surjective F_q-linear map, kernel of size q^2
    for q in [2, 3, 4, 5]:
        p, e = factor_prime_power(q)
        big = make_field(p, 3 * e)
        zeros = sum(
            1 for x in big.elements() if trace_to_subfield(x, q).is_zero()
        )
        assert zeros == q * q


def test_trace_frobenius_invariance():
    q = 4
    big = make_field(2, 6)
    for k in range(0, 63, 5):
        x = big.generator() ** k
        assert trace_to_subfield(x**q, q) == trace_to_subfield(x, q) ** q


def test_trace_degree_guard():
    f = make_field(2, 4)
    with pytest.raises(DegreeMismatch):
        trace_to_subfield(f.one(), 2)


@pytest.mark.parametrize("p,e", [(2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_poly_is_primitive_matches_multiplicative_order(p, e):
    """A monic irreducible f is primitive exactly when x has order p^e - 1
    in GF(p)[x]/f; reducible f are never primitive."""
    found = set()
    for tail in itertools.product(range(p), repeat=e):
        f = tail + (1,)
        if not poly_is_irreducible(f, p):
            assert not poly_is_primitive(f, p)
            continue
        x = make_field(p, e, modulus=f).from_index(p)
        primitive = multiplicative_order(x) == p**e - 1
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
    f = make_field(3, 3)
    x, y, z = f.from_index(i), f.from_index(j), f.from_index(k)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) + z == x + (y + z)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 63), st.integers(1, 63))
def test_inverse_and_order_gf64(i, j):
    f = make_field(2, 6)
    x, y = f.from_index(i), f.from_index(j)
    assert x * x.inverse() == f.one()
    assert (x * y).inverse() == y.inverse() * x.inverse()
    assert multiplicative_order(x) in {1, 3, 7, 9, 21, 63}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 63), st.integers(0, 63))
def test_trace_additivity_gf64(i, j):
    f = make_field(2, 6)
    x, y = f.from_index(i), f.from_index(j)
    assert trace_to_subfield(x + y, 4) == trace_to_subfield(x, 4) + trace_to_subfield(y, 4)

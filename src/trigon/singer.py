"""Difference-set data on the Singer cycle of a projective plane."""

from __future__ import annotations

from collections import Counter

from .ffield import NotPrimitive, factor_prime_power, make_field, trace_to_subfield
from .fgroup import Datum, lambda_orbits, make_cyclic, subgroup
from .tripres import CheckFailed


def r_of_q(q):
    """Count of length-3 folding orbits on the order-q difference set."""
    factor_prime_power(q)
    rem = q % 3
    if rem == 2:
        return (q + 1) // 3
    if rem == 0:
        return q // 3
    return (q - 1) // 3


def _trace_zero_exponents(gf, q, m):
    # The trace to GF(q) is GF(p)-linear, so a table of basis traces turns
    # the scan over alpha^l into coefficient dot products.
    deg = gf.e
    p = gf.p
    basis = []
    for i in range(deg):
        coeffs = tuple(1 if j == i else 0 for j in range(deg))
        basis.append(trace_to_subfield(gf.element(coeffs), q).coeffs)
    out = []
    x = gf.one()
    alpha = gf.generator()
    for l in range(m):
        acc = [0] * deg
        for c, tvec in zip(x.coeffs, basis):
            if c:
                for j, t in enumerate(tvec):
                    if t:
                        acc[j] = (acc[j] + c * t) % p
        if not any(acc):
            out.append(l)
        x = x * alpha
    return tuple(out)


def singer_datum(q, modulus=None):
    """Difference set S = {l : Tr(alpha^l) = 0} for a primitive alpha of the
    cubic extension inside G = Z/(q^2+q+1), folded by l -> q*l; H is all of
    G, so each length-3 folding orbit carries one sign."""
    p, e = factor_prime_power(q)
    gf = make_field(p, 3 * e, modulus)
    if not gf.primitive:
        raise NotPrimitive("the cubic extension needs a primitive modulus")
    m = q * q + q + 1
    S = _trace_zero_exponents(gf, q, m)
    if len(S) != q + 1:
        raise CheckFailed(f"difference set size {len(S)} != q+1")
    lam = {s: (q * s) % m for s in S}
    if set(lam.values()) != set(S):
        raise CheckFailed("multiplication by q does not permute the difference set")
    lengths = Counter(map(len, lambda_orbits(S, lam)))
    if set(lengths) - {1, 3}:
        raise CheckFailed("a folding orbit has length other than 1 or 3")
    if lengths[3] != r_of_q(q):
        raise CheckFailed(f"{lengths[3]} length-3 orbits, not r(q) = {r_of_q(q)}")
    G = make_cyclic(m)
    return Datum(q=q, G=G, S=S, H=subgroup(G, [1]), lam=lam)


def quad_datum(q, modulus=None):
    """The order-q^2 datum with its H replaced by the subgroup of order
    q^2+q+1 of Z/(q^4+q^2+1), the exponents divisible by q^2-q+1, which
    holds q+1 points of S and r(q) length-3 folding orbits."""
    base = singer_datum(q * q, modulus)
    G, S, lam = base.G, base.S, base.lam
    H = subgroup(G, [q * q - q + 1])
    if H.order != q * q + q + 1:
        raise CheckFailed(f"|H| = {H.order} != q^2+q+1")
    s_in = [s for s in S if s in H]
    if len(s_in) != q + 1:
        raise CheckFailed(f"|S meet H| = {len(s_in)} != q+1")
    o_in = [o for o in lambda_orbits(S, lam)
            if len(o) == 3 and all(s in H for s in o)]
    if len(o_in) != r_of_q(q):
        raise CheckFailed(f"{len(o_in)} orbits inside H, not r(q) = {r_of_q(q)}")
    return Datum(q=q, G=G, S=S, H=H, lam=lam)

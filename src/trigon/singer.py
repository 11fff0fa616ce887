"""Difference-set data on the Singer cycle of a projective plane."""

from __future__ import annotations

from dataclasses import dataclass

from .ffield import (
    FieldElement,
    NotPrimitive,
    factor_prime_power,
    make_field,
    trace_to_subfield,
)
from .fgroup import FiniteGroup, SubgroupDatum, make_cyclic, mu_permutation, subgroup
from .linkgraph import FSet
from .tripres import CheckFailed, SignFamily, TrianglePresentation, _image, lambda_orbits


def r_of_q(q):
    """Count of length-3 folding orbits on the order-q difference set."""
    factor_prime_power(q)
    rem = q % 3
    if rem == 2:
        return (q + 1) // 3
    if rem == 0:
        return q // 3
    return (q - 1) // 3


@dataclass(frozen=True, eq=False)
class SingerDatum:
    """Difference set of the plane of order q inside Z/(q^2+q+1), with the
    multiplication-by-q folding map and its orbit split."""

    q: int
    p: int
    e: int
    m: int
    G: FiniteGroup
    S: tuple
    alpha: FieldElement
    lam: dict
    orbits: tuple
    O: tuple
    fixed_points: tuple

    def F(self):
        """Pair set {(x, x+s)} whose graph is the plane's incidence graph."""
        pairs = frozenset(p for s in self.S for p in enumerate(self.G.right(s)))
        return FSet(tuple(range(self.m)), pairs)

    def signs(self):
        """One sign per length-3 orbit, keyed by its minimum."""
        return SignFamily(self.G, self.S, self.lam, subgroup(self.G, [1 % self.m]))


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
    cubic extension, folded by l -> q*l."""
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
    orbits = tuple(lambda_orbits(S, lam))
    threes = tuple(o for o in orbits if len(o) == 3)
    fixed = tuple(o[0] for o in orbits if len(o) == 1)
    if len(threes) + len(fixed) != len(orbits):
        raise CheckFailed("a folding orbit has length other than 1 or 3")
    if len(threes) != r_of_q(q):
        raise CheckFailed(f"{len(threes)} length-3 orbits, not r(q) = {r_of_q(q)}")
    return SingerDatum(
        q=q,
        p=p,
        e=e,
        m=m,
        G=make_cyclic(m),
        S=S,
        alpha=gf.generator(),
        lam=lam,
        orbits=orbits,
        O=threes,
        fixed_points=fixed,
    )


def murho_dual(T, G):
    """Transpose the first two slots of every triple, then relabel each
    index by inversion in G; an involution that flips every kappa sign.
    Backs the duality claim (test_06)."""
    if T.n != G.n:
        raise ValueError("presentation labels do not match the group order")
    mu = mu_permutation(G).images
    return TrianglePresentation(T.labels, _image(T.triples, mu, use_rho=True))


@dataclass(frozen=True, eq=False)
class QuadDatum:
    """Order-q^2 difference set together with the norm-image subgroup H of
    order q^2+q+1 inside Z/(q^4+q^2+1)."""

    q: int
    base: SingerDatum
    H: SubgroupDatum
    S_in_H: tuple
    O_in_H: tuple

    @property
    def G(self):
        return self.base.G

    @property
    def m(self):
        return self.base.m

    def F(self):
        return self.base.F()

    def signs(self):
        """One sign per coset of H and length-3 orbit inside H, keyed by
        (coset representative, orbit minimum)."""
        b = self.base
        return SignFamily(b.G, b.S, b.lam, self.H)


def quad_datum(q, modulus=None):
    """Mark, inside the order-q^2 datum, the subgroup H of exponents divisible
    by q^2-q+1 and the folding orbits that land in it."""
    base = singer_datum(q * q, modulus)
    H = subgroup(base.G, [q * q - q + 1])
    if H.order != q * q + q + 1:
        raise CheckFailed(f"|H| = {H.order} != q^2+q+1")
    s_in = tuple(s for s in base.S if s in H)
    if len(s_in) != q + 1:
        raise CheckFailed(f"|S meet H| = {len(s_in)} != q+1")
    o_in = tuple(o for o in base.O if all(s in H for s in o))
    if len(o_in) != r_of_q(q):
        raise CheckFailed(f"{len(o_in)} orbits inside H, not r(q) = {r_of_q(q)}")
    return QuadDatum(q=q, base=base, H=H, S_in_H=s_in, O_in_H=o_in)

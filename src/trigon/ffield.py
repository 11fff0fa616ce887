"""Exact arithmetic in small finite fields GF(p^e).

Elements are dense coefficient vectors over GF(p), low degree first, reduced
modulo a monic polynomial.  The default modulus is the Conway polynomial of
the requested degree, computed on the fly.  That choice is compatible across
subfields, so trace computations against a fixed canonical generator give
reproducible results.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .record import Record


class NotPrime(ValueError):
    pass


class ReduciblePolynomial(ValueError):
    pass


class NotPrimitive(ValueError):
    pass


class DegreeMismatch(ValueError):
    pass


class MixedFields(ValueError):
    pass


class ZeroElement(ValueError):
    pass


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_factors(n: int) -> list[int]:
    """Sorted distinct prime factors of n, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def factor_prime_power(q: int) -> tuple[int, int]:
    """Write q = p^e with p prime, or raise NotPrime."""
    ps = prime_factors(q)
    if len(ps) != 1:
        raise NotPrime(f"{q} is not a prime power")
    p = ps[0]
    e = 0
    while q > 1:
        q //= p
        e += 1
    return p, e


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p), coefficients low degree first


def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _polymulmod(a, b, mod, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    d = len(mod) - 1
    while len(out) > d:
        lead = out.pop()
        if lead:
            for k in range(d):
                out[-d + k] = (out[-d + k] - lead * mod[k]) % p
    return _trim(out)


def _polypowmod(a, n, mod, p):
    r = (1,)
    b = a
    while n:
        if n & 1:
            r = _polymulmod(r, b, mod, p)
        b = _polymulmod(b, b, mod, p)
        n >>= 1
    return r


def _polysub(a, b, p):
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    return _trim((x - y) % p for x, y in zip(a, b))


def _polydivmod(a, b, p):
    a = list(_trim(a))
    binv = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        if a[-1] == 0:
            a.pop()
            continue
        c = a[-1] * binv % p
        sh = len(a) - len(b)
        q[sh] = c
        for i, y in enumerate(b):
            a[sh + i] = (a[sh + i] - c * y) % p
        a.pop()
    return _trim(q), _trim(a)


def _polygcd(a, b, p):
    a, b = _trim(a), _trim(b)
    while b:
        _, r = _polydivmod(a, b, p)
        a, b = b, r
    if a:
        inv = pow(a[-1], p - 2, p)
        a = tuple(c * inv % p for c in a)
    return a


def poly_is_irreducible(coeffs, p: int) -> bool:
    """Whether a monic polynomial over GF(p) is irreducible."""
    f = tuple(c % p for c in coeffs)
    n = len(f) - 1
    if n < 1 or f[-1] != 1:
        return False
    if n == 1:
        return True
    x = (0, 1)
    xp = x
    for _ in range(n // 2):
        xp = _polypowmod(xp, p, f, p)
        if len(_polygcd(_polysub(xp, x, p), f, p)) > 1:
            return False
    return True


def poly_is_primitive(coeffs, p: int) -> bool:
    """Whether the residue of x mod a monic polynomial generates GF(p^deg)^x."""
    f = tuple(c % p for c in coeffs)
    n = len(f) - 1
    if n == 1:
        r = (-f[0]) % p
        if r == 0:
            return False
        order, y = 1, r
        while y != 1:
            y = y * r % p
            order += 1
        return order == p - 1
    if not poly_is_irreducible(f, p):
        return False
    big = p**n - 1
    for r in prime_factors(big):
        if _polypowmod((0, 1), big // r, f, p) == (1,):
            return False
    return True


def _conway_candidates(p, n):
    # Candidates in the standard ordering: f(x) = sum_i (-1)^(n-i) c_i x^i with
    # the word (c_{n-1}, ..., c_0) increasing lexicographically.  c_0 is the
    # norm of the root down to GF(p), for a Conway root the root g of x - g,
    # the degree-1 Conway polynomial; so for n > 1 only c_0 = g is tried.
    lasts = range(p) if n == 1 else [-conway_polynomial(p, 1)[0] % p]
    for word in product(*[range(p)] * (n - 1), lasts):
        coeffs = [0] * (n + 1)
        coeffs[n] = 1
        for idx, c in enumerate(word):
            i = n - 1 - idx
            coeffs[i] = ((-1) ** (n - i) * c) % p
        yield tuple(coeffs)


@lru_cache(maxsize=None)
def conway_polynomial(p: int, n: int) -> tuple[int, ...]:
    """Conway polynomial of GF(p^n), coefficients low degree first."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    divisors = sorted({n // r for r in prime_factors(n)}) if n > 1 else []
    subs = [(d, conway_polynomial(p, d)) for d in divisors]
    big = p**n - 1
    for f in _conway_candidates(p, n):
        if not poly_is_primitive(f, p):
            continue
        ok = True
        for d, fd in subs:
            # the norm of the root down to GF(p^d) must be a root of fd
            beta = _polypowmod((0, 1), big // (p**d - 1), f, p)
            acc, power = (), (1,)
            for c in fd:
                if c:
                    acc = _polysub(acc, tuple(-u * c for u in power), p)
                power = _polymulmod(power, beta, f, p)
            if acc:
                ok = False
                break
        if ok:
            return f
    raise RuntimeError(f"no candidate found for p={p} n={n}")


# ---------------------------------------------------------------------------


class FieldSpec(Record, eq=True):
    """A concrete model of GF(p^e) as GF(p)[x] modulo a monic polynomial."""

    p: int
    e: int
    modulus: tuple[int, ...]
    primitive: bool

    @property
    def order(self) -> int:
        return self.p**self.e

    def zero(self) -> FieldElement:
        return FieldElement(self, (0,) * self.e)

    def one(self) -> FieldElement:
        return FieldElement(self, (1,) + (0,) * (self.e - 1))

    def generator(self) -> FieldElement:
        """The residue class of x."""
        if self.e == 1:
            return FieldElement(self, ((-self.modulus[0]) % self.p,))
        return FieldElement(self, (0, 1) + (0,) * (self.e - 2))

    def element(self, coeffs) -> FieldElement:
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) != self.e:
            raise DegreeMismatch(
                f"expected {self.e} coefficients, got {len(coeffs)}"
            )
        return FieldElement(self, coeffs)

    def from_index(self, k: int) -> FieldElement:
        """Element number k in base-p digit order, 0 <= k < order."""
        if not 0 <= k < self.order:
            raise ValueError(f"index {k} out of range")
        digits = []
        for _ in range(self.e):
            digits.append(k % self.p)
            k //= self.p
        return FieldElement(self, tuple(digits))

    def elements(self):
        return [self.from_index(k) for k in range(self.order)]

    def __repr__(self):
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"


class FieldElement:
    """An element of a FieldSpec, a dense coefficient vector."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    def _check(self, other) -> FieldElement:
        if not isinstance(other, FieldElement):
            raise TypeError(f"cannot combine field element with {other!r}")
        if other.field != self.field:
            raise MixedFields(f"{self.field} vs {other.field}")
        return other

    @property
    def index(self) -> int:
        k = 0
        for c in reversed(self.coeffs):
            k = k * self.field.p + c
        return k

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other):
        other = self._check(other)
        p = self.field.p
        return FieldElement(
            self.field,
            tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other):
        other = self._check(other)
        p = self.field.p
        return FieldElement(
            self.field,
            tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        other = self._check(other)
        f = self.field
        raw = _polymulmod(self.coeffs, other.coeffs, f.modulus, f.p)
        return FieldElement(f, raw + (0,) * (f.e - len(raw)))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"negative exponent {n}")
        f = self.field
        raw = _polypowmod(self.coeffs, n, f.modulus, f.p)
        return FieldElement(f, raw + (0,) * (f.e - len(raw)))

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return f"{self.field}:{list(self.coeffs)}"


def make_field(p: int, e: int, modulus=None) -> FieldSpec:
    """Build GF(p^e).  With modulus None the Conway polynomial is used, so
    generator() is a fixed primitive element even for prime fields."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if e < 1:
        raise ValueError("degree must be positive")
    if modulus is None:
        mod = conway_polynomial(p, e)
    else:
        mod = tuple(int(c) % p for c in modulus)
        if len(mod) != e + 1:
            raise DegreeMismatch(f"modulus degree {len(mod) - 1}, expected {e}")
        if mod[-1] != 1:
            raise ReduciblePolynomial("modulus must be monic")
        if e >= 2 and not poly_is_irreducible(mod, p):
            raise ReduciblePolynomial(f"{list(mod)} is reducible over GF({p})")
    primitive = poly_is_primitive(mod, p)
    return FieldSpec(p=p, e=e, modulus=mod, primitive=primitive)


def multiplicative_order(x: FieldElement) -> int:
    """Order of x in the multiplicative group; kept as the tests' oracle for
    poly_is_primitive."""
    if x.is_zero():
        raise ZeroElement("zero has no multiplicative order")
    n = x.field.order - 1
    order = n
    for r in prime_factors(n):
        while order % r == 0 and (x ** (order // r)) == x.field.one():
            order //= r
    return order


def trace_to_subfield(x: FieldElement, q: int) -> FieldElement:
    """Relative trace x + x^q + x^(q^2) down to the order-q subfield.

    The trace is the cubic one, so the ambient field must have order q^3.  The
    result is returned inside the ambient field after asserting it is fixed by
    the subfield Frobenius."""
    spec = x.field
    if q < 2 or spec.order != q**3:
        raise DegreeMismatch(
            f"field order {spec.order} is not the cube of {q}"
        )
    t = x + x**q + x ** (q * q)
    if t**q != t:
        raise ArithmeticError("trace landed outside the subfield")
    return t

"""Exact arithmetic in small finite fields GF(p^e).

An element is a tuple of its coefficients over GF(p), low degree first,
reduced modulo a monic polynomial, or, in field_tables, the index whose
base-p digits those coefficients are.  The default modulus is the Conway
polynomial of the requested degree.  That choice is compatible across
subfields, so trace computations against a fixed canonical generator give
reproducible results.
A table at the end of this module holds the Conway polynomial of every
GF(p^n) with n >= 2 and p^n <= 2^18; any other is searched for in the
standard ordering of the candidates, its subfields' polynomials first.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .errors import DegreeMismatch, NotPrime, ReduciblePolynomial
from .record import Record


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
    """Conway polynomial of GF(p^n), coefficients low degree first: the row
    of _CONWAY_TABLE where it has one, else the first candidate in the
    standard ordering that is primitive and compatible with the Conway
    polynomials of the maximal subfields."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    at = _CONWAY_TABLE.find(f"\n{p} {n} ")
    if at >= 0:
        row = _CONWAY_TABLE[at:_CONWAY_TABLE.index("\n", at + 1)]
        return tuple(map(int, row.split()[2:]))
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


def make_field(p: int, e: int, modulus=None) -> FieldSpec:
    """Build GF(p^e).  With modulus None the Conway polynomial is used, so
    the residue of x is a fixed primitive element even for prime fields."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if e < 1:
        raise ValueError("degree must be positive")
    if modulus is None:
        # a Conway polynomial is primitive by definition, and conway_polynomial
        # only returns primitive candidates, so it is not tested again
        return FieldSpec(p=p, e=e, modulus=conway_polynomial(p, e), primitive=True)
    mod = tuple(int(c) % p for c in modulus)
    if len(mod) != e + 1:
        raise DegreeMismatch(f"modulus degree {len(mod) - 1}, expected {e}")
    if mod[-1] != 1:
        raise ReduciblePolynomial("modulus must be monic")
    if e >= 2 and not poly_is_irreducible(mod, p):
        raise ReduciblePolynomial(f"{list(mod)} is reducible over GF({p})")
    return FieldSpec(p=p, e=e, modulus=mod, primitive=poly_is_primitive(mod, p))


def times_x(coeffs, modulus, p) -> tuple:
    """The e coefficients of coeffs times x modulo the monic degree-e
    modulus: a shift up one degree, then one subtraction of the modulus
    times the coefficient shifted out."""
    top = coeffs[-1]
    shifted = (0, *coeffs[:-1])
    if not top:
        return shifted
    return tuple((c - top * m) % p for c, m in zip(shifted, modulus))


@lru_cache(maxsize=None)
def field_tables(q: int) -> tuple[tuple, tuple, int]:
    """(add, mul, g): the addition and multiplication tables of GF(q) on its
    Conway polynomial, add[a][b] and mul[a][b] the index of the sum and of
    the product, and g the index of the residue of x, a primitive element.
    Element k has the base-p digits of k as its coefficients, low degree
    first, so 0 and 1 are zero and one.  The tables are tuples, as every
    caller shares them."""
    p, e = factor_prime_power(q)
    mod = conway_polynomial(p, e)
    # k = low + n*top with low < n = p^(e-1): a sum adds the low parts in
    # GF(p^(e-1)) and the top digits mod p
    add = [[(a + b) % p for b in range(p)] for a in range(p)]
    for n in (p ** k for k in range(1, e)):
        add = [
            [x + n * ((top + b) % p) for b in range(p) for x in add[low]]
            for top in range(p) for low in range(n)
        ]
    # x^k for k < q - 1 by repeated times_x, numbered as their digits
    weights = [p ** i for i in range(e)]
    exp, x = [], (1,) + (0,) * (e - 1)
    for _ in range(q - 1):
        exp.append(sum(map(int.__mul__, x, weights)))
        x = times_x(x, mod, p)
    if len(set(exp)) != q - 1:
        raise ArithmeticError(f"x is not primitive modulo {list(mod)}")
    log = [0] * q
    for k, a in enumerate(exp):
        log[a] = k
    exp += exp
    logs = log[1:]
    mul = [[0] * q] + [[0, *[exp[i + j] for j in logs]] for i in logs]
    return tuple(map(tuple, add)), tuple(map(tuple, mul)), exp[1]


def trace_to_subfield(gf: FieldSpec, coeffs, q: int) -> tuple:
    """Coefficients of the relative trace x + x^q + x^(q^2) of the element
    with these coefficients down to the order-q subfield.

    The trace is the cubic one, so the field must have order q^3.  The
    result is returned inside the field after checking it is fixed by the
    subfield Frobenius."""
    if q < 2 or gf.p**gf.e != q**3:
        raise DegreeMismatch(
            f"field order {gf.p**gf.e} is not the cube of {q}"
        )
    if len(coeffs) != gf.e:
        raise DegreeMismatch(f"expected {gf.e} coefficients, got {len(coeffs)}")
    mod, p, e = gf.modulus, gf.p, gf.e

    def power(c, n):
        raw = _polypowmod(c, n, mod, p)
        return raw + (0,) * (e - len(raw))

    x = tuple(coeffs)
    t = tuple(
        (a + b + c) % p for a, b, c in zip(x, power(x, q), power(x, q * q))
    )
    if power(t, q) != t:
        raise ArithmeticError("trace landed outside the subfield")
    return t


# The Conway polynomial of every GF(p^n) with n >= 2 and p^n <= 2^18, one
# line "p n c_0 ... c_n" each, coefficients low degree first: 150 rows, which
# the search above re-derives in 1.9 s (GF(2^18) alone in 1.2-1.6 s, GF(3^6)
# in 10 ms).  conway_polynomial finds a row with str.find; one string
# compiles in ~0.14 ms, where a dict of tuples took ~1.6 ms for half as many
# rows.  tests/test_ffield.py checks every row against the search and prints
# the row the table should hold on a mismatch.
_CONWAY_TABLE = """
2 2 1 1 1
2 3 1 1 0 1
2 4 1 1 0 0 1
2 5 1 0 1 0 0 1
2 6 1 1 0 1 1 0 1
2 7 1 1 0 0 0 0 0 1
2 8 1 0 1 1 1 0 0 0 1
2 9 1 0 0 0 1 0 0 0 0 1
2 10 1 1 1 1 0 1 1 0 0 0 1
2 11 1 0 1 0 0 0 0 0 0 0 0 1
2 12 1 1 0 1 0 1 1 1 0 0 0 0 1
2 13 1 1 0 1 1 0 0 0 0 0 0 0 0 1
2 14 1 0 0 1 0 1 0 1 0 0 0 0 0 0 1
2 15 1 0 1 0 1 1 0 0 0 0 0 0 0 0 0 1
2 16 1 0 1 1 0 1 0 0 0 0 0 0 0 0 0 0 1
2 17 1 0 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0 1
2 18 1 1 0 0 0 0 0 0 0 0 1 0 1 0 0 0 0 0 1
3 2 2 2 1
3 3 1 2 0 1
3 4 2 0 0 2 1
3 5 1 2 0 0 0 1
3 6 2 2 1 0 2 0 1
3 7 1 0 2 0 0 0 0 1
3 8 2 2 2 0 1 2 0 0 1
3 9 1 1 2 2 0 0 0 0 0 1
3 10 2 1 0 0 2 2 2 0 0 0 1
3 11 1 0 2 0 0 0 0 0 0 0 0 1
5 2 2 4 1
5 3 3 3 0 1
5 4 2 4 4 0 1
5 5 3 4 0 0 0 1
5 6 2 0 1 4 1 0 1
5 7 3 3 0 0 0 0 0 1
7 2 3 6 1
7 3 4 0 6 1
7 4 3 4 5 0 1
7 5 4 1 0 0 0 1
7 6 3 6 4 5 1 0 1
11 2 2 7 1
11 3 9 2 0 1
11 4 2 10 8 0 1
11 5 9 0 10 0 0 1
13 2 2 12 1
13 3 11 2 0 1
13 4 2 12 3 0 1
17 2 3 16 1
17 3 14 1 0 1
17 4 3 10 7 0 1
19 2 2 18 1
19 3 17 4 0 1
19 4 2 11 2 0 1
23 2 5 21 1
23 3 18 2 0 1
29 2 2 24 1
29 3 27 2 0 1
31 2 3 29 1
31 3 28 1 0 1
37 2 2 33 1
37 3 35 6 0 1
41 2 6 38 1
41 3 35 1 0 1
43 2 3 42 1
43 3 40 1 0 1
47 2 5 45 1
47 3 42 3 0 1
53 2 2 49 1
53 3 51 3 0 1
59 2 2 58 1
59 3 57 5 0 1
61 2 2 60 1
61 3 59 7 0 1
67 2 2 63 1
71 2 7 69 1
73 2 5 70 1
79 2 3 78 1
83 2 2 82 1
89 2 3 82 1
97 2 5 96 1
101 2 2 97 1
103 2 5 102 1
107 2 2 103 1
109 2 6 108 1
113 2 3 101 1
127 2 3 126 1
131 2 2 127 1
137 2 3 131 1
139 2 2 138 1
149 2 2 145 1
151 2 6 149 1
157 2 5 152 1
163 2 2 159 1
167 2 5 166 1
173 2 2 169 1
179 2 2 172 1
181 2 2 177 1
191 2 19 190 1
193 2 5 192 1
197 2 2 192 1
199 2 3 193 1
211 2 2 207 1
223 2 3 221 1
227 2 2 220 1
229 2 6 228 1
233 2 3 232 1
239 2 7 237 1
241 2 7 238 1
251 2 6 242 1
257 2 3 251 1
263 2 5 261 1
269 2 2 268 1
271 2 6 269 1
277 2 5 274 1
281 2 3 280 1
283 2 3 282 1
293 2 2 292 1
307 2 5 306 1
311 2 17 310 1
313 2 10 310 1
317 2 2 313 1
331 2 3 326 1
337 2 10 332 1
347 2 2 343 1
349 2 2 348 1
353 2 3 348 1
359 2 7 358 1
367 2 6 366 1
373 2 2 369 1
379 2 2 374 1
383 2 5 382 1
389 2 2 379 1
397 2 5 392 1
401 2 3 396 1
409 2 21 404 1
419 2 2 418 1
421 2 2 417 1
431 2 7 430 1
433 2 5 432 1
439 2 15 436 1
443 2 2 437 1
449 2 3 444 1
457 2 13 454 1
461 2 2 460 1
463 2 3 461 1
467 2 2 463 1
479 2 13 474 1
487 2 3 485 1
491 2 2 487 1
499 2 7 493 1
503 2 5 498 1
509 2 2 508 1
"""

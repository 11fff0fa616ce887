"""GF(q) by schoolbook polynomial arithmetic on coefficient tuples, written
apart from trigon.ffield's reduction and tables: the oracle for
field_tables, for the field formulas of the opposition group and for the
trace.  Only the Conway polynomial is read from the package."""

from trigon.ffield import conway_polynomial, factor_prime_power


def naive_mul(a, b, coeffs, p):
    """Schoolbook multiply-and-reduce modulo the monic coeffs, as a list."""
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


def multiplicative_order(x, coeffs, p):
    """Order of the nonzero coefficient tuple x in (GF(p)[t]/coeffs)^x, by
    the divisors of p^e - 1; the oracle for poly_is_primitive."""
    e = len(coeffs) - 1
    one = [1] + [0] * (e - 1)
    if not any(x):
        raise ValueError("zero has no multiplicative order")

    def power(n):
        acc, base = one, list(x)
        while n:
            if n & 1:
                acc = naive_mul(acc, base, coeffs, p)
            base = naive_mul(base, base, coeffs, p)
            n >>= 1
        return acc

    n = p**e - 1
    order = n
    for r in range(2, n + 1):
        if n % r == 0 and all(r % d for d in range(2, r)):
            while order % r == 0 and power(order // r) == one:
                order //= r
    return order


class OracleField:
    """GF(q) on its Conway polynomial; element k is the tuple of the base-p
    digits of k, low degree first."""

    def __init__(self, q):
        self.p, self.e = factor_prime_power(q)
        self.modulus = conway_polynomial(self.p, self.e)
        self.elements = [self.element(k) for k in range(q)]

    def element(self, k):
        digits = []
        for _ in range(self.e):
            k, d = divmod(k, self.p)
            digits.append(d)
        return tuple(digits)

    def index(self, x):
        return sum(c * self.p**i for i, c in enumerate(x))

    def add(self, x, y):
        return tuple((a + b) % self.p for a, b in zip(x, y))

    def neg(self, x):
        return tuple(-a % self.p for a in x)

    def mul(self, x, y):
        return tuple(naive_mul(x, y, self.modulus, self.p))

    def pow(self, x, n):
        acc = self.element(1)
        for _ in range(n):
            acc = self.mul(acc, x)
        return acc

"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are kept in the cheap group-ring representation Q[z]/(z^N - 1): a
sparse map from exponent k in [0, N) to a rational coefficient, meaning
sum_k c_k * zeta_N^k with zeta_N = exp(2*pi*i/N).  Reduction modulo the N-th
cyclotomic polynomial Phi_N happens lazily, only inside zero tests and
equality, so additions and multiplications stay cheap.  reduction_matrix
gives the same reduction as one integer matrix, for reducing many integer
group-ring vectors at once.
"""

from __future__ import annotations

import cmath
import functools
import math
import threading
from fractions import Fraction

import numpy as np

Rational = Fraction

#: Hard cap on the working order; lcm lifting beyond this raises.
MAX_ORDER = 400


def _divisors(n):
    out = []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def _poly_div_exact(num, den):
    """Exact division of integer coefficient lists (degree-0 first), den monic."""
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        out[i - dn] = c
        if c:
            for j, dj in enumerate(den):
                num[i - dn + j] -= c * dj
    if any(num[:dn]):
        raise ArithmeticError("non-exact polynomial division")
    return out


# Phi_N cache: functools.lru_cache already behaves as a write-once-per-key
# table under the GIL; the explicit lock keeps the iterated construction
# single-writer even on free-threaded builds.
_phi_lock = threading.RLock()  # reentrant: the construction recurses on divisors


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Coefficients of Phi_n (degree-0 first), by iterated exact division of
    x^n - 1 by Phi_d over all proper divisors d | n."""
    with _phi_lock:
        poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
        for d in _divisors(n):
            if d != n:
                poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
        return tuple(poly)


@functools.lru_cache(maxsize=None)
def reduction_matrix(n):
    """Read-only int64 array of shape (n, phi(n)) whose row k holds the
    coefficients of zeta_n^k reduced mod Phi_n (degree-0 first), so an
    integer group-ring vector v reduces to v @ reduction_matrix(n)."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rows = []
    row = [1] + [0] * (deg - 1)
    for _ in range(n):
        rows.append(row)
        top = row[-1]  # x * row overflows into degree deg: subtract top*Phi_n
        row = [-top * phi[0]] + [row[j - 1] - top * phi[j]
                                 for j in range(1, deg)]
    out = np.array(rows, dtype=np.int64)
    out.flags.writeable = False
    return out


def _lcm(a, b):
    return a * b // math.gcd(a, b)


class Cyclotomic:
    """An exact element of Q(zeta_N) in group-ring form.

    Immutable by convention: no method mutates self after construction.
    Equality is mathematical (difference reduces to zero mod Phi_N); instances
    are deliberately unhashable so they are not misused as dict keys.
    """

    __slots__ = ("order", "coeffs")
    __hash__ = None

    def __init__(self, order, coeffs=None):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        clean = {}
        if coeffs:
            for k, v in coeffs.items():
                v = Fraction(v)
                if v:
                    k %= order
                    prev = clean.get(k)
                    if prev is None:
                        clean[k] = v
                    else:
                        s = prev + v
                        if s:
                            clean[k] = s
                        else:
                            del clean[k]
        self.coeffs = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(q, order=1):
        q = Fraction(q)
        return Cyclotomic(order, {0: q} if q else {})

    @staticmethod
    def zero(order=1):
        return Cyclotomic(order, {})

    @staticmethod
    def one(order=1):
        return Cyclotomic(order, {0: Fraction(1)})

    # -- ring structure ----------------------------------------------------

    def lift(self, order):
        """Reinterpret at a larger compatible order (zeta_N = zeta_M^(M/N))."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError("can only lift to a multiple of the order")
        if order > MAX_ORDER:
            raise ValueError(f"order {order} exceeds MAX_ORDER={MAX_ORDER}")
        f = order // self.order
        return Cyclotomic(order, {k * f: v for k, v in self.coeffs.items()})

    def _common(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.from_rational(other)
        n = _lcm(self.order, other.order)
        return self.lift(n), other.lift(n)

    def __add__(self, other):
        a, b = self._common(other)
        out = dict(a.coeffs)
        for k, v in b.coeffs.items():
            s = out.get(k, Fraction(0)) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return Cyclotomic(a.order, out)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, Cyclotomic)
                       else Cyclotomic.from_rational(-Fraction(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                return Cyclotomic.zero(self.order)
            return Cyclotomic(self.order, {k: v * q for k, v in self.coeffs.items()})
        a, b = self._common(other)
        n = a.order
        out = {}
        for k1, v1 in a.coeffs.items():
            for k2, v2 in b.coeffs.items():
                k = k1 + k2
                if k >= n:
                    k -= n
                s = out.get(k, Fraction(0)) + v1 * v2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return Cyclotomic(n, out)

    __rmul__ = __mul__

    def __pow__(self, p):
        if p < 0:
            return self.inverse() ** (-p)
        out = Cyclotomic.one(self.order)
        base = self
        while p:
            if p & 1:
                out = out * base
            base = base * base
            p >>= 1
        return out

    # -- reduction / zero test ---------------------------------------------

    def _reduced_list(self):
        """Dense coefficient list after reduction mod Phi_N (degree < phi(N))."""
        n = self.order
        phi = cyclotomic_polynomial(n)
        deg = len(phi) - 1
        p = [Fraction(0)] * n
        for k, v in self.coeffs.items():
            p[k] += v
        for i in range(n - 1, deg - 1, -1):
            c = p[i]
            if c:
                p[i] = Fraction(0)
                for j in range(deg):
                    p[i - deg + j] -= c * phi[j]
        return p[:deg]

    def is_zero(self):
        if not self.coeffs:
            return True
        return not any(self._reduced_list())

    def reduced(self):
        """Canonical representative with exponents below deg Phi_N."""
        return Cyclotomic(self.order, dict(enumerate(self._reduced_list())))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return (self - other).is_zero()

    def __bool__(self):
        return not self.is_zero()

    def inverse(self):
        """Field inverse via extended Euclid against Phi_N."""
        n = self.order
        phi = [Fraction(c) for c in cyclotomic_polynomial(n)]
        a = self._reduced_list()
        if not any(a):
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        # extended gcd over Q[x]: keep r = s*a (mod phi); ends with r constant
        # because phi is irreducible and a is nonzero mod phi.
        r0, r1 = phi, _trim(a)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        g = r1[0]
        if not g:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        return Cyclotomic(n, {i: c / g for i, c in enumerate(s1)})

    # -- embedding / formatting ---------------------------------------------

    def embed(self):
        """Complex double-precision approximation."""
        n = self.order
        out = 0j
        for k, v in self.coeffs.items():
            out += float(v) * cmath.exp(2j * cmath.pi * k / n)
        return out

    def is_rational(self):
        r = self.reduced()
        return all(k == 0 for k in r.coeffs)

    def rational_value(self):
        r = self.reduced()
        if not r.coeffs:
            return Fraction(0)
        if set(r.coeffs) != {0}:
            raise ValueError("not a rational element")
        return r.coeffs[0]

    def to_string(self):
        """Scalar grammar: signed sum of "p/q" | "p/q*zetaN^k" monomials."""
        r = self.reduced()
        if not r.coeffs:
            return "0"
        parts = []
        for k in sorted(r.coeffs):
            v = r.coeffs[k]
            mono = f"{abs(v.numerator)}/{v.denominator}"
            if k:
                mono += f"*zeta{r.order}^{k}"
            parts.append(("-" if v < 0 else "+", mono))
        sign0, mono0 = parts[0]
        text = ("-" if sign0 == "-" else "") + mono0
        for sign, mono in parts[1:]:
            text += f" {sign} {mono}"
        return text

    def __repr__(self):
        return f"Cyclotomic({self.order}, {self.to_string()!r})"


def _trim(p):
    p = list(p)
    while len(p) > 1 and not p[-1]:
        p.pop()
    return p


def _poly_divmod(a, b):
    a = list(a)
    db = len(b) - 1
    lead = b[-1]
    q = [Fraction(0)] * max(1, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] / lead
        if c:
            q[i - db] = c
            for j in range(db + 1):
                a[i - db + j] -= c * b[j]
    return _trim(q), _trim(a[:db] if db else [Fraction(0)])


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _trim(out)


# -- module-level operation names matching the published interface -----------

def cyclo_root(k, m):
    """zeta_m^k as an element of order m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return Cyclotomic(m, {k % m: Fraction(1)})


def exp_pi_i(r):
    """exp(pi*i*r) for rational r, as an exact root of unity."""
    r = Fraction(r)
    # exp(pi*i*p/q) = zeta_{2q}^p
    return cyclo_root(r.numerator % (2 * r.denominator), 2 * r.denominator)

"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are kept in the cheap group-ring representation Q[z]/(z^N - 1): a
sparse map from exponent k in [0, N) to a rational coefficient, meaning
sum_k c_k * zeta_N^k with zeta_N = exp(2*pi*i/N).  Reduction modulo the N-th
cyclotomic polynomial Phi_N happens lazily, only inside zero tests, equality
and printing, so additions and multiplications stay cheap.  It has one form,
the integer matrix reduction_matrix whose row k is zeta_N^k reduced: an
element reduces as an integer vector over its common denominator (through
the rows as Python ints, reduction_rows, converted once per order), and many
integer group-ring vectors at once by one matmul.  Elements of Z[zeta_N]
also have a dense form, phi(N) Python ints reduced through the same rows.
kron_pack packs such a vector (or any integer polynomial) into one Python
int, its value at X = 2^(8*width), and kron_unpack reads the coefficients
back, so a product of polynomials is one integer product (Kronecker
substitution): resultant's Bareiss runs whole on packed ints.  No division
in Q(zeta_N) is offered, since no verdict divides: powers are non-negative.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

import numpy as np

#: Hard cap on the working order; lcm lifting beyond this raises.
MAX_ORDER = 400


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


def radical(n):
    """The product of the primes that divide n >= 1."""
    r, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            r *= p
            while n % p == 0:
                n //= p
        p += 1
    return r * n


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Coefficients of Phi_n (degree-0 first): Phi_r(x^(n/r)) for r = rad n
    < n, and for squarefree n by iterated exact division of x^n - 1 by Phi_d
    over all proper divisors d | n (each squarefree too)."""
    r = radical(n)
    if r < n:
        poly = [0] * ((len(cyclotomic_polynomial(r)) - 1) * (n // r) + 1)
        poly[::n // r] = cyclotomic_polynomial(r)
        return tuple(poly)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
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


@functools.lru_cache(maxsize=None)
def reduction_rows(n):
    """reduction_matrix(n) as rows of Python ints, converted once per order:
    the `rows` that the integer-vector functions below take."""
    return tuple(map(tuple, reduction_matrix(n).tolist()))


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
                v = v if v.__class__ is Fraction else Fraction(v)
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
        n = math.lcm(self.order, other.order)
        return self.lift(n), other.lift(n)

    def __add__(self, other):
        a, b = self._common(other)
        out = dict(a.coeffs)
        for k, v in b.coeffs.items():
            s = out[k] + v if k in out else v
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
                s = out[k] + v1 * v2 if k in out else v1 * v2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return Cyclotomic(n, out)

    __rmul__ = __mul__

    def __pow__(self, p):
        if p < 0:
            raise ValueError("power must be >= 0")
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
        """Dense coefficient list after reduction mod Phi_N (degree < phi(N)):
        the integer vector over the common denominator (int_vector)."""
        d = math.lcm(*(v.denominator for v in self.coeffs.values()))
        return [Fraction(c, d) for c in int_vector(self, self.order, d,
                                                   reduction_rows(self.order))]

    def is_zero(self):
        if len(self.coeffs) < 2:  # c * zeta_N^k with c != 0 is a unit
            return not self.coeffs
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


# -- Z[zeta_N] on integer vectors ----------------------------------------------
# An element of Z[zeta_N] is a list of phi(N) Python ints, its coefficients on
# 1, zeta_N, ..., zeta_N^(phi-1); `rows` is reduction_rows(N).


def _fold(out, terms, rows):
    """Adds c * zeta_N^k, reduced, to the integer vector out for each (k, c)."""
    n = len(rows)
    for k, c in terms:
        if c:
            out = [o + c * r for o, r in zip(out, rows[k % n])]
    return out


def int_vector(c, n, scale, rows):
    """scale * c as an integer vector at order n, a multiple of c.order;
    scale must be a multiple of every denominator of c."""
    f = n // c.order
    terms = ((k * f, v.numerator * (scale // v.denominator))
             for k, v in c.coeffs.items())
    return _fold([0] * len(rows[0]), terms, rows)


def reduce_poly(coeffs, rows):
    """The integer polynomial coeffs (degree-0 first, any length) reduced
    mod Phi_N: exponents wrap mod N (zeta_N^N = 1), then the terms of
    degree phi and up fold back through rows."""
    n, phi = len(rows), len(rows[0])
    wrapped = [0] * n
    for k, c in enumerate(coeffs):
        wrapped[k % n] += c
    return _fold(wrapped[:phi], enumerate(wrapped[phi:], phi), rows)


def kron_width(bound):
    """Slot width in bytes for kron_pack/kron_unpack of polynomials whose
    coefficients are at most bound in absolute value: the smallest with
    bound < 2^(8*width - 1), so every coefficient is a balanced digit."""
    return bound.bit_length() // 8 + 1


def kron_pack(coeffs, width):
    """The integer polynomial coeffs (degree-0 first) evaluated at
    X = 2^(8*width), built from bytes in linear time: each coefficient,
    below 2^(8*width - 1) in absolute value, is offset by that half into one
    unsigned slot, and the offsets are subtracted at the end."""
    half = 1 << (8 * width - 1)
    offsets = half.to_bytes(width, "little") * len(coeffs)
    packed = b"".join((c + half).to_bytes(width, "little") for c in coeffs)
    return int.from_bytes(packed, "little") - int.from_bytes(offsets, "little")


def kron_unpack(v, width):
    """Coefficients (degree-0 first, possibly with trailing zeros) of the
    polynomial that kron_pack packed into v: v's balanced base-2^(8*width)
    digits, exact while every coefficient is below 2^(8*width - 1) in
    absolute value (kron_width)."""
    bits = 8 * width
    raw = v.to_bytes((v.bit_length() // bits + 1) * width, "little",
                     signed=True)
    half, full = 1 << (bits - 1), 1 << bits
    out, carry = [], 0
    for i in range(0, len(raw), width):
        d = int.from_bytes(raw[i:i + width], "little") + carry
        carry = d >= half
        out.append(d - full if carry else d)
    return out


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

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
substitution): ring_mul multiplies two vectors that way, and resultant's
Bareiss runs whole on packed ints.  norm_adjugate, the product of an
element's other Galois conjugates, is built in O(log phi(N)) products; only
Cyclotomic.inverse uses it.
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

    def inverse(self):
        """Field inverse: with self = v/d for v in Z[zeta_N], it is
        d * adj(v) / norm(v) (see norm_adjugate)."""
        n = self.order
        rows = reduction_rows(n)
        d = math.lcm(*(q.denominator for q in self.coeffs.values()))
        v = int_vector(self, n, d, rows)
        if not any(v):
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        adj, norm = norm_adjugate(v, rows)
        return Cyclotomic(n, {i: Fraction(d * c, norm)
                              for i, c in enumerate(adj)})

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


def ring_mul(a, b, rows):
    """Product of two integer vectors: one integer product of the packed
    vectors, read back and reduced through rows.  No coefficient of a, b or
    their product exceeds max(1, |a|_1) * max(1, max|b|)."""
    width = kron_width(max(1, sum(map(abs, a))) * max(1, *map(abs, b)))
    return reduce_poly(kron_unpack(kron_pack(a, width) * kron_pack(b, width),
                                   width), rows)


def _conjugate(a, j, rows):
    """sigma_j(a) for a unit j mod N: zeta_N -> zeta_N^j."""
    n = len(rows)
    wrapped = [0] * n
    for i, c in enumerate(a):
        wrapped[i * j % n] = c
    return reduce_poly(wrapped, rows)


def _orbit_product(a, g, k, rows):
    """prod sigma_{g^i}(a) over i < k (k >= 1), by binary doubling on k:
    P_2m = P_m * sigma_{g^m}(P_m) and P_(m+1) = a * sigma_g(P_m)."""
    n = len(rows)
    out, m = a, 1
    for bit in bin(k)[3:]:
        out = ring_mul(out, _conjugate(out, pow(g, m, n), rows), rows)
        m *= 2
        if bit == "1":
            out = ring_mul(a, _conjugate(out, g, rows), rows)
            m += 1
    return out


def _unit_group(n):
    """(generator, order) pairs of cyclic subgroups of (Z/n)^* whose direct
    product is the whole group: per prime power q = p^e of n, a generator of
    (Z/q)^* (-1 and 5 for q = 2^e >= 8, where there is none), lifted by the
    Chinese remainder theorem to 1 mod n / q."""
    out, rest, p = [], n, 2
    while rest > 1:
        q = 1
        while rest % p == 0:
            rest //= p
            q *= p
        units = q - q // p  # phi(q), 1 when p does not divide n
        if p == 2 and q >= 8:
            gens = [(q - 1, 2), (5, q // 4)]
        elif units > 1:
            gens = [(next(g for g in range(2, q) if g % p and all(
                pow(g, k, q) != 1 for k in range(1, units))), units)]
        else:
            gens = []
        out += [(((g - 1) * (n // q) * pow(n // q, -1, q) + 1) % n, order)
                for g, order in gens]
        p += 1
    return out


def norm_adjugate(a, rows):
    """(adj, norm) for a nonzero integer vector a: adj is the product of the
    conjugates sigma_j(a) (zeta_N -> zeta_N^j) over the units j != 1 mod N,
    and norm = a * adj is a rational integer.  An exact quotient b / a in
    Z[zeta_N] is therefore b * adj with each coefficient divided by norm.

    The unit group is a direct product of cyclic groups C (_unit_group); over
    the product H x C, adj_HxC(a) = adj_H(a) * adj_C(a * adj_H(a)), and over
    C = <g> of order m, adj_C(b) = sigma_g(prod_{i < m-1} sigma_{g^i}(b)),
    so adj takes O(log phi(N)) products instead of phi(N) - 2."""
    adj = [1] + [0] * (len(a) - 1)
    full = a
    for g, order in _unit_group(len(rows)):
        part = _conjugate(_orbit_product(full, g, order - 1, rows), g, rows)
        adj = ring_mul(adj, part, rows)
        full = ring_mul(a, adj, rows)
    return adj, full[0]


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

"""Sparse truncated two-variable Puiseux series with cyclotomic coefficients.

The ambient ring for exact verification: series in x = exp(pi*i*tau) and
z = exp(2*pi*i*zeta) with exact rational exponents (negative allowed) and
coefficients in Q(zeta_N), in one representation, `Packed`: one sorted
int64 key per entry packs the monomial x^(ix/dx) z^(iz/dz) w^k (w = zeta_N)
as bit fields, so a monomial product is a key sum, next to integer
coefficients.  A product (`packed_mul`) keeps the outer sums of keys below
the cutoff's, reduces k mod N, then sorts and merges equal keys; a sum
(`packed_sum`) is one merge.  Coefficients are int64 while the bounds on
sum |c| and max |c| that each Packed carries prove it safe (exact norms are
taken only when they cannot), and Python ints beyond.  Reduction mod Phi_N
is left to `nonzero_positions`.  `PuiseuxSeries2` is a view over one Packed
series and one common denominator.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .cyclotomic import MAX_ORDER, Cyclotomic, reduction_matrix


class ExponentPair(NamedTuple):
    xExp: Fraction
    zExp: Fraction


#: Coefficients are int64 while a bound on every sum and product they form
#: stays below this.
_INT64_SAFE = 1 << 61

#: The most operand pairs one packed_mul forms (its outer sum holds one key
#: and one coefficient per pair).  A larger product is refused before it is
#: allocated.  The corpus's largest has 2,591,888 at cutoff 1024 and
#: 9,049,608 at 2048.
_PAIR_LIMIT = 1 << 24


class PuiseuxSeries2:
    """A view over a Packed series and one common denominator den, with an
    inclusive truncation bound `cutoff` on the x-exponent (None means the
    series is exact, i.e. a genuine Laurent polynomial) and a lower bound
    `min_x` on the x-exponent of the full untruncated series, which makes
    product truncation sound.  Its arithmetic is the kernel's; only terms,
    items, coeff and to_text decode coefficients to Cyclotomic.  A position
    is kept unless its entries cancel key by key; one that is zero mod Phi_N
    is dropped only by scrubbed()."""
    __slots__ = ("packed", "den", "cutoff", "min_x", "_terms")

    def __init__(self, terms, cutoff, _scrub=True):
        """terms: mapping ExponentPair -> Cyclotomic. Terms above cutoff are
        dropped; structurally zero coefficients are dropped; with _scrub also
        coefficients that reduce to zero mod Phi_N."""
        cutoff = None if cutoff is None else Fraction(cutoff)
        p, den = pack({e: c for e, c in terms.items() if c.coeffs and (
            cutoff is None or e[0] <= cutoff)})
        s = _view(_nonzero_only(p) if _scrub else p, den, cutoff)
        self.packed, self.den, self.cutoff, self.min_x, self._terms = (
            s.packed, s.den, s.cutoff, s.min_x, None)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_terms(items, cutoff=None):
        """items: iterable of (xExp, zExp, coefficient)."""
        terms = {}
        for x, z, c in items:
            if not isinstance(c, Cyclotomic):
                c = Cyclotomic.from_rational(c)
            key = ExponentPair(Fraction(x), Fraction(z))
            terms[key] = terms[key] + c if key in terms else c
        return PuiseuxSeries2(terms, cutoff)

    # -- basic structure ------------------------------------------------------

    @property
    def terms(self):
        """{ExponentPair: Cyclotomic} in key order, decoded on first use."""
        if self._terms is None:
            p, self._terms = self.packed, {}
            rows = zip(*(a.tolist() for a in (*_split(p.key), p.k, p.c)))
            for (ix, iz), run in itertools.groupby(rows, lambda r: r[:2]):
                run = [row[2:] for row in run]
                o = even_order(p.order, [k for k, _ in run])
                e = ExponentPair(Fraction(ix, p.dx), Fraction(iz, p.dz))
                self._terms[e] = Cyclotomic(o, {k * o // p.order: Fraction(
                    c, self.den) for k, c in run})
        return self._terms

    def items(self):
        """Terms in canonical lexicographic (xExp, zExp) order (key order)."""
        return list(self.terms.items())

    def coeff(self, x, z=Fraction(0)):
        x, z = Fraction(x), Fraction(z)
        if self.cutoff is not None and x > self.cutoff:
            raise ValueError(f"exponent {x} beyond cutoff {self.cutoff}")
        return self.terms.get(ExponentPair(x, z), Cyclotomic.zero())

    def is_zero(self):
        return not nonzero_positions(self.packed).size

    def scrubbed(self):
        """Copy with coefficients that reduce to zero removed."""
        return _view(_nonzero_only(self.packed), self.den, self.cutoff,
                     self.min_x)

    def truncate(self, cutoff):
        cutoff, p = Fraction(cutoff), self.packed
        if self.cutoff is not None and self.cutoff <= cutoff:
            return self
        hi = min(max(math.floor(cutoff * p.dx), -_XLIM), _XLIM - 1)
        n = int(np.searchsorted(p.key, (hi << _ZB) + _ZHALF << _KB))
        return _view(p._replace(key=p.key[:n], c=p.c[:n]), self.den, cutoff,
                     self.min_x)

    def map_z_negate(self):
        """z -> 1/z (the series of f(-zeta))."""
        p = self.packed
        ix, iz = _split(p.key)
        return _view(_merge(_key(ix, -iz, p.k), p.c, p), self.den,
                     self.cutoff, self.min_x)

    def shift_exponents(self, dx, dz):
        """Multiply by the monomial x^dx * z^dz."""
        return self * PuiseuxSeries2.from_terms([(dx, dz, 1)])

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        den = math.lcm(self.den, other.den)
        parts, _ = on_common_grid([_scaled(s.packed, [(0, den // s.den)])
                                   for s in (self, other)])
        s = _view(packed_sum(parts), den, None, min(self.min_x, other.min_x))
        cuts = [c for c in (self.cutoff, other.cutoff) if c is not None]
        return s.truncate(min(cuts)) if cuts else s

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        # unscrubbed: a scalar zero mod Phi_N keeps the positions it meets
        if not isinstance(c, Cyclotomic):
            c = Cyclotomic.from_rational(c)
        return self * PuiseuxSeries2({ExponentPair(0, 0): c}, None,
                                     _scrub=False)

    def __mul__(self, other):
        # sound cutoff for a product of truncated series
        cuts = [cut + s.min_x for cut, s in ((self.cutoff, other),
                                             (other.cutoff, self))
                if cut is not None]
        if len(cuts) == 2:
            cuts.append(min(self.cutoff, other.cutoff))
        cut = min(cuts, default=None)
        (a, b), icut = on_common_grid([self.packed, other.packed], cut)
        return _view(packed_mul(a, b, icut), self.den * other.den, cut,
                     self.min_x + other.min_x)

    def __pow__(self, p):
        if p < 1:
            raise ValueError("power must be >= 1")
        result = self
        for bit in bin(p)[3:]:  # the binary digits after the leading 1
            result = result * result
            if bit == "1":
                result = result * self
        return result

    # -- serialization ---------------------------------------------------------

    def to_text(self):
        """One term per line: "xExp zExp coefficient", canonical order."""
        return "\n".join(f"{e.xExp} {e.zExp} {text}" for e, c in self.items()
                         if (text := c.to_string()) != "0")

    def __repr__(self):
        n = len(self.terms)
        return f"PuiseuxSeries2(<{n} terms>, cutoff={self.cutoff})"


def _view(p, den, cutoff, min_x=None):
    """The PuiseuxSeries2 of a Packed p over den, exact to the inclusive
    cutoff (a Fraction, or None); min_x defaults to p's least x-exponent, or
    to the cutoff when p is empty (it has nothing at or below it)."""
    s = object.__new__(PuiseuxSeries2)
    s.packed, s.den, s.cutoff, s._terms = p, den, cutoff, None
    s.min_x = Fraction(min_x if min_x is not None else Fraction(
        _split(int(p.key[0]))[0], p.dx) if p.c.size else cutoff or 0)
    return s


def even_order(order, ks):
    """The order a coefficient sum c_k zeta_order^k (k in ks) decodes to:
    the least that holds it, and of those the least even one when order is
    even, as exp_pi_i writes a root of unity."""
    return order // math.gcd(order, *ks, 0 if order % 2 else order // 2)


def _nonzero_only(p):
    """p without the positions whose coefficient is zero in Q(zeta_order)."""
    pos = p.key >> _KB
    keep = np.isin(pos, pos[nonzero_positions(p)])
    return p._replace(key=p.key[keep], c=p.c[keep])


# -- the packed-integer kernel -------------------------------------------------

#: Field widths of a key ((ix << _ZB) + iz) << _KB | k: |iz| < _ZHALF, and
#: k < 2^_KB holds the sum of two exponents below MAX_ORDER.  |ix| < _XLIM
#: keeps |key| < 2^62, so that two keys add without wrapping.
_KB, _ZB = (2 * MAX_ORDER - 1).bit_length(), 20
_ZHALF, _XLIM = 1 << _ZB - 1, 1 << 62 - _ZB - _KB


class Packed(NamedTuple):
    """sum_i c[i] * w^k[i] * x^(ix[i]/dx) * z^(iz[i]/dz), w = exp(2*pi*i/order),
    with no c[i] zero, as one int64 key per entry, sorted and distinct.  Key
    order is (ix, iz, k) order, and the sum of two keys is the key of the
    product of their monomials, up to reducing k mod order.  zb bounds |iz|,
    l1 and mx bound sum |c| and max |c|; c is int64, or object (Python ints)
    when an entry may not fit."""
    key: np.ndarray
    c: np.ndarray
    dx: int
    dz: int
    order: int
    zb: int
    l1: int
    mx: int

    ix = property(lambda self: _split(self.key)[0])
    iz = property(lambda self: _split(self.key)[1])
    k = property(lambda self: self.key & (1 << _KB) - 1)

    def regrid(self, dx, dz, order):
        """The same series on a finer grid: dx, dz and order are multiples
        of this one's.  Scaling each field keeps the keys sorted."""
        if not self.c.size or (dx, dz, order) == self[2:5]:
            return self._replace(dx=dx, dz=dz, order=order)
        fx, fz = dx // self.dx, dz // self.dz
        _fits(fx * max(-_split(int(self.key[0]))[0],
                       _split(int(self.key[-1]))[0]), fz * self.zb, order)
        ix, iz = _split(self.key)
        return self._replace(key=_key(ix * fx, iz * fz,
                                      self.k * (order // self.order)),
                             dx=dx, dz=dz, order=order, zb=fz * self.zb)


def pack(terms):
    """(Packed, den) for a mapping ExponentPair -> Cyclotomic, on the coarsest
    grid that holds it; den is the lcm of the coefficient denominators."""
    dx = math.lcm(*(e[0].denominator for e in terms))
    dz = math.lcm(*(e[1].denominator for e in terms))
    order = math.lcm(*(c.order for c in terms.values()))
    den = math.lcm(*(v.denominator for c in terms.values()
                     for v in c.coeffs.values()))
    return packed_rows(sorted((e[0].numerator * (dx // e[0].denominator),
                               e[1].numerator * (dz // e[1].denominator),
                               k * (order // c.order),
                               v.numerator * (den // v.denominator))
                              for e, c in terms.items()
                              for k, v in c.coeffs.items()),
                       dx, dz, order), den


def packed_rows(rows, dx, dz, order):
    """The Packed series of rows (ix, iz, k, c) on the grid (dx, dz, order),
    sorted and distinct, with no c zero."""
    ix, iz, k, c = zip(*rows) if rows else ((),) * 4
    zb = max(map(abs, iz), default=0)
    _fits(max(map(abs, ix), default=0), zb, order)
    mx = max(map(abs, c), default=0)
    key = _key(*(np.array(v, np.int64) for v in (ix, iz, k)))
    return Packed(key, np.array(c, _dtype(mx)), dx, dz, order, zb,
                  sum(map(abs, c)), mx)


def on_common_grid(packs, cutoff=None):
    """The packed series regridded to their common grid, and the inclusive
    x-cutoff on that grid (None stays None)."""
    dx = math.lcm(*(p.dx for p in packs),
                  1 if cutoff is None else cutoff.denominator)
    dz = math.lcm(*(p.dz for p in packs))
    order = math.lcm(*(p.order for p in packs))
    icut = None if cutoff is None else int(cutoff * dx)
    return [p.regrid(dx, dz, order) for p in packs], icut


def packed_mul(a, b, icut=None):
    """a * b on their common grid, exact on every term with ix <= icut
    (every term when icut is None).  Raises ValueError, naming the cutoff,
    when the operands below it make more than _PAIR_LIMIT pairs."""
    if not a.c.size or not b.c.size:
        return a._replace(key=a.key[:0], c=a.c[:0])
    (a0, a1), (b0, b1) = ((int(p.key[0]), int(p.key[-1])) for p in (a, b))
    lo, top = _split(a0)[0] + _split(b0)[0], _split(a1)[0] + _split(b1)[0]
    hi = top if icut is None else min(icut, top)
    if hi < lo:
        return a._replace(key=a.key[:0], c=a.c[:0])
    _fits(max(-lo, hi), a.zb + b.zb, a.order)
    kmax = (hi << _ZB) + _ZHALF << _KB   # the keys with ix <= hi lie below
    ka = a.key[:np.searchsorted(a.key, kmax - b0)]
    kb = b.key[:np.searchsorted(b.key, kmax - a0)]
    if ka.size * kb.size > _PAIR_LIMIT:
        at = "" if icut is None else f"cutoff {Fraction(icut, a.dx)}: "
        raise ValueError(f"{at}a product of {ka.size * kb.size} operand "
                         f"pairs passes the limit of {_PAIR_LIMIT}")
    ca, cb = a.c[:ka.size], b.c[:kb.size]
    (l1a, mxa), (l1b, mxb) = (a.l1, a.mx), (b.l1, b.mx)
    if min(l1a * mxb, l1b * mxa) >= _INT64_SAFE:   # too loose: measure
        (l1a, mxa), (l1b, mxb) = _norms(ca), _norms(cb)
    mx = min(l1a * mxb, l1b * mxa)
    key = np.add.outer(ka, kb).ravel()
    c = np.multiply.outer(ca.astype(_dtype(mx), copy=False),
                          cb.astype(_dtype(mx), copy=False)).ravel()
    if hi < top:
        keep = key < kmax
        key, c = key[keep], c[keep]
    _fold(key, a.order)
    return _merge(key, c, a._replace(zb=a.zb + b.zb, l1=l1a * l1b, mx=mx))


def packed_sum(parts):
    """Sum of packed series on one grid (at least one), each with distinct
    keys, so that no entry of the sum passes the sum of their mx."""
    l1, mx = sum(p.l1 for p in parts), sum(p.mx for p in parts)
    if mx >= _INT64_SAFE:   # too loose: measure
        l1, mx = map(sum, zip(*(_norms(p.c) for p in parts)))
    return _merge(np.concatenate([p.key for p in parts]),
                  np.concatenate([p.c.astype(_dtype(mx)) for p in parts]),
                  parts[0]._replace(zb=max(p.zb for p in parts), l1=l1, mx=mx))


def _scaled(mono, scalar):
    """mono times a scalar [(k0, c0)] on its order: a key add per entry
    c0 * w^k0 (on Python ints when a product may pass int64), summed when
    there are several.  A key add leaves the keys sorted by position but
    not by k; packed_sum sorts them."""
    parts = []
    for k0, c0 in scalar:
        (l1, mx), a0 = (mono.l1, mono.mx), abs(c0)
        if mx * a0 >= _INT64_SAFE:   # too loose: measure
            l1, mx = _norms(mono.c)
        key = mono.key + k0
        _fold(key, mono.order)
        c = mono.c.astype(_dtype(max(mx, 1) * a0)) * c0
        parts.append(mono._replace(key=key, c=c, l1=l1 * a0, mx=mx * a0))
    return parts[0] if len(parts) == 1 else packed_sum(parts)


def nonzero_positions(p):
    """Indices of the first entry of each (ix, iz) position (key >> _KB) of
    p whose coefficient is nonzero in Q(zeta_order), in key order: each
    entry's c times its row of reduction_matrix(order), summed per run of
    one position in the sorted keys."""
    if not p.c.size:
        return np.zeros(0, np.intp)
    pos = p.key >> _KB
    first = np.flatnonzero(np.concatenate(([True], pos[1:] != pos[:-1])))
    red = reduction_matrix(p.order)
    rmax = int(np.abs(red).max())
    l1 = p.l1 if p.l1 * rmax < _INT64_SAFE else _norms(p.c)[0]
    dtype = _dtype(l1 * rmax)
    terms = red[p.k].astype(dtype, copy=False)   # a copy: red is shared
    terms *= p.c.astype(dtype, copy=False)[:, None]
    return first[(np.add.reduceat(terms, first) != 0).any(axis=1)]


def _key(ix, iz, k):
    return ((ix << _ZB) + iz << _KB) + k


def _split(key):
    """(ix, iz) of a key, or of an array of them."""
    pos = key >> _KB
    ix = pos + _ZHALF >> _ZB
    return ix, pos - (ix << _ZB)


def _fits(xmax, zb, order):
    """Raises unless keys with |ix| <= xmax, |iz| <= zb and k < order fit."""
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds MAX_ORDER={MAX_ORDER}")
    if xmax >= _XLIM or zb >= _ZHALF:
        raise OverflowError("exponents too large for an int64 key")


def _fold(key, order):
    """Reduces each key's k field (below 2 * order) mod order, in place."""
    key -= (key & (1 << _KB) - 1 >= order) * order


def _norms(v):
    """Exact (sum |v|, max |v|) in Python ints."""
    a = np.abs(v)
    mx = int(a.max(initial=0))   # an int64 sum may wrap from size * mx on
    big = a.dtype == object or mx * a.size >= 1 << 63
    return (sum(a.tolist()) if big else int(a.sum())), mx


def _dtype(bound):
    return np.int64 if bound < _INT64_SAFE else object


def _merge(key, c, like):
    """Packed series of the entries, on the grid of `like`: keys sorted,
    equal keys summed, zero sums dropped."""
    if not c.size:
        return like._replace(key=key, c=c)
    perm = np.argsort(key)
    key = key[perm]
    first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    sums = np.add.reduceat(c[perm], first)
    keep = sums != 0
    return like._replace(key=key[first[keep]], c=sums[keep])

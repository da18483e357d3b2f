"""Sparse truncated two-variable Puiseux series with cyclotomic coefficients.

The ambient ring for exact verification: series in x = exp(pi*i*tau) and
z = exp(2*pi*i*zeta) with exact rational exponents (negative allowed) and
Cyclotomic coefficients.  A series carries an inclusive truncation bound
`cutoff` on the x-exponent (None means the series is exact, i.e. a genuine
Laurent polynomial) and a lower bound `min_x` on the x-exponent of the full
untruncated series, which makes product truncation sound.

Multiplication is exact on every retained coefficient and has one path, the
packed-integer kernel `packed_mul` on `Packed` series: one sorted int64 key
per entry packs the monomial x^(ix/dx) z^(iz/dz) w^k (w = zeta_N) as bit
fields, so a monomial product is a key sum, next to integer coefficients
over a common denominator.  A product keeps the outer sums of keys below the
cutoff's, reduces k mod N, then sorts and merges equal keys; coefficients
are int64 while the bounds on sum |c| and max |c| that each Packed carries
prove it safe (exact norms are taken only when they cannot), and Python
ints beyond.  Reduction mod Phi_N is left to `nonzero_positions`.
"""

from __future__ import annotations

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


class PuiseuxSeries2:
    __slots__ = ("cutoff", "terms", "min_x")

    def __init__(self, terms, cutoff, min_x=None, _scrub=True):
        """terms: mapping ExponentPair -> Cyclotomic. Terms above cutoff are
        dropped; structurally zero coefficients are dropped; with _scrub also
        coefficients that reduce to zero mod Phi_N."""
        self.terms = clean = {
            ExponentPair(Fraction(e[0]), Fraction(e[1])): c
            for e, c in terms.items() if (cutoff is None or e[0] <= cutoff)
            and c.coeffs and not (_scrub and c.is_zero())}
        self.cutoff = None if cutoff is None else Fraction(cutoff)
        if min_x is None:
            # an empty truncated series has nothing at or below its cutoff,
            # so the cutoff itself is a sound lower bound
            min_x = min((e.xExp for e in clean), default=self.cutoff or 0)
        self.min_x = Fraction(min_x)

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

    def items(self):
        """Terms in canonical lexicographic (xExp, zExp) order."""
        return sorted(self.terms.items(), key=lambda kv: (kv[0].xExp, kv[0].zExp))

    def coeff(self, x, z=Fraction(0)):
        x, z = Fraction(x), Fraction(z)
        if self.cutoff is not None and x > self.cutoff:
            raise ValueError(f"exponent {x} beyond cutoff {self.cutoff}")
        return self.terms.get(ExponentPair(x, z), Cyclotomic.zero())

    def is_zero(self):
        return all(c.is_zero() for c in self.terms.values())

    def scrubbed(self):
        """Copy with coefficients that reduce to zero removed."""
        return PuiseuxSeries2(self.terms, self.cutoff, self.min_x, _scrub=True)

    def truncate(self, cutoff):
        cutoff = Fraction(cutoff)
        if self.cutoff is not None and self.cutoff <= cutoff:
            return self
        return PuiseuxSeries2(self.terms, cutoff, self.min_x, _scrub=False)

    def map_z_negate(self):
        """z -> 1/z (the series of f(-zeta))."""
        return PuiseuxSeries2({ExponentPair(e.xExp, -e.zExp): c
                               for e, c in self.terms.items()},
                              self.cutoff, self.min_x, _scrub=False)

    def shift_exponents(self, dx, dz):
        """Multiply by the monomial x^dx * z^dz."""
        dx, dz = Fraction(dx), Fraction(dz)
        cut = None if self.cutoff is None else self.cutoff + dx
        return PuiseuxSeries2({ExponentPair(e.xExp + dx, e.zExp + dz): c
                               for e, c in self.terms.items()},
                              cut, self.min_x + dx, _scrub=False)

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        cuts = [c for c in (self.cutoff, other.cutoff) if c is not None]
        cut = min(cuts) if cuts else None
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] + c if e in out else c  # __init__ drops empty sums
        return PuiseuxSeries2(out, cut, min(self.min_x, other.min_x), _scrub=False)

    def __neg__(self):
        return PuiseuxSeries2({e: -c for e, c in self.terms.items()},
                              self.cutoff, self.min_x, _scrub=False)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not isinstance(c, Cyclotomic):
            c = Cyclotomic.from_rational(c)
        return PuiseuxSeries2({e: v * c for e, v in self.terms.items()},
                              self.cutoff, self.min_x, _scrub=False)

    def __mul__(self, other):
        cut = _result_cutoff(self, other)
        if not self.terms or not other.terms:
            return PuiseuxSeries2({}, cut)
        (a, den_a), (b, den_b) = pack(self.terms), pack(other.terms)
        (a, b), icut = on_common_grid([a, b], cut)
        p, den = packed_mul(a, b, icut), den_a * den_b
        coeffs = {}
        for ix, iz, k, c in zip(p.ix.tolist(), p.iz.tolist(), p.k.tolist(),
                                p.c.tolist()):
            coeffs.setdefault((ix, iz), {})[k] = Fraction(c, den)
        terms = {ExponentPair(Fraction(ix, p.dx), Fraction(iz, p.dz)):
                 Cyclotomic(p.order, cs) for (ix, iz), cs in coeffs.items()}
        return PuiseuxSeries2(terms, cut, self.min_x + other.min_x, _scrub=False)

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
        return "\n".join(f"{e.xExp} {e.zExp} {r.to_string()}"
                         for e, c in self.items() if (r := c.reduced()).coeffs)

    def __repr__(self):
        n = len(self.terms)
        return f"PuiseuxSeries2(<{n} terms>, cutoff={self.cutoff})"


def _result_cutoff(a, b):
    """Sound inclusive cutoff for a product of truncated series."""
    cands = [cut + s.min_x for cut, s in ((a.cutoff, b), (b.cutoff, a))
             if cut is not None]
    if len(cands) == 2:
        cands.append(min(a.cutoff, b.cutoff))
    return min(cands, default=None)


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
    rows = sorted((e[0].numerator * (dx // e[0].denominator),
                   e[1].numerator * (dz // e[1].denominator),
                   k * (order // c.order),
                   v.numerator * (den // v.denominator))
                  for e, c in terms.items() for k, v in c.coeffs.items())
    ix, iz, k, c = zip(*rows) if rows else ((),) * 4
    zb = max(map(abs, iz), default=0)
    _fits(max(map(abs, ix), default=0), zb, order)
    mx = max(map(abs, c), default=0)
    key = _key(*(np.array(v, np.int64) for v in (ix, iz, k)))
    return Packed(key, np.array(c, _dtype(mx)), dx, dz, order, zb,
                  sum(map(abs, c)), mx), den


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
    (every term when icut is None)."""
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

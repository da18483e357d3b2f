"""Sparse truncated two-variable Puiseux series with cyclotomic coefficients.

The ambient ring for exact verification: series in x = exp(pi*i*tau) and
z = exp(2*pi*i*zeta) with exact rational exponents (negative allowed) and
Cyclotomic coefficients.  A series carries an inclusive truncation bound
`cutoff` on the x-exponent (None means the series is exact, i.e. a genuine
Laurent polynomial) and a lower bound `min_x` on the x-exponent of the full
untruncated series, which makes product truncation sound.

Multiplication is exact on every retained coefficient and has one path, the
packed-integer kernel `packed_mul`.  A `Packed` series is four parallel
arrays on one integer grid: the exponents `ix`, `iz` (x- and z-exponents
times `dx`, `dz`), the exponent `k` of w = zeta_N in the group ring
Z[w]/(w^N - 1), and integer coefficients `c` over a common denominator that
the caller keeps.  A product takes the outer sums of exponents and outer
products of coefficients, drops the pairs beyond the cutoff, reduces k mod N,
then sorts the packed keys and merges duplicates with np.add.reduceat.  It
runs on int64 when an a-priori bound shows that no sum or product can
overflow, and otherwise on the same arrays with dtype=object (Python ints).
Reduction mod Phi_N is left to `nonzero_positions`.
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


#: Below this bound int64 sums and products cannot overflow, with room for
#: the rounding of the float64 norms that estimate it.
_INT64_SAFE = 1 << 61


class PuiseuxSeries2:
    __slots__ = ("cutoff", "terms", "min_x")

    def __init__(self, terms, cutoff, min_x=None, _scrub=True):
        """terms: mapping ExponentPair -> Cyclotomic. Terms above cutoff are
        dropped; structurally zero coefficients are dropped; with _scrub also
        coefficients that reduce to zero mod Phi_N."""
        clean = {}
        for e, c in terms.items():
            if cutoff is not None and e[0] > cutoff:
                continue
            if not c.coeffs:
                continue
            if _scrub and c.is_zero():
                continue
            clean[ExponentPair(Fraction(e[0]), Fraction(e[1]))] = c
        self.terms = clean
        self.cutoff = None if cutoff is None else Fraction(cutoff)
        if min_x is not None:
            self.min_x = Fraction(min_x)
        elif clean:
            self.min_x = min(e.xExp for e in clean)
        elif self.cutoff is not None:
            # empty truncated series: the true series has nothing at or below
            # the cutoff, so the cutoff itself is a sound lower bound
            self.min_x = self.cutoff
        else:
            self.min_x = Fraction(0)

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
            if e in out:
                s = out[e] + c
                if s.coeffs:
                    out[e] = s
                else:
                    del out[e]
            else:
                out[e] = c
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
        terms = unpack(packed_mul(a, b, icut), den_a * den_b)
        return PuiseuxSeries2(terms, cut, self.min_x + other.min_x, _scrub=False)

    def __pow__(self, p):
        if p < 1:
            raise ValueError("power must be >= 1")
        result = None
        base = self
        while p:
            if p & 1:
                result = base if result is None else result * base
            p >>= 1
            if p:
                base = base * base
        return result

    # -- serialization ---------------------------------------------------------

    def to_text(self):
        """One term per line: "xExp zExp coefficient", canonical order."""
        lines = []
        for e, c in self.items():
            r = c.reduced()
            if not r.coeffs:
                continue
            lines.append(f"{e.xExp} {e.zExp} {r.to_string()}")
        return "\n".join(lines)

    def __repr__(self):
        n = len(self.terms)
        return f"PuiseuxSeries2(<{n} terms>, cutoff={self.cutoff})"


def _result_cutoff(a, b):
    """Sound inclusive cutoff for a product of truncated series."""
    cands = []
    if a.cutoff is not None:
        cands.append(a.cutoff + b.min_x)
        if b.cutoff is not None:
            cands.append(min(a.cutoff, b.cutoff))
    if b.cutoff is not None:
        cands.append(b.cutoff + a.min_x)
    return min(cands) if cands else None


# -- the packed-integer kernel -------------------------------------------------


class Packed(NamedTuple):
    """sum_i c[i] * w^k[i] * x^(ix[i]/dx) * z^(iz[i]/dz), w = exp(2*pi*i/order),
    with keys (ix, iz, k) sorted and distinct and no c[i] zero.  ix, iz and k
    are int64; c is int64, or object (Python ints) when an entry may not fit."""
    ix: np.ndarray
    iz: np.ndarray
    k: np.ndarray
    c: np.ndarray
    dx: int
    dz: int
    order: int

    def regrid(self, dx, dz, order):
        """The same series on a finer grid: dx, dz and order are multiples
        of this one's."""
        return Packed(self.ix * (dx // self.dx), self.iz * (dz // self.dz),
                      self.k * (order // self.order), self.c, dx, dz, order)


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
    big = max(map(abs, c), default=0) >= _INT64_SAFE
    return Packed(np.array(ix, np.int64), np.array(iz, np.int64),
                  np.array(k, np.int64), np.array(c, object if big else np.int64),
                  dx, dz, order), den


def unpack(p, den):
    """The mapping ExponentPair -> Cyclotomic of p / den."""
    coeffs = {}
    for ix, iz, k, c in zip(p.ix.tolist(), p.iz.tolist(), p.k.tolist(),
                            p.c.tolist()):
        coeffs.setdefault((ix, iz), {})[k] = Fraction(c, den)
    return {ExponentPair(Fraction(ix, p.dx), Fraction(iz, p.dz)):
            Cyclotomic(p.order, cs) for (ix, iz), cs in coeffs.items()}


def on_common_grid(packs, cutoff=None):
    """The packed series regridded to their common grid, and the inclusive
    x-cutoff on that grid (None stays None)."""
    dx = math.lcm(*(p.dx for p in packs),
                  1 if cutoff is None else cutoff.denominator)
    dz = math.lcm(*(p.dz for p in packs))
    order = math.lcm(*(p.order for p in packs))
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds MAX_ORDER={MAX_ORDER}")
    for p in packs:
        if max(int(np.abs(p.ix).max(initial=0)) * (dx // p.dx),
               int(np.abs(p.iz).max(initial=0)) * (dz // p.dz)) >= _INT64_SAFE:
            raise OverflowError("exponent grid too fine for int64")
    icut = None if cutoff is None else int(cutoff * dx)
    return [p.regrid(dx, dz, order) for p in packs], icut


def packed_mul(a, b, icut=None):
    """a * b on their common grid, exact on every term with ix <= icut
    (every term when icut is None)."""
    if icut is not None and a.c.size and b.c.size:
        amin, bmin = a.ix.min(), b.ix.min()
        a, b = _select(a, a.ix <= icut - bmin), _select(b, b.ix <= icut - amin)
    l1a, maxa = _norms(a.c)
    l1b, maxb = _norms(b.c)
    dtype = _dtype(min(l1a * maxb, l1b * maxa))
    ix = a.ix[:, None] + b.ix
    i, j = np.nonzero(ix <= icut if icut is not None
                      else np.ones(ix.shape, bool))
    return _merge(ix[i, j], a.iz[i] + b.iz[j], (a.k[i] + b.k[j]) % a.order,
                  a.c[i].astype(dtype) * b.c[j].astype(dtype), a)


def packed_sum(parts):
    """Sum of packed series on one grid (at least one)."""
    dtype = _dtype(sum(_norms(p.c)[1] for p in parts))
    return _merge(*(np.concatenate([getattr(p, f) for p in parts])
                    for f in ("ix", "iz", "k")),
                  np.concatenate([p.c.astype(dtype) for p in parts]), parts[0])


def nonzero_positions(p):
    """Indices of the first entry of each (ix, iz) position of p whose
    coefficient is nonzero in Q(zeta_order), in key order: one integer
    matmul against reduction_matrix(order)."""
    if not p.c.size:
        return np.zeros(0, np.int64)
    new = np.concatenate(([True], (p.ix[1:] != p.ix[:-1])
                          | (p.iz[1:] != p.iz[:-1])))
    first = np.flatnonzero(new)
    red = reduction_matrix(p.order)
    dtype = _dtype(_norms(p.c)[0] * int(np.abs(red).max()))
    dense = np.zeros((first.size, p.order), dtype)
    dense[np.cumsum(new) - 1, p.k] = p.c
    return first[(dense @ red.astype(dtype) != 0).any(axis=1)]


def _select(p, mask):
    return p._replace(ix=p.ix[mask], iz=p.iz[mask], k=p.k[mask], c=p.c[mask])


def _norms(v):
    """(sum |v|, max |v|): exact for object arrays, a float64 sum (relative
    error far below the margin of _INT64_SAFE) for int64 ones."""
    a = np.abs(v)
    if a.dtype == object:
        return sum(a.tolist()), max(a.tolist(), default=0)
    return float(a.sum(dtype=np.float64)), int(a.max(initial=0))


def _dtype(bound):
    return np.int64 if bound < _INT64_SAFE else object


def _merge(ix, iz, k, c, like):
    """Packed series of the entries, on the grid of `like`: keys sorted,
    equal keys summed, zero sums dropped."""
    if not c.size:
        return like._replace(ix=ix, iz=iz, k=k, c=c)
    x0, z0 = int(ix.min()), int(iz.min())
    nz = int(iz.max()) - z0 + 1
    span = (int(ix.max()) - x0 + 1) * nz * like.order
    kt = np.int64 if span < 1 << 63 else object
    key = ((ix.astype(kt) - x0) * nz + iz.astype(kt) - z0) * like.order \
        + k.astype(kt)
    perm = np.argsort(key)
    key = key[perm]
    first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    sums = np.add.reduceat(c[perm], first)
    keep = sums != 0
    rows = perm[first[keep]]
    return like._replace(ix=ix[rows], iz=iz[rows], k=k[rows], c=sums[keep])

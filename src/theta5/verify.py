"""Exact identity verification and numeric relation discovery.

verify_exact proves an identity by expanding every term as a truncated series
over Q(zeta_N) and checking that the sum cancels coefficient-by-coefficient.
A term is a product of powers of theta factors; each power is built once per
cutoff and cached on the identity's grid (_theta_power), so a term costs one
kernel call per factor after the first, whatever the powers, until operands
grow dense (_DENSE_PAIRS).  Terms and their sum stay packed (series.Packed):
a one-entry scalar is read off as two ints and applied as a key add, the sum
is one merge of keys, and only the reported positions are decoded.
discover_relations rediscovers linear relations among products of theta
functions numerically: sample the functions in zeta at a fixed tau, and read
the relation off the nullspace of the sample matrix (the dimension count
dim F_N = N guarantees such relations exist).
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .catalog import Argument, ExpectedStatus, _index_factors
from .cyclotomic import Cyclotomic
from .numeric import _theta_rows, theta_eval
from .series import (_INT64_SAFE, ExponentPair, _KB, _dtype, _fold, _norms,
                     _split, nonzero_positions, pack, packed_mul, packed_sum)
from .theta import Characteristic, ThetaMode, theta_series

_ORIGIN = ExponentPair(Fraction(0), Fraction(0))

#: The most operand pairs for which a monomial takes a factor's cached power
#: in one kernel call.  Past it both operands are dense, and multiplying by
#: the bare factor `power` times makes far fewer pairs (each step merges its
#: duplicates) for power - 1 more calls.  It splits corpus powers only past
#: cutoff 16: at cutoff 32, 18.2M pairs in 1,199 calls become 10.7M in 1,719
#: (exact-deep pass_s 0.81 -> 0.63 s, 2-core x86 host).
_DENSE_PAIRS = 20_000


@dataclass
class VerificationReport:
    id: str
    mode: str                 # "exact" | "numeric"
    cutoff: Fraction | None
    status: str               # "pass" | "fail"
    residuals: list = field(default_factory=list)  # [(ExponentPair, Cyclotomic)]
    elapsed_ms: float = 0.0

    @property
    def passed(self):
        return self.status == "pass"

    def to_dict(self):
        # elapsed_ms is serialized as null so identical runs produce
        # byte-identical reports; wall-clock timing is a text-output affair
        return {
            "id": self.id,
            "mode": self.mode,
            "cutoff": None if self.cutoff is None else
                      f"{self.cutoff.numerator}/{self.cutoff.denominator}",
            "status": self.status,
            "residuals": [
                {"x": f"{e.xExp.numerator}/{e.xExp.denominator}",
                 "z": f"{e.zExp.numerator}/{e.zExp.denominator}",
                 "coeff": c.to_string()}
                for e, c in self.residuals
            ],
            "elapsed_ms": None,
        }


@dataclass
class DiscoveredRelation:
    monomials: list
    coefficients: list
    nullity: int
    tau: complex
    singular_values: list = field(default_factory=list)


@functools.lru_cache(maxsize=None)
def _theta_power(p, q, r, s, function, power, cn, cd, grid=None, step=False):
    """theta[p/q; r/s]^power (of symbolic zeta when `function`, else at
    zeta = 0) up to the x-exponent cn/cd, packed on `grid` (dx, dz, order)
    or, when None, on the factor's own grid: the one cache of exact
    verification, keyed on ints, so a hit hashes no Fraction.  The `step`
    entries, on the factor's grid, are power p-1 times the factor truncated
    on that grid (theta exponents are >= 0, so this keeps exactly the
    entries that truncating on any finer grid keeps); a call without `step`
    looks them up bottom up, one cache hit each, so none recurses twice."""
    args = p, q, r, s, function
    if not step:
        for n in range(1, power + 1):
            f = _theta_power(*args, n, cn, cd, None, True)
        return f if grid is None else f.regrid(*grid)
    if power == 1:
        return pack(_series(args, Fraction(cn, cd)).terms)[0]
    f = _theta_power(*args, 1, cn, cd, None, True)
    return packed_mul(_theta_power(*args, power - 1, cn, cd, None, True),
                      f, cn * f.dx // cd)


def _series(key, cutoff):
    """theta_series of the factor that a _theta_power key names."""
    p, q, r, s, function = key
    return theta_series(Characteristic(Fraction(p, q), Fraction(r, s)),
                        ThetaMode.FUNCTION if function else ThetaMode.CONSTANT,
                        cutoff)


def _factors(term):
    """[(key, power)] of a term's factors, key the ints that _theta_power is
    keyed on besides the power and the cutoff."""
    return [((f.char[0].numerator, f.char[0].denominator, f.char[1].numerator,
              f.char[1].denominator, f.argument is Argument.SYMBOLIC_ZETA),
             f.power) for f in term.factors]


def _scaled(mono, scalar, den, icut):
    """mono * scalar * den, for a Cyclotomic scalar whose order divides
    mono's and whose denominators divide den.  The corpus's scalars are one
    entry c0 * w^k0, read off as the ints (k0, c0 * den) and applied as a
    key add (on Python ints when a product may pass int64), which leaves
    the keys sorted by position but not by k."""
    if len(scalar.coeffs) != 1:
        s = pack({_ORIGIN: scalar * den})[0].regrid(*mono[2:5])
        return packed_mul(mono, s, icut)
    (k0, v), = scalar.coeffs.items()
    c0 = v.numerator * (den // v.denominator)
    (l1, mx), a0 = (mono.l1, mono.mx), abs(c0)
    if mx * a0 >= _INT64_SAFE:   # too loose: measure
        l1, mx = _norms(mono.c)
    key = mono.key + k0 * (mono.order // scalar.order)
    _fold(key, mono.order)
    c = mono.c.astype(_dtype(max(mx, 1) * a0)) * c0
    return mono._replace(key=key, c=c, l1=l1 * a0, mx=mx * a0)


def verify_exact(ident, cutoff):
    """Exact cancellation proof of one identity at the given x-cutoff.

    Every term is built and summed in packed form on one grid, from the
    cached powers of its factors on that grid (largest first; a power whose
    product with the rest would pass _DENSE_PAIRS goes in as its bare
    factor, repeated), with the scalars over a common denominator; one
    integer matmul then reduces every position of the sum mod Phi_N."""
    cutoff = Fraction(cutoff)
    if cutoff <= 0:
        raise ValueError("cutoff must be > 0")
    t0 = time.perf_counter()
    cut = cutoff.numerator, cutoff.denominator
    factors = [_factors(term) for term in ident.terms]
    bare = {k: _theta_power(*k, 1, *cut) for fs in factors for k, _ in fs}
    for term, fs in zip(ident.terms, factors):   # no factor may be empty
        empty = [(f.char, f.argument.value, f.power)
                 for f, (k, _) in zip(term.factors, fs) if not bare[k].c.size]
        if empty:
            raise ValueError(f"cutoff {cutoff} is too small to include any "
                             f"term of theta{min(empty)[0]}")
    den = math.lcm(*(v.denominator for t in ident.terms
                     for v in t.scalar.coeffs.values()))
    # the common (dx, dz, order) of the factors, the cutoff and the scalars
    grid = tuple(map(math.lcm, (cut[1], 1, 1), *(f[2:5] for f in bare.values()),
                     *((1, 1, t.scalar.order) for t in ident.terms)))
    icut = cut[0] * grid[0] // cut[1]
    # every factor's bare series and the powers the terms use, looked up once
    powers = {f: _theta_power(*f[0], f[1], *cut, grid) for f in dict.fromkeys(
        g for fs in factors for key, power in fs for g in ((key, 1), (key, power)))}
    # packed_sum sorts the k fields that _scaled leaves unsorted
    terms = []
    for fs, term in zip(factors, ident.terms):
        fs = sorted(fs, key=lambda f: -powers[f].c.size)
        mono = powers[fs[0]]
        for key, power in fs[1:]:
            dense = mono.c.size * powers[key, power].c.size > _DENSE_PAIRS
            for f in [powers[key, 1]] * power if dense else [powers[key, power]]:
                mono = packed_mul(mono, f, icut)
        terms.append(_scaled(mono, term.scalar, den, icut))
    total = packed_sum(terms)
    residuals = [_residual(total, i, ident, factors, terms, den, cutoff)
                 for i in nonzero_positions(total)[:10]]
    return VerificationReport(
        id=ident.id, mode="exact", cutoff=cutoff,
        status="pass" if not residuals else "fail", residuals=residuals,
        elapsed_ms=(time.perf_counter() - t0) * 1000.0)


def _residual(total, i, ident, factors, terms, den, cutoff):
    """(ExponentPair, Cyclotomic) of the sum at the position of entry i.

    The coefficient is written over the field order that summing the terms
    as Cyclotomic series gives it, so reports stay byte-identical: the lcm
    of the orders of the terms that reach the position, counted from the
    last partial sum that cancelled term by term.  A term's order is the lcm
    of its scalar's and its monomial's: the lcm of its factors' orders, or
    for a single factor of power 1 the order of that theta coefficient."""
    ix, iz = _split(int(total.key[i]))
    pos = total.key[i] >> _KB
    e = ExponentPair(Fraction(ix, total.dx), Fraction(iz, total.dz))
    cut = cutoff.numerator, cutoff.denominator
    acc, order = {}, 1
    for term, fs, part in zip(ident.terms, factors, terms):
        at = part.key >> _KB == pos
        if not at.any():
            continue
        for k, c in zip(part.k[at].tolist(), part.c[at].tolist()):
            acc[k] = acc.get(k, 0) + c
        acc = {k: c for k, c in acc.items() if c}
        if not acc:
            order = 1
        elif len(fs) == 1 and fs[0][1] == 1:
            order = math.lcm(order, term.scalar.order,
                             _series(fs[0][0], cutoff).terms[e].order)
        else:
            order = math.lcm(order, term.scalar.order,
                             *(_theta_power(*key, 1, *cut).order
                               for key, _ in fs))
    f = total.order // order
    return e, Cyclotomic(order, {k // f: Fraction(c, den)
                                 for k, c in acc.items()})


def verify_all(catalog, cutoff):
    """One exact report per identity, in deterministic id order.

    Entries flagged as suspected misprints are reported but never fail a
    batch; batch_passed() implements that policy.
    """
    return [verify_exact(i, cutoff) for i in sorted(catalog, key=lambda i: i.id)]


def batch_passed(catalog, reports):
    expected = {i.id: i.expected for i in catalog}
    return all(r.passed or expected.get(r.id) is ExpectedStatus.SUSPECT_TYPO
               for r in reports)


def zeta_grid(z_samples):
    """Deterministic zeta sampling grid, documented for reproducibility."""
    return [complex((j + 0.37) / (z_samples + 1), 0.21)
            for j in range(z_samples)]


def discover_relations(monomials, tau, z_samples, threshold=1e-8, cfg=None):
    """Numeric nullspace of the (z_samples x k) sample matrix of the given
    theta-product monomials at fixed tau.  Returns nullity and, if >= 1, one
    nullspace vector normalized so its first significant entry is 1."""
    k = len(monomials)
    if z_samples < k:
        raise ValueError("need at least as many zeta samples as monomials")
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    # the distinct characteristics of the zeta factors on the grid, in one
    # kernel call
    chars, cols = _index_factors(monomials)
    rows = iter(_theta_rows([c for c, at_zeta in chars if at_zeta],
                            zeta_grid(z_samples), tau, cfg))
    values = [next(rows) if at_zeta else theta_eval(c, 0.0, tau, cfg)
              for c, at_zeta in chars]
    M = np.empty((z_samples, k), dtype=complex)
    for i, col in enumerate(cols):
        v = 1.0
        for j, power in col:
            v *= values[j] ** power
        M[:, i] = v
    _, sv, vh = np.linalg.svd(M)
    if not sv[0]:
        raise ValueError("degenerate sampling: all monomials vanish")
    nullity = int(np.sum(sv <= threshold * sv[0]))
    coeffs = []
    if nullity >= 1:
        vec = vh[-1].conj()
        lead = next(i for i, x in enumerate(vec) if abs(x) > 1e-12)
        coeffs = list(vec / vec[lead])
        coeffs[lead] = 1 + 0j  # exactly, not up to the sign of a zero
    return DiscoveredRelation(monomials=list(monomials), coefficients=coeffs,
                              nullity=nullity, tau=tau,
                              singular_values=[float(s) for s in sv])


def reports_to_json(reports):
    payload = {"schema": 1, "reports": [r.to_dict() for r in reports]}
    return json.dumps(payload, indent=1, sort_keys=True)

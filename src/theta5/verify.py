"""Exact identity verification and numeric relation discovery.

verify_exact proves an identity by expanding every term as a truncated series
over Q(zeta_N) and checking that the sum cancels coefficient-by-coefficient,
from the identity's exact data computed once per cutoff (_plan).  A term is a
product of powers of theta factors; each power is built once per cutoff and
cached on the identity's grid (_theta_power), the bare factor being theta's
defining sum expanded in integers (theta._defining_sum), so a term costs one
kernel call per factor after the first, whatever the powers, until operands
grow dense (_DENSE_PAIRS).  Terms and their sum stay packed (series.Packed;
no PuiseuxSeries2 is built): each entry of a scalar is a key add, the sum is
one merge of keys, and only the reported positions are decoded.  A term with
no entry up to the cutoff is 0 there (theta exponents are >= 0); when every
term is, nothing is compared and the report is "inconclusive".
An identity may claim to be sigma_m T^j of a representative up to a global
scalar (Identity.derived_from; sigma_m: zeta -> zeta^m, T: tau -> tau + 1).
verify_exact checks the claim exactly, in integers, on every call (_claimed),
from the representative's side built once (_claim_data); when it holds and
the representative passes at the cutoff (remembered by content in _PASSES, or
verified now), the identity passes too and its report names the claim.  Only
passes are derived: a failing or inconclusive report is always computed
directly.
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
from typing import NamedTuple

import numpy as np

from .catalog import ExpectedStatus, _index_factors
from .cyclotomic import Cyclotomic
from .numeric import _theta_rows, theta_eval
from .series import (ExponentPair, _KB, _scaled, _split, even_order,
                     nonzero_positions, packed_mul, packed_sum)
from .theta import Characteristic, _defining_sum

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
    status: str               # "pass" | "fail" | "inconclusive"
    residuals: list = field(default_factory=list)  # [(ExponentPair, Cyclotomic)]
    elapsed_ms: float = 0.0
    derived_from: dict | None = None  # {"id", "m", "j"} of a derived pass

    @property
    def passed(self):
        return self.status == "pass"

    def to_dict(self):
        # elapsed_ms is serialized as null so identical runs produce
        # byte-identical reports; wall-clock timing and derived_from are
        # text-output affairs
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
    entries, on the factor's grid, are _defining_sum or power p-1 times it
    truncated on that grid (theta exponents are >= 0, so this keeps exactly
    the entries that truncating on any finer grid keeps); a call without
    `step` looks them up bottom up, one cache hit each, none recursing."""
    args = p, q, r, s, function
    if not step:
        for n in range(1, power + 1):
            f = _theta_power(*args, n, cn, cd, None, True)
        return f if grid is None else f.regrid(*grid)
    if power == 1:
        return _defining_sum(*args, cn, cd)[0]
    f = _theta_power(*args, 1, cn, cd, None, True)
    return packed_mul(_theta_power(*args, power - 1, cn, cd, None, True),
                      f, cn * f.dx // cd)


class _Plan(NamedTuple):
    """An identity's exact data at one cutoff, computed once by _plan."""
    cut: tuple       # the cutoff as (numerator, denominator)
    keys: list       # the distinct factors' _theta_power keys
    terms: list      # each term's factors, [(index into keys, power)]
    scalars: list    # each term's scalar times den, [(k, c)] on grid[2]
    orders: list     # each term's field order (_residual); a lone factor's
                     # term holds its scalar's, joined per position
    grid: tuple      # (dx, dz, order) of the factors, cutoff and scalars
    icut: int        # the cutoff on the grid
    den: int         # the scalars' common denominator


def _plan(ident, cutoff):
    cut = cutoff.numerator, cutoff.denominator
    keys, terms = _index_factors(t.factors for t in ident.terms)
    bare = [_theta_power(*key, 1, *cut) for key in keys]
    scalars = [t.scalar for t in ident.terms]
    den = math.lcm(*(v.denominator for s in scalars
                     for v in s.coeffs.values()))
    grid = tuple(map(math.lcm, (cut[1], 1, 1), *(f[2:5] for f in bare),
                     *((1, 1, s.order) for s in scalars)))
    ints = [[(k * (grid[2] // s.order), v.numerator * (den // v.denominator))
             for k, v in s.coeffs.items()] for s in scalars]
    orders = [math.lcm(s.order, *(() if _lone(fs) else
                                  (bare[j].order for j, _ in fs)))
              for s, fs in zip(scalars, terms)]
    return _Plan(cut, keys, terms, ints, orders, grid,
                 cut[0] * grid[0] // cut[1], den)


def _lone(factors):
    """Whether a term's factors are one factor to the first power."""
    return len(factors) == 1 and factors[0][1] == 1


def verify_exact(ident, cutoff):
    """Exact cancellation proof of one identity at the given x-cutoff.

    An identity whose claim (Identity.derived_from) checks (_claimed)
    passes when its representative passes at the cutoff, as remembered in
    _PASSES or verified now; the report names the claim.  Every other
    report is computed directly: every term is built and summed in packed
    form on the plan's grid, from the cached powers of its factors on that
    grid (largest first; a power whose product with the rest would pass
    _DENSE_PAIRS goes in as its bare factor, repeated), times its scalar;
    one integer matmul then reduces every position of the sum mod Phi_N.
    With every term empty up to the cutoff the report is "inconclusive",
    not "pass"."""
    cutoff = Fraction(cutoff)
    if cutoff <= 0:
        raise ValueError("cutoff must be > 0")
    t0 = time.perf_counter()
    if ident.derived_from is not None:
        rep, m, j = ident.derived_from
        form = _claimed(ident)
        if form is not None and (
                (form, (cutoff.numerator, cutoff.denominator)) in _PASSES
                or verify_exact(rep, cutoff).passed):
            return VerificationReport(
                id=ident.id, mode="exact", cutoff=cutoff, status="pass",
                elapsed_ms=(time.perf_counter() - t0) * 1000.0,
                derived_from={"id": rep.id, "m": m, "j": j})
    plan = _plan(ident, cutoff)
    # every factor's bare series and the powers the terms use, looked up once
    powers = {f: _theta_power(*plan.keys[f[0]], f[1], *plan.cut, plan.grid)
              for f in dict.fromkeys(g for fs in plan.terms for j, power in fs
                                     for g in ((j, 1), (j, power)))}
    terms = []   # packed_sum sorts the k fields that _scaled leaves unsorted
    for fs, scalar in zip(plan.terms, plan.scalars):
        fs = sorted(fs, key=lambda f: -powers[f].c.size)
        mono = powers[fs[0]]
        for j, power in fs[1:]:
            dense = mono.c.size * powers[j, power].c.size > _DENSE_PAIRS
            for f in [powers[j, 1]] * power if dense else [powers[j, power]]:
                mono = packed_mul(mono, f, plan.icut)
        terms.append(_scaled(mono, scalar))
    total = packed_sum(terms)
    residuals = [_residual(plan, terms, total, i)
                 for i in nonzero_positions(total)[:10]]
    status = ("inconclusive" if not any(t.c.size for t in terms)
              else "fail" if residuals else "pass")
    if status == "pass":
        form = ident._cached("_claim", _claim_data)[-1]
        if form is not None:
            _PASSES.add((form, plan.cut))
    return VerificationReport(
        id=ident.id, mode="exact", cutoff=cutoff, status=status,
        residuals=residuals, elapsed_ms=(time.perf_counter() - t0) * 1000.0)


def _residual(plan, terms, total, i):
    """(ExponentPair, Cyclotomic) of the sum at the position of entry i.

    The coefficient is written over the field order that summing the terms
    as Cyclotomic series gives it, so reports stay byte-identical: the lcm
    of the orders of the terms that reach the position, counted from the
    last partial sum that cancelled term by term.  A term's order is the lcm
    of its scalar's and its factors', or for a lone factor of its scalar's
    and that theta coefficient's: the least even order that holds the bare
    factor's entries at the position (series.even_order)."""
    ix, iz = _split(int(total.key[i]))
    pos = total.key[i] >> _KB
    e = ExponentPair(Fraction(ix, total.dx), Fraction(iz, total.dz))
    acc, order = {}, 1
    for fs, part, term_order in zip(plan.terms, terms, plan.orders):
        at = part.key >> _KB == pos
        if not at.any():
            continue
        for k, c in zip(part.k[at].tolist(), part.c[at].tolist()):
            acc[k] = acc.get(k, 0) + c
        acc = {k: c for k, c in acc.items() if c}
        if not acc:
            order = 1
        elif _lone(fs):
            bare = _theta_power(*plan.keys[fs[0][0]], 1, *plan.cut, plan.grid)
            order = math.lcm(order, term_order, even_order(
                bare.order, bare.k[bare.key >> _KB == pos].tolist()))
        else:
            order = math.lcm(order, term_order)
    f = total.order // order
    return e, Cyclotomic(order, {k // f: Fraction(c, plan.den)
                                 for k, c in acc.items()})


# -- orbits: verdicts carried by sigma_m: zeta -> zeta^m and T: tau -> tau+1
# Both are ring automorphisms of the series that keep every exponent
# (sigma_m acts on the coefficients, T multiplies the coefficient at x^r by
# e^(pi i r)), so they commute with truncation: an identity passes at a
# cutoff exactly when its image does.

#: The direct passes of this process, each as (the identity's canonical
#: form, the cutoff as ints).  Content keys it, never an id or an object,
#: so an identity edited in place is not credited with an old pass.
_PASSES = set()


def _image(keys, terms, scalars, den, m=1, j=0):
    """sigma_m T^j of an identity (keys and terms as _index_factors gives
    them), as {sorted factor list: (c, d, a)}, the term's scalar being
    c/d e^(pi i a/den) with 0 <= a < den (the sign folded into c); None
    unless every scalar is one entry c zeta_N^k and the factor lists are
    distinct.  T sends theta[e; e'] to e^(-pi i e(e+2)/4) theta[e; e'+e+1],
    sigma_m sends theta[e; e'] to theta[e; m e'], and the even shift
    theta[e; e'+2n] = e^(pi i e n) theta[e; e'] brings e' into [0, 2).  den
    must be a multiple of every 4q^2 (e = p/q) and every scalar order, and
    m a unit mod every root of unity the identity holds."""
    images = []
    for p, q, r, s, at_zeta in keys:
        n, num = divmod(m * (r * q + j * (p + q) * s), 2 * q * s)
        g = math.gcd(num, q * s)
        images.append(((p, q, num // g, q * s // g, at_zeta),
                       (4 * q * n - m * j * (p + 2 * q)) * p
                       * (den // (4 * q * q))))
    out = {}
    for fs, scalar in zip(terms, scalars):
        if len(scalar.coeffs) != 1:
            return None
        (k, c), = scalar.coeffs.items()
        a, factors = 2 * k * m * (den // scalar.order), {}
        for i, power in fs:
            key, phase = images[i]
            factors[key] = factors.get(key, 0) + power
            a += power * phase
        a %= 2 * den
        c = c if a < den else -c
        out[tuple(sorted(factors.items()))] = (c.numerator, c.denominator,
                                               a % den)
    return out if len(out) == len(terms) else None


def _phase_den(keys, scalars):
    """The least den that _image takes for these factors and scalars."""
    return math.lcm(*(4 * q * q for _, q, _, _, _ in keys),
                    *(s.order for s in scalars))


def _claim_data(rep):
    """What every claim on rep reads of it, built once (Identity._cached):
    its _index_factors keys and terms, its scalars, the modulus m must be
    prime to (every root of unity its series, T factors and scalars hold:
    4qs and 8q^2 per theta[p/q; r/s], and the scalar orders) and its
    canonical form, its _image on its own _phase_den (None if rejected)."""
    keys, terms = _index_factors(t.factors for t in rep.terms)
    scalars = [t.scalar for t in rep.terms]
    unit = math.lcm(*(math.lcm(4 * q * s, 8 * q * q)
                      for _, q, _, s, _ in keys), *(c.order for c in scalars))
    den = _phase_den(keys, scalars)
    image = _image(keys, terms, scalars, den)
    form = None if image is None else (den, frozenset(image.items()))
    return keys, terms, scalars, unit, form


def _claimed(ident):
    """The canonical form of the representative in ident.derived_from =
    (representative, m, j) when the claim checks, else None.  It checks
    when m is prime to the representative's unit modulus, the
    representative claims no orbit itself, and ident's terms are those of
    sigma_m T^j of it times one global scalar (_image).  Integers only; the
    representative's side is its cached _claim_data."""
    rep, m, j = ident.derived_from
    if rep.derived_from is not None:
        return None
    rkeys, rterms, rscalars, unit, form = rep._cached("_claim", _claim_data)
    if math.gcd(m, unit) != 1:
        return None
    keys, terms = _index_factors(t.factors for t in ident.terms)
    scalars = [t.scalar for t in ident.terms]
    den = math.lcm(_phase_den(rkeys, rscalars), _phase_den(keys, scalars))
    image = _image(rkeys, rterms, rscalars, den, m, j)
    own = _image(keys, terms, scalars, den)
    if image is None or own is None or image.keys() != own.keys():
        return None
    ratios = set()   # own / image per term, as (c, d, a) like the scalars
    for f, (c0, d0, a0) in own.items():
        c1, d1, a1 = image[f]
        num, d, a = c0 * d1, d0 * c1, (a0 - a1) % (2 * den)
        g = math.gcd(num, d) * (1 if d > 0 else -1)
        ratios.add(((num if a < den else -num) // g, d // g, a % den))
    return form if len(ratios) == 1 else None


def verify_all(catalog, cutoff):
    """One exact report per identity, in deterministic id order.

    Entries flagged as suspected misprints are reported but never fail a
    batch; batch_status() implements that policy.
    """
    return [verify_exact(i, cutoff) for i in sorted(catalog, key=lambda i: i.id)]


def batch_status(catalog, reports):
    """The batch's status: "fail" if a counted report fails, else
    "inconclusive" if one is, else "pass".  Reports of suspected misprints
    never count."""
    suspect = {i.id for i in catalog
               if i.expected is ExpectedStatus.SUSPECT_TYPO}
    counted = {r.status for r in reports if r.id not in suspect}
    return next((s for s in ("fail", "inconclusive") if s in counted), "pass")


def batch_passed(catalog, reports):
    return batch_status(catalog, reports) == "pass"


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
    # kernel call, as the doubles p / q and r / s of their integer keys
    keys, cols = _index_factors(monomials)
    rows = iter(_theta_rows([(p / q, r / s) for p, q, r, s, at_zeta in keys
                             if at_zeta], zeta_grid(z_samples), tau, cfg))
    values = [next(rows) if at_zeta else theta_eval(Characteristic(
                  Fraction(p, q), Fraction(r, s)), 0.0, tau, cfg)
              for p, q, r, s, at_zeta in keys]
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

"""Exact identity verification and numeric relation discovery.

verify_exact proves an identity by expanding every term as a truncated series
over Q(zeta_N) and checking that the sum cancels coefficient-by-coefficient,
from the identity's exact data computed once per cutoff (_plan), whose bare
factors are theta's defining sum expanded in integers (theta._defining_sum).
A constant-kind identity is tried first in the dense unit-class lane
(_lane): the terms are split into classes by x-offset and by their unit
modulo Q(zeta_M), M | N, and each class must cancel on its own; every term
is one dense int64 series over Z[zeta_M], multiplied by its bare factors one
power at a time in shifted adds, with no sort or merge.  When a class does
not cancel, the lane knows the first ten positions where the sum is
nonzero, and the sparse way writes the fail report from a plan cut at the
last of them: truncation keeps every entry up to the cut, so the reported
positions and their coefficients are those of the full expansion.  When the
lane gives up (every term empty, a factor at zeta, a bound past int64, an
array past its budget) and for every function-kind identity the sparse way
runs at the full cutoff; it writes every fail and inconclusive report: a
term is a product of powers of theta factors, each built once per cutoff and
cached on the identity's grid (_theta_power), so a term costs one kernel
call per factor after the first, whatever the powers.  Terms and their sum
stay packed (series.Packed; no PuiseuxSeries2 is built): each entry of a
scalar is a key add, the sum is one merge of keys, and only the reported
positions are decoded.  A term with no entry up to the cutoff is 0 there
(theta exponents are >= 0); when every term is, nothing is compared and the
report is "inconclusive".
An identity may claim to be sigma_m T^j of a representative up to a global
scalar (Identity.derived_from; sigma_m: zeta -> zeta^m, T: tau -> tau + 1).
verify_exact checks a claim exactly, in integers, once per identity (_claimed):
the representative's canonical form is built once (_claim_data) and mapped
by sigma_m T^j (_orbit), and the identity's terms are read once against that
image, by the walk that builds the form (_term_images), so a claim builds no
factor index or image of the identity.  When it holds and the
representative passes at the cutoff (remembered by content in _PASSES, or
verified now), the identity passes too and its report names the claim.
Only passes are derived: a failing or inconclusive report is always
computed directly.
discover_relations rediscovers linear relations among products of theta
functions numerically: sample the functions in zeta at a fixed tau, and read
the relation off the nullspace of the sample matrix (the dimension count
dim F_N = N guarantees such relations exist).
"""

from __future__ import annotations

import functools
import json
import math
import operator
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .catalog import ExpectedStatus, IdentityKind
from .cyclotomic import Cyclotomic, radical, reduction_matrix
from .numeric import _theta_rows, theta_eval
from .series import (ExponentPair, _INT64_SAFE, _KB, _fits, _norms, _scaled,
                     _split, even_order, nonzero_positions, packed_mul,
                     packed_rows, packed_sum)
from .theta import Characteristic, _defining_sum

#: The most int64 entries of the dense lane's array of terms; an identity
#: that needs more goes to the sparse kernel.  The corpus needs at most
#: 409,600 at cutoff 1024 (cube-product-15-1).
_LANE_ENTRIES = 1 << 21


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
    keys: tuple      # the distinct factors' _theta_power keys
    terms: tuple     # each term's factors, ((index into keys, power), ...)
    scalars: list    # each term's scalar times den, [(k, c)] on grid[2]
    orders: list     # each term's field order (_residual); a lone factor's
                     # term holds its scalar's, joined per position
    grid: tuple      # (dx, dz, order) of the factors, cutoff and scalars
    icut: int        # the cutoff on the grid
    den: int         # the scalars' common denominator
    bare: tuple      # each distinct factor to the power 1 on the grid, up
                     # to the cutoff of _plan (a cut plan keeps them)


def _plan(ident, cutoff):
    cut = cutoff.numerator, cutoff.denominator
    keys, terms = ident._factor_index
    bare = [_theta_power(*key, 1, *cut, None, True) for key in keys]
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
    icut = cut[0] * grid[0] // cut[1]
    zb = max((sum(p * bare[j].zb * (grid[1] // bare[j].dz) for j, p in fs)
              for fs in terms), default=0)
    try:   # a term's keys have ix <= icut and |iz| <= zb
        _fits(icut, zb, grid[2])
    except OverflowError:
        raise ValueError(f"cutoff {cutoff} puts exponents on the common grid "
                         "past the int64 key range") from None
    return _Plan(cut, keys, terms, ints, orders, grid, icut, den,
                 tuple(_theta_power(*key, 1, *cut, grid) for key in keys))


def _lone(factors):
    """Whether a term's factors are one factor to the first power."""
    return len(factors) == 1 and factors[0][1] == 1


def verify_exact(ident, cutoff):
    """Exact cancellation proof of one identity at the given x-cutoff.

    An identity whose claim (Identity.derived_from) checks (_claimed)
    passes when its representative passes at the cutoff, as remembered in
    _PASSES or verified now; the report names the claim.  Every other
    report is computed directly.  A constant-kind identity passes when the
    dense lane (_lane) finds no nonzero position, and fails when it finds
    some, its report written as below from the plan cut at the last (at
    most the tenth) of them; otherwise, and for function-kind identities,
    every term is built and summed in packed form on the plan's grid, the
    cached powers of its factors on that grid multiplied largest first,
    times its scalar, and one integer matmul reduces every position of the
    sum mod Phi_N.  With every term empty up to the cutoff the report is
    "inconclusive", not "pass"."""
    cutoff = Fraction(cutoff)
    if cutoff <= 0:
        raise ValueError("cutoff must be > 0")
    t0 = time.perf_counter()
    if ident.derived_from is not None:
        rep, m, j = ident.derived_from
        form = ident._cached("_claimed", _claimed)
        if form is not None and (
                (form, (cutoff.numerator, cutoff.denominator)) in _PASSES
                or verify_exact(rep, cutoff).passed):
            return VerificationReport(
                id=ident.id, mode="exact", cutoff=cutoff, status="pass",
                elapsed_ms=(time.perf_counter() - t0) * 1000.0,
                derived_from={"id": rep.id, "m": m, "j": j})
    plan = _plan(ident, cutoff)
    found = _lane(plan) if ident.kind is IdentityKind.CONSTANT else None
    if found:   # cut at the last nonzero position the lane found
        plan = plan._replace(icut=found[-1], cut=Fraction(
            found[-1], plan.grid[0]).as_integer_ratio())
    status, residuals = ("pass", []) if found == [] else _sparse(plan)
    if status == "pass":
        form = ident._cached("_claim", _claim_data)[-1]
        if form is not None:
            _PASSES.add((form, plan.cut))
    return VerificationReport(
        id=ident.id, mode="exact", cutoff=cutoff, status=status,
        residuals=residuals, elapsed_ms=(time.perf_counter() - t0) * 1000.0)


def _sparse(plan):
    """(status, residuals) of the plan's identity from its packed terms."""
    powers = {f: _theta_power(*plan.keys[f[0]], f[1], *plan.cut, plan.grid)
              for f in dict.fromkeys(f for fs in plan.terms for f in fs)}
    terms = []   # packed_sum sorts the k fields that _scaled leaves unsorted
    for fs, scalar in zip(plan.terms, plan.scalars):
        fs = sorted(fs, key=lambda f: -powers[f].c.size)
        # a term with no factor is its scalar: an empty product is 1
        mono = powers[fs[0]] if fs else packed_rows([(0, 0, 0, 1)], *plan.grid)
        for f in fs[1:]:
            mono = packed_mul(mono, powers[f], plan.icut)
        terms.append(_scaled(mono, scalar))
    total = packed_sum(terms)
    residuals = [_residual(plan, terms, total, i)
                 for i in nonzero_positions(total)[:10]]
    return ("inconclusive" if not any(t.c.size for t in terms)
            else "fail" if residuals else "pass"), residuals


def _lane(plan):
    """The first ten x-positions (ix on the plan's grid) at which a constant
    identity's sum is nonzero, found in the dense unit-class lane: [] when
    it passes; None leaves the verdict to the sparse path.

    The bare factors' entries x^(ix/dx) zeta_N^k (N the grid order) give
    the split.  The x-step sigma is the gcd of the ix differences: an entry
    is x^(offset/dx), its factor's ix mod sigma, times x^(sigma/dx) to the
    power of its slot.  With G the gcd of N, the k differences within each
    factor and the scalars' k, M = lcm(N/G, rad N) divides N and has its
    primes, so the zeta_N^c, 0 <= c < N/M, are a basis of Q(zeta_N) over
    Q(zeta_M): an entry is zeta_N^c, its factor's class c = k mod N/M,
    times zeta_M^b.  A term is its class (offset sum mod sigma, class sum
    mod N/M) times a series in x^(sigma/dx) over Z[zeta_M]; the sums'
    carries are a slot shift and a unit, applied at the end.  The sum is
    nonzero at a position exactly when a class is, so the identity holds
    exactly when each class cancels on its own, and the positions where it
    does not are offset + slot * sigma over the classes' nonzero slots.

    Z[zeta_M] is worked in as Z[w]/(w^h + 1), h = M/2, for M even (zeta_M^h
    = -1), else as Z[w]/(w^M - 1): zeta_M^b is +-w^(b mod h).  All terms
    are one int64 array (slots, 2h, terms), each slot holding a term's h
    coefficients times -1 (M even) or 1 and then the h coefficients, so a
    product by w^i reads h rows in a row.  Each factor multiplies the terms
    that take it, once per power step: one shifted add per bare entry, times
    its integer, each one run of the flat arrays; nothing is sorted or
    merged.  Each term, times its carried unit, is written in the power
    basis by rows of reduction_matrix(M), and each class's sum is compared
    up to the cutoff.  Each entry of +-1 (about two in five) is one in-place
    add or subtract, with no temporary.  A factor's data is built once per
    factor, not per identity: its entries and gcds per (factor, cutoff,
    grid) (_lane_entries), its folded form per split (_lane_factor).

    The lane gives up (None) on a factor at zeta, on every term empty up to
    the cutoff, on an array of more than _LANE_ENTRIES, and on a bound past
    _INT64_SAFE.  The bound is proven once when it can be: no value the lane
    forms exceeds a term's scalar's sum |c| times its factors' sum |c| to
    their powers, so with that below _INT64_SAFE over the terms times h
    times the largest reduction entry, nothing is checked again.  Else sum
    |c| and max |c| per term are carried step by step, as Packed carries
    them, and measured when too loose."""
    if any(key[4] for key in plan.keys):
        return None
    n, icut = plan.grid[2], plan.icut
    data = [_lane_entries(key, plan.cut, plan.grid) for key in plan.keys]
    sigma = math.gcd(*(gx for _, gx, _ in data)) or icut + 1
    g = math.gcd(n, *(gk for *_, gk in data),
                 *(k for s in plan.scalars for k, _ in s))
    m = math.lcm(n // g, radical(n))
    q = n // m
    # an empty factor's offset puts every term that takes it past the cutoff
    offset = [e[0][0] % sigma if e else icut + 1 for e, *_ in data]
    unit = [e[0][1] % q if e else 0 for e, *_ in data]
    terms = []   # (scalar, {factor: power}, offset sum, class sum) of each
    for scalar, fs in zip(plan.scalars, plan.terms):   # term within icut
        power = {}
        for j, p in fs:
            power[j] = power.get(j, 0) + p
        xs = sum(p * offset[j] for j, p in power.items())
        if xs <= icut:
            terms.append((scalar, power, xs,
                          sum(p * unit[j] for j, p in power.items())))
    # M is even once a term has a factor: a theta coefficient's order,
    # 4qs / gcd(ur, 2qs), is
    h = m // 2 if m % 2 == 0 else m
    sign = -1 if h < m else 1
    slots = (icut - min((t[2] for t in terms), default=icut)) // sigma + 1
    if not terms or slots * 2 * h * len(terms) > _LANE_ENTRIES:
        return None
    acc = np.zeros((slots, 2 * h, len(terms)), np.int64)
    l1, mx = [], []
    for t, (scalar, *_) in enumerate(terms):
        vec = _folded(((0, k // q, c) for k, c in scalar), h)
        l1.append(sum(map(abs, vec.values())))
        mx.append(max(map(abs, vec.values()), default=0))
        if mx[t] >= _INT64_SAFE:
            return None
        for (_, i), c in vec.items():
            acc[0, i, t], acc[0, h + i, t] = sign * c, c
    # each factor that a term takes, folded on this split
    folds = {j: _lane_factor(plan.keys[j], plan.cut, plan.grid, sigma, q, h,
                             slots)
             for j in sorted({j for t in terms for j in t[1]})}
    red = reduction_matrix(m)
    rmax, rows = int(np.abs(red).max()), np.arange(h)
    proven = len(terms) * h * rmax * max(
        math.prod((folds[j][1] ** p for j, p in power.items()), start=l1[t])
        for t, (_, power, *_) in enumerate(terms)) < _INT64_SAFE

    def safe(ts, held, bound):
        """Whether bound(t) < _INT64_SAFE for each term t in ts (held[..., i]
        holds ts[i]), measuring them when the carried bounds are too loose."""
        if max(map(bound, ts)) < _INT64_SAFE:
            return True
        for i, t in enumerate(ts):
            l1[t], mx[t] = _norms(held[:, h:, i].ravel())
        return max(map(bound, ts)) < _INT64_SAFE

    for j, (f, fl1, fmx) in folds.items():
        # the terms that take f, most powers first: those of power step p
        # are a prefix of them, held in one copy
        take = sorted((t for t in range(len(terms)) if j in terms[t][1]),
                      key=lambda t: -terms[t][1][j])

        def bound(t):   # max |c| of term t times f
            return min(l1[t] * fmx, fl1 * mx[t])

        sub = acc.take(take, axis=2)
        for p in range(1, terms[take[0]][1][j] + 1):
            sel = [t for t in take if terms[t][1][j] >= p]
            k, width = len(sel), 2 * h * len(sel)   # the values of a slot
            src = sub if k == len(take) else np.ascontiguousarray(
                sub[..., :k])
            if not proven:
                if not safe(sel, src, bound):
                    return None
                for t in sel:
                    l1[t], mx[t] = l1[t] * fl1, bound(t)
            # c w^i at slot s adds the h rows from h - i of slot r to the
            # last h of slot r + s: one run of the flat arrays, which puts
            # scratch (never read; it may wrap) in the first h, rewritten
            out, src = np.zeros(src.shape, np.int64), src.reshape(-1)
            flat = out.reshape(-1)
            for (s, i), c in f:
                w, run = (h - i) * k, flat[s * width + h * k:]
                part = src[w:w + run.size]
                if c == 1:
                    run += part
                elif c == -1:
                    run -= part
                else:
                    run += part * c
            np.multiply(out[:, h:], sign, out=out[:, :h])
            if k == len(take):
                sub = out
            else:
                sub[..., :k] = out
        acc[..., take] = sub
    if not proven and not safe(range(len(terms)), acc,
                               lambda t: len(terms) * h * rmax * mx[t]):
        return None
    classes, seen = {}, False
    for t, (*_, xs, cs) in enumerate(terms):
        (cx, o), (cu, c) = divmod(xs, sigma), divmod(cs, q)
        last = (icut - o) // sigma
        part = acc[:last + 1 - cx, h:, t]
        seen = seen or part.any()
        total = classes.setdefault((o, c), np.zeros((last + 1, red.shape[1]),
                                                    np.int64))
        total[cx:] += part @ red[(rows + cu) % m]   # times zeta_M^cu
    if not seen:
        return None
    return sorted({o + s * sigma for (o, _), total in classes.items()
                   for s in np.flatnonzero(total.any(axis=1)).tolist()})[:10]


@functools.lru_cache(maxsize=None)
def _lane_entries(key, cut, grid):
    """The lane's data of one bare factor on a grid, built once per (factor,
    cutoff, grid): its entries as Python ints, ((ix, k, c), ...), and the
    gcds of its ix differences and of its k differences (0 when it has at
    most one entry)."""
    f = _theta_power(*key, 1, *cut, grid)
    ix, k = f.ix, f.k
    return (tuple(zip(ix.tolist(), k.tolist(), f.c.tolist())),
            int(np.gcd.reduce(ix - ix[:1])), int(np.gcd.reduce(k - k[:1])))


@functools.lru_cache(maxsize=None)
def _lane_factor(key, cut, grid, sigma, q, h, slots):
    """A bare factor folded for the lane's split (x-step sigma, class
    modulus q, h coefficients per unit, slots up to the cutoff), shared by
    the identities that split alike: (((slot, w-power), c), ...) with its
    sum |c| and max |c|."""
    entries = _lane_entries(key, cut, grid)[0]
    offset, unit = entries[0][0] % sigma, entries[0][1] % q
    f = _folded((((ix - offset) // sigma, (k - unit) // q, c)
                 for ix, k, c in entries if (ix - offset) // sigma < slots), h)
    return (tuple(f.items()), sum(map(abs, f.values())),
            max(map(abs, f.values()), default=0))


def _folded(entries, h):
    """{(slot, b mod h): c} of the entries c zeta_M^b at each slot, with no
    zero c, zeta_M^h = -1 when h < M (M = 2h) and b < 2h."""
    out = {}
    for s, b, c in entries:
        out[s, b % h] = out.get((s, b % h), 0) + (c if b < h else -c)
    return {e: c for e, c in out.items() if c}


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
            bare = plan.bare[fs[0][0]]
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
#: so an edited copy is not credited with its original's pass.
_PASSES = set()


def _image(ident, den):
    """An identity's canonical form on den, from its terms (_term_images),
    as (factors, {powers: (c, d, a)}): factors is the sorted tuple of the
    distinct factors' keys with e' in [0, 2), powers a term's power of each
    of them in that order (a flat tuple of ints), and the term's scalar is
    c/d e^(pi i a/den) with 0 <= a < den (the sign folded into c); None
    unless every scalar is one entry c zeta_N^k and the terms' powers are
    distinct.  den must be a multiple of every 4q^2 (e = p/q) and every
    scalar order."""
    walk = _term_images(ident, den)
    if walk is None:
        return None
    factors, terms = walk
    out = dict(terms)
    return (factors, out) if len(out) == len(terms) else None


def _term_images(ident, den, factors=None):
    """Each term in _image's form, in order, as (factors, [(powers, (c, d,
    a)), ...]); the powers are read over the given factors, in their
    order, if any.  None unless every scalar is one entry c zeta_N^k and
    (factors given) every factor, with e' in [0, 2), is one of them.  Each
    distinct factor is mapped once (_factor_image)."""
    mapped = {key: _factor_image(key, den)
              for key in {f.key for t in ident.terms for f in t.factors}}
    if factors is None:
        factors = tuple(sorted({f for f, _ in mapped.values()}))
    index = {f: i for i, f in enumerate(factors)}
    place = {}
    for key, (f, phase) in mapped.items():
        if f not in index:
            return None
        place[key] = index[f], phase
    out = []
    for t in ident.terms:
        if len(t.scalar.coeffs) != 1:
            return None
        (k, c), = t.scalar.coeffs.items()
        a, powers = 2 * k * (den // t.scalar.order), [0] * len(factors)
        for f in t.factors:
            i, phase = place[f.key]
            powers[i] += f.power
            a += f.power * phase
        a %= 2 * den
        out.append((tuple(powers), (c.numerator if a < den else -c.numerator,
                                    c.denominator, a % den)))
    return factors, out


def _orbit(form, den, m, j):
    """sigma_m T^j of a canonical form (den0, factors, ((powers, (c, d,
    a)), ...)) on den0, as (factors, {powers: (c, d, a)}) on den, a
    multiple of den0, in _image's terms but with each factor's image in
    the place of the factor, so the powers are the form's; None unless the
    factors' images are distinct.  T sends theta[e; e'] to
    e^(-pi i e(e+2)/4) theta[e; e'+e+1], sigma_m sends theta[e; e'] to
    theta[e; m e'] and a scalar c/d e^(pi i a/den0) to c/d
    e^(pi i m a/den0), and the even shift theta[e; e'+2n] = e^(pi i e n)
    theta[e; e'] brings e' into [0, 2) (_factor_image).  m must be a unit
    mod every root of unity the form holds."""
    den0, factors, terms = form
    images = [_factor_image(f, den, m, j) for f in factors]
    factors, phases = tuple(f for f, _ in images), [a for _, a in images]
    r, out = m * (den // den0), {}
    for powers, (c, d, a) in terms:
        a = (a * r + sum(map(operator.mul, powers, phases))) % (2 * den)
        out[powers] = (c if a < den else -c, d, a % den)
    return (factors, out) if len(set(factors)) == len(factors) else None


def _factor_image(key, den, m=1, j=0):
    """sigma_m T^j of the factor theta[p/q; r/s] with the given key, e' in
    [0, 2), as (its key, a): the factor is e^(pi i a/den) times it."""
    p, q, r, s, at_zeta = key
    n, num = divmod(m * (r * q + j * (p + q) * s), 2 * q * s)
    g = math.gcd(num, q * s)
    return ((p, q, num // g, q * s // g, at_zeta),
            (4 * q * n - m * j * (p + 2 * q)) * p * (den // (4 * q * q)))


def _claim_data(rep):
    """What every claim on rep reads of it, built once (Identity._cached):
    the modulus m must be prime to (every root of unity its series, T
    factors and scalars hold: 4qs and 8q^2 per theta[p/q; r/s], and the
    scalar orders) and its canonical form, its _image on the least den
    _image takes for it (None if rejected)."""
    keys, orders = rep._factor_index[0], [t.scalar.order for t in rep.terms]
    unit = math.lcm(*(math.lcm(4 * q * s, 8 * q * q) for _, q, _, s, _
                      in keys), *orders)
    den = math.lcm(*(4 * q * q for _, q, _, _, _ in keys), *orders)
    image = _image(rep, den)
    return unit, None if image is None else (den, image[0],
                                             frozenset(image[1].items()))


def _claimed(ident):
    """The canonical form of the representative in ident.derived_from =
    (representative, m, j) when the claim checks, else None.  It checks
    when m is prime to the representative's unit modulus, the
    representative claims no orbit itself and has a form (else it has no
    _image), and ident's terms are those of sigma_m T^j of it times one
    global scalar.  The form's image (_orbit) is read against ident's
    terms, walked once as _image walks them (_term_images, over the
    image's factors): every scalar is one entry c zeta_N^k; every factor,
    with e' in [0, 2), is one of the image's; every term's powers match an
    image term no other term matched, and none is left over; and each
    term's ratio own / image, num/d e^(pi i a/den) with 0 <= a < den,
    equals the first term's, num * d0 = num0 * d (no gcd) and a = a0.
    Integers only; the representative's side is its _claim_data, and ident
    builds no derived data of its own."""
    rep, m, j = ident.derived_from
    if rep.derived_from is not None:
        return None
    unit, form = rep._cached("_claim", _claim_data)
    if form is None or math.gcd(m, unit) != 1:
        return None
    # a factor found among the image's has an image's q, so 4q^2 | den
    den = math.lcm(form[0], *(t.scalar.order for t in ident.terms))
    image = _orbit(form, den, m, j)
    walk = None if image is None else _term_images(ident, den, image[0])
    if walk is None:
        return None
    image, first = image[1], None
    for powers, (c0, d0, a0) in walk[1]:
        match = image.pop(powers, None)
        if match is None:
            return None
        c1, d1, a1 = match
        num, d, a = c0 * d1, d0 * c1, a0 - a1
        if a < 0:
            num, a = -num, a + den
        if first is None:
            first = num, d, a
        elif a != first[2] or num * first[1] != first[0] * d:
            return None
    return None if image else form


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


def zeta_grid(z_samples):
    """Deterministic zeta sampling grid, documented for reproducibility."""
    return [complex((j + 0.37) / (z_samples + 1), 0.21)
            for j in range(z_samples)]


#: zeta_grid as a tuple, once per size: _theta_rows keeps its inputs
_grid = functools.lru_cache(maxsize=64)(lambda n: tuple(zeta_grid(n)))


@functools.lru_cache(maxsize=64)
def _sample_plan(content):
    """For monomials as their factors' (key, power): the zeta factors' float
    pairs, the constants, the distinct (factor, power), and by position the
    monomials (a slice if all) and their pairs (len(pairs) for none)."""
    keys = sorted(dict.fromkeys(key for mono in content for key, _ in mono),
                  key=lambda key: not key[4])   # the zeta factors first
    pairs = {}
    slots = [[pairs.setdefault((keys.index(key), power), len(pairs))
              for key, power in mono] for mono in content]
    ats = [[i for i, s in enumerate(slots) if len(s) > n]
           for n in range(1, max(map(len, slots)))]
    return (tuple((p / q, r / s) for p, q, r, s, z in keys if z),
            [Characteristic(Fraction(p, q), Fraction(r, s))
             for p, q, r, s, z in keys if not z],
            list(pairs), [s[0] if s else len(pairs) for s in slots],
            [(slice(None) if len(at) == len(slots) else at,
              [slots[i][n] for i in at]) for n, at in enumerate(ats, 1)])


def discover_relations(monomials, tau, z_samples, threshold=1e-8, cfg=None):
    """Numeric nullspace of the (z_samples x k) sample matrix of the given
    theta-product monomials at fixed tau.  Returns nullity and, if >= 1, one
    nullspace vector normalized so its first significant entry is 1, all as
    Python numbers.  The matrix is built by factor position, from a plan
    kept per monomial content (_sample_plan)."""
    k = len(monomials)
    if not k:
        raise ValueError("need at least one monomial")
    if z_samples < k:
        raise ValueError("need at least as many zeta samples as monomials")
    chars, consts, pairs, first, later = _sample_plan(tuple(
        [tuple([(f.key, f.power) for f in mono]) for mono in monomials]))
    values = [*_theta_rows(chars, _grid(z_samples), tau, cfg),
              *(theta_eval(c, 0.0, tau, cfg) for c in consts)]
    # each distinct (factor, power) row once, a constant row at zero; the
    # first factors gathered, then each later position multiplied in
    table = np.ones((len(pairs) + 1, z_samples), dtype=complex)
    for row, (j, power) in zip(table, pairs):
        row[:] = values[j] if power == 1 else values[j] ** power
    M = table.take(first, axis=0)
    for at, idx in later:
        M[at] *= table.take(idx, axis=0)
    _, sv, vh = np.linalg.svd(M.T, full_matrices=False)  # only sv, vh[-1] read
    sv = sv.tolist()
    if not sv[0]:
        raise ValueError("degenerate sampling: all monomials vanish")
    cut = float(threshold * sv[0])
    nullity = sum(s <= cut for s in sv)
    coeffs = []
    if nullity >= 1:
        vec = vh[-1].conj()
        lead = next(i for i, x in enumerate(vec.tolist()) if abs(x) > 1e-12)
        coeffs = (vec / vec[lead]).tolist()
        coeffs[lead] = 1 + 0j  # exactly, not up to the sign of a zero
    return DiscoveredRelation(monomials=list(monomials), coefficients=coeffs,
                              nullity=nullity, tau=complex(tau),
                              singular_values=sv)


def reports_to_json(reports):
    payload = {"schema": 1, "reports": [r.to_dict() for r in reports]}
    return json.dumps(payload, indent=1, sort_keys=True)

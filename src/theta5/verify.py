"""Exact identity verification and numeric relation discovery.

verify_exact proves an identity by expanding every term as a truncated series
over Q(zeta_N) and checking that the sum cancels coefficient-by-coefficient.
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

from .catalog import Argument, ExpectedStatus
from .cyclotomic import Cyclotomic
from .numeric import monomial_value
from .series import (ExponentPair, nonzero_positions, on_common_grid, pack,
                     packed_mul, packed_sum)
from .theta import ThetaMode, theta_series

_ORIGIN = ExponentPair(Fraction(0), Fraction(0))


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
def _theta_factor(char, mode, cutoff):
    """theta_series(char, mode, cutoff) packed on its own grid: the one cache
    of exact verification (the corpus asks for each factor dozens of times)."""
    return pack(theta_series(char, mode, cutoff).terms)[0]


def _factors(term, cutoff):
    """[(char, mode, power)] of a term, in a fixed order; raises if the
    cutoff leaves a factor without terms."""
    out = []
    for char, arg, power in sorted((f.char, f.argument.value, f.power)
                                   for f in term.factors):
        mode = (ThetaMode.FUNCTION if arg == Argument.SYMBOLIC_ZETA.value
                else ThetaMode.CONSTANT)
        if not _theta_factor(char, mode, cutoff).c.size:
            raise ValueError(f"cutoff {cutoff} is too small to include any "
                             f"term of theta{char}")
        out.append((char, mode, power))
    return out


def verify_exact(ident, cutoff):
    """Exact cancellation proof of one identity at the given x-cutoff.

    Every term is built and summed in packed form (series.Packed) on one
    grid, with the scalars brought to a common denominator; one integer
    matmul then reduces every position of the sum mod Phi_N."""
    cutoff = Fraction(cutoff)
    if cutoff <= 0:
        raise ValueError("cutoff must be > 0")
    t0 = time.perf_counter()
    factors = [_factors(term, cutoff) for term in ident.terms]
    den = math.lcm(*(v.denominator for t in ident.terms
                     for v in t.scalar.coeffs.values()))
    scalars = [pack({_ORIGIN: t.scalar * den})[0] for t in ident.terms]
    thetas = {f[:2]: _theta_factor(*f[:2], cutoff) for fs in factors for f in fs}
    packs, icut = on_common_grid([*thetas.values(), *scalars], cutoff)
    grid = dict(zip(thetas, packs))
    terms = []
    for fs, scalar in zip(factors, packs[len(thetas):]):
        acc = None
        for char, mode, power in fs:
            for _ in range(power):
                f = grid[char, mode]
                acc = f if acc is None else packed_mul(acc, f, icut)
        terms.append(packed_mul(acc, scalar, icut))
    total = packed_sum(terms)
    residuals = [_residual(total, i, ident, factors, terms, den, cutoff)
                 for i in nonzero_positions(total)[:10]]
    elapsed = (time.perf_counter() - t0) * 1000.0
    return VerificationReport(
        id=ident.id, mode="exact", cutoff=cutoff,
        status="pass" if not residuals else "fail",
        residuals=residuals, elapsed_ms=elapsed)


def _residual(total, i, ident, factors, terms, den, cutoff):
    """(ExponentPair, Cyclotomic) of the sum at the position of entry i.

    The coefficient is written over the field order that summing the terms
    as Cyclotomic series gives it, so reports stay byte-identical: the lcm
    of the orders of the terms that reach the position, counted from the
    last partial sum that cancelled term by term.  A term's order is the lcm
    of its scalar's and its monomial's: the lcm of its factors' orders, or
    for a single factor of power 1 the order of that theta coefficient."""
    ix, iz = total.ix[i], total.iz[i]
    e = ExponentPair(Fraction(int(ix), total.dx), Fraction(int(iz), total.dz))
    acc, order = {}, 1
    for term, fs, part in zip(ident.terms, factors, terms):
        at = (part.ix == ix) & (part.iz == iz)
        if not at.any():
            continue
        for k, c in zip(part.k[at].tolist(), part.c[at].tolist()):
            acc[k] = acc.get(k, 0) + c
        acc = {k: c for k, c in acc.items() if c}
        if not acc:
            order = 1
        elif len(fs) == 1 and fs[0][2] == 1:
            order = math.lcm(order, term.scalar.order,
                             theta_series(*fs[0][:2], cutoff).terms[e].order)
        else:
            order = math.lcm(order, term.scalar.order,
                             *(_theta_factor(*f[:2], cutoff).order for f in fs))
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
    grid = np.array(zeta_grid(z_samples))
    M = np.empty((z_samples, k), dtype=complex)
    for i, mono in enumerate(monomials):
        M[:, i] = monomial_value(mono, grid, tau, cfg)
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

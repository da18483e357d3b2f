"""Floating-point evaluation of theta functions and contour-integral residues.

Complements the exact series engine: identities and residue closed forms are
checked numerically at sampled tau in the upper half-plane, with contour
integration (trapezoid rule on a circle) for residues of elliptic functions
built from theta quotients.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .catalog import Argument, IdentityKind
from .theta import Characteristic, theta_zero_point

TWO_PI_I = 2j * math.pi


@dataclass(frozen=True, eq=False)
class EvalConfig:
    """Truncation settings of the numeric theta sum.  Compared and hashed by
    identity (eq=False): the scalar theta cache keys on the config, and the
    generated value hash would run in Python on every cache hit."""
    tol: float = 1e-12
    max_terms: int = 4000

    def __post_init__(self):
        if self.max_terms < 8:
            raise ValueError("max_terms must be >= 8")
        if not 0.0 <= self.tol < 1.0:
            raise ValueError("tol must lie in [0, 1)")


# one shared default, so calls without a config share cache entries
_DEFAULT_CFG = EvalConfig()


def _theta_sum(eps, epsp, zeta, tau, cfg, deriv):
    """The defining sum, for the characteristic [eps; epsp] given as floats,
    at every point of the complex array zeta.  Terms are
    exp(pi*i*(n+eps/2)^2*tau) * exp(2*pi*i*(n+eps/2)*(zeta+eps'/2)), summed
    over one window of n around each point's peak term, widened until both
    of its edge terms fall below tol/100 (relative to the largest term, when
    that exceeds 1) at every point."""
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    a = eps / 2.0
    b = epsp / 2.0
    # |term| = exp(-pi*(n+a)^2 Im tau - 2*pi*(n+a) Im zeta) peaks here:
    center = np.rint(-a - zeta.imag / tau.imag)[:, None]
    # first guess: where the Gaussian has fallen by tol/100 (with tol 0, the
    # edge terms must underflow to 0)
    k_max = (cfg.max_terms - 1) // 2
    k = min(k_max, math.ceil(math.sqrt(
        math.log(100.0 / max(cfg.tol, 1e-300)) / (math.pi * tau.imag))))
    while True:
        m = (center + np.arange(-k, k + 1)) + a  # integer n, then n + a
        t = np.exp(1j * math.pi * (m * m * tau + 2 * m * (zeta[:, None] + b)))
        if deriv:
            t *= TWO_PI_I * m
        mag = np.abs(t)
        edge = np.maximum(mag[:, 0], mag[:, -1])
        if (edge <= cfg.tol * 1e-2 * np.maximum(mag.max(axis=1), 1.0)).all():
            return t.sum(axis=1)
        if k == k_max:
            raise ValueError(
                f"theta sum did not converge within {cfg.max_terms} terms")
        k = min(k_max, 2 * k)


@functools.lru_cache(maxsize=1 << 18)
def _theta_point(p, q, r, s, zeta, tau, cfg, deriv):
    """Keyed on the characteristic [p/q; r/s]'s own ints: no Fraction hash."""
    return complex(_theta_sum(p / q, r / s, np.array([zeta]), tau, cfg,
                              deriv)[0])


def _theta(c, zeta, tau, cfg, deriv):
    (eps, epsp), cfg = c, cfg or _DEFAULT_CFG
    if isinstance(zeta, np.ndarray):
        return _theta_sum(float(eps), float(epsp), zeta.astype(complex).ravel(),
                          complex(tau), cfg, deriv).reshape(zeta.shape)
    return _theta_point(eps.numerator, eps.denominator, epsp.numerator,
                        epsp.denominator, complex(zeta), complex(tau), cfg, deriv)


def theta_eval(c, zeta, tau, cfg=None):
    """theta[c](zeta, tau) as a complex double; for an ndarray zeta, a complex
    array of its shape (computed in one pass, bypassing the scalar cache)."""
    return _theta(c, zeta, tau, cfg, False)


def theta_deriv_eval(c, zeta, tau, cfg=None):
    """d/dzeta theta[c](zeta, tau): the true derivative (with its 2*pi*i),
    for scalar or ndarray zeta as in theta_eval."""
    return _theta(c, zeta, tau, cfg, True)


def sample_tau(seed, count):
    """Deterministic tau samples: Re in [-0.5, 0.5], Im in [0.8, 2.0]."""
    rng = random.Random(seed)
    return [complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
            for _ in range(count)]


def sample_zeta(seed, count):
    """Deterministic zeta samples kept away from lattice points and the
    rational zero/pole loci used throughout: Re in [0.03, 0.47], Im in
    [0.05, 0.25]."""
    rng = random.Random(f"zeta-{seed}")
    return [complex(rng.uniform(0.03, 0.47), rng.uniform(0.05, 0.25))
            for _ in range(count)]


def monomial_value(factors, zeta, tau, cfg, v=1.0):
    """v times the product of the theta factors, at a scalar or at every
    point of an ndarray zeta (constant factors at 0)."""
    for f in factors:
        arg = zeta if f.argument is Argument.SYMBOLIC_ZETA else 0.0
        v *= theta_eval(f.char, arg, tau, cfg) ** f.power
    return v


def identity_residual(ident, tau, zeta=None, cfg=None):
    """Relative residual |sum of terms| / max |term| of an identity at one
    (tau, zeta) point.  Returns 0.0 when every term vanishes."""
    if zeta is None and ident.kind is IdentityKind.FUNCTION:
        raise ValueError(f"{ident.id}: function identity needs a zeta")
    values = [monomial_value(term.factors, zeta, tau, cfg, term.scalar_value)
              for term in ident.terms]
    scale = max(abs(v) for v in values)
    if scale == 0.0:
        return 0.0
    return abs(sum(values)) / scale


def numeric_residue(f, pole, radius, samples=4096):
    """Residue of f at pole by the trapezoid rule on a circle of the given
    radius; spectrally accurate for f meromorphic with only this pole inside.
    f is called once, on the complex ndarray of all `samples` nodes."""
    if radius <= 0:
        raise ValueError("radius must be > 0")
    w = radius * np.exp(TWO_PI_I * np.arange(samples) / samples)
    return complex(np.sum(f(pole + w) * w)) / samples


def zero_location_check(c, tau, cfg=None, tol=1e-9):
    """Confirms theta[c] vanishes at its predicted zero (a*tau + b) and that
    the zero is simple (derivative bounded away from 0)."""
    a, b = theta_zero_point(c)
    z0 = float(a) * tau + float(b)
    v = theta_eval(c, z0, tau, cfg)
    d = theta_deriv_eval(c, z0, tau, cfg)
    return abs(v) <= tol * max(abs(d), 1.0), z0, v, d


# -- residue witnesses --------------------------------------------------------
# Two elliptic functions whose residue bookkeeping proves the quintic
# relations among fifth powers:
#   phi(z) = theta^5[1;1](z) / prod_k theta[1/5; k/5](z),   k = 1,3,5,7,9
#   psi(z) = theta^5[1;1](z) / prod_k theta[3/5; k/5](z).
# Each has five simple poles in the fundamental parallelogram; every residue
# has a theta-constant closed form with a common denominator, and the five
# residues sum to zero.

_C11 = Characteristic.of(1, 1)
#: Sign of the closed-form residue at the pole of each denominator factor.
_RESIDUE_SIGNS = (-1, 1, -1, 1, -1)


@dataclass(frozen=True)
class ResidueWitness:
    """Pole k is the zero of denominator factor k, and the closed form of its
    residue has that factor's theta constant to the fifth as numerator."""
    name: str
    denominator_chars: tuple          # characteristics of the pole factors

    def function(self, tau, cfg=None):
        """The witness at tau, as a function of a scalar or an ndarray z."""

        def f(z):
            den = 1.0 + 0j
            for c in self.denominator_chars:
                den *= theta_eval(c, z, tau, cfg)
            return theta_eval(_C11, z, tau, cfg) ** 5 / den
        return f

    def pole_points(self, tau):
        return [float(a) * tau + float(b)
                for a, b in map(theta_zero_point, self.denominator_chars)]

    def closed_form_residues(self, tau, cfg=None):
        den = (theta_deriv_eval(_C11, 0.0, tau, cfg)
               * theta_eval(Characteristic.of(1, Fraction(1, 5)), 0.0, tau, cfg) ** 2
               * theta_eval(Characteristic.of(1, Fraction(3, 5)), 0.0, tau, cfg) ** 2)
        return [s * theta_eval(c, 0.0, tau, cfg) ** 5 / den
                for s, c in zip(_RESIDUE_SIGNS, self.denominator_chars)]

    def default_radius(self, tau):
        pts = self.pole_points(tau)
        dmin = min(abs(p - q) for i, p in enumerate(pts)
                   for q in pts[i + 1:])
        return 0.02 * dmin


def _chars(eps):
    return tuple(Characteristic.of(eps, Fraction(k, 5)) for k in (1, 3, 5, 7, 9))


PHI_WITNESS = ResidueWitness("phi", _chars(Fraction(1, 5)))
PSI_WITNESS = ResidueWitness("psi", _chars(Fraction(3, 5)))
RESIDUE_WITNESSES = (PHI_WITNESS, PSI_WITNESS)


@dataclass
class ResidueReport:
    name: str
    tau: complex
    numeric: list = field(default_factory=list)
    closed_form: list = field(default_factory=list)
    max_rel_error: float = 0.0
    sum_abs: float = 0.0

    @property
    def passed(self):
        return self.max_rel_error < 1e-8 and self.sum_abs < 1e-8


def residue_report(witness, tau, cfg=None, samples=4096, radius=None):
    """Numeric residues at every pole vs. the closed forms, plus the
    sum-to-zero check (relative to the largest residue)."""
    f = witness.function(tau, cfg)
    r = radius if radius is not None else witness.default_radius(tau)
    numeric = [numeric_residue(f, p, r, samples)
               for p in witness.pole_points(tau)]
    closed = witness.closed_form_residues(tau, cfg)
    scale = max(abs(c) for c in closed)
    rel = max(abs(n - c) for n, c in zip(numeric, closed)) / scale
    return ResidueReport(name=witness.name, tau=tau, numeric=numeric,
                         closed_form=closed, max_rel_error=rel,
                         sum_abs=abs(sum(numeric)) / scale)

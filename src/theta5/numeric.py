"""Floating-point evaluation of theta functions and contour-integral residues.

Complements the exact series engine: identities and residue closed forms are
checked numerically at sampled tau in the upper half-plane, with contour
integration (trapezoid rule on a circle) for residues of elliptic functions
built from theta quotients.  The rule is adaptive by default: it starts at
32 nodes and doubles, evaluating the integrand only on the new half-step
nodes, until two successive estimates agree to 1e-13 of the integrand's
mean size on the circle, or 4096 nodes are used (Trefethen and Weideman,
SIAM Review 56 (2014): the rule converges geometrically for an integrand
analytic on an annulus around the circle).

One batched kernel, `_theta_sum`, evaluates every theta value: paired arrays
of (characteristic, zeta) points at one tau or at a tau per point, given as
the only forms the sum reads, a = eps/2 and u = zeta + eps'/2.  Each point
is summed over its own window of terms: one pass at a first half-width from
its tau (twice it when every point of the call is certain to fail the first),
and the points whose edge terms are not small summed again at twice the
half-width, so a value is the same to the bit in any batch.  Scalar
points go through one point cache (`_POINTS`): an identity residual looks up
its distinct factors there and sends all misses to one kernel call.  A
characteristic the cache meets for the first time is filled in, in that same
call, at every point of its kind the cache holds, so a sweep of identities
over fixed sampled points (`theta5 eval`) pays one call per new
characteristic rather than one per point.  The residue contours pass arrays
straight to the kernel; relation discovery, the theta quadratics and their
shared root call it at one tau through `_theta_rows`, on read-only (a, u)
arrays built once per grid that repeats (discovery's zeta grid, the root's
zeta = 0).  Neither uses the point cache.
"""

from __future__ import annotations

import collections
import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .catalog import IdentityKind
from .theta import Characteristic, theta_zero_point

TWO_PI_I = 2j * math.pi


@dataclass(frozen=True, eq=False)
class EvalConfig:
    """Truncation settings of the numeric theta sum.  Compared and hashed by
    identity (eq=False): the point cache keys on the config, and the
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


#: Rows per kernel block: a call with a tau per point (a fill of many held
#: points) is summed in blocks of at most this many, which bounds its arrays.
_BLOCK_ROWS = 4096


def _first_k(tau, cfg):
    """Half-width of the first window at tau: where the Gaussian has fallen
    by tol/100 (with tol 0, the edge terms must underflow to 0)."""
    return min((cfg.max_terms - 1) // 2, math.ceil(math.sqrt(
        math.log(100.0 / max(cfg.tol, 1e-300)) / (math.pi * tau.imag))))


def _theta_sum(a, u, tau, cfg, deriv):
    """The defining sum at every point of the 1-D complex array u, from the
    kernel's own inputs a = eps/2 and u = zeta + eps'/2 of the characteristic
    [eps; epsp], a given as a float or as a float array paired with u, at
    tau given as a complex scalar or as a complex array paired with u.  Terms
    are exp(pi*i*(n+a)^2*tau) * exp(2*pi*i*(n+a)*u), summed over a window of
    n around each point's peak term (_window_sum).  Each point has its own
    window: its first half-width comes from its tau (_first_k), doubled at
    once when no point can close at it (_window_sum), and it is doubled
    for the points whose edge terms are not both below tol/100
    (relative to their largest term, when that exceeds 1), until they are;
    past cfg.max_terms terms, and for a value past a double, it raises (the
    latter with no numpy warning, once its terms overflow).  With a tau per
    point, points are summed in groups that share a first window, in blocks
    of at most _BLOCK_ROWS.  A point's value so never depends on the other
    points of the call: it is the same to the bit as that of a one-point
    call."""
    per_point = isinstance(tau, np.ndarray)
    if (tau.imag <= 0).any() if per_point else tau.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    # columns: each point's terms run along its row
    a, u = (a[:, None] if isinstance(a, np.ndarray) else a), u[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        if not per_point:
            out = _window_sum(a, u, tau, _first_k(tau, cfg), cfg, deriv)
        else:
            ks = {t: _first_k(t, cfg) for t in set(tau.tolist())}
            first = np.array([ks[t] for t in tau.tolist()])
            out = np.empty(len(u), complex)
            for k in sorted(set(ks.values())):
                rows = np.flatnonzero(first == k)
                for at in np.split(rows, range(_BLOCK_ROWS, len(rows),
                                               _BLOCK_ROWS)):
                    out[at] = _window_sum(_rows(a, at), u[at], tau[at, None],
                                          k, cfg, deriv)
    if not np.isfinite(out).all():   # a NaN input never gets here
        raise ValueError("theta value overflows a double")
    return out


def _rows(x, at):
    """x at the rows at, when x is an array paired with the points."""
    return x[at] if isinstance(x, np.ndarray) else x


def _window_sum(a, u, tau, k, cfg, deriv, center=None):
    """_theta_sum at the points u that share the half-width k, with u, and a
    and tau when they are arrays, as columns: one pass over 2k + 1 terms
    around each point's peak, and the points whose edge terms are not small
    (a NaN edge among them) summed again at half-width 2k, around the same
    centers.  Once a point of finite inputs has a term past a double, no
    point is widened: _theta_sum raises.  Im u = Im zeta places the peaks (a
    -0.0 turned +0.0 moves none).

    A first window (center None) that every point is certain to fail is
    skipped for the next half-width: the peak c lies off its nearest n by
    off <= 1/2, so a point's nearer edge term is exp(-pi Im tau (k - off)^2)
    times the peak term's modulus exp(pi (Im u)^2 / Im tau) >= 1.  With that
    factor above tol/100 (twice it, against rounding) at the largest Im tau
    and the least off of the call, that is with every off above
    k - sqrt(ln(50/tol) / (pi Im tau)), no point closes.  Not for deriv (its
    terms carry a factor n + a) or tol 0."""
    k_max = (cfg.max_terms - 1) // 2
    if center is None:
        # |term| = exp(-pi*(n+a)^2 Im tau - 2*pi*(n+a) Im zeta) peaks here:
        peak = -a - u.imag / tau.imag
        center = np.rint(peak)
        if not deriv and cfg.tol and k < k_max:
            im = tau.imag.max() if isinstance(tau, np.ndarray) else tau.imag
            off = k - math.sqrt(math.log(50.0 / cfg.tol) / (math.pi * im))
            if off < 0.5 and np.abs(peak - center).min() > off:
                k = min(k_max, 2 * k)
    m = (center + np.arange(-k, k + 1)) + a  # integer n, then n + a
    t = np.exp(1j * math.pi * (m * m * tau + 2 * m * u))
    if deriv:
        t *= TWO_PI_I * m
    mag = np.abs(t)
    top = mag.max(axis=1)   # NaN if a term is
    edge = np.maximum(mag[:, 0], mag[:, -1])
    wide = ~(edge <= cfg.tol * 1e-2 * np.maximum(top, 1.0))
    if not wide.any():
        return t.sum(axis=1)
    if not np.isfinite(top).all() and (
            np.isfinite(a + u + tau).ravel() & ~np.isfinite(top)).any():
        return t.sum(axis=1)   # _theta_sum raises
    if k == k_max:
        raise ValueError(
            f"theta sum did not converge within {cfg.max_terms} terms")
    k = min(k_max, 2 * k)
    if wide.all():
        return _window_sum(a, u, tau, k, cfg, deriv, center)
    out = t.sum(axis=1)
    out[wide] = _window_sum(_rows(a, wide), u[wide], _rows(tau, wide), k, cfg,
                            deriv, center[wide])
    return out


class _PointCache:
    """theta values at scalar points, in rows keyed (zeta, tau, cfg, deriv)
    that map a characteristic [p/q; r/s], as its own ints (p, q, r, s), to
    its value, so a lookup runs no Fraction hash.

    Fill rule: a characteristic is new to a kind of row, (zeta == 0, cfg,
    deriv), until a lookup misses it at a row of that kind.  That lookup
    also computes it at every row of the kind the cache holds, in the same
    kernel call as its misses (one tau per point), so a sweep that visits
    the same points identity after identity finds it at each of them.  If
    that call raises (say a filled point does not converge), the misses are
    computed alone, and the lookup fails only if one of them does.

    Holds at most `maxsize` values (when full, it starts over); `hits` and
    `misses` count the points looked up, `filled` the values computed for
    no lookup."""

    def __init__(self, maxsize):
        self.maxsize = maxsize
        self.clear()

    def clear(self):
        self._empty()
        self.hits = self.misses = self.filled = 0

    def _empty(self):
        # rows, and per kind the characteristics met and the rows held
        self.rows, self.size = {}, 0
        self.kinds = collections.defaultdict(lambda: (set(), []))

    def lookup(self, factors, z, tau, cfg, deriv):
        """theta[p/q; r/s] for the factors [((p, q, r, s), at_zeta)], at
        zeta = z when at_zeta and 0 when not, at one tau, as Python complex
        numbers; the misses and any fill in one kernel call."""
        rows = self.rows
        key_0, key_z = (0j, tau, cfg, deriv), (z, tau, cfg, deriv)
        at_0, at_z = rows.get(key_0, _NO_ROW).get, rows.get(key_z, _NO_ROW).get
        vals = [(at_z if at_zeta else at_0)(c) for c, at_zeta in factors]
        missed = vals.count(None)
        self.hits += len(vals) - missed
        if not missed:
            return vals
        self.misses += missed
        asked = dict.fromkeys((c, key_z if at_zeta else key_0)
                              for (c, at_zeta), v in zip(factors, vals)
                              if v is None)
        if self.size + len(asked) > self.maxsize:
            self._empty()
            rows = self.rows
        kinds, new, fill = self.kinds, [], []
        for c, row in asked:
            known, held = kinds[row[0] == 0, cfg, deriv]
            if c not in known:
                new.append((known, c))
                fill += [(c, r) for r in held if (c, r) not in asked]
        if self.size + len(asked) + len(fill) > self.maxsize:
            fill = []
        todo = [*asked, *fill]
        try:
            got = _point_sums(todo, None if fill else tau, cfg, deriv)
        except ValueError:
            if not fill:
                raise
            todo = list(asked)
            got = _point_sums(todo, tau, cfg, deriv)
        self.filled += len(todo) - len(asked)
        self.size += len(todo)
        for known, c in new:
            known.add(c)
        for (c, row), v in zip(todo, got):
            held = rows.get(row)
            if held is None:
                held = rows[row] = {}
                kinds[row[0] == 0, cfg, deriv][1].append(row)
            held[c] = v
        # the hits come from vals: a cache that started over holds no more
        at_0, at_z = rows.get(key_0, _NO_ROW).get, rows.get(key_z, _NO_ROW).get
        return [(at_z if at_zeta else at_0)(c) if v is None else v
                for v, (c, at_zeta) in zip(vals, factors)]


_NO_ROW = {}


def _point_sums(todo, tau, cfg, deriv):
    """_theta_sum at the (char, row) pairs of todo as Python complex numbers,
    at one tau, or with tau None at each row's own tau."""
    return _theta_sum(
        np.array([c[0] / c[1] for c, _ in todo]) / 2.0,
        np.array([row[0] for _, row in todo])
        + np.array([c[2] / c[3] for c, _ in todo]) / 2.0,
        np.array([row[1] for _, row in todo]) if tau is None else tau,
        cfg, deriv).tolist()


_POINTS = _PointCache(1 << 18)


def _theta(c, zeta, tau, cfg, deriv):
    cfg = cfg or _DEFAULT_CFG
    if isinstance(zeta, np.ndarray):
        return _theta_sum(float(c.eps) / 2.0,
                          zeta.astype(complex).ravel() + float(c.epsp) / 2.0,
                          complex(tau), cfg, deriv).reshape(zeta.shape)
    eps, epsp = c
    return _POINTS.lookup([((eps.numerator, eps.denominator, epsp.numerator,
                             epsp.denominator), True)],
                          complex(zeta), complex(tau), cfg, deriv)[0]


def theta_eval(c, zeta, tau, cfg=None):
    """theta[c](zeta, tau) as a complex double; for an ndarray zeta, a complex
    array of its shape (computed in one pass, bypassing the point cache)."""
    return _theta(c, zeta, tau, cfg, False)


def theta_deriv_eval(c, zeta, tau, cfg=None):
    """d/dzeta theta[c](zeta, tau): the true derivative (with its 2*pi*i),
    for scalar or ndarray zeta as in theta_eval."""
    return _theta(c, zeta, tau, cfg, True)


def _kernel_inputs(chars, zeta):
    """_theta_rows's read-only kernel inputs (a, u) = (eps/2, zeta + eps'/2):
    for each float pair (eps, eps') of chars, a row over zeta."""
    a = np.array([e / 2.0 for e, _ in chars]).repeat(len(zeta))
    u = (np.array(zeta, complex)
         + np.array([e / 2.0 for _, e in chars])[:, None]).ravel()
    a.flags.writeable = u.flags.writeable = False
    return a, u


#: _kernel_inputs at the grids that repeat, chars and zeta given as tuples
_grid_inputs = functools.lru_cache(maxsize=64)(_kernel_inputs)


def _theta_rows(chars, zeta, tau, cfg=None):
    """theta[eps; eps'] at every point of the sequence zeta for each float
    pair (eps, eps') of chars, as a (len(chars), len(zeta)) array from one
    scalar-tau kernel call, bypassing the point cache.  With chars and zeta
    tuples the kernel inputs are built once (_grid_inputs); for other
    sequences (the theta quadratics' fresh points), for this call alone."""
    a, u = (_grid_inputs if isinstance(zeta, tuple)
            else _kernel_inputs)(chars, zeta)
    return _theta_sum(a, u, complex(tau), cfg or _DEFAULT_CFG,
                      False).reshape(len(chars), len(zeta))


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


def _numeric_plan(ident):
    """An identity's terms for numeric evaluation: its distinct factors as
    ((p, q, r, s), at_zeta), the distinct (factor index, power) pairs, and
    each term as (scalar value, the indices of its pairs in order)."""
    factors, powers = ident._factor_index
    pairs = {}
    terms = [(t.scalar.embed(), [pairs.setdefault(p, len(pairs)) for p in ps])
             for t, ps in zip(ident.terms, powers)]
    return [(k[:4], k[4]) for k in factors], list(pairs), terms


def identity_residual(ident, tau, zeta=None, cfg=None):
    """Relative residual |sum of terms| / max |term| of an identity at one
    (tau, zeta) point.  Returns 0.0 when every term vanishes.  The distinct
    theta factors come from the point cache, the misses in one kernel call;
    each distinct (factor, power) is raised once, and each term multiplies
    its powers in its own order onto its scalar."""
    if zeta is None and ident.kind is IdentityKind.FUNCTION:
        raise ValueError(f"{ident.id}: function identity needs a zeta")
    factors, powers, terms = ident._cached("_numeric_plan", _numeric_plan)
    z, tau, cfg = complex(zeta or 0), complex(tau), cfg or _DEFAULT_CFG
    theta = _POINTS.lookup(factors, z, tau, cfg, False)
    power = [theta[i] ** p for i, p in powers]
    values = []
    for v, slots in terms:
        for j in slots:
            v *= power[j]
        values.append(v)
    scale = max(map(abs, values))
    if scale == 0.0:
        return 0.0
    return abs(sum(values)) / scale


#: Node counts of the adaptive trapezoid rule, and its stopping tolerance
#: relative to the mean of |f(w) * w| over the nodes used.
FIRST_NODES, MAX_NODES, RESIDUE_RTOL = 32, 4096, 1e-13


def contour_residue(f, pole, radius, samples=None):
    """(residue, nodes used, last change) for the residue of f at pole by
    the trapezoid rule on a circle of the given radius; spectrally accurate
    for f meromorphic with only this pole inside.  f gets complex ndarrays
    of nodes.

    With an integer `samples`, f is called once, on all `samples` nodes, and
    the last change is None.  Otherwise the rule is adaptive: FIRST_NODES
    nodes, then each round doubles the count, calling f only on the new
    half-step nodes, until an estimate moves by at most RESIDUE_RTOL times
    the mean |f(w) * w| from the previous one (at least one comparison), or
    MAX_NODES nodes are used; the last change is that last move."""
    if radius <= 0:
        raise ValueError("radius must be > 0")
    if samples is not None:
        w = radius * np.exp(TWO_PI_I * np.arange(samples) / samples)
        return complex(np.sum(f(pole + w) * w)) / samples, samples, None
    n = FIRST_NODES
    w = radius * np.exp(TWO_PI_I * np.arange(n) / n)
    fw = f(pole + w) * w
    total, size = complex(np.sum(fw)), float(np.sum(np.abs(fw)))
    while True:
        w = radius * np.exp(TWO_PI_I * (np.arange(n) + 0.5) / n)
        fw = f(pole + w) * w
        last = total / n
        total += complex(np.sum(fw))
        size += float(np.sum(np.abs(fw)))
        n *= 2
        change = abs(total / n - last)
        if change <= RESIDUE_RTOL * size / n or n >= MAX_NODES:
            return total / n, n, change


def numeric_residue(f, pole, radius, samples=None):
    """The residue of contour_residue(f, pole, radius, samples) alone."""
    return contour_residue(f, pole, radius, samples)[0]


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
    """Per pole: the numeric residue, its closed form, the quadrature nodes
    used (`samples`) and the rule's last change between estimates
    (`changes`, None under a fixed rule)."""
    name: str
    tau: complex
    numeric: list = field(default_factory=list)
    closed_form: list = field(default_factory=list)
    max_rel_error: float = 0.0
    sum_abs: float = 0.0
    samples: list = field(default_factory=list)
    changes: list = field(default_factory=list)

    @property
    def passed(self):
        return self.max_rel_error < 1e-8 and self.sum_abs < 1e-8


def residue_report(witness, tau, cfg=None, samples=None, radius=None):
    """Numeric residues at every pole vs. the closed forms, plus the
    sum-to-zero check (relative to the largest residue).  The contour rule
    is adaptive unless `samples` fixes its node count (contour_residue)."""
    f = witness.function(tau, cfg)
    r = radius if radius is not None else witness.default_radius(tau)
    numeric, used, changes = zip(*(contour_residue(f, p, r, samples)
                                   for p in witness.pole_points(tau)))
    closed = witness.closed_form_residues(tau, cfg)
    scale = max(abs(c) for c in closed)
    rel = max(abs(n - c) for n, c in zip(numeric, closed)) / scale
    return ResidueReport(name=witness.name, tau=tau, numeric=list(numeric),
                         closed_form=closed, max_rel_error=rel,
                         sum_abs=abs(sum(numeric)) / scale,
                         samples=list(used), changes=list(changes))

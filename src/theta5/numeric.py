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
its tau, and the points whose edge terms are not small summed again at twice
the half-width, so a value is the same to the bit in any batch.  Two rules
judge a first window from the points' peak offsets alone (_window_sum): one
that every point is certain to fail is skipped for twice its half-width, and
one that every point is certain to close returns its sums with no closing
test; each rule keeps a factor of 2 against rounding.  A pass builds its
exponent and closing threshold in place.  Scalar points go through one
point cache (`_POINTS`), which keeps each kind of point (zeta = 0 or not,
under one config and derivative flag) as an index from (zeta, tau) to a row
and one complex array of values per characteristic.  An identity residual
looks up its distinct factors there, as the two key tuples (at zeta = 0, at
zeta) its numeric plan keeps, and sends all misses to one kernel call.  A
characteristic the cache meets for the first time is filled in, in that
same call, at every point of its kind the cache holds, so a sweep of
identities over fixed sampled points (`theta5 eval`) pays one call per new
characteristic rather than one per point.  Once `_BATCH_ROWS` or more of a
kind's points lack an identity's residual, it is computed at all of them in
one numpy pass, in float64 real and imaginary parts in the scalar code's
order of operations, so each equals the scalar code's to the bit, and later
calls read it from a column.  The residue contours pass arrays straight to
the kernel; relation discovery, the theta quadratics and their shared root
call it at one tau through `_theta_rows`, on read-only (a, u) arrays built
once per grid that repeats (discovery's zeta grid, the root's zeta = 0),
from columns eps/2 and eps'/2 built once per characteristic set (the
quadratics' fixed five).  Neither uses the point cache.
"""

from __future__ import annotations

import collections
import functools
import math
import numbers
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
    once when no point can close at it, kept untested when every point is
    certain to close at it (_window_sum), and doubled for the points whose
    edge terms are not both below tol/100 (relative to their largest term,
    when that exceeds 1), until they are; past cfg.max_terms terms, and for
    a value past a double, it raises (the latter with no numpy warning, once
    its terms overflow).  With a tau per point, points are summed in groups
    that share a first window, in blocks of at most _BLOCK_ROWS.  A point's
    value so never depends on the other points of the call: it is the same
    to the bit as that of a one-point call."""
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
    if np.count_nonzero(np.isfinite(out)) < len(out):
        # a NaN input never gets here
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
    -0.0 turned +0.0 moves none).  The exponent and the closing threshold
    are built in place.

    Two rules judge a first window (center None) from the points' peak
    offsets d = |c - n_c| <= 1/2 alone, c the peak and n_c its nearest n
    (the center).  A term's modulus is exp(-pi Im tau (n - c)^2) times the
    peak's, exp(pi (Im u)^2 / Im tau) >= 1, so a point's nearer edge term
    is exp(-pi Im tau (k - d)^2) times the peak's modulus, and each edge
    term at most exp(-pi Im tau k (k - 2d)) times the center term.  Both
    rules keep a factor of 2 against rounding, and neither is for deriv (its
    terms carry a factor n + a) or tol 0.
    - Certain to fail: with every d above k - sqrt(ln(50/tol) / (pi Im tau))
      at the largest Im tau of the call, every nearer edge term exceeds
      tol/50 of the peak's modulus, no point closes, and the window is
      skipped for half-width 2k.
    - Certain to close: with pi Im tau k (k - 2 max d) >= ln(200/tol) at the
      least Im tau of the call (k after any skip), every edge term is at
      most tol/200 of the center term, and the pass returns its sums with no
      closing test, if every sum is finite (a NaN or overflowing point takes
      the tested path and its error).
    The closing test would judge each point as the rules do (while rounding
    moves no exponent by ln 2), so every point keeps the window and the bits
    it would have without them."""
    k_max = (cfg.max_terms - 1) // 2
    sure = False
    if center is None:
        # |term| = exp(-pi*(n+a)^2 Im tau - 2*pi*(n+a) Im zeta) peaks here:
        peak = -a - u.imag / tau.imag
        center = np.rint(peak)
        if not deriv and cfg.tol:
            d = np.abs(peak - center)
            per_point = isinstance(tau, np.ndarray)
            if k < k_max:
                im = tau.imag.max() if per_point else tau.imag
                off = k - math.sqrt(math.log(50.0 / cfg.tol) / (math.pi * im))
                if off < 0.5 and d.min() > off:
                    k = min(k_max, 2 * k)
            im = tau.imag.min() if per_point else tau.imag
            sure = (math.pi * im * k * (k - 2.0 * d.max())
                    >= math.log(200.0 / cfg.tol))
    m = center + np.arange(-k, k + 1)
    m += a   # integer n, then n + a
    x = m * m * tau
    x += 2 * m * u
    x *= 1j * math.pi
    t = np.exp(x)
    if deriv:
        t *= TWO_PI_I * m
    if sure:
        out = t.sum(axis=1)
        if np.count_nonzero(np.isfinite(out)) == len(out):
            return out
    mag = np.abs(t)
    top = mag.max(axis=1)   # NaN if a term is
    edge = np.maximum(mag[:, 0], mag[:, -1])
    limit = np.maximum(top, 1.0)
    limit *= cfg.tol * 1e-2
    wide = ~(edge <= limit)
    n_wide = np.count_nonzero(wide)
    if not n_wide:
        return t.sum(axis=1)
    bad = ~np.isfinite(top)
    if np.count_nonzero(bad) and np.count_nonzero(
            np.isfinite(a + u + tau).ravel() & bad):
        return t.sum(axis=1)   # _theta_sum raises
    if k == k_max:
        raise ValueError(
            f"theta sum did not converge within {cfg.max_terms} terms")
    k = min(k_max, 2 * k)
    if n_wide == len(wide):
        return _window_sum(a, u, tau, k, cfg, deriv, center)
    out = t.sum(axis=1)
    out[wide] = _window_sum(_rows(a, wide), u[wide], _rows(tau, wide), k, cfg,
                            deriv, center[wide])
    return out


class _Kind:
    """The rows of one kind (zeta == 0, cfg, deriv) in a _PointCache: an
    index from (zeta, tau) to a row number, one complex array per
    characteristic with room for `room` rows (NaN where a value is not held:
    a theta value is finite), and per numeric plan a list of residuals at
    the rows [0, len), NaN where a row is left to the scalar code
    (_PointCache.residual)."""
    __slots__ = ("index", "cols", "room", "residuals")

    def __init__(self):
        self.index, self.cols, self.room, self.residuals = {}, {}, 0, {}

    def row(self, point):
        """point's row, added if it is new; full columns grow by a quarter."""
        row = self.index.setdefault(point, len(self.index))
        if row == self.room:
            self.room += self.room // 4 + 8
            for c, col in self.cols.items():
                self.cols[c] = np.concatenate((col, _holes(self.room
                                                           - len(col))))
        return row

    def held(self, chars, row):
        """The values of chars at row (a row number or None) as Python
        complex numbers, None where not held."""
        if row is None:
            return [None] * len(chars)
        cols = self.cols
        vals = [cols[c].item(row) if c in cols else None for c in chars]
        if [v for v in vals if v != v]:   # NaN: a hole
            vals = [None if v != v else v for v in vals]
        return vals

    def column(self, c, rows):
        """c's values at rows (a slice, or row numbers with -1 for none),
        NaN where a value is not held."""
        col = self.cols.get(c)
        if col is None:
            col = _holes(self.room)
        if isinstance(rows, slice):
            return col[rows]
        return np.where(rows < 0, np.nan, col[rows])


def _places(maxsize):
    """The places a _PointCache of maxsize values may take in its columns
    before it starts over."""
    return 2 * maxsize + 1024


def _holes(n):
    """n places of a column that hold no value."""
    return np.full(n, np.nan, complex)


_NO_KIND = _Kind()   # a kind the cache does not hold


class _PointCache:
    """theta values at scalar points, in rows of kinds (zeta == 0, cfg,
    deriv) (_Kind): a row is a point (zeta, tau), a characteristic [p/q;
    r/s] a column keyed by its own ints (p, q, r, s), so a lookup runs no
    Fraction hash.

    Fill rule: a characteristic is new to a kind of row until a lookup
    misses it at a row of that kind.  That lookup also computes it at every
    row of the kind the cache holds, in the same kernel call as its misses
    (one tau per point), so a sweep that visits the same points identity
    after identity finds it at each of them.  If that call raises (say a
    filled point does not converge), the misses are computed alone, and the
    lookup fails only if one of them does.

    Holds at most `maxsize` values (when full, it starts over, residual
    columns and all), and its columns at most _places(maxsize) places, held
    or not (past them, it starts over after the lookup); `hits` and
    `misses` count the points looked up, and the values a sweep reads (as
    hits), `filled` the values computed for no lookup."""

    def __init__(self, maxsize):
        self.maxsize = maxsize
        self.clear()

    def clear(self):
        self._empty()
        self.hits = self.misses = self.filled = 0

    def _empty(self):
        self.kinds, self.size = collections.defaultdict(_Kind), 0

    def lookup(self, zero, at_z, z, tau, cfg, deriv):
        """theta[p/q; r/s] at zeta = 0 for each (p, q, r, s) of the tuple
        zero, then at zeta = z for each of the tuple at_z, at one tau, as
        Python complex numbers; the misses and any fill in one kernel
        call."""
        kinds, point_0, point_z = self.kinds, (0j, tau), (z, tau)
        kind = kinds.get((True, cfg, deriv), _NO_KIND)
        vals = kind.held(zero, kind.index.get(point_0))
        if at_z:   # a constant identity has none
            kind = kinds.get((z == 0, cfg, deriv), _NO_KIND)
            vals += kind.held(at_z, kind.index.get(point_z))
        missed = vals.count(None)
        self.hits += len(vals) - missed
        if not missed:
            return vals
        self.misses += missed
        keys = [*((c, point_0) for c in zero), *((c, point_z) for c in at_z)]
        asked = dict.fromkeys(cp for cp, v in zip(keys, vals) if v is None)
        if self.size + len(asked) > self.maxsize:
            self._empty()
        kinds, fill, blocks = self.kinds, [], []
        for c, point in asked:
            kind = kinds[point[0] == 0, cfg, deriv]
            if c not in kind.cols:
                rows = [(p, r) for p, r in kind.index.items()
                        if (c, p) not in asked]
                fill += [(c, p) for p, _ in rows]
                blocks.append((kind, c, [r for _, r in rows]))
        if self.size + len(asked) + len(fill) > self.maxsize:
            fill = blocks = []
        todo = [*asked, *fill]
        try:
            got = _point_sums(todo, None if fill else tau, cfg, deriv)
        except ValueError:
            if not fill:
                raise
            todo, fill, blocks = list(asked), [], []
            got = _point_sums(todo, tau, cfg, deriv)
        self.filled += len(fill)
        self.size += len(todo)
        new = dict(zip(asked, got[:len(asked)].tolist()))
        for (c, point), v in new.items():
            kind = kinds[point[0] == 0, cfg, deriv]
            row = kind.row(point)
            col = kind.cols.get(c)
            if col is None:
                col = kind.cols[c] = _holes(kind.room)
            col[row] = v
        at = len(asked)
        for kind, c, rows in blocks:   # each column's fill in one store
            kind.cols[c][rows] = got[at:at + len(rows)]
            at += len(rows)
        # a column is as long as its kind's rows, held or not, so columns
        # whose fill did not fit can take far more places than `size`
        # counts: those are bounded as well
        if sum(k.room * len(k.cols) for k in kinds.values()) > _places(
                self.maxsize):
            self._empty()
        # the hits come from vals: a cache that started over holds no more
        return [new[key] if v is None else v for v, key in zip(vals, keys)]

    def residual(self, ident, plan, z, tau, cfg):
        """identity_residual of ident, whose numeric plan is plan, at (z,
        tau): read from the plan's residual column at the point's kind when
        held there, else computed from its factor values and kept.  With at
        least _BATCH_ROWS rows of the kind past the column's end (pending)
        and every power at most 100 (CPython raises a complex to a larger
        int power in polar form), _sweep_rows extends the column over all of
        them, and the values it reads count as hits (the point's own are
        counted once); a row it leaves NaN, and every point when fewer rows
        are pending, takes the scalar code (_scalar_residual)."""
        key, point = (z == 0, cfg, False), (z, tau)
        kind = self.kinds.get(key, _NO_KIND)
        row = kind.index.get(point, -1)
        done = kind.residuals.get(plan, ())
        if 0 <= row < len(done) and done[row] == done[row]:   # NaN: not held
            return done[row]
        zero, at_z, powers, terms = plan
        theta = self._read(zero, at_z, kind, row, z, tau, cfg)
        if theta is None:   # the lookup computes what is not held
            theta = self.lookup(zero, at_z, z, tau, cfg, False)
            kind = self.kinds.get(key, _NO_KIND)   # it may start over
            row = kind.index.get(point, -1)
            if row < 0:   # no factor, or the lookup started over after
                return _scalar_residual(ident, tau, theta, powers, terms)
        done = kind.residuals.setdefault(plan, [])
        start = len(done)
        if (len(kind.index) - start >= _BATCH_ROWS
                and max(p for _, p in powers) <= 100):
            got = _sweep_rows(plan, self._columns(plan, kind, start, cfg))
            done += got.tolist()
            r = done[row] if row >= start else math.nan
            self.hits += (np.count_nonzero(got == got) - (r == r)) * len(theta)
            if r == r:
                return r
        r = _scalar_residual(ident, tau, theta, powers, terms)
        if row < start:
            done[row] = r
        else:   # the rows between are left to the scalar code
            done += [math.nan] * (row - start) + [r]
        return r

    def _read(self, zero, at_z, kind, row, z, tau, cfg):
        """What lookup(zero, at_z, z, tau, cfg, False) returns, read at the
        row of kind just found and counted as hits, when every value is
        held there (the usual case), else None."""
        if row < 0:
            return None
        try:
            if z == 0:   # one row holds every value
                cols = kind.cols
                theta = [cols[c].item(row) for c in zero + at_z]
            else:
                base = self.kinds.get((True, cfg, False), _NO_KIND)
                at, cols = base.index[0j, tau] if zero else 0, base.cols
                theta = [cols[c].item(at) for c in zero]
                cols = kind.cols
                theta += [cols[c].item(row) for c in at_z]
        except KeyError:
            return None
        if [v for v in theta if v != v]:   # NaN: a hole
            return None
        self.hits += len(theta)
        return theta

    def _columns(self, plan, kind, start, cfg):
        """The plan's factor values at the kind's rows from start on, one
        complex array per factor in the lookup's order; a factor at zeta = 0
        of a kind at zeta read at the zeta = 0 row of the same tau."""
        zero, at_z = plan[0], plan[1]
        rows = slice(start, len(kind.index))
        here = [kind.column(c, rows) for c in at_z]
        base = self.kinds.get((True, cfg, False), _NO_KIND)
        if kind is not base:
            rows = np.array([base.index.get((0j, tau), -1)
                             for _, tau in list(kind.index)[start:]], int)
        return [base.column(c, rows) for c in zero] + here


def _point_sums(todo, tau, cfg, deriv):
    """_theta_sum at the (char, point) pairs of todo, at one tau, or with
    tau None at each point's own tau."""
    return _theta_sum(
        np.array([c[0] / c[1] for c, _ in todo]) / 2.0,
        np.array([point[0] for _, point in todo])
        + np.array([c[2] / c[3] for c, _ in todo]) / 2.0,
        np.array([point[1] for _, point in todo]) if tau is None else tau,
        cfg, deriv)


_POINTS = _PointCache(1 << 18)


def _theta(c, zeta, tau, cfg, deriv):
    cfg = cfg or _DEFAULT_CFG
    if isinstance(zeta, np.ndarray):
        return _theta_sum(float(c.eps) / 2.0,
                          zeta.astype(complex).ravel() + float(c.epsp) / 2.0,
                          complex(tau), cfg, deriv).reshape(zeta.shape)
    eps, epsp = c
    return _POINTS.lookup((), ((eps.numerator, eps.denominator,
                                epsp.numerator, epsp.denominator),),
                          complex(zeta), complex(tau), cfg, deriv)[0]


def theta_eval(c, zeta, tau, cfg=None):
    """theta[c](zeta, tau) as a complex double; for an ndarray zeta, a complex
    array of its shape (computed in one pass, bypassing the point cache)."""
    return _theta(c, zeta, tau, cfg, False)


def theta_deriv_eval(c, zeta, tau, cfg=None):
    """d/dzeta theta[c](zeta, tau): the true derivative (with its 2*pi*i),
    for scalar or ndarray zeta as in theta_eval."""
    return _theta(c, zeta, tau, cfg, True)


@functools.lru_cache(maxsize=64)
def _char_columns(chars):
    """The columns eps/2 and eps'/2 of the float pairs (eps, eps') of the
    tuple chars, read-only: a characteristic set's half of the kernel
    inputs, built once."""
    cols = (np.array([e / 2.0 for e, _ in chars])[:, None],
            np.array([e / 2.0 for _, e in chars])[:, None])
    for col in cols:
        col.flags.writeable = False
    return cols


def _kernel_inputs(chars, zeta):
    """_theta_rows's read-only kernel inputs (a, u) = (eps/2, zeta + eps'/2):
    for each float pair (eps, eps') of the tuple chars, a row over zeta, the
    characteristics' columns from _char_columns."""
    half_eps, half_epsp = _char_columns(chars)
    a = half_eps.repeat(len(zeta))
    u = (np.array(zeta, complex) + half_epsp).ravel()
    a.flags.writeable = u.flags.writeable = False
    return a, u


#: _kernel_inputs at the grids that repeat, chars and zeta given as tuples
_grid_inputs = functools.lru_cache(maxsize=64)(_kernel_inputs)


def _theta_rows(chars, zeta, tau, cfg=None):
    """theta[eps; eps'] at every point of the sequence zeta for each float
    pair (eps, eps') of the tuple chars, as a (len(chars), len(zeta)) array
    from one scalar-tau kernel call, bypassing the point cache.  With zeta a
    tuple the kernel inputs are built once (_grid_inputs); for other
    sequences (the theta quadratics' fresh points), the zeta half for this
    call alone."""
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


class _Plan(tuple):
    """A numeric plan, compared and hashed by identity: the point cache keys
    each identity's residual columns on it."""
    __slots__ = ()
    __hash__, __eq__, __ne__ = object.__hash__, object.__eq__, object.__ne__


def _numeric_plan(ident):
    """An identity's terms for numeric evaluation: the keys (p, q, r, s) of
    its distinct factors at zeta = 0 and those at zeta, as the two tuples
    _PointCache.lookup takes, the distinct (factor index, power) pairs, a
    factor indexed by its place in the lookup's answer, and each term as
    (scalar value, the indices of its pairs in order)."""
    factors, powers = ident._factor_index
    order = sorted(range(len(factors)), key=lambda i: factors[i][4])
    place = {i: j for j, i in enumerate(order)}
    pairs = {}
    terms = [(t.scalar.embed(),
              [pairs.setdefault((place[i], p), len(pairs)) for i, p in ps])
             for t, ps in zip(ident.terms, powers)]
    zero = tuple(factors[i][:4] for i in order if not factors[i][4])
    at_z = tuple(factors[i][:4] for i in order if factors[i][4])
    return _Plan((zero, at_z, list(pairs), terms))


#: Pending rows (_PointCache.residual) from which an identity's residual is
#: computed at all of them in one numpy pass rather than point by point.
#: Over the corpus's identities at held points, a pass and its column reads
#: cost about 124 us plus 0.9 us a row, the scalar code about 6.9 us a row,
#: so the pass wins from 21 rows (on a shared 2-core x86 host, Python 3.11,
#: numpy 2.4; from about 13 rows for the function identities alone, 23 for
#: the constant ones).
_BATCH_ROWS = 21


def _power(xr, xi, n):
    """x^n for the complex array x = xr + i xi and n >= 1, as CPython's
    c_powu computes a complex to a small int power: a product (each as
    (ar br - ai bi, ar bi + ai br)) per set bit of n onto the running
    square, from the low bit up.  c_powu's product of 1 by the first factor
    changes at most the sign of a zero, which no modulus reads."""
    rr = ri = None
    while True:
        if n & 1:
            rr, ri = ((xr, xi) if rr is None else
                      (rr * xr - ri * xi, rr * xi + ri * xr))
        n >>= 1
        if not n:
            return rr, ri
        xr, xi = xr * xr - xi * xi, xr * xi + xi * xr


def _sweep_rows(plan, values):
    """The plan's residual at each row of the complex arrays values (one per
    factor, in the lookup's order), computed as _scalar_residual does, in
    float64 real and imaginary parts: each power by _power, each term's
    products in its order onto its scalar, the moduli by np.hypot, the
    largest in term order and the terms summed one after another.  Each
    finite result so equals the scalar code's to the bit.  NaN at a row
    with a hole or anything not finite."""
    _, _, powers, terms = plan
    zeros = np.zeros(len(values[0]))
    with np.errstate(all="ignore"):
        power = [_power(values[i].real, values[i].imag, p) for i, p in powers]
        scale = total_r = total_i = None
        for v, slots in terms:
            vr, vi = v.real + zeros, v.imag + zeros
            for j in slots:
                pr, pi = power[j]
                vr, vi = vr * pr - vi * pi, vr * pi + vi * pr
            mod = np.hypot(vr, vi)
            if scale is None:
                scale, total_r, total_i = mod, vr, vi
            else:
                np.maximum(scale, mod, out=scale)
                total_r += vr
                total_i += vi
        out = np.hypot(total_r, total_i)
        out /= scale
    out[scale == 0.0] = 0.0
    out[~(np.isfinite(scale) & np.isfinite(out))] = np.nan
    return out


def _scalar_residual(ident, tau, theta, powers, terms):
    """identity_residual from the factor values theta, point by point: each
    distinct (factor, power) raised once, and each term's powers multiplied
    in its own order onto its scalar; a ValueError when a power, a term, a
    modulus or the residual is past a double."""
    try:
        power = [theta[i] ** p for i, p in powers]
        values = []
        for v, slots in terms:
            for j in slots:
                v *= power[j]
            values.append(v)
        scale = max(map(abs, values))
        r = abs(sum(values))   # not finite if a term is not
        if scale:   # else every term is 0 (or one not finite), and so is r
            r /= scale
    except OverflowError:
        r = math.nan
    if not math.isfinite(r):
        raise ValueError(f"{ident.id}: residual at tau={tau} overflows a "
                         "double")
    return r


def identity_residual(ident, tau, zeta=None, cfg=None):
    """Relative residual |sum of terms| / max |term| of an identity at one
    (tau, zeta) point.  Returns 0.0 when every term vanishes, and raises
    ValueError when a power, a term, a modulus or the residual is past a
    double.

    The distinct theta factors come from the point cache, the misses in one
    kernel call.  Once _BATCH_ROWS or more of the point's kind of row lack
    this identity's residual, it is computed at all of them in one numpy
    pass, equal to the point-by-point code's to the bit, and kept for later
    calls (_PointCache.residual)."""
    if zeta is None and ident.kind is IdentityKind.FUNCTION:
        raise ValueError(f"{ident.id}: function identity needs a zeta")
    plan = ident._cached("_numeric_plan", _numeric_plan)
    # with no factor at zeta, the residual is kept at zeta = 0
    return _POINTS.residual(ident, plan, complex(zeta or 0) if plan[1]
                            else 0j, complex(tau), cfg or _DEFAULT_CFG)


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
    if not 0 < radius < math.inf:  # NaN fails both comparisons
        raise ValueError("radius must be finite and > 0")
    if samples is not None:
        if not isinstance(samples, numbers.Integral) or samples < 1:
            raise ValueError("samples must be an integer >= 1")
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

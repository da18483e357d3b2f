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
its tau (_first_k, in one numpy pass over a tau array), and the points whose
edge terms are not small summed again at twice the half-width, so a value is
the same to the bit in any batch; two rules skip a first window no point can
close, and the closing test of one every point is certain to close
(_first_window).  `theta_eval` and `theta_deriv_eval` call it directly, a
scalar zeta as a one-point array.
Identity residuals alone go through one point cache (`_POINTS`), which keeps
each kind of point (zeta = 0 or not, under one config) as an index from
(zeta, tau) to a row and one complex array of values per characteristic.  A
residual looks up its distinct factors there, as the two key tuples (at
zeta = 0, at zeta) its numeric plan keeps, and sends all misses to one
kernel call.  A characteristic the cache meets for the first time is filled
in, in that same call, at every point of its kind the cache holds, so a
sweep of identities over fixed sampled points (`theta5 eval`) pays one call
per new characteristic rather than one per point, and its first identity one
call per tau: a point at a new tau fills in its kind's last zeta grid.  Once
`_BATCH_ROWS` or more of a kind's points lack an identity's residual, it is
computed at all of them in one numpy pass, in float64 real and imaginary
parts in the scalar code's order of operations, so each equals the scalar
code's to the bit, and later calls read it from a column.  The residue
contours pass arrays straight to the kernel; relation discovery, the theta
quadratics and their shared root call it at one tau through `_theta_rows`, on
read-only (a, u) arrays built once per grid that repeats (discovery's zeta
grid, the root's zeta = 0), from columns eps/2 and eps'/2 built once per
characteristic set (the quadratics' fixed five); a grid sharing a and Im u
sums one window, its tau-free half kept.  Neither uses the point cache.
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
    by tol/100 (with tol 0, the edge terms must underflow to 0); at a tau
    array, an int array of the same ints."""
    k, log = (cfg.max_terms - 1) // 2, math.log(100.0 / max(cfg.tol, 1e-300))
    if not isinstance(tau, np.ndarray):
        return math.ceil(min(k, math.sqrt(log / (math.pi * tau.imag))))
    with np.errstate(over="ignore"):   # a tiny Im tau overflows to k
        width = np.sqrt(log / (math.pi * tau.imag))
    return np.ceil(np.minimum(k, width)).astype(int)


def _first_window(k, d_lo, d_hi, im_lo, im_hi, cfg):
    """The half-width at which to sum a first window of half-width k, and
    whether every point is certain to close there, from the points' peak
    offsets d (a peak's distance to its nearest n, the center) in [d_lo,
    d_hi] and Im tau in [im_lo, im_hi].  A nearer edge term is exp(-pi Im
    tau (k - d)^2) times the peak's modulus (>= 1), an edge term at most
    exp(-pi Im tau k (k - 2d)) times the center term.  With a factor of 2
    against rounding, the window is certain to fail, and skipped for 2k, if
    every d exceeds k - sqrt(ln(50/tol) / (pi Im tau)) at the largest Im
    tau, and certain to close at the k returned if pi Im tau k (k - 2d) >=
    ln(200/tol) at the least Im tau and largest d: the closing test would
    judge each point alike (while rounding moves no exponent by ln 2).  Not
    for deriv or tol 0."""
    k_max = (cfg.max_terms - 1) // 2
    if k < k_max:
        off = k - math.sqrt(math.log(50.0 / cfg.tol) / (math.pi * im_hi))
        if off < 0.5 and d_lo > off:
            k = min(k_max, 2 * k)
    return k, (math.pi * im_lo * k * (k - 2.0 * d_hi)
               >= math.log(200.0 / cfg.tol))


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
    its terms overflow).  With a tau per point, one _first_k call on the tau
    array gives every first half-width, and points are summed in groups that
    share one, in blocks of at most _BLOCK_ROWS.  A point's value so never
    depends on the other points of the call: it is the same to the bit as
    that of a one-point call."""
    per_point, im = isinstance(tau, np.ndarray), tau.imag
    if not ((np.isfinite(tau) & (im > 0)).all() if per_point
            else 0 < im < math.inf and math.isfinite(tau.real)):
        raise ValueError("tau must lie in the upper half-plane")
    if not len(u):
        return np.zeros(0, complex)
    # columns: each point's terms run along its row
    a, u = (a[:, None] if isinstance(a, np.ndarray) else a), u[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        if not per_point:
            out = _window_sum(a, u, tau, _first_k(tau, cfg), cfg, deriv)
        else:
            first = np.broadcast_to(_first_k(tau, cfg), len(u))
            out = np.empty(len(u), complex)
            for k in sorted(set(first.tolist())):
                rows = np.flatnonzero(first == k)
                for at in np.split(rows, range(_BLOCK_ROWS, len(rows),
                                               _BLOCK_ROWS)):
                    out[at] = _window_sum(_rows(a, at), u[at], tau[at, None],
                                          k, cfg, deriv)
    if np.count_nonzero(np.isfinite(out)) < len(out):
        # a NaN input never gets here
        raise ValueError("theta value overflows a double")
    return out


def _sums(a, u, tau, cfg, deriv):
    """_theta_sum, naming a zeta not finite when a sum does not converge."""
    try:
        return _theta_sum(a, u, tau, cfg, deriv)
    except ValueError as e:
        if str(e).startswith("theta sum") and not np.isfinite(u).all():
            raise ValueError("zeta must be finite") from None
        raise


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
    are built in place.  A first window (center None) is skipped or summed
    untested (if its sums are finite) as _first_window judges it."""
    k_max = (cfg.max_terms - 1) // 2
    sure = False
    if center is None:
        # |term| = exp(-pi*(n+a)^2 Im tau - 2*pi*(n+a) Im zeta) peaks here:
        peak = -a - u.imag / tau.imag
        center = np.rint(peak)
        if not deriv and cfg.tol:
            d, im = np.abs(peak - center), tau.imag
            lo, hi = ((im.min(), im.max()) if isinstance(tau, np.ndarray)
                      else (im, im))
            k, sure = _first_window(k, d.min(), d.max(), lo, hi, cfg)
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
    """The rows of one kind (zeta == 0, cfg) in a _PointCache: an
    index from (zeta, tau) to a row number, one complex array per
    characteristic with room for `room` rows (NaN where a value is not held:
    a theta value is finite), per numeric plan a list of residuals at the
    rows [0, len), NaN where a row is left to the scalar code
    (_PointCache.residual), each row's (zeta, tau) as a row of the complex
    array points, and the last new row's tau with its zetas."""
    __slots__ = ("index", "cols", "room", "residuals", "points", "tau",
                 "zetas")

    def __init__(self):
        self.index, self.cols, self.room, self.residuals = {}, {}, 0, {}
        self.points, self.tau, self.zetas = np.empty((0, 2), complex), None, []

    def row(self, point):
        """point's row, added if it is new; full columns grow by a quarter."""
        n = len(self.index)
        row = self.index.setdefault(point, n)
        if row == n:   # a new row joins its tau's grid
            zetas = self.zetas if point[1] == self.tau else []
            self.tau, self.zetas = point[1], [*zetas, point[0]]
            if row == self.room:
                self.room += self.room // 4 + 8
                self.points = np.resize(self.points, (self.room, 2))
                for c, col in self.cols.items():
                    self.cols[c] = np.concatenate((col, _holes(self.room
                                                               - len(col))))
            self.points[row] = point
        return row

    def held(self, chars, row):
        """The values of chars at row (a row number or None) as Python
        complex numbers, None where not held."""
        if row is None:
            return [None] * len(chars)
        cols = self.cols   # a NaN (v != v) is a hole
        try:   # the usual case: every column is there
            return [v if (v := cols[c].item(row)) == v else None
                    for c in chars]
        except KeyError:
            return [v if c in cols and (v := cols[c].item(row)) == v else None
                    for c in chars]

    def column(self, c, rows):
        """c's values at rows (a slice, or row numbers with -1 for none),
        NaN where a value is not held."""
        col = self.cols.get(c)
        if col is None:
            col = _holes(self.room)
        if isinstance(rows, slice):
            return col[rows]
        return np.where(rows < 0, np.nan, col[rows])


def _holes(n):
    """n places of a column that hold no value."""
    return np.full(n, np.nan, complex)


_NO_KIND = _Kind()   # a kind the cache does not hold


class _PointCache:
    """theta values at the points identity residuals ask, in rows of kinds
    (zeta == 0, cfg) (_Kind): a row is a point (zeta, tau), a characteristic
    [p/q; r/s] a column keyed by its own ints (p, q, r, s), so a lookup runs
    no Fraction hash.

    Fill rule: a characteristic is new to a kind of row until a lookup
    misses it at a row of that kind.  That lookup also computes it at every
    row of the kind the cache holds, in the same kernel call as its misses
    (one tau per point), so a sweep that visits the same points identity
    after identity finds it at each of them.  If that call raises (say a
    filled point does not converge), the misses are computed alone, and the
    lookup fails only if one of them does.

    Grid rule: a lookup that fills no characteristic, at a new point of a
    tau not its kind's last (_Kind.tau), also computes the values it asks
    at the last tau's zetas, if two or more, at its tau, as rows, in one
    call at one tau (retried as above): a sweep over one grid finds them.

    Bound: its columns take at most `places` places, held or not; a lookup
    that passes them still answers, and the cache then starts over, residual
    columns and all.  `hits` and `misses` count the values looked up, and
    the values a sweep reads (as hits), `filled` the values computed for no
    lookup."""

    def __init__(self, places):
        self.places = places
        self.clear()

    def clear(self):
        self.kinds = collections.defaultdict(_Kind)
        self.hits = self.misses = self.filled = 0

    def lookup(self, zero, at_z, z, tau, cfg):
        """theta[p/q; r/s] at zeta = 0 for each (p, q, r, s) of the tuple
        zero, then at zeta = z for each of the tuple at_z, at one tau, as
        Python complex numbers; the misses and any fill in one kernel
        call."""
        kinds, point_0, point_z = self.kinds, (0j, tau), (z, tau)
        kind = kinds.get((True, cfg), _NO_KIND)
        vals = kind.held(zero, kind.index.get(point_0))
        if at_z:   # a constant identity has none
            kind = kinds.get((z == 0, cfg), _NO_KIND)
            vals += kind.held(at_z, kind.index.get(point_z))
        missed = vals.count(None)
        self.hits += len(vals) - missed
        if not missed:
            return vals
        self.misses += missed
        keys = [*((c, point_0) for c in zero), *((c, point_z) for c in at_z)]
        asked = dict.fromkeys(cp for cp, v in zip(keys, vals) if v is None)
        fill, blocks = [], []
        for c, point in asked:
            kind = kinds[point[0] == 0, cfg]
            if c not in kind.cols:   # every row but those asked
                rows = np.delete(np.arange(len(kind.index)), [
                    kind.index[p] for d, p in asked
                    if d == c and p in kind.index])
                if len(rows):
                    blocks.append((kind, c, rows))
        kind = kinds.get((z == 0, cfg), _NO_KIND)
        if (not blocks and tau != kind.tau and len(kind.zetas) > 1
                and point_z not in kind.index):   # the last tau's grid
            fill = [(c, (w, tau)) for w in kind.zetas
                    if w != z and (w, tau) not in kind.index for c in at_z]
        todo = [*asked, *fill]
        try:
            got = _point_sums(todo, blocks, tau, cfg)
        except ValueError:
            if not (fill or blocks):
                raise
            todo, fill, blocks = list(asked), [], []
            got = _point_sums(todo, blocks, tau, cfg)
        self.filled += len(got) - len(asked)
        new = dict(zip(todo, got[:len(todo)].tolist()))
        for c, point in new:   # asked first; blocks are stored below
            kind = kinds[point[0] == 0, cfg]
            row = kind.row(point)
            col = kind.cols.get(c)
            if col is None:
                col = kind.cols[c] = _holes(kind.room)
            col[row] = new[c, point]
        at = len(todo)
        for kind, c, rows in blocks:   # each column's fill in one store
            kind.cols[c][rows] = got[at:at + len(rows)]
            at += len(rows)
        if sum(k.room * len(k.cols) for k in kinds.values()) > self.places:
            self.kinds = collections.defaultdict(_Kind)
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
        key, point = (z == 0, cfg), (z, tau)
        kind = self.kinds.get(key, _NO_KIND)
        row = kind.index.get(point, -1)
        done = kind.residuals.get(plan, ())
        if 0 <= row < len(done) and done[row] == done[row]:   # NaN: not held
            return done[row]
        zero, at_z, powers, terms = plan
        misses = self.misses
        theta = self.lookup(zero, at_z, z, tau, cfg)
        if self.misses != misses:   # it may add the row, or start over
            kind = self.kinds.get(key, _NO_KIND)
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
            read = int(np.count_nonzero(got == got)) - (r == r)   # not int64
            self.hits += read * len(theta)
            if r == r:
                return r
        r = _scalar_residual(ident, tau, theta, powers, terms)
        if row < start:
            done[row] = r
        else:   # the rows between are left to the scalar code
            done += [math.nan] * (row - start) + [r]
        return r

    def _columns(self, plan, kind, start, cfg):
        """The plan's factor values at the kind's rows from start on, one
        complex array per factor in the lookup's order; a factor at zeta = 0
        of a kind at zeta read at the zeta = 0 row of the same tau."""
        zero, at_z = plan[0], plan[1]
        rows = slice(start, len(kind.index))
        here = [kind.column(c, rows) for c in at_z]
        base = self.kinds.get((True, cfg), _NO_KIND)
        if kind is not base:
            rows = np.array([base.index.get((0j, tau), -1)
                             for _, tau in list(kind.index)[start:]], int)
        return [base.column(c, rows) for c in zero] + here


def _point_sums(todo, blocks, tau, cfg):
    """_theta_sum at the (char, point) pairs of todo, then at the rows of
    each block (kind, char, row numbers) of its kind's points: at one tau,
    or, when there are blocks, at each point's own tau.  Each char's floats
    p/q and r/s are Python's quotients, spread over its points."""
    chars = [c for c, _ in todo] + [c for _, c, _ in blocks]
    half = np.array([(c[0] / c[1], c[2] / c[3]) for c in chars]).repeat(
        [1] * len(todo) + [len(rows) for _, _, rows in blocks], axis=0) / 2.0
    at = np.concatenate([np.array([point for _, point in todo]),
                         *(kind.points[rows] for kind, _, rows in blocks)])
    return _sums(half[:, 0], at[:, 0] + half[:, 1],
                 at[:, 1] if blocks else tau, cfg, False)


_POINTS = _PointCache(1 << 19)


def _theta(c, zeta, tau, cfg, deriv):
    z = np.asarray(zeta, complex)
    out = _sums(float(c.eps) / 2.0, z.ravel() + float(c.epsp) / 2.0,
                complex(tau), cfg or _DEFAULT_CFG, deriv).reshape(z.shape)
    return out if isinstance(zeta, np.ndarray) else out.item()


def theta_eval(c, zeta, tau, cfg=None):
    """theta[c](zeta, tau) as a complex double; for an ndarray zeta, a complex
    array of its shape.  Either way one kernel call: a scalar zeta is a
    one-point array (the point cache serves identity residuals alone)."""
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


@functools.lru_cache(maxsize=64)
def _grid_inputs(chars, zeta):
    """_kernel_inputs at a grid that repeats (tuples), and a dict for its
    windows if its <= _BLOCK_ROWS points share a and Im u, else None."""
    a, u = _kernel_inputs(chars, zeta)
    shared = len(a) <= _BLOCK_ROWS and (
        len(set(a.tolist())) == 1 == len(set(u.imag.tolist())))
    return a, u, {} if shared else None


def _theta_rows(chars, zeta, tau, cfg=None):
    """theta[eps; eps'] at every point of the sequence zeta for each float
    pair (eps, eps') of the tuple chars, as a (len(chars), len(zeta)) array
    of _theta_sum's values, its inputs built once for a tuple zeta.  Points
    sharing a and Im u share one window: where all are certain to close, its
    tau-free half, kept per (half-width, center) up to 8 * _BLOCK_ROWS
    terms, gives the sums by _window_sum's operations in its order."""
    cfg, tau = cfg or _DEFAULT_CFG, complex(tau)
    a, u, windows = (_grid_inputs(chars, zeta) if isinstance(zeta, tuple)
                     else (*_kernel_inputs(chars, zeta), None))
    im = tau.imag
    if windows is not None and cfg.tol and 0 < im < math.inf:
        peak = -a.item(0) - u.item(0).imag / im
        # half to even, as np.rint; a peak that is not finite is never sure
        center = float(round(peak)) if math.isfinite(peak) else peak
        d = abs(peak - center)
        k, sure = _first_window(_first_k(tau, cfg), d, d, im, im, cfg)
        if sure:
            terms = windows.get((k, center))
            with np.errstate(over="ignore", invalid="ignore"):
                if terms is None:
                    if sum(t.size for _, t in windows.values()) > (
                            8 * _BLOCK_ROWS):
                        windows.clear()
                    m = center + np.arange(-k, k + 1)
                    m += a.item(0)
                    terms = windows[k, center] = m * m, 2 * m * u[:, None]
                    terms[0].flags.writeable = terms[1].flags.writeable = False
                x = terms[0] * tau   # m * m * tau is (m * m) * tau
                x = x + terms[1]
                x *= 1j * math.pi
                out = np.exp(x).sum(axis=1)
            if np.count_nonzero(np.isfinite(out)) == len(out):
                return out.reshape(len(chars), len(zeta))
    return _sums(a, u, tau, cfg, False).reshape(len(chars), len(zeta))


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

    The distinct theta factors come from the point cache, which serves
    these residuals alone (_PointCache): the values it holds are read, the
    misses computed in one kernel call with any fill.  Once _BATCH_ROWS or
    more of the point's kind of row lack this identity's residual, it is
    computed at all of them in one numpy pass, equal to the point-by-point
    code's to the bit, and kept for later calls until the cache starts over
    (_PointCache.residual)."""
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

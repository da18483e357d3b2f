import cmath
import collections
import dataclasses
import functools
import math
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta5 import catalog_data, cli
from theta5.catalog import (Argument, Identity, IdentityKind, IdentityTerm,
                            ThetaFactor)
from theta5.catalog_data import builtin_catalog
from theta5.cli import main
from theta5.cyclotomic import Cyclotomic
from theta5 import numeric
from theta5.numeric import (EvalConfig, MAX_NODES, PHI_WITNESS, PSI_WITNESS,
                            RESIDUE_RTOL, TWO_PI_I, contour_residue,
                            identity_residual, residue_report,
                            sample_tau, sample_zeta, theta_deriv_eval,
                            theta_eval, zero_location_check)
from theta5.resultant import shared_root_ratio, theta_quadratics
from theta5.theta import Characteristic
from theta5.verify import discover_relations, verify_exact, zeta_grid

C = Characteristic.of


def test_eval_config_validation():
    with pytest.raises(ValueError):
        EvalConfig(max_terms=4)
    for tol in (-1e-12, 1.0):
        with pytest.raises(ValueError):
            EvalConfig(tol=tol)


def test_sample_tau_deterministic_and_in_range():
    a = sample_tau(42, 20)
    b = sample_tau(42, 20)
    assert a == b
    assert sample_tau(43, 20) != a
    for t in a:
        assert -0.5 <= t.real <= 0.5 and 0.8 <= t.imag <= 2.0


def test_sample_zeta_deterministic():
    assert sample_zeta(7, 5) == sample_zeta(7, 5)


def test_eval_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        theta_eval(C(0, 0), 0.0, -1j)


NAN, INF = math.nan, math.inf
_NONFINITE_TAUS = (complex(NAN, 1), complex(INF, 1), complex(-INF, 1))


def _monomials():
    z = Argument.SYMBOLIC_ZETA
    return [[ThetaFactor(C(Fraction(1, 5), Fraction(k, 5)), 4, z)]
            for k in (1, 3)]


@pytest.mark.parametrize("tau", _NONFINITE_TAUS)
@pytest.mark.parametrize("call", [
    lambda tau: theta_eval(C(Fraction(1, 5), Fraction(1, 5)), 0.1, tau),
    lambda tau: theta_deriv_eval(C(1, 0), 0.1, tau),
    lambda tau: identity_residual(builtin_catalog()[0], tau, 0.1 + 0.1j),
    lambda tau: discover_relations(_monomials(), tau, 9),
    lambda tau: theta_quadratics(tau, 0.1 + 0.1j, 0.2 + 0.05j),
    lambda tau: shared_root_ratio(tau),
    lambda tau: theta_eval(C(0, 1), np.array([0.1, 0.2j]), tau)],
    ids=["theta_eval", "theta_deriv_eval", "identity_residual",
         "discover_relations", "theta_quadratics", "shared_root_ratio",
         "ndarray"])
def test_a_tau_whose_real_part_is_not_finite_is_refused(call, tau):
    with pytest.raises(ValueError, match="upper half-plane"):
        call(tau)


@pytest.mark.parametrize("zeta", [complex(NAN, 0.1), complex(INF, 0),
                                  complex(0.1, INF), complex(0.1, -INF)])
@pytest.mark.parametrize("call", [
    lambda z: theta_eval(C(Fraction(1, 5), Fraction(1, 5)), z, 1.1j),
    lambda z: theta_deriv_eval(C(1, 0), z, 0.3 + 1j),
    lambda z: theta_eval(C(0, 1), np.array([0.1, z, 0.2j]), 1.1j),
    lambda z: theta_quadratics(0.1 + 1.2j, 0.1 + 0.1j, z)],
    ids=["theta_eval", "theta_deriv_eval", "ndarray", "theta_quadratics"])
def test_a_zeta_that_is_not_finite_is_named(call, zeta):
    with pytest.raises(ValueError, match="zeta must be finite"):
        call(zeta)


def test_max_terms_cap_raises():
    cfg = EvalConfig(tol=1e-12, max_terms=8)
    with pytest.raises(ValueError):
        theta_eval(C(0, 0), 0.0, 0.001j, cfg)  # slow decay: needs many terms


def test_identity_residual_zero_over_zero_guard():
    # at Im tau = 1000 every term of theta[1;0] at zeta = 0 underflows
    # (exp(-250 pi) is below the least double), so theta[1;0]^4 -
    # theta[1;0]^4 has only zero terms: the residual is 0.0, not 0/0 = NaN
    f = ThetaFactor(C(1, 0), 4)
    ident = Identity("zero-terms", IdentityKind.CONSTANT,
                     [IdentityTerm(Cyclotomic.one(), [f]),
                      IdentityTerm(-Cyclotomic.one(), [f])])
    tau = 0.1 + 1000j
    assert theta_eval(C(1, 0), 0.0, tau) == 0j
    assert identity_residual(ident, tau) == 0.0


def test_function_identity_needs_zeta():
    ident = next(i for i in builtin_catalog()
                 if i.kind is IdentityKind.FUNCTION)
    with pytest.raises(ValueError, match="needs a zeta"):
        identity_residual(ident, 0.1 + 1.0j)


def test_residuals_small_for_holds_and_large_for_corrupt():
    from theta5.catalog import corrupt_identity
    cat = {i.id: i for i in builtin_catalog()}
    tau = 0.17 + 1.21j
    zeta = 0.11 + 0.08j
    for ident_id in ("quintic-eps35", "three-theta-35-9", "mixed-product-del1"):
        ident = cat[ident_id]
        z = zeta if ident.kind is IdentityKind.FUNCTION else None
        assert identity_residual(ident, tau, z) < 1e-9
        assert identity_residual(corrupt_identity(ident, 2), tau, z) > 1e-3


def test_numeric_residue_on_simple_pole():
    # f(z) = 3/(z - 0.5) + cos(z): residue 3 at 0.5; f gets the node array
    f = lambda z: 3.0 / (z - 0.5) + np.cos(z)
    r = contour_residue(f, 0.5, 0.05)[0]
    assert abs(r - 3.0) < 1e-12
    for radius in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            contour_residue(f, 0.5, radius)


@pytest.mark.parametrize("witness", [PHI_WITNESS, PSI_WITNESS])
def test_residue_closed_forms(witness):
    for tau in sample_tau(3, 2):
        rep = residue_report(witness, tau)
        assert rep.max_rel_error < 1e-8, (witness.name, tau)
        assert rep.sum_abs < 1e-8


def test_witness_pole_count_and_radius():
    tau = 0.2 + 1.1j
    pts = PHI_WITNESS.pole_points(tau)
    assert len(pts) == 5
    r = PHI_WITNESS.default_radius(tau)
    dmin = min(abs(p - q) for i, p in enumerate(pts) for q in pts[i + 1:])
    assert math.isclose(r, 0.02 * dmin)


# the poles as (coefficient of tau, constant), written out by hand
WITNESS_POLES = {
    "phi": [(Fraction(2, 5), Fraction(k, 5)) for k in (2, 1, 0, -1, -2)],
    "psi": [(Fraction(1, 5), Fraction(k, 5)) for k in (2, 1, 0, -1, -2)],
}


@pytest.mark.parametrize("witness", [PHI_WITNESS, PSI_WITNESS])
def test_witness_poles_match_the_table(witness):
    tau = 0.2 + 1.1j
    assert witness.pole_points(tau) == [
        float(a) * tau + float(b) for a, b in WITNESS_POLES[witness.name]]


def test_zero_location_for_several_chars():
    for char in (C(1, 1), C(Fraction(1, 5), Fraction(7, 5)),
                 C(Fraction(3, 5), 1)):
        ok, z0, v, d = zero_location_check(char, 0.12 + 1.3j)
        assert ok, (char, abs(v))


# -- the vectorised kernel against the scalar shell sum -------------------------

def shell_sum(c, zeta, tau, cfg, deriv):
    """Reference theta[c] (or its zeta-derivative) at one point: terms
    exp(pi*i*(n+eps/2)^2*tau) * exp(2*pi*i*(n+eps/2)*(zeta+eps'/2)) summed
    in shells outward from the index of slowest decay until a whole shell
    falls below tol/100.  Returns the sum and the largest |term|."""
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    a = float(Fraction(c.eps)) / 2.0
    b = float(Fraction(c.epsp)) / 2.0
    center = int(round(-a - complex(zeta).imag / tau.imag))
    total = 0j
    scale = 0.0
    n_terms = 0
    k = 0
    while True:
        shell = 0.0
        for n in ({center} if k == 0 else {center - k, center + k}):
            m = n + a
            t = cmath.exp(1j * math.pi * (m * m * tau + 2 * m * (zeta + b)))
            if deriv:
                t *= TWO_PI_I * m
            total += t
            shell = max(shell, abs(t))
            scale = max(scale, abs(t))
            n_terms += 1
            if n_terms > cfg.max_terms:
                raise ValueError(
                    f"theta sum did not converge within {cfg.max_terms} terms")
        if k > 0 and shell <= cfg.tol * 1e-2 * max(scale, 1.0):
            return total, scale
        k += 1


fifths = st.integers(-10, 10).map(lambda k: Fraction(k, 5))


@settings(max_examples=150, deadline=None)
@given(eps=fifths, epsp=fifths, deriv=st.booleans(),
       tau=st.builds(complex, st.floats(-0.5, 0.5), st.floats(0.3, 3.0)),
       points=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-3.0, 3.0)),
                       max_size=10))
def test_kernel_matches_shell_sum(eps, epsp, deriv, tau, points):
    # Im zeta in rows of Im tau: the points' peak terms sit at different n
    rows = [(0.3, -2.5), (-0.2, 2.5)] + points
    zeta = np.array([complex(x, y * tau.imag) for x, y in rows])
    c, cfg = C(eps, epsp), EvalConfig()
    got = (theta_deriv_eval if deriv else theta_eval)(c, zeta, tau, cfg)
    assert got.shape == zeta.shape
    for z, g in zip(zeta, got):
        want, scale = shell_sum(c, complex(z), tau, cfg, deriv)
        assert abs(g - want) <= 1e-13 * max(scale, 1.0), (z, g, want)


def test_scalar_theta_calls_bypass_the_point_cache():
    # a scalar zeta is a one-point array: its value is the array call's to
    # the bit, and the point cache is neither read nor filled
    c, tau = C(Fraction(1, 5), Fraction(3, 5)), 0.1 + 0.9j
    numeric._POINTS.clear()
    for fn in (theta_eval, theta_deriv_eval):
        for zeta in (0.2 + 0.1j, 0.0, 0):
            v = fn(c, zeta, tau)
            assert type(v) is complex
            assert fn(c, zeta, tau) == v == fn(c, np.array([zeta]), tau)[0]
            arr = fn(c, np.array([[zeta, 0.3j]]), tau)
            assert arr.shape == (1, 2) and arr[0, 0] == v
    cache = numeric._POINTS
    assert (cache.hits, cache.misses, cache.filled) == (0, 0, 0)
    assert not cache.kinds


@settings(max_examples=100, deadline=None)
@given(chars=st.lists(st.tuples(fifths, fifths), min_size=1, max_size=6),
       deriv=st.booleans(),
       tau=st.builds(complex, st.floats(-0.5, 0.5), st.floats(0.3, 3.0)),
       points=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-3.0, 3.0)),
                       min_size=1, max_size=12))
def test_batched_kernel_equals_one_point_calls(chars, deriv, tau, points):
    # Im zeta in rows of Im tau, each point paired with a characteristic:
    # the peaks sit at different n and some points' windows widen
    rows = [(0.3, -2.5), (-0.2, 2.5), (0.1, 0.5), (0.1, 0.0)] + points
    pairs = [(chars[i % len(chars)], complex(x, y * tau.imag))
             for i, (x, y) in enumerate(rows)]
    eps = np.array([float(e) for (e, _), _ in pairs])
    epsp = np.array([float(e) for (_, e), _ in pairs])
    zeta = np.array([z for _, z in pairs])
    cfg = EvalConfig()
    got = numeric._theta_sum(eps / 2.0, zeta + epsp / 2.0, tau, cfg, deriv)
    for i in range(len(zeta)):
        one = numeric._theta_sum(eps[i] / 2.0, zeta[i:i + 1] + epsp[i] / 2.0,
                                 tau, cfg, deriv)
        assert got[i] == one[0], (i, got[i], one[0])
    # one characteristic over many points: each point keeps its own window
    same = numeric._theta_sum(eps[0] / 2.0, zeta + epsp[0] / 2.0, tau, cfg,
                              deriv)
    for i in range(len(zeta)):
        one = numeric._theta_sum(eps[0] / 2.0, zeta[i:i + 1] + epsp[0] / 2.0,
                                 tau, cfg, deriv)
        assert same[i] == one[0]


@settings(max_examples=100, deadline=None)
@given(chars=st.lists(st.tuples(fifths, fifths), max_size=4),
       taus=st.lists(st.builds(complex, st.floats(-0.5, 0.5),
                               st.floats(0.3, 3.0)), max_size=3),
       deriv=st.booleans(), block=st.sampled_from([1, 2, 5, 4096]),
       points=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                                 st.floats(-1.0, 1.0), st.floats(-3.0, 3.0)),
                       max_size=12))
def test_multi_tau_batch_equals_one_point_calls(chars, taus, deriv, block,
                                                points):
    # each point at its own tau and with its own characteristic: the three
    # fixed taus have first half-widths 4, 3 and 6, and at 0.1 + 0.6446j
    # theta[0;0] half-way between two peaks (Im zeta = Im tau / 2) needs a
    # second pass; blocks as small as one row
    chars = [(0, 0), (Fraction(1, 5), Fraction(3, 5))] + chars
    taus = [0.1 + 0.6446j, -0.2 + 2.5j, 0.3 + 0.4j] + taus
    rows = [(0, 0, 0.1, 0.5), (0, 0, 0.1, 0.0), (1, 1, 0.3, -2.5),
            (2, 1, -0.2, 2.5)] + points
    tau = np.array([taus[t % len(taus)] for t, _, _, _ in rows])
    pair = [chars[c % len(chars)] for _, c, _, _ in rows]
    eps = np.array([float(e) for e, _ in pair])
    epsp = np.array([float(e) for _, e in pair])
    zeta = np.array([complex(x, y * t.imag)
                     for (_, _, x, y), t in zip(rows, tau)])
    cfg, kept = EvalConfig(), numeric._BLOCK_ROWS
    numeric._BLOCK_ROWS = block
    try:
        got = numeric._theta_sum(eps / 2.0, zeta + epsp / 2.0, tau, cfg,
                                 deriv)
    finally:
        numeric._BLOCK_ROWS = kept
    for i in range(len(zeta)):
        one = numeric._theta_sum(eps[i] / 2.0, zeta[i:i + 1] + epsp[i] / 2.0,
                                 complex(tau[i]), cfg, deriv)
        assert got[i] == one[0], (i, got[i], one[0])


def test_only_the_open_points_widen(monkeypatch):
    # with Im tau = 0.6446 the first window is 9 terms wide and only just
    # enough: a peak term at n = 0 closes it, one half-way between two n
    # (Im zeta = Im tau / 2) does not, so the second pass has one row
    tau = 0.1 + 0.6446j
    zeta = np.array([0.1 + 0j, 0.1 + 0.5j * tau.imag])
    shapes, exp = [], np.exp
    monkeypatch.setattr(np, "exp", lambda x: shapes.append(x.shape) or exp(x))
    got = numeric._theta_sum(0.0, zeta + 0.0, tau, EvalConfig(), False)
    monkeypatch.undo()
    assert shapes == [(2, 9), (1, 17)]
    for i in range(2):
        one = numeric._theta_sum(0.0, zeta[i:i + 1] + 0.0, tau, EvalConfig(),
                                 False)
        assert got[i] == one[0]


def test_each_open_point_widens_until_its_edges_are_small(monkeypatch):
    # from _first_k's half-width no point needs a third pass (twice it
    # always holds the Gaussian), so it is 1 here, at a tau per point: then
    # theta[0;0] at a peak term (Im zeta = 0) closes on the first pass at
    # Im tau = 12 and on the second at Im tau = 5; half-way between two
    # peaks at Im tau = 5 it closes on the third
    tau = np.array([0.1 + 12j, 0.1 + 5j, 0.1 + 5j])
    zeta = np.array([0.1 + 0j, 0.1 + 0j, 0.1 + 2.5j])
    monkeypatch.setattr(numeric, "_first_k", lambda tau, cfg: 1)
    shapes, exp = [], np.exp
    monkeypatch.setattr(np, "exp", lambda x: shapes.append(x.shape) or exp(x))
    got = numeric._theta_sum(0.0, zeta + 0.0, tau, EvalConfig(), False)
    monkeypatch.setattr(np, "exp", exp)
    assert shapes == [(3, 3), (2, 5), (1, 9)]
    for i in range(3):
        one = numeric._theta_sum(0.0, zeta[i:i + 1] + 0.0, complex(tau[i]),
                                 EvalConfig(), False)
        assert got[i] == one[0]
    # at Im tau = 0.6446 both points half-way between two peaks are certain
    # to stay open after a first pass, so it is skipped: one pass sums both
    monkeypatch.undo()
    tau = 0.1 + 0.6446j
    zeta = np.array([0.1 + 0.5j * tau.imag, 0.3 + 0.5j * tau.imag])
    shapes = []
    monkeypatch.setattr(np, "exp", lambda x: shapes.append(x.shape) or exp(x))
    got = numeric._theta_sum(0.0, zeta + 0.0, tau, EvalConfig(), False)
    monkeypatch.undo()
    assert shapes == [(2, 17)]
    for i in range(2):
        one = numeric._theta_sum(0.0, zeta[i:i + 1] + 0.0, tau, EvalConfig(),
                                 False)
        assert got[i] == one[0]
    # a NaN edge is not small: it widens, up to max_terms, and then raises
    shapes = []
    monkeypatch.setattr(np, "exp", lambda x: shapes.append(x.shape) or exp(x))
    with pytest.raises(ValueError, match="within 64 terms"):
        numeric._theta_sum(0.0, np.array([complex("nan")]), 0.1 + 1j,
                           EvalConfig(max_terms=64), False)
    monkeypatch.undo()
    assert shapes == [(1, 9), (1, 17), (1, 33), (1, 63)]


def _pick(x, rows):
    return x[rows] if isinstance(x, np.ndarray) else x


def plain_theta_sum(a, u, tau, cfg, deriv):
    """_theta_sum with no first-window rule: every point starts at
    _first_k's half-width (a tau per point in groups that share it), and
    the rows whose edge terms are not small are summed again at twice it
    around the same centers, with the kernel's expressions in the kernel's
    order.  A point of finite inputs with a term past a double stops all
    widening; a value past a double raises."""
    per_point = isinstance(tau, np.ndarray)
    if (tau.imag <= 0).any() if per_point else tau.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    a, u = (a[:, None] if isinstance(a, np.ndarray) else a), u[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        if per_point:
            first = np.array([numeric._first_k(t, cfg) for t in tau])
            out = np.empty(len(u), complex)
            for k in sorted(set(first.tolist())):
                rows = first == k
                out[rows] = plain_window_sum(_pick(a, rows), u[rows],
                                             tau[rows, None], k, cfg, deriv)
        else:
            out = plain_window_sum(a, u, tau, numeric._first_k(tau, cfg), cfg,
                                   deriv)
    if not np.isfinite(out).all():
        raise ValueError("theta value overflows a double")
    return out


def plain_window_sum(a, u, tau, k, cfg, deriv, center=None):
    if center is None:
        center = np.rint(-a - u.imag / tau.imag)
    m = (center + np.arange(-k, k + 1)) + a
    t = np.exp(1j * math.pi * (m * m * tau + 2 * m * u))
    if deriv:
        t = t * (TWO_PI_I * m)
    mag = np.abs(t)
    top = mag.max(axis=1)
    edge = np.maximum(mag[:, 0], mag[:, -1])
    wide = ~(edge <= cfg.tol * 1e-2 * np.maximum(top, 1.0))
    out = t.sum(axis=1)
    if not wide.any() or (np.isfinite(a + u + tau).ravel()
                          & ~np.isfinite(top)).any():
        return out
    k_max = (cfg.max_terms - 1) // 2
    if k == k_max:
        raise ValueError(
            f"theta sum did not converge within {cfg.max_terms} terms")
    out[wide] = plain_window_sum(_pick(a, wide), u[wide], _pick(tau, wide),
                                 min(k_max, 2 * k), cfg, deriv, center[wide])
    return out


def _outcome(kernel, *args):
    try:
        return kernel(*args).tolist()
    except ValueError as e:
        return str(e)


@settings(max_examples=300, deadline=None)
@given(chars=st.lists(st.tuples(fifths, fifths), min_size=1, max_size=4),
       taus=st.lists(st.builds(complex, st.floats(-0.5, 0.5),
                               st.floats(0.3, 3.0)
                               | st.sampled_from([0.05, 12.0, 37.7])),
                     min_size=1, max_size=3),
       per_point=st.booleans(), deriv=st.booleans(),
       tol=st.sampled_from([0.0, 1e-12, 1e-3]),
       max_terms=st.sampled_from([8, 9, 17, 40, 4000]),
       points=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                                 st.floats(-1.0, 1.0), st.integers(-3, 3),
                                 st.floats(-0.5, 0.5)),
                       min_size=1, max_size=6),
       odd=st.sampled_from([None, "nan", "overflow"]))
def test_kernel_equals_the_plain_window_sums(chars, taus, per_point, deriv,
                                             tol, max_terms, points, odd):
    # the first-window rules skip windows and closing tests, never a bit:
    # values and error messages are the plain sums', with a tau per point
    # or one tau, at tol 0, small max_terms, and a point that is NaN or
    # whose Im zeta is large enough to overflow a double.  A point's peak
    # lies off its nearest n by off (its peak at -eps/2 - Im zeta / Im tau)
    pair = [chars[c % len(chars)] for _, c, _, _, _ in points]
    tau = np.array([taus[t % len(taus)] if per_point else taus[0]
                    for t, _, _, _, _ in points])
    zeta = np.array([complex(x, -(float(e) / 2 + n + off) * t.imag)
                     for (_, _, x, n, off), t, (e, _) in zip(points, tau,
                                                              pair)])
    if odd == "nan":
        zeta[0] = complex("nan")
    elif odd == "overflow":
        zeta[0], tau[0] = 0.3537 + 98.5j, 0.2259 + 37.7j
        pair[0] = (Fraction(1), Fraction(0))
    a = np.array([float(e) for e, _ in pair]) / 2.0
    u = zeta + np.array([float(e) for _, e in pair]) / 2.0
    if not per_point and odd != "overflow":
        tau = complex(tau[0])
    cfg = EvalConfig(tol=tol, max_terms=max_terms)
    assert _outcome(numeric._theta_sum, a, u, tau, cfg, deriv) == \
        _outcome(plain_theta_sum, a, u, tau, cfg, deriv)


def test_first_window_rules_at_their_bounds():
    # a point's peak offset d swept across both rules' bounds, alone, with
    # a point at a peak (d = 0) and with one half-way between two (d = 1/2),
    # at one tau and at a tau per point (Im tau and 1.3 Im tau): the sums
    # and errors are the plain ones
    for tol in (1e-12, 1e-3):
        cfg = EvalConfig(tol=tol)
        for im in (0.31, 0.5, 0.85, 1.0, 1.9, 2.6):
            for d in np.linspace(0.0, 0.5, 41):
                for others in ((), (0.0,), (0.5,)):
                    offs = np.array([d, *others])
                    zeta = 0.2 - 1j * (1 + offs) * im
                    taus = (complex(0.1, im),
                            0.1 + 1j * im * 1.3 ** np.arange(len(offs)))
                    for tau in taus:
                        assert _outcome(numeric._theta_sum, 0.0, zeta, tau,
                                        cfg, False) == \
                            _outcome(plain_theta_sum, 0.0, zeta, tau, cfg,
                                     False), (tol, im, d, others)


def test_a_window_every_point_closes_takes_no_closing_test(monkeypatch):
    # the discovery grid at Im tau = 0.9: the first window (half-width 4)
    # closes at every point (pi Im tau k (k - 2 max d) >= ln(200/tol)), so
    # the call takes the magnitude of its peak offsets alone, not of its terms
    chars = tuple((e, k / 5) for e in (0.2, 0.6) for k in (1, 3, 5, 7, 9))
    grid, tau = tuple(zeta_grid(9)), 0.1 + 0.9j
    want = [[theta_eval(C(Fraction(e).limit_denominator(5),
                          Fraction(ep).limit_denominator(5)), z, tau)
             for z in grid] for e, ep in chars]
    shapes, absolute, exp = [], np.abs, np.exp
    monkeypatch.setattr(np, "abs", lambda x, *rest, **kw:
                        shapes.append(x.shape) or absolute(x, *rest, **kw))
    monkeypatch.setattr(np, "exp", lambda x: shapes.append(x.shape) or exp(x))
    got = numeric._theta_rows(chars, grid, tau)
    monkeypatch.undo()
    assert shapes == [(90, 1), (90, 9)]   # np.abs of offsets, np.exp of terms
    assert got.tolist() == want
    # the just-enough window of test_only_the_open_points_widen is not
    # certain to close (its point half-way between two peaks has d = 1/2):
    # it takes its closing test, and one row widens
    tau = 0.1 + 0.6446j
    zeta = np.array([0.1 + 0j, 0.1 + 0.5j * tau.imag])
    shapes = []
    monkeypatch.setattr(np, "abs", lambda x, *rest, **kw:
                        shapes.append(x.shape) or absolute(x, *rest, **kw))
    numeric._theta_sum(0.0, zeta + 0.0, tau, EvalConfig(), False)
    monkeypatch.undo()
    assert shapes == [(2, 1), (2, 9), (1, 17)]


thirds = st.integers(-6, 6).map(lambda k: Fraction(k, 3))


@settings(max_examples=100, deadline=None)
@given(chars=st.lists(st.tuples(fifths | thirds, fifths | thirds),
                      min_size=1, max_size=5),
       tau=st.builds(complex, st.floats(-0.5, 0.5), st.floats(0.3, 3.0)),
       points=st.lists(st.tuples(st.floats(-1.0, 1.0),
                                 st.sampled_from([0.0, -0.0])
                                 | st.floats(-3.0, 3.0)),
                       min_size=1, max_size=6))
def test_theta_rows_equal_one_point_calls(chars, tau, points):
    # the rows come from one window sum on (eps/2, zeta + eps'/2) inputs,
    # cached for a tuple grid and built afresh for a list: every value is
    # the one-point value to the bit, also at Im zeta = -0.0 (Im u = +0.0)
    zeta = [complex(x, y * tau.imag) for x, y in points]
    pairs = tuple((float(e), float(ep)) for e, ep in chars)
    want = [[theta_eval(C(e, ep), z, tau) for z in zeta] for e, ep in chars]
    numeric._grid_inputs.cache_clear()
    for grid in (zeta, tuple(zeta), tuple(zeta)):  # fresh, cached, hit
        got = numeric._theta_rows(pairs, grid, tau)
        assert got.shape == (len(chars), len(zeta))
        assert got.tolist() == want
    info = numeric._grid_inputs.cache_info()
    assert (info.hits, info.misses) == (1, 1)


@st.composite
def _shared_grids(draw):
    """(chars, grid, taus, cfg): 1-40 points sharing Im zeta and a = eps/2,
    a first tau drawn freely or at one of the first-window rules' bounds (at
    tol 1e-12 when tol is 0) and up to three free ones, Im zeta placing the
    common peak at n + off, or +-0.0, or large enough that every sum
    overflows."""
    eps = draw(fifths | thirds)
    chars = tuple((float(eps), float(e)) for e in draw(
        st.lists(fifths | thirds, min_size=1, max_size=4)))
    tol = draw(st.sampled_from([0.0, 1e-3, 1e-12]))
    t, n, off = tol or 1e-12, draw(st.integers(-3, 3)), draw(st.floats(0, 0.5))
    rule = draw(st.sampled_from(["free", "close", "skip"]))
    if rule == "close":   # pi Im tau k (k - 2 off) = ln(200/tol)
        k, off = draw(st.integers(2, 8)), min(off, 0.45)
        im = math.log(200.0 / t) / (math.pi * k * (k - 2.0 * off))
    else:
        im = draw(st.floats(0.3, 3.0))
        if rule == "skip":   # off = k - sqrt(ln(50/tol) / (pi Im tau))
            k = numeric._first_k(1j * im, EvalConfig(tol=t))
            off = min(0.5, max(0.0, k - math.sqrt(math.log(50.0 / t)
                                                  / (math.pi * im))))
    im *= 1.0 + draw(st.sampled_from([-1, 0, 1])) * 2.0 ** -50
    y = draw(st.sampled_from([None, 0.0, -0.0, 30.0]))
    if y is None:
        y = -(float(eps) / 2 + n + off) * im
    grid = tuple(complex(x, y) for x in draw(st.lists(
        st.floats(-1.0, 1.0), min_size=1, max_size=40)))
    cfg = EvalConfig(tol=tol, max_terms=draw(st.sampled_from(
        [8, 9, 17, 40, 4000])))
    taus = [complex(draw(st.floats(-0.5, 0.5)), im)] + [
        complex(x, y) for x, y in draw(st.lists(st.tuples(
            st.floats(-0.5, 0.5), st.floats(0.3, 3.0)), max_size=3))]
    return chars, grid, taus, cfg


@settings(max_examples=300, deadline=None)
@given(case=_shared_grids())
def test_shared_window_rows_equal_the_kernel(case):
    # a grid whose points share a and Im u takes one window judged in
    # floats, from its tau-free half built once per (half-width, center):
    # values and error messages are _theta_sum's, when the window is built
    # and when it is read, also after the grid met other tau
    chars, grid, taus, cfg = case
    assert numeric._grid_inputs(chars, grid)[2] is not None
    a, u = numeric._kernel_inputs(chars, grid)
    for tau in taus + taus:
        want = _outcome(lambda: numeric._theta_sum(
            a, u, tau, cfg, False).reshape(len(chars), len(grid)))
        assert _outcome(numeric._theta_rows, chars, grid, tau, cfg) == want


def test_shared_window_data_is_read_only():
    chars, grid = ((0.2, 0.2), (0.2, 0.6)), tuple(zeta_grid(9))
    numeric._theta_rows(chars, grid, 0.1 + 1.1j)
    (mm, mu2), = numeric._grid_inputs(chars, grid)[2].values()
    assert mm.shape == (9,) and mu2.shape == (18, 9)
    for arr in (mm, mu2):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


def test_a_tau_just_above_the_real_axis_takes_the_widest_window():
    # ln(100/tol) / (pi Im tau) overflows a double at a subnormal Im tau:
    # the first half-width is then the widest, and the sum does not converge
    # (it raised OverflowError, not ValueError)
    for zeta in (0.1, np.array([0.1, 0.2])):
        with pytest.raises(ValueError, match="did not converge"):
            theta_eval(C(Fraction(1, 5), Fraction(1, 5)), zeta,
                       complex(0.1, 1e-310))


def test_an_empty_batch_is_empty():
    for zeta in (np.zeros(0), np.zeros((0, 3))):
        assert theta_eval(C(Fraction(1, 5), 0), zeta, 0.1 + 1j).shape == \
            zeta.shape


def test_cached_kernel_inputs_are_read_only():
    a, u, windows = numeric._grid_inputs(((0.2, 0.6), (1.0, 0.2)),
                                         (0j, 0.1 + 0.2j))
    assert windows is None   # its points do not share a
    assert a.tolist() == [0.1, 0.1, 0.5, 0.5]
    assert u.tolist() == [0j + 0.3, 0.1 + 0.2j + 0.3, 0j + 0.1, 0.1 + 0.2j + 0.1]
    for arr in (a, u):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


def loop_residual(ident, tau, zeta=None):
    """identity_residual as a product loop over scalar theta_eval calls,
    factor by factor in each term's order."""
    values = []
    for term in ident.terms:
        v = term.scalar.embed()
        for f in term.factors:
            arg = zeta if f.argument is Argument.SYMBOLIC_ZETA else 0.0
            v *= theta_eval(f.char, arg, tau) ** f.power
        values.append(v)
    scale = max(abs(v) for v in values)
    if scale == 0.0:
        return 0.0
    return abs(sum(values)) / scale


def test_identity_residual_equals_the_factor_loop():
    taus = sample_tau(17, 3)
    zetas = sample_zeta(17, 2)
    for ident in builtin_catalog():
        points = zetas if ident.kind is IdentityKind.FUNCTION else [None]
        for tau in taus:
            for zeta in points:
                # each side computes its own theta values: the loop in
                # one-point kernel calls, identity_residual in one batch
                want = loop_residual(ident, tau, zeta)
                numeric._POINTS.clear()
                assert identity_residual(ident, tau, zeta) == want, ident.id


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("evaluate", [theta_eval, theta_deriv_eval])
def test_overflow_is_reported(monkeypatch, evaluate):
    # |theta[1; 0]| here is about e^808 > 1.8e308: a scalar point, a point
    # of an array and a derivative (whose window never closes) all raise,
    # with no numpy warning, after one pass: no wider window can help
    c, zeta, tau = C(1, 0), 0.3537 + 98.5j, 0.2259 + 37.7j
    shapes, exp = [], np.exp
    monkeypatch.setattr(np, "exp", lambda x: shapes.append(x.shape) or exp(x))
    for z in (zeta, np.array([0.1j, zeta])):
        shapes.clear()
        with pytest.raises(ValueError, match="overflows a double"):
            evaluate(c, z, tau)
        assert len(shapes) == 1
    monkeypatch.undo()
    assert cmath.isfinite(evaluate(c, 0.1j, tau))   # a finite value answers


def _with_term(ident, i, **changes):
    """A copy of ident with the fields of term i changed."""
    terms = list(ident.terms)
    terms[i] = dataclasses.replace(terms[i], **changes)
    return dataclasses.replace(ident, terms=terms)


def test_edited_terms_are_evaluated_afresh():
    """Terms cannot be edited in place; an edited copy of an identity after
    an evaluation of the original has the residual of a fresh copy of it
    (dataclasses.replace builds none of the original's derived data), not
    that of the old terms."""
    tau = 0.1 + 1j
    ident = builtin_catalog()[0]
    assert ident.id == "jacobi-quartic"
    assert identity_residual(ident, tau) < 1e-12
    with pytest.raises(dataclasses.FrozenInstanceError):
        ident.terms[0].scalar = -ident.terms[0].scalar
    edited = _with_term(ident, 0, scalar=-ident.terms[0].scalar)
    assert verify_exact(edited, 8).status == "fail"
    flipped = identity_residual(edited, tau)
    assert flipped == identity_residual(dataclasses.replace(edited), tau)
    assert abs(flipped - 2.0) < 1e-12
    # a replaced factor list is seen too: theta[0;0]^4 -> theta[1;0]^4
    with pytest.raises(dataclasses.FrozenInstanceError):
        edited.terms[0].factors = list(edited.terms[1].factors)
    edited = _with_term(edited, 0, factors=edited.terms[1].factors)
    assert identity_residual(edited, tau) == \
        identity_residual(dataclasses.replace(edited), tau) != flipped
    # and a factor replaced inside its list: theta[0;0]^4 -> theta[0;1]^4
    with pytest.raises(TypeError):
        ident.terms[0].factors[0] = ThetaFactor(C(0, 1), 4)
    edited = _with_term(ident, 0, factors=[ThetaFactor(C(0, 1), 4)])
    assert identity_residual(edited, tau) == \
        identity_residual(dataclasses.replace(edited), tau) > 0.5
    assert identity_residual(builtin_catalog()[0], tau) < 1e-12


def test_eval_sweep_builds_each_numeric_plan_once(monkeypatch, capsys):
    # a fresh corpus (not the one other tests have evaluated), and a count
    # of the numeric plans built over one `theta5 eval` sweep, per identity
    monkeypatch.setattr(catalog_data, "_catalog", functools.lru_cache(
        maxsize=1)(catalog_data._catalog.__wrapped__))
    built, plan = collections.Counter(), numeric._numeric_plan
    monkeypatch.setattr(numeric, "_numeric_plan",
                        lambda ident: built.update([ident.id]) or plan(ident))
    assert main(["--seed", "0", "eval"]) == 0
    capsys.readouterr()
    assert len(built) == 81 and set(built.values()) == {1}


def test_eval_subcommand_mostly_hits_the_point_cache(capsys):
    numeric._POINTS.clear()
    assert main(["--seed", "0", "eval"]) == 0
    capsys.readouterr()
    assert numeric._POINTS.hits > numeric._POINTS.misses > 0


def test_eval_sweep_fills_each_new_characteristic_in_one_call(monkeypatch,
                                                            capsys):
    # without fills the sweep makes 87 kernel calls for 207 points; with
    # them 21 calls for the same 207 points (a new characteristic at every
    # held row, a new tau at the last tau's zeta grid), so it computes no
    # value that it does not read
    calls, kernel = [], numeric._theta_sum
    monkeypatch.setattr(numeric, "_theta_sum", lambda a, u, *rest:
                        calls.append(len(u)) or kernel(a, u, *rest))
    numeric._POINTS.clear()
    assert main(["--seed", "0", "eval"]) == 0
    capsys.readouterr()
    assert (len(calls), sum(calls)) == (21, 207)
    cache = numeric._POINTS
    assert cache.misses + cache.filled == 207 and cache.filled > 0
    assert cache.hits + cache.misses == 2913


def _one_point(char, zeta, tau, cfg):
    p, q, r, s = char
    return numeric._theta_sum(p / q / 2.0, np.array([zeta]) + r / s / 2.0, tau,
                              cfg, False)[0]


def _held(cache, char, zeta, tau, cfg):
    """The cache's value of char at the row (zeta, tau, cfg), or None: the
    row's number in its kind's index, read in char's column."""
    kind = cache.kinds[zeta == 0, cfg]
    return kind.held((char,), kind.index[zeta, tau])[0]


def _row_keys(cache):
    """The rows the cache holds, as keys (zeta, tau, cfg)."""
    return [(*point, cfg) for (_, cfg), kind in cache.kinds.items()
            for point in kind.index]


def _places(cache):
    """The places the cache's columns take, held or not: its one bound."""
    return sum(kind.room * len(kind.cols) for kind in cache.kinds.values())


def test_a_fill_answers_only_its_own_kind():
    # rows of three kinds hold theta[0;0]; theta[1/5;3/5] is new to the kind
    # (zeta == 0, cfg) alone, so it is filled at that row alone, and a
    # lookup of it at each other row is a miss of its own
    cache = numeric._PointCache(1 << 10)
    a, b = (0, 1, 0, 1), (1, 5, 3, 5)
    cfg, other = EvalConfig(), EvalConfig()
    tau, z = 0.1 + 0.9j, 0.2 + 0.1j
    held = [(0j, cfg), (z, cfg), (0j, other)]
    for zeta, c in held:
        cache.lookup((), (a,), zeta, tau, c)
    assert cache.lookup((), (b,), 0j, -0.2 + 1.3j, cfg)[0] == \
        _one_point(b, 0j, -0.2 + 1.3j, cfg)
    assert cache.filled == 1
    assert _held(cache, b, 0j, tau, cfg) == _one_point(b, 0j, tau, cfg)
    for zeta, c in held[1:]:
        assert _held(cache, b, zeta, tau, c) is None
        hits = cache.hits
        assert cache.lookup((), (b,), zeta, tau, c)[0] == \
            _one_point(b, zeta, tau, c)
        assert cache.hits == hits
    assert cache.filled == 1


def test_a_fill_that_cannot_converge_leaves_the_lookup_good():
    # with 8 terms theta[1;0] converges at 3i but not at 1.3i, where
    # theta[0;0] does: its fill at the held 1.3i row fails, the lookup at
    # 3i is computed alone and answers, and only asking at 1.3i raises
    cache, cfg = numeric._PointCache(1 << 10), EvalConfig(max_terms=8)
    c00, c10 = (0, 1, 0, 1), (1, 1, 0, 1)
    cache.lookup((), (c00,), 0j, 1.3j, cfg)
    assert cache.lookup((), (c10,), 0j, 3j, cfg)[0] == \
        _one_point(c10, 0j, 3j, cfg)
    assert cache.filled == 0 and _held(cache, c10, 0j, 1.3j, cfg) is None
    with pytest.raises(ValueError, match="within 8 terms"):
        cache.lookup((), (c10,), 0j, 1.3j, cfg)


@st.composite
def grid_sweeps(draw):
    """Characteristics at a zeta grid of 2-4 points at 2-4 taus, looked up
    in a drawn order of all the grid's points (each lookup with 1-3
    characteristics at zeta and 0-1 at zeta = 0)."""
    chars = st.tuples(st.integers(0, 9), st.just(5), st.integers(0, 9),
                      st.just(5))
    at_z = tuple(draw(st.lists(chars, min_size=1, max_size=3, unique=True)))
    zero = tuple(draw(st.lists(chars, max_size=1)))
    zetas = draw(st.lists(st.complex_numbers(max_magnitude=0.5).filter(
        lambda z: z != 0), min_size=2, max_size=4, unique=True))
    taus = draw(st.lists(st.complex_numbers(max_magnitude=0.5).map(
        lambda t: complex(t.real, 0.6 + abs(t.imag))), min_size=2,
        max_size=4, unique=True))
    order = draw(st.sampled_from(("tau-major", "zeta-major", "drawn")))
    points = [(z, t) for t in taus for z in zetas]
    if order == "zeta-major":
        points = [(z, t) for z in zetas for t in taus]
    elif order == "drawn":
        points = draw(st.permutations(points))
    return zero, at_z, points, order


@settings(max_examples=60, deadline=None)
@given(grid_sweeps())
def test_a_new_tau_fills_the_zeta_grid_with_one_point_values(case):
    # every value the cache answers or holds, grid-filled ones too, is the
    # one-point kernel's to the bit; a tau-major sweep computes each value
    # once, all but the first tau's in one call per tau
    zero, at_z, points, order = case
    cache, cfg = numeric._PointCache(1 << 12), EvalConfig()
    for z, tau in points:
        got = cache.lookup(zero, at_z, z, tau, cfg)
        assert got == [_one_point(c, 0j, tau, cfg) for c in zero] + [
            _one_point(c, z, tau, cfg) for c in at_z]
    kind = cache.kinds[False, cfg]
    assert len(kind.index) == len(points)
    for (z, tau), row in kind.index.items():
        assert kind.held(at_z, row) == [_one_point(c, z, tau, cfg)
                                        for c in at_z]
    taus = len({t for _, t in points})
    if order == "tau-major":
        zetas = len(points) // taus
        assert cache.filled == (taus - 1) * (zetas - 1) * len(at_z)
        assert cache.misses + cache.filled == (
            len(points) * len(at_z) + taus * len(zero))


def test_one_zeta_per_tau_fills_nothing():
    # a function identity's residual at one zeta per tau (the zeta moves
    # with tau): no grid to fill, and no value computed that is not asked
    ident = next(i for i in builtin_catalog()
                 if i.kind is IdentityKind.FUNCTION)
    zero, at_z = numeric._numeric_plan(ident)[:2]
    numeric._POINTS.clear()
    for tau in sample_tau(13, 50):
        assert identity_residual(ident, tau, 0.3 * tau + 0.1) < 1e-9
    cache = numeric._POINTS
    assert (cache.filled, cache.misses, cache.hits) == (
        0, 50 * (len(zero) + len(at_z)), 0)


def test_a_grid_point_that_cannot_converge_leaves_the_lookup_good():
    # with 8 terms theta[0;0] converges at zeta 0.1 and 0.7i at tau 3i, and
    # at 0.1 but not at 0.7i at tau 1.4i (its peak falls between two
    # terms): the new tau's grid fill fails, the asked point is computed
    # alone and answers, and only asking at 0.7i raises
    cache, cfg, c00 = numeric._PointCache(1 << 10), EvalConfig(max_terms=8), \
        (0, 1, 0, 1)
    for z in (0.1 + 0j, 0.7j):
        cache.lookup((), (c00,), z, 3j, cfg)
    assert cache.lookup((), (c00,), 0.1 + 0j, 1.4j, cfg)[0] == \
        _one_point(c00, 0.1 + 0j, 1.4j, cfg)
    assert cache.filled == 0 and len(_row_keys(cache)) == 3
    with pytest.raises(ValueError, match="within 8 terms"):
        cache.lookup((), (c00,), 0.7j, 1.4j, cfg)


@pytest.mark.parametrize("places, rows", [(17, 0), (18, 10)])
def test_a_grid_fill_past_the_bound_starts_the_cache_over(places, rows):
    # five zetas held at one tau take 8 places; a new tau's grid fill (four
    # values) and the asked value make 10 rows, 18 places: a bound of 18
    # keeps them, and past a bound of 17 the lookup still answers and the
    # cache starts over
    cache, cfg, c15 = numeric._PointCache(places), EvalConfig(), \
        (1, 5, 3, 5)
    zetas = sample_zeta(3, 5)
    for z in zetas:
        cache.lookup((), (c15,), z, 1j, cfg)
    assert _places(cache) == 8
    assert cache.lookup((), (c15,), zetas[0], 1.2j, cfg)[0] == \
        _one_point(c15, zetas[0], 1.2j, cfg)
    assert cache.filled == 4 and len(_row_keys(cache)) == rows
    assert _places(cache) == (18 if rows else 0)


def test_a_fill_past_the_bound_answers_then_starts_over():
    # three rows hold theta[0;0] in 8 places; a new characteristic with its
    # fill at those rows takes 8 more, past a bound of 15: the lookup
    # answers, and the cache starts over; the next miss is held alone
    cache, cfg, c00, c15 = numeric._PointCache(15), EvalConfig(), \
        (0, 1, 0, 1), (1, 5, 3, 5)
    for tau in (1j, 1.1j, 1.2j):
        cache.lookup((), (c00,), 0j, tau, cfg)
    assert cache.lookup((), (c15,), 0j, 1.3j, cfg)[0] == \
        _one_point(c15, 0j, 1.3j, cfg)
    assert cache.filled == 3 and _places(cache) == 0
    assert cache.lookup((), (c15,), 0j, 1j, cfg)[0] == \
        _one_point(c15, 0j, 1j, cfg)
    assert _row_keys(cache) == [(0j, 1j, cfg)] and _places(cache) == 8


def test_a_lookup_that_starts_the_cache_over_keeps_its_hits():
    # theta[0;0] held at two rows at zeta = 0 takes 8 places: a lookup of it
    # (a hit) and of a new value at zeta (8 places of a new kind) passes a
    # bound of 15, so the cache starts over after it, and the value that
    # was a hit still answers
    cache, cfg, c00, c15 = numeric._PointCache(15), EvalConfig(), \
        (0, 1, 0, 1), (1, 5, 3, 5)
    for tau in (1j, 1.1j):
        cache.lookup((c00,), (), 0.3j, tau, cfg)
    assert cache.lookup((c00,), (c15,), 0.3j, 1j, cfg) == [
        _one_point(c00, 0j, 1j, cfg), _one_point(c15, 0.3j, 1j, cfg)]
    assert (cache.hits, cache.misses) == (1, 3)
    assert _row_keys(cache) == [] and _places(cache) == 0


def test_columns_with_holes_are_bounded_too():
    # a cache of 256 places holds eight characteristics at one point (64
    # places); theta[0;0] asked at one new point after another adds rows
    # with holes in the seven other columns.  Their places are bounded as
    # well: no lookup leaves more than 256, and the cache starts over
    cache, cfg = numeric._PointCache(256), EvalConfig()
    chars = tuple((k, 5, 0, 1) for k in range(8))
    cache.lookup((), chars, 0j, 1.1j, cfg)
    places = []
    for k in range(1, 100):
        tau = complex(0.001 * k, 1.1)
        assert cache.lookup((), chars[:1], 0j, tau, cfg)[0] == \
            _one_point(chars[0], 0j, tau, cfg)
        places.append(_places(cache))
    assert max(places) <= 256 and 240 in places and 0 in places
    assert cache.filled == 0


def _sweep_kind(z):
    """The point cache's kind of row for identity residuals at zeta = z."""
    return numeric._POINTS.kinds[z == 0, numeric._DEFAULT_CFG]


@st.composite
def sweep_cases(draw):
    """An identity over characteristics in fifths and thirds, with 1-16
    terms of degree 1-12 (powers 1-12, factors at zero and at zeta,
    scalars of one or several entries), 2-50 points (tau, zeta), and the
    points whose values the cache will not hold (holes)."""
    den = st.sampled_from((3, 5))
    chars = st.builds(lambda d, e, f: C(Fraction(e, d), Fraction(f, d)),
                      den, st.integers(0, 9), st.integers(0, 9))
    degree = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(IdentityKind))
    args = ([Argument.AT_ZERO] if kind is IdentityKind.CONSTANT
            else list(Argument))
    terms = []
    for _ in range(draw(st.integers(1, 16))):
        cuts = sorted(draw(st.sets(st.integers(1, degree - 1), max_size=2))
                      if degree > 1 else ())
        powers = [b - a for a, b in zip([0, *cuts], [*cuts, degree])]
        factors = [ThetaFactor(draw(chars), p, draw(st.sampled_from(args)))
                   for p in powers]
        entries = draw(st.dictionaries(
            st.integers(0, 14), st.fractions(-3, 3, max_denominator=4),
            min_size=1, max_size=3))
        terms.append(IdentityTerm(Cyclotomic(15, entries), factors))
    ident = Identity("sweep", kind, terms)
    points = draw(st.lists(st.tuples(
        st.complex_numbers(max_magnitude=0.5).map(
            lambda t: complex(t.real, 0.8 + abs(t.imag))),
        st.sampled_from((0.11 + 0.07j, 0.3 + 0.2j, 0.45 + 0.05j))),
        min_size=2, max_size=50, unique=True))
    if kind is IdentityKind.CONSTANT:
        points = list(dict.fromkeys((tau, None) for tau, _ in points))
    holes = draw(st.sets(st.sampled_from(range(len(points)))))
    return ident, points, holes


@settings(max_examples=150, deadline=None)
@given(sweep_cases())
def test_a_sweep_equals_the_scalar_code(case):
    """Residuals computed in one numpy pass equal the scalar code's (==):
    the scalar ones with sweeps off, the swept ones from a cache that holds
    the identity's values at every point but the holes (rows added with
    another characteristic alone), which the scalar code answers."""
    ident, points, holes = case
    zero, at_z, _, _ = numeric._numeric_plan(ident)
    with mock.patch.object(numeric, "_BATCH_ROWS", 10 ** 9):
        numeric._POINTS.clear()
        want = [identity_residual(ident, tau, z) for tau, z in points]
    numeric._POINTS.clear()
    other, cfg = (7, 5, 1, 5), numeric._DEFAULT_CFG
    for k, (tau, z) in enumerate(points):
        if k in holes:
            numeric._POINTS.lookup((other,), (other,), complex(z or 0), tau,
                                   cfg)
        else:
            numeric._POINTS.lookup(zero, at_z, complex(z or 0), tau, cfg)
    with mock.patch.object(numeric, "_BATCH_ROWS", 2):
        got = [identity_residual(ident, tau, z) for tau, z in points]
    assert got == want
    # every row of the kind got the identity's residual, by a sweep over
    # the pending rows at the first call or by the scalar code
    kind = _sweep_kind(complex(points[0][1] or 0) if at_z else 0j)
    assert len(kind.residuals[ident._numeric_plan]) == len(kind.index)


def test_a_cache_that_starts_over_between_sweeps_keeps_the_residuals(
        monkeypatch):
    # a cache of 150 places holds one identity's values at the 4 x 5 points
    # of the function kind and the 4 at zeta = 0 (136 places), but not the
    # next identity's too: its lookups start the cache over (dropping every
    # residual column), and each identity's residuals still equal the
    # scalar code's
    taus, zetas = sample_tau(3, 4), sample_zeta(3, 5)
    sweep = [i for i in sorted(builtin_catalog(), key=lambda i: i.id)
             if i.kind is IdentityKind.FUNCTION][:6]
    points = [(tau, z) for tau in taus for z in zetas]
    starts = []

    def residuals():
        out = []
        for i in sweep:
            row = []
            for tau, z in points:
                kinds = numeric._POINTS.kinds
                row.append(identity_residual(i, tau, z))
                starts.append(numeric._POINTS.kinds is not kinds)
            out.append(row)
        return out
    numeric._POINTS.clear()
    monkeypatch.setattr(numeric, "_BATCH_ROWS", 10 ** 9)
    want = residuals()
    assert not any(starts)
    monkeypatch.setattr(numeric, "_POINTS", numeric._PointCache(150))
    monkeypatch.setattr(numeric, "_BATCH_ROWS", 4)
    sweeps, sweep_rows = [], numeric._sweep_rows
    monkeypatch.setattr(numeric, "_sweep_rows", lambda plan, values:
                        sweeps.append(len(values[0])) or sweep_rows(plan,
                                                                    values))
    assert residuals() == want
    assert sum(starts) > 1 and len(sweeps) > 1


def test_a_power_above_100_is_never_swept(monkeypatch):
    # CPython raises a complex to an int power above 100 in polar form, not
    # by the binary powering a sweep follows, so such an identity takes the
    # scalar code at every point, however many are pending
    c00, c10 = C(0, 0), C(Fraction(1, 5), 0)
    ident = Identity("power-101", IdentityKind.CONSTANT, [
        IdentityTerm(s, [ThetaFactor(c, 101)])
        for s, c in ((Cyclotomic.one(), c00), (-Cyclotomic.one(), c10))])
    taus = sample_tau(5, 30)
    numeric._POINTS.clear()
    want = [identity_residual(ident, tau) for tau in taus]
    numeric._POINTS.clear()
    zero = numeric._numeric_plan(ident)[0]
    for tau in taus:
        numeric._POINTS.lookup(zero, (), 0j, tau, numeric._DEFAULT_CFG)
    sweeps, sweep_rows = [], numeric._sweep_rows
    monkeypatch.setattr(numeric, "_sweep_rows", lambda plan, values:
                        sweeps.append(1) or sweep_rows(plan, values))
    monkeypatch.setattr(numeric, "_BATCH_ROWS", 2)
    assert [identity_residual(ident, tau) for tau in taus] == want
    assert not sweeps


def test_a_sweep_keeps_no_overflowing_row():
    # theta[0;0](zeta)^30 - theta[0;0](zeta)^30: at Im zeta = 3 its power
    # passes a double, at Im zeta = 0.1 it does not.  The sweep keeps the
    # finite rows, which equal the scalar code's, and leaves the others to
    # the scalar code, which raises at them
    c00 = C(0, 0)
    terms = [IdentityTerm(s, [ThetaFactor(c00, 30, Argument.SYMBOLIC_ZETA)])
             for s in (Cyclotomic.one(), -Cyclotomic.one())]
    ident = Identity("overflow", IdentityKind.FUNCTION, terms)
    tau = 1.1j
    points = [complex(x, y) for y in (0.1, 3.0) for x in (0.1, 0.2, 0.3)]
    numeric._POINTS.clear()
    want = [identity_residual(ident, tau, z) for z in points[:3]]
    numeric._POINTS.clear()
    zero, at_z, _, _ = numeric._numeric_plan(ident)
    for z in points:
        numeric._POINTS.lookup(zero, at_z, z, tau, numeric._DEFAULT_CFG)
    with mock.patch.object(numeric, "_BATCH_ROWS", 2):
        assert identity_residual(ident, tau, points[0]) == want[0]
        kept = _sweep_kind(points[0]).residuals[ident._numeric_plan]
        assert len(kept) == 6 and kept[:3] == want
        assert np.isnan(kept[3:]).all()
        assert [identity_residual(ident, tau, z) for z in points[:3]] == want
        for z in points[3:]:
            with pytest.raises(ValueError, match="overflow: residual at tau="
                               r"1\.1j overflows a double"):
                identity_residual(ident, tau, z)


def test_a_sum_past_a_double_raises_at_every_row(monkeypatch):
    # 1.5e308 theta[0;0] + 1.5e308 theta[0;0] at tau on the imaginary axis,
    # where theta[0;0](0) is a little above 1: each term is finite, their
    # sum is not.  The sweep keeps none of the rows, and the scalar code
    # raises at each of them
    big = Cyclotomic.from_rational(15 * 10 ** 307)
    ident = Identity("sum-overflow", IdentityKind.CONSTANT, [
        IdentityTerm(big, [ThetaFactor(C(0, 0), 1)]) for _ in range(2)])
    taus = [1.0j, 1.2j, 1.4j]
    numeric._POINTS.clear()
    zero = numeric._numeric_plan(ident)[0]
    for tau in taus:
        numeric._POINTS.lookup(zero, (), 0j, tau, numeric._DEFAULT_CFG)
    monkeypatch.setattr(numeric, "_BATCH_ROWS", 2)
    for tau in taus:
        with pytest.raises(ValueError, match="sum-overflow: residual at tau="
                           ".* overflows a double"):
            identity_residual(ident, tau)
    kept = _sweep_kind(0j).residuals[ident._numeric_plan]
    assert len(kept) == 3 and np.isnan(kept).all()


def test_an_eval_part_sweeps_every_identity_but_the_first_of_a_kind(
        monkeypatch, capsys):
    # a full-size eval part at seed 7 (120 tau, 5 zeta): the first identity
    # of each kind fills its 120 or 600 rows point by point (720 residuals
    # by the scalar code), and each of the other 79 is swept at its first
    # call, over all its rows (18,600 residuals), each then returned once
    sweeps, sweep_rows = [], numeric._sweep_rows
    monkeypatch.setattr(numeric, "_sweep_rows", lambda plan, values:
                        sweeps.append(sweep_rows(plan, values)) or sweeps[-1])
    scalar, residual = [], numeric._scalar_residual
    monkeypatch.setattr(numeric, "_scalar_residual", lambda *args:
                        scalar.append(1) or residual(*args))
    asked, call = collections.Counter(), cli.identity_residual
    monkeypatch.setattr(cli, "identity_residual", lambda ident, tau, z, cfg:
                        asked.update([(ident.id, tau, z)]) or call(
                            ident, tau, z, cfg))
    numeric._POINTS.clear()
    assert main(["--seed", "7", "--samples", "120", "eval"]) == 0
    capsys.readouterr()
    assert len(sweeps) == 79 and len(scalar) == 720
    assert sum(len(s) for s in sweeps) == 18600
    assert all(np.isfinite(s).all() for s in sweeps)
    # 19,320 distinct points asked, each answered by the scalar code or by
    # a swept value, which so is returned once
    assert len(asked) == 19320 and set(asked.values()) == {1}


def test_a_factorless_identity_keeps_no_residual():
    # terms with no theta factor look up no point, so the cache holds no row
    # to keep their residual at, however many points are asked
    numeric._POINTS.clear()
    for kind in IdentityKind:
        ident = Identity("factorless", kind, [
            IdentityTerm(Cyclotomic.from_rational(s), []) for s in (1, -2)])
        assert {identity_residual(ident, tau, zeta)
                for tau in sample_tau(1, 30) for zeta in sample_zeta(1, 2)
                } == {0.5}
    assert not any(kind.index for kind in numeric._POINTS.kinds.values())


def test_residual_raises_each_distinct_power_once():
    ident = next(i for i in builtin_catalog() if i.id == "cube-product-15-1")
    zero, at_z, powers, terms = numeric._numeric_plan(ident)
    # a factor's index is its place in the lookup's answer: zero, then at_z
    factors = [(c, False) for c in zero] + [(c, True) for c in at_z]
    assert len(powers) == len(set(powers)) == 32
    assert sum(len(slots) for _, slots in terms) == 56
    for term, (_, slots) in zip(ident.terms, terms):
        assert [(factors[i], p) for i, p in (powers[j] for j in slots)] == [
            ((f.key[:4], f.key[4]), f.power) for f in term.factors]


@pytest.mark.parametrize("fn", [theta_eval, theta_deriv_eval])
def test_array_raises_like_scalar(fn):
    def message(zeta, tau, cfg=None):
        with pytest.raises(ValueError) as e:
            fn(C(0, 0), zeta, tau, cfg)
        return str(e.value)

    zetas = np.array([0.0, 0.1 + 0.05j])
    assert message(zetas, -1j) == message(0.0, -1j)
    slow = EvalConfig(tol=1e-12, max_terms=8)
    assert message(zetas, 0.001j, slow) == message(0.0, 0.001j, slow)
    assert "8 terms" in message(zetas, 0.001j, slow)


@pytest.mark.parametrize("samples", [0, -2, 2.5])
def test_contour_residue_refuses_a_node_count_it_cannot_use(samples):
    # zero nodes would divide by zero, negative ones sum nothing, and a
    # fraction would sum one count of nodes and divide by another
    with pytest.raises(ValueError, match="samples must be an integer >= 1"):
        contour_residue(lambda z: 1.0 / z, 0.0, 0.1, samples)


def test_numeric_residue_calls_f_once_on_all_nodes():
    calls = []

    def f(z):
        calls.append(z.shape)
        return 1.0 / z

    assert abs(contour_residue(f, 0.0, 0.1, samples=64)[0] - 1.0) < 1e-14
    assert calls == [(64,)]


# -- the adaptive contour rule against the fixed 4096-node rule -----------------

@pytest.mark.parametrize("witness", [PHI_WITNESS, PSI_WITNESS])
def test_adaptive_residues_match_fixed_rule(witness):
    for k in range(6):
        tau = complex(0.37 * k - 0.9, 0.8 + 0.24 * k)  # Im 0.8 ... 2.0
        rep = residue_report(witness, tau)
        fixed = residue_report(witness, tau, samples=4096)
        scale = max(abs(v) for v in fixed.numeric)
        assert max(abs(a - b) for a, b in zip(rep.numeric, fixed.numeric)) \
            <= 1e-13 * scale, tau
        assert all(n <= 128 for n in rep.samples), (tau, rep.samples)
        assert fixed.samples == [4096] * 5
        assert fixed.changes == [None] * 5


def _counting(f):
    nodes = []

    def g(z):
        nodes.append(len(z))
        return f(z)
    return g, nodes


def test_adaptive_rule_refines_for_an_off_centre_pole():
    # a pole at 0.9 radius from the centre: the trapezoid error falls like
    # 0.9^n, so 64 nodes are far from enough
    f, nodes = _counting(lambda z: 2.0 / (z - 0.09) + np.cos(z))
    got, used, change = contour_residue(f, 0.0, 0.1)
    assert 64 < used < MAX_NODES and sum(nodes) == used
    assert nodes[:3] == [32, 32, 64]      # only the new half-step nodes
    assert change <= RESIDUE_RTOL * 21.0  # |f(w) w| < 21 on the circle
    fixed = contour_residue(f, 0.0, 0.1, samples=4096)[0]
    assert abs(got - fixed) <= 1e-13 * 2.0 and abs(got - 2.0) <= 1e-13 * 2.0


def test_adaptive_rule_reports_the_cap_when_it_cannot_converge():
    # a pole 0.9999 radius out: 0.9999^4096 is about 0.66, no node count up
    # to the cap converges, and the report says so
    f, nodes = _counting(lambda z: 1.0 / (z - 0.09999))
    got, used, change = contour_residue(f, 0.0, 0.1)
    assert used == MAX_NODES == sum(nodes)
    assert change > 1e-3
    assert got == pytest.approx(
        contour_residue(f, 0.0, 0.1, samples=4096)[0], rel=1e-12)


def reference_residues(witness, tau, cfg, samples=4096):
    """The trapezoid contour point by point on the shell sum."""
    def theta(c, z):
        return shell_sum(c, z, tau, cfg, False)[0]

    def f(z):
        den = 1.0 + 0j
        for c in witness.denominator_chars:
            den *= theta(c, z)
        return theta(C(1, 1), z) ** 5 / den

    r = witness.default_radius(tau)
    out = []
    for p in witness.pole_points(tau):
        total = 0j
        for j in range(samples):
            w = r * cmath.exp(TWO_PI_I * j / samples)
            total += f(p + w) * w
        out.append(total / samples)
    return out


@pytest.mark.parametrize("witness", [PHI_WITNESS, PSI_WITNESS])
def test_residue_report_matches_scalar_contour(witness):
    tau = 0.21 + 1.3j
    rep = residue_report(witness, tau)
    ref = reference_residues(witness, tau, EvalConfig())
    scale = max(abs(v) for v in ref)
    assert max(abs(a - b) for a, b in zip(rep.numeric, ref)) <= 1e-12 * scale

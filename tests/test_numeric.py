import cmath
import collections
import dataclasses
import functools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta5 import catalog_data
from theta5.catalog import Argument, IdentityKind, ThetaFactor
from theta5.catalog_data import builtin_catalog
from theta5.cli import main
from theta5 import numeric
from theta5.numeric import (EvalConfig, MAX_NODES, PHI_WITNESS, PSI_WITNESS,
                            RESIDUE_RTOL, TWO_PI_I, contour_residue,
                            identity_residual, numeric_residue, residue_report,
                            sample_tau, sample_zeta, theta_deriv_eval,
                            theta_eval, zero_location_check)
from theta5.theta import Characteristic
from theta5.verify import verify_exact

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


def test_max_terms_cap_raises():
    cfg = EvalConfig(tol=1e-12, max_terms=8)
    with pytest.raises(ValueError):
        theta_eval(C(0, 0), 0.0, 0.001j, cfg)  # slow decay: needs many terms


def test_identity_residual_zero_over_zero_guard():
    # theta[1;1] at zeta=0 vanishes: every term of any identity built purely
    # from it is 0, and the residual must be 0 rather than NaN
    ident = next(i for i in builtin_catalog() if i.id == "jacobi-quartic")
    assert identity_residual(ident, 0.1 + 1.0j) < 1e-12


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
    r = numeric_residue(f, 0.5, 0.05)
    assert abs(r - 3.0) < 1e-12
    with pytest.raises(ValueError):
        numeric_residue(f, 0.5, 0.0)


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


def test_scalar_calls_use_the_cache_and_arrays_bypass_it():
    c, tau, zeta = C(Fraction(1, 5), Fraction(3, 5)), 0.1 + 0.9j, 0.2 + 0.1j
    numeric._POINTS.clear()
    v = theta_eval(c, zeta, tau)
    assert type(v) is complex
    assert theta_eval(c, zeta, tau) == v
    assert (numeric._POINTS.hits, numeric._POINTS.misses) == (1, 1)
    arr = theta_eval(c, np.array([[zeta, 0.0]]), tau)
    assert arr.shape == (1, 2)
    assert abs(arr[0, 0] - v) <= 1e-15 * abs(v)
    assert (numeric._POINTS.hits, numeric._POINTS.misses) == (1, 1)


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


def test_cached_kernel_inputs_are_read_only():
    a, u = numeric._grid_inputs(((0.2, 0.6), (1.0, 0.2)), (0j, 0.1 + 0.2j))
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
                numeric._POINTS.clear()
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
    numeric._POINTS.clear()
    shapes, exp = [], np.exp
    monkeypatch.setattr(np, "exp", lambda x: shapes.append(x.shape) or exp(x))
    for z in (zeta, np.array([0.1j, zeta])):
        shapes.clear()
        with pytest.raises(ValueError, match="overflows a double"):
            evaluate(c, z, tau)
        assert len(shapes) == 1
    monkeypatch.undo()
    assert cmath.isfinite(evaluate(c, 0.1j, tau))   # the cache still works


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
    # them 29 calls for the same 207 points, so it computes no value that
    # it does not read
    calls, kernel = [], numeric._theta_sum
    monkeypatch.setattr(numeric, "_theta_sum", lambda a, u, *rest:
                        calls.append(len(u)) or kernel(a, u, *rest))
    numeric._POINTS.clear()
    assert main(["--seed", "0", "eval"]) == 0
    capsys.readouterr()
    assert (len(calls), sum(calls)) == (29, 207)
    cache = numeric._POINTS
    assert cache.misses + cache.filled == 207 and cache.filled > 0
    assert cache.hits + cache.misses == 2913


def _one_point(char, zeta, tau, cfg, deriv):
    p, q, r, s = char
    return numeric._theta_sum(p / q / 2.0, np.array([zeta]) + r / s / 2.0, tau,
                              cfg, deriv)[0]


def test_a_fill_answers_only_its_own_kind():
    # rows of four kinds hold theta[0;0]; theta[1/5;3/5] is new to the kind
    # (zeta == 0, cfg, no derivative) alone, so it is filled at that row
    # alone, and a lookup of it at each other row is a miss of its own
    cache = numeric._PointCache(1 << 10)
    a, b = (0, 1, 0, 1), (1, 5, 3, 5)
    cfg, other = EvalConfig(), EvalConfig()
    tau, z = 0.1 + 0.9j, 0.2 + 0.1j
    held = [(0j, cfg, False), (z, cfg, False), (0j, cfg, True),
            (0j, other, False)]
    for zeta, c, deriv in held:
        cache.lookup([(a, True)], zeta, tau, c, deriv)
    assert cache.lookup([(b, True)], 0j, -0.2 + 1.3j, cfg, False)[0] == \
        _one_point(b, 0j, -0.2 + 1.3j, cfg, False)
    assert cache.filled == 1
    assert cache.rows[0j, tau, cfg, False][b] == _one_point(b, 0j, tau, cfg,
                                                            False)
    for zeta, c, deriv in held[1:]:
        assert b not in cache.rows[zeta, tau, c, deriv]
        hits = cache.hits
        assert cache.lookup([(b, True)], zeta, tau, c, deriv)[0] == \
            _one_point(b, zeta, tau, c, deriv)
        assert cache.hits == hits
    assert cache.filled == 1


def test_a_fill_that_cannot_converge_leaves_the_lookup_good():
    # with 8 terms theta[1;0] converges at 3i but not at 1.3i, where
    # theta[0;0] does: its fill at the held 1.3i row fails, the lookup at
    # 3i is computed alone and answers, and only asking at 1.3i raises
    cache, cfg = numeric._PointCache(1 << 10), EvalConfig(max_terms=8)
    c00, c10 = (0, 1, 0, 1), (1, 1, 0, 1)
    cache.lookup([(c00, True)], 0j, 1.3j, cfg, False)
    assert cache.lookup([(c10, True)], 0j, 3j, cfg, False)[0] == \
        _one_point(c10, 0j, 3j, cfg, False)
    assert cache.filled == 0 and c10 not in cache.rows[0j, 1.3j, cfg, False]
    with pytest.raises(ValueError, match="within 8 terms"):
        cache.lookup([(c10, True)], 0j, 1.3j, cfg, False)


def test_a_full_cache_skips_the_fill_then_starts_over():
    # three rows held in a cache of four values: a new characteristic fits
    # alone but not with its fill at the three rows, so it is not filled;
    # the next miss does not fit and the cache starts over
    cache, cfg, c00, c15 = numeric._PointCache(4), EvalConfig(), \
        (0, 1, 0, 1), (1, 5, 3, 5)
    for tau in (1j, 1.1j, 1.2j):
        cache.lookup([(c00, True)], 0j, tau, cfg, False)
    assert cache.lookup([(c15, True)], 0j, 1.3j, cfg, False)[0] == \
        _one_point(c15, 0j, 1.3j, cfg, False)
    assert (cache.size, cache.filled) == (4, 0)
    assert cache.lookup([(c15, True)], 0j, 1j, cfg, False)[0] == \
        _one_point(c15, 0j, 1j, cfg, False)
    assert cache.size == 1 and list(cache.rows) == [(0j, 1j, cfg, False)]


def test_a_lookup_that_starts_the_cache_over_keeps_its_hits():
    # two values held in a cache of two: a lookup of one of them (at zeta =
    # 0) and of a new one (at zeta) does not fit, so the cache starts over,
    # and the value that was a hit still answers
    cache, cfg, c00, c15 = numeric._PointCache(2), EvalConfig(), \
        (0, 1, 0, 1), (1, 5, 3, 5)
    for tau in (1j, 1.1j):
        cache.lookup([(c00, False)], 0.3j, tau, cfg, False)
    assert cache.lookup([(c00, False), (c15, True)], 0.3j, 1j, cfg,
                        False) == [_one_point(c00, 0j, 1j, cfg, False),
                                   _one_point(c15, 0.3j, 1j, cfg, False)]
    assert (cache.hits, cache.misses, cache.size) == (1, 3, 1)
    assert list(cache.rows) == [(0.3j, 1j, cfg, False)]


def test_residual_raises_each_distinct_power_once():
    ident = next(i for i in builtin_catalog() if i.id == "cube-product-15-1")
    factors, powers, terms = numeric._numeric_plan(ident)
    assert len(powers) == len(set(powers)) == 32
    assert sum(len(slots) for _, slots in terms) == 56
    for term, (_, slots) in zip(ident.terms, terms):
        assert [(factors[i], p) for i, p in (powers[j] for j in slots)] == [
            ((f.key[:4], f.key[4]), f.power) for f in term.factors]


def test_scalar_cache_hit_runs_no_python_hash():
    c, tau, zeta, cfg = C(Fraction(1, 5), Fraction(3, 5)), 0.1 + 0.9j, 0.2j, EvalConfig()
    v = theta_eval(c, zeta, tau, cfg)
    called = []
    sys.setprofile(lambda frame, event, arg:
                   called.append(frame.f_code.co_name) if event == "call" else None)
    try:
        assert theta_eval(c, zeta, tau, cfg) == v
    finally:
        sys.setprofile(None)
    assert "__hash__" not in called and "_theta_sum" not in called, called


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


def test_numeric_residue_calls_f_once_on_all_nodes():
    calls = []

    def f(z):
        calls.append(z.shape)
        return 1.0 / z

    assert abs(numeric_residue(f, 0.0, 0.1, samples=64) - 1.0) < 1e-14
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
    fixed = numeric_residue(f, 0.0, 0.1, samples=4096)
    assert abs(got - fixed) <= 1e-13 * 2.0 and abs(got - 2.0) <= 1e-13 * 2.0


def test_adaptive_rule_reports_the_cap_when_it_cannot_converge():
    # a pole 0.9999 radius out: 0.9999^4096 is about 0.66, no node count up
    # to the cap converges, and the report says so
    f, nodes = _counting(lambda z: 1.0 / (z - 0.09999))
    got, used, change = contour_residue(f, 0.0, 0.1)
    assert used == MAX_NODES == sum(nodes)
    assert change > 1e-3
    assert got == pytest.approx(numeric_residue(f, 0.0, 0.1, samples=4096),
                                rel=1e-12)


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

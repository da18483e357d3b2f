import collections
import dataclasses
import functools
import hashlib
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from theta5 import catalog, catalog_data
from theta5 import series as ser
from theta5 import theta as th
from theta5 import verify as v
from theta5.catalog import (Argument, ExpectedStatus, Identity, IdentityKind,
                            IdentityTerm, ThetaFactor, corrupt_identity,
                            load_catalog, normalize_identity, save_catalog)
from theta5.catalog_data import builtin_catalog
from theta5.cyclotomic import Cyclotomic, cyclo_root, exp_pi_i
from theta5 import numeric
from theta5.numeric import sample_tau, sample_zeta, theta_eval
from theta5.resultant import shared_root_ratio, theta_quadratics
from theta5.series import (ExponentPair, Packed, PuiseuxSeries2, _key,
                           on_common_grid, pack, packed_mul, packed_sum)
from theta5.theta import Characteristic, ThetaMode, theta_series
from theta5.verify import (batch_status, discover_relations, reports_to_json,
                           verify_all, verify_exact, zeta_grid)

C = Characteristic.of


def _by_id(ident_id):
    return next(i for i in builtin_catalog() if i.id == ident_id)


def test_verify_exact_pass_and_fail():
    ident = _by_id("jacobi-quartic")
    assert verify_exact(ident, 4).passed
    bad = corrupt_identity(ident, 1)
    rep = verify_exact(bad, 4)
    assert not rep.passed
    assert rep.residuals  # nonzero coefficients reported
    # residuals are the lexicographically smallest surviving exponents
    exps = [e for e, _ in rep.residuals]
    assert exps == sorted(exps)
    assert len(rep.residuals) <= 10


def test_failure_is_monotone_in_cutoff():
    bad = corrupt_identity(_by_id("quintic-eps15"), 0)
    first_fail = None
    for cut in (Fraction(1, 4), Fraction(1), Fraction(2), Fraction(4)):
        rep = verify_exact(bad, cut)
        if first_fail is None and not rep.passed:
            first_fail = cut
        if first_fail is not None:
            assert not rep.passed  # once visible, stays visible
    assert first_fail is not None


@pytest.mark.parametrize("seed", range(6))
def test_mutants_always_detected(seed):
    for ident_id in ("fk-cubic-2", "three-theta-15-5", "ratio-35-del7"):
        bad = corrupt_identity(_by_id(ident_id), seed)
        assert not verify_exact(bad, 3).passed, (ident_id, seed)


def test_verify_all_ordering_and_batch_policy():
    cat = [i for i in builtin_catalog() if i.id.startswith("quintic")]
    reports = verify_all(cat, 4)
    assert [r.id for r in reports] == sorted(i.id for i in cat)
    # the deliberate-misprint entry fails alone without failing the batch
    by_id = {r.id: r for r in reports}
    assert not by_id["quintic-epsp35-printed"].passed
    assert by_id["quintic-epsp35-corrected"].passed
    assert batch_status(cat, reports) == "pass"


def test_deep_cutoff_verifies():
    # products here exceed 4096 operand term pairs
    assert verify_exact(_by_id("ratio7-15-1-1"), 32).passed


def _corpus_factors():
    """{(key, power): (char, mode)} over every factor of the corpus, key the
    factor's _theta_power key in the plan."""
    out = {}
    for ident in builtin_catalog():
        plan = v._plan(ident, Fraction(1))
        for term, fs in zip(ident.terms, plan.terms):
            for f, (j, power) in zip(term.factors, fs):
                mode = (ThetaMode.FUNCTION if f.argument is Argument.SYMBOLIC_ZETA
                        else ThetaMode.CONSTANT)
                out[plan.keys[j], power] = (f.char, mode)
    return out


def _same(a, b):
    assert (a.dx, a.dz, a.order) == (b.dx, b.dz, b.order)
    for name in ("ix", "iz", "k", "c"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize("cutoff", [Fraction(1, 2), Fraction(4), Fraction(8)])
def test_theta_power_matches_sequential_product(cutoff):
    # the cached power, truncated on the factor's own grid, equals the power
    # multiplied out one factor at a time on the grid refined by the cutoff
    cut = cutoff.numerator, cutoff.denominator
    for (key, power), (char, mode) in _corpus_factors().items():
        (f,), icut = on_common_grid([pack(theta_series(char, mode, cutoff).terms)[0]],
                                    cutoff)
        want = f
        for _ in range(power - 1):
            want = packed_mul(want, f, icut)
        got = v._theta_power(*key, power, *cut)
        _same(got.regrid(f.dx, f.dz, f.order), want)


def reference_sum(eps, epsp, function, cutoff, m=0, n=0, deriv=False):
    """The reference expansion: theta[eps; epsp](zeta + (n + m*tau)/2) term
    by term in Fraction and Cyclotomic arithmetic, with no use of
    theta._terms.  The term t = k + eps/2 (t^2 + m*t <= cutoff) has
    x^(t^2 + m*t), z^t (z^0 unless `function`) and exp(pi*i*t*(epsp + n)),
    times t when `deriv`; the terms of one position are summed and zero
    sums dropped mod Phi_N.  k runs over a range wide enough for every t."""
    terms = {}
    top = (math.isqrt(max(math.ceil(cutoff), 0) + m * m) + abs(m)
           + math.ceil(abs(eps)) + 2)
    for k in range(-top, top + 1):
        t = k + eps / 2
        if t * t + m * t > cutoff:
            continue
        coeff = exp_pi_i(t * (epsp + n))
        if deriv:
            coeff = coeff * t
        key = ExponentPair(t * t + m * t, t if function else Fraction(0))
        terms[key] = terms[key] + coeff if key in terms else coeff
    return {e: c for e, c in terms.items() if not c.is_zero()}


@settings(max_examples=300, deadline=None)
@given(p=st.integers(-14, 27), q=st.integers(1, 7), r=st.integers(-14, 27),
       s=st.integers(1, 7), function=st.booleans(),
       cutoff=st.fractions(Fraction(1, 10), 64, max_denominator=12)
       | st.fractions(-3, 64, max_denominator=12),   # as the shifts take
       m=st.integers(-2, 2), n=st.integers(-2, 2), deriv=st.booleans())
@example(p=1, q=1, r=1, s=1, function=False, cutoff=Fraction(8),    # empty
         m=0, n=0, deriv=False)
@example(p=0, q=1, r=0, s=1, function=False, cutoff=Fraction(16),   # +-t collide
         m=0, n=0, deriv=False)
@example(p=1, q=1, r=0, s=1, function=False, cutoff=Fraction(16),
         m=0, n=0, deriv=False)
@example(p=1, q=1, r=1, s=5, function=False, cutoff=Fraction(33, 2),
         m=0, n=0, deriv=False)
@example(p=1, q=5, r=3, s=5, function=True, cutoff=Fraction(1, 101),  # below
         m=0, n=0, deriv=False)
@example(p=-3, q=5, r=-7, s=3, function=True, cutoff=Fraction(64),
         m=0, n=0, deriv=False)
@example(p=1, q=1, r=0, s=1, function=False, cutoff=Fraction(9),  # t, -t - m
         m=1, n=0, deriv=True)                                    # sum to -m
@example(p=3, q=5, r=7, s=5, function=True, cutoff=Fraction(-1, 2),
         m=-1, n=1, deriv=False)
def test_bare_factor_matches_packed_series(p, q, r, s, function, cutoff, m,
                                           n, deriv):
    # the one expansion, built in integers, is the packed term-by-term
    # Fraction sum, field for field: keys, coefficients and their dtypes,
    # grid, zb, norm bounds and denominator; and its series prints the same
    char = Characteristic(Fraction(p, q), Fraction(r, s))
    terms = reference_sum(*char, function, cutoff, m, n, deriv)
    want, want_den = pack(terms)
    got, den = th._defining_sum(char.eps.numerator, char.eps.denominator,
                                char.epsp.numerator, char.epsp.denominator,
                                function, cutoff.numerator,
                                cutoff.denominator, m, n, deriv)
    for a, b in ((got.key, want.key), (got.c, want.c)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert got[2:] == want[2:] and den == want_den
    assert th._series(char, cutoff, function, m, n, deriv).to_text() == \
        "\n".join(f"{e.xExp} {e.zExp} {c.reduced().to_string()}"
                  for e, c in sorted(terms.items()))


def test_bare_factors_construct_no_fraction(monkeypatch):
    # a cold build of every corpus factor at cutoff 16 lists its terms in
    # integers: no Fraction, no series
    keys = {key for key, power in _corpus_factors()}
    assert len(keys) == 29
    made, new, series = [], Fraction.__new__, []

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    v._theta_power.cache_clear()
    monkeypatch.setattr(th, "_view", lambda *a: series.append(a))
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for key in keys:
        v._theta_power(*key, 1, 16, 1)
    monkeypatch.undo()
    v._theta_power.cache_clear()
    assert made == [] and series == []


@pytest.mark.parametrize("cutoff", [10 ** 10, 10 ** 23])
def test_over_range_cutoff_lists_no_term(monkeypatch, cutoff):
    # the key range is checked on the first and last terms, before the
    # others are listed (about 6 * 10^11 of them at 10^23)
    class Unlisted:
        def __init__(self, us):
            self.us = us

        def __bool__(self):
            return bool(self.us)

        def __getitem__(self, i):
            return self.us[i]

        def __iter__(self):
            raise AssertionError("terms listed")

    terms = th._terms
    monkeypatch.setattr(th, "_terms", lambda *args: Unlisted(terms(*args)))
    for ident in (_by_id("jacobi-quartic"), _by_id("ratio7-15-3-1")):
        with pytest.raises(ValueError, match=f"cutoff {cutoff} "):
            verify_exact(ident, cutoff)


def test_plan_checks_a_terms_z_bound():
    # each factor's keys fit, but a term's z bound is its factors' bounds
    # times their powers: the plan refuses it before any power is built
    zb = v._theta_power(1, 5, 0, 1, True, 1, 100, 1).zb
    power = -(-ser._ZHALF // zb)   # the least power past the z field

    def powered(power):
        one = Cyclotomic.one()
        factors = [ThetaFactor(C(Fraction(1, 5), 0), power,
                               Argument.SYMBOLIC_ZETA)]
        return Identity("powered", IdentityKind.FUNCTION, [
            IdentityTerm(one, factors), IdentityTerm(-one, factors)])

    assert v._plan(powered(power - 1), Fraction(100)).icut == 100 * 100
    with pytest.raises(ValueError, match="cutoff 100 puts exponents on the "
                                         "common grid"):
        verify_exact(powered(power), 100)


def _packed(entries, order):
    ix, iz, k, c = zip(*entries) if entries else ((),) * 4
    big = max(map(abs, c), default=0) >= 1 << 61
    l1 = sum(map(abs, c))   # equal entries may sum to it: it bounds max |c| too
    return packed_sum([Packed(_key(np.array(ix, np.int64), np.array(iz, np.int64),
                                   np.array(k, np.int64) % order),
                              np.array(c, object if big else np.int64),
                              1, 1, order, max(map(abs, iz), default=0), l1, l1)])


@settings(max_examples=80, deadline=None)
@given(order=st.sampled_from([1, 5, 20, 100]),
       entries=st.lists(st.tuples(st.integers(0, 8), st.integers(-4, 4),
                                  st.integers(0, 99),
                                  st.integers(-(1 << 40), 1 << 40)),
                        max_size=30),
       k0=st.integers(0, 99),
       c0=st.one_of(st.integers(-50, 50),
                    st.integers(1 << 20, 1 << 70)).filter(bool))
@example(order=5, entries=[(0, 0, 1, 3), (1, 2, 3, -(1 << 40))], k0=2,
         c0=1 << 30)
def test_one_entry_scalar_matches_kernel(order, entries, k0, c0):
    # mono is a monomial already truncated at the cutoff 8, the scalar
    # c0 * w^k0 one entry on its order
    mono = _packed(entries, order)
    got = v._scaled(mono, [(k0 % order, c0)])
    _same(packed_sum([got]), packed_mul(mono, _packed([(0, 0, k0, c0)], order), 8))
    if mono.c.size and int(np.abs(mono.c).max()) * abs(c0) >= 1 << 61:
        assert got.c.dtype == object


def test_corpus_pass_reuses_cached_powers(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return packed_mul(*args)

    monkeypatch.setattr(v, "packed_mul", counted)
    v._theta_power.cache_clear()
    reports = verify_all(builtin_catalog(), 8)
    info = v._theta_power.cache_info()
    v._theta_power.cache_clear()  # drop the entries built through `counted`
    assert sum(r.passed for r in reports) == 80
    assert info.hits > info.misses
    assert len(calls) <= 1300  # 3,991 when every power was multiplied out


def test_grid_keyed_powers_get_hits(monkeypatch):
    # over a cold corpus pass, the powers asked for on an identity's grid
    # repeat more often than not, and each is the power on the factor's own
    # grid, regridded
    cached, calls = v._theta_power, []

    def counted(*args):
        if len(args) > 8 and args[8] is not None:   # a grid-keyed entry
            calls.append(args)
        return cached(*args)

    cached.cache_clear()
    monkeypatch.setattr(v, "_theta_power", counted)
    reports = verify_all(builtin_catalog(), 8)
    monkeypatch.undo()
    misses = set(calls)
    assert sum(r.passed for r in reports) == 80
    assert len(calls) - len(misses) > len(misses)
    for args in misses:
        *own, grid = args
        _same(cached(*args), cached(*own).regrid(*grid))


def test_deep_factor_power_builds_bottom_up():
    # power p is power p - 1 times the factor, but no call recurses p deep
    v._theta_power.cache_clear()
    p = v._theta_power(0, 1, 0, 1, False, 2000, 1, 1)   # (1 + 2x)^2000
    assert (p.ix.tolist(), p.c.tolist()) == ([0, 1], [1, 4000])
    v._theta_power.cache_clear()
    power = [ThetaFactor(C(0, 0), 2000)]
    ident = Identity("deep", IdentityKind.CONSTANT, [
        IdentityTerm(Cyclotomic.one(), power), IdentityTerm(-Cyclotomic.one(), power)])
    assert verify_exact(ident, 1).passed
    got = verify_exact(corrupt_identity(ident, 1), 1).to_dict()["residuals"]
    assert [(r["x"], r["coeff"]) for r in got] == [("0/1", "2/1"), ("1/1", "8000/1")]


def _two_entry_scalar_identity():
    """(1 + w5) theta^2 - theta^2 - w5 theta^2 = 0, theta = theta[1; 1/5]
    of symbolic zeta: its first scalar has two entries."""
    sq = [ThetaFactor(C(1, Fraction(1, 5)), 2, Argument.SYMBOLIC_ZETA)]
    w5 = cyclo_root(1, 5)
    return Identity("two-entry", IdentityKind.FUNCTION, [
        IdentityTerm(Cyclotomic.one() + w5, sq), IdentityTerm(-Cyclotomic.one(), sq),
        IdentityTerm(-w5, sq)])


#: sha256 of the JSON reports of the sign-flip mutants (seeds 0, 1, 2) of
#: _two_entry_scalar_identity at cutoff 8, written before term scalars
#: became key adds.
TWO_ENTRY_MUTANTS_SHA256 = \
    "362c75359abf662458dbad24d2f6668a8521c9eb8b1fcd1e997501697e5bc927"


def test_multi_entry_scalar_keeps_the_kernel_path():
    # a two-entry scalar is two key adds, summed: its reports are those it
    # had when the scalar went through packed_mul
    ident = _two_entry_scalar_identity()
    assert len(ident.terms[0].scalar.coeffs) == 2
    assert verify_exact(ident, 8).passed
    reports = [verify_exact(corrupt_identity(ident, seed), 8) for seed in range(3)]
    assert not [r.id for r in reports if r.passed]
    blob = reports_to_json(reports).encode()
    assert hashlib.sha256(blob).hexdigest() == TWO_ENTRY_MUTANTS_SHA256


#: sha256 of the JSON reports at cutoff 8 of quintic-eps15, ratio7-15-1-1
#: and fk-cubic-2 and of their sign-flip mutants (seeds 0, 1), written while
#: a dense power could still be split into repeated bare factors.
POWER_PRODUCT_REPORTS_SHA256 = \
    "eefc782be8773b8b2ebf5be739ad2c43fa49572a7b4bfd4803d501d7aa101b7e"


def test_power_products_keep_their_reports():
    # each term is its largest cached power times each other one, one
    # kernel call per factor after the first
    idents = [_by_id(i) for i in ("quintic-eps15", "ratio7-15-1-1", "fk-cubic-2")]
    idents += [corrupt_identity(i, seed) for i in idents for seed in (0, 1)]
    reports = [verify_exact(i, 8) for i in idents]
    assert [r.status for r in reports] == ["pass"] * 3 + ["fail"] * 6
    blob = reports_to_json(reports).encode()
    assert hashlib.sha256(blob).hexdigest() == POWER_PRODUCT_REPORTS_SHA256


@pytest.mark.parametrize("kind", list(IdentityKind))
def test_a_term_with_no_factor_is_its_scalar(kind):
    # an empty product is 1: 1 - 2 = 0 leaves -1 at x^0 z^0, 1 - 1 = 0 passes
    def ident(c):
        return Identity("factorless", kind, [
            IdentityTerm(Cyclotomic.from_rational(s), []) for s in (1, -c)])
    for cutoff in (Fraction(1, 2), 4):
        rep = verify_exact(ident(2), cutoff)
        assert rep.status == "fail"
        assert rep.to_dict()["residuals"] == [
            {"x": "0/1", "z": "0/1", "coeff": "-1/1"}]
        assert verify_exact(ident(1), cutoff).status == "pass"


def test_report_json_shape():
    rep = verify_exact(corrupt_identity(_by_id("jacobi-quartic"), 0), 4)
    blob = json.loads(reports_to_json([rep]))
    assert blob["schema"] == 1
    entry = blob["reports"][0]
    assert entry["status"] == "fail"
    assert entry["elapsed_ms"] is None
    r0 = entry["residuals"][0]
    assert set(r0) == {"x", "z", "coeff"}
    for field in ("x", "z"):
        p, q = r0[field].split("/")
        int(p), int(q)


def test_cutoff_validation():
    with pytest.raises(ValueError):
        verify_exact(_by_id("jacobi-quartic"), 0)


def test_too_small_cutoff_is_inconclusive():
    # at cutoff 1/10 only theta[0;0] has a term, so every term with another
    # factor is 0 up to the cutoff: with every term empty nothing is
    # compared, and beside a non-empty term the latter's positions decide
    ident = _by_id("jacobi-quartic")
    F = ThetaFactor
    scalar = ident.terms[0].scalar
    bad = dataclasses.replace(ident, terms=[
        IdentityTerm(scalar, [F(C(0, 0), 2), F(C(1, Fraction(3, 5)), 2)]),
        IdentityTerm(scalar, [F(C(1, Fraction(3, 5)), 2), F(C(1, Fraction(1, 5)), 2)])])
    rep = verify_exact(bad, Fraction(1, 10))
    assert (rep.status, rep.residuals) == ("inconclusive", [])
    # the quartic's empty theta[1;0]^4 is 0 there, and the rest cancels
    assert verify_exact(ident, Fraction(1, 10)).passed
    half = Identity("half-empty", IdentityKind.CONSTANT, [
        IdentityTerm(Cyclotomic.one(), [F(C(0, 0), 2)]),
        IdentityTerm(-Cyclotomic.one(), [F(C(1, Fraction(1, 5)), 2)])])
    got = verify_exact(half, Fraction(1, 10)).to_dict()
    assert got["status"] == "fail"
    assert [(r["x"], r["z"], r["coeff"]) for r in got["residuals"]] \
        == [("0/1", "0/1", "1/1")]


def _empty_term(term, cutoff):
    """Whether a term has no entry up to the cutoff, from its factors'
    expansions: theta exponents are >= 0, so a product starts at the sum of
    its factors' least x-exponents (a product of nonzero coefficients)."""
    low = 0
    for f in term.factors:
        mode = (ThetaMode.FUNCTION if f.argument is Argument.SYMBOLIC_ZETA
                else ThetaMode.CONSTANT)
        exps = [e.xExp for e in theta_series(f.char, mode, cutoff).terms]
        if not exps:
            return True
        low += f.power * min(exps)
    return low > cutoff


@pytest.mark.parametrize("cutoff, inconclusive",
                         [(Fraction(1, 2), 35), (Fraction(1), 5)])
def test_no_pass_rests_on_empty_terms(cutoff, inconclusive):
    # a report is inconclusive exactly when every term is empty, so no
    # pass compares nothing
    statuses = []
    for ident in builtin_catalog():
        rep = verify_exact(ident, cutoff)
        empty = all(_empty_term(t, cutoff) for t in ident.terms)
        assert (rep.status == "inconclusive") == empty, ident.id
        statuses.append(rep.status)
    assert statuses.count("inconclusive") == inconclusive


def test_zeta_grid_documented_formula():
    g = zeta_grid(4)
    assert g[0] == complex((0 + 0.37) / 5, 0.21)
    assert len(g) == 4


def _quartic_monomials(eps):
    slots = [(1, 3), (3, 9), (9, 7), (7, 1)]
    return [[ThetaFactor(C(eps, Fraction(k2, 5)), 2, Argument.SYMBOLIC_ZETA),
             ThetaFactor(C(eps, Fraction(k1, 5)), 1, Argument.SYMBOLIC_ZETA)]
            for k2, k1 in slots]


def test_discover_rank_and_direction():
    import cmath
    tau = 0.21 + 1.05j
    z5 = cmath.exp(2j * cmath.pi / 5)
    c1 = theta_eval(C(1, Fraction(1, 5)), 0.0, tau)
    c3 = theta_eval(C(1, Fraction(3, 5)), 0.0, tau)
    targets = {
        Fraction(1, 5): [c3, z5 ** 2 * c1, -z5 ** 4 * c3, -z5 ** 2 * c1],
        Fraction(3, 5): None,  # direction checked for nullity only
    }
    for eps, target in targets.items():
        rel = discover_relations(_quartic_monomials(eps), tau, 9)
        assert rel.nullity == 1
        assert len(rel.singular_values) == 4
        if target is not None:
            got = np.array(rel.coefficients)
            want = np.array(target) / target[0]
            assert np.max(np.abs(got - want)) < 1e-8


def test_discover_validates_input():
    monos = _quartic_monomials(Fraction(1, 5))
    with pytest.raises(ValueError):
        discover_relations(monos, 0.2 + 1.1j, 2)  # too few samples
    with pytest.raises(ValueError):
        discover_relations(monos, 0.2 - 1.1j, 9)  # lower half-plane


def test_discover_needs_a_monomial():
    with pytest.raises(ValueError, match="need at least one monomial"):
        discover_relations([], 0.2 + 1.1j, 9)


def test_discovered_relation_holds_python_numbers():
    # a numpy float threshold still gives a Python int nullity, and the
    # relation serializes as the CLI writes it
    monos = _quartic_monomials(Fraction(1, 5))
    for threshold in (1e-8, np.float64(1e-8)):
        rel = discover_relations(monos, np.complex128(0.21 + 1.05j), 9,
                                 threshold)
        assert rel.nullity == 1 and type(rel.nullity) is int
        assert {type(c) for c in rel.coefficients} == {complex}
        assert {type(s) for s in rel.singular_values} == {float}
        assert type(rel.tau) is complex
        json.dumps({"nullity": rel.nullity, "tau": [rel.tau.real, rel.tau.imag],
                    "singular_values": rel.singular_values,
                    "coefficients": [[c.real, c.imag]
                                     for c in rel.coefficients]})


def test_relation_inputs_are_built_once_per_grid():
    # a relations sweep: after its first call, every discovery and shared
    # root finds its kernel inputs cached; the quadratics' fresh points
    # add no entry
    numeric._grid_inputs.cache_clear()
    z, w = sample_zeta(3, 2)
    for tau in sample_tau(3, 20):
        for eps in (Fraction(1, 5), Fraction(3, 5)):
            discover_relations(_quartic_monomials(eps), tau, 9)
        theta_quadratics(tau, z, w)
        shared_root_ratio(tau)
    info = numeric._grid_inputs.cache_info()
    assert (info.hits, info.misses, info.currsize) == (57, 3, 3)


def test_a_relations_sweep_builds_each_window_once(monkeypatch):
    # 200 tau of a relations sweep: each grid's window data (the tau-free
    # half of its shared window) is built at most once per (half-width,
    # center), so the entry kept for a key is never replaced; the kernel
    # sums only the quadratics and the few calls that are not certain to
    # close in a shared window
    numeric._grid_inputs.cache_clear()
    grids, grid_inputs = {}, numeric._grid_inputs
    monkeypatch.setattr(numeric, "_grid_inputs", lambda chars, zeta: (
        grids.setdefault((chars, zeta), grid_inputs(chars, zeta))))
    sums, theta_sum = [], numeric._theta_sum
    monkeypatch.setattr(numeric, "_theta_sum", lambda *args: (
        sums.append(len(args[1])) or theta_sum(*args)))
    kept = {}
    z, w = sample_zeta(5, 2)
    for tau in sample_tau(5, 200):
        for eps in (Fraction(1, 5), Fraction(3, 5)):
            discover_relations(_quartic_monomials(eps), tau, 9)
        theta_quadratics(tau, z, w)
        shared_root_ratio(tau)
        for grid, (_, _, windows) in grids.items():
            for key, terms in windows.items():
                assert kept.setdefault((grid, key), terms) is terms
    assert len(grids) == 3 and 3 <= len(kept) <= 12
    assert {grid for grid, _ in kept} == set(grids)   # every grid
    assert sums.count(10) == 200 and len(sums) - 200 < 600 // 5


def test_discover_constant_monomials_match_a_scalar_loop(monkeypatch):
    # monomials of theta constants alone, and one with no factor: no point
    # reaches the kernel's window, and the sample matrix is the scalar
    # loop's, bit for bit
    tau, z_samples = 0.13 + 0.97j, 5
    monos = [[], [ThetaFactor(C(1, Fraction(1, 5)), 2)],
             [ThetaFactor(C(Fraction(3, 5), Fraction(7, 5)), 1),
              ThetaFactor(C(1, Fraction(1, 5)), 3)]]
    want = np.ones((z_samples, len(monos)), dtype=complex)
    for i, mono in enumerate(monos):
        for f in mono:
            want[:, i] *= theta_eval(f.char, 0.0, tau) ** f.power
    seen, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda M, **kw: seen.append(
        M.copy()) or svd(M, **kw))
    rel = discover_relations(monos, tau, z_samples)
    assert len(seen) == 1 and seen[0].tobytes() == want.tobytes()
    assert rel.nullity == 2   # every column is constant


@pytest.mark.parametrize("im", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("call", [
    lambda tau: theta_eval(C(Fraction(1, 5), Fraction(1, 5)), 0.1, tau),
    lambda tau: theta_eval(C(1, 0), np.array([0.1, 0.2j]), tau),
    lambda tau: discover_relations(_quartic_monomials(Fraction(1, 5)), tau,
                                   9),
    lambda tau: shared_root_ratio(tau),
    lambda tau: theta_quadratics(tau, 0.1 + 0.05j, 0.3 + 0.1j),
    lambda tau: numeric.identity_residual(_by_id("jacobi-quartic"), tau),
    lambda tau: numeric.identity_residual(
        next(i for i in builtin_catalog()
             if i.kind is IdentityKind.FUNCTION), tau, 0.1 + 0.05j),
], ids=["theta_eval", "theta_eval_array", "discover_relations",
        "shared_root_ratio", "theta_quadratics", "identity_residual",
        "identity_residual_at_zeta"])
def test_a_tau_with_no_finite_positive_imaginary_part_is_refused(call, im):
    # an infinite Im tau made the first half-width 0, which never widens
    # (RecursionError); a NaN one could not be rounded to a half-width
    with pytest.raises(ValueError, match="tau must lie in the upper "
                                         "half-plane"):
        call(complex(0.1, im))


def test_discover_independent_monomials_have_zero_nullity():
    monos = [[ThetaFactor(C(0, 0), 3, Argument.SYMBOLIC_ZETA)],
             [ThetaFactor(C(0, 1), 3, Argument.SYMBOLIC_ZETA)],
             [ThetaFactor(C(1, 0), 3, Argument.SYMBOLIC_ZETA)]]
    rel = discover_relations(monos, 0.1 + 1.2j, 8)
    assert rel.nullity == 0
    assert rel.coefficients == []


def _mixed_monomials():
    """The eps = 1/5 quartic family with theta constants (zeta = 0) mixed
    in before, between and after its zeta factors; one constant is shared
    by two monomials and one characteristic is both a constant and a zeta
    factor."""
    def zeta(k, power):
        return ThetaFactor(C(Fraction(1, 5), Fraction(k, 5)), power,
                           Argument.SYMBOLIC_ZETA)

    def const(eps, k, power):
        return ThetaFactor(C(eps, Fraction(k, 5)), power, Argument.AT_ZERO)

    return [[const(1, 1, 2), zeta(1, 2), zeta(3, 1)],
            [zeta(3, 2), const(1, 3, 1), zeta(9, 1)],
            [zeta(9, 2), zeta(7, 1), const(1, 1, 2)],
            [const(Fraction(1, 5), 7, 1), zeta(7, 2), zeta(1, 1),
             const(1, 3, 3)]]


def test_discover_mixed_factors_match_a_scalar_loop(monkeypatch):
    # the sample matrix, bit for bit, against one from scalar theta_eval
    # calls in the same factor order: the zeta factors come from one batched
    # kernel call on float characteristics, the constants from the point
    # cache on exact ones
    tau, z_samples = 0.13 + 0.97j, 9
    monos = _mixed_monomials()
    want = np.empty((z_samples, len(monos)), dtype=complex)
    for i, mono in enumerate(monos):
        col = 1.0
        for f in mono:
            if f.argument is Argument.SYMBOLIC_ZETA:
                value = np.array([theta_eval(f.char, z, tau)
                                  for z in zeta_grid(z_samples)])
            else:
                value = theta_eval(f.char, 0.0, tau)
            col *= value ** f.power
        want[:, i] = col
    seen = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda M, **kw: seen.append(
        M.copy()) or svd(M, **kw))
    rel = discover_relations(monos, tau, z_samples)
    assert len(seen) == 1 and seen[0].tobytes() == want.tobytes()
    assert rel.nullity == 1  # each monomial scaled by a nonzero constant


def test_discovery_and_quadratics_construct_no_fraction(monkeypatch):
    # at warm caches, characteristics travel as the integers of their keys
    # and as floats: no Fraction is built on the way to the kernel
    monos = _quartic_monomials(Fraction(1, 5))
    tau, z, w = 0.2 + 1.1j, 0.1 + 0.05j, 0.3 + 0.1j
    discover_relations(monos, tau, 9)
    theta_quadratics(tau, z, w)
    made, new = [], Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    assert Fraction(1, 5) and made == [(1, 5)]  # the count sees every Fraction
    made.clear()
    discover_relations(monos, tau, 9)
    theta_quadratics(tau, z, w)
    assert made == []



@st.composite
def _discovery_matrix(draw):
    """A complex sample matrix of discovery's shape (at least as many zeta
    samples as monomials), its last columns at times combinations of the
    others, so that it is rank-deficient."""
    k = draw(st.integers(1, 5))
    rows = draw(st.integers(k, 12))
    floats = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)

    def vector(n):
        return np.array(draw(st.lists(floats, min_size=2 * n,
                                      max_size=2 * n))).view(complex)

    M = vector(rows * k).reshape(rows, k)
    free = k - draw(st.integers(0, k - 1))
    for i in range(free, k):
        M[:, i] = M[:, :free] @ vector(free)
    return M


@settings(max_examples=300, deadline=None)
@given(M=_discovery_matrix())
def test_reduced_svd_is_the_full_one(M):
    # discover_relations reads sv and vh[-1] of the reduced SVD: the full
    # one gives the same bits
    _, sv, vh = np.linalg.svd(M)
    _, rsv, rvh = np.linalg.svd(M, full_matrices=False)
    assert rsv.tobytes() == sv.tobytes() and rvh.tobytes() == vh.tobytes()

# -- orbits: derived verdicts ---------------------------------------------------

def _oracle_image(rep, m, j):
    """sigma_m T^j of rep in Cyclotomic arithmetic, normalized: the
    reference for verify._image (test_theta.py checks both laws)."""
    terms = []
    for t in rep.terms:
        scalar = Cyclotomic(t.scalar.order,
                            {k * m: q for k, q in t.scalar.coeffs.items()})
        factors = []
        for f in t.factors:
            eps, epsp = f.char
            scalar = scalar * exp_pi_i(-m * j * eps * (eps + 2) / 4) ** f.power
            factors.append(ThetaFactor(C(eps, m * (epsp + j * (eps + 1))),
                                       f.power, f.argument))
        terms.append(IdentityTerm(scalar, factors))
    return normalize_identity(Identity(rep.id, rep.kind, terms))


def _factor_set(factors):
    return tuple(sorted((f.char, f.argument.value, f.power) for f in factors))


def _oracle_holds(member, rep, m, j):
    """Whether member is sigma_m T^j of rep times one global scalar."""
    def by_factors(ident):
        return {_factor_set(t.factors): t.scalar for t in ident.terms}
    own, image = by_factors(member), by_factors(_oracle_image(rep, m, j))
    if own.keys() != image.keys():
        return False
    f0 = next(iter(own))
    return all(own[f] * image[f0] == own[f0] * image[f] for f in own)


def _members():
    return [i for i in builtin_catalog() if i.derived_from is not None]


def test_corpus_claims_hold():
    # 60 members in 21 orbits; each claim checks, by the integer check and
    # by the Cyclotomic oracle, and so does no claim with the next j
    members = _members()
    assert len(members) == 60
    assert len({i.derived_from[0].id for i in members}) == 14   # + 7 alone
    for ident in members:
        rep, m, j = ident.derived_from
        assert v._claimed(ident) is not None, ident.id
        assert _oracle_holds(ident, rep, m, j), ident.id
        wrong = dataclasses.replace(ident, derived_from=(rep, m, (j + 1) % 5))
        assert v._claimed(wrong) is None, ident.id
        assert not _oracle_holds(ident, rep, m, (j + 1) % 5), ident.id


@pytest.mark.parametrize("cutoff", [4, 8, 16])
def test_derived_verdicts_match_direct(cutoff):
    for ident in _members():
        got = verify_exact(ident, cutoff)
        assert got.derived_from == dict(zip(("id", "m", "j"), (
            ident.derived_from[0].id, *ident.derived_from[1:])))
        direct = verify_exact(dataclasses.replace(ident, derived_from=None),
                              cutoff)
        assert direct.derived_from is None
        assert got.to_dict() == direct.to_dict(), ident.id


def test_corpus_pass_derives_sixty_reports():
    reports = verify_all(builtin_catalog(), 8)
    derived = [r for r in reports if r.derived_from is not None]
    assert len(derived) == 60 and all(r.passed for r in derived)
    assert not any(r.derived_from for r in reports if not r.passed)


def test_each_claim_is_checked_once(monkeypatch):
    # a fresh corpus at cutoffs 8, 16 and 8 in one process: each of the 60
    # claims maps its representative's form once (_orbit), not per call
    monkeypatch.setattr(catalog_data, "_catalog", functools.lru_cache(
        maxsize=1)(catalog_data._catalog.__wrapped__))
    calls, orbit = [], v._orbit
    monkeypatch.setattr(v, "_orbit", lambda *args: calls.append(args[2:])
                        or orbit(*args))
    corpus = builtin_catalog()
    reports = [verify_all(corpus, cutoff) for cutoff in (8, 16, 8)]
    assert len(calls) == 60
    assert [r.to_dict() for r in reports[0]] == [r.to_dict()
                                                 for r in reports[2]]
    assert sum(r.derived_from is not None for r in reports[1]) == 60


def test_wrong_claims_are_computed_directly():
    ident = _by_id("ratio7-15-3-1")
    rep, m, j = ident.derived_from
    want = verify_exact(dataclasses.replace(ident, derived_from=None), 8)
    # m = 5 is no unit mod 5; (1, 3) differs from the claim (7, 3)
    assert not _oracle_holds(ident, rep, 1, j)
    for claim in ((rep, 5, j), (rep, 1, j)):
        probe = dataclasses.replace(ident, derived_from=claim)
        assert v._claimed(probe) is None
        got = verify_exact(probe, 8)
        assert got.derived_from is None and got.to_dict() == want.to_dict()
    # a mutant keeps no claim, and fails
    assert not verify_exact(corrupt_identity(ident, 0), 8).passed


def _orbit(rep_id):
    """The representative and then its members, in id order."""
    return sorted((i for i in builtin_catalog() if i.id == rep_id
                   or i.derived_from and i.derived_from[0].id == rep_id),
                  key=lambda i: i.id)


def _with_term(ident, i, **changes):
    """A copy of ident with the fields of term i changed."""
    terms = list(ident.terms)
    terms[i] = dataclasses.replace(terms[i], **changes)
    return dataclasses.replace(ident, terms=terms)


def _claiming(members, rep):
    """Copies of the members whose claims point at rep, with m and j kept."""
    return [dataclasses.replace(i, derived_from=(rep, *i.derived_from[1:]))
            for i in members]


def test_edited_representative_is_not_credited():
    # a representative's pass is remembered by content.  With one term
    # negated in a copy of it (same id), no claim on the copy checks and the
    # members pass directly; with the image term negated in each member too,
    # every claim checks, but the old pass is not reused: all five fail
    rep, *members = _orbit("ratio-15-del1")
    assert verify_exact(rep, 8).passed
    assert all(verify_exact(i, 8).derived_from for i in members)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.terms[0].scalar = -rep.terms[0].scalar
    rep = _with_term(rep, 0, scalar=-rep.terms[0].scalar)
    members = _claiming(members, rep)
    assert not any(v._claimed(i) for i in members)
    reports = verify_all([rep, *members], 8)
    assert [r.status for r in reports] == ["fail"] + ["pass"] * 4
    assert not any(r.derived_from for r in reports)
    for n, ident in enumerate(members):
        _, m, j = ident.derived_from
        image = _factor_set(_oracle_image(rep, m, j).terms[0].factors)
        k = next(k for k, t in enumerate(ident.terms)
                 if _factor_set(t.factors) == image)
        members[n] = _with_term(ident, k, scalar=-ident.terms[k].scalar)
    assert all(v._claimed(i) for i in members)
    reports = verify_all([rep, *members], 8)
    assert [r.status for r in reports] == ["fail"] * 5
    assert not any(r.derived_from for r in reports)


def test_edited_representative_factor_is_seen():
    # the claim data is built once per representative; a factor list cannot
    # be edited in place, and a copy of the representative with
    # theta[1/5; 3/5]^2 -> theta[1/5; 1/5]^2 in the first term makes every
    # member's claim on it fail, and the members are verified directly
    rep, *members = _orbit("ratio-15-del1")
    assert all(v._claimed(i) for i in members)
    factors = rep.terms[0].factors
    assert factors[0].char == C(Fraction(1, 5), Fraction(3, 5))
    edited = dataclasses.replace(factors[0], char=C(Fraction(1, 5),
                                                    Fraction(1, 5)))
    with pytest.raises(TypeError):
        factors[0] = edited
    rep = _with_term(rep, 0, factors=(edited, *factors[1:]))
    members = _claiming(members, rep)
    assert not any(v._claimed(i) for i in members)
    reports = verify_all([rep, *members], 8)
    assert [r.status for r in reports] == ["fail"] + ["pass"] * 4
    assert not any(r.derived_from for r in reports)


def test_claim_needs_a_unit_m():
    # zeta -> zeta^2 is no automorphism at level 5: the formal image of
    # quintic-eps15 under it is no identity, so its claim must not check
    rep = _by_id("quintic-eps15")
    probe = dataclasses.replace(_oracle_image(rep, 2, 0), id="sigma2",
                                derived_from=(rep, 2, 0))
    assert _oracle_holds(probe, rep, 2, 0)
    assert v._claimed(probe) is None
    assert verify_exact(probe, 4).status == "fail"


def test_claim_needs_distinct_factor_lists():
    # theta^4 - theta^4 passes, but matched one factor list to one term,
    # theta^4 - 2 theta^4 would look like a multiple of it
    power = [ThetaFactor(C(0, 0), 4)]
    one = Cyclotomic.one()
    rep = Identity("twice", IdentityKind.CONSTANT, [
        IdentityTerm(one, power), IdentityTerm(-one, power)])
    probe = Identity("unequal", IdentityKind.CONSTANT, [
        IdentityTerm(one, power), IdentityTerm(-2 * one, power)],
        derived_from=(rep, 1, 0))
    assert verify_exact(rep, 4).passed
    assert v._claimed(probe) is None
    assert verify_exact(probe, 4).status == "fail"



def test_claim_with_one_scalar_negated_is_computed_directly():
    # one term off by -1 breaks the one global ratio: the claim is
    # rejected and the member, now false, fails on its own expansion
    ident = _by_id("cube-product-15-3")
    probe = _with_term(ident, 2, scalar=-ident.terms[2].scalar)
    assert probe.derived_from == ident.derived_from
    assert v._claimed(probe) is None
    got = verify_exact(probe, 8)
    assert got.status == "fail" and got.derived_from is None
    assert got.to_dict() == verify_exact(dataclasses.replace(
        probe, derived_from=None), 8).to_dict()


def test_claim_up_to_a_negative_rational_holds():
    # every scalar times -3/7 is still the image times one global scalar:
    # the ratios' signs and denominators meet in the cross-multiplication
    ident = _by_id("ratio7-15-3-1")
    scaled = [IdentityTerm(t.scalar * Cyclotomic.from_rational(
        Fraction(-3, 7)), list(t.factors)) for t in ident.terms]
    probe = dataclasses.replace(ident, terms=scaled)
    assert v._claimed(probe) is not None
    assert _oracle_holds(probe, *probe.derived_from)
    got = verify_exact(probe, 8)
    assert got.passed and got.derived_from["id"] == ident.derived_from[0].id
    # with one term's factor -3/7 and the others' 3/7, it does not hold
    probe = _with_term(probe, 0, scalar=-scaled[0].scalar)
    assert v._claimed(probe) is None
    assert not _oracle_holds(probe, *probe.derived_from)


def test_claims_are_not_chained():
    # in a chain a -> b -> c the claim on b, which claims an orbit itself,
    # does not check: a is verified directly, b is derived from c
    c = dataclasses.replace(_by_id("jacobi-quartic"), id="c")
    b = dataclasses.replace(c, id="b", derived_from=(c, 1, 0))
    a = dataclasses.replace(c, id="a", derived_from=(b, 1, 0))
    assert v._claimed(a) is None and v._claimed(b) is not None
    reports = verify_all([c, b, a], 4)
    assert [(r.status, r.derived_from) for r in reports] == [
        ("pass", None), ("pass", {"id": "c", "m": 1, "j": 0}), ("pass", None)]


def _direct_image(ident, den, m=1, j=0):
    """sigma_m T^j of an identity mapped factor by factor from its factor
    index, in v._image's form: the reference for v._image and v._orbit."""
    units = []
    for t in ident.terms:
        if len(t.scalar.coeffs) != 1:
            return None
        (k, c), = t.scalar.coeffs.items()
        units.append((k, c.numerator, c.denominator, t.scalar.order))
    keys, terms = ident._factor_index
    images, phases = [], []
    for p, q, r, s, at_zeta in keys:
        n, num = divmod(m * (r * q + j * (p + q) * s), 2 * q * s)
        g = math.gcd(num, q * s)
        images.append((p, q, num // g, q * s // g, at_zeta))
        phases.append((4 * q * n - m * j * (p + 2 * q)) * p
                      * (den // (4 * q * q)))
    factors = tuple(sorted(set(images)))
    index = {f: i for i, f in enumerate(factors)}
    place = [index[f] for f in images]
    out = {}
    for fs, (k, c, d, order) in zip(terms, units):
        a, powers = 2 * k * m * (den // order), [0] * len(factors)
        for i, power in fs:
            powers[place[i]] += power
            a += power * phases[i]
        a %= 2 * den
        out[tuple(powers)] = (c if a < den else -c, d, a % den)
    return (factors, out) if len(out) == len(terms) else None


def test_orbit_is_the_direct_image():
    # sigma_m T^j of a representative's form, its factors sorted, is the
    # image mapped factor by factor from the representative's own terms,
    # on the form's den and on a multiple of it; and every identity's own
    # image is the direct one
    checked = 0
    for ident in builtin_catalog():
        den = 2 * _phase_den(ident)
        assert v._image(ident, den) == _direct_image(ident, den), ident.id
        if ident.derived_from is not None:
            continue
        unit, form = ident._cached("_claim", v._claim_data)
        for m, j, k in itertools.product(range(1, 30), range(5), (1, 7)):
            if form is None or math.gcd(m, unit) != 1:
                continue
            factors, terms = v._orbit(form, form[0] * k, m, j)
            order = sorted(range(len(factors)), key=factors.__getitem__)
            got = (tuple(factors[i] for i in order),
                   {tuple(p[i] for i in order): value
                    for p, value in terms.items()})
            assert got == _direct_image(ident, form[0] * k, m, j), ident.id
            checked += 1
    assert checked > 1000
    # a form with no factor maps too
    one = Identity("one", IdentityKind.CONSTANT,
                   [IdentityTerm(Cyclotomic.one(), [])])
    assert v._claimed(dataclasses.replace(one, derived_from=(one, 7, 3)))


def _phase_den(ident):
    """The least den that _image takes for the identity."""
    return math.lcm(*(4 * q * q for _, q, _, _, _ in ident._factor_index[0]),
                    *(t.scalar.order for t in ident.terms))


def _two_image_claimed(ident):
    """The claim check that compares the member's own image with the
    representative's, dict against dict: the reference for v._claimed."""
    rep, m, j = ident.derived_from
    if rep.derived_from is not None:
        return None
    unit, form = rep._cached("_claim", v._claim_data)
    if form is None or math.gcd(m, unit) != 1:
        return None
    den = math.lcm(form[0], _phase_den(ident))
    image, own = _direct_image(rep, den, m, j), _direct_image(ident, den)
    if (image is None or own is None or image[0] != own[0]
            or image[1].keys() != own[1].keys()):
        return None
    image, first = image[1], None
    for f, (c0, d0, a0) in own[1].items():
        c1, d1, a1 = image[f]
        num, d, a = c0 * d1, d0 * c1, a0 - a1
        if a < 0:
            num, a = -num, a + den
        if first is None:
            first = num, d, a
        elif a != first[2] or num * first[1] != first[0] * d:
            return None
    return form


@st.composite
def _perturbed_claim(draw):
    """A corpus member with its claim, or a copy with one perturbation: m
    or j shifted; one term's scalar negated, doubled or times zeta_5, or
    every term's times one scalar; a term dropped or given another term's
    factors; a factor replaced by another character, or moved by an even
    shift (its phase folded into the scalar, or not); another
    representative."""
    ident = draw(st.sampled_from(_members()))
    rep, m, j = ident.derived_from
    terms, n = list(ident.terms), len(ident.terms)
    i = draw(st.integers(0, n - 1))
    how = draw(st.sampled_from(["none", "m", "j", "scale", "global", "drop",
                                "swap", "foreign", "shift", "rep"]))
    if how == "m":
        m = draw(st.integers(1, 40).filter(lambda x: x != m))
    elif how == "j":
        j = draw(st.integers(0, 9).filter(lambda x: x != j))
    elif how in ("scale", "global"):
        by = draw(st.sampled_from([-Cyclotomic.one(), 2 * Cyclotomic.one(),
                                   cyclo_root(1, 5), Cyclotomic.from_rational(
                                       Fraction(-3, 7))]))
        for k in range(n) if how == "global" else [i]:
            terms[k] = IdentityTerm(terms[k].scalar * by, terms[k].factors)
    elif how == "drop" and n > 1:
        del terms[i]
    elif how == "swap":
        other = terms[draw(st.integers(0, n - 1))]
        terms[i] = IdentityTerm(terms[i].scalar, other.factors)
    elif how in ("foreign", "shift"):
        factors = list(terms[i].factors)
        f = draw(st.integers(0, len(factors) - 1))
        eps, epsp = factors[f].char
        scalar = terms[i].scalar
        if how == "foreign":
            eps, epsp = draw(st.sampled_from(_LANE_CHARS[0] + _LANE_CHARS[1]))
        else:
            de, dp = draw(st.sampled_from([(0, 2), (0, -2), (0, 4), (2, 0),
                                           (-2, 2)]))
            if de == 0 and draw(st.booleans()):
                # theta[e; e' + 2n] = e^(pi i e n) theta[e; e']
                scalar = scalar * exp_pi_i(-eps * dp / 2) ** factors[f].power
            eps, epsp = eps + de, epsp + dp
        factors[f] = dataclasses.replace(factors[f], char=C(eps, epsp))
        terms[i] = IdentityTerm(scalar, factors)
    elif how == "rep":
        rep = draw(st.sampled_from([r for r in builtin_catalog()
                                    if r.derived_from is None and r is not rep]))
    return dataclasses.replace(ident, terms=terms, derived_from=(rep, m, j))


@settings(max_examples=400, deadline=None)
@given(probe=_perturbed_claim())
def test_one_walk_claim_matches_the_two_image_check(probe):
    # the one walk of the member's terms against the representative's image
    # accepts exactly the claims that comparing two images accepts, and
    # each claim it accepts holds in Cyclotomic arithmetic
    got = v._claimed(probe)
    assert got == _two_image_claimed(probe)
    if got is not None:
        assert _oracle_holds(normalize_identity(probe), *probe.derived_from)


def test_factor_index_is_built_once_per_identity(monkeypatch):
    # over a fresh corpus (derived data of its own), verified at two
    # cutoffs: the plans and the claim data share one index per identity
    # verified directly, the 21 that claim no orbit; the 60 members' claims
    # build none (verify's own name, which discovery calls, is not wrapped)
    cat = catalog_data._catalog.__wrapped__()
    calls, index = [], catalog._index_factors
    monkeypatch.setattr(catalog, "_index_factors",
                        lambda lists: calls.append(1) or index(lists))
    for cutoff in (8, 16):
        assert sum(r.passed for r in verify_all(cat, cutoff)) == 80
        assert len(calls) == sum(i.derived_from is None for i in cat) == 21


def test_saved_catalog_carries_no_claims(tmp_path):
    path = tmp_path / "corpus.json"
    save_catalog(builtin_catalog(), path)
    loaded = load_catalog(path)
    assert all(i.derived_from is None for i in loaded)
    reports = verify_all(loaded, 8)
    assert not any(r.derived_from for r in reports)
    assert reports_to_json(reports) == reports_to_json(
        verify_all(builtin_catalog(), 8))


def test_lone_factor_residuals_build_no_series(monkeypatch):
    # the residual orders of a lone factor are read off its packed defining
    # sum: with every series constructor raising, a cold report is the same
    lone = Identity("lone", IdentityKind.FUNCTION, [
        IdentityTerm(Cyclotomic.one(),
                     [ThetaFactor(C(1, Fraction(1, 5)), 1, Argument.SYMBOLIC_ZETA)]),
        IdentityTerm(-Cyclotomic.one(),
                     [ThetaFactor(C(0, 0), 1, Argument.SYMBOLIC_ZETA)])])
    want = verify_exact(lone, 7).to_dict()
    assert len(want["residuals"]) == 10

    def refuse(*args, **kwargs):
        raise AssertionError("a series was built")

    v._theta_power.cache_clear()
    monkeypatch.setattr(th, "theta_series", refuse)
    monkeypatch.setattr(th, "_view", refuse)
    monkeypatch.setattr(ser, "_view", refuse)
    monkeypatch.setattr(PuiseuxSeries2, "__init__", refuse)
    assert verify_exact(lone, 7).to_dict() == want
    v._theta_power.cache_clear()


# -- the dense unit-class lane ---------------------------------------------------

def _lane_passes(plan):
    """Whether the lane finds the plan's identity to pass: no nonzero
    position, where None leaves the verdict to the sparse path."""
    return v._lane(plan) == []


def _lane_and_sparse(ident, cutoff):
    """The lane's verdict and the sparse path's status on one plan."""
    plan = v._plan(ident, Fraction(cutoff))
    return _lane_passes(plan), v._sparse(plan)[0]


def _constant_entries():
    """Every constant-kind corpus entry, computed directly (no claim), and
    its sign-flip mutants for seeds 0-2."""
    direct = [dataclasses.replace(i, derived_from=None) for i in builtin_catalog()
              if i.kind is IdentityKind.CONSTANT]
    return direct + [corrupt_identity(i, seed) for i in direct for seed in range(3)]


@pytest.mark.parametrize("cutoff", [Fraction(1, 10), Fraction(1, 2), 1,
                                    Fraction(3, 2), 2, Fraction(7, 3), 4, 8, 16])
def test_lane_agrees_with_sparse(cutoff):
    # the lane says pass exactly when the sparse path does
    entries = _constant_entries()
    assert len(entries) == 244
    for ident in entries:
        lane, status = _lane_and_sparse(ident, cutoff)
        assert lane == (status == "pass"), (ident.id, cutoff, status)


def test_lane_leaves_empty_terms_inconclusive():
    # every term of cube-product-35-1 starts at x^(117/100): at cutoff 1 each
    # class cancels because nothing is there, which is no pass
    ident = _by_id("cube-product-35-1")
    assert _lane_and_sparse(ident, 1) == (False, "inconclusive")
    assert verify_exact(ident, 1).status == "inconclusive"
    assert verify_exact(ident, Fraction(117, 100)).passed
    # with theta[0; 0] and theta[1/5; 1/5] on the grid the x-step is 1/5,
    # and theta[1; 1/5] has offset 1/20 but starts at x^(1/4): at cutoff 1
    # its fifth power has slots, and nothing in them (theta[1; 1] is 0)
    F = ThetaFactor
    fifth = [F(C(1, Fraction(1, 5)), 5)]
    probe = Identity("empty-slots", IdentityKind.CONSTANT, [
        IdentityTerm(Cyclotomic.one(), fifth), IdentityTerm(-Cyclotomic.one(), fifth),
        IdentityTerm(Cyclotomic.one(), [F(C(0, 0), 2), F(C(1, 1)), F(C(
            Fraction(1, 5), Fraction(1, 5)), 2)])])
    assert _lane_and_sparse(probe, 1) == (False, "inconclusive")
    # the live terms' offset sums are 95/100 on an x-step of 1/5, so the
    # lane keeps one slot, below theta[1; 1/5]'s least entry (x^(1/4)):
    # that factor has no entry in it
    heavy = [F(C(1, Fraction(1, 5))), F(C(Fraction(3, 5), Fraction(1, 5)), 10)]
    probe = Identity("no-entry-in-slots", IdentityKind.CONSTANT, [
        IdentityTerm(Cyclotomic.one(), heavy), IdentityTerm(-Cyclotomic.one(), heavy),
        IdentityTerm(Cyclotomic.one(), [F(C(0, 0), 10), F(C(1, 1))])])
    assert _lane_and_sparse(probe, 1) == (False, "inconclusive")


def test_lane_cancels_in_the_power_basis():
    # sum_b zeta_5^b theta[0; 2/5] theta[0; 0] = 0 cancels only through
    # 1 + zeta_5 + ... + zeta_5^4 = 0, in the power basis of Z[zeta_10]: the
    # terms' coefficients (zeta_5^(b + n)) wrap past zeta_10^5 = -1
    F = ThetaFactor
    pair = [F(C(0, Fraction(2, 5))), F(C(0, 0))]
    ident = Identity("roots-of-unity", IdentityKind.CONSTANT, [
        IdentityTerm(cyclo_root(b, 5), pair) for b in range(5)])
    for cutoff in (1, 4, 9):
        assert _lane_and_sparse(ident, cutoff) == (True, "pass")
        assert _lane_and_sparse(corrupt_identity(ident, 2), cutoff)[0] is False


def test_lane_keeps_unit_classes_apart():
    # theta[1/5; 1/5] - theta[1/5; 3/5] is (w^1 - w^3) x^(1/100) + ..., w =
    # zeta_100: classes 1 and 3, each w^c times 1 at x^(1/100), which cancel
    # only if the classes are merged
    F = ThetaFactor
    probe = Identity("classes", IdentityKind.CONSTANT, [
        IdentityTerm(sign * Cyclotomic.one(),
                     [F(C(Fraction(1, 5), Fraction(k, 5)))])
        for sign, k in ((1, 1), (-1, 3))])
    for cutoff in (Fraction(1, 10), 2):
        assert _lane_and_sparse(probe, cutoff) == (False, "fail")


#: Theta constants for the random identities, one family per identity (a
#: fifth and a third together pass MAX_ORDER): fifths or thirds, each with
#: eps in {0, 1}, theta[1; 1] (identically 0, an empty factor) included.
_LANE_CHARS = [[C(Fraction(e, d), Fraction(k, d)) for e in eps
                for k in range(2 * d)]
               + [C(e, Fraction(k, n)) for e in (0, 1) for n in (1, d)
                  for k in range(2 * n)] for d, eps in ((5, (1, 3)), (3, (1, 2)))]


def _random_term(draw, chars, degree):
    """A scalar c zeta_n^k (c != 0) times theta constants of total degree
    `degree`, a factor possibly repeated in the list."""
    factors, left = [], degree
    while left:
        power = draw(st.integers(1, left))
        factors.append(ThetaFactor(draw(st.sampled_from(chars)), power))
        left -= power
    scalar = cyclo_root(draw(st.integers(0, 29)), draw(st.sampled_from(
        [1, 2, 3, 4, 5, 6, 10, 15]))) * draw(st.integers(-5, 5).filter(bool))
    return IdentityTerm(scalar, factors)


@st.composite
def _random_identity(draw):
    """Random terms in one family, some of them planted back negated (the
    factor list reversed), so that it holds when all of them are; or, one
    time in four, Jacobi's quartic times a random term, which holds."""
    chars, degree = draw(st.sampled_from(_LANE_CHARS)), draw(st.integers(1, 4))
    if not draw(st.integers(0, 3)):
        extra = _random_term(draw, chars, degree)
        return Identity("random", IdentityKind.CONSTANT, [
            IdentityTerm(extra.scalar * t.scalar, t.factors + extra.factors)
            for t in _by_id("jacobi-quartic").terms])
    terms = [_random_term(draw, chars, degree)
             for _ in range(draw(st.integers(1, 4)))]
    plant = draw(st.lists(st.sampled_from(range(len(terms))), unique=True))
    terms += [IdentityTerm(-terms[i].scalar, terms[i].factors[::-1]) for i in plant]
    return Identity("random", IdentityKind.CONSTANT, terms)


@settings(max_examples=150, deadline=None)
@given(ident=_random_identity(), cutoff=st.sampled_from(
    [Fraction(1, 10), Fraction(1, 2), 1, Fraction(5, 3), 3, 6]))
def test_lane_agrees_with_sparse_on_random_identities(ident, cutoff):
    lane, status = _lane_and_sparse(ident, cutoff)
    assert lane == (status == "pass"), status


def test_lane_passes_without_the_kernel(monkeypatch):
    # with the sparse kernel refusing, the representatives pass in the lane
    # and a member of each passes through its claim
    def refuse(*args):
        raise AssertionError("the sparse kernel ran")

    cat = builtin_catalog()
    monkeypatch.setattr(v, "packed_mul", refuse)
    monkeypatch.setattr(v, "_PASSES", set())
    for rep_id in ("cube-product-15-1", "mixed-product-del1"):
        rep = next(i for i in cat if i.id == rep_id)
        member = next(i for i in cat if i.derived_from and i.derived_from[0] is rep)
        got = verify_exact(member, 16)
        assert got.passed and got.derived_from["id"] == rep_id
        assert verify_exact(rep, 16).passed


@pytest.mark.parametrize("limit, value", [("_INT64_SAFE", 2),
                                          ("_LANE_ENTRIES", 0)])
def test_lane_limits_route_to_sparse(monkeypatch, limit, value):
    # past its bound or budget the lane gives up, and the sparse path
    # writes the same reports
    idents = [_by_id(i) for i in ("jacobi-quartic", "ratio7-15-1-1",
                                  "cube-product-15-1")]
    idents += [corrupt_identity(idents[1], 0)]
    want = reports_to_json([verify_exact(i, 8) for i in idents])
    sparse, calls = v._sparse, []
    monkeypatch.setattr(v, "_sparse", lambda plan: calls.append(1) or sparse(plan))
    monkeypatch.setattr(v, limit, value)
    assert reports_to_json([verify_exact(i, 8) for i in idents]) == want
    assert len(calls) == len(idents)


def test_lane_measures_loose_bounds(monkeypatch):
    # the carried bounds of cube-product-15-1 pass 2^40 by cutoff 16; its
    # coefficients do not, so measuring keeps it in the lane
    norms, measured = v._norms, []
    monkeypatch.setattr(v, "_norms", lambda c: measured.append(1) or norms(c))
    monkeypatch.setattr(v, "_INT64_SAFE", 1 << 40)
    assert _lane_passes(v._plan(_by_id("cube-product-15-1"), Fraction(16)))
    assert measured


def _lane_answer(plan):
    """(the lane's answer, the uncut sparse path's), each as (status, the
    reported x-exponents); where the lane gives up, both are the latter."""
    found = v._lane(plan)
    status, residuals = v._sparse(plan)
    sparse = status, [e.xExp for e, _ in residuals]
    if found is None:
        return sparse, sparse
    return ("fail" if found else "pass",
            [Fraction(ix, plan.grid[0]) for ix in found]), sparse


@st.composite
def _large_fifths_identity(draw):
    """Random terms in the fifths family with scalars up to about 2^58, some
    of them planted back negated, as in _random_identity."""
    chars, degree = _LANE_CHARS[0], draw(st.integers(1, 4))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        term = _random_term(draw, chars, degree)
        bits = draw(st.sampled_from([0, 24, 44, 50, 53, 55]))
        scale = draw(st.integers(1 << bits, (2 << bits) - 1))
        terms.append(IdentityTerm(term.scalar * scale, term.factors))
    plant = draw(st.lists(st.sampled_from(range(len(terms))), unique=True))
    terms += [IdentityTerm(-terms[i].scalar, terms[i].factors[::-1]) for i in plant]
    return Identity("large", IdentityKind.CONSTANT, terms)


@settings(max_examples=100, deadline=None)
@given(ident=_large_fifths_identity(), cutoff=st.integers(1, 16))
def test_lane_answers_as_sparse_with_large_scalars(ident, cutoff):
    # whether the one-time int64 proof holds, the per-step bounds do, or the
    # lane gives up, any answer it gives is the uncut sparse path's
    lane, sparse = _lane_answer(v._plan(ident, Fraction(cutoff)))
    assert lane == sparse


class _Limit(int):
    """An _INT64_SAFE that records each bound the lane compares below it
    (x < limit reaches this subclass's reflected __gt__ first): the first
    is the one-time proof, any later one a per-step bound."""

    def __new__(cls, value):
        limit = super().__new__(cls, value)
        limit.bounds = []
        return limit

    def __gt__(self, other):
        self.bounds.append(other)
        return int(self) > other


def _scaled(ident, power):
    """ident with every scalar times 2^power."""
    return Identity(f"{ident.id}*2^{power}", ident.kind, [
        IdentityTerm(t.scalar * (1 << power), t.factors) for t in ident.terms])


@pytest.mark.parametrize("power, cutoff, proven, answers", [
    (0, 8, True, True), (40, 16, True, True),
    # past the proof at 2^62 and 2^65, within the carried bounds
    (50, 8, False, True), (50, 16, False, True),
    # past the carried and measured bounds, and a scalar past int64
    (54, 8, False, False), (62, 16, False, False)])
def test_lane_proves_int64_safety_once_or_per_step(monkeypatch, power, cutoff,
                                                   proven, answers):
    # jacobi-quartic's scalars times 2^power: the lane checks one bound when
    # the proof holds, else per step; where it answers, it is the sparse
    # path's answer, also for a mutant; where it gives up, verify_exact
    # still passes
    limit = _Limit(v._INT64_SAFE)
    monkeypatch.setattr(v, "_INT64_SAFE", limit)
    for ident in (_scaled(_by_id("jacobi-quartic"), power),
                  _scaled(corrupt_identity(_by_id("jacobi-quartic"), 1), power)):
        plan = v._plan(ident, Fraction(cutoff))
        limit.bounds.clear()
        assert (v._lane(plan) is not None) == answers
        if power < 62:
            assert (limit.bounds[0] < int(limit)) == proven
            assert (len(limit.bounds) == 1) == proven, limit.bounds
        lane, sparse = _lane_answer(plan)
        assert lane == sparse and sparse[0] == ("fail" if "~" in ident.id
                                                else "pass")
    assert verify_exact(_scaled(_by_id("jacobi-quartic"), power), cutoff).passed


def test_lane_factor_data_is_built_once_per_factor(monkeypatch):
    # over one cold corpus sweep, each bare factor's lane data and its
    # folded forms are looked up more often than they are built
    v._lane_entries.cache_clear()
    v._lane_factor.cache_clear()
    monkeypatch.setattr(v, "_PASSES", set())
    assert sum(r.passed for r in verify_all(builtin_catalog(), 8)) == 80
    for cache in (v._lane_entries, v._lane_factor):
        info = cache.cache_info()
        assert info.hits > info.misses, (cache, info)


@pytest.mark.parametrize("ident_id", ["cube-product-15-1", "quintic-eps35",
                                      "mixed-product-del5"])
def test_lane_mutants_fail_with_sparse_residuals(monkeypatch, ident_id):
    # a sign-flipped mutant fails in the lane; its report is the sparse
    # path's, byte for byte
    mutants = [corrupt_identity(_by_id(ident_id), seed) for seed in range(3)]
    got = [verify_exact(i, 8) for i in mutants]
    assert not any(_lane_and_sparse(i, 8)[0] for i in mutants)
    assert {r.status for r in got} == {"fail"}
    monkeypatch.setattr(v, "_LANE_ENTRIES", 0)
    assert reports_to_json(got) == reports_to_json([verify_exact(i, 8)
                                                    for i in mutants])


@pytest.mark.parametrize("cutoff", [Fraction(1, 10), Fraction(1, 2), 1, 2,
                                    4, 8, 16, 32, 64])
def test_fail_reports_cut_at_the_tenth_residual(monkeypatch, cutoff):
    # every entry and its sign-flip mutants: the reports from plans cut at
    # the tenth nonzero position the lane finds are byte for byte those of
    # the uncut sparse route
    cat = builtin_catalog()
    entries = cat + [corrupt_identity(i, seed) for i in cat for seed in range(3)]
    assert len(entries) == 324
    got = reports_to_json([verify_exact(i, cutoff) for i in entries])
    monkeypatch.setattr(v, "_LANE_ENTRIES", 0)
    assert got == reports_to_json([verify_exact(i, cutoff) for i in entries])


def test_fewer_than_ten_residuals_cut_at_the_last(monkeypatch):
    # the misprint has two nonzero positions up to x^(1/2): the sparse path
    # runs up to the second, x^(9/20), and reports both
    ident = _by_id("quintic-epsp35-printed")
    sparse, cuts = v._sparse, []
    monkeypatch.setattr(v, "_sparse", lambda plan: cuts.append(plan.cut)
                        or sparse(plan))
    got = verify_exact(ident, Fraction(1, 2))
    assert got.status == "fail" and len(got.residuals) == 2
    assert cuts == [(9, 20)]
    assert got.residuals[-1][0].xExp == Fraction(9, 20)
    monkeypatch.setattr(v, "_LANE_ENTRIES", 0)
    assert got.to_dict() == verify_exact(ident, Fraction(1, 2)).to_dict()


def test_fail_report_expands_nothing_past_its_tenth_residual(monkeypatch):
    # at cutoff 256 the misprint's tenth residual is at x^(89/20), ix 445 on
    # its grid of dx = 100: no product of the report reaches past it
    ident = _by_id("quintic-epsp35-printed")
    plan = v._plan(ident, Fraction(256))
    assert plan.grid[0] == 100 and v._lane(plan)[-1] == 445
    v._theta_power.cache_clear()
    mul, cuts = v.packed_mul, []
    monkeypatch.setattr(v, "packed_mul", lambda a, b, icut: cuts.append(
        Fraction(icut, a.dx)) or mul(a, b, icut))
    got = verify_exact(ident, 256)
    assert cuts and max(cuts) <= Fraction(89, 20)
    assert len(got.residuals) == 10
    assert got.residuals[-1][0].xExp == Fraction(89, 20)
    monkeypatch.setattr(v, "_LANE_ENTRIES", 0)
    assert got.to_dict() == verify_exact(ident, 256).to_dict()
    v._theta_power.cache_clear()

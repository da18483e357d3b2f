"""Acceptance gate: one check (and one printed pass/fail line) per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines inline.
"""

import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from theta5.catalog import (Argument, ExpectedStatus, IdentityKind,
                            ThetaFactor, corrupt_identity)
from theta5.catalog_data import builtin_catalog
from theta5.cli import main as cli_main
from theta5.cyclotomic import Cyclotomic, cyclo_root, exp_pi_i
from theta5.divisors import verify_sigma_convolution
from theta5.numeric import (PHI_WITNESS, PSI_WITNESS, EvalConfig,
                            identity_residual, residue_report, sample_tau,
                            sample_zeta)
from theta5.resultant import (resultant, resultant_2x2, shared_root_ratio,
                              theta_quadratics)
from theta5.theta import (Characteristic, ThetaMode, reduce_char,
                          shift_half_period, shift_integer,
                          theta_product_series, theta_series)
from theta5.verify import discover_relations, verify_all, verify_exact

C = Characteristic.of
CON, FUN = ThetaMode.CONSTANT, ThetaMode.FUNCTION


def _report(n, name, ok):
    print(f"\nacceptance {n:2d} {name:40s} {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {n} ({name}) failed"


# -- 1: the whole corpus verifies exactly at cutoff 8 within budget --------------

def test_acceptance_01_corpus_exact_cutoff8():
    from theta5 import verify as v
    v._theta_power.cache_clear()
    cat = [i for i in builtin_catalog() if i.expected is ExpectedStatus.HOLDS]
    t0 = time.perf_counter()
    reports = verify_all(cat, 8)
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in reports) and elapsed < 120.0
    _report(1, f"corpus exact @8 ({elapsed:.1f}s)", ok)


# -- 2: the suspected misprint is adjudicated both ways --------------------------

def test_acceptance_02_suspect_adjudication():
    cat = {i.id: i for i in builtin_catalog()}
    printed = verify_exact(cat["quintic-epsp35-printed"], 6)
    corrected = verify_exact(cat["quintic-epsp35-corrected"], 6)
    ok = (not printed.passed) and printed.residuals and corrected.passed
    _report(2, "suspect-typo adjudication", ok)


# -- 3: defining sum == triple product, 16 characteristics, both modes -----------

def _sixteen_chars():
    out = []
    for k in (1, 3, 5, 7, 9):
        out.append(C(Fraction(1, 5), Fraction(k, 5)))
        out.append(C(Fraction(3, 5), Fraction(k, 5)))
    out += [C(1, Fraction(1, 5)), C(1, Fraction(3, 5)),
            C(0, 0), C(1, 0), C(0, 1), C(1, 1)]
    return out


def test_acceptance_03_sum_equals_product():
    ok = True
    for char in _sixteen_chars():
        for mode in (CON, FUN):
            d = theta_series(char, mode, 6) - theta_product_series(char, mode, 6)
            if not d.scrubbed().is_zero():
                ok = False
    _report(3, "sum == triple product (16 chars)", ok)


# -- 4: transformation laws, exact, over the stated shift grids ------------------

def _integer_shift_ok(c, m, n, cut):
    lhs = shift_integer(c, m, n, cut)
    rhs = theta_series(c, FUN, cut + m * m) \
        .shift_exponents(Fraction(-m * m), Fraction(-m)) \
        .scale(exp_pi_i(n * c.eps - m * c.epsp)).truncate(cut)
    return (lhs - rhs).scrubbed().is_zero()


def _half_shift_ok(c, m, n, cut):
    lhs = shift_half_period(c, m, n, cut)
    c0, mu = reduce_char(C(c.eps + m, c.epsp + n))
    rhs = theta_series(c0, FUN, cut + Fraction(m * m, 4)) \
        .scale(mu * exp_pi_i(Fraction(-m * (c.epsp + n), 2))) \
        .shift_exponents(Fraction(-m * m, 4), Fraction(-m, 2)).truncate(cut)
    return (lhs - rhs).scrubbed().is_zero()


def test_acceptance_04_transformation_laws():
    chars = [C(Fraction(1, 5), Fraction(3, 5)), C(Fraction(3, 5), 1), C(1, 1)]
    ok = True
    for cut in (Fraction(2), Fraction(3), Fraction(4)):
        for c in chars:
            for m in (-1, 0, 1):
                for n in (-1, 0, 1):
                    ok = ok and _integer_shift_ok(c, m, n, cut)
            for m in (0, 1):
                for n in (0, 1):
                    ok = ok and _half_shift_ok(c, m, n, cut)
            # even shift: theta[eps+2; epsp+2] = mu * theta[eps; epsp]
            big = C(c.eps + 2, c.epsp + 2)
            c0, mu = reduce_char(big)
            d = theta_series(big, FUN, cut) - theta_series(c0, FUN, cut).scale(mu)
            ok = ok and c0 == c and d.scrubbed().is_zero()
            # parity: theta[-eps; -epsp](zeta) = theta[eps; epsp](-zeta)
            p0, pmu = reduce_char(C(-c.eps, -c.epsp))
            d = (theta_series(p0, FUN, cut).scale(pmu)
                 - theta_series(c, FUN, cut).map_z_negate())
            ok = ok and d.scrubbed().is_zero()
    _report(4, "transformation-law suite", ok)


# -- 5: numeric residuals small for the corpus, large for every mutant ------------

def test_acceptance_05_numeric_residuals_and_mutation_kill():
    cfg = EvalConfig()
    taus = sample_tau(2024, 20)
    zetas = sample_zeta(2024, 5)
    holds = [i for i in builtin_catalog()
             if i.expected is ExpectedStatus.HOLDS]
    ok = True
    for ident in holds:
        pts = zetas if ident.kind is IdentityKind.FUNCTION else [None]
        worst = max(identity_residual(ident, tau, z, cfg)
                    for tau in taus for z in pts)
        if worst >= 1e-9:
            ok = False
    killed = 0
    rng = random.Random(99)
    for ident in holds:
        mut = corrupt_identity(ident, rng.randrange(1000))
        pts = zetas[:2] if mut.kind is IdentityKind.FUNCTION else [None]
        worst = max(identity_residual(mut, tau, z, cfg)
                    for tau in taus[:3] for z in pts)
        if worst > 1e-3:
            killed += 1
    ok = ok and killed == len(holds)
    _report(5, f"numeric residuals + mutants ({killed}/{len(holds)} killed)", ok)


# -- 6: contour residues match closed forms and sum to zero ----------------------

def test_acceptance_06_residue_closed_forms():
    ok = True
    for tau in sample_tau(7, 3):
        for witness in (PHI_WITNESS, PSI_WITNESS):
            rep = residue_report(witness, tau)
            ok = ok and rep.max_rel_error < 1e-8 and rep.sum_abs < 1e-8
    _report(6, "phi/psi residues vs closed forms", ok)


# -- 7: numeric rediscovery of the quartic relation families ---------------------

def _family_monomials(eps):
    slots = [(1, 3), (3, 9), (9, 7), (7, 1)]
    return [[ThetaFactor(C(eps, Fraction(k2, 5)), 2, Argument.SYMBOLIC_ZETA),
             ThetaFactor(C(eps, Fraction(k1, 5)), 1, Argument.SYMBOLIC_ZETA)]
            for k2, k1 in slots]


def test_acceptance_07_relation_discovery():
    import cmath
    tau = sample_tau(31, 1)[0]
    z5 = cmath.exp(2j * cmath.pi / 5)
    from theta5.numeric import theta_eval
    c1 = theta_eval(C(1, Fraction(1, 5)), 0.0, tau)
    c3 = theta_eval(C(1, Fraction(3, 5)), 0.0, tau)
    targets = {
        Fraction(1, 5): [c3, z5 ** 2 * c1, -z5 ** 4 * c3, -z5 ** 2 * c1],
        Fraction(3, 5): [c3, z5 * c1, -z5 ** 2 * c3, -z5 * c1],
    }
    ok = True
    for eps, target in targets.items():
        rel = discover_relations(_family_monomials(eps), tau, 9)
        if rel.nullity != 1:
            ok = False
            continue
        got = np.array(rel.coefficients)
        want = np.array(target) / target[0]
        if np.max(np.abs(got - want)) >= 1e-8:
            ok = False
    _report(7, "rank-3 discovery, both families", ok)


# -- 8: resultants: planted instances, closed form, theta quadratics -------------

def _poly_from_roots(roots):
    p = [Cyclotomic.one()]
    for r in roots:
        p = [a + b for a, b in zip([-(c * r) for c in p] + [Cyclotomic.zero()],
                                   [Cyclotomic.zero()] + p)]
    return p


def test_acceptance_08_resultants():
    rng = random.Random(515)

    def rand_root():
        return (cyclo_root(rng.randrange(5), 5)
                * Fraction(rng.randint(-4, 4), 1)
                + Fraction(rng.randint(-3, 3), rng.randint(1, 3)))

    ok = True
    for _ in range(200):
        shared = rand_root()
        f = _poly_from_roots([shared, rand_root()])
        g = _poly_from_roots([shared, rand_root()])
        r = resultant(f, g)
        ok = ok and r.is_zero() \
            and resultant_2x2(tuple(reversed(f)), tuple(reversed(g))) == r
    for _ in range(200):
        roots = []
        while len(roots) < 4:
            r = rand_root()
            if all(not (r - s).is_zero() for s in roots):
                roots.append(r)
        f = _poly_from_roots(roots[:2])
        g = _poly_from_roots(roots[2:])
        r = resultant(f, g)
        ok = ok and not r.is_zero() \
            and resultant_2x2(tuple(reversed(f)), tuple(reversed(g))) == r
    zetas = sample_zeta(8, 2)
    for tau in sample_tau(8, 3):
        fq, gq = theta_quadratics(tau, zetas[0], zetas[1])
        scale = max(abs(c) for c in (*fq, *gq))
        x = shared_root_ratio(tau)
        ok = ok and abs(resultant_2x2(fq, gq)) < 1e-8 * scale ** 4
        ok = ok and abs(fq[0] * x * x + fq[1] * x + fq[2]) < 1e-8 * scale
    _report(8, "resultant kit (400 planted + theta quadratics)", ok)


# -- 9: the divisor-sum convolution ----------------------------------------------

def test_acceptance_09_sigma_convolution():
    t0 = time.perf_counter()
    rep = verify_sigma_convolution(500)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 5.0
    _report(9, f"sigma convolution to 500 ({elapsed:.2f}s)", ok)


# -- 10: deterministic CLI JSON ---------------------------------------------------

def test_acceptance_10_cli_json_determinism(capsys):
    argv = ["--cutoff", "3", "--format", "json", "verify",
            "quintic-eps15", "three-theta-35-3", "cube-product-15-1"]
    code1 = cli_main(list(argv))
    out1 = capsys.readouterr().out
    code2 = cli_main(list(argv))
    out2 = capsys.readouterr().out
    ok = code1 == code2 == 0 and out1 == out2 \
        and json.loads(out1)["schema"] == 1
    _report(10, "byte-identical CLI JSON", ok)

import cmath
from fractions import Fraction

import mpmath
import pytest

from theta5.cyclotomic import Cyclotomic, cyclo_root, exp_pi_i
from theta5.numeric import EvalConfig, theta_deriv_eval, theta_eval
from theta5.series import PuiseuxSeries2
from theta5.theta import (Characteristic, ThetaMode, reduce_char,
                          shift_half_period, shift_integer,
                          theta_deriv_series, theta_product_series,
                          theta_series, theta_zero_point)

C = Characteristic.of
CON, FUN = ThetaMode.CONSTANT, ThetaMode.FUNCTION


# -- q-expansion oracles ---------------------------------------------------------

def test_theta_00_coefficients():
    # [TRIVIAL] sum of x^(n^2): 1 + 2x + 2x^4 + 2x^9 + ...
    s = theta_series(C(0, 0), CON, 10)
    assert s.coeff(0, 0) == 1
    for k in (1, 4, 9):
        assert s.coeff(k, 0) == 2
    assert s.coeff(2, 0) == 0


def test_theta_11_vanishes_at_zero():
    assert theta_series(C(1, 1), CON, 12).scrubbed().is_zero()


def test_leading_coefficient_quintic_char():
    # [DERIVED] n=0 term of theta[1/5; 3/5]: exp(pi*i*(1/10)(3/5)) * x^(1/100)
    s = theta_series(C(Fraction(1, 5), Fraction(3, 5)), CON, Fraction(1, 4))
    assert s.coeff(Fraction(1, 100), 0) == cyclo_root(3, 100)


def test_deriv_series_leading_term():
    # theta'[1;1]/(2 pi i) starts with a multiple of x^(1/4)
    s = theta_deriv_series(C(1, 1), Fraction(1, 2), CON)
    lead = s.coeff(Fraction(1, 4), 0)
    # n=0 and n=-1 terms: (1/2)e^(pi i/2) - (-1/2)e^(-pi i/2) = i
    assert lead == cyclo_root(1, 4)


def _eval_series(s, x, z):
    total = 0j
    for e, c in s.items():
        total += c.embed() * x ** complex(e.xExp) * z ** complex(e.zExp)
    return total


@pytest.mark.parametrize("tau", [1.3j, 0.25 + 0.9j])
@pytest.mark.parametrize("zeta", [0.0, 0.17 + 0.06j])
def test_series_matches_mpmath_classical_chars(tau, zeta):
    # [DERIVED] oracle: mpmath.jtheta with nome q = exp(pi i tau)
    mpmath.mp.dps = 30
    q = cmath.exp(1j * cmath.pi * tau)
    x, zz = q, cmath.exp(2j * cmath.pi * zeta)
    pairs = [
        (C(0, 0), mpmath.jtheta(3, mpmath.pi * zeta, q)),
        (C(0, 1), mpmath.jtheta(4, mpmath.pi * zeta, q)),
        (C(1, 0), mpmath.jtheta(2, mpmath.pi * zeta, q)),
        (C(1, 1), -mpmath.jtheta(1, mpmath.pi * zeta, q)),
    ]
    for char, want in pairs:
        got = _eval_series(theta_series(char, FUN, 26), x, zz)
        assert abs(got - complex(want)) < 1e-12 * max(1.0, abs(complex(want)))


def test_theta_eval_reference_values():
    cfg = EvalConfig()
    assert abs(theta_eval(C(0, 0), 0.0, 1j, cfg) - 1.08643481) < 5e-8
    assert abs(theta_eval(C(0, 1), 0.0, 1j, cfg) - 0.91357913) < 5e-8


@pytest.mark.parametrize("char", [C(Fraction(1, 5), Fraction(7, 5)),
                                  C(Fraction(3, 5), 1), C(1, Fraction(1, 5))])
def test_eval_matches_series(char):
    tau = 0.21 + 1.15j
    zeta = 0.13 + 0.04j
    x = cmath.exp(1j * cmath.pi * tau)
    z = cmath.exp(2j * cmath.pi * zeta)
    got = theta_eval(char, zeta, tau)
    want = _eval_series(theta_series(char, FUN, 30), x, z)
    assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_deriv_eval_matches_finite_difference():
    char = C(Fraction(1, 5), Fraction(3, 5))
    tau = 0.1 + 1.2j
    z0, h = 0.11 + 0.05j, 1e-6
    fd = (theta_eval(char, z0 + h, tau) - theta_eval(char, z0 - h, tau)) / (2 * h)
    assert abs(theta_deriv_eval(char, z0, tau) - fd) < 1e-7


# -- triple product vs defining sum ----------------------------------------------

@pytest.mark.parametrize("mode", [CON, FUN])
@pytest.mark.parametrize("char", [C(0, 0), C(1, 1),
                                  C(Fraction(1, 5), Fraction(9, 5)),
                                  C(Fraction(3, 5), Fraction(1, 5)),
                                  C(1, Fraction(3, 5))])
def test_product_equals_sum(char, mode):
    cut = Fraction(6)
    diff = theta_series(char, mode, cut) - theta_product_series(char, mode, cut)
    assert diff.scrubbed().is_zero()


# -- transformation laws, exactly ------------------------------------------------

def test_reduce_char():
    c0, mu = reduce_char(C(Fraction(1, 5), Fraction(11, 5)))
    assert c0 == C(Fraction(1, 5), Fraction(1, 5))
    assert mu == exp_pi_i(Fraction(1, 5))
    c0, mu = reduce_char(C(Fraction(12, 5), Fraction(-2, 5)))
    assert c0 == C(Fraction(2, 5), Fraction(8, 5))
    assert mu == exp_pi_i(Fraction(-2, 5))


@pytest.mark.parametrize("m", [-1, 0, 1])
@pytest.mark.parametrize("n", [-1, 0, 1])
def test_integer_shift_law(m, n):
    # theta[c](zeta + n + m tau) = e^(pi i (n eps - m eps')) z^-m x^-(m^2) theta[c](zeta)
    c = C(Fraction(1, 5), Fraction(3, 5))
    cut = Fraction(3)
    lhs = shift_integer(c, m, n, cut)
    base = theta_series(c, FUN, cut + m * m)
    rhs = base.shift_exponents(Fraction(-m * m), Fraction(-m)) \
              .scale(exp_pi_i(n * c.eps - m * c.epsp)).truncate(cut)
    assert (lhs - rhs).scrubbed().is_zero()


@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize("n", [0, 1])
def test_half_period_law(m, n):
    # theta[c](zeta + (n + m tau)/2)
    #   = e^(-pi i m (eps' + n)/2) z^(-m/2) x^(-m^2/4) theta[eps+m; eps'+n](zeta)
    c = C(Fraction(3, 5), Fraction(7, 5))
    cut = Fraction(2)
    lhs = shift_half_period(c, m, n, cut)
    shifted = C(c.eps + m, c.epsp + n)
    c0, mu = reduce_char(shifted)
    base = theta_series(c0, FUN, cut + Fraction(m * m, 4))
    rhs = base.scale(mu * exp_pi_i(Fraction(-m * (c.epsp + n), 2))) \
              .shift_exponents(Fraction(-m * m, 4), Fraction(-m, 2)) \
              .truncate(cut)
    assert (lhs - rhs).scrubbed().is_zero()


def test_parity_law():
    # theta[-eps; -eps'](zeta) = theta[eps; eps'](-zeta)
    c = C(Fraction(1, 5), Fraction(3, 5))
    neg = C(-c.eps, -c.epsp)
    c0, mu = reduce_char(neg)
    cut = Fraction(4)
    lhs = theta_series(c0, FUN, cut).scale(mu)
    rhs = theta_series(c, FUN, cut).map_z_negate()
    assert (lhs - rhs).scrubbed().is_zero()


#: characteristics in [0, 2) x [0, 2) over the denominators 1, 3 and 5 (one
#: per characteristic, so a T image stays within MAX_ORDER)
_ORBIT_CHARS = sorted({C(Fraction(a, d), Fraction(b, d)) for d in (1, 3, 5)
                       for a in range(2 * d) for b in range(2 * d)})


@pytest.mark.parametrize("mode", [CON, FUN])
def test_automorphism_laws(mode):
    # the two laws every derived verdict rests on (verify._orbit), against
    # the defining sum: T (tau -> tau + 1) multiplies the coefficient at x^r
    # by e^(pi i r), so T theta[e; e'] = e^(-pi i e(e+2)/4) theta[e; e'+e+1];
    # sigma_m (zeta -> zeta^m on coefficients) gives theta[e; m e']
    cut = Fraction(12)
    for c in _ORBIT_CHARS:
        s = theta_series(c, mode, cut)
        t = PuiseuxSeries2({e: v * exp_pi_i(e.xExp) for e, v in s.terms.items()},
                           cut)
        rhs = theta_series(C(c.eps, c.epsp + c.eps + 1), mode, cut) \
            .scale(exp_pi_i(-c.eps * (c.eps + 2) / 4))
        assert (t - rhs).scrubbed().is_zero(), c
        for m in (7, 11, 13, 19):
            sigma = PuiseuxSeries2(
                {e: Cyclotomic(v.order, {k * m: q for k, q in v.coeffs.items()})
                 for e, v in s.terms.items()}, cut)
            rhs = theta_series(C(c.eps, m * c.epsp), mode, cut)
            assert (sigma - rhs).scrubbed().is_zero(), (c, m)


def test_zero_point():
    c = C(Fraction(1, 5), Fraction(3, 5))
    assert theta_zero_point(c) == (Fraction(2, 5), Fraction(1, 5))
    from theta5.numeric import zero_location_check
    ok, z0, v, d = zero_location_check(c, 0.15 + 1.05j)
    assert ok and abs(v) < 1e-9 * abs(d)


@pytest.mark.parametrize("expand", [
    lambda c, cut: theta_series(c, CON, cut),
    lambda c, cut: theta_deriv_series(c, cut),
    lambda c, cut: shift_integer(c, 1, 0, cut),
    lambda c, cut: shift_half_period(c, 1, 1, cut),
    lambda c, cut: theta_product_series(c, CON, cut)],
    ids=["series", "deriv", "shift_integer", "shift_half_period", "product"])
def test_over_range_cutoff_is_refused_before_listing(expand):
    # about 6 * 10^11 terms at 10^23: the key range is checked on the end
    # points of the range of terms, so this returns at once
    for c in (C(0, 0), C(Fraction(1, 5), Fraction(3, 5))):
        with pytest.raises(ValueError, match="past the int64 key range"):
            expand(c, 10 ** 23)

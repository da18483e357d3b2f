import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta5.cyclotomic import (MAX_ORDER, Cyclotomic, cyclo_root,
                               cyclotomic_polynomial, exp_pi_i,
                               reduction_matrix)


# -- Phi_n oracles -------------------------------------------------------------

def test_phi_small():
    # [TRIVIAL] textbook polynomials, degree-0 first
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(10) == (1, -1, 1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_phi_degree_is_euler_totient():
    def totient(n):
        return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
    for n in (7, 20, 36, 100):
        assert len(cyclotomic_polynomial(n)) - 1 == totient(n)


def test_phi_105_has_coefficient_minus_two():
    # [DERIVED] the first cyclotomic polynomial with a coefficient outside
    # {-1, 0, 1}; its x^7 coefficient is -2 (checked against direct root
    # product via numpy in development)
    assert cyclotomic_polynomial(105)[7] == -2


def test_reduction_matrix_matches_reduced_list():
    rng = random.Random(120)
    for n in range(1, 121):
        red = reduction_matrix(n)
        assert red.shape == (n, len(cyclotomic_polynomial(n)) - 1)
        for _ in range(2):
            v = [rng.choice((-1, 1)) * rng.randint(1, 50) for _ in range(n)]
            want = Cyclotomic(n, dict(enumerate(v)))._reduced_list()
            assert (np.array(v) @ red).tolist() == want


def test_root_satisfies_phi():
    for n in (5, 8, 12, 20):
        z = cyclo_root(1, n)
        phi = cyclotomic_polynomial(n)
        total = Cyclotomic.zero(n)
        for k, c in enumerate(phi):
            total = total + z ** k * c
        assert total.is_zero()


# -- ring structure -------------------------------------------------------------

rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 7))


@st.composite
def cyclos(draw, orders=(1, 2, 4, 5, 10, 12)):
    order = draw(st.sampled_from(orders))
    n_terms = draw(st.integers(0, 4))
    coeffs = {draw(st.integers(0, order - 1)): draw(rationals)
              for _ in range(n_terms)}
    return Cyclotomic(order, coeffs)


@settings(max_examples=60, deadline=None)
@given(cyclos(), cyclos(), cyclos())
def test_ring_axioms(a, b, c):
    assert (a + b) - b == a
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40, deadline=None)
@given(cyclos())
def test_embedding_is_homomorphic(a):
    b = cyclo_root(3, 10) + Fraction(1, 2)
    lhs = (a * b).embed()
    rhs = a.embed() * b.embed()
    assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))


@settings(max_examples=40, deadline=None)
@given(cyclos())
def test_reduced_is_canonical_and_equal(a):
    r = a.reduced()
    assert r == a
    phi_deg = len(cyclotomic_polynomial(a.order)) - 1
    assert all(k < phi_deg for k in r.coeffs)


def test_inverse():
    a = cyclo_root(1, 5) + 2
    assert a * a.inverse() == 1
    b = Cyclotomic(12, {0: Fraction(1, 3), 5: Fraction(-2, 7)})
    assert b.inverse() * b == Cyclotomic.one()
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.zero(5).inverse()
    # zeta5 + zeta5^4 = (sqrt(5)-1)/2 is a unit in Q(zeta5)
    g = cyclo_root(1, 5) + cyclo_root(4, 5)
    assert g * g.inverse() == 1


def test_inverse_at_every_order_up_to_60():
    rng = random.Random(60)
    for n in range(1, 61):
        for _ in range(3):
            c = Cyclotomic.zero(n)
            while c.is_zero():
                c = Cyclotomic(n, {rng.randrange(n): Fraction(rng.randint(-6, 6),
                                                              rng.randint(1, 5))
                                   for _ in range(rng.randint(1, 4))})
            assert c * c.inverse() == 1


def test_nontrivial_zero_detection():
    # 1 + zeta5 + ... + zeta5^4 = 0 even though the group-ring dict is full
    s = sum((cyclo_root(k, 5) for k in range(1, 5)), Cyclotomic.one(5))
    assert s.is_zero()
    assert s == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60).flatmap(lambda n: st.builds(
    Cyclotomic, st.just(n),
    st.dictionaries(st.integers(0, n - 1),
                    st.sampled_from([Fraction(1), Fraction(-1), Fraction(2),
                                     Fraction(-1, 2)]),
                    min_size=1, max_size=3))))
def test_is_zero_matches_the_reduction(a):
    # one-entry elements c * zeta_N^k are units and skip the reduction
    assert a.is_zero() == (not any(a._reduced_list()))


def test_function_mode_expansion_never_reduces(monkeypatch):
    # every function-mode theta coefficient is a single root of unity
    from theta5.catalog_data import builtin_catalog
    from theta5.theta import ThetaMode, theta_series
    calls = []
    reduce = Cyclotomic._reduced_list
    monkeypatch.setattr(Cyclotomic, "_reduced_list",
                        lambda self: calls.append(self) or reduce(self))
    chars = {c for i in builtin_catalog() for c in i.characteristics()}
    for c in sorted(chars):
        theta_series(c, ThetaMode.FUNCTION, 16)
    assert chars and not calls


def test_exp_pi_i():
    assert exp_pi_i(1) == -1
    assert exp_pi_i(Fraction(1, 2)) == cyclo_root(1, 4)
    assert exp_pi_i(Fraction(2, 5)) == cyclo_root(1, 5)
    assert abs(exp_pi_i(Fraction(1, 3)).embed()
               - cmath.exp(1j * cmath.pi / 3)) < 1e-12


def test_lift_and_mixed_orders():
    a = cyclo_root(1, 4)          # i
    b = cyclo_root(1, 5)
    prod = a * b                  # order 20
    assert prod.order == 20
    assert prod == cyclo_root(9, 20)  # zeta4 zeta5 = zeta20^(5+4)


def test_order_cap():
    a = cyclo_root(1, 7)
    b = cyclo_root(1, 100)
    with pytest.raises(ValueError):
        _ = a * b  # lcm 700 > MAX_ORDER


def test_rational_detection():
    z = cyclo_root(1, 5)
    s = z + z ** 2 + z ** 3 + z ** 4
    assert s.is_rational()
    assert s.rational_value() == -1
    assert not z.is_rational()
    with pytest.raises(ValueError):
        z.rational_value()


def test_to_string_round_trips_through_parser():
    from theta5.catalog import parse_scalar
    vals = [Cyclotomic.one(), -Cyclotomic.one() * Fraction(3, 4),
            cyclo_root(3, 5) * Fraction(-2, 7) + Fraction(1, 2),
            cyclo_root(99, 100)]
    for v in vals:
        assert parse_scalar(v.to_string()) == v


def test_max_order_is_documented_constant():
    assert MAX_ORDER == 400

import cmath
import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta5.cyclotomic import (MAX_ORDER, Cyclotomic, _poly_div_exact,
                               cyclo_root, cyclotomic_polynomial, exp_pi_i,
                               kron_pack, kron_unpack, kron_width, radical,
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



@functools.lru_cache(maxsize=None)
def divided_phi(n):
    """Phi_n by iterated exact division of x^n - 1 by Phi_d over every
    proper divisor d | n, squarefree or not: the oracle of the radical
    form."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, divided_phi(d))
    return tuple(poly)


def test_radical():
    for n in range(1, 1001):
        want = math.prod(p for p in range(2, n + 1) if n % p == 0
                         and all(p % d for d in range(2, p)))
        assert radical(n) == want, n


def test_phi_from_the_radical_matches_division():
    # Phi_n(x) = Phi_r(x^(n/r)), r = rad n, for every order in use
    for n in range(1, MAX_ORDER + 1):
        assert cyclotomic_polynomial(n) == divided_phi(n), n


@pytest.mark.parametrize("n", [4, 8, 9, 12, 20, 25, 27, 36, 50, 100, 128,
                               200, 243, 400])
def test_reduction_matrix_of_a_non_squarefree_order(n):
    # row k of reduction_matrix(n) is zeta_n^k in the power basis: the
    # unit vectors below phi(n), and zeta_n^k at the root above; and the
    # matrix is the one the division oracle's Phi_n gives
    red = reduction_matrix(n)
    phi = len(divided_phi(n)) - 1
    assert red.shape == (n, phi)
    assert (red[:phi] == np.eye(phi, dtype=np.int64)).all()
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    assert np.allclose(red @ roots[:phi], roots, atol=1e-9)
    # zeta^phi = -(Phi_n - x^phi) at zeta
    assert red[phi].tolist() == [-c for c in divided_phi(n)[:phi]]

def long_division(c):
    """c's dense coefficient list mod Phi_N (degree < phi(N)) by Fraction
    long division of its group-ring polynomial: the oracle of the integer
    reduction through reduction_matrix."""
    n = c.order
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    p = [Fraction(0)] * n
    for k, v in c.coeffs.items():
        p[k] += v
    for i in range(n - 1, deg - 1, -1):
        q = p[i]
        if q:
            p[i] = Fraction(0)
            for j in range(deg):
                p[i - deg + j] -= q * phi[j]
    return p[:deg]


def test_reduction_matrix_matches_reduced_list():
    rng = random.Random(120)
    for n in range(1, 121):
        red = reduction_matrix(n)
        assert red.shape == (n, len(cyclotomic_polynomial(n)) - 1)
        for _ in range(2):
            v = [rng.choice((-1, 1)) * rng.randint(1, 50) for _ in range(n)]
            want = long_division(Cyclotomic(n, dict(enumerate(v))))
            assert (np.array(v) @ red).tolist() == want


def test_root_satisfies_phi():
    for n in (5, 8, 12, 20):
        z = cyclo_root(1, n)
        phi = cyclotomic_polynomial(n)
        total = Cyclotomic.zero(n)
        for k, c in enumerate(phi):
            total = total + z ** k * c
        assert total.is_zero()
        # powers are non-negative: there is no field inverse
        assert z ** 0 == 1
        with pytest.raises(ValueError):
            z ** -1


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


# -- Kronecker packing ---------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-2 ** 80, 2 ** 80), max_size=12),
       st.integers(0, 80))
def test_kron_unpack_inverts_pack(coeffs, extra):
    bound = max(map(abs, coeffs), default=0)
    for width in (kron_width(bound), kron_width(bound << extra)):
        got = kron_unpack(kron_pack(coeffs, width), width)
        got += [0] * (len(coeffs) - len(got))  # trailing zeros may be cut
        assert got[:len(coeffs)] == coeffs and not any(got[len(coeffs):])


def test_kron_width_edge_digits():
    # the extreme balanced digits of a slot survive packing next to each other
    for width in (1, 2, 9):
        top = (1 << (8 * width - 1)) - 1
        assert kron_width(top) == width
        coeffs = [top, -top, -top, top, 0, -1, 1, -top]
        assert kron_unpack(kron_pack(coeffs, width), width)[:8] == coeffs


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


@st.composite
def reducible(draw):
    """An element of order up to MAX_ORDER, with at times a multiple
    q * zeta_N^s * Phi_N(zeta_N) of zero added to it."""
    n = draw(st.integers(1, MAX_ORDER))
    a = Cyclotomic(n, draw(st.dictionaries(st.integers(0, n - 1), rationals,
                                           max_size=4)))
    if draw(st.booleans()):
        s, q = draw(st.integers(0, n - 1)), draw(rationals)
        a = a + Cyclotomic(n, {s + j: q * c for j, c
                               in enumerate(cyclotomic_polynomial(n))})
    return a


@settings(max_examples=60, deadline=None)
@given(reducible())
def test_reduction_matches_long_division(a):
    want = long_division(a)
    assert a.reduced().coeffs \
        == Cyclotomic(a.order, dict(enumerate(want))).coeffs
    assert a.is_zero() == (not any(want))


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

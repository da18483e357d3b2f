import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta5 import numeric
from theta5.cli import main
from theta5.cyclotomic import Cyclotomic, cyclo_root, cyclotomic_polynomial
from theta5.numeric import sample_tau, sample_zeta, theta_eval
from theta5.resultant import (_bareiss_det, poly_degree, resultant,
                              resultant_2x2, shared_root_ratio,
                              sylvester_matrix, theta_quadratics)
from theta5.theta import Characteristic

DATA = Path(__file__).parent / "data"


def _times_root(p, r):
    """p(x) (x - r), degree-0 first."""
    shifted = [-(c * r) for c in p] + [Cyclotomic.zero()]
    lifted = [Cyclotomic.zero()] + p
    return [a + b for a, b in zip(shifted, lifted)]


def _poly_from_roots(roots):
    """Monic polynomial with the given cyclotomic roots, degree-0 first."""
    p = [Cyclotomic.one()]
    for r in roots:
        p = _times_root(p, r)
    return p


def _random_root(rng):
    return (cyclo_root(rng.randrange(5), 5) * Fraction(rng.randint(-4, 4), 1)
            + Fraction(rng.randint(-3, 3), rng.randint(1, 3)))


def test_sylvester_shape():
    f = [1, 2, 3]          # degree 2
    g = [4, 5, 6, 7]       # degree 3
    m = sylvester_matrix(f, g)
    assert len(m) == 5 and all(len(row) == 5 for row in m)
    # first row: coefficients of f, highest degree first
    assert [c.rational_value() for c in m[0][:3]] == [3, 2, 1]


def test_poly_degree_trims_leading_zeros():
    assert poly_degree([1, 2, Cyclotomic.zero()]) == 1
    assert poly_degree([Cyclotomic.zero()]) == -1
    assert poly_degree([5]) == 0


def test_resultant_known_value():
    # Res(x^2 - 1, x^2 - 4) over Q: (1-4)^2 * ... = product of (ri - sj) = 9
    f = [-1, 0, 1]
    g = [-4, 0, 1]
    assert resultant(f, g) == 9


def test_planted_instances():
    rng = random.Random(20240817)
    common_zero = disjoint_nonzero = 0
    for trial in range(200):
        shared = _random_root(rng)
        f = _poly_from_roots([shared, _random_root(rng)])
        g = _poly_from_roots([shared, _random_root(rng)])
        if resultant(f, g).is_zero():
            common_zero += 1
    for trial in range(200):
        r1, r2 = _random_root(rng), _random_root(rng)
        while (r1 - r2).is_zero():
            r2 = _random_root(rng)
        r3, r4 = _random_root(rng), _random_root(rng)
        while (r3 - r1).is_zero() or (r3 - r2).is_zero():
            r3 = _random_root(rng)
        while (r4 - r1).is_zero() or (r4 - r2).is_zero() or (r4 - r3).is_zero():
            r4 = _random_root(rng)
        f = _poly_from_roots([r1, r3])
        g = _poly_from_roots([r2, r4])
        if not resultant(f, g).is_zero():
            disjoint_nonzero += 1
    assert common_zero == 200
    assert disjoint_nonzero == 200


def test_closed_form_matches_sylvester():
    rng = random.Random(7)
    for _ in range(50):
        f = _poly_from_roots([_random_root(rng), _random_root(rng)])
        g = _poly_from_roots([_random_root(rng), _random_root(rng)])
        closed = resultant_2x2(tuple(reversed(f)), tuple(reversed(g)))
        assert closed == resultant(f, g)


def test_resultant_degenerate_inputs():
    with pytest.raises(ValueError):
        resultant([Cyclotomic.zero()], [1, 1])
    # a zero polynomial beside a constant has no resultant either
    for f, g in (([0], [5]), ([5], [0]), ([0, 0], [3]),
                 ([Cyclotomic.zero()], [Cyclotomic.one()])):
        with pytest.raises(ValueError, match="zero polynomial"):
            resultant(f, g)
    assert resultant([3], [1, 1]) == 3          # constant vs linear
    assert resultant([2], [5]) == 1             # two constants


def test_theta_quadratics_share_root_and_resultant_vanishes():
    zetas = sample_zeta(5, 2)
    for tau in sample_tau(5, 3):
        fq, gq = theta_quadratics(tau, zetas[0], zetas[1])
        x = shared_root_ratio(tau)
        scale = max(abs(c) for c in (*fq, *gq))
        assert abs(fq[0] * x * x + fq[1] * x + fq[2]) < 1e-8 * scale
        assert abs(gq[0] * x * x + gq[1] * x + gq[2]) < 1e-8 * scale
        R = resultant_2x2(fq, gq)
        assert abs(R) < 1e-8 * scale ** 4


def test_theta_quadratics_generic_resultant_is_nonzero():
    # perturbing one coefficient destroys the common root
    tau = 0.2 + 1.2j
    zetas = sample_zeta(5, 2)
    fq, gq = theta_quadratics(tau, zetas[0], zetas[1])
    fq = (fq[0] * 1.01, fq[1], fq[2])
    scale = max(abs(c) for c in (*fq, *gq))
    assert abs(resultant_2x2(fq, gq)) > 1e-6 * scale ** 4


def test_quadratic_characteristics_are_read_once():
    # the quadratics' five characteristics are one fixed tuple: their kernel
    # columns eps/2 and eps'/2 are built on the first call and read after
    # it, while each call's fresh points are built for it alone
    numeric._char_columns.cache_clear()
    z, w = sample_zeta(3, 2)
    for tau in sample_tau(3, 20):
        theta_quadratics(tau, z, w)
    info = numeric._char_columns.cache_info()
    assert (info.hits, info.misses) == (19, 1)


def test_shared_root_bypasses_the_point_cache():
    # one window sum at zeta = 0 on inputs built once, the same to the bit
    # as the quotient of two one-point calls
    taus = sample_tau(11, 50)
    numeric._POINTS.clear()
    got = [shared_root_ratio(tau) for tau in taus]
    assert (numeric._POINTS.hits, numeric._POINTS.misses) == (0, 0)
    c1 = Characteristic.of(1, Fraction(1, 5))
    c3 = Characteristic.of(1, Fraction(3, 5))
    assert got == [theta_eval(c1, 0, tau) / theta_eval(c3, 0, tau)
                   for tau in taus]


# -- the Fraction Bareiss that integer elimination over Z[zeta_N] replaced,
# kept as the oracle, with the extended-Euclid inverse over Q[x] it divided by

def _trim(p):
    p = list(p)
    while len(p) > 1 and not p[-1]:
        p.pop()
    return p


def _poly_divmod(a, b):
    a = list(a)
    db = len(b) - 1
    q = [Fraction(0)] * max(1, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] / b[-1]
        if c:
            q[i - db] = c
            for j in range(db + 1):
                a[i - db + j] -= c * b[j]
    return _trim(q), _trim(a[:db] if db else [Fraction(0)])


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _trim(out)


def euclid_inverse(c):
    """Field inverse by extended Euclid against Phi_N over Q[x]."""
    phi = [Fraction(v) for v in cyclotomic_polynomial(c.order)]
    r0, r1 = phi, _trim(c._reduced_list())
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while len(r1) > 1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
    return Cyclotomic(c.order, {i: v / r1[0] for i, v in enumerate(s1)})


def fraction_bareiss(rows):
    """Bareiss elimination with row pivoting in Cyclotomic arithmetic, each
    exact division a product with a field inverse."""
    n = len(rows)
    if n == 0:
        return Cyclotomic.one()
    m = [list(r) for r in rows]
    sign = 1
    prev = Cyclotomic.one()
    for k in range(n - 1):
        if m[k][k].is_zero():
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Cyclotomic.zero()
        inv_prev = euclid_inverse(prev)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) * inv_prev
            m[i][k] = Cyclotomic.zero()
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


ORDERS = (1, 2, 3, 4, 5, 8, 10, 12, 15, 20)


@st.composite
def entry(draw, n, bound=5):
    """An element of Q(zeta_d) for a divisor d of n, zero a quarter of the
    time (at order d too), with rational coefficients whose numerators are
    at most bound."""
    d = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    if draw(st.integers(0, 3)) == 0:
        return Cyclotomic.zero(d)
    return Cyclotomic(d, {draw(st.integers(0, d - 1)):
                          Fraction(draw(st.integers(-bound, bound)),
                                   draw(st.integers(1, 4)))
                          for _ in range(draw(st.integers(1, 3)))})


@st.composite
def square_matrices(draw, max_size=4, bound=5):
    """Square matrices over Q(zeta_n) with mixed entry orders: generic, with
    a zero first pivot, with a second pivot that elimination cancels (both
    need a row swap), or singular (one row a multiple of another)."""
    n = draw(st.sampled_from(ORDERS))
    size = draw(st.integers(1, max_size))
    rows = [[draw(entry(n, bound)) for _ in range(size)] for _ in range(size)]
    shape = draw(st.sampled_from(("generic", "zero-pivot", "late-swap",
                                  "singular")))
    if shape == "zero-pivot":
        rows[0][0] = Cyclotomic.zero()
    elif shape == "late-swap" and size >= 3:
        f = draw(entry(n))
        rows[1][:2] = [rows[0][0] * f, rows[0][1] * f]
    elif shape == "singular" and size >= 2:
        i, j = draw(st.permutations(range(size)))[:2]
        f = draw(entry(n))
        rows[i] = [c * f for c in rows[j]]
    return rows


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_bareiss_matches_fraction_oracle(rows):
    got, want = _bareiss_det(rows), fraction_bareiss(rows)
    assert got == want
    assert got.order == want.order
    assert got.to_string() == want.to_string()


@settings(max_examples=40, deadline=None)
@given(square_matrices(max_size=6, bound=2 ** 70))
def test_bareiss_matches_oracle_on_wide_coefficients(rows):
    # numerators past 2^64 and up to 6 rows: minors whose coefficients need
    # wide Kronecker slots
    got, want = _bareiss_det(rows), fraction_bareiss(rows)
    assert got == want
    assert got.order == want.order
    assert got.to_string() == want.to_string()


@st.composite
def shared_entry_matrices(draw, max_size=5, bound=5):
    """Square matrices filled from a small pool of entry objects, the way
    Sylvester rows share one polynomial's coefficients and their zeros.  One
    object sits in the first two rows, whose denominators differ (a 1/3 in
    the first, a (7k+1)/7 in the second; pool denominators are at most 4),
    and the third row holds a distinct object equal to it.  Singular draws
    repeat the first row's objects in the last row."""
    n = draw(st.sampled_from(ORDERS))
    size = draw(st.integers(3, max_size))
    pool = draw(st.lists(entry(n, bound), min_size=1, max_size=4))
    shared = pool[0]
    twin = Cyclotomic(shared.order, shared.coeffs)
    pool += [twin, Cyclotomic.zero()]
    rows = [[draw(st.sampled_from(pool)) for _ in range(size)]
            for _ in range(size)]
    rows[0][:2] = [shared, Cyclotomic.from_rational(Fraction(1, 3))]
    seventh = Fraction(7 * draw(st.integers(0, bound)) + 1, 7)
    rows[1][:2] = [seventh * cyclo_root(1, n), shared]
    rows[2][-1] = twin
    if size > 3 and draw(st.booleans()):
        rows[-1] = list(rows[0])
    return [rows[i] for i in draw(st.permutations(range(size)))]


@settings(max_examples=150, deadline=None)
@given(shared_entry_matrices())
def test_bareiss_matches_oracle_on_shared_entries(rows):
    got, want = _bareiss_det(rows), fraction_bareiss(rows)
    assert got == want
    assert got.order == want.order
    assert got.to_string() == want.to_string()


@settings(max_examples=40, deadline=None)
@given(shared_entry_matrices(bound=2 ** 70))
def test_bareiss_matches_oracle_on_wide_shared_entries(rows):
    got, want = _bareiss_det(rows), fraction_bareiss(rows)
    assert got == want
    assert got.order == want.order
    assert got.to_string() == want.to_string()


def test_bareiss_pivot_zero_mod_phi_but_not_as_polynomial():
    # The second pivot is (1)(1 + z) - (z)(-z) = 1 + z + z^2 for z = zeta_3:
    # a nonzero integer polynomial that is zero in Z[zeta_3].  The rows
    # below have zeros in that column (an all-zero row, and a multiple of
    # the first row's head), so elimination stops at an order-1 zero.
    z, zero, one = cyclo_root(1, 3), Cyclotomic.zero(), Cyclotomic.one()
    rows = [[one, -z, zero, one],
            [z, one + z, one, zero],
            [zero, zero, zero, zero],
            [one * 2, z * -2, z, one * 3]]
    got, want = _bareiss_det(rows), fraction_bareiss(rows)
    assert want.order == 1 and want.is_zero()
    assert got.order == want.order and got.to_string() == want.to_string()


def test_bareiss_order_cap_matches_oracle():
    rows = [[cyclo_root(1, 7), Cyclotomic.zero()],
            [Cyclotomic.zero(), cyclo_root(1, 100)]]
    with pytest.raises(ValueError) as want:
        fraction_bareiss(rows)
    with pytest.raises(ValueError) as got:
        _bareiss_det(rows)
    assert str(got.value) == str(want.value)


@st.composite
def polynomial_pairs(draw, bound=5):
    """(f, g) of degrees 0-6 over Q(zeta_n), n in 1-20, entries of mixed
    orders dividing n (entry), the leading coefficients over a drawn
    denominator, and a third of the time a planted common root."""
    n = draw(st.integers(1, 20))

    def poly(degree):
        p = [draw(entry(n, bound)) for _ in range(degree + 1)]
        p[-1] = p[-1] * Fraction(1, draw(st.integers(1, 9)))
        return p

    m, k = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    if m and k and draw(st.integers(0, 2)) == 0:
        root = draw(entry(n, bound))
        return (_times_root(poly(m - 1), root), _times_root(poly(k - 1), root))
    return poly(m), poly(k)


def _check_resultant(f, g):
    try:
        want = fraction_bareiss(sylvester_matrix(f, g))
    except ValueError as exc:   # a zero polynomial
        with pytest.raises(ValueError, match=str(exc)):
            resultant(f, g)
        return
    got = resultant(f, g)
    assert got == want
    assert got.to_string() == want.to_string()
    if not want.is_zero():
        assert got.order == want.order


@settings(max_examples=150, deadline=None)
@given(polynomial_pairs())
def test_bezout_resultant_equals_the_sylvester_determinant(pair):
    _check_resultant(*pair)


@settings(max_examples=25, deadline=None)
@given(polynomial_pairs(bound=2 ** 70))
def test_bezout_resultant_equals_sylvester_on_wide_numerators(pair):
    _check_resultant(*pair)


def test_a_quotient_higher_than_the_bezout_determinant():
    # f = -1 - x + (1 - z) x^2 and g = -1 + (1 + z) x, z = zeta_5: in Z[z]
    # unreduced, Res = -1 - 4z - z^2 (height 4) and det B = (1 - z) Res =
    # -1 - 3z + 3z^2 + z^3 (height 3), so the division by the leading
    # coefficient raises the height; the slots sized from B's minors
    # (bound 30) still hold the quotient
    z, one = cyclo_root(1, 5), Cyclotomic.one()
    res = [-1, -4, -1]
    assert max(map(abs, np.convolve([1, -1], res))) == 3 < 4
    f, g = [-one, -one, one - z], [-one, one + z]
    for pair in ((f, g), (g, f)):
        _check_resultant(*pair)
        assert resultant(*pair) == -one - z * 4 - z * z


def test_a_zero_resultant_is_the_rational_zero():
    # a common root in Q(zeta_5): the Bezout elimination's zero has order 1
    z = cyclo_root(1, 5)
    f, g = _poly_from_roots([z, z + 1]), _poly_from_roots([z, z * 2, -z])
    got = resultant(f, g)
    assert got.is_zero() and got.order == 1


GOLDEN = json.loads((DATA / "resultant_cli.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_exact_resultant_json_is_byte_identical(capsys, name):
    """`theta5 --format json resultant --f/--g` against the output of the
    Fraction Bareiss engine, stored in tests/data/resultant_cli.json."""
    case = GOLDEN[name]
    assert main(case["argv"]) == case["exit"]
    assert capsys.readouterr().out == case["stdout"]

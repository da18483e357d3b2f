import math
import time

import numpy as np
import pytest

from theta5 import divisors
from theta5.divisors import delta, sigma, verify_sigma_convolution


def _scalar_report(n_max):
    """The convolution check as a loop over the scalar definitions."""
    d = [delta(3 * k + 1) for k in range(n_max + 1)]
    failures = []
    for n in range(n_max + 1):
        lhs = sigma(3 * n + 2)
        rhs = 3 * sum(d[k] * d[n - k] for k in range(n + 1))
        if lhs != rhs:
            failures.append((n, lhs, rhs))
    return n_max + 1, failures


def test_sigma_small_values():
    # [TRIVIAL] direct divisor sums
    assert [sigma(n) for n in range(1, 13)] == \
        [1, 3, 4, 7, 6, 12, 8, 15, 13, 18, 12, 28]
    assert sigma(100) == 217


def test_sigma_multiplicative_on_coprimes():
    assert sigma(9 * 25) == sigma(9) * sigma(25)
    assert sigma(7 * 16) == sigma(7) * sigma(16)


def test_delta_small_values():
    # divisors 1 mod 3 minus divisors 2 mod 3
    assert delta(1) == 1          # {1}
    assert delta(2) == 0          # {1} - {2}
    assert delta(4) == 1          # {1, 4} - {2}
    assert delta(7) == 2          # {1, 7}
    assert delta(10) == 0         # {1, 10} - {2, 5}
    assert delta(13) == 2         # {1, 13}


def test_validation():
    with pytest.raises(ValueError):
        sigma(0)
    with pytest.raises(ValueError):
        delta(-3)
    with pytest.raises(ValueError):
        verify_sigma_convolution(-1)


def test_convolution_identity_holds():
    rep = verify_sigma_convolution(200)
    assert rep.passed
    assert rep.checked == 201
    assert rep.failures == []


def test_convolution_500_is_fast():
    t0 = time.perf_counter()
    rep = verify_sigma_convolution(500)
    elapsed = time.perf_counter() - t0
    assert rep.passed
    assert elapsed < 5.0


@pytest.mark.parametrize("n_max", [0, 1, 2, 50, 300])
def test_vectorised_report_matches_scalar_loop(n_max):
    rep = verify_sigma_convolution(n_max)
    checked, failures = _scalar_report(n_max)
    assert (rep.checked, rep.failures, rep.passed) == \
        (checked, failures, not failures)


def test_sieves_match_scalar_definitions():
    sig, dlt = divisors._sieves(3 * 300 + 2)
    assert sig[1:].tolist() == [sigma(n) for n in range(1, 903)]
    assert dlt[1:].tolist() == [delta(n) for n in range(1, 903)]


def test_sieves_at_every_small_size():
    # every isqrt boundary up to 40: squares, r*(r+1) and the edges of the
    # cofactor range m // (r+1), where the split at r = isqrt(m) moves
    for m in range(41):
        sig, dlt = divisors._sieves(m)
        assert len(sig) == len(dlt) == m + 1
        assert sig[1:].tolist() == [sigma(n) for n in range(1, m + 1)], m
        assert dlt[1:].tolist() == [delta(n) for n in range(1, m + 1)], m


def test_sieves_near_squares_at_the_lab_size():
    m = 3 * 4000 + 2
    sig, dlt = divisors._sieves(m)
    near = sorted({n for r in range(1, math.isqrt(m) + 2)
                   for n in range(r * r - 3, r * r + 4) if 1 <= n <= m})
    assert [sig[n] for n in near] == [sigma(n) for n in near]
    assert [dlt[n] for n in near] == [delta(n) for n in near]


def test_failures_are_python_ints(monkeypatch):
    sieves = divisors._sieves

    def off_by_one(m):
        sig, dlt = sieves(m)
        sig[5] += 1  # sigma(3*1 + 2)
        return sig, dlt

    monkeypatch.setattr(divisors, "_sieves", off_by_one)
    rep = verify_sigma_convolution(10)
    assert rep.failures == [(1, 7, 6)]
    assert all(type(x) is int for x in rep.failures[0])
    assert not rep.passed


def _int64_report(n_max):
    """verify_sigma_convolution as it was, with np.convolve of the int64
    delta table, kept as the oracle."""
    sig, dlt = divisors._sieves(3 * n_max + 2)
    lhs, d = sig[2::3], dlt[1::3]
    rhs = 3 * np.convolve(d, d)[:n_max + 1]
    bad = np.flatnonzero(lhs != rhs)
    return divisors.ArithReport(n_max, n_max + 1, list(zip(
        bad.tolist(), lhs[bad].tolist(), rhs[bad].tolist())))


@pytest.mark.parametrize("n_max", [0, 1, 2, 50, 4000, 10 ** 5])
def test_float64_convolution_equals_the_int64_one(monkeypatch, n_max):
    # every sigma one off, so that each n fails and both reports list
    # every right-hand side
    sieves = divisors._sieves

    def all_off(m):
        sig, dlt = sieves(m)
        return sig + 1, dlt

    monkeypatch.setattr(divisors, "_sieves", all_off)
    rep = verify_sigma_convolution(n_max)
    assert len(rep.failures) == n_max + 1
    assert rep == _int64_report(n_max)


def test_a_table_past_the_float64_bound_is_refused(monkeypatch):
    # (n_max + 1) * max|delta|^2 bounds every convolution sum: at 2^53 it
    # is still exact in float64, past it the check refuses
    def sieves(m):
        dlt = np.zeros(m + 1, np.int64)
        dlt[1::3] = 1 << 26
        return np.zeros(m + 1, np.int64), dlt

    monkeypatch.setattr(divisors, "_sieves", sieves)
    rep = verify_sigma_convolution(1)   # sums up to 2 * 2^52 = 2^53
    assert rep == _int64_report(1)
    assert [r for _, _, r in rep.failures] == [3 << 52, 3 << 53]
    with pytest.raises(ValueError, match=r"3 \* 67108864\^2 are past 2\^53"):
        verify_sigma_convolution(2)

"""Divisor sums and the convolution identity they satisfy.

delta(n) counts divisors congruent to 1 mod 3 minus those congruent to
2 mod 3.  The arithmetic consequence of the cubic theta relations is

    sigma(3n + 2) = 3 * sum_{k=0}^{n} delta(3k + 1) * delta(3(n-k) + 1).

sigma and delta are the scalar definitions (trial division);
verify_sigma_convolution checks every n up to a bound at once, from
tables sieved in O(sqrt(m)) numpy slice updates for m = 3 * bound + 2 and
one float64 convolution, exact while its sums stay below 2^53.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def sigma(n):
    """Sum of the positive divisors of n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d
            if d != n // d:
                total += n // d
        d += 1
    return total


def delta(n):
    """(# divisors of n that are 1 mod 3) - (# that are 2 mod 3)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    count = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            for e in {d, n // d}:
                r = e % 3
                if r == 1:
                    count += 1
                elif r == 2:
                    count -= 1
        d += 1
    return count


@dataclass
class ArithReport:
    n_max: int
    checked: int
    failures: list = field(default_factory=list)  # [(n, lhs, rhs)]

    @property
    def passed(self):
        return not self.failures


def _sieves(m):
    """(sigma, delta) for 0..m as int64 arrays (index 0 unused), by a
    divisor sieve in O(sqrt(m)) array updates split at r = isqrt(m): one
    slice per divisor e <= r, and per cofactor k <= m // (r + 1) <= r the
    distinct indices k * e of every divisor e > r.  Both fit int64 far
    beyond any practical m: sigma(n) <= n^2 and |delta(n)| <= d(n), the
    number of divisors of n."""
    sig = np.zeros(m + 1, np.int64)
    dlt = np.zeros(m + 1, np.int64)
    weight = np.array([0, 1, -1], np.int64)  # delta's weight of e by e % 3
    r = math.isqrt(m)
    for e in range(1, r + 1):
        sig[e::e] += e
        dlt[e::e] += weight[e % 3]
    for k in range(1, m // (r + 1) + 1):
        e = np.arange(r + 1, m // k + 1, dtype=np.int64)
        at = k * e
        sig[at] += e
        dlt[at] += weight[e % 3]
    return sig, dlt


def verify_sigma_convolution(n_max):
    """Checks sigma(3n+2) = 3 * sum_k delta(3k+1) delta(3(n-k)+1) for
    0 <= n <= n_max: both sides for every n at once, from sieved sigma and
    delta tables up to 3*n_max+2 (O(sqrt(n_max)) slice updates, each in C)
    and one np.convolve of the delta(3k+1) table with itself in float64
    (quadratic, in C).  Its sums are integers of magnitude at most (n_max+1)
    * max|delta|^2 (1.0e9 at n_max = 10^6), exact in float64 in any order up
    to 2^53; a table past that bound is refused."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    sig, dlt = _sieves(3 * n_max + 2)
    lhs = sig[2::3]
    d = dlt[1::3].astype(float)
    top = int(np.abs(d).max())
    if (n_max + 1) * top * top > 2 ** 53:
        raise ValueError(f"sums up to {n_max + 1} * {top}^2 are past 2^53")
    rhs = 3 * np.convolve(d, d)[:n_max + 1].astype(np.int64)
    bad = np.flatnonzero(lhs != rhs)
    failures = list(zip(bad.tolist(), lhs[bad].tolist(), rhs[bad].tolist()))
    return ArithReport(n_max=n_max, checked=n_max + 1, failures=failures)

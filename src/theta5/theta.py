"""q-expansions of theta functions with rational characteristics.

theta[eps; eps'](zeta, tau) = sum_n exp(2*pi*i*(  (n+eps/2)^2 * tau / 2
                                                + (n+eps/2) * (zeta + eps'/2) ))

expanded in x = exp(pi*i*tau) and z = exp(2*pi*i*zeta): the n-th term is

    exp(pi*i*(n+eps/2)*eps') * x^((n+eps/2)^2) * z^(n+eps/2)

with an exact root-of-unity coefficient.  Constant mode sets z = 1.  One
integer enumeration (_terms) lists the terms, and one function
(_defining_sum) expands the sum from it in integers, as a series.Packed over
one denominator, at zeta shifted by a half period (j + m*tau)/2 for integers
j and m, optionally with the factor (n+eps/2) of the zeta-derivative
(normalized as theta'/(2*pi*i) so coefficients stay cyclotomic).  The plain
series, the derivative series, the integer and half-period shifts and the
verifier's bare factors are all calls to it, so the quasi-periodicity laws
are checked against the defining sum itself.  Also here: the Jacobi
triple-product expansion, characteristic reduction, and the zero location in
the fundamental parallelogram.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .cyclotomic import exp_pi_i
from .series import PuiseuxSeries2, _fits, _view, packed_rows


class Characteristic(NamedTuple):
    eps: Fraction
    epsp: Fraction

    @staticmethod
    def of(eps, epsp):
        return Characteristic(Fraction(eps), Fraction(epsp))

    def __str__(self):
        return f"[{self.eps};{self.epsp}]"


class ThetaMode(Enum):
    CONSTANT = "constant"  # zeta = 0: series in x only
    FUNCTION = "function"  # symbolic zeta: series carries z-powers


def _terms(p, q, cn, cd, m=0):
    """The u = 2qk + p over all integers k, ascending, whose t = u/(2q) =
    k + eps/2 (eps = p/q) has t^2 + m*t <= cn/cd: exactly the u with
    (u + q*m)^2 * cd <= q^2 * (4*cn + m^2*cd), from one integer square
    root.  Every exact expansion of theta[eps; .] reads its terms off it.
    Raises ValueError, before any term is listed, when the extreme u/g (g =
    gcd(p, 2q)) puts a packed key (ix = (u/g)^2, iz = u/g) past the int64
    range."""
    b = q * q * (4 * cn + m * m * cd)
    r = math.isqrt(b // cd) if b >= 0 else -1
    lo = -r - q * m
    us = range(lo + (p - lo) % (2 * q), r - q * m + 1, 2 * q)
    w = max(-us[0], us[-1]) // math.gcd(p, 2 * q) if us else 0
    try:
        _fits(w * w, w, 1)
    except OverflowError:
        raise ValueError(f"cutoff {Fraction(cn, cd)} puts theta exponents "
                         "past the int64 key range") from None
    return us


def _defining_sum(p, q, r, s, function, cn, cd, m=0, n=0, deriv=False):
    """(Packed, den) of theta[p/q; r/s](zeta + (n + m*tau)/2) up to x^(cn/cd)
    in integers, as series.pack packs the same terms: term u of _terms has t
    = u/2q, x^(t^2 + m*t), z^t (z^0 unless `function`) and the coefficient
    exp(pi*i*t*(r/s + n)) = zeta_o^k, times t when `deriv`.  g = gcd(u, 2q)
    is the same for every u, so with w = u/g and e = 2q/g the term sits at
    ix = w^2 + m*e*w on dx = e^2 and iz = w on dz = e, and t = w/e."""
    g, us = math.gcd(p, 2 * q), _terms(p, q, cn, cd, m)
    e, r = 2 * q // g, r + n * s
    at = {}   # (ix, iz, o, k) -> c: c zeta_o^k, c = e*t = w when deriv
    for u in us:
        w, h = u // g, math.gcd(u * r, 2 * q * s)
        o = 4 * q * s // h
        pos = w * w + m * e * w, w if function else 0, o, u * r // h % o
        at[pos] = at.get(pos, 0) + (w if deriv else 1)
    # only in constant mode do two terms (t and -t - m) meet at a position;
    # they cancel when their roots are equal and their c sum to 0, or
    # opposite (zeta_o^(k + o/2); o is even) and their c equal
    zero = {pos[:2] for pos, c in at.items()
            if at.get((*pos[:3], (pos[3] + pos[2] // 2) % pos[2])) == c}
    rows = [(pos, c) for pos, c in at.items() if c and pos[:2] not in zero]
    big = e if deriv else 1   # the coefficients are c / big
    den = math.lcm(*(big // math.gcd(c, big) for _, c in rows))
    order = math.lcm(*(pos[2] for pos, _ in rows))
    e = e if rows else 1
    return packed_rows(sorted((ix, iz, k * (order // o), c * den // big)
                              for (ix, iz, o, k), c in rows),
                       e * e, e if function else 1, order), den


def _series(c, cutoff, function, m=0, n=0, deriv=False):
    """The PuiseuxSeries2 view of _defining_sum for a Characteristic."""
    cutoff = Fraction(cutoff)
    return _view(*_defining_sum(
        *c.eps.as_integer_ratio(), *c.epsp.as_integer_ratio(), function,
        *cutoff.as_integer_ratio(), m, n, deriv), cutoff)


def _nonnegative(cutoff):
    cutoff = Fraction(cutoff)
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    return cutoff


def theta_series(c: Characteristic, mode: ThetaMode, cutoff) -> PuiseuxSeries2:
    """Defining-sum expansion, exact to the inclusive cutoff on x-exponents."""
    return _series(c, _nonnegative(cutoff), mode is ThetaMode.FUNCTION)


def theta_deriv_series(c: Characteristic, cutoff,
                       mode: ThetaMode = ThetaMode.FUNCTION) -> PuiseuxSeries2:
    """Series of theta'/(2*pi*i) (zeta-derivative, normalized to keep the
    coefficients in Q(zeta_N)): each defining-sum term gains a factor
    (n + eps/2)."""
    return _series(c, _nonnegative(cutoff), mode is ThetaMode.FUNCTION,
                   deriv=True)


def theta_product_series(c: Characteristic, mode: ThetaMode, cutoff) -> PuiseuxSeries2:
    """Jacobi triple-product expansion:

        exp(pi*i*eps*eps'/2) * x^(eps^2/4) * z^(eps/2)
          * prod_{n>=1} (1 - x^(2n))
                        (1 + e^( pi*i*eps') * x^(2n-1+eps) * z)
                        (1 + e^(-pi*i*eps') * x^(2n-1-eps) / z)

    Requires 0 <= eps < 2 (reduce via reduce_char first).  Expanded over
    n = 1 .. N, where N is the first n whose three factors all lie beyond
    the cutoff (2n - 1 - eps > cutoff).
    """
    cutoff = _nonnegative(cutoff)
    if not 0 <= c.eps < 2:
        raise ValueError("triple product needs 0 <= eps < 2; reduce_char first")
    # the defining sum's range check, before the first product
    _terms(*c.eps.as_integer_ratio(), *cutoff.as_integer_ratio())
    z = 1 if mode is ThetaMode.FUNCTION else 0
    # the single possibly-negative-exponent factor (n=1, eps>1) can pull
    # exponents down by at most 1 - eps > -1, so build with one unit of slack
    work = cutoff + 1
    acc = PuiseuxSeries2.from_terms([(Fraction(c.eps, 2) ** 2, Fraction(
        z * c.eps, 2), exp_pi_i(Fraction(c.eps * c.epsp, 2)))])
    for n in range(1, math.floor((cutoff + 1 + c.eps) / 2) + 2):
        for x, dz, w in ((2 * n, 0, -1),
                         (2 * n - 1 + c.eps, z, exp_pi_i(c.epsp)),
                         (2 * n - 1 - c.eps, -z, exp_pi_i(-c.epsp))):
            f = PuiseuxSeries2.from_terms([(0, 0, 1), (x, dz, w)])
            acc = (acc * f).truncate(work)
    return acc.truncate(cutoff).scrubbed()


def reduce_char(c: Characteristic):
    """Normalize to eps0, eps0' in [0, 2).  Returns (c0, mu) with
    theta[c] = mu * theta[c0]; the scalar comes from the even-shift law
    theta[eps+2m; eps'+2n] = exp(pi*i*eps*n) * theta[eps; eps']."""
    m = Fraction(c.eps) // 2
    n = Fraction(c.epsp) // 2
    eps0 = Fraction(c.eps) - 2 * m
    epsp0 = Fraction(c.epsp) - 2 * n
    mu = exp_pi_i(eps0 * n)
    return Characteristic(eps0, epsp0), mu


def shift_integer(c: Characteristic, m: int, n: int, cutoff) -> PuiseuxSeries2:
    """Function-mode series of theta[c](zeta + n + m*tau), straight from the
    defining sum with the shifted argument (no transformation law applied):
    term k has x-exponent (k+eps/2)^2 + 2m(k+eps/2), z-exponent k+eps/2 and
    coefficient exp(pi*i*(k+eps/2)*(eps'+2n))."""
    return shift_half_period(c, 2 * m, 2 * n, cutoff)


def shift_half_period(c: Characteristic, m: int, n: int, cutoff) -> PuiseuxSeries2:
    """Function-mode series of theta[c](zeta + (n + m*tau)/2) from the
    defining sum: term k has x-exponent (k+eps/2)^2 + m(k+eps/2),
    z-exponent k+eps/2, coefficient exp(pi*i*(k+eps/2)*(eps'+n))."""
    return _series(c, cutoff, True, m, n)


def theta_zero_point(c: Characteristic):
    """The unique zero of theta[c](., tau) in the fundamental parallelogram,
    as (coefficient of tau, constant) = ((1-eps)/2, (1-eps')/2)."""
    return (Fraction(1 - Fraction(c.eps), 2), Fraction(1 - Fraction(c.epsp), 2))

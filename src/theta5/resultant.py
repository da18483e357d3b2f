"""Exact resultants of polynomials with cyclotomic coefficients.

Polynomials are plain lists of Cyclotomic coefficients, degree-0 first.
The resultant is the determinant of the Sylvester matrix, by fraction-free
Bareiss elimination with rows cleared of denominators.  Each distinct
entry, an element of Z[zeta_N] as an integer polynomial of degree below
phi(N), is packed once into one Python int, its value at X = 2^B
(Kronecker substitution), and the elimination is plain integer Bareiss:
X -> 2^B is a ring map from Z[X], so every exact division by the previous
pivot stays exact, and B is large enough to read every minor back.  Only
the pivot tests and the final determinant are unpacked and reduced mod
Phi_N.  A closed 2x2-quadratic formula and the numeric theta quadratics
that share the root theta[1;1/5]/theta[1;3/5] round the module out.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cyclotomic import (MAX_ORDER, Cyclotomic, cyclo_root, int_vector,
                         kron_pack, kron_unpack, kron_width, reduce_poly,
                         reduction_rows)
from .numeric import _theta_rows


def _as_cyclo(c):
    return c if isinstance(c, Cyclotomic) else Cyclotomic.from_rational(Fraction(c))


def poly_degree(p):
    """Degree after dropping trailing (leading-coefficient) zeros."""
    d = len(p) - 1
    while d > 0 and _as_cyclo(p[d]).is_zero():
        d -= 1
    return d if not (d == 0 and _as_cyclo(p[0]).is_zero()) else -1


def sylvester_matrix(f, g):
    """The (m+n) x (m+n) Sylvester matrix of f (degree m) and g (degree n).

    Row i < n holds the coefficients of x^(n-1-i) * f, highest degree first;
    the remaining m rows do the same with g."""
    m, n = poly_degree(f), poly_degree(g)
    if m < 0 or n < 0:
        raise ValueError("resultant of the zero polynomial is undefined")
    if m == 0 and n == 0:
        return []
    size = m + n
    fa = [_as_cyclo(c) for c in reversed(f[:m + 1])]
    ga = [_as_cyclo(c) for c in reversed(g[:n + 1])]
    zero = Cyclotomic.zero()
    rows = []
    for i in range(n):
        rows.append([zero] * i + fa + [zero] * (size - m - 1 - i))
    for i in range(m):
        rows.append([zero] * i + ga + [zero] * (size - n - 1 - i))
    return rows


def _bareiss_det(rows):
    """Exact determinant by Bareiss fraction-free elimination with row
    pivoting, over Z[zeta_N] for N the lcm of the entry orders, each row
    scaled by the lcm of its denominators, on packed ints (module
    docstring).

    Every value the elimination makes is a minor of the packed matrix, an
    integer polynomial whose coefficients are at most the product of the
    rows' L1 norms, so slots of kron_width of that bound read every minor
    back.  A pivot counts as zero when it is zero in Z[zeta_N], not only as
    a polynomial: the row swaps, the sign and the early zero (at order 1)
    are those of elimination on reduced elements."""
    n = len(rows)
    if n == 0:
        return Cyclotomic.one()
    # Sylvester rows repeat one polynomial's coefficients and shared zeros:
    # read each distinct entry once, convert and pack it once per row scale
    entries = {id(c): c for r in rows for c in r}
    order = math.lcm(*(c.order for c in entries.values()))
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds MAX_ORDER={MAX_ORDER}")
    red = reduction_rows(order)
    den = {i: math.lcm(*(v.denominator for v in c.coeffs.values()))
           for i, c in entries.items()}
    dens = [math.lcm(*(den[id(c)] for c in r)) for r in rows]
    keys = [[(id(c), d) for c in r] for r, d in zip(rows, dens)]
    vecs = {(i, d): int_vector(entries[i], order, d, red)
            for i, d in set().union(*keys)}
    l1 = {k: sum(map(abs, v)) for k, v in vecs.items()}
    width = kron_width(math.prod(max(1, sum(map(l1.get, ks))) for ks in keys))
    packed = {k: kron_pack(v, width) for k, v in vecs.items()}
    m = [list(map(packed.get, ks)) for ks in keys]

    def nonzero(x):
        return x != 0 and any(reduce_poly(kron_unpack(x, width), red))

    sign, prev = 1, 1
    for k in range(n - 1):
        if not nonzero(m[k][k]):
            for i in range(k + 1, n):
                if nonzero(m[i][k]):
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Cyclotomic.zero()
        top = m[k]
        pivot = top[k]
        for row in m[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
        prev = pivot
    det = reduce_poly(kron_unpack(m[n - 1][n - 1], width), red)
    return Cyclotomic(order, {i: Fraction(c, sign * math.prod(dens))
                              for i, c in enumerate(det)})


def resultant(f, g):
    """Res(f, g) = det of the Sylvester matrix, exactly."""
    m, n = poly_degree(f), poly_degree(g)
    if m < 0 or n < 0:
        raise ValueError("resultant of the zero polynomial is undefined")
    if m == 0 and n == 0:
        return Cyclotomic.one()
    if m == 0:
        return _as_cyclo(f[0]) ** n
    if n == 0:
        return _as_cyclo(g[0]) ** m
    return _bareiss_det(sylvester_matrix(f, g))


def resultant_2x2(a, b):
    """Closed form for two quadratics a0 x^2 + a1 x + a2, b0 x^2 + b1 x + b2
    (a = (a0, a1, a2) leading-first):

        (a0 b2 - a2 b0)^2 - (a0 b1 - a1 b0)(a1 b2 - a2 b1)

    Exact when given Cyclotomic/rational coefficients; also accepts complex
    doubles for numeric work.
    """
    exact = all(isinstance(c, (Cyclotomic, int, Fraction)) for c in (*a, *b))
    if exact:
        a0, a1, a2 = (_as_cyclo(c) for c in a)
        b0, b1, b2 = (_as_cyclo(c) for c in b)
    else:
        a0, a1, a2 = (complex(c) for c in a)
        b0, b1, b2 = (complex(c) for c in b)
    return ((a0 * b2 - a2 * b0) ** 2
            - (a0 * b1 - a1 * b0) * (a1 * b2 - a2 * b1))


_QUADRATIC_KS = (1, 3, 5, 7, 9)
_QUADRATIC_CHARS = tuple((1 / 5, k / 5) for k in _QUADRATIC_KS)  # [1/5; k/5]
_W5 = cyclo_root(2, 5).embed()
_ROOT_CHARS = ((1.0, 1 / 5), (1.0, 3 / 5))  # [1; 1/5], [1; 3/5]


def theta_quadratics(tau, z, w, cfg=None):
    """Numeric coefficient triples (leading-first) of the two quadratics that
    the ratio theta[1;1/5]/theta[1;3/5] satisfies:

        f(X) = X^2 A3(z) A7(z) - X A5(z)^2       - A1(z) A9(z)
        g(X) = X^2 w5 A5(w) A9(w) - X w5 A7(w)^2 + A1(w) A3(w)

    where Ak = theta[1/5; k/5] (A5 meaning theta[1/5; 1]) and w5 = zeta5^2.
    Their shared root forces the resultant to vanish identically in (z, w)."""
    # A[k] = [Ak(z), Ak(w)] as Python complex numbers, all in one kernel call
    A = dict(zip(_QUADRATIC_KS, _theta_rows(_QUADRATIC_CHARS, [z, w], tau,
                                            cfg).tolist()))
    fq = (A[3][0] * A[7][0], -A[5][0] ** 2, -A[1][0] * A[9][0])
    gq = (_W5 * A[5][1] * A[9][1], -_W5 * A[7][1] ** 2, A[1][1] * A[3][1])
    return fq, gq


def shared_root_ratio(tau, cfg=None):
    """The common root itself: theta[1;1/5] / theta[1;3/5] at zeta = 0,
    from one window sum on inputs built once, bypassing the point cache."""
    (c1,), (c3,) = _theta_rows(_ROOT_CHARS, (0j,), tau, cfg).tolist()
    return c1 / c3

"""Exact resultants of polynomials with cyclotomic coefficients.

Polynomials are plain lists of Cyclotomic coefficients, degree-0 first.
Res(f, g) comes from the max(m, n)-square Bezout matrix of f and g cleared
of denominators, (f(x)g(y) - f(y)g(x)) / (x - y) (Cayley; Gelfand, Kapranov
and Zelevinsky, 1994; its sign and division: resultant), each coefficient,
in Z[zeta_N], packed once into one Python int, its value at X = 2^B
(Kronecker substitution).  The determinant is integer Bareiss elimination:
X -> 2^B is a ring map from Z[X], so each exact division stays exact, and B
reads every minor back.  A pivot is proven nonzero by its residue mod
Phi_N(2^B); only a multiple of that, and the result, are unpacked and
reduced mod Phi_N.  A closed 2x2 formula and the numeric theta quadratics
that share the root theta[1;1/5]/theta[1;3/5] round the module out.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cyclotomic import (MAX_ORDER, Cyclotomic, cyclo_root,
                         cyclotomic_polynomial, int_vector, kron_pack,
                         kron_unpack, kron_width, reduce_poly, reduction_rows)
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
    """Exact determinant over Z[zeta_N], N the lcm of the entry orders, by
    _eliminate on rows times the lcm of their denominators, in slots that
    hold every minor (bounded by the product of the rows' L1 norms)."""
    if not rows:
        return Cyclotomic.one()
    order, dens, vecs, l1 = _int_rows(rows)
    width = kron_width(math.prod(max(1, sum(r)) for r in l1))
    return _eliminate([[kron_pack(v, width) for v in r] for r in vecs], order,
                      width, math.prod(dens))


def _int_rows(rows):
    """(N, dens, vecs, l1) of rows of Cyclotomic elements: N the lcm of
    their orders, each row times the lcm of its denominators (dens) as
    integer vectors at order N (vecs), and their L1 norms."""
    order = math.lcm(*(c.order for r in rows for c in r))
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds MAX_ORDER={MAX_ORDER}")
    red = reduction_rows(order)
    dens = [math.lcm(*(v.denominator for c in r for v in c.coeffs.values()))
            for r in rows]
    vecs = [[int_vector(c, order, d, red) for c in r]
            for r, d in zip(rows, dens)]
    return order, dens, vecs, [[sum(map(abs, v)) for v in r] for r in vecs]


def _eliminate(m, order, width, den, lc=1):
    """det(m) / (lc den) in Q(zeta_order), m square over Z[zeta_order] in
    slots of `width` bytes, lc packed and dividing det(m): Bareiss with row
    pivoting in place, 0 (order 1) if a column has no pivot nonzero in
    Z[zeta_order], a pivot unpacked only at a multiple of Phi(2^(8 width))."""
    red = reduction_rows(order)
    cert = kron_pack(cyclotomic_polynomial(order), width)

    def nonzero(x):
        return x % cert != 0 or (
            x != 0 and any(reduce_poly(kron_unpack(x, width), red)))

    n, sign, prev = len(m), 1, 1
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
    det = reduce_poly(kron_unpack(m[n - 1][n - 1] // lc, width), red)
    return Cyclotomic(order, {i: Fraction(c, sign * den)
                              for i, c in enumerate(det)})


def _bezout(size, pair):
    """The size x size Bezout matrix: pair(p, q) added at [p + t][q - 1 - t]
    for every p < q <= size and t < q - p."""
    b = [[0] * size for _ in range(size)]
    for q in range(1, size + 1):
        for p in range(q):
            c = pair(p, q)
            for t in range(q - p):
                b[p + t][q - 1 - t] += c
    return b


def resultant(f, g):
    """Res(f, g) = det of the Sylvester matrix, exactly.  For m, n >= 1,
    det B = s lc^|m-n| Res(d_f f, d_g g) (module docstring), lc the longer
    polynomial's leading coefficient, s = (-1)^(N(N-1)/2), times
    (-1)^(N+mn) if m < n: divided by lc^|m-n| packed, then by s d_f^n
    d_g^m.  Slots hold B's minors (the product of its row L1 sums), and so
    the quotient: with each coefficient's L1 norm put for it, that product
    bounds det B's expansion in the coefficients term by term, which is
    lc^|m-n| Res's with no two terms merged.  A zero resultant is
    Cyclotomic.zero()."""
    m, n = poly_degree(f), poly_degree(g)
    if m < 0 or n < 0:
        raise ValueError("resultant of the zero polynomial is undefined")
    if m == 0 and n == 0:
        return Cyclotomic.one()
    if m == 0:
        return _as_cyclo(f[0]) ** n
    if n == 0:
        return _as_cyclo(g[0]) ** m
    size = max(m, n)
    order, dens, vecs, (lf, lg) = _int_rows(    # the shorter padded with 0
        [[_as_cyclo(c) for c in p[:d + 1]] + [Cyclotomic.zero()] * (size - d)
         for p, d in ((f, m), (g, n))])
    width = kron_width(math.prod(max(1, sum(r)) for r in _bezout(
        size, lambda p, q: lf[q] * lg[p] + lf[p] * lg[q])))
    fp, gp = ([kron_pack(v, width) for v in r] for r in vecs)
    sign = (-1) ** (size * (size - 1) // 2 + (size + m * n) * (m < n))
    res = _eliminate(
        _bezout(size, lambda p, q: fp[q] * gp[p] - fp[p] * gp[q]), order,
        width, sign * dens[0] ** n * dens[1] ** m,
        (fp[m] if m > n else gp[n]) ** abs(m - n))
    return res if res.coeffs else Cyclotomic.zero()


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

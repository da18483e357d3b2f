"""Built-in corpus of level-five theta-constant identities.

Naming shorthand used throughout this module:

    a(k) = theta[1/5; k/5],  b(k) = theta[3/5; k/5]   for k in {1,3,5,7,9}
    c1   = theta[1;   1/5],  c3   = theta[1;   3/5]

(k = 5 means eps' = 1.)  Ratio statements are stored cross-multiplied, so each
entry asserts that a homogeneous polynomial in theta constants (and, for
function-kind entries, theta functions of a symbolic zeta) vanishes.

The eps = 3/5 families are generated from the eps = 1/5 families by the
substitution a(k) -> b(k) together with the Galois twist zeta5 -> zeta5^3 on
all scalars.  The exact verifier confirms each of the 21 orbit
representatives (_ORBITS) independently; each other entry holds through its
claim to be the image of its representative under zeta -> zeta^m and
tau -> tau + 1, which the verifier checks exactly on every call.

The bracket algebra (_bmul) keys factors on their integer ThetaFactor.key
(p, q, r, s, at_zeta), not on hashed Fractions, and _a and _b build each
factor once.
"""

from __future__ import annotations

import functools
from fractions import Fraction as F

from .catalog import (Argument, ExpectedStatus, Identity, IdentityKind,
                      IdentityTerm, ThetaFactor, normalize_identity)
from .cyclotomic import Cyclotomic, cyclo_root
from .theta import Characteristic

_ONE = Cyclotomic.one()


def _z5(k):
    return cyclo_root(k % 5, 5)


def _fac(eps, epsp, power=1, zeta=False):
    return ThetaFactor(Characteristic.of(eps, epsp), power,
                       Argument.SYMBOLIC_ZETA if zeta else Argument.AT_ZERO)


@functools.cache
def _a(k, power=1, zeta=False):
    return _fac(F(1, 5), F(k, 5), power, zeta)


@functools.cache
def _b(k, power=1, zeta=False):
    return _fac(F(3, 5), F(k, 5), power, zeta)


_C1 = _fac(1, F(1, 5))
_C3 = _fac(1, F(3, 5))


# -- tiny bracket algebra (terms = (scalar, factor-list)) ----------------------

def _t(scalar, *facs):
    if isinstance(scalar, (int, F)):
        scalar = Cyclotomic.from_rational(scalar)
    return (scalar, list(facs))


def _order(key):
    """Sort key of a ThetaFactor.key (p, q, r, s, at_zeta): eps, eps', then at
    zero first; the quotients order exactly for denominators up to 5."""
    p, q, r, s, at_zeta = key
    return p / q, r / s, at_zeta


def _merge_factors(f1, f2):
    """Two factor lists multiplied: the factors in _order, one per key (rebuilt
    only when its power changes), and the (key, power) pairs as the key."""
    d = {}
    for f in (*f1, *f2):
        key = f.key
        g = d.get(key)
        d[key] = f if g is None else ThetaFactor(g.char, g.power + f.power,
                                                 g.argument)
    keys = sorted(d, key=_order)
    return [d[k] for k in keys], tuple((k, d[k].power) for k in keys)


def _bmul(b1, b2):
    acc = {}
    for s1, f1 in b1:
        for s2, f2 in b2:
            facs, key = _merge_factors(f1, f2)
            s = s1 * s2
            if key in acc:
                acc[key] = (acc[key][0] + s, facs)
            else:
                acc[key] = (s, facs)
    return [(s, f) for s, f in acc.values() if s.coeffs and not s.is_zero()]


def _bpow(b, p):
    out = b
    for _ in range(p - 1):
        out = _bmul(out, b)
    return out


def _bneg(b):
    return [(-s, f) for s, f in b]


def _galois(terms):
    """a(k) -> b(k); zeta5^e -> zeta5^(3e) on scalars (orders 1 and 5 only)."""
    out = []
    eps_b = F(3, 5)
    for s, facs in terms:
        if s.order == 1:
            s2 = s
        elif s.order == 5:
            s2 = Cyclotomic(5, {(3 * k) % 5: v for k, v in s.coeffs.items()})
        else:  # pragma: no cover - corpus scalars are order 1 or 5
            raise ValueError("unexpected scalar order in corpus")
        nf = [ThetaFactor(Characteristic(eps_b, f.char.epsp), f.power,
                          f.argument) if f.key[:2] == (1, 5) else f
              for f in facs]
        out.append((s2, nf))
    return out


def _ident(id_, kind, terms, ref, expected=ExpectedStatus.HOLDS):
    return Identity(id_, kind,
                    [IdentityTerm(s, f) for s, f in terms], ref, expected)


# -- section 1: quartic and cubic sanity entries -------------------------------

def _intro_entries():
    quartic = _ident(
        "jacobi-quartic", IdentityKind.CONSTANT,
        [_t(1, _fac(0, 0, 4)), _t(-1, _fac(1, 0, 4)), _t(-1, _fac(0, 1, 4))],
        "quartic relation among the three even second-order constants")
    third = F(1, 3)
    cubic1 = _ident(
        "fk-cubic-1", IdentityKind.CONSTANT,
        [_t(1, _fac(third, third, 3)), _t(1, _fac(third, F(5, 3), 3)),
         _t(-1, _fac(third, 1, 3))],
        "cubic relation, level three, first form")
    z6 = cyclo_root(1, 6)
    cubic2 = _ident(
        "fk-cubic-2", IdentityKind.CONSTANT,
        [_t(z6, _fac(third, third, 3)), _t(z6 * z6, _fac(third, F(5, 3), 3)),
         _t(-1, _fac(1, third, 3))],
        "cubic relation, level three, twisted form")
    return [quartic, cubic1, cubic2]


# -- section 3: the five-term quintics -----------------------------------------

def _quintic_entries():
    out = []
    for name, mk in (("quintic-eps15", _a), ("quintic-eps35", _b)):
        terms = [_t((-1) ** i, mk(k, 5)) for i, k in enumerate((1, 3, 5, 7, 9))]
        out.append(_ident(name, IdentityKind.CONSTANT, terms,
                          "alternating fifth-power sum over eps' = k/5"))
    out.append(_ident(
        "quintic-epsp15", IdentityKind.CONSTANT,
        [_t(_z5(1), _a(1, 5)), _t(_z5(3), _b(1, 5)), _t(1, _fac(1, F(1, 5), 5)),
         _t(-_z5(2), _b(9, 5)), _t(-_z5(4), _a(9, 5))],
        "twisted fifth-power sum, eps' = 1/5 column"))
    out.append(_ident(
        "quintic-epsp35-printed", IdentityKind.CONSTANT,
        [_t(_z5(3), _a(3, 5)), _t(_z5(4), _b(3, 5)), _t(1, _fac(1, F(3, 5), 5)),
         _t(-_z5(1), _b(7, 5)), _t(-_z5(2), _b(7, 5))],
        "twisted fifth-power sum, eps' = 3/5 column, as printed "
        "(last two terms share the same factor)",
        ExpectedStatus.SUSPECT_TYPO))
    out.append(_ident(
        "quintic-epsp35-corrected", IdentityKind.CONSTANT,
        [_t(_z5(3), _a(3, 5)), _t(_z5(4), _b(3, 5)), _t(1, _fac(1, F(3, 5), 5)),
         _t(-_z5(1), _b(7, 5)), _t(-_z5(2), _a(7, 5))],
        "twisted fifth-power sum, eps' = 3/5 column, symmetry-corrected "
        "final term"))
    return out


# -- section 4: three-factor function relations and their ratio forms ----------

def _three_theta_terms(w):
    """The five four-term function relations for one eps-family, with X(k)
    standing for the family's theta functions and w the family's twist."""
    X = lambda k, p=1: ("X", k, p)  # placeholder resolved by caller

    def T(s, cfac, *xs):
        return (s, cfac, xs)

    c1, c3 = "c1", "c3"
    data = {
        5: [T(_ONE, c3, X(1, 2), X(3)), T(w, c1, X(3, 2), X(9)),
            T(-(w * w), c3, X(9, 2), X(7)), T(-w, c1, X(7, 2), X(1))],
        7: [T(_ONE, c1, X(1, 2), X(5)), T(-w, c3, X(5, 2), X(7)),
            T(w, c1, X(7, 2), X(3)), T(-_ONE, c3, X(3, 2), X(1))],
        9: [T(_ONE, c1, X(1, 2), X(7)), T(-w, c3, X(7, 2), X(5)),
            T(w, c1, X(5, 2), X(9)), T(w, c3, X(9, 2), X(1))],
        1: [T(_ONE, c3, X(1, 2), X(9)), T(w, c1, X(9, 2), X(3)),
            T(-_ONE, c3, X(3, 2), X(5)), T(_ONE, c1, X(5, 2), X(1))],
        3: [T(_ONE, c1, X(3, 2), X(7)), T(-w, c3, X(7, 2), X(9)),
            T(w, c1, X(9, 2), X(5)), T(-_ONE, c3, X(5, 2), X(3))],
    }
    return data


def _three_theta_entries():
    out = []
    for j, mk in ((1, _a), (3, _b)):
        w = _z5(2) if j == 1 else _z5(1)
        data = _three_theta_terms(w)
        for k in (5, 7, 9, 1, 3):
            terms = []
            for s, cname, xs in data[k]:
                cfac = _C1 if cname == "c1" else _C3
                facs = [cfac] + [mk(kk, p, zeta=True) for _, kk, p in xs]
                terms.append((s, _merge_factors(facs, [])[0]))
            out.append(_ident(
                f"three-theta-{j}5-{k}", IdentityKind.FUNCTION, terms,
                f"four-term relation among triple products, eps={j}/5 family, "
                f"eps'={k}/5 slot"))
    return out


def _ratio_brackets(mk, w):
    """Numerator/denominator bracket pairs (N, D) with c1/c3 = N/D, one per
    deleted eps' slot, for the family built by mk with twist w."""
    def M(s, k1, p1, k2):
        return _t(s, mk(k1, p1), mk(k2))

    return {
        5: ([M(_ONE, 1, 2, 3), M(-(w * w), 9, 2, 7)],
            [M(w, 7, 2, 1), M(-w, 3, 2, 9)]),
        9: ([M(w, 5, 2, 7), M(_ONE, 3, 2, 1)],
            [M(_ONE, 1, 2, 5), M(w, 7, 2, 3)]),
        3: ([M(w, 7, 2, 5), M(-w, 9, 2, 1)],
            [M(_ONE, 1, 2, 7), M(w, 5, 2, 9)]),
        7: ([M(-_ONE, 1, 2, 9), M(_ONE, 3, 2, 5)],
            [M(w, 9, 2, 3), M(_ONE, 5, 2, 1)]),
        1: ([M(w, 7, 2, 9), M(_ONE, 5, 2, 3)],
            [M(_ONE, 3, 2, 7), M(w, 9, 2, 5)]),
    }


def _ratio_entries():
    out = []
    for j, mk in ((1, _a), (3, _b)):
        w = _z5(2) if j == 1 else _z5(1)
        for k, (num, den) in _ratio_brackets(mk, w).items():
            lhs = _bmul([_t(1, _C1)], den)
            rhs = _bmul([_t(1, _C3)], num)
            out.append(_ident(
                f"ratio-{j}5-del{k}", IdentityKind.CONSTANT,
                lhs + _bneg(rhs),
                f"cross-multiplied quotient for c1/c3, eps={j}/5 family, "
                f"eps'={k}/5 slot deleted"))
    return out


# -- section 5: cubic-denominator expressions for c1 and c3 --------------------

def _cubic_ratio_entries():
    # each entry: target * den^3-bracket - numerator-bracket = 0
    rows = [
        ("cubic-ratio-c1-a7", _C1, _t(1, _a(7, 3)),
         [_t(_z5(2), _b(9, 3), _a(5)), _t(_z5(4), _b(3, 3), _a(9))]),
        ("cubic-ratio-c3-b1", _C3, _t(1, _b(1, 3)),
         [_t(_z5(1), _a(3, 3), _b(5)), _t(-_z5(1), _a(1, 3), _b(7))]),
        ("cubic-ratio-c1-b3", _C1, _t(1, _b(3, 3)),
         [_t(_z5(2), _a(9, 3), _b(5)), _t(_z5(1), _a(3, 3), _b(1))]),
        ("cubic-ratio-c3-a1", _C3, _t(1, _a(1, 3)),
         [_t(-1, _b(7, 3), _a(5)), _t(1, _b(9, 3), _a(7))]),
        ("cubic-ratio-c1-b7", _C1, _t(1, _b(7, 3)),
         [_t(-_z5(2), _a(1, 3), _b(5)), _t(-_z5(3), _a(7, 3), _b(9))]),
        ("cubic-ratio-c3-a9", _C3, _t(1, _a(9, 3)),
         [_t(_z5(4), _b(3, 3), _a(5)), _t(-_z5(4), _b(1, 3), _a(3))]),
        ("cubic-ratio-c1-a3", _C1, _t(1, _a(3, 3)),
         [_t(-_z5(2), _b(1, 3), _a(5)), _t(-1, _b(7, 3), _a(1))]),
        ("cubic-ratio-c3-b9", _C3, _t(1, _b(9, 3)),
         [_t(-_z5(3), _a(7, 3), _b(5)), _t(_z5(3), _a(9, 3), _b(3))]),
    ]
    out = []
    for id_, target, den, num in rows:
        terms = _bmul([_t(1, target)], [den]) + _bneg(num)
        out.append(_ident(id_, IdentityKind.CONSTANT, terms,
                          "mixed-family cubic-denominator expression, "
                          "cross-multiplied"))
    return out


# -- section 6: two-factor function relations and septic ratio forms -----------

def _two_theta_entries():
    out = []
    for j, mk in ((1, _a), (3, _b)):
        w = _z5(2) if j == 1 else _z5(1)
        X = lambda k, p=1: mk(k, p, zeta=True)
        rows = {
            10: [_t(1, _C3, _C3, X(1), X(9)), _t(-1, _C1, _C1, X(3), X(7)),
                 _t(1, _C1, _C3, X(5, 2))],
            2: [_t(w, _C1, _C1, X(3), X(9)), _t(-w, _C3, _C3, X(5), X(7)),
                _t(1, _C1, _C3, X(1, 2))],
            4: [_t(1, _C3, _C3, X(1), X(3)), _t(w, _C1, _C1, X(5), X(9)),
                _t(-w, _C1, _C3, X(7, 2))],
            6: [_t(1, _C1, _C1, X(1), X(5)), _t(w, _C3, _C3, X(7), X(9)),
                _t(-1, _C1, _C3, X(3, 2))],
            8: [_t(1, _C1, _C1, X(1), X(7)), _t(-1, _C3, _C3, X(3), X(5)),
                _t(w, _C1, _C3, X(9, 2))],
        }
        for k, raw in rows.items():
            terms = [(s, _merge_factors(f, [])[0]) for s, f in raw]
            out.append(_ident(
                f"two-theta-{j}5-{k}", IdentityKind.FUNCTION, terms,
                f"three-term relation among double products, eps={j}/5 "
                f"family, eps'={k}/10 slot"))
    return out


def _septic_brackets():
    """For the eps=1/5 family: per eps' slot k, two (P, Q, R) triples with
    a(k) * R^2 = P * Q; the eps=3/5 family is the Galois image."""
    def M(s, k1, p1, k2, p2=1):
        return _t(s, _a(k1, p1), _a(k2, p2))

    return {
        1: [
            ([M(_ONE, 3, 1, 7, 3), M(-_ONE, 5, 3, 9)],
             [M(_ONE, 7, 2, 9), M(_z5(3), 3, 1, 5, 2)],
             [M(_z5(3), 3, 2, 7), M(_ONE, 5, 1, 9, 2)]),
            ([M(_z5(2), 5, 1, 9, 2), M(_ONE, 3, 2, 7)],
             [M(_ONE, 3, 3, 5), M(-_z5(4), 7, 1, 9, 3)],
             [M(_ONE, 3, 1, 5, 2), M(_z5(2), 7, 2, 9)]),
        ],
        3: [
            ([M(_z5(3), 1, 2, 7), M(_ONE, 5, 2, 9)],
             [M(_ONE, 5, 3, 7), M(_z5(3), 1, 3, 9)],
             [M(_ONE, 1, 1, 9, 2), M(-_ONE, 5, 1, 7, 2)]),
            ([M(_z5(2), 5, 1, 9, 3), M(_ONE, 1, 1, 7, 3)],
             [M(_ONE, 5, 1, 7, 2), M(-_ONE, 1, 1, 9, 2)],
             [M(_ONE, 5, 2, 9), M(_z5(3), 1, 2, 7)]),
        ],
        5: [
            ([M(_ONE, 3, 1, 9, 3), M(-_z5(1), 1, 3, 7)],
             [M(-_ONE, 1, 2, 3), M(_z5(4), 7, 1, 9, 2)],
             [M(-_ONE, 3, 2, 9), M(_ONE, 1, 1, 7, 2)]),
            ([M(-_z5(2), 3, 2, 9), M(_z5(2), 1, 1, 7, 2)],
             [M(-_z5(4), 7, 3, 9), M(_ONE, 1, 1, 3, 3)],
             [M(_z5(4), 7, 1, 9, 2), M(-_ONE, 1, 2, 3)]),
        ],
        7: [
            ([M(_z5(2), 3, 1, 9, 2), M(_ONE, 1, 1, 5, 2)],
             [M(_ONE, 3, 1, 5, 3), M(_z5(2), 1, 1, 9, 3)],
             [M(_ONE, 3, 2, 5), M(-_ONE, 1, 2, 9)]),
            ([M(_ONE, 3, 3, 9), M(_z5(3), 1, 3, 5)],
             [M(-_ONE, 1, 2, 9), M(_ONE, 3, 2, 5)],
             [M(_z5(2), 3, 1, 9, 2), M(_ONE, 1, 1, 5, 2)]),
        ],
        9: [
            ([M(_ONE, 3, 3, 7), M(-_ONE, 1, 1, 5, 3)],
             [M(_z5(2), 5, 2, 7), M(_ONE, 1, 1, 3, 2)],
             [M(_z5(2), 3, 1, 7, 2), M(_ONE, 1, 2, 5)]),
            ([M(_ONE, 3, 1, 7, 2), M(_z5(3), 1, 2, 5)],
             [M(-_ONE, 1, 3, 3), M(_z5(4), 5, 1, 7, 3)],
             [M(_ONE, 1, 1, 3, 2), M(_z5(2), 5, 2, 7)]),
        ],
    }


def _septic_entries():
    out = []
    brackets = _septic_brackets()
    for j in (1, 3):
        for k, triples in brackets.items():
            for v, (P, Q, R) in enumerate(triples, start=1):
                lead = [_t(1, _a(k))]
                terms = _bmul(_bmul(lead, R), R) + _bneg(_bmul(P, Q))
                if j == 3:
                    terms = _galois(terms)
                out.append(_ident(
                    f"ratio7-{j}5-{k}-{v}", IdentityKind.CONSTANT, terms,
                    f"degree-seven cross-multiplied quotient, eps={j}/5 "
                    f"family, eps'={k}/5 slot, variant {v}"))
    return out


# -- section 7: cube-product identities ----------------------------------------

def _cube_product_data():
    """(L1, L2, R1, R2) bracket quadruples asserting L1^3*L2 = R1^3*R2,
    eps=1/5 family; the eps=3/5 family is the Galois image."""
    def M(s, k1, p1, k2, p2=1):
        return _t(s, _a(k1, p1), _a(k2, p2))

    return [
        ([M(_ONE, 3, 1, 5, 2), M(_z5(2), 7, 2, 9)],
         [M(_z5(1), 3, 1, 7, 3), M(-_z5(1), 5, 3, 9)],
         [M(_z5(3), 3, 2, 7), M(_ONE, 5, 1, 9, 2)],
         [M(_ONE, 3, 3, 5), M(-_z5(4), 7, 1, 9, 3)]),
        ([M(_ONE, 5, 2, 9), M(_z5(3), 1, 2, 7)],
         [M(_ONE, 5, 3, 7), M(_z5(3), 1, 3, 9)],
         [M(_ONE, 5, 1, 7, 2), M(-_ONE, 1, 1, 9, 2)],
         [M(_z5(2), 5, 1, 9, 3), M(_ONE, 1, 1, 7, 3)]),
        ([M(_z5(4), 7, 1, 9, 2), M(-_ONE, 1, 2, 3)],
         [M(_ONE, 3, 1, 9, 3), M(-_z5(1), 1, 3, 7)],
         [M(_ONE, 3, 2, 9), M(-_ONE, 1, 1, 7, 2)],
         [M(_z5(1), 7, 3, 9), M(-_z5(2), 1, 1, 3, 3)]),
        ([M(_z5(2), 3, 1, 9, 2), M(_ONE, 1, 1, 5, 2)],
         [M(_ONE, 3, 1, 5, 3), M(_z5(2), 1, 1, 9, 3)],
         [M(_ONE, 3, 2, 5), M(-_ONE, 1, 2, 9)],
         [M(_ONE, 3, 3, 9), M(_z5(3), 1, 3, 5)]),
        ([M(_ONE, 1, 1, 3, 2), M(_z5(2), 5, 2, 7)],
         [M(_ONE, 3, 3, 7), M(-_ONE, 1, 1, 5, 3)],
         [M(_z5(2), 3, 1, 7, 2), M(_ONE, 1, 2, 5)],
         [M(-_z5(3), 1, 3, 3), M(_z5(2), 5, 1, 7, 3)]),
    ]


def _cube_product_entries():
    out = []
    for j in (1, 3):
        for n, (L1, L2, R1, R2) in enumerate(_cube_product_data(), start=1):
            lhs = _bmul(_bpow(L1, 3), L2)
            rhs = _bmul(_bpow(R1, 3), R2)
            terms = lhs + _bneg(rhs)
            if j == 3:
                terms = _galois(terms)
            out.append(_ident(
                f"cube-product-{j}5-{n}", IdentityKind.CONSTANT, terms,
                f"cubed-bracket product equality, eps={j}/5 family, "
                f"variant {n}"))
    return out


# -- section 8: mixed-family products ------------------------------------------

def _mixed_product_entries():
    """N(1/5)*D(3/5) = N(3/5)*D(1/5) per deleted eps' slot, where (N, D) are
    the cross-multiplied ratio brackets of the two families."""
    out = []
    r1 = _ratio_brackets(_a, _z5(2))
    r3 = _ratio_brackets(_b, _z5(1))
    for k in (5, 9, 3, 7, 1):
        n1, d1 = r1[k]
        n3, d3 = r3[k]
        terms = _bmul(n1, d3) + _bneg(_bmul(n3, d1))
        out.append(_ident(
            f"mixed-product-del{k}", IdentityKind.CONSTANT, terms,
            f"cross-family product equality, eps'={k}/5 slot deleted"))
    return out


# -- orbits -------------------------------------------------------------------

#: One claim per line, "member representative m j": the member is
#: sigma_m T^j of its representative up to a global scalar, where
#: sigma_m: zeta -> zeta^m acts on coefficients and T: tau -> tau + 1
#: (Identity.derived_from).  The 81 entries fall into 21 orbits; each
#: representative is its orbit's first id, so a corpus pass in id order
#: verifies it before its members.  verify.verify_exact checks a claim on
#: every call before relying on it.  (Text rather than a dict display: the
#: display raised the peak RSS of a cold corpus pass at cutoff 16 by 0.3 MiB.)
_ORBITS = """
cube-product-15-2         cube-product-15-1    1 2
cube-product-15-3         cube-product-15-1    1 4
cube-product-15-4         cube-product-15-1    1 1
cube-product-15-5         cube-product-15-1    1 3
cube-product-35-2         cube-product-35-1    1 4
cube-product-35-3         cube-product-35-1    1 3
cube-product-35-4         cube-product-35-1    1 2
cube-product-35-5         cube-product-35-1    1 1
cubic-ratio-c1-a7         cubic-ratio-c1-a3    1 4
cubic-ratio-c1-b7         cubic-ratio-c1-b3    1 3
cubic-ratio-c3-a1         cubic-ratio-c1-a3   13 4
cubic-ratio-c3-a9         cubic-ratio-c1-a3   13 0
cubic-ratio-c3-b1         cubic-ratio-c1-b3   13 3
cubic-ratio-c3-b9         cubic-ratio-c1-b3   13 0
mixed-product-del3        mixed-product-del1  13 0
mixed-product-del7        mixed-product-del1   7 0
mixed-product-del9        mixed-product-del1  19 0
quintic-epsp35-corrected  quintic-epsp15      13 0
ratio-15-del3             ratio-15-del1        1 2
ratio-15-del5             ratio-15-del1        1 4
ratio-15-del7             ratio-15-del1        1 1
ratio-15-del9             ratio-15-del1        1 3
ratio-35-del3             ratio-35-del1        1 4
ratio-35-del5             ratio-35-del1        1 3
ratio-35-del7             ratio-35-del1        1 2
ratio-35-del9             ratio-35-del1        1 1
ratio7-15-1-2             ratio7-15-1-1        7 2
ratio7-15-3-1             ratio7-15-1-1        7 3
ratio7-15-3-2             ratio7-15-1-1        1 2
ratio7-15-5-1             ratio7-15-1-1        1 4
ratio7-15-5-2             ratio7-15-1-1        7 4
ratio7-15-7-1             ratio7-15-1-1        7 0
ratio7-15-7-2             ratio7-15-1-1        1 1
ratio7-15-9-1             ratio7-15-1-1        1 3
ratio7-15-9-2             ratio7-15-1-1        7 1
ratio7-35-1-2             ratio7-35-1-1        7 4
ratio7-35-3-1             ratio7-35-1-1        7 1
ratio7-35-3-2             ratio7-35-1-1        1 4
ratio7-35-5-1             ratio7-35-1-1        1 3
ratio7-35-5-2             ratio7-35-1-1        7 3
ratio7-35-7-1             ratio7-35-1-1        7 0
ratio7-35-7-2             ratio7-35-1-1        1 2
ratio7-35-9-1             ratio7-35-1-1        1 1
ratio7-35-9-2             ratio7-35-1-1        7 2
three-theta-15-3          three-theta-15-1     1 4
three-theta-15-5          three-theta-15-1     1 3
three-theta-15-7          three-theta-15-1     1 2
three-theta-15-9          three-theta-15-1     1 1
three-theta-35-3          three-theta-35-1     1 3
three-theta-35-5          three-theta-35-1     1 1
three-theta-35-7          three-theta-35-1     1 4
three-theta-35-9          three-theta-35-1     1 2
two-theta-15-2            two-theta-15-10      1 1
two-theta-15-4            two-theta-15-10      1 2
two-theta-15-6            two-theta-15-10      1 3
two-theta-15-8            two-theta-15-10      1 4
two-theta-35-2            two-theta-35-10      1 2
two-theta-35-4            two-theta-35-10      1 4
two-theta-35-6            two-theta-35-10      1 1
two-theta-35-8            two-theta-35-10      1 3
"""


@functools.lru_cache(maxsize=1)
def _catalog():
    cat = (_intro_entries() + _quintic_entries() + _three_theta_entries()
           + _ratio_entries() + _cubic_ratio_entries() + _two_theta_entries()
           + _septic_entries() + _cube_product_entries()
           + _mixed_product_entries())
    cat = [normalize_identity(i) for i in cat]
    by_id = {i.id: i for i in cat}
    assert len(by_id) == len(cat)
    for member, rep, m, j in map(str.split, _ORBITS.strip().splitlines()):
        by_id[member].derived_from = (by_id[rep], int(m), int(j))
    return tuple(cat)


#: documented per-family entry counts
CORPUS_COUNTS = {
    "intro": 3, "quintic": 5, "three-theta": 10, "ratio": 10,
    "cubic-ratio": 8, "two-theta": 10, "ratio7": 20, "cube-product": 10,
    "mixed-product": 5,
}
CORPUS_SIZE = 81


def builtin_catalog():
    """The full built-in corpus (81 entries), as a fresh list."""
    return list(_catalog())

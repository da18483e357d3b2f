"""Declarative model for theta identities plus a JSON file format.

An Identity asserts that a linear combination of scalar-weighted products of
theta factors vanishes identically in tau (and zeta, for function-kind
entries).  The built-in corpus lives in catalog_data; this module holds the
data model, structural validation, (de)serialization and mutation helpers.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .cyclotomic import Cyclotomic, cyclo_root
from .theta import Characteristic, reduce_char


class Argument(Enum):
    AT_ZERO = "zero"       # theta constant: evaluated at zeta = 0
    SYMBOLIC_ZETA = "zeta"  # theta function of a symbolic zeta


class IdentityKind(Enum):
    CONSTANT = "constant"
    FUNCTION = "function"


class ExpectedStatus(Enum):
    HOLDS = "holds"
    SUSPECT_TYPO = "suspect"


@dataclass(frozen=True)
class ThetaFactor:
    char: Characteristic
    power: int = 1
    argument: Argument = Argument.AT_ZERO

    def __post_init__(self):
        if self.power < 1:
            raise ValueError("factor power must be >= 1")
        # key: (p, q, r, s, at_zeta) for theta[p/q; r/s] at symbolic zeta or
        # at 0, built once (integers hash faster than the Fractions)
        (eps, epsp), zeta = self.char, self.argument is Argument.SYMBOLIC_ZETA
        object.__setattr__(self, "key", (eps.numerator, eps.denominator,
                                         epsp.numerator, epsp.denominator,
                                         zeta))


@dataclass
class IdentityTerm:
    scalar: Cyclotomic
    factors: list

    @property
    def degree(self):
        return sum(f.power for f in self.factors)


@dataclass
class Identity:
    id: str
    kind: IdentityKind
    terms: list
    paper_ref: str = ""
    expected: ExpectedStatus = ExpectedStatus.HOLDS
    #: (representative, m, j): this identity is sigma_m T^j of the
    #: representative Identity up to a global scalar, a claim that
    #: verify.verify_exact checks before it derives a verdict from it.
    #: Only the built-in corpus sets it; it is never serialized.
    derived_from: tuple | None = field(default=None, compare=False,
                                       repr=False)

    def __post_init__(self):
        if not self.terms:
            raise ValueError(f"{self.id}: identity needs at least one term")
        degrees = {t.degree for t in self.terms}
        if len(degrees) != 1:
            raise ValueError(
                f"{self.id}: inhomogeneous terms, degrees {sorted(degrees)}")
        if self.kind is IdentityKind.CONSTANT:
            for t in self.terms:
                if any(f.argument is Argument.SYMBOLIC_ZETA for f in t.factors):
                    raise ValueError(f"{self.id}: constant identity with "
                                     "symbolic-zeta factor")

    @property
    def degree(self):
        return self.terms[0].degree

    def _cached(self, name, build):
        """build(self), kept under `name` until a term's scalar is not the
        object it was built from or its factors differ from a copy taken
        then (terms are mutable; equal factors, being frozen, agree)."""
        then, value = getattr(self, name, ((), None))
        if len(then) == len(self.terms):
            for t, (s, f) in zip(self.terms, then):
                if t.scalar is not s or t.factors != f:
                    break
            else:
                return value
        value = build(self)
        setattr(self, name, ([(t.scalar, list(t.factors)) for t in self.terms],
                             value))
        return value

    @property
    def _factor_plan(self):
        """The terms for numeric evaluation (_cached): the distinct factors
        as ((p, q, r, s), at_zeta) from their keys, the distinct (factor
        index, power) pairs, and each term as (scalar value, the indices of
        its pairs in order)."""
        return self._cached("_numeric_plan", _numeric_plan)

    def characteristics(self):
        return sorted({f.char for t in self.terms for f in t.factors})


def _index_factors(factor_lists):
    """The distinct factors in the lists by ThetaFactor.key, and each list
    as its [(distinct index, power), ...] in order."""
    index = {}
    powers = [[(index.setdefault(f.key, len(index)), f.power)
               for f in factors] for factors in factor_lists]
    return list(index), powers


def _numeric_plan(ident):
    factors, powers = _index_factors(t.factors for t in ident.terms)
    pairs = {}
    terms = [(t.scalar.embed(), [pairs.setdefault(p, len(pairs)) for p in ps])
             for t, ps in zip(ident.terms, powers)]
    return [(k[:4], k[4]) for k in factors], list(pairs), terms


def normalize_identity(ident):
    """Reduce every factor's characteristic into [0,2) x [0,2), folding the
    even-shift scalars (raised to the factor power) into the term scalar.
    A factor already in range is kept as it is (ThetaFactor is frozen)."""
    new_terms = []
    for t in ident.terms:
        scalar = t.scalar
        factors = []
        for f in t.factors:
            p, q, r, s, _ = f.key
            if not (0 <= p < 2 * q and 0 <= r < 2 * s):
                c0, mu = reduce_char(f.char)
                scalar = scalar * mu ** f.power
                f = ThetaFactor(c0, f.power, f.argument)
            factors.append(f)
        new_terms.append(IdentityTerm(scalar, factors))
    return Identity(ident.id, ident.kind, new_terms, ident.paper_ref,
                    ident.expected)


def corrupt_identity(ident, seed):
    """Deterministically flip the sign of one term's scalar, chosen by seed."""
    if not ident.terms:
        raise ValueError("identity has no terms")
    k = seed % len(ident.terms)
    terms = [IdentityTerm(-t.scalar if i == k else t.scalar, list(t.factors))
             for i, t in enumerate(ident.terms)]
    return Identity(ident.id + f"~corrupt{seed}", ident.kind, terms,
                    ident.paper_ref, ident.expected)


# -- scalar grammar -------------------------------------------------------------
# signed sum of monomials:  "p/q" | "p/q*zetaN^k" | "zetaN^k"  (whitespace-free
# rational literals; the bare-zeta form is accepted as coefficient 1)

_MONO = re.compile(
    r"^(?:(?P<rat>-?\d+(?:/\d+)?)(?:\*(?P<root1>zeta(?P<n1>\d+)(?:\^(?P<k1>\d+))?))?"
    r"|(?P<sign>-?)(?P<root2>zeta(?P<n2>\d+)(?:\^(?P<k2>\d+))?))$")


def parse_scalar(text):
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty scalar")
    # split into signed monomials
    parts = re.split(r"(?<=[^*/+-])(?=[+-])", s)
    total = Cyclotomic.zero()
    for part in parts:
        if part.startswith("+"):
            part = part[1:]
        m = _MONO.match(part)
        if not m:
            raise ValueError(f"bad scalar monomial: {part!r}")
        if m.group("rat") is not None:
            try:
                q = Fraction(m.group("rat"))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {part!r}") from None
            if m.group("root1"):
                total = total + cyclo_root(int(m.group("k1") or 1),
                                           int(m.group("n1"))) * q
            else:
                total = total + Cyclotomic.from_rational(q)
        else:
            q = -1 if m.group("sign") == "-" else 1
            total = total + cyclo_root(int(m.group("k2") or 1),
                                       int(m.group("n2"))) * q
    return total


def _frac_str(q):
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def identity_to_dict(ident):
    return {
        "id": ident.id,
        "kind": ident.kind.value,
        "paper_ref": ident.paper_ref,
        "expected": ident.expected.value,
        "terms": [
            {
                "scalar": t.scalar.to_string(),
                "factors": [
                    {"eps": _frac_str(f.char.eps), "epsp": _frac_str(f.char.epsp),
                     "pow": f.power, "arg": f.argument.value}
                    for f in t.factors
                ],
            }
            for t in ident.terms
        ],
    }


def identity_from_dict(d):
    try:
        kind = IdentityKind(d["kind"])
        expected = ExpectedStatus(d.get("expected", "holds"))
        terms = []
        for t in d["terms"]:
            scalar = parse_scalar(t["scalar"])
            if scalar.is_zero():
                raise ValueError("zero scalar")
            factors = [
                ThetaFactor(Characteristic.of(Fraction(f["eps"]),
                                              Fraction(f["epsp"])),
                            int(f["pow"]), Argument(f["arg"]))
                for f in t["factors"]
            ]
            terms.append(IdentityTerm(scalar, factors))
        return Identity(d["id"], kind, terms, d.get("paper_ref", ""), expected)
    except KeyError as e:
        raise ValueError(f"missing field {e} in identity "
                         f"{d.get('id', '<unnamed>')!r}") from None


def load_catalog(path):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError("catalog file must contain a JSON array")
    cat = [normalize_identity(identity_from_dict(d)) for d in data]
    ids = [i.id for i in cat]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate identity ids in catalog")
    return cat


def save_catalog(catalog, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([identity_to_dict(i) for i in catalog], fh, indent=1)
        fh.write("\n")

"""Declarative model for theta identities plus a JSON file format.

An Identity asserts that a linear combination of scalar-weighted products of
theta factors vanishes identically in tau (and zeta, for function-kind
entries).  The built-in corpus lives in catalog_data; this module holds the
data model, structural validation, (de)serialization and mutation helpers.
"""

from __future__ import annotations

import functools
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
        _check_power(self.power)
        # key: (p, q, r, s, at_zeta) for theta[p/q; r/s] at symbolic zeta or
        # at 0, built once (integers hash faster than the Fractions)
        (eps, epsp), zeta = self.char, self.argument is Argument.SYMBOLIC_ZETA
        object.__setattr__(self, "key", (eps.numerator, eps.denominator,
                                         epsp.numerator, epsp.denominator,
                                         zeta))


def _check_power(power):
    """power, unless ThetaFactor refuses it."""
    if power < 1:
        raise ValueError("factor power must be >= 1")
    return power


@dataclass(frozen=True)
class IdentityTerm:
    scalar: Cyclotomic
    factors: tuple   # of ThetaFactor; any sequence given is stored as a tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def degree(self):
        return sum(f.power for f in self.factors)


@dataclass(frozen=True)
class Identity:
    """A value: no field changes after the constructor's checks, so derived
    data (the factor index, and through _cached any other) is built once."""
    id: str
    kind: IdentityKind
    terms: tuple
    paper_ref: str = ""
    expected: ExpectedStatus = ExpectedStatus.HOLDS
    #: (representative, m, j): this identity is sigma_m T^j of the
    #: representative Identity up to a global scalar, a claim that
    #: verify.verify_exact checks before it derives a verdict from it.
    #: Only the built-in corpus sets it; it is never serialized.
    derived_from: tuple | None = field(default=None, compare=False,
                                       repr=False)

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError(f"{self.id}: identity needs at least one term")
        degrees = {t.degree for t in self.terms}
        if len(degrees) != 1:
            raise ValueError(
                f"{self.id}: inhomogeneous terms, degrees {sorted(degrees)}")
        if self.kind is IdentityKind.CONSTANT and any(
                f.argument is Argument.SYMBOLIC_ZETA
                for t in self.terms for f in t.factors):
            raise ValueError(f"{self.id}: constant identity with "
                             "symbolic-zeta factor")

    @property
    def degree(self):
        return self.terms[0].degree

    def _cached(self, name, build):
        """build(self), built on first use and kept under `name`."""
        if name not in self.__dict__:
            self.__dict__[name] = build(self)
        return self.__dict__[name]

    @functools.cached_property
    def _factor_index(self):
        """_index_factors of the terms' factor lists, which the numeric
        plan, the exact plans and the claim data all read."""
        return _index_factors(t.factors for t in self.terms)

    def characteristics(self):
        return sorted({f.char for t in self.terms for f in t.factors})


def _index_factors(factor_lists):
    """The distinct factors in the lists by ThetaFactor.key, and each list
    as its ((distinct index, power), ...) in order, all tuples."""
    index = {}
    powers = tuple(tuple((index.setdefault(f.key, len(index)), f.power)
                         for f in factors) for factors in factor_lists)
    return tuple(index), powers


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
    k = seed % len(ident.terms)
    terms = [IdentityTerm(-t.scalar, t.factors) if i == k else t
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
        part = part.removeprefix("+")
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


#: (JSON type, its name) of each field of identity_to_dict but the strings
_OBJECTS = list, "a list of objects"
_RATIONAL = (str, int), "a string or an integer"
_FIELD_TYPES = {"terms": _OBJECTS, "factors": _OBJECTS, "eps": _RATIONAL,
                "epsp": _RATIONAL, "pow": (int, "an integer")}


def identity_from_dict(d):
    """The Identity of an identity_to_dict object.  Every field must have the
    JSON type identity_to_dict writes (so a "pow" is an integer, never a
    float or true, and an "eps" or "epsp" a rational string or an integer),
    and a value the constructors refuse (a "pow" below 1) is refused while
    its field is read: either is a ValueError that names the identity and
    the field."""
    if not isinstance(d, dict):
        raise ValueError("a catalog entry must be a JSON object, got "
                         + json.dumps(d, default=str))
    name = d.get("id", "<unnamed>")

    def read(obj, key, parse=None, default=None):
        """obj[key] checked against its JSON type, then parsed."""
        if key not in obj:
            if default is None:
                raise ValueError(f"missing field {key!r} in identity {name!r}")
            return default
        value = obj[key]
        types, what = _FIELD_TYPES.get(key, (str, "a string"))
        if not isinstance(value, types) or isinstance(value, bool) or (
                types is list and not all(isinstance(x, dict) for x in value)):
            raise ValueError(f"identity {name!r}: field {key!r} must be {what}"
                             f", got {json.dumps(value, default=str)}")
        try:
            return value if parse is None else parse(value)
        except ZeroDivisionError:
            why = " has a zero denominator"
        except ValueError as e:
            why = f": {e}"
        raise ValueError(f"identity {name!r}: field {key!r}{why}") from None

    def scalar(text):
        value = parse_scalar(text)
        if value.is_zero():
            raise ValueError("zero scalar")
        return value

    terms = [IdentityTerm(read(t, "scalar", scalar), [
        ThetaFactor(Characteristic.of(read(f, "eps", Fraction),
                                      read(f, "epsp", Fraction)),
                    read(f, "pow", _check_power), read(f, "arg", Argument))
        for f in read(t, "factors")]) for t in read(d, "terms")]
    return Identity(read(d, "id"), read(d, "kind", IdentityKind), terms,
                    read(d, "paper_ref", default=""),
                    read(d, "expected", ExpectedStatus, ExpectedStatus.HOLDS))


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

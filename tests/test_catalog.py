import cmath
import copy
import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from theta5.catalog import (Argument, ExpectedStatus, Identity, IdentityKind,
                            IdentityTerm, ThetaFactor, corrupt_identity,
                            identity_from_dict, identity_to_dict, load_catalog,
                            normalize_identity, parse_scalar, save_catalog)
from theta5.catalog_data import CORPUS_COUNTS, CORPUS_SIZE, builtin_catalog
from theta5.cyclotomic import Cyclotomic, cyclo_root
from theta5.numeric import theta_eval
from theta5.theta import Characteristic, reduce_char

C = Characteristic.of


def test_corpus_size_and_family_counts():
    cat = builtin_catalog()
    assert len(cat) == CORPUS_SIZE == sum(CORPUS_COUNTS.values())
    ids = [i.id for i in cat]
    assert len(set(ids)) == len(ids)


def test_corpus_has_exactly_one_suspect():
    suspects = [i for i in builtin_catalog()
                if i.expected is ExpectedStatus.SUSPECT_TYPO]
    assert [s.id for s in suspects] == ["quintic-epsp35-printed"]


def test_corpus_is_normalized():
    for ident in builtin_catalog():
        for t in ident.terms:
            for f in t.factors:
                assert 0 <= f.char.eps < 2 and 0 <= f.char.epsp < 2, ident.id


def test_factor_keys_are_the_characteristic_integers():
    # the key is computed once per factor and follows it through a copy;
    # a replaced factor computes its own
    def integers(f):
        (eps, epsp), zeta = f.char, f.argument is Argument.SYMBOLIC_ZETA
        return (eps.numerator, eps.denominator, epsp.numerator,
                epsp.denominator, zeta)

    factors = {f for i in builtin_catalog() for t in i.terms for f in t.factors}
    for f in factors:
        assert f.key == integers(f) == copy.deepcopy(f).key
        other = dataclasses.replace(f, char=C(f.char.epsp, f.char.eps))
        assert other.key == integers(other)
        flipped = dataclasses.replace(f, argument=Argument.AT_ZERO
                                      if f.key[4] else Argument.SYMBOLIC_ZETA)
        assert flipped.key == integers(flipped) != f.key


def test_homogeneity_enforced():
    one = Cyclotomic.one()
    f1 = ThetaFactor(C(0, 0), 2)
    f2 = ThetaFactor(C(0, 1), 1)
    with pytest.raises(ValueError):
        Identity("bad", IdentityKind.CONSTANT,
                 [IdentityTerm(one, [f1]), IdentityTerm(one, [f2])])


def test_constant_kind_rejects_symbolic_zeta():
    one = Cyclotomic.one()
    f = ThetaFactor(C(0, 0), 1, Argument.SYMBOLIC_ZETA)
    with pytest.raises(ValueError):
        Identity("bad", IdentityKind.CONSTANT, [IdentityTerm(one, [f])])


def test_factor_power_positive():
    with pytest.raises(ValueError):
        ThetaFactor(C(0, 0), 0)


def test_round_trip_whole_corpus():
    for ident in builtin_catalog():
        blob = json.dumps(identity_to_dict(ident))
        back = identity_from_dict(json.loads(blob))
        assert identity_to_dict(back) == identity_to_dict(ident)


def test_save_and_load(tmp_path):
    cat = list(builtin_catalog())[:5]
    path = tmp_path / "cat.json"
    save_catalog(cat, path)
    back = load_catalog(path)
    assert [i.id for i in back] == [i.id for i in cat]


def test_load_rejects_duplicates(tmp_path):
    d = identity_to_dict(builtin_catalog()[0])
    path = tmp_path / "dup.json"
    path.write_text(json.dumps([d, d]))
    with pytest.raises(ValueError):
        load_catalog(path)


def test_corrupt_is_deterministic_and_flips_one_sign():
    ident = builtin_catalog()[0]
    a = corrupt_identity(ident, 7)
    b = corrupt_identity(ident, 7)
    assert identity_to_dict(a) == identity_to_dict(b)
    assert a.id.endswith("~corrupt7")
    # exactly one term differs, and it differs by a sign
    diffs = [i for i, (ta, t0) in enumerate(zip(a.terms, ident.terms))
             if not (ta.scalar - t0.scalar).is_zero()]
    assert len(diffs) == 1
    i = diffs[0]
    assert (a.terms[i].scalar + ident.terms[i].scalar).is_zero()


def test_parse_scalar_grammar():
    assert parse_scalar("3/4") == Cyclotomic.from_rational(Fraction(3, 4))
    assert parse_scalar("-1/1*zeta5^2") == -cyclo_root(2, 5)
    assert parse_scalar("zeta10^3") == cyclo_root(3, 10)
    assert parse_scalar("1/2 + 1/1*zeta5^1") == \
        cyclo_root(1, 5) + Fraction(1, 2)
    with pytest.raises(ValueError):
        parse_scalar("")
    with pytest.raises(ValueError):
        parse_scalar("zeta")
    with pytest.raises(ValueError):
        parse_scalar("1/0")


def test_normalize_folds_even_shift_scalar():
    one = Cyclotomic.one()
    raw = Identity("t", IdentityKind.CONSTANT, [
        IdentityTerm(one, [ThetaFactor(C(Fraction(1, 5), Fraction(11, 5)), 2)]),
        IdentityTerm(-one, [ThetaFactor(C(Fraction(1, 5), Fraction(1, 5)), 2)]),
    ])
    norm = normalize_identity(raw)
    chars = {f.char for t in norm.terms for f in t.factors}
    assert chars == {C(Fraction(1, 5), Fraction(1, 5))}
    # the folded scalar is exp(pi i /5)^2 = zeta5
    assert norm.terms[0].scalar == cyclo_root(1, 5)


rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


@given(eps=rationals, epsp=rationals, power=st.integers(1, 3),
       at_zeta=st.booleans(), k=st.integers(0, 4))
@example(eps=Fraction(2), epsp=Fraction(1, 3), power=2, at_zeta=False, k=1)
@example(eps=Fraction(1, 2), epsp=Fraction(2), power=3, at_zeta=True, k=0)
@example(eps=Fraction(-12, 5), epsp=Fraction(-1, 6), power=1, at_zeta=True,
         k=4)
def test_normalize_obeys_the_even_shift_law(eps, epsp, power, at_zeta, k):
    """theta[eps+2m; eps'+2n] = exp(pi i eps n) theta[eps; eps'] with eps,
    eps' in [0, 2): normalize_identity moves a factor there and multiplies
    the term scalar by that root of unity to the factor's power, and a
    factor already there comes back as the same object."""
    arg = Argument.SYMBOLIC_ZETA if at_zeta else Argument.AT_ZERO
    f = ThetaFactor(C(eps, epsp), power, arg)
    scalar = cyclo_root(k, 5)
    ident = Identity("t", IdentityKind.FUNCTION, [IdentityTerm(scalar, [f])])
    (term,) = normalize_identity(ident).terms
    (g,) = term.factors
    m, n = eps // 2, epsp // 2
    eps0, epsp0 = eps - 2 * m, epsp - 2 * n
    assert g.char == C(eps0, epsp0) and 0 <= eps0 < 2 and 0 <= epsp0 < 2
    assert (g.power, g.argument) == (power, arg)
    x = eps0 * n * power  # exp(pi i x) = zeta_{2q}^p for x = p/q
    unit = Cyclotomic(2 * x.denominator, {x.numerator: 1})
    assert term.scalar == scalar * unit
    assert reduce_char(f.char) == (g.char, Cyclotomic(
        2 * (eps0 * n).denominator, {(eps0 * n).numerator: 1}))
    if (m, n) == (0, 0):
        assert g is f
    # the law itself, at one point: theta[eps; eps'] against the reduced
    # factor times its unit
    tau, z = 0.13 + 1.1j, (0.21 + 0.05j if at_zeta else 0.0)
    lhs = theta_eval(f.char, z, tau) ** power
    rhs = cmath.exp(1j * cmath.pi * x) * theta_eval(g.char, z, tau) ** power
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_identities_are_frozen():
    ident = builtin_catalog()[0]
    term = ident.terms[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        ident.id = "renamed"
    with pytest.raises(dataclasses.FrozenInstanceError):
        ident.terms = ident.terms[:1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        ident.derived_from = (ident, 1, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        term.scalar = -term.scalar
    with pytest.raises(dataclasses.FrozenInstanceError):
        term.factors = []
    assert isinstance(ident.terms, tuple) and isinstance(term.factors, tuple)


def test_builtin_entries_survive_an_attempted_edit():
    from theta5.verify import verify_exact
    first = builtin_catalog()[0]
    before = identity_to_dict(first)
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.terms[0].scalar = -first.terms[0].scalar
    with pytest.raises(AttributeError):
        first.terms.append(first.terms[0])
    fresh = builtin_catalog()[0]
    assert fresh is first and identity_to_dict(fresh) == before
    assert verify_exact(fresh, 8).passed


def test_later_changes_to_the_given_lists_change_nothing():
    factors = [ThetaFactor(C(0, 0), 4)]
    term = IdentityTerm(Cyclotomic.one(), factors)
    terms = [term, IdentityTerm(-Cyclotomic.one(), factors)]
    ident = Identity("zero", IdentityKind.CONSTANT, terms)
    factors.append(ThetaFactor(C(1, 0), 1))
    terms.append(IdentityTerm(Cyclotomic.one(), [ThetaFactor(C(0, 1))]))
    assert term.factors == (ThetaFactor(C(0, 0), 4),) and term.degree == 4
    assert len(ident.terms) == 2 and ident.degree == 4


def test_replace_runs_the_constructor_checks():
    ident = next(i for i in builtin_catalog() if i.id == "fk-cubic-1")
    assert ident.kind is IdentityKind.CONSTANT and ident.degree == 3
    linear = IdentityTerm(Cyclotomic.one(), [ThetaFactor(C(0, 0))])
    with pytest.raises(ValueError, match=r"inhomogeneous .* \[1, 3\]"):
        dataclasses.replace(ident, terms=[linear, *ident.terms[1:]])
    at_zeta = IdentityTerm(Cyclotomic.one(), [
        ThetaFactor(C(0, 0), 3, Argument.SYMBOLIC_ZETA)])
    with pytest.raises(ValueError, match="symbolic-zeta"):
        dataclasses.replace(ident, terms=[at_zeta, *ident.terms[1:]])


def test_missing_field_is_value_error():
    with pytest.raises(ValueError):
        identity_from_dict({"id": "x", "kind": "constant"})


CORPUS_GOLDEN = Path(__file__).parent / "data" / "catalog.json"


def _corpus_text():
    """The built corpus as written to tests/data/catalog.json: every entry's
    identity_to_dict in builtin_catalog() order, then every orbit claim as
    [member, representative, m, j]."""
    cat = builtin_catalog()
    claims = [[i.id, i.derived_from[0].id, *i.derived_from[1:]]
              for i in cat if i.derived_from]
    return json.dumps({"identities": [identity_to_dict(i) for i in cat],
                       "derived_from": claims}, indent=1) + "\n"


def test_corpus_matches_golden():
    """Term order, factor order and scalar form of every entry, byte for
    byte.  `python tests/test_catalog.py` rewrites the file; do so only for
    a deliberate change of the corpus."""
    assert _corpus_text() == CORPUS_GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    CORPUS_GOLDEN.write_text(_corpus_text(), encoding="utf-8")

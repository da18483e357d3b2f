import json
from fractions import Fraction

import numpy as np
import pytest

from theta5.catalog import Argument, ExpectedStatus, ThetaFactor, corrupt_identity
from theta5.catalog_data import builtin_catalog
from theta5.numeric import theta_eval
from theta5.theta import Characteristic
from theta5.verify import (batch_passed, discover_relations, reports_to_json,
                           verify_all, verify_exact, zeta_grid)

C = Characteristic.of


def _by_id(ident_id):
    return next(i for i in builtin_catalog() if i.id == ident_id)


def test_verify_exact_pass_and_fail():
    ident = _by_id("jacobi-quartic")
    assert verify_exact(ident, 4).passed
    bad = corrupt_identity(ident, 1)
    rep = verify_exact(bad, 4)
    assert not rep.passed
    assert rep.residuals  # nonzero coefficients reported
    # residuals are the lexicographically smallest surviving exponents
    exps = [e for e, _ in rep.residuals]
    assert exps == sorted(exps)
    assert len(rep.residuals) <= 10


def test_failure_is_monotone_in_cutoff():
    bad = corrupt_identity(_by_id("quintic-eps15"), 0)
    first_fail = None
    for cut in (Fraction(1, 4), Fraction(1), Fraction(2), Fraction(4)):
        rep = verify_exact(bad, cut)
        if first_fail is None and not rep.passed:
            first_fail = cut
        if first_fail is not None:
            assert not rep.passed  # once visible, stays visible
    assert first_fail is not None


@pytest.mark.parametrize("seed", range(6))
def test_mutants_always_detected(seed):
    for ident_id in ("fk-cubic-2", "three-theta-15-5", "ratio-35-del7"):
        bad = corrupt_identity(_by_id(ident_id), seed)
        assert not verify_exact(bad, 3).passed, (ident_id, seed)


def test_verify_all_ordering_and_batch_policy():
    cat = [i for i in builtin_catalog() if i.id.startswith("quintic")]
    reports = verify_all(cat, 4)
    assert [r.id for r in reports] == sorted(i.id for i in cat)
    # the deliberate-misprint entry fails alone without failing the batch
    by_id = {r.id: r for r in reports}
    assert not by_id["quintic-epsp35-printed"].passed
    assert by_id["quintic-epsp35-corrected"].passed
    assert batch_passed(cat, reports)


def test_deep_cutoff_verifies():
    # products here exceed 4096 operand term pairs
    assert verify_exact(_by_id("ratio7-15-1-1"), 32).passed


def test_report_json_shape():
    rep = verify_exact(corrupt_identity(_by_id("jacobi-quartic"), 0), 4)
    blob = json.loads(reports_to_json([rep]))
    assert blob["schema"] == 1
    entry = blob["reports"][0]
    assert entry["status"] == "fail"
    assert entry["elapsed_ms"] is None
    r0 = entry["residuals"][0]
    assert set(r0) == {"x", "z", "coeff"}
    for field in ("x", "z"):
        p, q = r0[field].split("/")
        int(p), int(q)


def test_cutoff_validation():
    with pytest.raises(ValueError):
        verify_exact(_by_id("jacobi-quartic"), 0)


def test_zeta_grid_documented_formula():
    g = zeta_grid(4)
    assert g[0] == complex((0 + 0.37) / 5, 0.21)
    assert len(g) == 4


def _quartic_monomials(eps):
    slots = [(1, 3), (3, 9), (9, 7), (7, 1)]
    return [[ThetaFactor(C(eps, Fraction(k2, 5)), 2, Argument.SYMBOLIC_ZETA),
             ThetaFactor(C(eps, Fraction(k1, 5)), 1, Argument.SYMBOLIC_ZETA)]
            for k2, k1 in slots]


def test_discover_rank_and_direction():
    import cmath
    tau = 0.21 + 1.05j
    z5 = cmath.exp(2j * cmath.pi / 5)
    c1 = theta_eval(C(1, Fraction(1, 5)), 0.0, tau)
    c3 = theta_eval(C(1, Fraction(3, 5)), 0.0, tau)
    targets = {
        Fraction(1, 5): [c3, z5 ** 2 * c1, -z5 ** 4 * c3, -z5 ** 2 * c1],
        Fraction(3, 5): None,  # direction checked for nullity only
    }
    for eps, target in targets.items():
        rel = discover_relations(_quartic_monomials(eps), tau, 9)
        assert rel.nullity == 1
        assert len(rel.singular_values) == 4
        if target is not None:
            got = np.array(rel.coefficients)
            want = np.array(target) / target[0]
            assert np.max(np.abs(got - want)) < 1e-8


def test_discover_validates_input():
    monos = _quartic_monomials(Fraction(1, 5))
    with pytest.raises(ValueError):
        discover_relations(monos, 0.2 + 1.1j, 2)  # too few samples
    with pytest.raises(ValueError):
        discover_relations(monos, 0.2 - 1.1j, 9)  # lower half-plane


def test_discover_independent_monomials_have_zero_nullity():
    monos = [[ThetaFactor(C(0, 0), 3, Argument.SYMBOLIC_ZETA)],
             [ThetaFactor(C(0, 1), 3, Argument.SYMBOLIC_ZETA)],
             [ThetaFactor(C(1, 0), 3, Argument.SYMBOLIC_ZETA)]]
    rel = discover_relations(monos, 0.1 + 1.2j, 8)
    assert rel.nullity == 0
    assert rel.coefficients == []

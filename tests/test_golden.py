"""Byte-identity guard for exact verification.

The files in tests/data hold the output of the Fraction/dict engine that the
packed-integer kernel replaced: `theta5 --format json --cutoff C verify` for
C = 4, 8 and 1/2, and, at cutoff 1/10, each identity's report or the
ValueError message it raises.  The sha256 digests are of the JSON reports of
every sign-flip mutant (seeds 0 and 1) at cutoffs 4 and 8 from that engine.
Regenerate them only for a deliberate change of report semantics.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from theta5.catalog import (Argument, ExpectedStatus, Identity, IdentityKind,
                            IdentityTerm, ThetaFactor, corrupt_identity)
from theta5.catalog_data import builtin_catalog
from theta5.cli import main
from theta5.cyclotomic import Cyclotomic, cyclo_root
from theta5.theta import Characteristic
from theta5.verify import reports_to_json, verify_exact

DATA = Path(__file__).parent / "data"

MUTANT_SHA256 = {
    4: "cbff335eb8d83c13eba011d542e7ec3576422b9751c4dc8218a019818819979d",
    8: "5bfece194a38802b4afc12fb3c959c76022e5e71ebda7daa26cac49c458ed8ac",
}


def _corpus():
    return sorted(builtin_catalog(), key=lambda i: i.id)


@pytest.mark.parametrize("cutoff", ["4", "8", "1/2"])
def test_cli_json_is_byte_identical(capsys, cutoff):
    assert main(["--format", "json", "--cutoff", cutoff, "verify"]) == 0
    name = f"verify_c{cutoff.replace('/', '_')}.json"
    assert capsys.readouterr().out == (DATA / name).read_text()


def test_tiny_cutoff_reports_and_errors_match():
    got = {}
    for ident in _corpus():
        try:
            got[ident.id] = verify_exact(ident, Fraction(1, 10)).to_dict()
        except ValueError as e:
            got[ident.id] = {"error": str(e)}
    assert json.dumps(got, indent=1, sort_keys=True) + "\n" \
        == (DATA / "verify_c1_10.json").read_text()


@pytest.mark.parametrize("cutoff", [4, 8])
def test_every_sign_flip_mutant_fails(cutoff):
    reports = [verify_exact(corrupt_identity(i, seed), cutoff)
               for i in _corpus() for seed in (0, 1)]
    assert not [r.id for r in reports if r.passed]
    blob = reports_to_json(reports).encode()
    assert hashlib.sha256(blob).hexdigest() == MUTANT_SHA256[cutoff]


def test_only_the_suspect_fails_at_cutoff_32():
    for ident in _corpus():
        holds = ident.expected is ExpectedStatus.HOLDS
        assert verify_exact(ident, 32).passed == holds, ident.id


def test_lone_factor_residuals_keep_their_orders():
    # a term that is a single theta factor to the first power writes each
    # residual over the order of that theta coefficient: zeta4 at x^(25/4)
    lone = Identity("lone", IdentityKind.FUNCTION, [
        IdentityTerm(Cyclotomic.one(), [ThetaFactor(
            Characteristic.of(1, Fraction(1, 5)), 1, Argument.SYMBOLIC_ZETA)]),
        IdentityTerm(-Cyclotomic.one(), [ThetaFactor(
            Characteristic.of(0, 0), 1, Argument.SYMBOLIC_ZETA)]),
    ])
    got = [(r["x"], r["z"], r["coeff"])
           for r in verify_exact(lone, 7).to_dict()["residuals"]]
    assert got == [
        ("0/1", "0/1", "-1/1"),
        ("1/4", "-1/2", "1/1*zeta20^1 - 1/1*zeta20^3 + 1/1*zeta20^5 "
                        "- 1/1*zeta20^7"),
        ("1/4", "1/2", "1/1*zeta20^1"),
        ("1/1", "-1/1", "-1/1"),
        ("1/1", "1/1", "-1/1"),
        ("9/4", "-3/2", "-1/1*zeta20^7"),
        ("9/4", "3/2", "1/1*zeta20^3"),
        ("4/1", "-2/1", "-1/1"),
        ("4/1", "2/1", "-1/1"),
        ("25/4", "-5/2", "-1/1*zeta4^1"),
    ]


def test_terms_that_cancel_term_by_term_leave_the_order():
    # the first two terms cancel exactly, so only the third's order (10)
    # is left at each position, not lcm(6, 6, 10)
    sq = [ThetaFactor(Characteristic.of(0, 0), 2)]
    ident = Identity("cancel", IdentityKind.CONSTANT, [
        IdentityTerm(cyclo_root(1, 3), sq), IdentityTerm(-cyclo_root(1, 3), sq),
        IdentityTerm(cyclo_root(1, 5), sq)])
    got = [(r["x"], r["coeff"])
           for r in verify_exact(ident, 2).to_dict()["residuals"]]
    assert got == [("0/1", "1/1*zeta10^2"), ("1/1", "4/1*zeta10^2"),
                   ("2/1", "4/1*zeta10^2")]

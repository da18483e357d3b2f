"""Byte-identity guard for exact verification.

The files in tests/data hold the output of the Fraction/dict engine that the
packed-integer kernel replaced: `theta5 --format json --cutoff C verify` for
C = 4 and 8.  The sha256 digests are of the JSON reports of every sign-flip
mutant (seeds 0 and 1) at cutoffs 4 and 8 from that engine.  verify_c16.json
and the cutoff-16 digest were written the same way at commit bd2cc0d, from
the array-per-field packed kernel, before entries became one sorted int64
key.  Regenerate them only for a deliberate change of report semantics.

verify_c1_2.json (the same command at cutoff 1/2) and verify_c1_10.json
(each identity's report at cutoff 1/10) were rewritten when a report whose
every term is empty up to its cutoff became "inconclusive": before, such an
identity passed with nothing compared, or raised a ValueError for the whole
batch when a factor was empty.  Every other report in them is unchanged.

expand_c4.json holds the theta expansions themselves, written before the
expansion code was rebuilt around one defining-sum function: the stdout of
`theta5 --format json --cutoff 4 expand CHAR [--function]` for the sixteen
characteristics of acceptance criterion 3, and the cutoff, min_x and
to_text() of theta_deriv_series (cutoff 4, both modes) and of shift_integer
and shift_half_period over the shift grids of acceptance criterion 4 at
cutoff 3 (and at the negative cutoff -1/2, which the shifts accept).

numeric_cli.json holds the numeric subcommands' stdout, written before the
numeric kernel was batched: `theta5 --format json --seed S` with `eval`,
`residues`, `resultant` (the theta quadratics) and `--samples 9 discover 15`
and `35`, at seeds 0 and 1.  They print round-off residuals such as
`rel_resultant 1.203e-16`, so they pin the kernel's bits.

`python tests/test_golden.py` rewrites expand_c4.json, numeric_cli.json,
verify_c1_2.json and verify_c1_10.json from the current code.
"""

import contextlib
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from theta5.catalog import (Argument, ExpectedStatus, Identity, IdentityKind,
                            IdentityTerm, ThetaFactor, corrupt_identity)
from theta5.catalog_data import builtin_catalog
from theta5.cli import main
from theta5.cyclotomic import Cyclotomic, cyclo_root
from theta5.theta import (Characteristic, ThetaMode, shift_half_period,
                          shift_integer, theta_deriv_series)
from theta5.verify import reports_to_json, verify_exact

DATA = Path(__file__).parent / "data"

MUTANT_SHA256 = {
    4: "cbff335eb8d83c13eba011d542e7ec3576422b9751c4dc8218a019818819979d",
    8: "5bfece194a38802b4afc12fb3c959c76022e5e71ebda7daa26cac49c458ed8ac",
    16: "190c086ef3c6af6b4b7924f2165d097e248e8355884e709fbda965728f65cde8",
}


def _corpus():
    return sorted(builtin_catalog(), key=lambda i: i.id)


def _stdout(argv):
    """(exit code, stdout) of one CLI run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def verify_json(cutoff):
    return _stdout(["--format", "json", "--cutoff", cutoff, "verify"])


def _verify_file(cutoff):
    return DATA / f"verify_c{cutoff.replace('/', '_')}.json"


#: the exit code of `verify` over the corpus: at cutoff 1/2 no term of 35
#: identities reaches the cutoff, so they are inconclusive
VERIFY_EXIT = {"4": 0, "8": 0, "16": 0, "1/2": 4}


@pytest.mark.parametrize("cutoff", ["4", "8", "16", "1/2"])
def test_cli_json_is_byte_identical(cutoff):
    assert verify_json(cutoff) == (VERIFY_EXIT[cutoff],
                                   _verify_file(cutoff).read_text())


def tiny_cutoff_reports():
    """Each identity's report at cutoff 1/10, as the JSON of verify_c1_10."""
    got = {i.id: verify_exact(i, Fraction(1, 10)).to_dict() for i in _corpus()}
    return json.dumps(got, indent=1, sort_keys=True) + "\n"


def test_tiny_cutoff_reports_and_errors_match():
    # no identity raises: an empty factor empties its term, not the batch
    assert tiny_cutoff_reports() == (DATA / "verify_c1_10.json").read_text()


@pytest.mark.parametrize("cutoff", [4, 8, 16])
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


# -- expansion goldens -------------------------------------------------------------

def _sixteen_chars():
    fifths = [Fraction(k, 5) for k in (1, 3, 5, 7, 9)]
    return ([(e, k) for k in fifths for e in (Fraction(1, 5), Fraction(3, 5))]
            + [(1, Fraction(1, 5)), (1, Fraction(3, 5)),
               (0, 0), (1, 0), (0, 1), (1, 1)])


def _series_record(s):
    return {"cutoff": str(s.cutoff), "min_x": str(s.min_x),
            "text": s.to_text()}


def expansion_goldens():
    """Every expansion golden, keyed by a readable description."""
    out = {}
    for eps, epsp in _sixteen_chars():
        char = f"{eps},{epsp}"
        for flag in ([], ["--function"]):
            code, out[" ".join(["expand", char, *flag])] = _stdout(
                ["--format", "json", "--cutoff", "4", "expand", char, *flag])
            assert code == 0
        c = Characteristic.of(eps, epsp)
        for mode in ThetaMode:
            out[f"deriv {c} {mode.value} 4"] = _series_record(
                theta_deriv_series(c, 4, mode))
    shift_chars = [Characteristic.of(Fraction(1, 5), Fraction(3, 5)),
                   Characteristic.of(Fraction(3, 5), 1),
                   Characteristic.of(1, 1)]
    for cut in (Fraction(3), Fraction(-1, 2)):
        for c in shift_chars:
            for m in (-1, 0, 1):
                for n in (-1, 0, 1):
                    out[f"shift_integer {c} {m} {n} {cut}"] = _series_record(
                        shift_integer(c, m, n, cut))
            for m in (0, 1):
                for n in (0, 1):
                    out[f"shift_half_period {c} {m} {n} {cut}"] = \
                        _series_record(shift_half_period(c, m, n, cut))
    return out


def test_expansions_are_byte_identical():
    want = json.loads((DATA / "expand_c4.json").read_text())
    got = expansion_goldens()
    assert sorted(got) == sorted(want)
    assert not [k for k in want if got[k] != want[k]]


# -- numeric goldens ------------------------------------------------------------

def numeric_cli_outputs():
    """stdout of each numeric subcommand, keyed by its argument line."""
    out = {}
    for seed in ("0", "1"):
        for cmd in (["eval"], ["residues"], ["resultant"],
                    ["--samples", "9", "discover", "15"],
                    ["--samples", "9", "discover", "35"]):
            argv = ["--format", "json", "--seed", seed, *cmd]
            code, out[" ".join(argv)] = _stdout(argv)
            assert code == 0, argv
    return out


def test_numeric_cli_is_byte_identical():
    want = json.loads((DATA / "numeric_cli.json").read_text())
    got = numeric_cli_outputs()
    assert sorted(got) == sorted(want)
    assert not [k for k in want if got[k] != want[k]]


if __name__ == "__main__":
    (DATA / "expand_c4.json").write_text(
        json.dumps(expansion_goldens(), indent=1, sort_keys=True) + "\n")
    (DATA / "numeric_cli.json").write_text(
        json.dumps(numeric_cli_outputs(), indent=1, sort_keys=True) + "\n")
    _verify_file("1/2").write_text(verify_json("1/2")[1])
    (DATA / "verify_c1_10.json").write_text(tiny_cutoff_reports())

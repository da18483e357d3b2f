import json
import os
import pathlib
import subprocess
import sys

import pytest

from theta5 import cli
from theta5.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_pass(capsys):
    code, out = run(capsys, "--cutoff", "2", "verify",
                    "jacobi-quartic", "quintic-eps15")
    assert code == 0
    assert "batch: PASS" in out


def test_verify_suspect_does_not_fail_batch(capsys):
    code, out = run(capsys, "--cutoff", "2", "verify",
                    "quintic-epsp35-printed", "quintic-epsp35-corrected")
    assert code == 0
    assert "suspect" in out


def test_verify_unknown_id_is_usage_error(capsys):
    code, _ = run(capsys, "verify", "no-such-identity")
    assert code == 2


def test_verify_corrupted_catalog_fails(capsys, tmp_path):
    from theta5.catalog import corrupt_identity, identity_to_dict
    from theta5.catalog_data import builtin_catalog
    bad = corrupt_identity(builtin_catalog()[0], 0)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([identity_to_dict(bad)]))
    code, out = run(capsys, "--cutoff", "2", "--catalog", str(path), "verify")
    assert code == 1
    assert "FAIL" in out


def _first_factor(entry):
    return entry["terms"][0]["factors"][0]


#: (a name, an edit of jacobi-quartic's identity_to_dict or a whole file's
#: JSON, the error line after "error: ")
_MALFORMED = [
    ("entry", [5], "a catalog entry must be a JSON object, got 5"),
    ("terms", lambda d: d.update(terms=5),
     "identity 'jacobi-quartic': field 'terms' must be a list of objects, "
     "got 5"),
    ("factor", lambda d: d["terms"][1].update(factors=[5]),
     "identity 'jacobi-quartic': field 'factors' must be a list of objects, "
     "got [5]"),
    ("scalar", lambda d: d["terms"][0].update(scalar=1),
     "identity 'jacobi-quartic': field 'scalar' must be a string, got 1"),
    ("eps-null", lambda d: _first_factor(d).update(eps=None),
     "identity 'jacobi-quartic': field 'eps' must be a string or an "
     "integer, got null"),
    ("eps-float", lambda d: _first_factor(d).update(eps=0.2),
     "identity 'jacobi-quartic': field 'eps' must be a string or an "
     "integer, got 0.2"),
    ("epsp-zero-denominator", lambda d: _first_factor(d).update(epsp="1/0"),
     "identity 'jacobi-quartic': field 'epsp' has a zero denominator"),
    ("id", lambda d: d.update(id=["x"]),
     "identity ['x']: field 'id' must be a string, got [\"x\"]"),
    ("pow-float", lambda d: _first_factor(d).update(pow=4.7),
     "identity 'jacobi-quartic': field 'pow' must be an integer, got 4.7"),
    ("pow-true", lambda d: _first_factor(d).update(pow=True),
     "identity 'jacobi-quartic': field 'pow' must be an integer, got true"),
    ("pow-zero", lambda d: _first_factor(d).update(pow=0),
     "identity 'jacobi-quartic': field 'pow': factor power must be >= 1"),
    ("pow-negative", lambda d: _first_factor(d).update(pow=-2),
     "identity 'jacobi-quartic': field 'pow': factor power must be >= 1"),
    ("kind", lambda d: d.update(kind="cubic"),
     "identity 'jacobi-quartic': field 'kind': 'cubic' is not a valid "
     "IdentityKind"),
]


@pytest.mark.parametrize("edit, message", [c[1:] for c in _MALFORMED],
                         ids=[c[0] for c in _MALFORMED])
def test_malformed_catalog_is_an_input_error(capsys, tmp_path, edit, message):
    from theta5.catalog import identity_to_dict
    from theta5.catalog_data import builtin_catalog
    data = edit
    if callable(edit):   # an edit of jacobi-quartic
        data = [identity_to_dict(builtin_catalog()[0])]
        edit(data[0])
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    code = main(["--catalog", str(path), "verify"])
    out, err = capsys.readouterr()
    assert code == 2 and not out
    assert err.splitlines() == ["error: " + message]


def _fifth_third_catalog(path):
    """A catalog of theta[1/5;0] - theta[1/5;0] + theta[1/3;0] -
    theta[1/3;0] = 0, whose common grid (dx = 900) is finer than either
    factor's."""
    from fractions import Fraction
    from theta5.catalog import (Identity, IdentityKind, IdentityTerm,
                                ThetaFactor, save_catalog)
    from theta5.cyclotomic import Cyclotomic
    from theta5.theta import Characteristic
    one = Cyclotomic.one()
    terms = [IdentityTerm(s, [ThetaFactor(Characteristic.of(Fraction(1, q), 0), 1)])
             for q in (5, 3) for s in (one, -one)]
    save_catalog([Identity("fifth-third", IdentityKind.CONSTANT, terms)], path)


def _factorless_catalogs(tmp_path):
    """Catalogs of 1 - 2 = 0 and 1 - 1 = 0, terms with no theta factor, of
    each kind, by name."""
    from theta5.catalog import (Identity, IdentityKind, IdentityTerm,
                                save_catalog)
    from theta5.cyclotomic import Cyclotomic
    paths = {}
    for kind in IdentityKind:
        for name, c in (("1-2", 2), ("1-1", 1)):
            terms = [IdentityTerm(Cyclotomic.from_rational(s), [])
                     for s in (1, -c)]
            path = paths[kind.value, name] = tmp_path / f"{kind.value}{name}"
            save_catalog([Identity("factorless", kind, terms)], path)
    return paths


def _overflow_catalogs(tmp_path):
    """Catalogs of one identity each, a term minus itself: theta[0;0]^12000
    theta[2;0]^12000 (each power about 1e299 at the default tau samples,
    their product past a double at two of them; theta[2;0] is theta[0;0])
    and theta[0;0]^200000 (past a double itself), by name."""
    from theta5.catalog import (Identity, IdentityKind, IdentityTerm,
                                ThetaFactor, save_catalog)
    from theta5.cyclotomic import Cyclotomic
    from theta5.theta import Characteristic
    paths = {}
    for name, factors in (("product", ((0, 12000), (2, 12000))),
                          ("power", ((0, 200000),))):
        terms = [IdentityTerm(s, [ThetaFactor(Characteristic.of(e, 0), p)
                                  for e, p in factors])
                 for s in (Cyclotomic.one(), -Cyclotomic.one())]
        paths[name] = tmp_path / f"{name}.json"
        save_catalog([Identity(f"overflow-{name}", IdentityKind.CONSTANT,
                               terms)], paths[name])
    return paths


@pytest.mark.parametrize("name", ["product", "power"])
def test_eval_reports_a_residual_past_a_double(capsys, tmp_path, name):
    # neither a pass (a NaN residual lost in the maximum) nor an internal
    # error (Python's OverflowError): a usage error naming the identity
    from theta5.catalog import load_catalog
    from theta5.numeric import identity_residual, sample_tau
    path = _overflow_catalogs(tmp_path)[name]
    code = main(["--catalog", str(path), "eval"])
    out, err = capsys.readouterr()
    assert code == 2 and not out
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: overflow-{name}: residual at tau=")
    assert err.endswith(" overflows a double\n")
    (ident,) = load_catalog(path)
    taus = sample_tau(0, 3)
    for tau in taus[1:] if name == "product" else taus:
        with pytest.raises(ValueError, match="overflows a double"):
            identity_residual(ident, tau)
    if name == "product":
        assert identity_residual(ident, taus[0]) == 0.0


def test_verify_exit_code_matrix(capsys, tmp_path, monkeypatch):
    # pass 0, fail 1, usage 2, internal 3, inconclusive 4; a counted
    # failure wins over an inconclusive report, and a suspected misprint
    # counts toward neither
    import dataclasses
    from theta5.catalog import (ExpectedStatus, corrupt_identity,
                                save_catalog)
    from theta5.catalog_data import builtin_catalog
    from theta5 import series, verify
    # at 10^7 jacobi-quartic's terms pass the lane's budget, and squaring
    # theta[0;0] makes 10^7 operand pairs: both limits are lowered, so the
    # refusal allocates nothing (the other cases stay far below them)
    monkeypatch.setattr(series, "_PAIR_LIMIT", 10 ** 6)
    monkeypatch.setattr(verify, "_LANE_ENTRIES", 10 ** 5)
    by_id = {i.id: i for i in builtin_catalog()}
    empty = by_id["two-theta-15-2"]   # every term empty at cutoff 1/2
    mixed, suspect = tmp_path / "mixed.json", tmp_path / "suspect.json"
    save_catalog([corrupt_identity(by_id["jacobi-quartic"], 0), empty], mixed)
    save_catalog([by_id["jacobi-quartic"], dataclasses.replace(
        empty, expected=ExpectedStatus.SUSPECT_TYPO)], suspect)
    flipped, grid = tmp_path / "flipped.json", tmp_path / "grid.json"
    save_catalog([corrupt_identity(by_id["jacobi-quartic"], 0)], flipped)
    _fifth_third_catalog(grid)
    factorless = _factorless_catalogs(tmp_path)
    cases = [
        (["--cutoff", "2", "verify", "jacobi-quartic"], 0, "batch: PASS"),
        (["--cutoff", "2", "--catalog", str(mixed), "verify"], 1,
         "batch: FAIL"),
        (["--cutoff", "1/2", "--catalog", str(mixed), "verify"], 1,
         "batch: FAIL"),
        (["--cutoff", "1/2", "--catalog", str(suspect), "verify"], 0,
         "batch: PASS"),
        (["verify", "no-such-identity"], 2, None),
        (["--cutoff", "1/2", "verify"], 4, "batch: INCONCLUSIVE"),
        (["--cutoff", "1/0", "verify"], 2, None),
        (["--cutoff", "10000000000", "verify"], 2, None),
        (["--cutoff", "100000000000000000000000", "verify"], 2, None),
        (["--cutoff", "100000000000000000000000", "expand", "0,0"], 2, None),
        (["--cutoff", "10000000", "verify", "jacobi-quartic"], 2, None),
        # each factor is in the key range at 2 * 10^7, the common grid not
        (["--cutoff", "20000000", "--catalog", str(grid), "verify"], 2, None),
        (["--cutoff", "1000000", "--catalog", str(grid), "verify"], 0,
         "batch: PASS"),
        # a term with no theta factor is its scalar, of either kind
        *((["--catalog", str(path), "verify"], 1 if name == "1-2" else 0,
           "batch: FAIL" if name == "1-2" else "batch: PASS")
          for (_, name), path in factorless.items()),
        # a tolerance outside [0, 1) would pass a sign flip, or nothing
        (["--tol", "inf", "--catalog", str(flipped), "eval"], 2, None),
        (["--tol", "nan", "discover", "15"], 2, None),
        (["--tol", "-1", "resultant"], 2, None),
        (["--tol", "1", "--catalog", str(flipped), "eval"], 2, None),
        (["--tol", "0", "--catalog", str(flipped), "eval"], 1, "batch: FAIL"),
        (["--catalog", str(flipped), "eval"], 1, "batch: FAIL"),
        (["eval", "jacobi-quartic"], 0, "batch: PASS"),
    ]
    for argv, want, batch in cases:
        try:
            code = main(argv)
        except SystemExit as e:   # argparse's usage errors
            code = e.code
        out, err = capsys.readouterr()
        assert code == want, argv
        assert batch is None or out.splitlines()[-1].startswith(batch), argv
        assert want != 2 or "error:" in err, argv
    assert cli.EXIT_INCONCLUSIVE == 4
    monkeypatch.setattr(cli, "verify_all", lambda *args: 1 / 0)
    assert main(["verify"]) == cli.EXIT_INTERNAL == 3


def test_json_output_is_byte_identical_across_runs(capsys):
    args = ("--cutoff", "2", "--format", "json", "verify",
            "fk-cubic-1", "three-theta-15-1")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    blob = json.loads(out1)
    assert blob["schema"] == 1
    assert all(r["elapsed_ms"] is None for r in blob["reports"])


def test_verify_text_names_a_derived_pass(capsys):
    # a member's line names its representative; the JSON does not
    args = ("--cutoff", "4", "verify", "ratio-15-del3", "ratio-15-del1")
    code, out = run(capsys, *args)
    assert code == 0
    lines = {line.split()[0]: line for line in out.splitlines()}
    assert lines["ratio-15-del3"].endswith("  derived from ratio-15-del1")
    assert "derived" not in lines["ratio-15-del1"]
    code, out = run(capsys, "--format", "json", *args)
    assert code == 0 and "derived" not in out


def test_expand_text_and_json(capsys):
    code, out = run(capsys, "--cutoff", "1", "expand", "0/1,0/1")
    assert code == 0
    assert out.splitlines()[0] == "0 0 1/1"
    code, out = run(capsys, "--cutoff", "1", "--format", "json",
                    "expand", "1/5,3/5")
    blob = json.loads(out)
    assert blob["terms"][0]["x"] == "1/100"


def test_expand_builds_one_format(capsys, monkeypatch):
    # each coefficient is printed once, in the format asked for
    from theta5.cyclotomic import Cyclotomic
    printed, to_string = [], Cyclotomic.to_string
    monkeypatch.setattr(Cyclotomic, "to_string",
                        lambda c: printed.append(1) or to_string(c))
    for fmt in ("text", "json"):
        printed.clear()
        code, out = run(capsys, "--cutoff", "8", "--format", fmt,
                        "expand", "1/5,3/5", "--function")
        assert code == 0
        terms = out.count("\n") if fmt == "text" else len(
            json.loads(out)["terms"])
        assert terms and len(printed) == terms, fmt


def test_expand_bad_char(capsys):
    for argv in (["expand", "nonsense"], ["expand", "1/0,1"],
                 ["--cutoff", "1/0", "expand", "0,1"]):
        code, _ = run(capsys, *argv)
        assert code == 2, argv


def test_eval_subcommand(capsys):
    code, out = run(capsys, "--samples", "2", "eval",
                    "quintic-eps15", "two-theta-15-10")
    assert code == 0
    assert "batch: PASS" in out


def test_residues_subcommand(capsys):
    code, out = run(capsys, "--samples", "1", "residues", "psi")
    assert code == 0
    assert "psi" in out and "phi" not in out


@pytest.mark.parametrize("command", ["eval", "residues", "resultant"])
@pytest.mark.parametrize("samples", ["0", "-2"])
def test_samples_below_one_is_usage_error(capsys, command, samples):
    for argv in (["--samples", samples, command], [command, "--samples", samples]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--samples must be >= 1" in capsys.readouterr().err


def test_discover_subcommand(capsys):
    code, out = run(capsys, "--samples", "6", "discover", "35")
    assert code == 0
    assert "nullity 1" in out


def test_discover_defaults_to_a_nine_point_grid(capsys):
    code, out = run(capsys, "--format", "json", "discover", "15")
    assert code == 0
    assert out == run(capsys, "--format", "json", "--samples", "9",
                      "discover", "15")[1]


def test_discover_explicit_samples_win_before_or_after(capsys):
    before = run(capsys, "--format", "json", "--samples", "6", "discover", "35")
    after = run(capsys, "--format", "json", "discover", "35", "--samples", "6")
    assert before == after
    assert before[0] == 0
    assert before[1] != run(capsys, "--format", "json", "discover", "35")[1]


def test_discover_with_three_samples_is_usage_error(capsys):
    for argv in (["--samples", "3", "discover", "15"],
                 ["discover", "15", "--samples", "3"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: need at least as many zeta samples as monomials\n")


def test_sigma_subcommand(capsys):
    code, out = run(capsys, "sigma", "50")
    assert code == 0
    assert "PASS" in out


def test_resultant_exact_subcommand(capsys):
    code, out = run(capsys, "resultant", "--f=-1,0,1", "--g=-4,0,1")
    assert code == 0
    assert "resultant = 9/1" in out


def test_resultant_requires_both_polys(capsys):
    code, _ = run(capsys, "resultant", "--f", "1,1")
    assert code == 2


@pytest.mark.parametrize("f, g", [("0", "5"), ("5", "0"), ("0,0", "3")])
def test_resultant_of_a_zero_polynomial_is_a_usage_error(capsys, f, g):
    assert main(["resultant", "--f", f, "--g", g]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: resultant of the zero polynomial is undefined\n"


def test_global_flags_after_subcommand(capsys):
    code, out = run(capsys, "verify", "jacobi-quartic", "--cutoff", "2")
    assert code == 0


def _python(*args):
    """A fresh interpreter run with src/ on its path, as the tests have it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def test_console_script_entry_point():
    proc = _python("-m", "theta5.cli", "--cutoff", "1", "expand", "0,1")
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_import_does_not_load_scipy():
    proc = _python("-c", "import sys, theta5; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_eval_does_not_load_numpy_ma():
    # the first point-cache fill groups its rows without np.unique, whose
    # import of numpy.ma costs every eval process time and memory
    code = ("import sys; from theta5.cli import main; "
            "main(['--seed', '0', 'eval']); print('numpy.ma' in sys.modules)")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    # an uncaught exception is not a failed identity (1) or a usage error (2)
    def broken(args):
        raise RuntimeError("kernel\nfault")

    monkeypatch.setattr(cli, "cmd_sigma", broken)
    code = main(["sigma", "10"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 3
    assert captured.err == "internal error: RuntimeError: kernel fault\n"
    assert captured.out == ""

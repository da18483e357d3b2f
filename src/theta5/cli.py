"""Command-line front end.

Subcommands: verify, expand, eval, residues, discover, sigma, resultant.
Exit codes: 0 = success / all checks pass, 1 = a verification failed,
2 = usage or input error, 3 = internal error (an uncaught exception),
4 = verify failed nothing but compared nothing for some identity (every
term of it is empty at the cutoff); suspected misprints count for neither.
JSON output carries "schema": 1 and is byte-identical across identical runs
(timings are text-mode only).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import catalog_data
from .catalog import (Argument, ExpectedStatus, IdentityKind, ThetaFactor,
                      load_catalog, parse_scalar)
from .divisors import verify_sigma_convolution
from .numeric import (EvalConfig, RESIDUE_WITNESSES, identity_residual,
                      residue_report, sample_tau, sample_zeta)
from .resultant import resultant, resultant_2x2, shared_root_ratio, theta_quadratics
from .theta import Characteristic, ThetaMode, theta_series
from .verify import batch_status, discover_relations, verify_all

EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_INTERNAL = 0, 1, 2, 3
EXIT_INCONCLUSIVE = 4


def _fmt_complex(v):
    return f"{v.real:.12g},{v.imag:.12g}"


def _emit(args, payload, text_lines):
    if args.format == "json":
        payload = {"schema": 1, **payload}
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _get_catalog(args):
    """The catalog, narrowed to args.ids when any are given."""
    cat = (load_catalog(args.catalog) if args.catalog
           else list(catalog_data.builtin_catalog()))
    if args.ids:
        wanted = set(args.ids)
        cat = [i for i in cat if i.id in wanted]
        missing = wanted - {i.id for i in cat}
        if missing:
            raise ValueError(f"unknown identity ids: {sorted(missing)}")
    return cat


def _parse_char(text):
    try:
        eps, epsp = text.split(",")
        return Characteristic.of(Fraction(eps), Fraction(epsp))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad characteristic {text!r}; expected eps,epsp "
                         "as rationals, e.g. 1/5,3/5")


def _parse_cutoff(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad cutoff {text!r}; expected a rational p/q")


# -- subcommands ---------------------------------------------------------------

def cmd_verify(args):
    cat = _get_catalog(args)
    t0 = time.perf_counter()
    reports = verify_all(cat, _parse_cutoff(args.cutoff))
    elapsed = time.perf_counter() - t0
    status = batch_status(cat, reports)
    expected = {i.id: i.expected for i in cat}
    lines = []
    for r in reports:
        tag = r.status.upper()
        if expected.get(r.id) is ExpectedStatus.SUSPECT_TYPO:
            tag += " (suspect, not counted)"
        lines.append(f"{r.id:40s} {tag}  [{r.elapsed_ms:.0f} ms]"
                     + (f"  derived from {r.derived_from['id']}"
                        if r.derived_from else ""))
    lines.append(f"batch: {status.upper()} "
                 f"({len(reports)} identities, {elapsed:.1f} s)")
    _emit(args, {"reports": [r.to_dict() for r in reports]}, lines)
    return {"pass": EXIT_OK, "fail": EXIT_FAIL,
            "inconclusive": EXIT_INCONCLUSIVE}[status]


def cmd_expand(args):
    c = _parse_char(args.char)
    mode = (ThetaMode.FUNCTION if args.function_mode
            else ThetaMode.CONSTANT)
    cutoff = _parse_cutoff(args.cutoff)
    s = theta_series(c, mode, cutoff)
    if args.format == "text":   # each format decodes every coefficient:
        _emit(args, None, [s.to_text()])   # build only the one asked for
        return EXIT_OK
    payload = {
        "char": {"eps": str(c.eps), "epsp": str(c.epsp)},
        "mode": mode.value,
        "cutoff": str(cutoff),
        "terms": [
            {"x": f"{e.xExp.numerator}/{e.xExp.denominator}",
             "z": f"{e.zExp.numerator}/{e.zExp.denominator}",
             "coeff": v.to_string()}
            for e, v in s.items()
        ],
    }
    _emit(args, payload, [])
    return EXIT_OK


def cmd_eval(args):
    cat = _get_catalog(args)
    cfg = EvalConfig(tol=min(args.tol, 1e-12))
    taus = sample_tau(args.seed, args.samples)
    zetas = sample_zeta(args.seed, 5)
    rows, lines = [], []
    for ident in sorted(cat, key=lambda i: i.id):
        points = zetas if ident.kind is IdentityKind.FUNCTION else [None]
        worst = max(0.0, *(identity_residual(ident, tau, z, cfg)
                           for tau in taus for z in points))
        expected_fail = ident.expected is ExpectedStatus.SUSPECT_TYPO
        ok = (worst <= args.tol) != expected_fail
        rows.append({"id": ident.id, "max_residual": f"{worst:.3e}",
                     "status": "pass" if ok else "fail"})
        lines.append(f"{ident.id:40s} max residual {worst:.3e}  "
                     f"{'PASS' if ok else 'FAIL'}")
    ok = all(r["status"] == "pass" for r in rows)
    lines.append(f"batch: {'PASS' if ok else 'FAIL'} "
                 f"(tol {args.tol:g}, {args.samples} tau samples)")
    _emit(args, {"tol": args.tol, "seed": args.seed, "results": rows}, lines)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_residues(args):
    taus = sample_tau(args.seed, args.samples)
    rows, lines = [], []
    ok = True
    for w in RESIDUE_WITNESSES:
        if args.witness not in ("all", w.name):
            continue
        for tau in taus:
            rep = residue_report(w, tau)
            ok = ok and rep.passed
            rows.append({
                "witness": w.name, "tau": _fmt_complex(tau),
                "max_rel_error": f"{rep.max_rel_error:.3e}",
                "sum_abs": f"{rep.sum_abs:.3e}",
                "residues": [_fmt_complex(v) for v in rep.numeric],
                "status": "pass" if rep.passed else "fail",
            })
            lines.append(f"{w.name} tau={_fmt_complex(tau)}  "
                         f"closed-form err {rep.max_rel_error:.3e}  "
                         f"sum {rep.sum_abs:.3e}  "
                         f"{'PASS' if rep.passed else 'FAIL'}")
    lines.append(f"batch: {'PASS' if ok else 'FAIL'}")
    _emit(args, {"seed": args.seed, "results": rows}, lines)
    return EXIT_OK if ok else EXIT_FAIL


def _discovery_family(family):
    """The quartic three-theta monomial families: squares-times-singles in
    theta[eps; k/5](zeta) for eps = 1/5 or 3/5."""
    eps = Fraction(1, 5) if family == "15" else Fraction(3, 5)
    return [[ThetaFactor(Characteristic.of(eps, Fraction(k, 5)), power,
                         Argument.SYMBOLIC_ZETA)
             for k, power in ((k2, 2), (k1, 1))]
            for k2, k1 in ((1, 3), (3, 9), (9, 7), (7, 1))]


def cmd_discover(args):
    monos = _discovery_family(args.family)
    taus = sample_tau(args.seed, 1)
    rel = discover_relations(monos, taus[0], args.samples,
                             threshold=args.tol)
    payload = {
        "family": args.family,
        "tau": _fmt_complex(rel.tau),
        "nullity": rel.nullity,
        "singular_values": [f"{s:.6e}" for s in rel.singular_values],
        "coefficients": [_fmt_complex(c) for c in rel.coefficients],
    }
    lines = [f"family {args.family}: nullity {rel.nullity} "
             f"(rank {len(monos) - rel.nullity} of {len(monos)})"]
    for i, c in enumerate(rel.coefficients):
        lines.append(f"  c[{i}] = {_fmt_complex(c)}")
    _emit(args, payload, lines)
    return EXIT_OK if rel.nullity == 1 else EXIT_FAIL


def cmd_sigma(args):
    rep = verify_sigma_convolution(args.n)
    payload = {"n_max": rep.n_max, "checked": rep.checked,
               "failures": [{"n": n, "lhs": l, "rhs": r}
                            for n, l, r in rep.failures],
               "status": "pass" if rep.passed else "fail"}
    lines = [f"sigma(3n+2) convolution, n <= {rep.n_max}: "
             f"{rep.checked} checked, {len(rep.failures)} failures  "
             f"{'PASS' if rep.passed else 'FAIL'}"]
    _emit(args, payload, lines)
    return EXIT_OK if rep.passed else EXIT_FAIL


def _parse_poly(text):
    return [parse_scalar(c) for c in text.split(",")]


def cmd_resultant(args):
    if args.f or args.g:
        if not (args.f and args.g):
            raise ValueError("--f and --g must be given together")
        f, g = _parse_poly(args.f), _parse_poly(args.g)
        r = resultant(f, g)
        payload = {"resultant": r.to_string(),
                   "is_zero": r.is_zero()}
        _emit(args, payload, [f"resultant = {r.to_string()}"])
        return EXIT_OK
    # default: numeric check that the two theta quadratics share a root
    taus = sample_tau(args.seed, args.samples)
    zetas = sample_zeta(args.seed, 2)
    rows, lines, ok = [], [], True
    for tau in taus:
        fq, gq = theta_quadratics(tau, zetas[0], zetas[1])
        R = resultant_2x2(fq, gq)
        scale = max(abs(c) for c in (*fq, *gq))
        rel = abs(R) / scale ** 4
        x = shared_root_ratio(tau)
        fx = abs(fq[0] * x * x + fq[1] * x + fq[2]) / scale
        this_ok = rel < args.tol and fx < args.tol
        ok = ok and this_ok
        rows.append({"tau": _fmt_complex(tau), "rel_resultant": f"{rel:.3e}",
                     "root_residual": f"{fx:.3e}",
                     "status": "pass" if this_ok else "fail"})
        lines.append(f"tau={_fmt_complex(tau)}  |R|/scale^4 {rel:.3e}  "
                     f"f(root) {fx:.3e}  {'PASS' if this_ok else 'FAIL'}")
    lines.append(f"batch: {'PASS' if ok else 'FAIL'}")
    _emit(args, {"seed": args.seed, "results": rows}, lines)
    return EXIT_OK if ok else EXIT_FAIL


# -- argument parsing -----------------------------------------------------------

_GLOBAL_DEFAULTS = {"cutoff": "4", "tol": 1e-9, "seed": 0, "samples": None,
                    "catalog": None, "format": "text"}
#: --samples when not given: 3 tau samples, or for discover a zeta grid of 9
#: points (it needs one per monomial at least, and each family has four)
_DEFAULT_SAMPLES = {"discover": 9}


def _add_common(parser, top_level):
    # global flags are accepted both before and after the subcommand; the
    # subparser copies use SUPPRESS so their defaults never clobber a value
    # parsed at the top level (argparse shares action objects across parents,
    # so each parser gets its own fresh action instances here)
    d = (lambda k: _GLOBAL_DEFAULTS[k]) if top_level \
        else (lambda k: argparse.SUPPRESS)
    parser.add_argument("--cutoff", default=d("cutoff"),
                        help="x-exponent cutoff p/q")
    parser.add_argument("--tol", type=float, default=d("tol"),
                        help="numeric tolerance")
    parser.add_argument("--seed", type=int, default=d("seed"),
                        help="RNG seed")
    parser.add_argument("--samples", type=int, default=d("samples"),
                        help="number of tau (or zeta-grid) samples "
                             "(default 3; 9 for discover)")
    parser.add_argument("--catalog", default=d("catalog"),
                        help="path to a JSON catalog (default: built-in corpus)")
    parser.add_argument("--format", choices=("json", "text"),
                        default=d("format"))


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, top_level=False)

    p = argparse.ArgumentParser(
        prog="theta5",
        description="Exact and numeric verification of level-five "
                    "theta-constant identities.")
    _add_common(p, top_level=True)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("verify", parents=[common],
                       help="exact series verification")
    s.add_argument("ids", nargs="*", help="identity ids (default: all)")
    s.set_defaults(handler=cmd_verify)

    s = sub.add_parser("expand", parents=[common], help="print a theta q-expansion")
    s.add_argument("char", help="characteristic eps,epsp (e.g. 1/5,3/5)")
    s.add_argument("--function", dest="function_mode", action="store_true",
                   help="keep z-powers (theta function of zeta)")
    s.set_defaults(handler=cmd_expand)

    s = sub.add_parser("eval", parents=[common], help="numeric residuals at sampled tau")
    s.add_argument("ids", nargs="*", help="identity ids (default: all)")
    s.set_defaults(handler=cmd_eval)

    s = sub.add_parser("residues", parents=[common],
                       help="contour residues of the quintic witnesses")
    s.add_argument("witness", nargs="?", default="all",
                   choices=("all", "phi", "psi"))
    s.set_defaults(handler=cmd_residues)

    s = sub.add_parser("discover", parents=[common],
                       help="rediscover a relation from numeric sampling")
    s.add_argument("family", choices=("15", "35"),
                   help="eps = 1/5 or 3/5 monomial family")
    s.set_defaults(handler=cmd_discover)

    s = sub.add_parser("sigma", parents=[common], help="divisor-sum convolution check")
    s.add_argument("n", type=int, help="check all n up to this bound")
    s.set_defaults(handler=cmd_sigma)

    s = sub.add_parser("resultant", parents=[common],
                       help="resultants: exact (--f/--g) or theta quadratics")
    s.add_argument("--f", default=None,
                   help="comma-separated coefficients, degree-0 first")
    s.add_argument("--g", default=None,
                   help="comma-separated coefficients, degree-0 first")
    s.set_defaults(handler=cmd_resultant)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.samples is None:
        args.samples = _DEFAULT_SAMPLES.get(args.command, 3)
    if args.samples < 1:  # zero samples would check nothing and still pass
        parser.error(f"--samples must be >= 1, got {args.samples}")
    if not 0 <= args.tol < 1:   # EvalConfig's range; nan and inf fall outside
        parser.error(f"--tol must be in [0, 1), got {args.tol}")
    try:
        return args.handler(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:  # a fault of theta5, never a failed identity
        msg = " ".join(f"{type(e).__name__}: {e}".split())
        print(f"internal error: {msg}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

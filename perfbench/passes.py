"""One benchmark pass, run in a fresh interpreter by run.py.

theta5 keeps lru_caches (theta series, monomial series, the numeric theta
sum) for the life of a process, so every user-facing invocation starts cold.
A second pass in the same interpreter would time cache hits no user gets;
hence one interpreter per pass.

    python3 perfbench/passes.py PART --seed N --size full|smoke
        --spawned T [--trace SPANS.jsonl]

prints one JSON line: set-up times, the pass time, peak RSS, the operation
counts and, with --trace, the per-layer numbers of the pass.  PART "setup"
stops once the catalog is ready.  Inputs are made from the seed before the
clock starts; theta5 sees only the generated inputs.
"""

import cmath
import gc
import json
import os
import random
import resource
import statistics
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Parameters per part, at full size and at the smallest size (smoke test).
#: At full size a part takes about 1-22 s on a shared 2-core x86 machine.
SIZES = {
    "full": {
        "verify_c8": {"cutoff": 8},
        "verify_c16": {"cutoff": 16},
        "verify_c32": {"cutoff": 32},
        "residues": {"taus": 1, "samples": None},
        "eval": {"taus": 120},
        "relations": {"taus": 800},
        "resultant_exact": {"degrees": (2, 3, 4, 5), "pairs": 2},
        "sigma": {"n_max": 4000},
    },
    "smoke": {
        "verify_c8": {"cutoff": 2},
        "verify_c16": {"cutoff": 2},
        "verify_c32": {"cutoff": 2},
        "residues": {"taus": 1, "samples": 64},
        "eval": {"taus": 1},
        "relations": {"taus": 1},
        "resultant_exact": {"degrees": (2,), "pairs": 1},
        "sigma": {"n_max": 50},
    },
}

#: The host is shared and its speed drifts by up to a half over minutes,
#: which moves every pass's wall time.  Fixed work that never touches theta5
#: (the reference) is timed between operations, once per REF_EVERY_S of
#: them, and each stretch of operations is scaled by the reference times
#: around it to the speed at which one reference takes REF_NOMINAL_S.  A
#: slower theta5 still shows in full: the reference's own time does not
#: depend on it.
REF_EVERY_S = 0.3      # operation time between two references
REF_NOMINAL_S = 0.008
EVAL_TOL = 1e-9        # the `theta5 eval` default
NUMERIC_TOL = 1e-8     # acceptance bound for discovery and theta quadratics
DISCOVERY_SAMPLES = 9


class Op:
    """One timed call into theta5 and the oracle for its result."""
    __slots__ = ("id", "call", "verdict")

    def __init__(self, id, call, verdict):
        self.id, self.call, self.verdict = id, call, verdict


# -- seeded inputs ----------------------------------------------------------

def seeded_taus(rng, count):
    """tau with Re in [-0.5, 0.5] and Im in [0.8, 2.0], one per equal slice
    of the Im range: the cost of a theta sum grows as Im tau falls, so
    stratifying keeps a pass's cost from depending on the seed's luck."""
    return [complex(rng.uniform(-0.5, 0.5),
                    0.8 + 1.2 * (i + rng.random()) / count)
            for i in range(count)]


def residue_taus(rng, count):
    """tau with Re seeded in [-0.5, 0.5] and Im at the midpoints of `count`
    equal slices of [0.8, 2.0]: a pass makes only a few residue reports, and
    a seeded Im would move its cost by a tenth from one seed to the next."""
    return [complex(rng.uniform(-0.5, 0.5), 0.8 + 1.2 * (i + 0.5) / count)
            for i in range(count)]


def seeded_zetas(rng, count):
    """zeta away from lattice points and the rational zero/pole loci."""
    return [complex(rng.uniform(0.03, 0.47), rng.uniform(0.05, 0.25))
            for _ in range(count)]


# -- parts: each returns the list of operations of one pass -----------------

def verify_ops(t5, catalog, rng, cutoff):
    def op(ident):
        holds = ident.expected is t5.ExpectedStatus.HOLDS
        return Op(f"verify:{ident.id}@{cutoff}",
                  lambda: t5.verify_exact(ident, cutoff),
                  lambda rep: rep.passed == holds)
    return [op(i) for i in sorted(catalog, key=lambda i: i.id)]


def residue_ops(t5, catalog, rng, taus, samples):
    kw = {} if samples is None else {"samples": samples}

    def op(w, k, tau):
        return Op(f"residues:{w.name}:tau{k}",
                  lambda: t5.residue_report(w, tau, **kw),
                  lambda rep: rep.passed)
    return [op(w, k, tau) for k, tau in enumerate(residue_taus(rng, taus))
            for w in (t5.PHI_WITNESS, t5.PSI_WITNESS)]


def eval_ops(t5, catalog, rng, taus):
    """The `theta5 eval` sweep: identity outer, tau inner, five zeta for
    function-kind identities."""
    tau_list = seeded_taus(rng, taus)
    zetas = seeded_zetas(rng, 5)

    def op(ident, k, tau, zeta):
        holds = ident.expected is t5.ExpectedStatus.HOLDS
        return Op(f"eval:{ident.id}:tau{k}",
                  lambda: t5.identity_residual(ident, tau, zeta),
                  lambda r: (r < EVAL_TOL) == holds)
    ops = []
    for ident in sorted(catalog, key=lambda i: i.id):
        points = zetas if ident.kind is t5.IdentityKind.FUNCTION else [None]
        for k, tau in enumerate(tau_list):
            ops += [op(ident, k, tau, z) for z in points]
    return ops


def _quartic_family(t5, eps):
    C, F = t5.Characteristic.of, t5.ThetaFactor
    return [[F(C(eps, Fraction(k2, 5)), 2, t5.Argument.SYMBOLIC_ZETA),
             F(C(eps, Fraction(k1, 5)), 1, t5.Argument.SYMBOLIC_ZETA)]
            for k2, k1 in ((1, 3), (3, 9), (9, 7), (7, 1))]


def _known_direction(t5, eps, tau):
    """The relation the quartic family satisfies (acceptance criterion 7)."""
    z5 = cmath.exp(2j * cmath.pi / 5)
    C = t5.Characteristic.of
    c1 = t5.theta_eval(C(1, Fraction(1, 5)), 0.0, tau)
    c3 = t5.theta_eval(C(1, Fraction(3, 5)), 0.0, tau)
    if eps == Fraction(1, 5):
        v = [c3, z5 ** 2 * c1, -z5 ** 4 * c3, -z5 ** 2 * c1]
    else:
        v = [c3, z5 * c1, -z5 ** 2 * c3, -z5 * c1]
    return [x / v[0] for x in v]


def relation_ops(t5, catalog, rng, taus):
    """`theta5 discover` for both quartic families and `theta5 resultant`
    (theta quadratics) at each tau."""
    def discover(eps, k, tau):
        monos = _quartic_family(t5, eps)

        def verdict(rel):
            want = _known_direction(t5, eps, tau)
            return rel.nullity == 1 and max(
                abs(g - w) for g, w in zip(rel.coefficients, want)
            ) < NUMERIC_TOL
        return Op(f"discover:{eps}:tau{k}",
                  lambda: t5.discover_relations(monos, tau, DISCOVERY_SAMPLES),
                  verdict)

    def quadratics(k, tau, z, w):
        def call():
            fq, gq = t5.theta_quadratics(tau, z, w)
            return fq, gq, t5.resultant_2x2(fq, gq), t5.shared_root_ratio(tau)

        def verdict(out):
            fq, gq, res, x = out
            scale = max(abs(c) for c in (*fq, *gq))
            root_residual = abs(fq[0] * x * x + fq[1] * x + fq[2])
            return (abs(res) < NUMERIC_TOL * scale ** 4
                    and root_residual < NUMERIC_TOL * scale)
        return Op(f"quadratics:tau{k}", call, verdict)

    ops = []
    for k, tau in enumerate(seeded_taus(rng, taus)):
        z, w = seeded_zetas(rng, 2)
        ops += [discover(Fraction(1, 5), k, tau),
                discover(Fraction(3, 5), k, tau), quadratics(k, tau, z, w)]
    return ops


def resultant_ops(t5, catalog, rng, degrees, pairs):
    """Exact resultants over Q(zeta_5) and Q(zeta_20), `pairs` pairs with a
    planted common root and as many with disjoint roots per degree pair."""
    def root(order):
        unit = t5.Cyclotomic(order, {rng.randrange(order): rng.randint(-4, 4)})
        return unit + Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    def poly(roots):  # monic, degree-0 first
        zero = t5.Cyclotomic.zero()
        p = [t5.Cyclotomic.one()]
        for r in roots:
            p = [a + b for a, b in zip([-(c * r) for c in p] + [zero],
                                       [zero] + p)]
        return p

    def op(order, f, g, planted, k):
        def call():
            r = t5.resultant(f, g)
            return r, r.is_zero()

        def verdict(out):
            r, zero = out
            if zero != planted:
                return False
            if len(f) == len(g) == 3:
                return t5.resultant_2x2(f[::-1], g[::-1]) == r
            return True
        kind = "planted" if planted else "disjoint"
        degrees = f"{len(f) - 1}x{len(g) - 1}"
        return Op(f"resultant:Q(zeta_{order}):{degrees}:{kind}{k}", call,
                  verdict)

    ops = []
    for order in (5, 20):
        for m in degrees:
            for n in degrees:
                for k, planted in enumerate((True, False) * pairs):
                    fr = [root(order) for _ in range(m)]
                    while True:
                        gr = [root(order) for _ in range(n)]
                        if planted:
                            gr[0] = fr[0]
                            break
                        if all(not (a - b).is_zero() for a in fr for b in gr):
                            break
                    ops.append(op(order, poly(fr), poly(gr), planted,
                                  k // 2))
    return ops


def sigma_ops(t5, catalog, rng, n_max):
    return [Op(f"sigma:{n_max}", lambda: t5.verify_sigma_convolution(n_max),
               lambda rep: rep.passed)]


PART_OPS = {"verify_c8": verify_ops, "verify_c16": verify_ops,
            "verify_c32": verify_ops, "residues": residue_ops,
            "eval": eval_ops, "relations": relation_ops,
            "resultant_exact": resultant_ops, "sigma": sigma_ops}


# -- the pass ---------------------------------------------------------------

def reference():
    """Times the reference: the kinds of work theta5 does, in shares that
    tracked theta5's own slow-downs best when tried on this benchmark's
    parts (int arithmetic on a list, an int64 convolution in numpy, Fraction
    sums), with the garbage collector off so that the time does not depend
    on theta5's heap."""
    import numpy as np  # here, so that set-up times only theta5's imports
    vector = np.arange(1600, dtype=np.int64)
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        cells = [0] * 64
        for i in range(13_000):
            k = (i * 40503) & 63
            cells[k] = (cells[k] + i * k) % 1000003
        np.convolve(vector, vector)
        for _ in range(3):
            f = Fraction(0)
            for i in range(1, 300):
                f += Fraction(1, i)
        return time.perf_counter() - t0
    finally:
        if gc_was_on:
            gc.enable()


def host_speed(count):
    """Median time of `count` references, at least one and at most ten: a
    long stretch of calls gets as many as a run of short ones would."""
    return statistics.median(reference()
                             for _ in range(min(max(count, 1), 10)))


def scaled(stretches, refs):
    """Sum of the stretches' times, each scaled by the mean of the two
    references around it (refs has one more entry than stretches)."""
    return sum(t * 2 * REF_NOMINAL_S / (refs[k] + refs[k + 1])
               for k, t in enumerate(stretches))


def run_ops(ops, tracer=None):
    """Times every call; checks come after the clock stops, so the oracle's
    own theta5 calls are neither timed nor traced and cannot warm a cache
    for a later timed call.  Returns the pass time scaled to reference speed
    (pass_s), its raw wall time (wall_s), the median reference time, the CPU
    time, the count of operations that raised, and the failures."""
    results, stretches, refs = [], [], [host_speed(3)]
    stretch = cpu_s = 0.0
    if tracer:
        tracer.active = True
    for op in ops:
        if tracer:
            tracer.op = op.id
        t0, cpu0 = time.perf_counter(), time.process_time()
        try:
            results.append((True, op.call()))
        except Exception as exc:  # a raising operation is a failed operation
            results.append((False, f"{type(exc).__name__}: {exc}"))
        stretch += time.perf_counter() - t0
        cpu_s += time.process_time() - cpu0
        if stretch >= REF_EVERY_S:
            stretches.append(stretch)
            refs.append(host_speed(round(stretch / REF_EVERY_S)))
            stretch = 0.0
    if tracer:
        tracer.active = False
    if stretch or not stretches:
        stretches.append(stretch)
        refs.append(host_speed(round(stretch / REF_EVERY_S)))
    failures, raised = [], 0
    for op, (ok, value) in zip(ops, results):
        if not ok:
            raised += 1
            failures.append(f"{op.id}: raised {value}")
            continue
        try:
            right = op.verdict(value)
        except Exception as exc:  # a result the oracle cannot read is wrong
            right = False
            value = f"{type(exc).__name__}: {exc}"
        if not right:
            failures.append(f"{op.id}: wrong answer {value!r:.200}")
    return (scaled(stretches, refs), sum(stretches), statistics.median(refs),
            cpu_s, raised, failures)


def main(argv):
    part = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    spawned = float(opts["--spawned"])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    import theta5
    t1 = time.perf_counter()
    catalog = theta5.builtin_catalog()
    t2 = time.perf_counter()
    setup_wall_s = time.monotonic() - spawned
    out = {"setup_s": setup_wall_s * REF_NOMINAL_S / host_speed(3),
           "setup_wall_s": setup_wall_s, "import_s": t1 - t0,
           "catalog_s": t2 - t1}
    if part != "setup":
        rng = random.Random(f"{part}/{opts['--seed']}")
        ops = PART_OPS[part](theta5, catalog, rng,
                             **SIZES[opts["--size"]][part])
        tracer = None
        if "--trace" in opts:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        pass_s, wall_s, ref_s, cpu_s, raised, failures = run_ops(ops, tracer)
        out.update(pass_s=pass_s, wall_s=wall_s, ref_s=ref_s, cpu_s=cpu_s,
                   attempted=len(ops),
                   failed=len(failures), raised=raised, failures=failures[:20],
                   peak_rss_mb=resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer:
            tracer.write_spans(opts["--trace"])
            out["counters"] = tracer.counters()
            out["verify_durations"] = tracer.durations("verify.verify_exact")
            out["absent"] = tracer.missing()
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])

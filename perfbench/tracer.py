"""Outside-in tracing of theta5's public entry points.

The tracer never edits theta5.  It wraps public functions and methods after
import and rebinds every name that refers to the original object, in every
loaded ``theta5`` module and in the owning class: ``verify`` and
``resultant`` import ``theta_series``/``theta_eval`` by name, and the package
re-exports most functions, so patching one module alone would miss calls.

Each wrapped call is a span with a self time (its duration minus the time of
the wrapped calls it made).  Spans of the coarse entry points are kept in
memory, with their parent and operation id, and written as JSON lines when
the pass ends.  The hot leaves (cyclotomic arithmetic, scalar ``theta_eval``,
``sigma``/``delta``) run up to a few hundred thousand times per pass, so they
are only aggregated.  A target that no longer exists is reported as absent,
not as an error, so the benchmark survives refactors of the program.
"""

import gc
import inspect
import json
import math
import sys
import time
from fractions import Fraction

#: Products with more operand term pairs than this are "large".  The number
#: is the benchmark's own; it matches the size at which theta5's series layer
#: at the time of writing switched multiplication lanes.
LARGE_PAIRS = 4096


def _term_count(s):
    terms = getattr(s, "terms", None)
    return None if terms is None else len(terms)


class Stat:
    __slots__ = ("calls", "self_s", "errors", "seen", "repeats", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0
        self.seen = set()
        self.repeats = 0
        self.extra = {}

    def repeat(self, key):
        """Counts `key` as a repeat if an equal key came before.  Only the
        hash is kept, which bounds memory at a negligible risk of counting
        a collision as a repeat; equal numbers hash equal, so 0.0 and 0j
        are the same argument."""
        h = hash(key)
        if h in self.seen:
            self.repeats += 1
        else:
            self.seen.add(h)

    def add(self, name, amount):
        self.extra[name] = self.extra.get(name, 0) + amount


# -- observers: extra counts taken from a call's arguments -------------------

def _observe_series_mul(stat, args, kwargs, sig):
    na, nb = (_term_count(s) for s in args[:2])
    if na is None or nb is None:
        stat.add("unobservable", 1)
        return
    pairs = na * nb
    stat.add("term_pairs", pairs)
    stat.add("large", pairs > LARGE_PAIRS)


def _observe_repeat(stat, args, kwargs, sig):
    stat.repeat((args, tuple(sorted(kwargs.items()))) if kwargs else args)


def _observe_samples(stat, args, kwargs, sig):
    b = sig.bind(*args, **kwargs)
    b.apply_defaults()
    stat.add("samples", int(b.arguments.get("samples", 0)))


def _observe_monomials(stat, args, kwargs, sig):
    b = sig.bind(*args, **kwargs)
    ident, cutoff = b.arguments["ident"], Fraction(b.arguments["cutoff"])
    stat.add("monomials", len(ident.terms))
    for term in ident.terms:
        stat.repeat((tuple(sorted((f.char, f.argument.value, f.power)
                                  for f in term.factors)), cutoff))


#: (layer name, public name in the theta5 package, keep spans, observer)
TARGETS = (
    ("cyclotomic.mul", "Cyclotomic.__mul__", False, None),
    ("cyclotomic.is_zero", "Cyclotomic.is_zero", False, None),
    ("cyclotomic.inverse", "Cyclotomic.inverse", False, None),
    ("series.mul", "PuiseuxSeries2.__mul__", True, _observe_series_mul),
    ("series.add", "PuiseuxSeries2.__add__", True, None),
    ("series.scale", "PuiseuxSeries2.scale", True, None),
    ("series.scrubbed", "PuiseuxSeries2.scrubbed", True, None),
    ("theta.theta_series", "theta_series", True, _observe_repeat),
    ("verify.verify_exact", "verify_exact", True, _observe_monomials),
    ("verify.discover_relations", "discover_relations", True, None),
    ("numeric.theta_eval", "theta_eval", False, _observe_repeat),
    ("numeric.numeric_residue", "numeric_residue", True, _observe_samples),
    ("numeric.identity_residual", "identity_residual", True, None),
    ("resultant.resultant", "resultant", True, None),
    ("resultant.theta_quadratics", "theta_quadratics", True, None),
    ("divisors.verify_sigma_convolution", "verify_sigma_convolution", True,
     None),
    ("divisors.sigma", "sigma", False, None),
    ("divisors.delta", "delta", False, None),
)


def _lookup(path):
    """(owner, object) for a dotted public name, or (None, None)."""
    owner, obj = None, sys.modules.get("theta5")
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part, None)
        if obj is None:
            return None, None
    return owner, obj


def _rebind(owner, original, replacement):
    """Points every name bound to `original` at `replacement`: the class
    attributes for a method (``__rmul__`` aliases ``__mul__``), the globals
    of every loaded theta5 module for a function.  Returns how many."""
    if isinstance(owner, type):
        spaces = [owner]
    else:
        spaces = [m for name, m in list(sys.modules.items()) if m is not None
                  and (name == "theta5" or name.startswith("theta5."))]
    count = 0
    for space in spaces:
        for key, value in list(vars(space).items()):
            if value is original:
                setattr(space, key, replacement)
                count += 1
    return count


class Tracer:
    """Wraps the TARGETS of an imported theta5 and records spans while
    `active` is set.  Operations are labelled by assigning `op`."""

    def __init__(self):
        self.active = False
        self.op = None
        self.stats = {}
        self.absent = []
        self.spans = []       # [name, start, end, parent index, op]
        self._open = []       # indices of kept spans that have not ended
        self._child = []      # child time accumulated per open wrapped call
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_t0 = None

    def install(self):
        for name, path, keep, observe in TARGETS:
            owner, original = _lookup(path)
            if original is None or not callable(original):
                self.absent.append(name)
                continue
            stat = self.stats[name] = Stat()
            try:
                sig = inspect.signature(original)
            except (TypeError, ValueError):
                sig = None
            wrapper = self._wrap(name, original, stat, keep, observe, sig)
            if not _rebind(owner, original, wrapper):
                self.absent.append(name)
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase, info):
        if not self.active:
            return
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        elif self._gc_t0 is not None:
            self.gc_s += time.perf_counter() - self._gc_t0
            self.gc_collections += 1
            self._gc_t0 = None

    def _wrap(self, name, fn, stat, keep, observe, sig):
        tracer = self
        child = self._child
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            o0 = clock()
            if observe is not None:
                try:
                    observe(stat, args, kwargs, sig)
                except (TypeError, KeyError, AttributeError, ValueError):
                    stat.add("unobservable", 1)
            span = None
            if keep:
                span = len(tracer.spans)
                parent = tracer._open[-1] if tracer._open else None
                tracer.spans.append([name, 0.0, 0.0, parent, tracer.op])
                tracer._open.append(span)
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                t1 = clock()
                dur = t1 - t0
                stat.calls += 1
                stat.self_s += dur - child.pop()
                if span is not None:
                    tracer._open.pop()
                    tracer.spans[span][1:3] = [t0, t1]
                if child:
                    # the caller's self time excludes this call and the
                    # tracer's own work around it
                    child[-1] += dur + (t0 - o0) + (clock() - t1)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -------------------------------------------------------------

    def missing(self):
        """Targets that are gone, or whose arguments could not be read."""
        return self.absent + [name for name, s in self.stats.items()
                              if s.extra.get("unobservable")]

    def durations(self, name):
        return sorted(s[2] - s[1] for s in self.spans if s[0] == name)

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    def counters(self):
        """Additive numbers of one pass: sums of these over several passes
        or processes are meaningful, ratios of them are derived later."""
        out = {"process.gc_s": self.gc_s,
               "process.gc_collections": self.gc_collections}
        for name, *_ in TARGETS:
            s = self.stats.get(name) or Stat()
            out[f"{name}.calls"] = s.calls
            out[f"{name}.self_s"] = s.self_s
            out[f"{name}.errors"] = s.errors
            out[f"{name}.repeats"] = s.repeats
            for key, value in s.extra.items():
                out[f"{name}.{key}"] = value
        return out


def merge(counter_sets):
    """Sums counters from several processes (keys may differ)."""
    out = {}
    for counters in counter_sets:
        for key, value in counters.items():
            out[key] = out.get(key, 0) + value
    return out


def layer_metrics(c, verify_durations):
    """Per-layer metrics from merged counters.  An absent target reports zero
    calls and time."""
    def frac(num, den):
        num, den = c.get(num, 0), c.get(den, 0)
        return num / den if den else 0.0

    out = {}
    for name, *_ in TARGETS:
        out[f"{name}.calls"] = c.get(f"{name}.calls", 0)
        out[f"{name}.self_s"] = c.get(f"{name}.self_s", 0.0)
    out["series.mul.term_pairs"] = c.get("series.mul.term_pairs", 0)
    out["series.mul.large_frac"] = frac("series.mul.large", "series.mul.calls")
    out["series.mul.errors"] = c.get("series.mul.errors", 0)
    for name in ("theta.theta_series", "numeric.theta_eval"):
        out[f"{name}.repeat_frac"] = frac(f"{name}.repeats", f"{name}.calls")
    out["verify.monomial_repeat_frac"] = frac(
        "verify.verify_exact.repeats", "verify.verify_exact.monomials")
    d = sorted(verify_durations)
    out["verify.verify_exact.p50_ms"] = _quantile(d, 0.5) * 1e3
    out["verify.verify_exact.p90_ms"] = _quantile(d, 0.9) * 1e3
    out["numeric.numeric_residue.samples"] = c.get(
        "numeric.numeric_residue.samples", 0)
    for key in ("process.gc_s", "process.gc_collections"):
        out[key] = c.get(key, 0)
    return out


def _quantile(sorted_values, q):
    """Nearest-rank quantile; 0.0 for no values."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]

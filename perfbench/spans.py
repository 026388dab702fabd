"""Tracing from outside the package: wrap psicalc's public calls in spans.

Nothing in ``src`` is edited.  ``Tracer.install`` (called in the forked
child that runs one operation) wraps

* methods on the classes ``RationalFunction``, ``Poly``, ``PsiSequence``,
  ``OperatorSeries``, ``DeltaOperator``, ``OperatorMatrix`` and
  ``BasicSequence``;
* every public module-level function of the layer modules, rebound in every
  ``psicalc`` namespace (and module-level registry dict) that holds it, since
  ``from .sequences import basic_sequence`` copies the reference;
* the ratfun gcd routine, whose call count is the canonicalisation work;
* each entry of ``verify.SUITES``, as ``verify.suite.<name>``.

Every wrapped call is a span: name, start, end and parent.  Self time is the
span's duration minus the time its child spans cover.  Aggregates (calls,
total and self seconds per span name) are exact for every span.  Individual
span records are kept only for calls above the scalar layers (the field,
the polynomials and psi lookups run millions of times per operation); those
fold into their nearest recorded ancestor.  The time a wrapper spends on
its own bookkeeping after the call is excluded from the parent's self time.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import re
import sys
import time
from fractions import Fraction

# span names whose individual records are not kept (aggregates still are)
HOT_PREFIXES = ("ratfun.", "poly.", "psi.lookup")
MAX_SPANS_PER_OP = 200_000

LAYERS = ("ratfun", "poly", "psi", "operators", "sequences", "expansion", "plane",
          "su2q", "weyl", "verify")

# class -> {method: span name}; "{t}" is the coefficient kind of a Poly
CLASS_METHODS = {
    ("ratfun", "RationalFunction"): {
        "__add__": "ratfun.add", "__radd__": "ratfun.add",
        "__sub__": "ratfun.sub", "__rsub__": "ratfun.sub",
        "__neg__": "ratfun.neg",
        "__mul__": "ratfun.mul", "__rmul__": "ratfun.mul",
        "__truediv__": "ratfun.div", "__rtruediv__": "ratfun.div",
        "inverse": "ratfun.inverse", "__pow__": "ratfun.pow",
        "eval_q": "ratfun.eval_q", "render": "ratfun.render",
    },
    ("poly", "Poly"): {
        "__add__": "poly.{t}.add", "__sub__": "poly.{t}.sub", "__neg__": "poly.{t}.neg",
        "__mul__": "poly.{t}.mul", "__rmul__": "poly.{t}.scale", "scale": "poly.{t}.scale",
        "shifted": "poly.{t}.shifted", "eval_at": "poly.{t}.eval_at",
        "compose": "poly.{t}.compose", "derivative": "poly.{t}.derivative",
        "map_coeffs": "poly.{t}.map_coeffs",
    },
    ("psi", "PsiSequence"): {
        "__post_init__": "psi.table",
        "number": "psi.lookup", "factorial": "psi.lookup",
        "falling": "psi.lookup", "binomial": "psi.lookup",
    },
    ("operators", "OperatorSeries"): {
        "__add__": "operators.series_add", "__sub__": "operators.series_sub",
        "__neg__": "operators.series_neg", "scale": "operators.series_scale",
        "__mul__": "operators.series_mul", "invert": "operators.invert",
        "pow_int": "operators.pow_int", "pincherle": "operators.pincherle",
        "truncate": "operators.truncate", "apply": "operators.apply",
    },
    ("operators", "DeltaOperator"): {
        "__post_init__": "operators.delta_built", "apply": "operators.delta_apply",
        "s_factor": "operators.s_factor",
    },
    ("operators", "OperatorMatrix"): {
        "apply": "operators.matrix_apply", "from_action": "operators.from_action",
    },
    ("sequences", "BasicSequence"): {
        "lowering_residuals": "sequences.lowering_residuals",
    },
}

# module function -> span name, where it differs from "<module>.<function>"
FUNCTION_NAMES = {
    ("ratfun", "_gcd_poly"): "ratfun.canon",
    ("psi", "psi_derivative"): "psi.derivative",
    ("psi", "translate"): "psi.translate",
    ("sequences", "sheffer_sequence"): "sequences.sheffer",
    ("sequences", "binomial_residuals"): "sequences.residuals",
    ("sequences", "sheffer_binomial_residuals"): "sequences.residuals",
    ("expansion", "expand_operator"): "expansion.expand",
    ("expansion", "reconstruct_operator"): "expansion.reconstruct",
    ("expansion", "to_basic_coords"): "expansion.to_coords",
    ("expansion", "qmutator_check"): "expansion.qmutator",
    ("plane", "binomial_nogo"): "plane.nogo",
    ("su2q", "su2_build"): "su2q.build",
    ("su2q", "su2_commutator_check"): "su2q.check",
    ("su2q", "polar_decompose"): "su2q.polar",
    ("weyl", "weyl_build"): "weyl.build",
    ("weyl", "weyl_check"): "weyl.check",
}

RATFUN_SIZED = ("ratfun.add", "ratfun.mul", "ratfun.div", "ratfun.inverse")


def _poly_kind(args, kwargs) -> str:
    for p in args[:2]:
        cs = getattr(p, "coeffs", None)
        if cs:
            c = cs[0]
            if isinstance(c, (int, Fraction)):
                return "q"
            if hasattr(c, "coeffs"):
                return "xy"
            return "x"
    return "x"


def _basic_name(args, kwargs) -> str:
    method = kwargs.get("method", args[2] if len(args) > 2 else "solve")
    return f"sequences.basic.{method}"


def _inf_norm(a) -> float:
    import numpy as np

    return float(np.max(np.abs(a))) if a.size else 0.0


def self_times(spans) -> dict:
    """Self seconds per span name from recorded spans.

    A record is [op_id, span_id, parent_id, name, start, end].  A span's
    self time is its duration minus the part of its interval that its
    direct children cover (children clipped to the parent, overlaps
    counted once).
    """
    spans = list(spans)
    kids: dict = {}
    for op, _, parent, _, start, end in spans:
        kids.setdefault((op, parent), []).append((start, end))
    out: dict = {}
    for op, sid, _, name, start, end in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(kids.get((op, sid), ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[name] = out.get(name, 0.0) + (end - start) - covered
    return out


class Tracer:
    """Span recorder for one operation; create it in the parent, install in the child."""

    def __init__(self, op_id: int = 0, clock=time.perf_counter,
                 max_spans: int = MAX_SPANS_PER_OP, hot_prefixes=HOT_PREFIXES):
        self.op_id = op_id
        self.clock = clock
        self.max_spans = max_spans
        self.hot_prefixes = tuple(hot_prefixes)
        self.agg: dict = {}
        self.spans: list = []
        self.dropped = 0
        self.probe_errors = 0
        self.probes = {"ratfun.out_max_qdeg": 0, "ratfun.out_max_bits": 0,
                       "psi.lookup.misses": 0, "su2q.max_rel_residual": 0.0}
        self._ids = itertools.count(1)
        self._base = 0.0
        # frame: [start, child seconds, id of nearest recorded span]
        self._stack = [[0.0, 0.0, None]]

    # -- span bookkeeping ---------------------------------------------------

    def wrap(self, fn, name, namer=None, pre=None, post=None):
        """Return fn wrapped in a span named `name` (or namer(args, kwargs))."""
        clock = self.clock
        stack = self._stack
        agg = self.agg
        spans = self.spans
        ids = self._ids
        hot = self.hot_prefixes
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            nm = namer(args, kwargs) if namer is not None else name
            token = pre(args) if pre is not None else None
            parent = stack[-1]
            keep = not nm.startswith(hot)
            frame = [t0, 0.0, next(ids) if keep else parent[2]]
            stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                a = agg.get(nm)
                if a is None:
                    a = agg[nm] = [0, 0.0, 0.0]
                a[0] += 1
                a[1] += dur
                a[2] += dur - frame[1]
                if keep:
                    if len(spans) < tracer.max_spans:
                        spans.append([tracer.op_id, frame[2], parent[2], nm,
                                      t0 - tracer._base, t1 - tracer._base])
                    else:
                        tracer.dropped += 1
                if ok and post is not None:
                    try:
                        post(nm, args, result, token)
                    except Exception:  # a probe must never change the program's result
                        tracer.probe_errors += 1
                parent[1] += clock() - t0
            return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    def run_root(self, fn, *args):
        """Run fn as the operation's root span, ``cli.main``."""
        self._base = self.clock()
        return self.wrap(fn, "cli.main")(*args)

    def export(self):
        layers = {"agg": self.agg, "probes": dict(self.probes),
                  "spans_dropped": self.dropped, "probe_errors": self.probe_errors}
        return layers, self.spans

    # -- probes ---------------------------------------------------------------

    def _ratfun_size(self, nm, args, result, token) -> None:
        num = getattr(result, "num", None)
        den = getattr(result, "den", None)
        cs_n = getattr(num, "coeffs", None)
        cs_d = getattr(den, "coeffs", None)
        if cs_n is None or cs_d is None:
            qdeg, bits = _render_size(result)
        else:
            qdeg = max(len(cs_n), len(cs_d)) - 1
            bits = 0
            for c in cs_n + cs_d:
                b = max(c.numerator.bit_length(), c.denominator.bit_length())
                if b > bits:
                    bits = b
        p = self.probes
        if qdeg > p["ratfun.out_max_qdeg"]:
            p["ratfun.out_max_qdeg"] = qdeg
        if bits > p["ratfun.out_max_bits"]:
            p["ratfun.out_max_bits"] = bits

    @staticmethod
    def _cache_len(args):
        cache = getattr(args[0], "_cache", None)
        return len(cache) if cache is not None else None

    def _cache_probe(self, nm, args, result, token) -> None:
        if token is not None and len(args[0]._cache) > token:
            self.probes["psi.lookup.misses"] += 1

    def _su2_rel(self, nm, args, result, token) -> None:
        # commutator residuals are differences of matrix products, so they
        # scale with the square of the entries; polar residuals with them
        rep = args[0]
        scale = max(_inf_norm(m) for m in (rep.j3, rep.jplus, rep.jminus))
        if nm == "su2q.check":
            scale *= scale
        rel = max(result.residuals.values()) / max(scale, 1e-300)
        if rel > self.probes["su2q.max_rel_residual"]:
            self.probes["su2q.max_rel_residual"] = rel

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap the public calls of every loaded psicalc module."""
        mods = {n.split(".")[-1]: m for n, m in list(sys.modules.items())
                if n == "psicalc" or n.startswith("psicalc.")}
        replace = {}
        for (mod_name, cls_name), methods in CLASS_METHODS.items():
            cls = getattr(mods.get(mod_name), cls_name, None)
            if cls is None:
                continue
            for meth, nm in methods.items():
                raw = cls.__dict__.get(meth)
                if raw is None:
                    continue
                setattr(cls, meth, self._wrap_member(raw, nm))
        for mod_name in LAYERS:
            mod = mods.get(mod_name)
            if mod is None:
                continue
            suites = getattr(mod, "SUITES", {}) if mod_name == "verify" else {}
            suite_of = {id(fn): key for key, fn in suites.items()}
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                named = FUNCTION_NAMES.get((mod_name, attr))
                if attr.startswith("_") and named is None:
                    continue
                if id(obj) in suite_of:
                    nm = f"verify.suite.{suite_of[id(obj)]}"
                else:
                    nm = named or f"{mod_name}.{attr}"
                replace[id(obj)] = (obj, self._wrap_function(obj, nm))
        # rebind in every psicalc namespace and module-level registry dict
        for mod in mods.values():
            ns = vars(mod)
            for attr, obj in list(ns.items()):
                if id(obj) in replace and replace[id(obj)][0] is obj:
                    ns[attr] = replace[id(obj)][1]
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for k, v in list(obj.items()):
                        if id(v) in replace and replace[id(v)][0] is v:
                            obj[k] = replace[id(v)][1]

    def _wrap_function(self, fn, nm):
        if nm == "sequences.basic_sequence":
            return self.wrap(fn, nm, namer=_basic_name)
        if nm in ("su2q.check", "su2q.polar"):
            return self.wrap(fn, nm, post=self._su2_rel)
        return self.wrap(fn, nm)

    def _wrap_member(self, raw, nm):
        if isinstance(raw, classmethod):
            return classmethod(self.wrap(raw.__func__, nm))
        if "{t}" in nm:
            prefix, suffix = nm.split("{t}")
            return self.wrap(raw, nm, namer=lambda a, k: f"{prefix}{_poly_kind(a, k)}{suffix}")
        if nm in RATFUN_SIZED:
            return self.wrap(raw, nm, post=self._ratfun_size)
        if nm == "psi.lookup":
            return self.wrap(raw, nm, pre=self._cache_len, post=self._cache_probe)
        return self.wrap(raw, nm)


def _render_size(value) -> tuple[int, int]:
    """Fallback expression size from the canonical text form."""
    text = value.render()
    degs = [int(m) for m in re.findall(r"q\^(\d+)", text)]
    deg = max(degs) if degs else (1 if "q" in text else 0)
    ints = [int(m) for m in re.findall(r"(?<![\^\d])(\d+)", text)]
    return deg, max((i.bit_length() for i in ints), default=0)


# -- per-layer metrics ---------------------------------------------------------

SUITE_NAMES = ("methods", "laguerre", "binomial", "sheffer", "expansion", "qmutator",
               "nogo", "pincherle", "su2", "polar", "weyl")
BASIC_METHODS = ("solve", "lagrange1", "lagrange2", "rodrigues3", "rodrigues4")

# (metric, unit, better, how): how is ("calls", span names), ("self", prefix),
# ("total", span name) or ("probe", key); derived metrics are filled in by
# layer_metrics
PER_LAYER = [
    ("ratfun.mul.calls", "count", "lower", ("calls", ("ratfun.mul",))),
    ("ratfun.add.calls", "count", "lower", ("calls", ("ratfun.add",))),
    ("ratfun.div.calls", "count", "lower", ("calls", ("ratfun.div",))),
    ("ratfun.canon.calls", "count", "lower", ("calls", ("ratfun.canon",))),
    ("ratfun.self_s", "s", "lower", ("self", "ratfun.")),
    ("ratfun.share", "ratio", "lower", ("derived", None)),
    ("field.share", "ratio", "lower", ("derived", None)),
    ("ratfun.render.self_s", "s", "lower", ("self", "ratfun.render")),
    ("ratfun.out_max_qdeg", "degree", "lower", ("probe", "ratfun.out_max_qdeg")),
    ("ratfun.out_max_bits", "bits", "lower", ("probe", "ratfun.out_max_bits")),
    ("poly.q.mul.calls", "count", "lower", ("calls", ("poly.q.mul",))),
    ("poly.q.self_s", "s", "lower", ("self", "poly.q.")),
    ("poly.x.mul.calls", "count", "lower", ("calls", ("poly.x.mul",))),
    ("poly.x.add.calls", "count", "lower", ("calls", ("poly.x.add",))),
    ("poly.x.self_s", "s", "lower", ("self", "poly.x.")),
    ("poly.xy.self_s", "s", "lower", ("self", "poly.xy.")),
    ("psi.tables_built", "count", "lower", ("calls", ("psi.table",))),
    ("psi.lookup.calls", "count", "lower", ("calls", ("psi.lookup",))),
    ("psi.cache_hit_ratio", "ratio", "higher", ("derived", None)),
    ("psi.derivative.calls", "count", "lower", ("calls", ("psi.derivative",))),
    ("psi.translate.calls", "count", "lower", ("calls", ("psi.translate",))),
    ("psi.self_s", "s", "lower", ("self", "psi.")),
    ("operators.series_mul.calls", "count", "lower", ("calls", ("operators.series_mul",))),
    ("operators.invert.calls", "count", "lower", ("calls", ("operators.invert",))),
    ("operators.apply.calls", "count", "lower", ("calls", ("operators.apply",))),
    ("operators.delta_built", "count", "lower", ("calls", ("operators.delta_built",))),
    ("operators.self_s", "s", "lower", ("self", "operators.")),
    *[(f"sequences.basic.{m}.calls", "count", "lower", ("calls", (f"sequences.basic.{m}",)))
      for m in BASIC_METHODS],
    ("sequences.sheffer.calls", "count", "lower", ("calls", ("sequences.sheffer",))),
    ("sequences.residuals.calls", "count", "lower", ("calls", ("sequences.residuals",))),
    ("sequences.self_s", "s", "lower", ("self", "sequences.")),
    ("expansion.expand.calls", "count", "lower", ("calls", ("expansion.expand",))),
    ("expansion.reconstruct.calls", "count", "lower", ("calls", ("expansion.reconstruct",))),
    ("expansion.to_coords.calls", "count", "lower", ("calls", ("expansion.to_coords",))),
    ("expansion.qmutator.calls", "count", "lower", ("calls", ("expansion.qmutator",))),
    ("expansion.self_s", "s", "lower", ("self", "expansion.")),
    ("plane.nogo.calls", "count", "lower", ("calls", ("plane.nogo",))),
    ("plane.self_s", "s", "lower", ("self", "plane.")),
    ("su2q.build.calls", "count", "lower", ("calls", ("su2q.build",))),
    ("su2q.check.self_s", "s", "lower", ("self", "su2q.check")),
    ("su2q.polar.self_s", "s", "lower", ("self", "su2q.polar")),
    ("su2q.self_s", "s", "lower", ("self", "su2q.")),
    ("su2q.max_rel_residual", "ratio", "lower", ("probe", "su2q.max_rel_residual")),
    ("weyl.build.calls", "count", "lower", ("calls", ("weyl.build",))),
    ("weyl.check.self_s", "s", "lower", ("self", "weyl.check")),
    ("weyl.self_s", "s", "lower", ("self", "weyl.")),
    *[(f"verify.suite_s.{s}", "s", "lower", ("total", f"verify.suite.{s}"))
      for s in SUITE_NAMES],
    ("cli.self_s", "s", "lower", ("self", "cli.main")),
    ("cli.out_bytes", "bytes", "lower", ("derived", None)),
    ("trace.ops", "count", "higher", ("derived", None)),
    ("trace.op_p50_ms", "ms", "lower", ("derived", None)),
    ("trace.untraced_op_p50_ms", "ms", "lower", ("derived", None)),
    ("trace.overhead_ms", "ms", "lower", ("derived", None)),
]


def merge(into: dict, layers: dict) -> dict:
    """Add one operation's exported aggregates to a running total."""
    agg = into.setdefault("agg", {})
    for name, (calls, total, self_s) in layers["agg"].items():
        a = agg.setdefault(name, [0, 0.0, 0.0])
        a[0] += calls
        a[1] += total
        a[2] += self_s
    probes = into.setdefault("probes", {})
    for k, v in layers["probes"].items():
        if k.endswith("misses"):
            probes[k] = probes.get(k, 0) + v
        else:
            probes[k] = max(probes.get(k, 0), v)
    for key in ("spans_dropped", "probe_errors"):
        into[key] = into.get(key, 0) + layers.get(key, 0)
    return into


def layer_metrics(total: dict, derived: dict) -> dict:
    """Every PER_LAYER metric from merged aggregates plus the derived values."""
    agg = total.get("agg", {})
    probes = total.get("probes", {})
    lookups = agg.get("psi.lookup", [0])[0]
    misses = probes.get("psi.lookup.misses", 0)
    op_s = agg.get("cli.main", [0, 0.0])[1]
    ratfun_self = sum(a[2] for n, a in agg.items() if n.startswith("ratfun."))
    field_self = ratfun_self + sum(a[2] for n, a in agg.items() if n.startswith("poly.q."))
    values = dict(derived)
    # shares of traced operation time: ratfun alone, and the whole
    # q-coefficient field (ratfun plus the Fraction polynomials inside it)
    values["ratfun.share"] = ratfun_self / op_s if op_s else 0.0
    values["field.share"] = field_self / op_s if op_s else 0.0
    values["psi.cache_hit_ratio"] = 1.0 - misses / lookups if lookups else 0.0
    out = {}
    for name, unit, _, (how, arg) in PER_LAYER:
        if how == "calls":
            v = sum(agg.get(n, [0])[0] for n in arg)
        elif how == "self":
            v = sum(a[2] for n, a in agg.items() if n == arg or n.startswith(arg))
        elif how == "total":
            v = agg.get(arg, [0, 0.0])[1]
        elif how == "probe":
            v = probes.get(arg, 0)
        else:
            v = values[name]
        out[name] = {"value": v, "unit": unit}
    return out

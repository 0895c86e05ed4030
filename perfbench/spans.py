"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces the public functions of each meanlab module with
timing and counting wrappers, in every meanlab module that binds them, and
``uninstall`` puts the originals back. Spans live in flat in-memory arrays
(name, parent, start, end) and are written out once, at the end of a run. A
span's self time is its duration minus the durations of its child spans;
calls are nested and single-threaded, so the children never overlap.

``jets`` arithmetic is too fine-grained to wrap from outside without the
wrapper dominating what it measures; its time is part of ``expr.eval_jet``,
whose span covers only the outermost call of each recursive evaluation.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# (module, attribute, span name); a span's calls are its count. mean_eval,
# eval_jet, brentq, Measure.integrate and CumulativeIntegral.__call__ have
# wrappers of their own in Tracer.install.
SPANS = (
    ("cli", "main", "cli.main"),
    ("expr", "validate_pair", "expr.validate_pair"),
    ("means", "quasiarithmetic", "means.quasiarithmetic"),
    ("calculus", "wronskian", "calculus.wronskian"),
    ("calculus", "phi_psi", "calculus.phi_psi"),
    ("calculus", "diagonal_derivatives", "calculus.diagonal_derivatives"),
    ("equality", "check_EBM", "equality.check"),
    ("equality", "check_ECM", "equality.check"),
    ("equality", "check_N15", "equality.check"),
    ("equality", "check_N25", "equality.check"),
    ("equality", "check_N3", "equality.check"),
)
# (module, attribute, counter): counted, not timed; their time stays with the caller
COUNTED = (
    ("expr", "parse", "expr.parse.calls"),
    ("measures", "moments", "measures.moments.calls"),
    ("measures", "classify", "measures.classify.calls"),
)

# per-layer metrics: name -> unit; the order is the report order
LAYER_METRICS = {
    "means.mean_eval.calls": "count",
    "means.mean_eval.self_s": "s",
    "means.brentq.calls": "count",
    "means.root_evals": "count",
    "means.root_evals_per_solve": "count/call",
    "means.endpoint_returns": "count",
    "measures.integrate.calls": "count",
    "measures.integrate.nodes": "count",
    "measures.integrate.self_s": "s",
    "measures.moments.calls": "count",
    "measures.classify.calls": "count",
    "means.quasiarithmetic.calls": "count",
    "means.quasiarithmetic.self_s": "s",
    "equality.CumulativeIntegral.calls": "count",
    "equality.CumulativeIntegral.self_s": "s",
    "equality.self_s": "s",
    "equality.check.calls": "count",
    "calculus.wronskian.calls": "count",
    "calculus.wronskian.self_s": "s",
    "calculus.phi_psi.calls": "count",
    "calculus.phi_psi.self_s": "s",
    "calculus.diagonal_derivatives.calls": "count",
    "calculus.diagonal_derivatives.self_s": "s",
    "expr.parse.calls": "count",
    "expr.validate_pair.calls": "count",
    "expr.validate_pair.self_s": "s",
    "expr.eval_jet.calls": "count",
    "expr.eval_jet.self_s": "s",
    "expr.eval_jet.per_op": "count/op",
    "expr.compile_scalar.hits": "count",
    "expr.compile_scalar.misses": "count",
    "cli.main.calls": "count",
    "cli.self_s": "s",
    "trace.overhead": "ratio",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._in_jet = False
        self._saved: list[tuple[object, str, object]] = []
        self._cache_before = None

    # ------------------------------------------------------------ recording

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def timed(self, name: str, fn):
        """fn wrapped in a span."""
        nid = self._id(name)
        name_, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return wrapper

    def _counted(self, counter: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _mean_eval(self, fn):
        counts = self.counts

        def wrapper(spec, x, y):
            z = fn(spec, x, y)
            if x != y and (z == float(x) or z == float(y)):
                counts["means.endpoint_returns"] += 1
            return z

        return self.timed("means.mean_eval", wrapper)

    def _eval_jet(self, fn):
        outer = self.timed("expr.eval_jet", fn)

        def wrapper(e, x, order):
            # recursive calls reach the module global too; only the outermost is a span
            if self._in_jet:
                return fn(e, x, order)
            self._in_jet = True
            try:
                return outer(e, x, order)
            finally:
                self._in_jet = False

        return wrapper

    def _brentq(self, fn):
        counts = self.counts

        def wrapper(f, *args, **kwargs):
            counts["means.brentq.calls"] += 1

            def counted(z, *a):
                counts["means.root_evals"] += 1
                return f(z, *a)

            return fn(counted, *args, **kwargs)

        return wrapper

    def _integrate(self, fn):
        counts = self.counts

        def wrapper(measure, integrand):
            def counted(t):
                counts["measures.integrate.nodes"] += 1
                return integrand(t)

            return fn(measure, counted)

        return self.timed("measures.integrate", wrapper)

    # ---------------------------------------------------------- installing

    def _replace_everywhere(self, original, wrapper) -> None:
        """Rebind every meanlab module attribute that is the original."""
        found = False
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "meanlab" or modname.startswith("meanlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
                    found = True
        if not found:
            raise LookupError(f"{original!r} is not bound in any meanlab module")

    def _replace_on_class(self, cls, attr: str, wrapper) -> None:
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self, ml) -> None:
        """Wrap the public functions of every layer.

        ml is the meanlab package with ``meanlab.cli`` already imported.
        """
        mods = {m: getattr(ml, m) for m in ("cli", "expr", "means", "calculus", "equality", "measures")}
        for mod, attr, name in SPANS:
            orig = getattr(mods[mod], attr)
            self._replace_everywhere(orig, self.timed(name, orig))
        for mod, attr, counter in COUNTED:
            orig = getattr(mods[mod], attr)
            self._replace_everywhere(orig, self._counted(counter, orig))
        me = mods["means"].mean_eval
        self._replace_everywhere(me, self._mean_eval(me))
        ej = mods["expr"].eval_jet
        self._replace_everywhere(ej, self._eval_jet(ej))
        self._replace_everywhere(mods["means"].brentq, self._brentq(mods["means"].brentq))
        measure_cls = mods["measures"].Measure
        self._replace_on_class(measure_cls, "integrate", self._integrate(measure_cls.integrate))
        ci = mods["equality"].CumulativeIntegral
        self._replace_on_class(ci, "__call__", self.timed("equality.CumulativeIntegral", ci.__call__))
        self._compile_scalar = mods["expr"].compile_scalar
        self._cache_before = self._compile_scalar.cache_info()

    def uninstall(self) -> None:
        info = self._compile_scalar.cache_info()
        self.counts["expr.compile_scalar.hits"] = info.hits - self._cache_before.hits
        self.counts["expr.compile_scalar.misses"] = info.misses - self._cache_before.misses
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # ------------------------------------------------------------- results

    def _arrays(self):
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=np.float64) - np.array(self.start, dtype=np.float64)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
        return name, dur, dur - child

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Every per-layer metric except trace.overhead, which needs an untraced run."""
        name, _, self_time = self._arrays()
        calls = np.bincount(name, minlength=len(self.names))
        selfs = np.bincount(name, weights=self_time, minlength=len(self.names))

        def span(n):
            i = self._ids.get(n)
            return (0, 0.0) if i is None else (int(calls[i]), float(selfs[i]))

        out = {}
        for n in ("means.mean_eval", "measures.integrate", "means.quasiarithmetic",
                  "equality.CumulativeIntegral", "calculus.wronskian", "calculus.phi_psi",
                  "calculus.diagonal_derivatives", "expr.validate_pair", "expr.eval_jet"):
            out[n + ".calls"], out[n + ".self_s"] = span(n)
        out["equality.check.calls"], out["equality.self_s"] = span("equality.check")
        out["cli.main.calls"], out["cli.self_s"] = span("cli.main")
        for counter in ("means.brentq.calls", "means.root_evals", "means.endpoint_returns",
                        "measures.integrate.nodes", "measures.moments.calls",
                        "measures.classify.calls", "expr.parse.calls",
                        "expr.compile_scalar.hits", "expr.compile_scalar.misses"):
            out[counter] = self.counts[counter]
        out["means.root_evals_per_solve"] = out["means.root_evals"] / max(out["means.brentq.calls"], 1)
        out["expr.eval_jet.per_op"] = out["expr.eval_jet.calls"] / max(n_ops, 1)
        return {k: out[k] for k in LAYER_METRICS if k in out}

    def write(self, path) -> None:
        """Write the spans out: one row per span with its name, parent, start and end."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int64),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
        )

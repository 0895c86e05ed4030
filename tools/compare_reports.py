"""Compare the equality reports of two source trees, case by case.

    python3 tools/compare_reports.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a ``meanlab`` package (the
``src`` of two checkouts). Each tree runs the same fixed matrix of
``check_equality`` calls in its own subprocess, with that tree first on
``sys.path`` and its own hash seed (``PYTHONHASHSEED`` 1 and 2), so
``compare_reports.py src src`` checks that the reports of one tree do not
depend on the process or on string hashing. The matrix covers every
battery: 13 pair combinations, among them equivalent pairs and pairs whose
row (vii) stays open, under 10 measures, at grids 12 and 25, with three
tolerance sets, plus explicit grids, direct battery calls on the wrong
measure, N3 at a measure on its mu6 = 5 mu2 mu4 boundary, and fixed failing
library calls (validate_pair, compile_array, eval_jet and compile_scalar on
inputs whose checks fail, integer powers that overflow among them). Each
case records the report's JSON (``as_dict``, sorted keys, indent 2) and its
CLI text, or the type and text of the error it raised. The script prints
every case whose JSON, text or error differs between the trees and exits 1
if any does.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

INTERVAL = (-0.7, 0.7)
POSITIVE = (0.5, 2.0)
GRIDS = (12, 25)
TOLERANCE_SETS = {
    "default": None,
    "means": {"mean_gap": 1e-6, "near_diagonal_gap": 1e-6, "derivative_gap": 1e-6},
    "fits": {"phi_psi_gap": 10.0, "fit_residual": 10.0, "quasiarithmetic_gap": 1e-3},
}
EXPLICIT_GRIDS = {
    "one": [0.1],
    "two": [0.1, 0.2],
    "two_distinct": [0.1, 0.1, 0.2],
    "three": [-0.5, 0.0, 0.5],
    "seven": [-0.6, -0.4, -0.2, 0.0, 0.2, 0.4, 0.6],
    "empty": [],
    "outside": [0.0, 0.9, 0.3],
}
# mu6 - 5 mu2 mu4 and mu6 - 5 mu4 mu2 round to either side of the zero tolerance
SIXTH_BOUNDARY = (
    (0.2369580832448388, 0.09999999849054474),
    (0.5, 0.8000000030189105),
    (0.7630419167551612, 0.09999999849054474),
)
# trees with two checks that fail at different points
TWO_CHECKS = {"sqrt-log": ("sqrt(x) + log(2 - x)", [3.0, -1.0]), "inverse-square": ("(x^2)^(-1)", [0.0, 1e155])}


def matrix():
    """The pair combinations and the measures of the matrix, each by name."""
    from meanlab import equality as eq
    from meanlab import expr as ex
    from meanlab.measures import Density, Discrete, Lebesgue, preset_measure

    def pair(f, g, interval=INTERVAL):
        return ex.validate_pair(f, g, interval)

    sincos, linear, exp = pair("sin(x)", "cos(x)"), pair("x", "1"), pair("exp(x)", "1")
    powers = pair("x^2", "x^(5/2)", POSITIVE)
    combos = {
        "sincos-linear": (sincos, linear),
        "sincos-image": (sincos, eq.Matrix2(2.0, 1.0, -1.0, 1.0).apply(sincos)),
        "exp-linear": (exp, linear),
        "sincos-sincos": (sincos, sincos),
        "sinhcosh-linear": (pair("sinh(x)", "cosh(x)"), linear),
        "sc2-sincos": (eq.make_sincos_pair(-2.0, "x", interval=INTERVAL), sincos),
        "cauchy-sin-flat": (
            eq.make_sincos_pair(-1.0, "2 * x", cauchy_flavor=True, interval=INTERVAL),
            eq.make_sincos_pair(0.0, "2 * x", cauchy_flavor=True, interval=INTERVAL),
        ),
        "expsin-linear": (pair("exp(x) * sin(x)", "exp(x) * cos(x)"), linear),
        "log-linear": (pair("log(x + 2)", "1"), linear),
        "linear-affine": (linear, pair("2 * x + 1", "3")),
        "exp-sincos": (exp, sincos),
        "powers-powers": (powers, powers),
        "powers-linear": (powers, pair("x", "1", POSITIVE)),
    }
    s = 0.21378583129651413
    w, b = 0.045875854768009934, 0.15891862259787443
    measures = {
        "ebm": preset_measure("ebm"),
        "ebm_reversed": Discrete(((1.0, 0.5), (0.0, 0.5))),
        "lebesgue": Lebesgue(),
        "asymmetric": Discrete(((0.0, 0.3), (0.7, 0.7))),
        "density": Density("2 * x"),
        "split": Discrete(((0.0, 0.6 - s), (0.6, 0.4), (1.0, s))),
        "gaussian_ratio": Discrete(((0.0, w), (0.5 - b, 0.5 - w), (0.5 + b, 0.5 - w), (1.0, w))),
        "sixth_only": Discrete(((0.0, 0.1), (0.5, 0.8), (1.0, 0.1))),
        "fourth_only": Discrete(((0.0, 1.0 / 6.0), (0.5, 2.0 / 3.0), (1.0, 1.0 / 6.0))),
        "even": Discrete(((0.0, 0.2), (0.5, 0.6), (1.0, 0.2))),
    }
    return combos, measures


def _cases():
    """(key, thunk, pair) for every case; the thunk returns a report or raises."""
    from meanlab import equality as eq
    from meanlab.measures import Discrete

    combos, measures = matrix()
    sincos, linear = combos["sincos-linear"]

    def case(a, bb, m, grid, tols=None):
        return lambda: eq.check_equality(a, bb, m, grid, tols)

    for cname, (a, bb) in combos.items():
        for mname, m in measures.items():
            for grid in GRIDS:
                for tname, tols in TOLERANCE_SETS.items():
                    yield f"{cname}/{mname}/{grid}/{tname}", case(a, bb, m, grid, tols), a
    for gname, grid in EXPLICIT_GRIDS.items():
        for cname in ("sincos-linear", "exp-linear", "sincos-image"):
            a, bb = combos[cname]
            for mname in ("ebm", "lebesgue", "asymmetric", "split", "even"):
                yield f"{cname}/{mname}/{gname}/default", case(a, bb, measures[mname], grid), a
    wrong = {
        "check_EBM/lebesgue": lambda: eq.check_EBM(sincos, linear, 12, measures["lebesgue"]),
        "check_ECM/ebm": lambda: eq.check_ECM(sincos, linear, 12, measures["ebm"]),
        "check_N15/even": lambda: eq.check_N15(sincos, linear, measures["even"], 12),
        "check_N25/ebm": lambda: eq.check_N25(sincos, linear, measures["ebm"], 12),
        "check_N3/asymmetric": lambda: eq.check_N3(sincos, linear, measures["asymmetric"], 12),
    }
    for key, thunk in wrong.items():
        yield key, thunk, sincos
    boundary = Discrete(SIXTH_BOUNDARY)
    yield "sincos-linear/sixth_boundary/20/default", case(sincos, linear, boundary, 20), sincos
    for key, call in _failing_calls():
        yield key, call, None


def _failing_calls():
    """(key, thunk) for library calls that fail; a call that returns fails too."""
    import numpy as np

    from meanlab import expr as ex

    def failing(call, *args):
        def thunk():
            call(*args)
            raise AssertionError("the call did not fail")
        return thunk

    for f in ("1/x", "x^(-1)", "log(x)", "sqrt(x)", "x^(1/2)"):
        yield f"validate_pair/{f}", failing(ex.validate_pair, f, "1", (-1.0, 1.0))
    for name, (text, xs) in TWO_CHECKS.items():
        e = ex.parse(text)
        scalar = ex.compile_scalar(e)
        yield f"compile_array/{name}", failing(ex.compile_array(e), np.array(xs))
        yield f"eval_jet/{name}", failing(ex.eval_jet, e, np.array(xs), 2)
        yield f"compile_scalar/{name}", failing(lambda s, p: [s(x) for x in p], scalar, xs)
    yield "eval_jet/sin-inf", failing(ex.eval_jet, ex.parse("sin(x)"), float("inf"), 2)
    # integer powers whose value overflows: x^(-2) at 1e-200 on every route, and
    # the jet of x^3 at 1e200
    tiny = ex.parse("x^(-2)")
    yield "compile_scalar/inverse-square-tiny", failing(ex.compile_scalar(tiny), 1e-200)
    yield "compile_array/inverse-square-tiny", failing(ex.compile_array(tiny), np.array([1.0, 1e-200]))
    yield "eval_jet/inverse-square-tiny", failing(ex.eval_jet, tiny, 1e-200, 2)
    yield "validate_pair/inverse-square-tiny", failing(ex.validate_pair, tiny, "1", (1e-201, 1e-199))
    yield "eval_jet/cube-huge", failing(ex.eval_jet, ex.parse("x^3"), 1e200, 2)


def emit(src: str) -> None:
    """Run the matrix against the meanlab package in src; print JSON."""
    sys.path.insert(0, str(Path(src).resolve()))
    import meanlab

    if not Path(meanlab.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported meanlab from {meanlab.__file__}, not from {src}")
    from meanlab.cli import _report_text

    out = {}
    for key, thunk, pair in _cases():
        try:
            report = thunk()
        except Exception as exc:  # the error text is part of the comparison
            out[key] = {"error": f"{type(exc).__name__}: {exc}"}
            continue
        lo, hi = pair.interval
        out[key] = {
            "json": json.dumps(report.as_dict(), sort_keys=True, indent=2),
            "text": _report_text(report, lo, hi),
        }
    json.dump(out, sys.stdout)


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--emit":
        emit(argv[1])
        return 0
    if len(argv) != 2:
        raise SystemExit(__doc__)
    procs = [
        subprocess.Popen(
            [sys.executable, __file__, "--emit", src], stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONHASHSEED": str(seed)},
        )
        for seed, src in enumerate(argv, start=1)
    ]
    outputs = []
    for src, proc in zip(argv, procs):
        stdout, _ = proc.communicate()
        if proc.returncode != 0:
            raise SystemExit(f"the matrix failed under {src}")
        outputs.append(json.loads(stdout))
    old, new = outputs
    differing = 0
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key, {}), new.get(key, {})
        parts = [p for p in ("json", "text", "error") if a.get(p) != b.get(p)]
        if parts:
            differing += 1
            print(f"{key}: {', '.join(parts)} differ")
            for label, side in (("old", a), ("new", b)):
                print(f"  {label}: {side.get('error', 'a report')}")
    errors = sum("error" in v for v in new.values())
    print(f"{len(new)} cases ({errors} raising), {differing} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

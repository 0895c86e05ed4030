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
tolerance sets, plus explicit grids and direct battery calls on the wrong
measure. Each case records the report's JSON (``as_dict``, sorted keys,
indent 2) and its CLI text, or the type and text of the error it raised. The script prints every case whose
JSON, text or error differs between the trees and exits 1 if any does.
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

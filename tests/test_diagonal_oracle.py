"""Equal means need equal diagonal jets: an oracle under every battery.

The diagonal derivatives m_2 ... m_6 of a mean follow from Phi, Psi and the
measure's moments alone (calculus.diagonal_closed_form), so two pairs whose
means coincide have equal diagonal jets at every point, whatever battery
judges them. Over the pair combinations and measures of
tools/compare_reports.py at grids 12 and 25 and default tolerances, a
battery that holds must see a jet gap of at most 1e-8, and a pair against
itself or a linear image of itself must hold.
"""

from __future__ import annotations

import importlib.util
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from meanlab import calculus
from meanlab import equality as eq
from meanlab.expr import interior_grid

GRIDS = (12, 25)
GAP_TOL = 1e-8
# the pair against itself or a Matrix2 image of itself
EQUIVALENT = {"sincos-sincos", "sincos-image", "linear-affine", "powers-powers"}
# N3 branch (i) tests terms of the first pair's Phi only, so these pass
# while the Phi functions differ; ROADMAP item 2 mends it with the re-record
# of the benchmark's `regimes` reference
N3_I_FALSE_PASSES = {
    f"{c}/gaussian_ratio/{grid}"
    for c in ("exp-linear", "expsin-linear", "exp-sincos")
    for grid in GRIDS
}


@cache
def _matrix():
    path = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"
    spec = importlib.util.spec_from_file_location("compare_reports", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.matrix()


def _case_ids() -> list:
    combos, measures = _matrix()
    xfail = pytest.mark.xfail(strict=True, reason="N3 (i) ignores the Phi gap (ROADMAP item 2)")
    keys = [f"{c}/{m}/{grid}" for c in combos for m in measures for grid in GRIDS]
    return [pytest.param(k, id=k, marks=[xfail] if k in N3_I_FALSE_PASSES else []) for k in keys]


def diagonal_jet_gap(pairA, pairB, measure, xs) -> float:
    """Largest over k = 2..6 of sup |m_k^A - m_k^B| / (1 + the larger sup |m_k|)."""
    mu = calculus.diagonal_moments(measure)
    ma, mb = (
        calculus.diagonal_closed_form(s.phi, s.psi, mu)
        for s in (calculus.sample(pairA, xs, 4), calculus.sample(pairB, xs, 4))
    )
    return max(
        float(np.max(np.abs(a - b))) / (1.0 + max(float(np.max(np.abs(a))), float(np.max(np.abs(b)))))
        for a, b in zip(ma[1:], mb[1:])
    )


@pytest.mark.parametrize("key", _case_ids())
def test_a_battery_that_holds_sees_equal_diagonal_jets(key):
    cname, mname, grid = key.split("/")
    combos, measures = _matrix()
    (pairA, pairB), measure = combos[cname], measures[mname]
    report = eq.check_equality(pairA, pairB, measure, int(grid))
    if cname in EQUIVALENT:
        assert report.all_hold, report.failing
    if report.all_hold:
        gap = diagonal_jet_gap(pairA, pairB, measure, report.grid)
        assert gap <= GAP_TOL, f"{report.battery} holds with diagonal jet gap {gap:.3g}"


def test_the_gap_separates_pairs_whose_means_differ():
    # (exp(x), 1) and (x, 1) differ in Phi, so m_2 = mu2 Phi differs by mu2
    combos, measures = _matrix()
    exp, linear = combos["exp-linear"]
    xs = interior_grid(exp.interval, 12)
    for measure in measures.values():
        mu2 = calculus.diagonal_moments(measure)[0]
        assert diagonal_jet_gap(exp, linear, measure, xs) >= 0.99 * mu2 / (1.0 + mu2)
        assert diagonal_jet_gap(exp, exp, measure, xs) == 0.0

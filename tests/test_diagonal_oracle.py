"""Equal means need equal diagonal jets: an oracle under every battery.

The diagonal derivatives m_2 ... m_6 of a mean follow from Phi, Psi and the
measure's moments alone (calculus.diagonal_closed_form), so two pairs whose
means coincide have equal diagonal jets at every point, whatever battery
judges them. Over the pair combinations and measures of
tools/compare_reports.py at grids 12 and 25 and default tolerances, a
battery that holds must see a jet gap of at most 1e-8, and a pair against
itself or a linear image of itself must hold. So must a Matrix2 image of
each pair family of conftest under every measure of the matrix, the same
image of hypothesis-drawn pairs of every family under EBM, ECM and N1.5,
and the Cauchy witnesses under ECM: the pairs (phi' S_t(phi), phi' C_t(phi))
of one generator phi, whose means under the Lebesgue measure are all the
quasi-arithmetic mean of phi. Conversely, two hypothesis-drawn pairs of one
family whose means differ by more than 1e-6 on a 3 x 3 spot grid must fail
row (i) of EBM, ECM and N1.5 and show a jet gap above 1e-8.
"""

from __future__ import annotations

import importlib.util
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from meanlab import calculus
from meanlab import equality as eq
from meanlab.expr import interior_grid
from meanlab.means import MeanSpec, mean_eval
from meanlab.measures import Discrete, Lebesgue, classify, preset_measure

from conftest import PAIR_FAMILIES, random_admissible_pair

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


# a nonsingular matrix whose second row keeps g positive for every family
IMAGE = eq.Matrix2(2.0, 1.0, 0.25, 1.0)
CAUCHY_INTERVAL = (-0.5, 0.5)
# generator phi and the two parameters t of the pairs (phi' S_t(phi), phi' C_t(phi))
CAUCHY_KEYS = [
    f"{phi}/{a}/{b}"
    for phi in ("x + 0.3*x^2", "sinh(x)", "2 * x")
    for a, b in ((-1.0, 0.0), (0.0, 0.5), (-1.0, 0.5), (-2.0, 1.0))
]


def _cauchy_pairs(key: str):
    phi, a, b = key.split("/")
    return tuple(
        eq.make_sincos_pair(float(t), phi, cauchy_flavor=True, interval=CAUCHY_INTERVAL) for t in (a, b)
    )


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
    mu = classify(measure).diagonal_mu
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
        mu2 = classify(measure).diagonal_mu[0]
        assert diagonal_jet_gap(exp, linear, measure, xs) >= 0.99 * mu2 / (1.0 + mu2)
        assert diagonal_jet_gap(exp, exp, measure, xs) == 0.0


@pytest.mark.parametrize("family", PAIR_FAMILIES)
def test_an_image_of_each_family_holds_with_equal_diagonal_jets(rng, family):
    pair = random_admissible_pair(rng, family)
    image = IMAGE.apply(pair)
    _, measures = _matrix()
    for measure in measures.values():
        report = eq.check_equality(pair, image, measure, 12)
        assert report.all_hold, (report.battery, report.failing)
        assert diagonal_jet_gap(pair, image, measure, report.grid) <= GAP_TOL


@pytest.mark.parametrize("key", CAUCHY_KEYS)
def test_cauchy_witnesses_have_equal_diagonal_jets(key):
    pairA, pairB = _cauchy_pairs(key)
    assert diagonal_jet_gap(pairA, pairB, Lebesgue(), interior_grid(CAUCHY_INTERVAL, 12)) <= GAP_TOL


@pytest.mark.parametrize("key", CAUCHY_KEYS)
def test_cauchy_witnesses_hold_under_ecm(key):
    report = eq.check_ECM(*_cauchy_pairs(key), grid=12)
    assert report.all_hold, report.failing


# EBM, ECM and N1.5 (the asymmetric atoms of the benchmark's `regimes`)
ORACLE_MEASURES = {
    "ebm": preset_measure("ebm"),
    "lebesgue": Lebesgue(),
    "asymmetric": Discrete(((0.0, 0.3), (0.7, 0.7))),
}


@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.sampled_from(PAIR_FAMILIES), st.randoms(use_true_random=False))
def test_images_of_drawn_pairs_hold_with_equal_diagonal_jets(family, rng):
    pair = random_admissible_pair(rng, family)
    image = IMAGE.apply(pair)
    for name, measure in ORACLE_MEASURES.items():
        report = eq.check_equality(pair, image, measure, 12)
        assert report.all_hold, (name, report.battery, report.failing)
        assert diagonal_jet_gap(pair, image, measure, report.grid) <= GAP_TOL, name


def _spot_gap(pairA, pairB, measure) -> float:
    """Largest |M_A - M_B| over a 3 x 3 grid inside the interval that two
    draws of one family share."""
    spots = interior_grid(pairA.interval, 3)
    return max(
        abs(mean_eval(MeanSpec(pairA, measure), x, y) - mean_eval(MeanSpec(pairB, measure), x, y))
        for x in spots for y in spots
    )


# two draws of one family keep only the measures under which their means
# differ: trig and hyperbolic pairs share their means under EBM and the
# Lebesgue measure (the half-angle identity), and a log pair's constant g
# drops out of its mean under every measure
@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.sampled_from(PAIR_FAMILIES), st.randoms(use_true_random=False))
def test_drawn_pairs_whose_means_differ_fail_with_unequal_diagonal_jets(family, rng):
    pairA, pairB = random_admissible_pair(rng, family), random_admissible_pair(rng, family)
    differing = {
        name: measure for name, measure in ORACLE_MEASURES.items()
        if _spot_gap(pairA, pairB, measure) > 1e-6
    }
    assume(differing)
    for name, measure in differing.items():
        report = eq.check_equality(pairA, pairB, measure, 12)
        assert "i" in report.failing and not report.all_hold, (name, report.battery)
        assert diagonal_jet_gap(pairA, pairB, measure, report.grid) > GAP_TOL, name

"""The in-package root solvers against scipy's, bit for bit.

means.brentq follows scipy.optimize.brentq step for step, and
means.chandrupatla follows scipy.optimize.elementwise.find_root, so on the
brackets the package actually solves both must return the same floats.
scipy is a test-only dependency; without it this module fails to collect.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
import scipy.optimize as scipy_optimize
from scipy.optimize.elementwise import find_root

from meanlab import means as mn
from meanlab.equality import CumulativeIntegral
from meanlab.measures import Density, Discrete, Lebesgue, preset_measure

from conftest import PAIR_FAMILIES, random_admissible_pair

TABLE_MEASURES = [
    preset_measure("ebm"), Lebesgue(), Discrete(((0.0, 0.3), (0.7, 0.7))), Density("2 * x"),
]


def _recording(monkeypatch, name):
    """Record the arguments of every call of means.<name>; returns the
    record and the unwrapped solver."""
    calls = []
    solver = getattr(mn, name)

    def wrapper(*args):
        calls.append(args)
        return solver(*args)

    monkeypatch.setattr(mn, name, wrapper)
    return calls, solver


def _brackets(rng, pair, n=40):
    """Pairs of interior points, a half of them within 1e-6 of the diagonal."""
    lo, hi = pair.interval
    pad = 0.01 * (hi - lo)
    out = []
    for k in range(n):
        x = rng.uniform(lo + pad, hi - pad)
        gap = (1e-12, 1e-6, 1e-3, 0.5)[k % 4] * rng.uniform(-1.0, 1.0) * (hi - lo)
        out.append((x, min(max(x + gap, lo + pad), hi - pad)))
    return out


@pytest.mark.parametrize("measure", [preset_measure("ebm"), Lebesgue()], ids=["ebm", "lebesgue"])
@pytest.mark.parametrize("family", PAIR_FAMILIES)
def test_brentq_equals_scipy(monkeypatch, family, measure):
    rng = random.Random(f"{family}-brentq")
    spec = mn.MeanSpec(random_admissible_pair(rng, family), measure)
    brackets = _brackets(rng, spec.pair)
    # the mean kernel prints the steps of brentq; handed back, mean_eval
    # runs brentq itself, on the same brackets, to the same roots
    printed = [mn.mean_eval(spec, x, y) for x, y in brackets]
    calls, brentq = _recording(monkeypatch, "brentq")
    monkeypatch.setitem(spec.pair.mean_kernels, measure, lambda x, y: (None, None))
    assert [mn.mean_eval(spec, x, y) for x, y in brackets] == printed
    assert len(calls) > 30
    for f, a, b, fa, fb in calls:
        want = scipy_optimize.brentq(
            f, a, b, xtol=mn._XATOL, rtol=mn._XRTOL, maxiter=mn._MAXITER
        )
        assert brentq(f, a, b, fa, fb) == want


@pytest.mark.parametrize("scale", [1e-120, 1e-200, 1e-300, 1e-310])
def test_brentq_equals_scipy_on_tiny_residuals(scale):
    # the extrapolation denominator underflows to 0 and the step bisects
    rng = random.Random(f"{scale}-tiny")
    for _ in range(200):
        c = rng.uniform(0.01, 0.7)
        a, b = rng.uniform(0.0, c ** (1 / 3)), rng.uniform(c ** (1 / 3), 1.0)

        def f(z):
            return scale * (z * z * z - c)

        want = scipy_optimize.brentq(f, a, b, xtol=mn._XATOL, rtol=mn._XRTOL, maxiter=mn._MAXITER)
        assert mn._solve_bracketed(f, a, b) == want


def test_quasiarithmetic_of_tiny_residuals_equals_scipy(monkeypatch):
    calls, brentq = _recording(monkeypatch, "brentq")
    for x, y in [(0.9, 1.0), (0.5, 0.7), (1.0, 1.5), (0.1, 0.95)]:
        mn.quasiarithmetic("exp(-300*x)", x, y)
    assert len(calls) == 4
    for f, a, b, fa, fb in calls:
        want = scipy_optimize.brentq(
            f, a, b, xtol=mn._XATOL, rtol=mn._XRTOL, maxiter=mn._MAXITER
        )
        assert brentq(f, a, b, fa, fb) == want


def _scipy_roots(f, a, b, args):
    # find_root's own step cap, as mean_table used before it had its own
    res = find_root(
        f, (a, b), args=args,
        tolerances={"xatol": mn._XATOL, "xrtol": mn._XRTOL, "fatol": mn._FATOL, "frtol": 0},
    )
    return np.where(res.success, res.x, np.nan), res.success


def _assert_batches_equal(calls, chandrupatla):
    assert calls
    for f, a, b, fa, fb, args in calls:
        z, ok = chandrupatla(f, a, b, fa, fb, args)
        want_z, want_ok = _scipy_roots(f, a, b, args)
        assert np.array_equal(ok, want_ok)
        assert np.array_equal(z, want_z, equal_nan=True)


@pytest.mark.parametrize("measure", TABLE_MEASURES, ids=["ebm", "lebesgue", "atoms", "density"])
@pytest.mark.parametrize("family", PAIR_FAMILIES)
def test_mean_table_roots_equal_find_root(monkeypatch, family, measure):
    rng = random.Random(f"{family}-table")
    spec = mn.MeanSpec(random_admissible_pair(rng, family), measure)
    lo, hi = spec.pair.interval
    calls, chandrupatla = _recording(monkeypatch, "chandrupatla")
    mn.mean_table(spec, lo + (hi - lo) * (np.arange(12) + 0.5) / 12)
    _assert_batches_equal(calls, chandrupatla)


@pytest.mark.parametrize("integrand", [np.cos, np.exp, lambda t: np.cbrt(t * t + 0.1)])
def test_quasiarithmetic_table_roots_equal_find_root(monkeypatch, integrand):
    calls, chandrupatla = _recording(monkeypatch, "chandrupatla")
    mn.quasiarithmetic_table(CumulativeIntegral(integrand, 0.1), np.linspace(-1.2, 1.3, 15))
    _assert_batches_equal(calls, chandrupatla)


def test_nan_bands_fail_as_in_find_root():
    # residuals that are nan on a band of the bracket: an element fails or
    # converges exactly where find_root's does
    rng = np.random.default_rng(11)
    n = 400
    lo, hi = rng.uniform(0.05, 0.6, n), rng.uniform(1e-6, 0.3, n)
    root = rng.uniform(0.05, 0.95, n)

    def f(x, lo, hi, root):
        return np.where((x > lo) & (x < lo + hi), np.nan, x - root)

    a, b = np.zeros(n), np.ones(n)
    z, ok = mn.chandrupatla(f, a, b, f(a, lo, hi, root), f(b, lo, hi, root), (lo, hi, root))
    with np.errstate(invalid="ignore"):
        want_z, want_ok = _scipy_roots(f, a, b, (lo, hi, root))
    assert 0 < ok.sum() < n
    assert np.array_equal(ok, want_ok)
    assert np.array_equal(z, want_z, equal_nan=True)


def test_finished_elements_are_evaluated_at_no_new_point():
    # a third of the batch converges early, so those elements wait in the
    # state arrays while the rest run; every (element, x) given to f must be
    # one find_root gives it too
    rng = np.random.default_rng(3)
    n = 300
    idx, root = np.arange(n), rng.uniform(0.05, 0.95, n)
    k = np.where(idx < n // 3, 1.0, 25.0)
    seen = {"mine": set(), "scipy": set()}

    def recorded(name):
        def f(x, idx, root, k):
            seen[name].update(zip(np.broadcast_to(idx, x.shape).tolist(), x.tolist()))
            return np.tanh(k * (x - root))
        return f

    a, b = np.zeros(n), np.ones(n)
    fa, fb = np.tanh(k * (a - root)), np.tanh(k * (b - root))
    z, ok = mn.chandrupatla(recorded("mine"), a, b, fa, fb, (idx, root, k))
    want_z, want_ok = _scipy_roots(recorded("scipy"), a, b, (idx, root, k))
    assert ok.all() and np.array_equal(ok, want_ok) and np.array_equal(z, want_z)
    # the caller evaluates the ends for chandrupatla, find_root evaluates them itself
    ends = {(i, x) for i in idx.tolist() for x in (0.0, 1.0)}
    assert seen["mine"] - ends == seen["scipy"] - ends

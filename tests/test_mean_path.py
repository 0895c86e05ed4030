"""The scalar mean path: bit identity with the node-by-node route, a 50-digit
reference, and properties of every mean.

mean_eval takes its two segment sums over plain-float nodes with the
compiled kernels held on the pair. _node_by_node_mean_eval is the route it
replaced: one integrand call per node over numpy-scalar nodes, as the
nodes of numpy's Gauss-Legendre rule come.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanlab import expr as ex
from meanlab import means as mn
from meanlab import measures as ms
from meanlab.errors import DomainViolation, QuadratureNonFinite
from meanlab.expr import FunctionPair
from meanlab.means import MeanSpec, mean_eval
from meanlab.measures import Density, Lebesgue, preset_measure

from conftest import PAIR_FAMILIES, mp_value, random_admissible_pair

MEASURES = {
    "ebm": preset_measure("ebm"),
    "lebesgue": Lebesgue(),
    "atoms": ms.measure_from_json({"type": "atoms", "atoms": [[0, 0.3], [0.7, 0.7]]}),
    "density": Density("2 * x"),
}
DENSITIES = ("2 * x", "3 * x^2", "6 * x * (1 - x)")


def _node_by_node_integrate(m, integrand):
    ts, ws = (np.asarray(a) for a in m._nodes())
    total = 0.0
    for t, w in zip(ts, ws):
        v = integrand(t)
        if not math.isfinite(v):
            raise QuadratureNonFinite(t, v)
        total = total + w * v
    return float(total)


def _node_by_node_mean_eval(spec, x, y):
    f = ex.compile_scalar(spec.pair.f)
    g = ex.compile_scalar(spec.pair.g)
    num = _node_by_node_integrate(spec.measure, lambda t: f(t * x + (1 - t) * y))
    den = _node_by_node_integrate(spec.measure, lambda t: g(t * x + (1 - t) * y))
    r = num / den
    lo, hi = (x, y) if x < y else (y, x)
    return mn._solve_bracketed(lambda z: f(z) - r * g(z), lo, hi)


def _points(rng, interval, n=3):
    lo, hi = interval
    span = hi - lo
    return [(lo + span * rng.uniform(0.02, 0.98), lo + span * rng.uniform(0.02, 0.98))
            for _ in range(n)]


def _cases(seed):
    rng = random.Random(seed)
    for fam in PAIR_FAMILIES:
        pair = random_admissible_pair(rng, fam)
        yield fam, pair, _points(rng, pair.interval)


@pytest.mark.parametrize("measure", sorted(MEASURES))
def test_mean_eval_matches_node_by_node_route_bitwise(measure):
    for fam, pair, points in _cases(11):
        spec = MeanSpec(pair, MEASURES[measure])
        for x, y in points:
            assert mean_eval(spec, x, y) == _node_by_node_mean_eval(spec, x, y), (fam, x, y)


@pytest.mark.parametrize("rho", DENSITIES)
def test_density_moments_match_node_by_node_route_bitwise(rho):
    m = Density(rho)
    md = ms.moments(m, 8)
    mu_hat1 = _node_by_node_integrate(m, lambda t: t)
    assert md.mu_hat1 == mu_hat1
    for n in range(9):
        assert md.mu[n] == _node_by_node_integrate(m, lambda t: (t - mu_hat1) ** n), n


@pytest.mark.parametrize("measure", sorted(MEASURES))
def test_f_fails_before_g(measure):
    # not validated: log(x) and sqrt(x) both fail at every negative point
    pair = FunctionPair(ex.parse("log(x)"), ex.parse("sqrt(x)"), (-1.0, 1.0), 6)
    spec = MeanSpec(pair, MEASURES[measure])
    x, y = -0.5, -0.25
    with pytest.raises(DomainViolation) as got:
        mean_eval(spec, x, y)
    t = MEASURES[measure]._nodes()[0][0]
    p = t * x + (1.0 - t) * y
    with pytest.raises(DomainViolation) as want:
        pair.f_at(p)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("log") and str(got.value).endswith(f" at {p!r}")
    # the route it replaced names the same point, as a numpy scalar
    with pytest.raises(DomainViolation) as old:
        _node_by_node_mean_eval(spec, x, y)
    assert str(old.value) == str(got.value).replace(repr(p), repr(np.float64(p)))


def test_pair_holds_its_kernels():
    pair = ex.validate_pair("sin(x)", "cos(x)", (-0.5, 0.5))
    assert pair.f_at is pair.f_at
    assert pair.f_at is ex.compile_scalar(pair.f)
    assert pair.g_at(0.25) == math.cos(0.25)
    twin = ex.validate_pair("sin(x)", "cos(x)", (-0.5, 0.5))
    assert twin == pair and hash(twin) == hash(pair) and repr(twin) == repr(pair)


# --------------------------------------------------------------- 50-digit reference

def _mp_mean(spec, x, y):
    """The mean with the same nodes and weights, at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        ts, ws = spec.measure._nodes()
        X, Y = mpmath.mpf(x), mpmath.mpf(y)
        points = [mpmath.mpf(t) * X + (1 - mpmath.mpf(t)) * Y for t in ts]

        def seg(e):
            return mpmath.fsum(mpmath.mpf(w) * mp_value(e, p) for w, p in zip(ws, points))

        f, g = spec.pair.f, spec.pair.g
        r = seg(f) / seg(g)
        z = mpmath.findroot(lambda z: mp_value(f, z) - r * mp_value(g, z),
                            (min(X, Y), max(X, Y)), solver="anderson")
        return float(z)


@pytest.mark.parametrize("measure", ["ebm", "lebesgue"])
def test_mean_eval_matches_50_digit_reference(measure):
    pytest.importorskip("mpmath")
    for fam, pair, points in _cases(5):
        spec = MeanSpec(pair, MEASURES[measure])
        for x, y in points:
            ref = _mp_mean(spec, x, y)
            got = mean_eval(spec, x, y)
            assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref)), (fam, x, y, got, ref)


@pytest.mark.parametrize("measure", sorted(MEASURES))
def test_mean_table_matches_50_digit_reference(measure):
    pytest.importorskip("mpmath")
    for fam, pair, _ in _cases(6):
        spec = MeanSpec(pair, MEASURES[measure])
        lo, hi = pair.interval
        xs = lo + (hi - lo) * np.array([0.07, 0.31, 0.62, 0.93])
        table = mn.mean_table(spec, xs)
        for i, x in enumerate(xs):
            for j, y in enumerate(xs):
                if i != j:
                    ref = _mp_mean(spec, x, y)
                    got = table[i, j]
                    assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref)), (fam, x, y, got, ref)


# --------------------------------------------------------------- properties

_PAIRS = {fam: random_admissible_pair(random.Random(3), fam) for fam in PAIR_FAMILIES}
_unit = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)


def _at(pair, u):
    lo, hi = pair.interval
    return lo + (hi - lo) * u


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(PAIR_FAMILIES), st.sampled_from(sorted(MEASURES)), _unit, _unit)
def test_mean_is_internal(fam, measure, u, v):
    pair = _PAIRS[fam]
    x, y = _at(pair, u), _at(pair, v)
    z = mean_eval(MeanSpec(pair, MEASURES[measure]), x, y)
    assert min(x, y) <= z <= max(x, y)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(PAIR_FAMILIES), st.sampled_from(["ebm", "lebesgue"]), _unit, _unit)
def test_mean_is_symmetric_under_symmetric_measures(fam, measure, u, v):
    pair = _PAIRS[fam]
    spec = MeanSpec(pair, MEASURES[measure])
    x, y = _at(pair, u), _at(pair, v)
    a, b = mean_eval(spec, x, y), mean_eval(spec, y, x)
    assert abs(a - b) <= 1e-14 * max(1.0, abs(a))

"""The scalar mean path: bit identity with the node-by-node route, a 50-digit
reference, and properties of every mean. Also the Lebesgue tables, whose
segment integrals are exact rather than node sums: against a 50-digit
reference of the exact integrals, and against the node loop.

mean_eval runs the pair's printed mean kernel: the segment sums over
plain-float nodes and the Brent steps in one function. _node_by_node_mean_eval
is the route it replaced: one integrand call per node over numpy-scalar
nodes, as the nodes of numpy's Gauss-Legendre rule come, then
_solve_bracketed on the residual, the endpoint fallback and the certificate.
Both must give the same bits, and the same failure class, text and node.
"""

from __future__ import annotations

import math
import random
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanlab import expr as ex
from meanlab import means as mn
from meanlab import measures as ms
from meanlab.errors import BracketFailure, DomainViolation, MeanLabError, QuadratureNonFinite
from meanlab.expr import FunctionPair
from meanlab.means import MeanSpec, mean_eval
from meanlab.measures import Density, Lebesgue, preset_measure

from conftest import PAIR_FAMILIES, mp_value, random_admissible_pair

_PAIRS = {fam: random_admissible_pair(random.Random(3), fam) for fam in PAIR_FAMILIES}
_unit = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)


def _unit_points():
    return st.tuples(_unit, _unit)


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
    tol = mn.RESIDUAL_TOL * (1.0 + abs(r))

    def resid(z):
        return f(z) - r * g(z)

    try:
        z = mn._solve_bracketed(resid, lo, hi)
    except BracketFailure:
        for end in (lo, hi):
            if abs(f(end) / g(end) - r) <= tol:
                return end
        raise
    if abs(f(z) / g(z) - r) > tol:
        raise BracketFailure(lo, hi, resid(lo), resid(hi), detail="residual above tolerance")
    return z


def _outcome(route, spec, x, y):
    """The value's repr, or the failure's class, text and node, with the
    numpy scalars of the node-by-node route printed as floats (and their
    overflow warnings silenced, as Python floats give none)."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return repr(route(spec, x, y))
    except (ArithmeticError, ValueError, MeanLabError) as exc:
        text = re.sub(r"np\.float64\(([^)]*)\)", r"\1", str(exc))
        return type(exc).__name__, text, repr(float(getattr(exc, "node", math.nan)))


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
        ex.compile_scalar(pair.f)(p)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("log") and str(got.value).endswith(f" at {p!r}")
    # the route it replaced names the same point, as a numpy scalar
    with pytest.raises(DomainViolation) as old:
        _node_by_node_mean_eval(spec, x, y)
    assert str(old.value) == str(got.value).replace(repr(p), repr(np.float64(p)))
    # g = sqrt(x) fails from the first point below 0 on, f = log(x + 0.3)
    # only below -0.3: f still fails first, at its own first point
    pair = FunctionPair(ex.parse("log(x + 0.3)"), ex.parse("sqrt(x)"), (-1.0, 1.0), 6)
    spec = MeanSpec(pair, MEASURES[measure])
    x, y = -0.9, 0.8
    ts = MEASURES[measure]._nodes()[0]
    points = [t * x + (1.0 - t) * y for t in ts]
    first = next(p for p in points if p + 0.3 <= 0.0)
    with pytest.raises(DomainViolation, match=rf"^log of non-positive value at {re.escape(repr(first))}$"):
        mean_eval(spec, x, y)
    assert _outcome(mean_eval, spec, x, y) == _outcome(_node_by_node_mean_eval, spec, x, y)


def _family_pair(data, fam):
    """A random admissible pair of the family, drawn from a seed."""
    return random_admissible_pair(random.Random(data.draw(st.integers(0, 2**32 - 1))), fam)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(PAIR_FAMILIES), st.sampled_from(sorted(MEASURES)), _unit_points(),
       st.sampled_from([None, 1e-3, 1e-9, 1e-14]))
def test_kernel_matches_node_by_node_route(data, fam, measure, uv, near):
    pair = _family_pair(data, fam)
    spec = MeanSpec(pair, MEASURES[measure])
    lo, hi = pair.interval
    x, y = (lo + (hi - lo) * u for u in uv)
    if near is not None:  # close to the diagonal, where the endpoint fallback lives
        y = min(max(x + near * (hi - lo) * (uv[1] - 0.5), lo + 1e-12), hi - 1e-12)
    want = _outcome(_node_by_node_mean_eval, spec, x, y)
    assert _outcome(mean_eval, spec, x, y) == want
    assert isinstance(want, str)


# hand-built pairs that skip validate_pair, each failing on the segment
FAILING = {
    # 1e308 * x overflows to inf inside sin from about x = 1.8 on
    "overflow_in_sin": ("sin(1e308 * x)", "1", (0.0, 3.0), (2.5, 0.5)),
    # the segment runs from 1 down to -0.5: log fails only at later nodes
    "log_at_a_later_node": ("log(x)", "1", (-1.0, 2.0), (-0.5, 1.0)),
    # g = sqrt(x) fails at an earlier node than f = log(x + 0.3)
    "g_before_f": ("log(x + 0.3)", "sqrt(x)", (-1.0, 1.0), (-0.9, 0.8)),
    # f is inf at the first nodes and fails a domain check at later ones
    "non_finite_then_domain": ("1e308 * x * x + log(x)", "1", (-1.0, 3.0), (-0.5, 2.5)),
    # ** gives 0.0 for a zero base and a complex number for a negative one
    "zero_base_rational_power": ("(x - x)^(3/2) + x", "1", (0.0, 3.0), (0.5, 2.5)),
    "negative_base_rational_power": ("x + (1 - x)^(3/2)", "1", (0.0, 3.0), (0.5, 2.5)),
    # g is inf - inf, a nan, from about x = 1.34 on, without an error
    "nan_value": ("x", "1e308 * x * x - 1e308 * x * x + 1", (0.0, 3.0), (0.5, 2.5)),
}


@pytest.mark.parametrize("measure", sorted(MEASURES))
@pytest.mark.parametrize("case", sorted(FAILING))
def test_kernel_fails_as_the_node_by_node_route(case, measure):
    f, g, interval, (x, y) = FAILING[case]
    pair = FunctionPair(ex.parse(f), ex.parse(g), interval, 6)
    spec = MeanSpec(pair, MEASURES[measure])
    want = _outcome(_node_by_node_mean_eval, spec, x, y)
    assert _outcome(mean_eval, spec, x, y) == want
    assert not isinstance(want, str), want  # each case fails on each measure


def test_deep_tree_compiles_to_a_kernel():
    # 200 nested sin(u + 0.01), a local and a try per call, in one kernel
    e = ex.Var()
    for _ in range(200):
        e = ex.Call("sin", ex.BinOp("+", e, ex.Const(0.01)))
    pair = FunctionPair(e, ex.parse("1"), (0.1, 2.0), 6)
    for measure in ("ebm", "lebesgue"):
        spec = MeanSpec(pair, MEASURES[measure])
        want = _outcome(_node_by_node_mean_eval, spec, 0.3, 1.7)
        assert isinstance(want, str) and _outcome(mean_eval, spec, 0.3, 1.7) == want
    assert len(pair.mean_kernels) == 2


def test_one_kernel_code_per_pair_shape():
    a = ex.validate_pair("sin(0.5 * x + 0.1)", "cos(0.5 * x + 0.1)", (-0.3, 0.9))
    b = ex.validate_pair("sin(0.7 * x + 0.3)", "cos(0.7 * x + 0.3)", (-0.3, 0.9))
    leb, ebm = MEASURES["lebesgue"], MEASURES["ebm"]
    for pair in (a, b):
        for m in (leb, ebm):
            mean_eval(MeanSpec(pair, m), 0.1, 0.5)
    ka, kb = a.mean_kernels[leb], b.mean_kernels[leb]
    assert ka is not kb and ka.__code__ is kb.__code__ is a.mean_kernels[ebm].__code__
    # held on the pair: a second call binds nothing
    mean_eval(MeanSpec(a, Lebesgue()), 0.2, 0.4)
    assert a.mean_kernels[leb] is ka and len(a.mean_kernels) == 2
    # the constants and the nodes are arguments, not code
    assert 0.7 not in kb.__code__.co_consts and 0.1 not in ka.__code__.co_consts
    cells = [c.cell_contents for c in kb.__closure__]
    assert 0.7 in cells and 0.3 in cells and mn._segment_nodes(leb) in cells
    assert mn._segment_nodes(leb) == tuple((t, 1.0 - t, w) for t, w in zip(*leb._nodes()))
    assert mn._mean_factory.cache_info().maxsize == ex.KERNEL_SHAPE_CACHE_SIZE
    # f and g share 0.5 * x + 0.1, so g's code reads it off f's
    (fs, gs), consts = a.value_shapes
    assert gs == ("cos", ("ref", 1)) and consts == (0.5, 0.1)
    # and with another shift only 0.5 * x
    (fs, gs), consts = ex.validate_pair("sin(0.5 * x + 0.1)", "cos(0.5 * x + 0.2)", (-0.3, 0.9)).value_shapes
    assert gs == ("cos", ("+", ("ref", 0), "c")) and consts == (0.5, 0.1, 0.2)


def test_pair_holds_its_kernels():
    pair = ex.validate_pair("sin(x)", "cos(x)", (-0.5, 0.5))
    kernels = pair.mean_kernels
    mean_eval(MeanSpec(pair, Lebesgue()), 0.1, 0.2)
    assert pair.mean_kernels is kernels and Lebesgue() in kernels
    twin = ex.validate_pair("sin(x)", "cos(x)", (-0.5, 0.5))
    assert twin == pair and hash(twin) == hash(pair) and repr(twin) == repr(pair)


# --------------------------------------------------------------- 50-digit reference

def _mp_mean(spec, x, y):
    """The mean with the same nodes and weights, at 50 digits."""
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
    for fam, pair, points in _cases(5):
        spec = MeanSpec(pair, MEASURES[measure])
        for x, y in points:
            ref = _mp_mean(spec, x, y)
            got = mean_eval(spec, x, y)
            assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref)), (fam, x, y, got, ref)


@pytest.mark.parametrize("measure", sorted(MEASURES))
def test_mean_table_matches_50_digit_reference(measure):
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


# --------------------------------------------------------------- Lebesgue tables

def _mp_lebesgue_mean(pair, x, y):
    """The Lebesgue mean from the exact segment integrals, at 50 digits:
    mpmath.quad of f and g from y to x, then findroot. Returns the mean
    and the two segment integrals."""
    with mpmath.workdps(50):
        X, Y = mpmath.mpf(x), mpmath.mpf(y)
        num, den = (mpmath.quad(lambda s: mp_value(e, s), [Y, X]) / (X - Y) for e in (pair.f, pair.g))
        r = num / den
        z = mpmath.findroot(lambda z: mp_value(pair.f, z) - r * mp_value(pair.g, z),
                            (min(X, Y), max(X, Y)), solver="anderson")
        return float(z), float(num), float(den)


def _close_grid(pair):
    """Seven unsorted points: pairs 1e-12, 1e-9 and 1e-6 apart, one point twice."""
    lo, hi = pair.interval
    a, b, c = (lo + (hi - lo) * u for u in (0.2, 0.5, 0.8))
    return np.array([b + 1e-9, a, c + 1e-6, b, a + 1e-12, c, b])


@pytest.mark.parametrize("grid", ["100", "close"])
def test_lebesgue_table_matches_exact_50_digit_reference(grid):
    rng = random.Random(8)
    for fam, pair, _ in _cases(6):
        spec = MeanSpec(pair, Lebesgue())
        lo, hi = pair.interval
        if grid == "100":
            xs = lo + (hi - lo) * (np.arange(100) + 0.5) / 100
            cells = [(rng.randrange(100), rng.randrange(100)) for _ in range(20)]
        else:
            xs = _close_grid(pair)
            cells = [(i, j) for i in range(len(xs)) for j in range(len(xs))]
        table = mn.mean_table(spec, xs)
        f, g = ex.compile_array(pair.f), ex.compile_array(pair.g)
        num, den = (spec.measure.segment_integrals(e, xs) for e in (f, g))
        for i, j in cells:
            x, y = xs[i], xs[j]
            if x == y:
                assert table[i, j] == x
                continue
            ref, ref_num, ref_den = _mp_lebesgue_mean(pair, x, y)
            assert abs(table[i, j] - ref) <= 1e-14 * max(1.0, abs(ref)), (fam, x, y, table[i, j], ref)
            # the running cell sums keep the integrals exact to rounding at any gap
            for got, want in ((num[i, j], ref_num), (den[i, j], ref_den)):
                assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (fam, x, y, got, want)


@pytest.mark.parametrize("fam", PAIR_FAMILIES)
def test_lebesgue_segment_integrals_match_the_node_loop(fam):
    pair = random_admissible_pair(random.Random(9), fam)
    lo, hi = pair.interval
    xs = lo + (hi - lo) * np.array([0.9, 0.02, 0.5, 0.31, 0.5, 0.98, 0.5 + 1e-9, 0.13, 0.77])
    m = Lebesgue()
    for e in (pair.f, pair.g):
        fn = ex.compile_array(e)
        got, want = m.segment_integrals(fn, xs), ms.Measure.segment_integrals(m, fn, xs)
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want))), fam


def test_lebesgue_table_raises_at_a_non_finite_panel_point():
    # 1e308 (2 - (x - 1)^2) overflows for |x - 1| < 0.45, so g is inf - inf + 1, a
    # nan, there and 1 at both grid points
    g = ex.parse("1e308 * (2 - (x - 1)^2) - 1e308 * (2 - (x - 1)^2) + 1")
    spec = MeanSpec(FunctionPair(ex.parse("x"), g, (0.0, 3.0), 6), Lebesgue())
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.array_equal(ex.compile_array(g)(np.array([0.5, 1.5])), [1.0, 1.0])
        # the text names a point of the interval, as the base class's node
        # loop names a quadrature node t in [0, 1]
        with pytest.raises(QuadratureNonFinite, match=r"nan at point 0\.5547506254918819$") as got:
            mn.mean_table(spec, [0.5, 1.5])
        with pytest.raises(QuadratureNonFinite, match=r"nan at quadrature node 0\.05183942211697"):
            ms.Measure.segment_integrals(Lebesgue(), ex.compile_array(g), np.array([0.5, 1.5]))
    assert 0.5 < got.value.node < 1.5 and math.isnan(got.value.value)


# --------------------------------------------------------------- properties



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

"""Equivalence fitting, power-law gap checks, and the assertion ladders."""

from __future__ import annotations

import json
import math
import random
import re

import numpy as np
import pytest

from meanlab import calculus
from meanlab import equality as eq
from meanlab import expr as ex
from meanlab import means as mn
from meanlab.errors import (
    IllConditionedFit, NotApplicable, NotPositive, OutOfInterval, QuadratureNonFinite,
)
from meanlab.means import MeanSpec, mean_eval, quasiarithmetic
from meanlab import measures
from meanlab.measures import Discrete, Lebesgue, classify, preset_measure

from conftest import mp_value, random_admissible_pair

INTERVAL = (-0.7, 0.7)
SINCOS = ex.validate_pair("sin(x)", "cos(x)", INTERVAL)
LINEAR = ex.validate_pair("x", "1", INTERVAL)
EXP = ex.validate_pair("exp(x)", "1", INTERVAL)

EBM = preset_measure("ebm")
LEB = Lebesgue()

# mu3 = 0 but mu5 nonzero: symmetric two-atom block plus a tuned third atom
_S = 0.21378583129651413
SPLIT_MEASURE = Discrete(((0.0, 0.6 - _S), (0.6, 0.4), (1.0, _S)))

# Gaussian moment ratios mu4 = 3 mu2^2 and mu6 = 15 mu2^3 on four atoms
_W, _B = 0.045875854768009934, 0.15891862259787443
GAUSSIAN_RATIO = Discrete(
    ((0.0, _W), (0.5 - _B, 0.5 - _W), (0.5 + _B, 0.5 - _W), (1.0, _W))
)

# mu6 = 5 mu2 mu4 with mu4 != 3 mu2^2: three atoms, outer weight 1/10
SIXTH_ONLY = Discrete(((0.0, 0.1), (0.5, 0.8), (1.0, 0.1)))

# mu4 = 3 mu2^2 with mu6 != 5 mu2 mu4, giving r = -1
FOURTH_ONLY = Discrete(((0.0, 1.0 / 6.0), (0.5, 2.0 / 3.0), (1.0, 1.0 / 6.0)))

ASYMMETRIC = Discrete(((0.0, 0.3), (0.7, 0.7)))

# mu3 = mu5 = 0 with mu6 != 5 mu2 mu4 and mu4 != 3 mu2^2: N3 branch (iv)
EVEN = Discrete(((0.0, 0.2), (0.5, 0.6), (1.0, 0.2)))

# mu6 = 5 mu2 mu4 at the zero tolerance: mu6 - 5 mu2 mu4 and mu6 - 5 mu4 mu2
# round to either side of it
SIXTH_BOUNDARY = Discrete((
    (0.2369580832448388, 0.09999999849054474),
    (0.5, 0.8000000030189105),
    (0.7630419167551612, 0.09999999849054474),
))


class TestMatrix2:
    def test_det_and_norm(self):
        m = eq.Matrix2(2.0, 1.0, -1.0, 1.0)
        assert m.det() == pytest.approx(3.0)
        assert m.norm() == pytest.approx(math.sqrt(7.0))

    def test_normalized_unit_norm_positive_lead(self):
        m = eq.Matrix2(-2.0, 1.0, -1.0, 1.0).normalized()
        assert m.norm() == pytest.approx(1.0, abs=1e-15)
        # the largest magnitude entry (originally -2) is flipped positive
        assert m.a > 0.0

    def test_zero_matrix_normalizes_to_itself(self):
        zero = eq.Matrix2(0.0, 0.0, 0.0, 0.0)
        assert zero.normalized() is zero

    def test_apply_evaluates_combination(self):
        m = eq.Matrix2(2.0, 1.0, -1.0, 1.0)
        pair = m.apply(SINCOS)
        x = 0.3
        assert pair.f_at(x) == pytest.approx(2.0 * math.sin(x) + math.cos(x), rel=1e-14)
        assert pair.g_at(x) == pytest.approx(-math.sin(x) + math.cos(x), rel=1e-14)


class TestQuadraticForm:
    def test_value(self):
        p = eq.QuadraticForm(2.0, -1.0, 3.0)
        assert p(2.0) == pytest.approx(2.0 * 4.0 - 2.0 + 3.0)

    def test_min_at_interior_vertex(self):
        p = eq.QuadraticForm(1.0, -2.0, 0.0)  # vertex at t = 1, value -1
        assert p.min_on(0.0, 3.0) == pytest.approx(-1.0)

    def test_min_at_endpoint_when_vertex_outside(self):
        p = eq.QuadraticForm(1.0, -2.0, 0.0)
        assert p.min_on(2.0, 3.0) == pytest.approx(p(2.0))

    def test_linear_form_ignores_vertex(self):
        p = eq.QuadraticForm(0.0, 1.0, 0.0)
        assert p.min_on(-1.0, 1.0) == pytest.approx(-1.0)


class TestAssertionResult:
    def test_rejects_negative_residual(self):
        with pytest.raises(ValueError):
            eq.AssertionResult("i", True, -1.0, 1e-9)

    def test_rejects_holds_above_tolerance(self):
        with pytest.raises(ValueError):
            eq.AssertionResult("i", True, 1.0, 1e-9)


class TestAntiderivative:
    def test_constant_integrand(self):
        got = eq.CumulativeIntegral(np.ones_like, 0.0)(2.0)
        assert got == pytest.approx(2.0, abs=1e-14)

    def test_polynomial_integrand(self):
        got = eq.CumulativeIntegral(lambda t: 3.0 * t * t, 0.0)(1.0)
        assert got == pytest.approx(1.0, abs=1e-14)

    def test_cosine_matches_sine(self):
        for x in (-1.3, -0.2, 0.4, 2.1):
            got = eq.CumulativeIntegral(np.cos, 0.0)(x)
            assert got == pytest.approx(math.sin(x), abs=1e-13)

    def test_cumulative_is_call_order_independent(self):
        c1 = eq.CumulativeIntegral(np.exp, 0.0)
        far = c1(1.57)
        near = c1(0.03)
        c2 = eq.CumulativeIntegral(np.exp, 0.0)
        assert c2(0.03) == near
        assert c2(1.57) == far
        assert far == pytest.approx(math.exp(1.57) - 1.0, rel=1e-14)
        # one array call gives the per-point values, on both sides of x0
        xs = np.array([1.57, -0.83, 0.03, 0.0, -2.2, 0.45])
        batch = eq.CumulativeIntegral(np.exp, 0.0)(xs)
        assert batch.tolist() == [eq.CumulativeIntegral(np.exp, 0.0)(x) for x in xs]
        assert batch == pytest.approx(np.exp(xs) - 1.0, rel=1e-14, abs=1e-15)

    def test_backward_direction(self):
        got = eq.CumulativeIntegral(lambda t: 1.0 + t * t, 0.5)(-0.5)
        exact = (-0.5 + (-0.5) ** 3 / 3.0) - (0.5 + 0.5**3 / 3.0)
        assert got == pytest.approx(exact, abs=1e-14)

    def test_non_finite_integrand(self):
        with pytest.raises(QuadratureNonFinite, match="^integrand returned nan at quadrature node"):
            eq.CumulativeIntegral(lambda t: np.full_like(t, np.nan), 0.0)(0.3)


@pytest.mark.parametrize("check", [eq.check_EBM, eq.check_ECM])
def test_row_vii_reads_sine_and_cosine_type_nodes(check):
    # t = -2 is neither sin/cos nor sinh/cosh, so the pair keeps its S and C nodes
    pair = eq.make_sincos_pair(-2.0, "x", interval=INTERVAL)
    assert isinstance(pair.f, ex.SType) and isinstance(pair.g, ex.CType)
    vii = check(pair, SINCOS, grid=12).verdict_per_assertion["vii"]
    assert vii.holds is True
    assert vii.constants == {"alpha": -2.0, "beta": -1.0}


def test_product_factors_fold_negation_and_constant_divisors():
    assert eq._product_factors(ex.parse("-(2 * sin(x)) / 4")) == (-0.5, [ex.parse("sin(x)")])
    # a zero divisor is not folded
    assert eq._product_factors(ex.parse("x / 0")) == (1.0, [ex.parse("x / 0")])


def _viii_generator(family: str, cube: bool, mpmath):
    """A pair of the family, the centre of its interval, and the (viii)
    integrand, W10 under EBM and its real cube root under ECM, as the
    report's float function and as a 50-digit mpmath function."""
    pair = random_admissible_pair(random.Random(f"{family}-cumulative"), family)
    w10 = eq._w10_array(pair)
    df, dg = ex._derivative(pair.f), ex._derivative(pair.g)

    def w(t):
        v = mp_value(df, t) * mp_value(pair.g, t) - mp_value(pair.f, t) * mp_value(dg, t)
        # mpmath.cbrt of a negative value is complex
        return mpmath.sign(v) * abs(v) ** (mpmath.mpf(1) / 3) if cube else v

    lo, hi = pair.interval
    return pair, 0.5 * (lo + hi), (lambda t: np.cbrt(w10(t))) if cube else w10, w


@pytest.mark.parametrize("cube", [False, True], ids=["w10", "cbrt_w10"])
@pytest.mark.parametrize("family", ["power", "exponential", "log", "polynomial"])
def test_cumulative_integral_matches_50_digit_reference(family, cube):
    # the (viii) integrands from the pair's centre to 13 points across its interval
    mpmath = pytest.importorskip("mpmath")
    pair, anchor, integrand, w = _viii_generator(family, cube, mpmath)
    lo, hi = pair.interval
    xs = lo + (hi - lo) * np.arange(1, 14) / 14
    got = eq.CumulativeIntegral(integrand, anchor)(xs)
    with mpmath.workdps(50):
        for x, v in zip(xs, got):
            ref = mpmath.quad(w, [mpmath.mpf(anchor), mpmath.mpf(float(x))])
            assert abs(v - ref) <= 1e-14 * (1 + abs(ref)), (x, v, ref)


@pytest.mark.parametrize("cube", [False, True], ids=["w10", "cbrt_w10"])
@pytest.mark.parametrize("family", ["power", "exponential", "log", "polynomial"])
def test_viii_inversion_matches_50_digit_reference(family, cube):
    # the quasiarithmetic table of the (viii) generator, the integral Phi of
    # the integrand, against the 50-digit root z in [x, y] of
    # Phi(z) - Phi(x) = (Phi(y) - Phi(x)) / 2, by Newton from the midpoint
    mpmath = pytest.importorskip("mpmath")
    pair, anchor, integrand, w = _viii_generator(family, cube, mpmath)
    lo, hi = pair.interval
    xs = lo + (hi - lo) * np.arange(1, 4) / 4
    got = mn.quasiarithmetic_table(eq.CumulativeIntegral(integrand, anchor), xs)
    with mpmath.workdps(50):
        ends = [mpmath.mpf(float(x)) for x in xs]
        for i in range(len(xs)):
            for j in range(i + 1, len(xs)):
                a, b = ends[i], ends[j]
                half = mpmath.quad(w, [a, b]) / 2
                ref = mpmath.findroot(lambda z: mpmath.quad(w, [a, z]) - half, (a + b) / 2,
                                      solver="newton", df=w)
                assert a < ref < b
                for v in (got[i, j], got[j, i]):
                    assert abs(v - ref) <= 1e-14 * (1 + abs(ref)), (xs[i], xs[j], v, ref)


@pytest.mark.parametrize("exponent", ["iii", "iv"])
@pytest.mark.parametrize("family", ["power", "exponential", "log", "polynomial"])
def test_phi3_w_integral_matches_50_digit_reference(family, exponent):
    # the N3 integrals of Phi^3 |W10|^e, e = 1 in (iii) and e = -q in (iv),
    # from the pair's centre to 13 points across its interval, with Phi =
    # W20 / W10 from the derivative trees in 50-digit arithmetic
    mpmath = pytest.importorskip("mpmath")
    pair = random_admissible_pair(random.Random(f"{family}-phi3"), family)
    e = 1.0 if exponent == "iii" else -classify(EVEN).q
    df, dg = ex._derivative(pair.f), ex._derivative(pair.g)
    d2f, d2g = ex._derivative(df), ex._derivative(dg)

    def integrand(t):
        f, g = mp_value(pair.f, t), mp_value(pair.g, t)
        w10 = mp_value(df, t) * g - f * mp_value(dg, t)
        w20 = mp_value(d2f, t) * g - f * mp_value(d2g, t)
        return (w20 / w10) ** 3 * abs(w10) ** mpmath.mpf(e)

    lo, hi = pair.interval
    anchor = 0.5 * (lo + hi)
    xs = lo + (hi - lo) * np.arange(1, 14) / 14
    got = eq._phi3_w_integral(pair, e, anchor, xs)
    with mpmath.workdps(50):
        for x, v in zip(xs, got):
            ref = mpmath.quad(integrand, [mpmath.mpf(anchor), mpmath.mpf(float(x))])
            assert abs(v - ref) <= 1e-14 * (1 + abs(ref)), (x, v, ref)


@pytest.mark.parametrize("alpha", [-1.0, -2.0, 1.0])
def test_vi_antiderivative_matches_50_digit_reference(alpha):
    # the antiderivative of 1/P that row (vi) compares, for the quadratic
    # form fitted to (S_alpha, C_alpha) of x under EBM, at t = f/g on the grid
    mpmath = pytest.importorskip("mpmath")
    pair = eq.make_sincos_pair(alpha, "x", interval=INTERVAL)
    s = calculus.sample(pair, ex.interior_grid(INTERVAL, 13), 0)
    P, _, t, P_min = eq._quadratic_form_fit(s, np.ones(13))
    assert P_min > 0.0
    _, got = eq._reconstruction(s, P, t, ebm=True)
    anchor = mpmath.mpf(0.5 * (float(np.min(t)) + float(np.max(t))))
    a, b, c = (mpmath.mpf(v) for v in (P.a, P.b, P.c))
    with mpmath.workdps(50):
        for u, v in zip(t, got):
            ref = mpmath.quad(lambda z: 1 / ((a * z + b) * z + c), [anchor, mpmath.mpf(float(u))])
            assert abs(v - ref) <= 1e-14 * (1 + abs(ref)), (u, v, ref)


@pytest.mark.parametrize("check", [eq.check_EBM, eq.check_ECM])
def test_viii_matches_scalar_route(check):
    # (viii) from jet Wronskians (not the compiled derivative trees of the
    # report), scalar mean_eval and scalar quasiarithmetic, against the
    # batched residual of the report
    grid = 13
    rep = check(EXP, LINEAR, grid=grid)
    measure = preset_measure("ebm") if check is eq.check_EBM else Lebesgue()

    def w(ts):
        v = calculus.sample(EXP, ts, 0).w(1, 0)
        return v if check is eq.check_EBM else np.copysign(np.abs(v) ** (1.0 / 3.0), v)

    phi = eq.CumulativeIntegral(w, 0.0)
    xs = ex.interior_grid(INTERVAL, grid)[:: max(1, grid // 12)]
    sa, sb = MeanSpec(EXP, measure), MeanSpec(LINEAR, measure)
    gap = 0.0
    for x in xs:
        for y in xs:
            z = quasiarithmetic(phi, x, y)
            gap = max(gap, abs(mean_eval(sa, x, y) - z), abs(mean_eval(sb, x, y) - z))
    viii = rep.verdict_per_assertion["viii"]
    assert viii.holds is False
    assert viii.constants["subgrid"] == len(xs)
    assert viii.residual == pytest.approx(gap, rel=1e-12)


@pytest.mark.parametrize("check", [eq.check_EBM, eq.check_ECM])
def test_ladder_samples_each_pair_once(check, monkeypatch):
    # one pass of the pair jet kernel per pair over the whole grid;
    # validation happens before, and neither pair has a prefactor to track
    inner, calls = ex.pair_jets, []

    def counted(pair, x, order):
        calls.append(x)
        return inner(pair, x, order)

    monkeypatch.setattr(ex, "pair_jets", counted)
    rep = check(SINCOS, EXP, grid=12)
    assert len(rep.grid) == 12
    assert len(calls) == 2
    assert all(np.array_equal(x, rep.grid) for x in calls)


def _leaves(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _leaves(v)
    elif isinstance(value, list):
        for v in value:
            yield from _leaves(v)
    else:
        yield value


def test_reports_hold_plain_python_values():
    # every report is built from plain floats, ints and bools, so as_dict()
    # serializes and compares without numpy scalars
    image = eq.Matrix2(2.0, 1.0, -1.0, 1.0).apply(SINCOS)
    equivalent = [
        eq.check_EBM(SINCOS, image, grid=12),
        eq.check_ECM(SINCOS, image, grid=12),
        eq.check_N15(SINCOS, image, ASYMMETRIC, grid=12),
    ]
    # (exp, 1) exposes no sine and cosine pattern, so (vii) stays open
    overridden = eq.check_EBM(EXP, LINEAR, grid=12, tolerances={"quasiarithmetic_gap": 1})
    reports = [
        eq.check_phi_psi(EXP, LINEAR, 15),
        *equivalent,
        overridden,
        eq.check_ECM(SINCOS, LINEAR, grid=12),
        eq.check_N15(EXP, LINEAR, ASYMMETRIC, grid=12),
        eq.check_N25(EXP, LINEAR, SPLIT_MEASURE, 20),
        eq.check_N25(SINCOS, SINCOS, SPLIT_MEASURE, 20),
    ]
    for measure in (GAUSSIAN_RATIO, SIXTH_ONLY, FOURTH_ONLY, EVEN):
        reports.append(eq.check_N3(EXP, SINCOS, measure, 20))
    alternatives = [r.assertions[0].assertion_id for r in reports[-6:]]
    assert alternatives == ["power_law", "psi_equal", "i", "ii", "iii", "iv"]
    assert all(isinstance(r.equivalence, eq.Matrix2) for r in equivalent)
    assert equivalent[0].verdict_per_assertion["v"].constants == {"equivalent": 1.0}
    assert overridden.verdict_per_assertion["vii"].holds is None
    # an int override is read as a float, in the table and in the rows
    assert type(overridden.tolerances["quasiarithmetic_gap"]) is float
    assert type(overridden.verdict_per_assertion["viii"].tolerance) is float
    for report in reports:
        for leaf in _leaves(report.as_dict()):
            assert leaf is None or type(leaf) in (bool, int, float, str), (report, leaf)


@pytest.mark.parametrize(
    "measure, battery, direct",
    [
        (EBM, "EBM", lambda m: eq.check_EBM(SINCOS, LINEAR, grid=12, measure=m)),
        (LEB, "ECM", lambda m: eq.check_ECM(SINCOS, LINEAR, grid=12, measure=m)),
        (ASYMMETRIC, "N1.5", lambda m: eq.check_N15(SINCOS, LINEAR, m, grid=12)),
        (SPLIT_MEASURE, "N2.5", lambda m: eq.check_N25(SINCOS, LINEAR, m, 12)),
        (EVEN, "N3", lambda m: eq.check_N3(SINCOS, LINEAR, m, 12)),
    ],
    ids=["ebm", "lebesgue", "atoms", "split", "even"],
)
def test_check_equality_runs_the_battery_of_the_measure(measure, battery, direct):
    got = eq.check_equality(SINCOS, LINEAR, measure, grid=12)
    assert got.battery == battery
    assert got.as_dict() == direct(measure).as_dict()


def test_check_equality_finds_ebm_in_reverse_atom_order():
    reverse = Discrete(((1.0, 0.5), (0.0, 0.5)))
    assert eq.check_equality(SINCOS, LINEAR, reverse, grid=12).battery == "EBM"


@pytest.mark.parametrize("measure, battery", [(SPLIT_MEASURE, "N2.5"), (EVEN, "N3")])
def test_check_equality_rejects_overrides_for_branch_batteries(measure, battery):
    says = f"battery {battery} takes no tolerance overrides"
    with pytest.raises(ValueError, match=re.escape(says)):
        eq.check_equality(SINCOS, LINEAR, measure, grid=12, tolerances={"fit_residual": 1.0})


def test_check_equality_calls_the_batteries_through_the_module(monkeypatch):
    # tracing wraps the module attributes, so the dispatch must read them at call time
    names = ("check_EBM", "check_ECM", "check_N15", "check_N25", "check_N3")
    for name in names:
        monkeypatch.setattr(eq, name, lambda *args, _name=name, **kwargs: _name)
    got = [eq.check_equality(SINCOS, LINEAR, m) for m in (EBM, LEB, ASYMMETRIC, SPLIT_MEASURE, EVEN)]
    assert got == list(names)


# one measure per battery: EBM, ECM, N1.5, N2.5 and N3
BATTERY_MEASURES = {
    "ebm": EBM, "lebesgue": LEB, "atoms": ASYMMETRIC, "split": SPLIT_MEASURE, "even": EVEN,
}


LADDER_KEYS = [
    "R_values", "S_values", "all_hold", "assertions", "battery", "equivalence", "failing",
    "fitted", "grid", "interval", "notes", "regime", "tolerances",
]
N25_KEYS = ["alternative", "battery", "gamma", "holds", "note", "regime", "residual", "tolerance"]
N3_KEYS = sorted(N25_KEYS + ["alpha", "beta", "delta", "grid_used", "p", "q", "r"])


@pytest.mark.parametrize(
    "measure, keys",
    [(EBM, LADDER_KEYS), (LEB, LADDER_KEYS), (ASYMMETRIC, LADDER_KEYS), (SPLIT_MEASURE, N25_KEYS),
     (EVEN, N3_KEYS)],
    ids=list(BATTERY_MEASURES),
)
def test_result_keys_of_each_battery(measure, keys):
    # the meanlab-report/1 result: a ladder's fields, or the flat form of the
    # one row of N2.5 and N3, which the recorded benchmark outputs share
    assert sorted(eq.check_equality(SINCOS, LINEAR, measure, 20).as_dict()) == keys


@pytest.mark.parametrize("measure", BATTERY_MEASURES.values(), ids=list(BATTERY_MEASURES))
@pytest.mark.parametrize(
    "grid", [[0.1], [0.1, 0.2], [0.1, 0.1, 0.2], 2], ids=["one", "two", "repeated", "size_two"]
)
def test_batteries_reject_explicit_grids_below_three_points(measure, grid):
    with pytest.raises(ValueError, match="grid size must be at least 3"):
        eq.check_equality(EXP, LINEAR, measure, grid)
    # four points, three of them distinct, are enough
    eq.check_equality(EXP, LINEAR, measure, [-0.5, 0.0, 0.0, 0.5])


def test_one_point_grid_no_longer_certifies_unequal_means():
    # on the grid [0.1] alone, N3 reported alternative iv as holding with
    # residual 4.4e-16, although the two means differ at (-0.5, 0.5)
    gap = mean_eval(MeanSpec(EXP, EVEN), -0.5, 0.5) - mean_eval(MeanSpec(LINEAR, EVEN), -0.5, 0.5)
    assert gap == pytest.approx(0.0498, abs=1e-4)
    with pytest.raises(ValueError, match="grid size must be at least 3"):
        eq.check_equality(EXP, LINEAR, EVEN, [0.1])
    assert not eq.check_equality(EXP, LINEAR, EVEN, 12).assertions[0].holds


@pytest.mark.parametrize(
    "check",
    [
        lambda grid: eq.check_phi_psi(SINCOS, LINEAR, grid),
        lambda grid: eq.check_power_law_R(SINCOS, LINEAR, EBM, grid),
        *(
            lambda grid, m=m: eq.check_equality(SINCOS, LINEAR, m, grid)
            for m in BATTERY_MEASURES.values()
        ),
    ],
    ids=["phi_psi", "power_law_R", *BATTERY_MEASURES],
)
def test_empty_explicit_grid_is_named(check):
    with pytest.raises(ValueError, match="the explicit grid is empty"):
        check([])


@pytest.mark.parametrize("check", [eq.check_EBM, eq.check_ECM])
@pytest.mark.parametrize(
    "limit, context", [(1.0, "Psi power-law fit"), (1.5, "quadratic form fit")]
)
def test_equivalent_pairs_still_run_the_fits_of_iv_and_v(check, limit, context, monkeypatch):
    # rows (iv) to (ix) take the first alternative for equivalent pairs only
    # after the one-column Psi fits of (iv) (condition 1) and the quadratic
    # form fits of (v) (condition about 7) have run
    image = eq.Matrix2(2.0, 1.0, -1.0, 1.0).apply(SINCOS)
    monkeypatch.setattr(calculus, "FIT_CONDITION_LIMIT", limit)
    with pytest.raises(IllConditionedFit, match=f"in {context}$"):
        check(SINCOS, image, grid=12)


class TestFitEquivalence:
    def test_round_trip_recovery(self):
        m = eq.Matrix2(1.5, -0.5, 0.25, 2.0)
        image = m.apply(SINCOS)
        got = eq.fit_equivalence(SINCOS, image)
        assert isinstance(got, eq.Matrix2)
        want = m.normalized()
        for g, w in zip(
            (got.a, got.b, got.c, got.d), (want.a, want.b, want.c, want.d)
        ):
            assert g == pytest.approx(w, abs=1e-10)

    def test_rejects_unrelated_pairs(self):
        got = eq.fit_equivalence(SINCOS, EXP)
        assert isinstance(got, eq.NotEquivalent)
        assert got.residual > 1e-3

    def test_rejects_linear_vs_trig(self):
        got = eq.fit_equivalence(SINCOS, LINEAR)
        assert isinstance(got, eq.NotEquivalent)

    def test_interval_mismatch(self):
        other = ex.validate_pair("sin(x)", "cos(x)", (-0.5, 0.5))
        with pytest.raises(ValueError):
            eq.fit_equivalence(SINCOS, other)

    def test_random_matrices_recover_up_to_scale(self, rng):
        done = 0
        while done < 40:
            entries = [rng.uniform(-2.0, 2.0) for _ in range(4)]
            m = eq.Matrix2(*entries)
            if abs(m.det()) < 0.1 or m.norm() < 0.2:
                continue
            try:
                image = m.apply(SINCOS)
            except NotPositive:
                # the image G component crosses zero; not an admissible pair
                continue
            got = eq.fit_equivalence(SINCOS, image)
            assert isinstance(got, eq.Matrix2)
            want = m.normalized()
            for g, w in zip(
                (got.a, got.b, got.c, got.d), (want.a, want.b, want.c, want.d)
            ):
                assert g == pytest.approx(w, abs=1e-8)
            done += 1


    @pytest.mark.parametrize("check", [
        lambda a, b: eq.check_EBM(a, b, grid=12),
        lambda a, b: eq.check_ECM(a, b, grid=12),
        lambda a, b: eq.check_N15(a, b, ASYMMETRIC, grid=12),
    ], ids=["EBM", "ECM", "N15"])
    def test_batteries_decide_as_fit_equivalence(self, check, monkeypatch):
        # a battery fits on max(grid, DEFAULT_FIT_GRID) points, here the
        # default grid of fit_equivalence, so both give the same matrix
        image = eq.Matrix2(1.5, -0.5, 0.25, 2.0).apply(SINCOS)
        rep = check(SINCOS, image)
        assert isinstance(rep.equivalence, eq.Matrix2)
        assert rep.equivalence == eq.fit_equivalence(SINCOS, image)
        # and both reject an accepted fit whose spot means differ
        monkeypatch.setattr(eq, "mean_eval", lambda spec, x, y: float(spec.pair is image))
        assert eq.fit_equivalence(SINCOS, image) == eq.NotEquivalent(1.0)
        assert check(SINCOS, image).equivalence == eq.NotEquivalent(1.0)


class TestPhiPsi:
    def test_pair_against_itself(self):
        gaps = eq.check_phi_psi(SINCOS, SINCOS, 15)
        assert gaps.holds
        assert gaps.phi_gap == 0.0 and gaps.psi_gap == 0.0

    def test_trig_vs_linear_differ_in_psi_only(self):
        # both have Phi = 0, but Psi is -1 against 0
        gaps = eq.check_phi_psi(SINCOS, LINEAR, 15)
        assert not gaps.holds
        assert gaps.phi_gap <= 1e-14
        assert gaps.psi_gap == pytest.approx(1.0, abs=1e-12)

    def test_exp_vs_linear_differ_in_phi(self):
        gaps = eq.check_phi_psi(EXP, LINEAR, 15)
        assert not gaps.holds
        assert gaps.phi_gap == pytest.approx(1.0, abs=1e-12)

    def test_explicit_grid(self):
        gaps = eq.check_phi_psi(SINCOS, LINEAR, [0.1, 0.2])
        assert gaps.psi_gap == pytest.approx(1.0, abs=1e-12)

    def test_explicit_grid_point_outside_interval(self):
        with pytest.raises(OutOfInterval):
            eq.check_phi_psi(SINCOS, LINEAR, [5.0])


@pytest.mark.parametrize("measure", [EBM, LEB, ASYMMETRIC], ids=["ebm", "lebesgue", "atoms"])
def test_wronskian_at_the_bound_is_admissible_everywhere(measure):
    # W10 = 1e-9 + 3 x^2 equals TOL_WRONSKIAN at the grid node 0.0, which
    # validate_pair accepts (|W10| >= TOL_WRONSKIAN); Phi and Psi must too
    pair = ex.validate_pair("1e-9*x + x^3", "1", (-1.0, 1.0))
    line = ex.validate_pair("x", "1", (-1.0, 1.0))
    assert 0.0 in ex.interior_grid(pair.interval, 11)
    assert isinstance(eq.check_equality(pair, line, measure, 11), eq.EqualityReport)
    assert calculus.phi_psi(pair, 0.0).phi() == 0.0


class TestPowerLawR:
    def test_binary_symmetric_gamma(self):
        gamma, resid = eq.check_power_law_R(SINCOS, LINEAR, EBM, 25)
        assert gamma == pytest.approx(-0.5, abs=1e-12)
        assert resid <= 1e-10

    def test_lebesgue_gamma(self):
        gamma, resid = eq.check_power_law_R(SINCOS, LINEAR, LEB, 25)
        assert gamma == pytest.approx(-0.5, abs=1e-12)
        assert resid <= 1e-10

    def test_phi_mismatch_not_applicable(self):
        with pytest.raises(NotApplicable):
            eq.check_power_law_R(EXP, LINEAR, EBM, 15)

    @pytest.mark.parametrize("run, fit_name", [
        pytest.param(lambda: eq.check_power_law_R(SINCOS, LINEAR, EBM, 25), "power-law gap fit",
                     id="R"),
        pytest.param(lambda: eq.check_N25(SINCOS, LINEAR, SPLIT_MEASURE, 15), "split gap fit",
                     id="N2.5"),
        pytest.param(lambda: eq.check_N3(SINCOS, LINEAR, GAUSSIAN_RATIO, 15),
                     "first-degree fit of Phi", id="N3-i"),
        pytest.param(lambda: eq.check_N3(SINCOS, LINEAR, SIXTH_ONLY, 15), "power-law gap fit",
                     id="N3-ii"),
        pytest.param(lambda: eq.check_N3(SINCOS, LINEAR, FOURTH_ONLY, 15),
                     "constant plus inverse-Wronskian fit", id="N3-iii"),
        pytest.param(lambda: eq.check_N3(SINCOS, LINEAR, EVEN, 15), "two-exponent power-law fit",
                     id="N3-iv"),
        *(pytest.param(lambda c=check: c(SINCOS, LINEAR, grid=12), context, id=f"{name}-{row}")
          for name, check in (("EBM", eq.check_EBM), ("ECM", eq.check_ECM))
          for row, context in (("iv", "Psi power-law fit"), ("v", "quadratic form fit"),
                               ("vi", "antiderivative relation fit"))),
    ])
    def test_condition_limit_enforced(self, run, fit_name, monkeypatch):
        # one limit serves every fit, the equality fits' and the oracle's; it
        # is lowered to 1.0, below any condition number, while the named fit
        # runs, so the fits that come before it in a ladder still pass
        inner = eq._fit

        def fit(design, target, context):
            with monkeypatch.context() as m:
                if context == fit_name:
                    m.setattr(calculus, "FIT_CONDITION_LIMIT", 1.0)
                return inner(design, target, context=context)

        monkeypatch.setattr(eq, "_fit", fit)
        with pytest.raises(IllConditionedFit, match=f"in {fit_name}$"):
            run()


class TestSplitCheck:
    def test_regime_gate(self):
        with pytest.raises(NotApplicable):
            eq.check_N25(SINCOS, LINEAR, EBM, 15)

    def test_equal_pairs_take_first_alternative(self):
        (split,) = eq.check_N25(SINCOS, SINCOS, SPLIT_MEASURE, 15).assertions
        assert split.assertion_id == "psi_equal"
        assert split.holds
        assert split.constants["gamma"] == 0.0

    def test_unequal_means_fail_honestly(self):
        # under this measure the two means genuinely differ, so the rigid
        # two-sided identity cannot hold; the gap fit still lands on -1/2
        (split,) = eq.check_N25(SINCOS, LINEAR, SPLIT_MEASURE, 15).assertions
        assert split.assertion_id == "power_law"
        assert not split.holds
        assert split.constants["gamma"] == pytest.approx(-0.5, abs=1e-10)

    def test_power_law_fails_where_phi_differs(self):
        # m2 = mu2 Phi, so equal means need equal Phi; (x, 1) against
        # (exp(x), 1) fit the split law of the Psi functions exactly, and
        # only their Phi gap, 1 over 1 + 1, fails them
        (split,) = eq.check_N25(LINEAR, EXP, SPLIT_MEASURE, 20).assertions
        assert split.assertion_id == "power_law"
        assert not split.holds
        assert split.residual == pytest.approx(0.5, abs=1e-12)
        assert not eq.check_N25(EXP, LINEAR, SPLIT_MEASURE, 20).assertions[0].holds


class TestEvenAlternatives:
    def test_regime_gate(self):
        with pytest.raises(NotApplicable):
            eq.check_N3(SINCOS, LINEAR, ASYMMETRIC, 15)

    def test_binary_symmetric_selects_collapsed_power_law(self):
        (br,) = eq.check_N3(SINCOS, LINEAR, EBM, 20).assertions
        assert br.assertion_id == "iv"
        assert br.holds
        assert br.constants["p"] == pytest.approx(2.0, abs=1e-12)
        assert br.constants["q"] == pytest.approx(2.0, abs=1e-10)
        assert br.constants["gamma"] == pytest.approx(-0.5, abs=1e-10)
        assert br.constants["delta"] == pytest.approx(-0.5, abs=1e-10)
        assert br.constants["alpha"] == pytest.approx(-1.0, abs=1e-10)
        assert br.constants["beta"] == pytest.approx(0.0, abs=1e-10)

    def test_lebesgue_exponents(self):
        (br,) = eq.check_N3(SINCOS, LINEAR, LEB, 20).assertions
        assert br.assertion_id == "iv"
        assert br.holds
        assert br.constants["p"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert br.constants["q"] == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert br.constants["alpha"] == pytest.approx(-1.0, abs=1e-9)

    def test_fourth_only_measure_selects_inverse_wronskian_branch(self):
        (br,) = eq.check_N3(SINCOS, LINEAR, FOURTH_ONLY, 20).assertions
        assert br.assertion_id == "iii"
        assert br.holds
        assert br.constants["r"] == pytest.approx(-1.0, abs=1e-10)
        assert br.constants["gamma"] == pytest.approx(-0.5, abs=1e-10)
        assert br.constants["delta"] == pytest.approx(-0.5, abs=1e-10)

    def test_gaussian_ratio_measure_selects_first_branch(self):
        (br,) = eq.check_N3(SINCOS, LINEAR, GAUSSIAN_RATIO, 20).assertions
        assert br.assertion_id == "i"
        assert br.holds
        assert br.constants["gamma"] == pytest.approx(-0.5, abs=1e-10)

    def test_sixth_only_measure_vacuous_when_phi_vanishes(self):
        # Phi of both witness pairs is identically zero, so the alternative
        # for this branch has no sample points to test
        (br,) = eq.check_N3(SINCOS, LINEAR, SIXTH_ONLY, 20).assertions
        assert br.assertion_id == "ii"
        assert br.holds
        assert br.constants["grid_used"] == 0
        assert br.constants["gamma"] == pytest.approx(-0.5, abs=1e-10)

    def test_power_law_branch_fails_where_phi_differs(self):
        # the Psi identities of (iv) alone pass (exp(x), 1) against (x, 1),
        # whose means differ; their Phi gap is 1, over 1 + 1
        measure = Discrete(((0.1, 0.5), (0.9, 0.5)))
        for a, b in ((EXP, LINEAR), (LINEAR, EXP)):
            (br,) = eq.check_N3(a, b, measure, 20).assertions
            assert br.assertion_id == "iv"
            assert not br.holds
            assert br.residual == pytest.approx(0.5, abs=1e-12)
        # the image shares Phi and Psi with (sin, cos): equivalent, decided first
        image = eq.Matrix2(2.0, 1.0, -1.0, 1.0).apply(SINCOS)
        for b, alternative in ((LINEAR, "iv"), (image, "equivalent")):
            (br,) = eq.check_N3(SINCOS, b, measure, 20).assertions
            assert br.assertion_id == alternative
            assert br.holds

    @pytest.mark.parametrize("measure", [GAUSSIAN_RATIO, SIXTH_ONLY, FOURTH_ONLY, EVEN])
    def test_pair_against_itself_or_an_image_is_equivalent(self, measure):
        # each branch's identity alone failed (x^2, x^(5/2)) against itself,
        # with residuals 0.12 to 0.65 at grid 12
        powers = ex.validate_pair("x^2", "x^(5/2)", (0.5, 2.0))
        for b in (powers, eq.Matrix2(2.0, 1.0, 0.5, 1.0).apply(powers)):
            report = eq.check_N3(powers, b, measure, 12)
            (br,) = report.assertions
            assert (br.assertion_id, br.holds, br.constants["grid_used"]) == ("equivalent", True, 12)
            assert br.tolerance == eq.PHI_PSI_TOL and br.residual <= eq.PHI_PSI_TOL
            assert report.fitted == {}

    def test_sixth_order_boundary_takes_the_branch_of_classify(self):
        # N3 once tested mu6 - 5 mu2 mu4 itself, took branch (iv) here and
        # failed on the q that classify leaves unset; the verdict is vacuous,
        # as Phi of both pairs vanishes, so only the branch is pinned
        info = classify(SIXTH_BOUNDARY)
        mu = info.moment_data.mu
        assert info.q is None
        assert not measures._is_zero(mu[6] - 5.0 * mu[2] * mu[4], 6, mu[2])
        (br,) = eq.check_N3(SINCOS, LINEAR, SIXTH_BOUNDARY, 20).assertions
        assert br.assertion_id == "ii"

    def test_sixth_only_measure_fails_for_unequal_means(self):
        (br,) = eq.check_N3(EXP, LINEAR, SIXTH_ONLY, 20).assertions
        assert br.assertion_id == "ii"
        assert not br.holds
        assert br.constants["grid_used"] == 20

    def test_sixth_only_vacuous_branch_still_compares_phi(self):
        # Phi of (x, 1) vanishes, so the identity has no points to test,
        # but Phi of (exp(x), 1) is 1: the Phi gap, 1 over 1 + 1, fails it
        (br,) = eq.check_N3(LINEAR, EXP, SIXTH_ONLY, 20).assertions
        assert br.assertion_id == "ii"
        assert br.constants["grid_used"] == 0
        assert not br.holds
        assert br.residual == pytest.approx(0.5, abs=1e-12)


class TestBinarySymmetricLadder:
    def test_witness_pair_all_assertions(self):
        rep = eq.check_EBM(SINCOS, LINEAR, grid=25)
        assert rep.battery == "EBM"
        assert rep.all_hold
        assert rep.failing == ()
        v = rep.verdict_per_assertion
        assert all(v[k].holds for k in ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix"))
        assert v["iv"].constants["alpha"] == pytest.approx(-1.0, abs=1e-8)
        assert v["iv"].constants["beta"] == pytest.approx(0.0, abs=1e-8)
        # unit circle quadratic for (sin, cos), the pure square for (x, 1)
        assert v["v"].constants["P_a"] == pytest.approx(1.0, abs=1e-8)
        assert v["v"].constants["P_b"] == pytest.approx(0.0, abs=1e-8)
        assert v["v"].constants["P_c"] == pytest.approx(1.0, abs=1e-8)
        assert v["v"].constants["Q_c"] == pytest.approx(1.0, abs=1e-8)
        assert v["v"].constants["gamma"] == pytest.approx(1.0, abs=1e-10)
        assert v["vii"].constants["alpha"] == pytest.approx(-1.0)
        assert v["vii"].constants["beta"] == pytest.approx(0.0)
        assert isinstance(rep.equivalence, eq.NotEquivalent)
        assert rep.fitted["alpha"] == pytest.approx(-1.0, abs=1e-8)

    def test_equivalent_pairs_short_circuit(self):
        image = eq.Matrix2(2.0, 1.0, -1.0, 1.0).apply(SINCOS)
        rep = eq.check_EBM(SINCOS, image, grid=15)
        assert rep.all_hold
        assert isinstance(rep.equivalence, eq.Matrix2)
        for key in ("iv", "v", "vi", "vii", "viii", "ix"):
            assert "first alternative" in rep.verdict_per_assertion[key].note

    @pytest.mark.parametrize("check", [eq.check_EBM, eq.check_ECM])
    def test_equivalent_pair_outside_the_sincos_family_holds_row_iv(self, check):
        # (x^2, x^(5/2)) has no power-law Psi, so row (iv) used to fail on it
        # (residual 0.939 under EBM, 0.205 under ECM) although the means agree
        pair = ex.validate_pair("x^2", "x^(5/2)", (0.5, 2.0))
        rep = check(pair, pair, grid=20)
        assert rep.failing == ()
        assert "first alternative" in rep.verdict_per_assertion["iv"].note
        assert rep.fitted["alpha"] is None and rep.fitted["beta"] is None
        if check is eq.check_ECM:
            # the power law is not established, so its constancy row stays open
            assert rep.verdict_per_assertion["exp"].holds is None

    def test_measure_gate(self):
        with pytest.raises(NotApplicable):
            eq.check_EBM(SINCOS, LINEAR, grid=15, measure=LEB)

    def test_row_vi_open_without_positive_quadratic_forms(self):
        # the bump of g makes the fitted quadratic form of the first pair
        # non-positive on the grid, so there is nothing to rebuild
        A = ex.validate_pair("x", "1 + 9*exp(-50*x^2) + 0.6*x", INTERVAL)
        vi = eq.check_EBM(A, LINEAR, grid=[-0.6, 0.0, 0.4]).verdict_per_assertion["vi"]
        assert (vi.holds, vi.residual) == (False, None)
        assert vi.note == "no admissible quadratic forms to reconstruct from"

    @pytest.mark.parametrize("f, g, interval", [
        ("cos(x)", "sin(x)", (0.2, 1.2)),  # f is cosine type, g sine type
        ("sin(x)", "cos(2*x)", (-0.5, 0.5)),  # the arguments differ
    ])
    def test_row_vii_open_when_the_pattern_does_not_match(self, f, g, interval):
        A, B = ex.validate_pair(f, g, interval), ex.validate_pair("x", "1", interval)
        assert eq._match_sincos(A, cauchy=False) is None
        vii = eq.check_EBM(A, B, grid=12).verdict_per_assertion["vii"]
        assert (vii.holds, vii.residual) == (None, None)
        assert vii.note == "not decidable structurally; no sine and cosine type pattern exposed"

    def test_report_json_deterministic(self):
        a, b = (eq.check_EBM(SINCOS, LINEAR, grid=10).as_dict() for _ in range(2))
        assert json.dumps(a, sort_keys=True, indent=2) == json.dumps(b, sort_keys=True, indent=2)

    @pytest.mark.parametrize("check", [
        lambda tols: eq.check_EBM(EXP, LINEAR, grid=10, tolerances=tols),
        lambda tols: eq.check_ECM(EXP, LINEAR, grid=10, tolerances=tols),
        lambda tols: eq.check_N15(EXP, LINEAR, ASYMMETRIC, grid=10, tolerances=tols),
    ], ids=["EBM", "ECM", "N15"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1e-9])
    def test_tolerance_override_must_be_positive_and_finite(self, check, value):
        with pytest.raises(ValueError, match="^tolerance mean_gap must be positive and finite"):
            check({"mean_gap": value})

    def test_tolerance_override_and_ladder_note(self):
        # (exp, 1) and (x, 1) have different means, so (i) fails; a loose
        # quasiarithmetic tolerance lets (viii) and (ix) hold all the same,
        # which the report flags as a ladder violation
        default = eq.check_EBM(EXP, LINEAR, grid=10).verdict_per_assertion
        assert default["viii"].holds is False and default["ix"].holds is False
        rep = eq.check_EBM(EXP, LINEAR, grid=10, tolerances={"quasiarithmetic_gap": 1.0})
        v = rep.verdict_per_assertion
        assert v["viii"].holds is True
        assert v["i"].holds is False
        assert v["ix"].holds is True
        assert not rep.all_hold
        assert "i" in rep.failing
        assert any("ladder violation: (ix) holds but (i) fails" in n for n in rep.notes)


class TestLebesgueLadder:
    def test_witness_pair_all_assertions(self):
        rep = eq.check_ECM(SINCOS, LINEAR, grid=25)
        assert rep.battery == "ECM"
        assert rep.all_hold
        v = rep.verdict_per_assertion
        ids = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "exp")
        assert all(v[k].holds for k in ids)
        assert v["iv"].constants["alpha"] == pytest.approx(-1.0, abs=1e-8)
        assert v["iv"].constants["beta"] == pytest.approx(0.0, abs=1e-8)
        assert v["exp"].constants["value_A"] == pytest.approx(9.0, abs=1e-8)
        assert v["exp"].constants["value_B"] == pytest.approx(0.0, abs=1e-8)
        assert v["vi"].constants["gamma_cuberoot"] == pytest.approx(1.0, abs=1e-8)

    def test_derivative_prefactor_pair(self):
        # both pairs scale the trigonometric and flat patterns by phi';
        # their means collapse to the same arithmetic mean, but the shared
        # generator is exposed with different trees, so the structural row
        # honestly reports undecidable instead of guessing
        A = eq.make_sincos_pair(-1.0, "2 * x", cauchy_flavor=True, interval=(-0.5, 0.5))
        B = eq.make_sincos_pair(0.0, "2 * x", cauchy_flavor=True, interval=(-0.5, 0.5))
        rep = eq.check_ECM(A, B, grid=15)
        v = rep.verdict_per_assertion
        assert v["vii"].holds is None
        for key in ("i", "ii", "iii", "iv", "v", "vi", "viii", "ix"):
            assert v[key].holds is True
        assert rep.all_hold

    def test_prefactor_that_does_not_track_the_derivative(self):
        # x^2 * (sin x, cos x) matches the cauchy pattern with u = x^2, but
        # u / phi' = x^2 is far from constant, so row (vii) is undecided
        A = ex.validate_pair("x^2 * sin(x)", "x^2 * cos(x)", (0.1, 0.7))
        B = ex.validate_pair("x", "1", (0.1, 0.7))
        vii = eq.check_ECM(A, B, grid=12).verdict_per_assertion["vii"]
        assert vii.holds is None
        assert vii.note == "prefactor does not track the derivative of the matched generator"

    def test_measure_gate(self):
        with pytest.raises(NotApplicable):
            eq.check_ECM(SINCOS, LINEAR, grid=15, measure=EBM)

    def test_generator_derivative_vanishing_between_validation_nodes(self):
        # phi = x^3 has phi' = 0 at 0.0, a node of the 9-point prefactor grid
        # but not of the 257-point validation grid, so (vii) stays open
        interval = (-0.4, 0.6)
        assert eq._prefactor_tracks_derivative(ex.Const(1.0), ex.parse("x^3"), interval) is None
        A = ex.validate_pair("sin(x^3)", "cos(x^3)", interval)
        B = ex.validate_pair("sinh(x^3)", "cosh(x^3)", interval)
        vii = eq.check_ECM(A, B, grid=12).verdict_per_assertion["vii"]
        assert (vii.holds, vii.residual) == (None, None)
        assert vii.note == "prefactor does not track the derivative of the matched generator"

    def test_two_factor_prefactor(self):
        # u = x * exp(x) is rebuilt as one product; u / phi' = x * exp(x)
        # is not constant, so (vii) stays open
        interval = (0.1, 0.9)
        A = ex.validate_pair("x*exp(x)*sin(x)", "x*exp(x)*cos(x)", interval)
        B = ex.validate_pair("x*exp(x)*sinh(x)", "x*exp(x)*cosh(x)", interval)
        assert eq._match_sincos(A, cauchy=True) == (-1.0, ex.Var(), ex.parse("x * exp(x)"))
        vii = eq.check_ECM(A, B, grid=12).verdict_per_assertion["vii"]
        assert vii.holds is None
        assert vii.note == "prefactor does not track the derivative of the matched generator"


class TestThirdMomentLadder:
    def test_equivalent_pairs_hold(self):
        image = eq.Matrix2(1.0, 0.5, 0.0, 2.0).apply(SINCOS)
        rep = eq.check_N15(SINCOS, image, ASYMMETRIC, grid=12)
        assert rep.battery == "N1.5"
        assert rep.all_hold
        assert isinstance(rep.equivalence, eq.Matrix2)

    def test_unequal_means_fail_every_row(self):
        rep = eq.check_N15(SINCOS, LINEAR, ASYMMETRIC, grid=12)
        v = rep.verdict_per_assertion
        assert all(v[k].holds is False for k in ("i", "ii", "iii", "iv", "v"))
        # the mean gap is well above noise for this measure
        assert v["i"].residual > 1e-4

    def test_vanishing_third_moment_notes_weaker_ladder(self):
        # under the binary symmetric measure these means coincide even
        # though the pairs are not equivalent; with mu3 = 0 the ladder's
        # descent is not in force, and the report says so
        rep = eq.check_N15(SINCOS, LINEAR, EBM, grid=12)
        v = rep.verdict_per_assertion
        assert v["i"].holds and v["ii"].holds and v["iii"].holds
        assert v["iv"].holds is False
        assert v["v"].holds is False
        assert any("mu3 vanishes" in n for n in rep.notes)


class TestMakeSincosPair:
    def test_trigonometric_case(self):
        pair = eq.make_sincos_pair(-1.0, "x", interval=INTERVAL)
        assert ex.to_string(pair.f) == "sin(x)"
        assert ex.to_string(pair.g) == "cos(x)"

    def test_flat_case(self):
        pair = eq.make_sincos_pair(0.0, "exp(x)", interval=(-0.5, 0.5))
        assert ex.to_string(pair.f) == "exp(x)"
        assert pair.g_at(0.3) == 1.0

    def test_hyperbolic_case(self):
        pair = eq.make_sincos_pair(1.0, "x", interval=(-1.0, 1.0))
        x = 0.45
        assert pair.f_at(x) == pytest.approx(math.sinh(x), rel=1e-14)
        assert pair.g_at(x) == pytest.approx(math.cosh(x), rel=1e-14)

    def test_general_negative_parameter(self):
        pair = eq.make_sincos_pair(-4.0, "x", interval=(-0.3, 0.3))
        x = 0.2
        assert pair.f_at(x) == pytest.approx(math.sin(2.0 * x), rel=1e-14)
        assert pair.g_at(x) == pytest.approx(math.cos(2.0 * x), rel=1e-14)

    def test_derivative_prefactor(self):
        pair = eq.make_sincos_pair(1.0, "2 * x", cauchy_flavor=True, interval=(-0.5, 0.5))
        x = 0.3
        assert pair.f_at(x) == pytest.approx(2.0 * math.sinh(2.0 * x), rel=1e-14)
        assert pair.g_at(x) == pytest.approx(2.0 * math.cosh(2.0 * x), rel=1e-14)

    def test_rejects_vanishing_cosine_component(self):
        with pytest.raises(NotPositive):
            eq.make_sincos_pair(-1.0, "x", interval=(-2.0, 2.0))

    def test_battery_accepts_constructed_pairs(self):
        A = eq.make_sincos_pair(-1.0, "x", interval=INTERVAL)
        rep = eq.check_EBM(A, LINEAR, grid=12)
        assert rep.all_hold

"""Mean evaluation: frozen examples, specializations, structural properties."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from meanlab import expr as ex
from meanlab import means as mn
from meanlab.errors import (
    BracketFailure,
    DegenerateDenominator,
    DomainViolation,
    NotPositive,
    OutOfInterval,
)
from meanlab.equality import CumulativeIntegral
from meanlab.means import (
    MeanSpec,
    bajraktarevic,
    cauchy,
    m_curve,
    mean_eval,
    mean_table,
    quasiarithmetic,
    quasiarithmetic_table,
)
from meanlab.measures import Density, Discrete, Lebesgue

from conftest import PAIR_FAMILIES, random_admissible_pair

EBM = Discrete(((0.0, 0.5), (1.0, 0.5)))
THREE_ATOM = Discrete(((0.0, 1 / 6), (0.5, 2 / 3), (1.0, 1 / 6)))


def spec_of(f: str, g: str, interval, measure) -> MeanSpec:
    return MeanSpec(pair=ex.validate_pair(f, g, interval), measure=measure)


class TestMeanEval:
    def test_weighted_arithmetic(self):
        spec = spec_of("x", "1", (0.5, 4.0), EBM)
        assert mean_eval(spec, 1.0, 3.0) == pytest.approx(2.0, abs=1e-13)

    def test_weighted_arithmetic_point_mass(self):
        spec = spec_of("x", "1", (0.5, 4.0), Discrete(((0.3, 1.0),)))
        assert mean_eval(spec, 1.0, 3.0) == pytest.approx(0.3 * 1.0 + 0.7 * 3.0, abs=1e-13)

    def test_geometric_mean(self):
        spec = spec_of("log(x)", "1", (0.5, 5.0), EBM)
        assert mean_eval(spec, 1.0, 4.0) == pytest.approx(2.0, abs=1e-12)

    def test_exponential_mean_lebesgue(self):
        spec = spec_of("exp(x)", "1", (-0.5, 1.5), Lebesgue())
        want = math.log(math.e - 1.0)
        assert mean_eval(spec, 0.0, 1.0) == pytest.approx(want, abs=1e-12)

    def test_reflexive_exact(self):
        spec = spec_of("sin(x)", "cos(x)", (-0.5, 0.5), Lebesgue())
        assert mean_eval(spec, 0.37, 0.37) == 0.37

    def test_argument_order_symmetric_measure(self):
        spec = spec_of("exp(x)", "exp(-x)", (-1.0, 2.0), EBM)
        a = mean_eval(spec, 0.2, 1.7)
        b = mean_eval(spec, 1.7, 0.2)
        assert abs(a - b) <= 1e-12

    def test_out_of_interval(self):
        spec = spec_of("x", "1", (0.0, 1.0), EBM)
        with pytest.raises(OutOfInterval):
            mean_eval(spec, 0.5, 2.0)

    def test_residual_contract(self):
        spec = spec_of("sinh(x)", "cosh(x)", (-1.0, 1.0), Lebesgue())
        f = ex.compile_scalar(spec.pair.f)
        g = ex.compile_scalar(spec.pair.g)
        x, y = -0.7, 0.9
        z = mean_eval(spec, x, y)
        num = spec.measure.integrate(lambda t: f(t * x + (1 - t) * y))
        den = spec.measure.integrate(lambda t: g(t * x + (1 - t) * y))
        r = num / den
        assert abs(f(z) / g(z) - r) <= 1e-12 * (1 + abs(r))


class TestQuasiarithmetic:
    def test_identity(self):
        assert quasiarithmetic("x", 1.0, 3.0) == pytest.approx(2.0, abs=1e-13)

    def test_geometric(self):
        assert quasiarithmetic("log(x)", 1.0, 4.0) == pytest.approx(2.0, abs=1e-12)

    def test_harmonic(self):
        assert quasiarithmetic("x^(-1)", 1.0, 2.0) == pytest.approx(4.0 / 3.0, abs=1e-13)

    def test_matches_mean_eval_under_two_atoms(self, rng):
        spec = spec_of("log(x)", "1", (0.5, 5.0), EBM)
        for _ in range(20):
            x, y = rng.uniform(0.8, 4.5), rng.uniform(0.8, 4.5)
            assert quasiarithmetic("log(x)", x, y) == pytest.approx(
                mean_eval(spec, x, y), abs=1e-12
            )

    def test_constant_phi_rejected(self):
        with pytest.raises(BracketFailure):
            quasiarithmetic("1", 1.0, 2.0)

    @pytest.mark.parametrize("integrand", [np.cos, np.exp, lambda t: np.cbrt(t * t + 0.1)])
    def test_table_matches_scalar(self, integrand):
        phi = CumulativeIntegral(integrand, 0.1)
        xs = np.linspace(-1.2, 1.3, 11)
        table = quasiarithmetic_table(phi, xs)
        for i, x in enumerate(xs):
            for j, y in enumerate(xs):
                z = quasiarithmetic(phi, x, y)
                assert abs(table[i, j] - z) <= 1e-14 * max(1.0, abs(z))
        assert np.array_equal(np.diag(table), xs)

    def test_table_constant_phi_rejected(self):
        with pytest.raises(BracketFailure):
            quasiarithmetic_table(CumulativeIntegral(np.zeros_like, 0.0), [1.0, 2.0])


class TestBajraktarevic:
    def test_unit_weight_reduces_to_quasiarithmetic(self):
        assert bajraktarevic("x", "1", 1.0, 3.0) == pytest.approx(2.0, abs=1e-13)

    def test_linear_weight(self):
        # (1*1 + 2*2) / (1 + 2)
        assert bajraktarevic("x", "x", 1.0, 2.0) == pytest.approx(5.0 / 3.0, abs=1e-13)

    def test_weight_must_be_positive(self):
        with pytest.raises(NotPositive):
            bajraktarevic("x", "x - 5", 1.0, 2.0)

    def test_matches_mean_eval_of_scaled_pair(self, rng):
        # B_{phi,p} is the two-atom mean of the pair (phi*p, p)
        spec = spec_of("log(x) * x", "x", (0.8, 5.0), EBM)
        gaps = []
        for _ in range(50):
            x, y = rng.uniform(1.0, 4.5), rng.uniform(1.0, 4.5)
            b = bajraktarevic("log(x)", "x", x, y)
            m = mean_eval(spec, x, y) if x != y else x
            gaps.append(abs(b - m))
        assert max(gaps) <= 1e-12


class TestCauchy:
    def test_quadratic_over_identity(self):
        assert cauchy("x^2", "x", 1.0, 3.0) == pytest.approx(2.0, abs=1e-13)

    def test_logarithmic_type(self):
        want = math.e - 1.0
        assert cauchy("log(x)", "x", 1.0, math.e) == pytest.approx(want, abs=1e-12)

    def test_diagonal(self):
        assert cauchy("x^2", "x", 5.0, 5.0) == 5.0

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateDenominator):
            cauchy("x^3", "x^2", -1.0, 1.0)

    def test_decreasing_psi_rejected(self):
        with pytest.raises(NotPositive):
            cauchy("x^2", "-x", 1.0, 2.0)

    def test_matches_mean_eval_of_derivative_pair(self, rng):
        phi, psi = ex.parse("log(x)"), ex.parse("x")
        pair = ex.validate_pair(ex._derivative(phi), ex._derivative(psi), (0.8, 4.0))
        spec = MeanSpec(pair=pair, measure=Lebesgue())
        for _ in range(20):
            x, y = rng.uniform(1.0, 3.5), rng.uniform(1.0, 3.5)
            if x == y:
                continue
            assert cauchy(phi, psi, x, y) == pytest.approx(mean_eval(spec, x, y), abs=1e-10)


class TestMCurve:
    def test_center_value(self):
        spec = spec_of("sin(x)", "cos(x)", (-0.5, 0.5), Lebesgue())
        assert m_curve(spec, 0.1, 0.0) == 0.1

    def test_geometric_section(self):
        spec = spec_of("log(x)", "1", (0.5, 5.0), EBM)
        want = math.sqrt(1.1 * 0.9)
        assert m_curve(spec, 1.0, 0.2) == pytest.approx(want, abs=1e-12)

    def test_point_mass_section_is_flat(self):
        spec = spec_of("log(x)", "1", (0.5, 5.0), Discrete(((0.3, 1.0),)))
        for u in (-0.3, -0.1, 0.05, 0.25):
            assert m_curve(spec, 2.0, u) == pytest.approx(2.0, abs=1e-12)

    def test_out_of_interval(self):
        spec = spec_of("log(x)", "1", (0.5, 5.0), EBM)
        with pytest.raises(OutOfInterval):
            m_curve(spec, 1.0, 2.0)

    def test_first_moment_is_exact(self, monkeypatch):
        # 3-point Gauss-Legendre integrates t to 0.5000000000000001; the
        # section must use the measure's exact first moment 1/2 instead
        measure = Lebesgue(order=3)
        assert measure.integrate(lambda t: t) != 0.5
        spec = spec_of("exp(x)", "1", (-1.0, 1.0), measure)
        seen = []
        monkeypatch.setattr(mn, "mean_eval", lambda s, a, b: seen.append((a, b)) or 0.0)
        m_curve(spec, 0.0, 0.125)
        assert seen == [(0.0625, -0.0625)]


class TestStructuralProperties:
    def test_mean_value_inequality(self, rng):
        measures = [EBM, Lebesgue(), THREE_ATOM]
        checked = 0
        while checked < 1000:
            pair = random_admissible_pair(rng)
            spec = MeanSpec(pair=pair, measure=measures[checked % 3])
            lo, hi = pair.interval
            for _ in range(25):
                x = rng.uniform(lo + 0.05, hi - 0.05)
                y = rng.uniform(lo + 0.05, hi - 0.05)
                z = mean_eval(spec, x, y)
                assert min(x, y) <= z <= max(x, y)
                if x != y:
                    assert min(x, y) < z < max(x, y)
                checked += 1

    def test_symmetry_for_symmetric_measures(self, rng):
        for measure in (EBM, Lebesgue(), THREE_ATOM):
            pair = random_admissible_pair(rng)
            spec = MeanSpec(pair=pair, measure=measure)
            lo, hi = pair.interval
            for _ in range(25):
                x = rng.uniform(lo + 0.05, hi - 0.05)
                y = rng.uniform(lo + 0.05, hi - 0.05)
                assert abs(mean_eval(spec, x, y) - mean_eval(spec, y, x)) <= 1e-12

    def test_equivalence_invariance(self, rng):
        # composing the pair with a nonsingular 2x2 matrix leaves the mean alone
        base = ex.validate_pair("sinh(x)", "cosh(x)", (-1.0, 1.0))
        spec = MeanSpec(pair=base, measure=EBM)
        lo, hi = base.interval
        for _ in range(3):
            a, b = 1.0, rng.uniform(-0.3, 0.3)
            c, d = rng.uniform(-0.3, 0.3), 1.0
            fimg = ex.BinOp(
                "+",
                ex.BinOp("*", ex.Const(a), base.f),
                ex.BinOp("*", ex.Const(b), base.g),
            )
            gimg = ex.BinOp(
                "+",
                ex.BinOp("*", ex.Const(c), base.f),
                ex.BinOp("*", ex.Const(d), base.g),
            )
            image = ex.validate_pair(fimg, gimg, (-1.0, 1.0))
            ispec = MeanSpec(pair=image, measure=EBM)
            worst = 0.0
            for i in range(20):
                for j in range(20):
                    x = lo + (hi - lo) * (i + 0.5) / 20
                    y = lo + (hi - lo) * (j + 0.5) / 20
                    worst = max(worst, abs(mean_eval(spec, x, y) - mean_eval(ispec, x, y)))
            assert worst <= 1e-11


MEAN_TABLE_MEASURES = [
    EBM,
    Lebesgue(),
    Discrete(((0.0, 0.3), (0.7, 0.7))),
    Density("2 * x"),
]


def _grid(pair, n: int = 9) -> np.ndarray:
    lo, hi = pair.interval
    return lo + (hi - lo) * (np.arange(n) + 0.5) / n


def _scalar_table(spec: MeanSpec, xs) -> np.ndarray:
    return np.array([[mean_eval(spec, x, y) for y in xs] for x in xs])


def _unconverged(f, a, b, fa, fb, args=()):
    return np.full(a.shape, np.nan), np.zeros(a.shape, bool)


def _uncertified(f, a, b, fa, fb, args=()):
    # "converges" to the left end of each bracket, which fails the certificate
    return a.copy(), np.ones(a.shape, bool)


class TestMeanTable:
    @pytest.mark.parametrize("family", PAIR_FAMILIES)
    @pytest.mark.parametrize(
        "measure", MEAN_TABLE_MEASURES, ids=["ebm", "lebesgue", "atoms", "density"]
    )
    def test_matches_mean_eval(self, family, measure, rng, monkeypatch):
        spec = MeanSpec(pair=random_admissible_pair(rng, family), measure=measure)
        xs = _grid(spec.pair)
        want = _scalar_table(spec, xs)
        fallbacks = []
        monkeypatch.setattr(mn, "mean_eval", lambda *a: fallbacks.append(a) or mean_eval(*a))
        table = mean_table(spec, xs)
        assert fallbacks == []
        assert np.all(np.abs(table - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))
        assert np.array_equal(np.diag(table), xs)

    def test_exact_end_roots_need_no_fallback(self, monkeypatch):
        # a point mass at t = 1 makes the mean of x and y equal x, where the
        # residual f - r g is exactly 0 for g = 1
        spec = spec_of("exp(x)", "1", (-1.0, 1.0), Discrete(((1.0, 1.0),)))
        xs = np.linspace(-0.8, 0.8, 5)
        monkeypatch.setattr(mn, "mean_eval", None)
        assert np.array_equal(mean_table(spec, xs), np.repeat(xs[:, None], 5, axis=1))

    @pytest.mark.parametrize("solver", [_unconverged, _uncertified])
    def test_batched_miss_falls_back_to_mean_eval(self, monkeypatch, solver):
        spec = spec_of("sinh(x)", "cosh(x)", (-1.0, 1.0), Lebesgue())
        xs = np.linspace(-0.8, 0.8, 6)
        want = _scalar_table(spec, xs)
        monkeypatch.setattr(mn, "chandrupatla", solver)
        assert np.array_equal(mean_table(spec, xs), want)

    def test_scalar_bracket_failure_propagates(self, monkeypatch):
        spec = spec_of("sinh(x)", "cosh(x)", (-1.0, 1.0), Lebesgue())

        def broken_brentq(f, a, b, fa, fb):
            raise BracketFailure(a, b, fa, fb, detail="no convergence")

        monkeypatch.setattr(mn, "chandrupatla", _unconverged)
        monkeypatch.setattr(mn, "brentq", broken_brentq)
        # the mean kernel hands the solve back to mean_eval, which calls brentq
        monkeypatch.setitem(spec.pair.mean_kernels, spec.measure, lambda x, y: (None, None))
        with pytest.raises(BracketFailure):
            mean_table(spec, [-0.5, 0.5])

    def test_out_of_interval(self):
        spec = spec_of("x", "1", (0.0, 1.0), EBM)
        with pytest.raises(OutOfInterval):
            mean_table(spec, [0.5, 2.0])

    def test_bracket_ends_fall_back_where_f_fails_at_a_grid_point(self):
        # f fails at the grid points a and b and at no segment point: the
        # diagonal ones, t*a + (1-t)*a, round off a and b. f over the grid
        # names a, the first in xs; the bracket ends are taken bracket by
        # bracket, so the table names b, the lower end of the first bracket
        a, b = 1.8237185012477866, 0.8826035386091325
        f = ex.parse(f"1 / ((x - {a!r}) * (x - {b!r}))")
        pair = ex.FunctionPair(f, ex.parse("1"), (0.5, 2.5), 6)
        spec = MeanSpec(pair, Discrete(((0.3, 0.5), (0.7, 0.5))))
        xs = np.array([a, b, 1.2])
        with pytest.raises(DomainViolation, match=rf"^division by zero at {a!r}$"):
            ex.compile_array(f)(xs)
        with pytest.raises(DomainViolation, match=rf"^division by zero at {b!r}$"):
            mean_table(spec, xs)


def _full_square_table(spec: MeanSpec, xs) -> tuple[np.ndarray, np.ndarray]:
    """mean_table solving every off-diagonal element, mirror or not, and
    the table of ratios r it solved for."""
    xs = np.asarray(xs, dtype=float)
    f, g = ex.compile_array(spec.pair.f), ex.compile_array(spec.pair.g)
    X, Y = xs[:, None], xs[None, :]
    num = spec.measure.integrate(lambda t: f(t * X + (1.0 - t) * Y))
    den = spec.measure.integrate(lambda t: g(t * X + (1.0 - t) * Y))
    off = X != Y
    lo, hi, r = np.minimum(X, Y)[off], np.maximum(X, Y)[off], (num / den)[off]
    z, ok = mn._bracketed_roots(lambda z, r: f(z) - r * g(z), lo, hi, r)
    assert ok.all()
    table = np.repeat(xs[:, None], len(xs), axis=1)
    table[off] = z
    return table, num / den


def _recorded_chandrupatla(monkeypatch) -> list:
    sizes = []
    solver = mn.chandrupatla

    def wrapper(f, a, *rest):
        sizes.append(a.size)
        return solver(f, a, *rest)

    monkeypatch.setattr(mn, "chandrupatla", wrapper)
    return sizes


class TestMirroredTables:
    @pytest.mark.parametrize("measure, symmetric", [
        (EBM, True), (Lebesgue(), True),
        (Discrete(((0.0, 0.3), (0.7, 0.7))), False), (Density("2 * x"), False),
    ], ids=["ebm", "lebesgue", "atoms", "density"])
    def test_symmetric_reads_the_nodes(self, measure, symmetric):
        assert mn._symmetric(measure) is symmetric

    @pytest.mark.parametrize("family", PAIR_FAMILIES)
    @pytest.mark.parametrize("measure", [EBM, Lebesgue()], ids=["ebm", "lebesgue"])
    def test_symmetric_measure_solves_one_triangle(self, family, measure, rng, monkeypatch):
        spec = MeanSpec(pair=random_admissible_pair(rng, family), measure=measure)
        xs = _grid(spec.pair, 12)
        want, r = _full_square_table(spec, xs)
        sizes = _recorded_chandrupatla(monkeypatch)
        table = mean_table(spec, xs)
        assert sizes == [12 * 11 // 2]
        assert np.array_equal(table, table.T)
        # a mirrored ratio differs from its own by ulps, and each solve stops
        # within a root tolerance, so the two routes agree to twice that
        assert np.all(np.abs(table - want) <= 2 * (mn._XATOL + mn._XRTOL * np.abs(want)))
        # every element, solved or mirrored, certifies against its own ratio
        f, g = ex.compile_array(spec.pair.f), ex.compile_array(spec.pair.g)
        off = ~np.eye(12, dtype=bool)
        resid = np.abs(f(table) / g(table) - r)[off]
        assert np.all(resid <= mn.RESIDUAL_TOL * (1.0 + np.abs(r[off])))

    def test_each_mirrored_element_keeps_its_own_certificate(self, monkeypatch):
        # mirroring under an asymmetric measure copies roots that are not the
        # mirrors' means; each copy must fail its own certificate and fall back
        spec = spec_of("exp(x)", "1", (-1.0, 1.0), Discrete(((0.0, 0.3), (0.7, 0.7))))
        xs = np.linspace(-0.8, 0.8, 6)
        want = _scalar_table(spec, xs)
        fallbacks = []
        monkeypatch.setattr(mn, "_symmetric", lambda measure: True)
        monkeypatch.setattr(mn, "mean_eval", lambda *a: fallbacks.append(a[1:]) or mean_eval(*a))
        table = mean_table(spec, xs)
        assert fallbacks == [(x, y) for i, x in enumerate(xs) for y in xs[:i]]
        assert np.all(np.abs(table - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("measure", [Discrete(((0.0, 0.3), (0.7, 0.7))), Density("2 * x")],
                             ids=["atoms", "density"])
    def test_asymmetric_measure_solves_the_square(self, measure, rng, monkeypatch):
        spec = MeanSpec(pair=random_admissible_pair(rng, PAIR_FAMILIES[0]), measure=measure)
        xs = _grid(spec.pair, 12)
        want, _ = _full_square_table(spec, xs)
        sizes = _recorded_chandrupatla(monkeypatch)
        assert np.array_equal(mean_table(spec, xs), want)
        assert sizes == [12 * 11]

    @pytest.mark.parametrize("integrand", [np.cos, np.exp, lambda t: np.cbrt(t * t + 0.1)])
    def test_quasiarithmetic_table_equals_full_square(self, integrand, monkeypatch):
        phi = CumulativeIntegral(integrand, 0.1)
        xs = np.linspace(-1.2, 1.3, 15)
        p = phi(xs)
        X, Y = xs[:, None], xs[None, :]
        off = X != Y
        z, ok = mn._bracketed_roots(
            lambda z, c: phi(z) - c, np.minimum(X, Y)[off], np.maximum(X, Y)[off],
            (0.5 * (p[:, None] + p[None, :]))[off],
        )
        assert ok.all()
        want = np.repeat(xs[:, None], 15, axis=1)
        want[off] = z
        sizes = _recorded_chandrupatla(monkeypatch)
        assert np.array_equal(quasiarithmetic_table(phi, xs), want)
        assert sizes == [15 * 14 // 2]

"""Edge cases of the two bracketed root solvers.

The scalar route is means.brentq behind means._solve_bracketed (mean_eval,
quasiarithmetic, bajraktarevic, cauchy); the batched route is
means.chandrupatla, which mean_table and quasiarithmetic_table call with
the residuals at the ends. Both keep an exactly zero end as the root (the
lower one where both ends are 0), both fail ends of one sign or a nan end,
and both stop after means._MAXITER steps.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from meanlab import expr as ex
from meanlab import means as mn
from meanlab.errors import BracketFailure
from meanlab.measures import Lebesgue


def _cubic(z):
    return z * z * z - 0.2


class TestExactZeroEnd:
    @pytest.mark.parametrize("root", [-0.25, 0.75])
    def test_scalar_returns_the_end(self, root):
        evals = []

        def f(z):
            evals.append(z)
            return z - root

        lo, hi = (root, 1.0) if root < 0 else (-1.0, root)
        assert mn._solve_bracketed(f, lo, hi) == root
        # the ends only, up to the root: no solver step was taken
        assert evals == ([lo] if root == lo else [lo, hi])

    def test_scalar_negative_zero_counts_as_zero(self):
        assert mn._solve_bracketed(lambda z: -z, 0.0, -1.0) == 0.0

    def test_batched_returns_the_end(self):
        lo, hi = np.array([0.0, 0.1, -1.0, 0.5, 0.2]), np.array([1.0, 2.0, 0.7, 0.9, 0.6])
        roots = np.array([0.0, 2.0, 0.3, 0.9, 0.4])  # at lo, at hi, inside, at hi
        # the last residual is 0 on its whole bracket, so at both ends
        scale = np.array([1.0, 1.0, 1.0, 1.0, 0.0])
        f = lambda x, c, s: s * (x - c)  # noqa: E731
        z, ok = mn.chandrupatla(f, lo, hi, f(lo, roots, scale), f(hi, roots, scale), (roots, scale))
        assert ok.all()
        assert z[0] == 0.0 and z[1] == 2.0 and z[3] == 0.9
        assert abs(z[2] - 0.3) <= 1e-15
        # both ends 0: the lower end, as _solve_bracketed returns
        assert z[4] == 0.2

    def test_batched_value_below_smallest_normal_is_a_root(self):
        fa = np.array([-5e-324])
        z, ok = mn.chandrupatla(lambda x: x - 1.0, np.array([1.0]), np.array([3.0]),
                                fa, np.array([2.0]))
        assert ok[0] and z[0] == 1.0


class TestNoSignChange:
    def test_scalar(self):
        with pytest.raises(BracketFailure, match="no sign change"):
            mn._solve_bracketed(lambda z: z * z + 1.0, -1.0, 1.0)

    def test_batched(self):
        # x^2 - c brackets a root on [0.1, 2] only for c = 1
        c = np.array([1.0, 5.0, 0.001, 1.0])
        lo, hi = np.array([0.1, 0.1, 0.1, -2.0]), np.array([2.0, 2.0, 2.0, 2.0])
        f = lambda x, c: x * x - c  # noqa: E731
        z, ok = mn.chandrupatla(f, lo, hi, f(lo, c), f(hi, c), (c,))
        assert ok.tolist() == [True, False, False, False]
        assert abs(z[0] - 1.0) <= 1e-15
        assert np.isnan(z[1:]).all()


class TestNan:
    def test_at_an_end(self):
        def phi(z):
            return math.nan if z == 1.0 else z

        with pytest.raises(BracketFailure):
            mn.quasiarithmetic(phi, 0.0, 1.0)

    def test_inside_the_bracket(self):
        seen = []

        def phi(z):
            seen.append(z)
            return math.nan if 0.3 < z < 0.7 else z

        with pytest.raises(BracketFailure, match="nan"):
            mn.quasiarithmetic(phi, 0.0, 1.0)
        assert 0.3 < seen[-1] < 0.7

    @pytest.mark.parametrize("end", [-1.0, 1.0])
    def test_scalar_nan_end_value(self, end):
        with pytest.raises(BracketFailure, match="nan at an end"):
            mn._solve_bracketed(lambda z: math.nan if z == end else z, -1.0, 1.0)

    def test_batched_nan_fails_the_element(self):
        def f(x):
            return np.where((x > 0.3) & (x < 0.7), np.nan, x - 0.5)

        a, b = np.array([0.0, 0.0]), np.array([1.0, 1.0])
        z, ok = mn.chandrupatla(f, a, b, f(a), np.array([0.5, np.nan]))
        assert not ok.any()
        assert np.isnan(z).all()

    def test_batched_nan_end_fails_unless_the_other_is_zero(self):
        # as _solve_bracketed: a nan end fails whatever the other end's sign,
        # and an exactly zero end is the root before a nan is looked at
        a, b = np.zeros(3), np.ones(3)
        fa, fb = np.array([np.nan, -1.0, np.nan]), np.array([1.0, np.nan, 0.0])
        z, ok = mn.chandrupatla(lambda x: x - 0.5, a, b, fa, fb)
        assert ok.tolist() == [False, False, True]
        assert np.isnan(z[:2]).all() and z[2] == 1.0

    def test_batched_table_falls_back_and_raises(self):
        def phi(x):
            x = np.asarray(x, dtype=float)
            out = np.where((x > 0.3) & (x < 0.7), np.nan, x)
            return out if out.ndim else float(out)

        with pytest.raises(BracketFailure):
            mn.quasiarithmetic_table(phi, [0.0, 1.0])


class TestTinyResiduals:
    """Residuals so small that Brent's extrapolation denominator underflows
    to 0; the step then bisects, as in the C routine."""

    @pytest.mark.parametrize("scale", [1e-120, 1e-200, 1e-300])
    def test_scalar_scaled_cubic(self, scale):
        z = mn._solve_bracketed(lambda z: scale * _cubic(z), 0.1, 0.9)
        assert abs(z - 0.2 ** (1 / 3)) <= 1e-15

    def test_quasiarithmetic_of_a_steep_exponential(self):
        # phi(0.9) - phi(1.0) is about 1e-118
        z = mn.quasiarithmetic("exp(-300*x)", 0.9, 1.0)
        assert 0.9 < z < 1.0
        assert abs(z - (0.9 + math.log(2.0 / (1.0 + math.exp(-30.0))) / 300.0)) <= 1e-14


class TestIterationCap:
    def test_scalar_raises(self, monkeypatch):
        monkeypatch.setattr(mn, "_MAXITER", 2)
        steps = []

        def f(z):
            steps.append(z)
            return _cubic(z)

        with pytest.raises(BracketFailure, match="no convergence in 2 steps"):
            mn._solve_bracketed(f, 0.0, 1.0)
        assert len(steps) == 4  # the two ends, then two steps
        with pytest.raises(BracketFailure):
            mn.quasiarithmetic("x^3", 0.1, 0.9)

    def test_default_cap_is_enough(self):
        z = mn._solve_bracketed(_cubic, 0.0, 1.0)
        assert abs(z - 0.2 ** (1 / 3)) <= 1e-15

    def test_batched_marks_unconverged(self, monkeypatch):
        a, b = np.array([0.0, 0.0]), np.array([1.0, 1.0])
        c = np.array([0.2, 0.5])
        f = lambda x, c: x * x * x - c  # noqa: E731
        z, ok = mn.chandrupatla(f, a, b, f(a, c), f(b, c), (c,))
        assert ok.all()
        monkeypatch.setattr(mn, "_MAXITER", 2)
        z, ok = mn.chandrupatla(f, a, b, f(a, c), f(b, c), (c,))
        assert not ok.any() and np.isnan(z).all()

    def test_batched_table_sends_misses_to_mean_eval(self, monkeypatch):
        pair = ex.validate_pair("sinh(x)", "cosh(x)", (-1.0, 1.0))
        spec = mn.MeanSpec(pair, Lebesgue())
        xs = np.linspace(-0.8, 0.8, 5)
        want = {(x, y): mn.mean_eval(spec, x, y) for x in xs for y in xs}
        table = mn.mean_table(spec, xs)
        fallbacks = []

        def scalar(spec, x, y):
            fallbacks.append((x, y))
            return want[(x, y)]

        monkeypatch.setattr(mn, "mean_eval", scalar)
        monkeypatch.setattr(mn, "_MAXITER", 1)
        capped = mn.mean_table(spec, xs)
        # one step solves only the brackets whose midpoint is the root
        assert 0 < len(fallbacks) < 20
        for i, x in enumerate(xs):
            for j, y in enumerate(xs):
                expect = want[(x, y)] if (x, y) in fallbacks else table[i, j]
                assert capped[i, j] == expect

"""Wronskians, Phi/Psi jets, recursion sequences, diagonal derivatives."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from meanlab import calculus as ca
from meanlab import expr as ex
from meanlab import means as mn
from meanlab.errors import (
    DegenerateMeasure,
    IllConditionedFit,
    OrderOutOfRange,
    OutOfInterval,
    WronskianVanishes,
)
from meanlab.measures import Discrete, Lebesgue

from conftest import PAIR_FAMILIES, random_admissible_pair

EBM = Discrete(((0.0, 0.5), (1.0, 0.5)))

LINEAR = ex.validate_pair("x", "1", (0.25, 4.0))
LOG = ex.validate_pair("log(x)", "1", (0.25, 4.0))
SINCOS = ex.validate_pair("sin(x)", "cos(x)", (-1.0, 1.0))
EXP = ex.validate_pair("exp(x)", "1", (-2.0, 2.0))


class TestWronskian:
    def test_linear_pair(self):
        for x in (0.5, 1.0, 3.0):
            assert ca.wronskian(LINEAR, x, 1, 0) == pytest.approx(1.0, abs=1e-15)

    def test_trig_pair(self):
        for x in (-0.5, 0.2, 0.9):
            assert ca.wronskian(SINCOS, x, 1, 0) == pytest.approx(1.0, abs=1e-14)
            assert ca.wronskian(SINCOS, x, 2, 0) == pytest.approx(0.0, abs=1e-14)
            assert ca.wronskian(SINCOS, x, 2, 1) == pytest.approx(1.0, abs=1e-14)

    def test_antisymmetry(self, rng):
        for _ in range(10):
            pair = random_admissible_pair(rng)
            lo, hi = pair.interval
            x = rng.uniform(lo + 0.1, hi - 0.1)
            for i in range(3):
                for j in range(3):
                    a = ca.wronskian(pair, x, i, j)
                    b = ca.wronskian(pair, x, j, i)
                    assert a == pytest.approx(-b, rel=1e-12, abs=1e-12)

    def test_order_above_validation(self):
        with pytest.raises(OrderOutOfRange):
            ca.wronskian(LINEAR, 1.0, 7, 0)

    def test_point_outside_interval(self):
        with pytest.raises(OutOfInterval):
            ca.wronskian(LINEAR, 10.0, 1, 0)


class TestPhiPsi:
    def test_linear_pair_identically_zero(self):
        pp = ca.phi_psi(LINEAR, 1.7)
        assert all(abs(c) <= 1e-15 for c in pp.phi_jet.coeffs)
        assert all(abs(c) <= 1e-15 for c in pp.psi_jet.coeffs)

    def test_log_pair(self):
        for x in (0.5, 1.0, 2.0):
            pp = ca.phi_psi(LOG, x)
            assert pp.phi(0) == pytest.approx(-1.0 / x, rel=1e-13)
            assert pp.psi(0) == pytest.approx(0.0, abs=1e-13)
            # derivative jets of Phi = -1/x come along for free
            assert pp.phi(1) == pytest.approx(1.0 / x**2, rel=1e-12)
            assert pp.phi(2) == pytest.approx(-2.0 / x**3, rel=1e-12)

    def test_trig_pair(self):
        for x in (-0.4, 0.3):
            pp = ca.phi_psi(SINCOS, x)
            assert pp.phi(0) == pytest.approx(0.0, abs=1e-13)
            assert pp.psi(0) == pytest.approx(-1.0, rel=1e-13)
            assert pp.phi(3) == pytest.approx(0.0, abs=1e-11)
            assert pp.psi(2) == pytest.approx(0.0, abs=1e-12)

    def test_definition_from_wronskians(self, rng):
        for _ in range(10):
            pair = random_admissible_pair(rng)
            lo, hi = pair.interval
            x = rng.uniform(lo + 0.1, hi - 0.1)
            pp = ca.phi_psi(pair, x)
            w10 = ca.wronskian(pair, x, 1, 0)
            w20 = ca.wronskian(pair, x, 2, 0)
            w21 = ca.wronskian(pair, x, 2, 1)
            assert pp.phi(0) == pytest.approx(w20 / w10, rel=1e-11, abs=1e-12)
            assert pp.psi(0) == pytest.approx(-w21 / w10, rel=1e-11, abs=1e-12)

    def test_order_needs_headroom(self):
        pair = ex.validate_pair("sin(x)", "cos(x)", (-1.0, 1.0), n=4)
        ca.phi_psi(pair, 0.1, order=2)
        with pytest.raises(OrderOutOfRange):
            ca.phi_psi(pair, 0.1, order=4)

    def test_vanishing_wronskian_guard(self):
        # bypass grid validation to hit the pointwise guard
        shady = ex.FunctionPair(
            f=ex.parse("x^3"), g=ex.parse("1"), interval=(-1.0, 1.0), validated_order=6
        )
        with pytest.raises(WronskianVanishes):
            ca.phi_psi(shady, 1e-6)

    def test_ode_identity(self, rng):
        # both generators solve h'' = Phi h' + Psi h
        for _ in range(10):
            pair = random_admissible_pair(rng)
            lo, hi = pair.interval
            x = rng.uniform(lo + 0.1, hi - 0.1)
            pp = ca.phi_psi(pair, x)
            for e in (pair.f, pair.g):
                j = ex.eval_jet(e, x, 2)
                h0, h1, h2 = (j.derivative_value(k) for k in range(3))
                want = pp.phi(0) * h1 + pp.psi(0) * h0
                assert h2 == pytest.approx(want, rel=1e-10, abs=1e-10)


def _family_grids(pair):
    """A 1-D interior grid and a 2-D node array on the pair's interval."""
    lo, hi = pair.interval
    line = ex.interior_grid(pair.interval, 9)
    nodes = np.linspace(lo, hi, 14)[1:-1].reshape(3, 4)
    return line, nodes


class TestSample:
    @pytest.mark.parametrize("family", PAIR_FAMILIES)
    def test_equals_pointwise_calls(self, rng, family):
        pair = random_admissible_pair(rng, family)
        for xs in _family_grids(pair):
            s = ca.sample(pair, xs, 4)
            assert all(v.shape == np.shape(xs) for v in s.d_f + s.d_g + s.phi + s.psi)
            assert len(s.d_f) == len(s.d_g) == 7 and len(s.phi) == len(s.psi) == 5
            for idx, x in np.ndenumerate(np.asarray(xs)):
                pp = ca.phi_psi(pair, x, order=4)
                jf, jg = ex.eval_jet(pair.f, x, 6), ex.eval_jet(pair.g, x, 6)
                for k in range(5):
                    assert s.phi[k][idx] == pp.phi(k) and s.psi[k][idx] == pp.psi(k)
                for k in range(7):
                    assert s.d_f[k][idx] == jf.derivative_value(k)
                    assert s.d_g[k][idx] == jg.derivative_value(k)
                for i in range(7):
                    for j in range(7):
                        assert s.w(i, j)[idx] == ca.wronskian(pair, x, i, j)

    @pytest.mark.parametrize("family", PAIR_FAMILIES)
    def test_lower_order_is_a_prefix(self, rng, family):
        pair = random_admissible_pair(rng, family)
        xs = _family_grids(pair)[0]
        full, low = ca.sample(pair, xs, 4), ca.sample(pair, xs, 1)
        assert len(low.d_f) == 4 and len(low.phi) == 2
        for k in range(2):
            assert np.array_equal(low.phi[k], full.phi[k])
            assert np.array_equal(low.psi[k], full.psi[k])

    @pytest.mark.parametrize("family", PAIR_FAMILIES)
    def test_closed_form_equals_diagonal_derivatives(self, rng, family):
        pair = random_admissible_pair(rng, family)
        measures = (EBM, Lebesgue(), Discrete(((0.0, 0.3), (0.7, 0.7))))
        for xs in _family_grids(pair):
            s = ca.sample(pair, xs, 4)
            for measure in measures:
                grid = ca.diagonal_closed_form(s.phi, s.psi, ca.diagonal_moments(measure))
                for idx, x in np.ndenumerate(np.asarray(xs)):
                    want = ca.diagonal_derivatives(pair, measure, x)
                    assert [np.broadcast_to(m, np.shape(xs))[idx] for m in grid] == list(want)

    def test_order_out_of_range(self):
        low = ex.validate_pair("sin(x)", "cos(x)", (-1.0, 1.0), n=3)
        for order in (-1, 2):
            with pytest.raises(OrderOutOfRange):
                ca.phi_psi(low, 0.1, order=order)
            with pytest.raises(OrderOutOfRange):
                ca.sample(low, [0.1], order)

    def test_first_point_outside_interval(self):
        with pytest.raises(OutOfInterval) as want:
            ca.phi_psi(LOG, 5.0, order=0)
        with pytest.raises(OutOfInterval) as got:
            ca.sample(LOG, [[1.0, 2.0], [5.0, 0.1]], 0)
        assert str(got.value) == str(want.value)

    def test_first_vanishing_wronskian(self):
        # bypass grid validation: W(x^3, 1) = 3x^2 vanishes at 0
        shady = ex.FunctionPair(
            f=ex.parse("x^3"), g=ex.parse("1"), interval=(-1.0, 1.0), validated_order=6
        )
        with pytest.raises(WronskianVanishes) as want:
            ca.phi_psi(shady, 1e-6, order=2)
        with pytest.raises(WronskianVanishes) as got:
            ca.sample(shady, [0.5, 1e-6, -1e-7], 2)
        assert (got.value.point, got.value.value) == (want.value.point, want.value.value)


class TestRecursion:
    def test_seeds(self):
        seq = ca.recursion_seq(SINCOS, 0.3)
        assert seq.phi[0] == 0.0 and seq.psi[0] == 1.0
        assert seq.phi[1] == 1.0 and seq.psi[1] == 0.0

    def test_level_two_is_phi_psi(self, rng):
        for _ in range(5):
            pair = random_admissible_pair(rng)
            lo, hi = pair.interval
            x = rng.uniform(lo + 0.1, hi - 0.1)
            seq = ca.recursion_seq(pair, x)
            pp = ca.phi_psi(pair, x)
            assert seq.phi[2] == pytest.approx(pp.phi(0), rel=1e-12, abs=1e-12)
            assert seq.psi[2] == pytest.approx(pp.psi(0), rel=1e-12, abs=1e-12)

    def test_exponential_pair(self):
        seq = ca.recursion_seq(EXP, 0.7)
        assert seq.phi[3] == pytest.approx(1.0, rel=1e-12)
        assert seq.psi[3] == pytest.approx(0.0, abs=1e-12)
        # h = exp solves h''' = phi_3 h' + psi_3 h
        v = math.exp(0.7)
        assert v == pytest.approx(seq.phi[3] * v + seq.psi[3] * v, rel=1e-12)

    def test_linear_pair_annihilated(self):
        seq = ca.recursion_seq(LINEAR, 1.3)
        assert all(abs(v) <= 1e-14 for v in seq.phi[2:])
        assert all(abs(v) <= 1e-14 for v in seq.psi[2:])

    def test_depth_cap(self):
        with pytest.raises(OrderOutOfRange):
            ca.recursion_seq(SINCOS, 0.1, n=7)

    def test_derivative_identity(self, rng):
        # h^(i) = phi_i h' + psi_i h for both generators, i <= 6
        for _ in range(15):
            pair = random_admissible_pair(rng)
            lo, hi = pair.interval
            x = rng.uniform(lo + 0.1, hi - 0.1)
            seq = ca.recursion_seq(pair, x)
            for e in (pair.f, pair.g):
                j = ex.eval_jet(e, x, 6)
                for i in range(7):
                    want = seq.phi[i] * j.derivative_value(1) + seq.psi[i] * j.derivative_value(0)
                    got = j.derivative_value(i)
                    assert abs(got - want) <= 1e-9 * (1.0 + abs(got))

    def test_wronskian_factorization(self, rng):
        # W^{i,j} = (phi_i psi_j - phi_j psi_i) W^{1,0}
        for _ in range(10):
            pair = random_admissible_pair(rng)
            lo, hi = pair.interval
            x = rng.uniform(lo + 0.1, hi - 0.1)
            seq = ca.recursion_seq(pair, x)
            w10 = ca.wronskian(pair, x, 1, 0)
            for i in range(7):
                for j in range(7):
                    want = (seq.phi[i] * seq.psi[j] - seq.phi[j] * seq.psi[i]) * w10
                    got = ca.wronskian(pair, x, i, j)
                    assert abs(got - want) <= 1e-9 * (1.0 + abs(got))


class TestClosedForms:
    def test_linear_pair_zeros(self):
        seq = ca.closed_form_seq(LINEAR, 2.0)
        assert all(abs(v) <= 1e-15 for v in seq.phi[2:])
        assert all(abs(v) <= 1e-15 for v in seq.psi[2:])

    def test_trig_values(self):
        seq = ca.closed_form_seq(SINCOS, 0.4)
        assert seq.phi[3] == pytest.approx(-1.0, rel=1e-12)
        assert seq.phi[4] == pytest.approx(0.0, abs=1e-11)
        assert seq.phi[5] == pytest.approx(1.0, rel=1e-11)
        assert seq.psi[4] == pytest.approx(1.0, rel=1e-12)
        assert seq.psi[6] == pytest.approx(-1.0, rel=1e-10)

    def test_matches_recursion(self, rng):
        for _ in range(20):
            pair = random_admissible_pair(rng)
            lo, hi = pair.interval
            x = rng.uniform(lo + 0.1, hi - 0.1)
            a = ca.closed_form_seq(pair, x)
            b = ca.recursion_seq(pair, x)
            for i in range(7):
                assert abs(a.phi[i] - b.phi[i]) <= 1e-10 * (1.0 + abs(b.phi[i]))
                assert abs(a.psi[i] - b.psi[i]) <= 1e-10 * (1.0 + abs(b.psi[i]))

    def test_equal_the_exact_recursion(self):
        # on rational Taylor coefficients p, q of Phi and Psi, the closed
        # forms of the derivatives k! p_k, k! q_k must give the recursion's
        # phi_i, psi_i exactly: every coefficient is an int, so any one
        # wrong coefficient shows
        rng = random.Random(1912)
        for _ in range(100):
            p, q = ([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5)]
                    for _ in range(2))
            want = _exact_recursion(p, q)
            got = ca._seq_closed_form(*([math.factorial(k) * c[k] for k in range(5)] for c in (p, q)))
            assert got == want


def _exact_recursion(p: list, q: list, n: int = 6) -> tuple[tuple, tuple]:
    """phi_i, psi_i for i <= n in rational arithmetic, from the Taylor
    coefficients p of Phi and q of Psi: a Cauchy product and the shift."""

    def mul(a, b):
        return [sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(len(a))]

    def shift(a):
        return [(k + 1) * a[k + 1] for k in range(len(a) - 1)]

    phi_i, psi_i = [Fraction(1)] + [Fraction(0)] * (n - 1), [Fraction(0)] * n
    phis, psis = [0, 1], [1, 0]
    for m in range(n - 1, 0, -1):
        phi_i, psi_i = (
            [d + c + e for d, c, e in zip(shift(phi_i), mul(phi_i[:m], p[:m]), psi_i)],
            [c + d for c, d in zip(mul(phi_i[:m], q[:m]), shift(psi_i))],
        )
        phis.append(phi_i[0])
        psis.append(psi_i[0])
    return tuple(phis), tuple(psis)


class TestDiagonalDerivatives:
    def test_first_derivative_vanishes(self, rng):
        for _ in range(5):
            pair = random_admissible_pair(rng)
            lo, hi = pair.interval
            x = rng.uniform(lo + 0.1, hi - 0.1)
            ms = ca.diagonal_derivatives(pair, EBM, x)
            assert ms[0] == 0.0

    def test_geometric_mean_curvature(self):
        # diagonal of the two-atom geometric mean is sqrt(x^2 - u^2/4)
        ms = ca.diagonal_derivatives(LOG, EBM, 1.0)
        assert ms[1] == pytest.approx(-0.25, abs=1e-12)
        assert ms[2] == 0.0
        assert ms[3] == pytest.approx(-3.0 / 16.0, abs=1e-12)
        assert ms[4] == 0.0
        assert ms[5] == pytest.approx(-45.0 / 64.0, abs=1e-11)

    def test_linear_pair_flat(self):
        ms = ca.diagonal_derivatives(LINEAR, Lebesgue(), 1.5)
        assert all(abs(v) <= 1e-14 for v in ms)

    def test_point_mass_rejected(self):
        with pytest.raises(DegenerateMeasure):
            ca.diagonal_derivatives(LOG, Discrete(((0.4, 1.0),)), 1.0)

    def test_equivalent_pairs_agree(self, rng):
        base = ex.validate_pair("sinh(x)", "cosh(x)", (-1.0, 1.0))
        fimg = ex.parse("sinh(x) + 0.3 * cosh(x)")
        gimg = ex.parse("0.1 * sinh(x) + cosh(x)")
        image = ex.validate_pair(fimg, gimg, (-1.0, 1.0))
        for measure in (EBM, Lebesgue()):
            for x in (-0.5, 0.0, 0.6):
                a = ca.diagonal_derivatives(base, measure, x)
                b = ca.diagonal_derivatives(image, measure, x)
                for u, v in zip(a, b):
                    assert abs(u - v) <= 1e-9 * (1.0 + abs(u))


class TestNumericOracle:
    def test_geometric_mean_curvature(self):
        got = ca.diagonal_derivatives_numeric(LOG, EBM, 1.0, k_max=2)
        assert got[1] == pytest.approx(-0.25, abs=1e-7)

    def test_linear_pair_flat(self):
        # the section is exactly linear, so the only error is fit roundoff,
        # which shrinks like 1/h^k; a wide explicit radius puts every order
        # below 1e-9, while the narrow default keeps k = 6 near 2e-6
        got = ca.diagonal_derivatives_numeric(LINEAR, EBM, 1.5, h=1.0)
        assert all(abs(v) <= 1e-9 for v in got)
        got = ca.diagonal_derivatives_numeric(LINEAR, EBM, 1.5)
        assert all(abs(v) <= 1e-5 for v in got)

    def test_first_moment_is_exact(self, monkeypatch):
        # 3-point Gauss-Legendre puts the first moment one ulp above 1/2; with
        # the exact 1/2 every sampled section through 0 is symmetric
        seen = []
        monkeypatch.setattr(mn, "mean_eval", lambda s, a, b: seen.append((a, b)) or 0.0)
        ca.diagonal_derivatives_numeric(EXP, Lebesgue(order=3), 0.0)
        assert len(seen) == ca.ORACLE_NODES
        assert all(a == -b for a, b in seen)

    def test_moments_read_once_with_m_curve_bits(self, monkeypatch):
        skewed = Discrete(((0.0, 0.3), (0.7, 0.7)))
        calls = []

        def counted(m, nmax=6, _real=ca.moments):
            calls.append(nmax)
            return _real(m, nmax)

        monkeypatch.setattr(ca, "moments", counted)
        monkeypatch.setattr(mn, "moments", counted)
        got = ca.diagonal_derivatives_numeric(SINCOS, skewed, 0.2)
        assert calls == [1]
        monkeypatch.setattr(ca, "_section", lambda spec, x, u, _: mn.m_curve(spec, x, u))
        assert ca.diagonal_derivatives_numeric(SINCOS, skewed, 0.2) == got
        assert len(calls) == 2 + ca.ORACLE_NODES

    def test_trig_lebesgue_cross_check(self):
        want = ca.diagonal_derivatives(SINCOS, Lebesgue(), 0.3)
        got = ca.diagonal_derivatives_numeric(SINCOS, Lebesgue(), 0.3)
        for k in range(1, 7):
            tol = 1e-5 if k <= 4 else 1e-3
            assert abs(got[k - 1] - want[k - 1]) <= tol * (1.0 + abs(want[k - 1]))

    def test_cross_check_random(self, rng):
        # the closed forms and the sampling oracle are fully independent routes
        for _ in range(20):
            pair = random_admissible_pair(rng)
            lo, hi = pair.interval
            for _ in range(5):
                x = rng.uniform(lo + 0.15 * (hi - lo), hi - 0.15 * (hi - lo))
                measure = EBM if rng.random() < 0.5 else Lebesgue()
                want = ca.diagonal_derivatives(pair, measure, x)
                got = ca.diagonal_derivatives_numeric(pair, measure, x)
                for k in range(1, 7):
                    tol = 1e-5 if k <= 4 else 1e-3
                    assert abs(got[k - 1] - want[k - 1]) <= tol * (1.0 + abs(want[k - 1]))

    def test_k_max_cap(self):
        with pytest.raises(OrderOutOfRange):
            ca.diagonal_derivatives_numeric(LOG, EBM, 1.0, k_max=7)

    def test_x_outside(self):
        with pytest.raises(OutOfInterval):
            ca.diagonal_derivatives_numeric(LOG, EBM, 9.0)

    def test_condition_limit_enforced(self, monkeypatch):
        monkeypatch.setattr(ca, "FIT_CONDITION_LIMIT", 1.0)
        with pytest.raises(IllConditionedFit):
            ca.diagonal_derivatives_numeric(LOG, EBM, 1.0)

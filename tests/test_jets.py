"""Truncated Taylor jet arithmetic: frozen values, identities, error paths."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meanlab import jets
from meanlab.errors import (
    BasePointMismatch,
    DivisionByZeroConstantTerm,
    DomainViolation,
    OrderMismatch,
    OrderOutOfRange,
)
from meanlab.jets import (
    Jet,
    jabspow,
    jcos,
    jcosh,
    jet_const,
    jet_var,
    jexp,
    jlog,
    jpow,
    jsin,
    jsinh,
    jsqrt,
    div,
    mul,
)

from conftest import fd_weights


def approx_list(got, want, rel=1e-13, abs_=1e-13):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a == pytest.approx(b, rel=rel, abs=abs_)


class TestConstruction:
    def test_var_jet(self):
        j = jet_var(2.5, 3)
        assert j.base_point == 2.5
        assert j.coeffs == (2.5, 1.0, 0.0, 0.0)

    def test_const_jet(self):
        j = jet_const(7.0, 1.0, 2)
        assert j.coeffs == (7.0, 0.0, 0.0)

    def test_order_zero_allowed(self):
        assert jet_var(1.0, 0).coeffs == (1.0,)

    def test_order_cap(self):
        with pytest.raises(OrderOutOfRange):
            jet_var(1.0, jets.MAX_ORDER + 1)
        with pytest.raises(OrderOutOfRange):
            jet_var(1.0, -1)

    def test_derivative_value_scaling(self):
        j = Jet(0.0, (1.0, 2.0, 3.0, 4.0))
        # coeffs store h^(k)/k!
        assert j.derivative_value(2) == 6.0
        assert j.derivative_value(3) == 24.0

    def test_is_finite(self):
        assert jet_var(1.0, 2).is_finite() is True
        assert Jet(1.0, (1.0, math.inf)).is_finite() is False
        one = Jet(np.array([0.5]), (np.array([1.0]), np.array([2.0])))
        assert one.is_finite().tolist() == [True]
        xs = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        j = Jet(xs, (xs, np.ones(xs.shape), np.zeros(xs.shape)))
        finite = j.is_finite()
        assert finite.shape == xs.shape and finite.all()
        c = np.ones(xs.shape)
        c[1, 2] = math.inf
        bad = Jet(xs, (xs, np.ones(xs.shape), c)).is_finite()
        assert bad.tolist() == [[True, True, True], [True, True, False]]

    def test_truncate(self):
        j = jet_var(1.0, 4)
        assert j.truncate(2).coeffs == (1.0, 1.0, 0.0)
        assert j.truncate(4) is j
        with pytest.raises(OrderOutOfRange):
            j.truncate(5)


class TestArithmetic:
    def test_mul_square(self):
        j = jet_var(1.0, 2)
        approx_list(mul(j, j).coeffs, [1.0, 2.0, 1.0])

    def test_reciprocal_at_two(self):
        one = jet_const(1.0, 2.0, 2)
        j = div(one, jet_var(2.0, 2))
        # 1/x at 2: 1/2 - (x-2)/4 + (x-2)^2/8
        approx_list(j.coeffs, [0.5, -0.25, 0.125])

    def test_div_by_zero_constant_term(self):
        with pytest.raises(DivisionByZeroConstantTerm):
            div(jet_const(1.0, 0.0, 2), jet_var(0.0, 2))

    def test_mismatched_base_points(self):
        with pytest.raises(BasePointMismatch):
            mul(jet_var(0.0, 2), jet_var(1.0, 2))

    def test_mismatched_orders(self):
        with pytest.raises(OrderMismatch):
            mul(jet_var(0.0, 2), jet_var(0.0, 3))

    def test_operators(self):
        a = jet_var(1.0, 3)
        b = jet_const(2.0, 1.0, 3)
        assert (a + b).coeffs == (3.0, 1.0, 0.0, 0.0)
        assert (a - b).coeffs == (-1.0, 1.0, 0.0, 0.0)
        assert (-a).coeffs == (-1.0, -1.0, -0.0, -0.0) or (-a).coeffs == (-1.0, -1.0, 0.0, 0.0)
        approx_list((a * a).coeffs, [1.0, 2.0, 1.0, 0.0])

    def test_truncation_consistency_mul(self):
        # computing at high order then truncating == computing at low order
        a = Jet(0.5, (1.0, -2.0, 0.75, 0.3, -0.1))
        b = Jet(0.5, (2.0, 0.5, -1.0, 0.25, 0.6))
        hi = mul(a, b).truncate(2)
        lo = mul(a.truncate(2), b.truncate(2))
        assert hi.coeffs == lo.coeffs  # bitwise, not approx


class TestElementary:
    def test_exp_at_zero(self):
        j = jexp(jet_var(0.0, 3))
        approx_list(j.coeffs, [1.0, 1.0, 0.5, 1.0 / 6.0])

    def test_log_at_one(self):
        j = jlog(jet_var(1.0, 3))
        approx_list(j.coeffs, [0.0, 1.0, -0.5, 1.0 / 3.0])

    def test_log_requires_positive(self):
        with pytest.raises(DomainViolation):
            jlog(jet_var(-1.0, 2))

    def test_exp_log_roundtrip(self):
        j = Jet(0.3, (1.7, 0.4, -0.2, 0.05, 0.01))
        back = jexp(jlog(j))
        approx_list(back.coeffs, j.coeffs, rel=1e-12)

    def test_sin_cos_at_point(self):
        x = 0.7
        s = jsin(jet_var(x, 4))
        c = jcos(jet_var(x, 4))
        approx_list(
            s.coeffs,
            [math.sin(x), math.cos(x), -math.sin(x) / 2, -math.cos(x) / 6, math.sin(x) / 24],
        )
        approx_list(
            c.coeffs,
            [math.cos(x), -math.sin(x), -math.cos(x) / 2, math.sin(x) / 6, math.cos(x) / 24],
        )

    def test_hyperbolic_identity(self):
        x = 0.35
        s = jsinh(jet_var(x, 6))
        c = jcosh(jet_var(x, 6))
        diff = c * c - s * s
        approx_list(diff.coeffs, [1.0] + [0.0] * 6, abs_=1e-12)

    def test_sqrt(self):
        j = jsqrt(jet_var(4.0, 2))
        approx_list(j.coeffs, [2.0, 0.25, -0.25 / 16.0])

    def test_sqrt_requires_positive(self):
        with pytest.raises(DomainViolation):
            jsqrt(jet_var(0.0, 2))

    def test_integer_power_negative_base(self):
        j = jpow(jet_var(-2.0, 2), Fraction(3))
        approx_list(j.coeffs, [-8.0, 12.0, -6.0])

    def test_negative_integer_power(self):
        j = jpow(jet_var(2.0, 2), Fraction(-1))
        approx_list(j.coeffs, [0.5, -0.25, 0.125])

    def test_fractional_power(self):
        j = jpow(jet_var(8.0, 2), Fraction(2, 3))
        # x^(2/3) at 8: 4, (2/3)8^(-1/3)=1/3, (1/2)(2/3)(-1/3)8^(-4/3)=-1/144
        approx_list(j.coeffs, [4.0, 1.0 / 3.0, -1.0 / 144.0])

    def test_fractional_power_requires_positive_base(self):
        with pytest.raises(DomainViolation):
            jpow(jet_var(-8.0, 2), Fraction(2, 3))

    def test_abspow_negative_base(self):
        j = jabspow(jet_var(-8.0, 2), Fraction(2, 3))
        # |x|^(2/3) at -8: |x| = -x there, so value 4, slope -1/3
        approx_list(j.coeffs, [4.0, -1.0 / 3.0, -1.0 / 144.0])

    def test_abspow_zero_base_rejected(self):
        with pytest.raises(DomainViolation):
            jabspow(jet_var(0.0, 2), Fraction(2, 3))


@pytest.mark.parametrize(
    "name,make,point",
    [
        ("exp", lambda j: jexp(j), 0.4),
        ("log", lambda j: jlog(j), 1.7),
        ("sin", lambda j: jsin(j), 0.9),
        ("cosh", lambda j: jcosh(j), -0.3),
        ("sqrt", lambda j: jsqrt(j), 2.2),
        ("pow23", lambda j: jpow(j, Fraction(2, 3)), 1.6),
    ],
)
def test_against_finite_differences(name, make, point):
    """Jet coefficients at orders <= 4 agree with a numeric derivative."""
    scalar = {
        "exp": math.exp,
        "log": math.log,
        "sin": math.sin,
        "cosh": math.cosh,
        "sqrt": math.sqrt,
        "pow23": lambda x: x ** (2.0 / 3.0),
    }[name]
    j = make(jet_var(point, 6))
    h = 0.05  # wide enough that 1/h^4 roundoff amplification stays below rel tol
    nodes = [point + (i - 6) * h for i in range(13)]
    w = fd_weights(point, nodes, 4)
    for k in range(5):
        est = sum(w[i, k] * scalar(nodes[i]) for i in range(13))
        want = j.derivative_value(k)
        assert est == pytest.approx(want, rel=1e-6, abs=1e-8)


coeff = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False)


def jets_strategy(order=4, base=0.5):
    return st.lists(coeff, min_size=order + 1, max_size=order + 1).map(
        lambda cs: Jet(base, tuple(cs))
    )


class TestAlgebraLaws:
    @settings(derandomize=True, max_examples=60)
    @given(a=jets_strategy(), b=jets_strategy())
    def test_mul_commutes(self, a, b):
        assert mul(a, b).coeffs == mul(b, a).coeffs

    @settings(derandomize=True, max_examples=60)
    @given(a=jets_strategy(), b=jets_strategy(), c=jets_strategy())
    def test_distributive(self, a, b, c):
        left = mul(a, b + c)
        right = mul(a, b) + mul(a, c)
        approx_list(left.coeffs, right.coeffs, rel=1e-10, abs_=1e-10)

    @settings(derandomize=True, max_examples=60)
    @given(a=jets_strategy(), b=jets_strategy())
    def test_div_inverts_mul(self, a, b):
        if abs(b.coeffs[0]) < 1e-3:
            return
        back = div(mul(a, b), b)
        approx_list(back.coeffs, a.coeffs, rel=1e-9, abs_=1e-9)

    @settings(derandomize=True, max_examples=60)
    @given(a=jets_strategy())
    def test_exp_of_sum_vs_product(self, a):
        b = Jet(a.base_point, (0.1, -0.2, 0.3, 0.05, -0.15))
        left = jexp(a + b)
        right = mul(jexp(a), jexp(b))
        approx_list(left.coeffs, right.coeffs, rel=1e-9, abs_=1e-7)


def test_derivative_shifts_coefficients():
    j = Jet(1.0, (1.0, 2.0, 3.0, 4.0))
    d = j.derivative()
    # d/dx sum a_k u^k = sum (k+1) a_{k+1} u^k
    assert d.coeffs == (2.0, 6.0, 12.0)
    assert d.base_point == 1.0
    with pytest.raises(OrderOutOfRange):
        Jet(1.0, (5.0,)).derivative()

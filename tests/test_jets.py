"""Truncated Taylor jets: frozen values, identities, error paths.

Jets of functions come from eval_jet of a tree; laws on arbitrary
coefficients run the templates printed alone (rule, beside the loop forms).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meanlab import calculus as ca
from meanlab import expr as ex
from meanlab import jets
from meanlab.errors import DivisionByZeroConstantTerm, DomainViolation, OrderOutOfRange
from meanlab.jets import Jet

from conftest import fd_weights
from test_jet_kernels import rule


def approx_list(got, want, rel=1e-13, abs_=1e-13):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a == pytest.approx(b, rel=rel, abs=abs_)


def jet(text: str, x: float, order: int) -> tuple:
    return ex.eval_jet(ex.parse(text), x, order).coeffs


class TestConstruction:
    def test_var_jet(self):
        j = ex.eval_jet(ex.Var(), 2.5, 3)
        assert j.base_point == 2.5
        assert j.coeffs == (2.5, 1.0, 0.0, 0.0)

    def test_const_jet(self):
        assert ex.eval_jet(ex.Const(7.0), 1.0, 2).coeffs == (7.0, 0.0, 0.0)

    def test_order_zero_allowed(self):
        assert ex.eval_jet(ex.Var(), 1.0, 0).coeffs == (1.0,)

    def test_order_cap(self):
        with pytest.raises(OrderOutOfRange):
            ex.eval_jet(ex.Var(), 1.0, jets.MAX_ORDER + 1)
        with pytest.raises(OrderOutOfRange):
            ex.eval_jet(ex.Var(), 1.0, -1)

    def test_derivative_value_scaling(self):
        j = Jet(0.0, (1.0, 2.0, 3.0, 4.0))
        # coeffs store h^(k)/k!
        assert j.derivative_value(2) == 6.0
        assert j.derivative_value(3) == 24.0

    def test_derivative_value_above_the_order(self):
        with pytest.raises(OrderOutOfRange, match="^derivative order 4 outside jet order 3$"):
            Jet(0.0, (1.0, 2.0, 3.0, 4.0)).derivative_value(4)

    def test_is_finite(self):
        assert Jet(1.0, (1.0, 1.0, 0.0)).is_finite() is True
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


class TestArithmetic:
    def test_mul_square(self):
        approx_list(jet("x * x", 1.0, 2), [1.0, 2.0, 1.0])

    def test_reciprocal_at_two(self):
        # 1/x at 2: 1/2 - (x-2)/4 + (x-2)^2/8
        approx_list(jet("1 / x", 2.0, 2), [0.5, -0.25, 0.125])

    def test_div_by_zero_constant_term(self):
        with pytest.raises(DivisionByZeroConstantTerm):
            jet("1 / x", 0.0, 2)

    def test_truncation_consistency_mul(self):
        # computing at high order then truncating == computing at low order
        a = (1.0, -2.0, 0.75, 0.3, -0.1)
        b = (2.0, 0.5, -1.0, 0.25, 0.6)
        hi = rule(jets.mul_rule, 4, 2)(*a, *b)[:3]
        lo = rule(jets.mul_rule, 2, 2)(*a[:3], *b[:3])
        assert hi == lo  # bitwise, not approx


class TestElementary:
    def test_exp_at_zero(self):
        approx_list(jet("exp(x)", 0.0, 3), [1.0, 1.0, 0.5, 1.0 / 6.0])

    def test_log_at_one(self):
        approx_list(jet("log(x)", 1.0, 3), [0.0, 1.0, -0.5, 1.0 / 3.0])

    def test_log_requires_positive(self):
        with pytest.raises(DomainViolation):
            jet("log(x)", -1.0, 2)

    def test_exp_log_roundtrip(self):
        c = (1.7, 0.4, -0.2, 0.05, 0.01)
        back = rule(jets.exp_rule, 4, 1)(*rule(jets.log_rule, 4, 1)(*c))
        approx_list(back, c, rel=1e-12)

    def test_sin_cos_at_point(self):
        x = 0.7
        approx_list(
            jet("sin(x)", x, 4),
            [math.sin(x), math.cos(x), -math.sin(x) / 2, -math.cos(x) / 6, math.sin(x) / 24],
        )
        approx_list(
            jet("cos(x)", x, 4),
            [math.cos(x), -math.sin(x), -math.cos(x) / 2, math.sin(x) / 6, math.cos(x) / 24],
        )

    def test_hyperbolic_identity(self):
        diff = jet("cosh(x) * cosh(x) - sinh(x) * sinh(x)", 0.35, 6)
        approx_list(diff, [1.0] + [0.0] * 6, abs_=1e-12)

    def test_sqrt(self):
        approx_list(jet("sqrt(x)", 4.0, 2), [2.0, 0.25, -0.25 / 16.0])

    def test_sqrt_requires_positive(self):
        with pytest.raises(DomainViolation):
            jet("sqrt(x)", 0.0, 2)

    def test_integer_power_negative_base(self):
        approx_list(jet("x^3", -2.0, 2), [-8.0, 12.0, -6.0])

    def test_negative_integer_power(self):
        approx_list(jet("x^(-1)", 2.0, 2), [0.5, -0.25, 0.125])

    def test_fractional_power(self):
        # x^(2/3) at 8: 4, (2/3)8^(-1/3)=1/3, (1/2)(2/3)(-1/3)8^(-4/3)=-1/144
        approx_list(jet("x^(2/3)", 8.0, 2), [4.0, 1.0 / 3.0, -1.0 / 144.0])

    def test_fractional_power_requires_positive_base(self):
        with pytest.raises(DomainViolation):
            jet("x^(2/3)", -8.0, 2)

    def test_abspow_negative_base(self):
        # |x|^(2/3) at -8 is (-x)^(2/3): value 4, slope -1/3
        approx_list(jet("(-x)^(2/3)", -8.0, 2), [4.0, -1.0 / 3.0, -1.0 / 144.0])

    def test_abspow_zero_base_rejected(self):
        with pytest.raises(DomainViolation):
            jet("(-x)^(2/3)", 0.0, 2)


@pytest.mark.parametrize(
    "name,make,point",
    [
        ("exp", lambda: ex.parse("exp(x)"), 0.4),
        ("log", lambda: ex.parse("log(x)"), 1.7),
        ("sin", lambda: ex.parse("sin(x)"), 0.9),
        ("cosh", lambda: ex.parse("cosh(x)"), -0.3),
        ("sqrt", lambda: ex.parse("sqrt(x)"), 2.2),
        ("pow23", lambda: ex.parse("x^(2/3)"), 1.6),
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
    j = ex.eval_jet(make(), point, 6)
    h = 0.05  # wide enough that 1/h^4 roundoff amplification stays below rel tol
    nodes = [point + (i - 6) * h for i in range(13)]
    w = fd_weights(point, nodes, 4)
    for k in range(5):
        est = sum(w[i, k] * scalar(nodes[i]) for i in range(13))
        want = j.derivative_value(k)
        assert est == pytest.approx(want, rel=1e-6, abs=1e-8)


coeff = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False)
jets_strategy = st.lists(coeff, min_size=5, max_size=5).map(tuple)
mul, div = rule(jets.mul_rule, 4, 2), rule(jets.div_rule, 4, 2)
jexp = rule(jets.exp_rule, 4, 1)


def plus(a, b):
    return tuple(x + y for x, y in zip(a, b))


class TestAlgebraLaws:
    @settings(derandomize=True, max_examples=60)
    @given(a=jets_strategy, b=jets_strategy)
    def test_mul_commutes(self, a, b):
        assert mul(*a, *b) == mul(*b, *a)

    @settings(derandomize=True, max_examples=60)
    @given(a=jets_strategy, b=jets_strategy, c=jets_strategy)
    def test_distributive(self, a, b, c):
        left = mul(*a, *plus(b, c))
        right = plus(mul(*a, *b), mul(*a, *c))
        approx_list(left, right, rel=1e-10, abs_=1e-10)

    @settings(derandomize=True, max_examples=60)
    @given(a=jets_strategy, b=jets_strategy)
    def test_div_inverts_mul(self, a, b):
        if abs(b[0]) < 1e-3:
            return
        back = div(*mul(*a, *b), *b)
        approx_list(back, a, rel=1e-9, abs_=1e-9)

    @settings(derandomize=True, max_examples=60)
    @given(a=jets_strategy)
    def test_exp_of_sum_vs_product(self, a):
        b = (0.1, -0.2, 0.3, 0.05, -0.15)
        left = jexp(*plus(a, b))
        right = mul(*jexp(*a), *jexp(*b))
        approx_list(left, right, rel=1e-9, abs_=1e-7)


def test_derivative_shifts_coefficients():
    # the shift the Phi/Psi and recursion kernels print:
    # d/dx sum a_k u^k = sum (k+1) a_{k+1} u^k
    assert ca._shift(jets.Emitter(), [1.0, 2.0, 3.0, 4.0]) == [2.0, 6.0, 12.0]
    assert ca._shift(jets.Emitter(), [5.0]) == []

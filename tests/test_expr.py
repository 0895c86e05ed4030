"""Parser, printer, evaluators, and admissibility certification."""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from meanlab import expr as ex
from meanlab.errors import (
    DomainViolation,
    NonSmooth,
    NotPositive,
    ParseError,
    WronskianVanishes,
)
from conftest import fd_derivative, random_expr


class TestParsing:
    def test_variable_and_number(self):
        assert ex.parse("x") == ex.Var()
        assert ex.parse("2.5") == ex.Const(2.5)
        assert ex.parse("-3") == ex.Const(-3.0)
        assert ex.parse("1e-3") == ex.Const(0.001)

    def test_precedence(self):
        e = ex.parse("1 + 2 * x")
        assert e == ex.BinOp("+", ex.Const(1.0), ex.BinOp("*", ex.Const(2.0), ex.Var()))

    def test_left_associativity(self):
        e = ex.parse("8 - 3 - 2")
        assert ex.eval_scalar(e, 0.0) == 3.0
        e = ex.parse("8 / 2 / 2")
        assert ex.eval_scalar(e, 0.0) == 2.0

    def test_power_binds_tighter_than_unary_minus(self):
        e = ex.parse("-x^2")
        assert e == ex.Neg(ex.Pow(ex.Var(), Fraction(2)))

    def test_power_exponent_is_atom_level(self):
        # x^1/2 is (x^1)/2, matching how the operators read on paper
        e = ex.parse("x^1/2")
        assert ex.eval_scalar(e, 6.0) == 3.0

    def test_rational_exponents(self):
        assert ex.parse("x^(2/3)") == ex.Pow(ex.Var(), Fraction(2, 3))
        assert ex.parse("x^(-1/2)") == ex.Pow(ex.Var(), Fraction(-1, 2))
        assert ex.parse("x^0.5") == ex.Pow(ex.Var(), Fraction(1, 2))
        assert ex.parse("x^(1/2 + 1/6)") == ex.Pow(ex.Var(), Fraction(2, 3))

    def test_calls(self):
        assert ex.parse("exp(x)") == ex.Call("exp", ex.Var())
        assert ex.parse("log(cosh(x))") == ex.Call("log", ex.Call("cosh", ex.Var()))

    def test_sine_cosine_type_nodes(self):
        s = ex.parse("S(-1; x)")
        assert s == ex.SType(-1.0, ex.Var())
        c = ex.parse("C(1/4; 2 * x)")
        assert c == ex.CType(0.25, ex.BinOp("*", ex.Const(2.0), ex.Var()))
        # the parameter is read by the grammar of exponents
        assert ex.parse("S(2^2; x)") == ex.SType(4.0, ex.Var())
        assert ex.parse("C(-1/2 + 1/4; x)") == ex.CType(-0.25, ex.Var())

    def test_stype_evaluates_by_parameter_sign(self):
        assert ex.eval_scalar(ex.parse("S(-1; x)"), 0.5) == pytest.approx(math.sin(0.5))
        assert ex.eval_scalar(ex.parse("S(0; x)"), 0.5) == 0.5
        assert ex.eval_scalar(ex.parse("S(4; x)"), 0.5) == pytest.approx(math.sinh(1.0))
        assert ex.eval_scalar(ex.parse("C(-1; x)"), 0.5) == pytest.approx(math.cos(0.5))
        assert ex.eval_scalar(ex.parse("C(0; x)"), 0.5) == 1.0
        assert ex.eval_scalar(ex.parse("C(4; x)"), 0.5) == pytest.approx(math.cosh(1.0))

    @pytest.mark.parametrize(
        "text",
        [
            "", "x +", "(x", "2 **", "sin()", "foo(x)", "x^y", "x ^ (1/0)", "S(1)", "1 2",
            "S(; x)", "S(1e400; x)",
        ],
    )
    def test_errors_carry_position(self, text):
        with pytest.raises(ParseError) as info:
            ex.parse(text)
        assert info.value.position is not None

    def test_unknown_identifier_lists_alternatives(self):
        with pytest.raises(ParseError) as info:
            ex.parse("tan(x)")
        assert "tan" in str(info.value)


class TestPrinting:
    def test_canonical_forms(self):
        cases = [
            "x + 1",
            "x * (x + 1)",
            "sin(x) / cos(x)",
            "x^(2/3)",
            "-(x + 2)",
            "S(-1; x)",
            "C(0.25; 2 * x)",
        ]
        for text in cases:
            e = ex.parse(text)
            assert ex.parse(ex.to_string(e)) == e

    def test_roundtrip_random(self, rng):
        for _ in range(1000):
            e = random_expr(rng, depth=4)
            text = ex.to_string(e)
            assert ex.parse(text) == e, text


class TestEvaluation:
    def test_scalar_matches_math(self):
        e = ex.parse("exp(x) * sin(x) + x^3 / cosh(x)")
        for x in (-1.2, 0.0, 0.7, 2.5):
            want = math.exp(x) * math.sin(x) + x**3 / math.cosh(x)
            assert ex.eval_scalar(e, x) == pytest.approx(want, rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainViolation):
            ex.eval_scalar(ex.parse("log(x)"), -1.0)
        with pytest.raises(DomainViolation):
            ex.eval_scalar(ex.parse("1 / x"), 0.0)
        with pytest.raises(DomainViolation):
            ex.eval_scalar(ex.parse("x^(1/2)"), -4.0)

    @pytest.mark.parametrize(
        "text, x",
        [
            ("sinh(x)", 1000.0),
            ("cosh(x)", -1000.0),
            ("exp(x)", 1000.0),
            ("x^3", 1e200),
            ("x^(5/2)", 1e200),
            ("S(4; x)", 1000.0),
            ("C(4; x)", 1000.0),
        ],
    )
    def test_scalar_overflow_is_domain_violation(self, text, x):
        e = ex.parse(text)
        with pytest.raises(DomainViolation, match=re.escape(f"overflow at {x!r}")) as scalar:
            ex.compile_scalar(e)(x)
        # the array route raises the same text; the jet route maps every
        # overflow of a call to DomainViolation, while an integer power is
        # jet arithmetic and overflows to inf (NonSmooth in validate_pair)
        with pytest.raises(DomainViolation) as array:
            ex.compile_array(e)(np.array([0.5, x, 0.25]))
        assert str(array.value) == str(scalar.value)
        if text == "x^3":
            assert ex.eval_jet(e, x, 2).value == math.inf
        else:
            with pytest.raises(DomainViolation, match="overflow"):
                ex.eval_jet(e, x, 2)

    def test_jet_matches_scalar_value(self, rng):
        for _ in range(200):
            e = random_expr(rng, depth=3)
            x = rng.uniform(0.2, 0.8)
            try:
                v = ex.eval_scalar(e, x)
                j = ex.eval_jet(e, x, 4)
            except (DomainViolation, OverflowError, ValueError):
                continue
            if math.isfinite(v) and j.is_finite():
                assert j.value == pytest.approx(v, rel=1e-12, abs=1e-12)

    def test_jet_derivatives_match_finite_differences(self):
        e = ex.parse("exp(x / 2) * cos(x) + x^2")
        x = 0.6
        j = ex.eval_jet(e, x, 4)
        f = ex.compile_scalar(e)
        for k in range(1, 4):
            est = fd_derivative(f, x, k, h=0.03)
            assert est == pytest.approx(j.derivative_value(k), rel=1e-6, abs=1e-8)

    # one expression per node type, S and C with each sign of the parameter
    ARRAY_CASES = [
        "2.5", "x", "-(x * x)", "x + 1", "x - 3", "x * x", "x / (x + 2)",
        "x^3", "(x + 2)^(-2)", "(x + 2)^(3/2)", "exp(x)", "log(x + 2)",
        "sin(x)", "cos(x)", "sinh(x)", "cosh(x)", "sqrt(x + 2)",
        "S(-2; x)", "S(0; x)", "S(1.5; x)", "C(-2; x)", "C(0; x)", "C(1.5; x)",
    ]

    @pytest.mark.parametrize("text", ARRAY_CASES)
    def test_compile_array_matches_scalar(self, text):
        e = ex.parse(text)
        xs = np.linspace(-1.3, 1.7, 13).reshape(13, 1) + np.array([0.0, 0.011])
        got = ex.compile_array(e)(xs)
        assert got.shape == xs.shape
        want = np.vectorize(ex.compile_scalar(e))(xs)
        np.testing.assert_allclose(got, want, rtol=4e-16 * 8, atol=0.0)

    @pytest.mark.parametrize(
        "text", ["log(x)", "1 / x", "x^(1/2)", "sqrt(x)", "x^(-2)", "exp(900 * x)"]
    )
    def test_compile_array_domain_error_names_first_bad_point(self, text):
        e = ex.parse(text)
        xs = [1.5, 0.7, 0.0, -0.3, -2.0]
        first = None
        for x in xs:
            try:
                ex.compile_scalar(e)(x)
            except DomainViolation as exc:
                first = str(exc)
                break
        assert first is not None
        with pytest.raises(DomainViolation) as info:
            ex.compile_array(e)(np.array(xs))
        assert str(info.value) == first

    def test_compile_scalar_cached(self):
        e = ex.parse("sin(x) + x")
        assert ex.compile_scalar(e) is ex.compile_scalar(ex.parse("sin(x) + x"))


class TestDerivativeTree:
    def test_exact_derivative_matches_fd(self, rng):
        cases = ["sin(2 * x)", "exp(x) / (1 + x^2)", "log(x + 3)", "S(-1; x) * C(-1; x)", "sqrt(x + 2)", "C(4; x / 2)"]
        for text in cases:
            e = ex.parse(text)
            d = ex._derivative(e)
            df = ex.compile_scalar(d)
            f = ex.compile_scalar(e)
            for _ in range(5):
                x = rng.uniform(-0.5, 0.5)
                assert df(x) == pytest.approx(fd_derivative(f, x, 1, h=0.02), rel=1e-8, abs=1e-8)


class TestValidatePair:
    def test_sin_cos_pair(self):
        pair = ex.validate_pair("sin(x)", "cos(x)", (-0.5, 0.5))
        assert pair.validated_order == 6
        assert pair.w_sign == 1
        assert pair.contains(0.0)
        assert not pair.contains(0.5)

    def test_g_must_be_positive(self):
        with pytest.raises(NotPositive) as info:
            ex.validate_pair("x", "x - 10", (0.0, 1.0))
        assert info.value.point is not None

    def test_wronskian_must_not_vanish(self):
        # f and g proportional: Wronskian identically zero
        with pytest.raises(WronskianVanishes):
            ex.validate_pair("2 * exp(x)", "exp(x)", (0.0, 1.0))

    def test_wronskian_sign_change_rejected(self):
        # W(x^3, 1) = 3x^2 > 0 except at 0; magnitude dips below threshold
        with pytest.raises(WronskianVanishes):
            ex.validate_pair("x^3", "1", (-1.0, 1.0))

    def test_sign_change_names_both_nodes(self):
        # W changes sign between two grid nodes without dipping below the
        # threshold at either of them
        nodes = ex.interior_grid((-0.7, 0.7), ex.DEFAULT_GRID_SIZE)
        with pytest.raises(WronskianVanishes) as info:
            ex.validate_pair("sin(x)+x^2", "cos(x)+2", (-0.7, 0.7))
        message = str(info.value)
        k = nodes.index(info.value.point)
        assert "changes sign" in message
        assert repr(nodes[k - 1]) in message and repr(nodes[k]) in message
        assert info.value.value > 0.0 and "(value -0.012" in message

    def test_domain_failure_reports_point(self):
        with pytest.raises(NonSmooth) as info:
            ex.validate_pair("log(x)", "1", (-1.0, 1.0))
        assert info.value.point < 0.0 or info.value.point > 0.0

    def test_string_and_ast_inputs_agree(self):
        p1 = ex.validate_pair("log(x)", "1", (1.0, 2.0))
        p2 = ex.validate_pair(ex.parse("log(x)"), ex.parse("1"), (1.0, 2.0))
        assert p1.f == p2.f and p1.g == p2.g

    def test_negative_wronskian_sign(self):
        # W(1, x) = 0*x - 1*1 = -1
        pair = ex.validate_pair("1", "x", (0.5, 2.0))
        assert pair.w_sign == -1

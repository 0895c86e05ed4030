"""Parser, printer, evaluators, and admissibility certification."""

from __future__ import annotations

import math
import random
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanlab import expr as ex
from meanlab import jets
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

    @pytest.mark.parametrize("text, message, position", [
        ("x $ 1", "unexpected character '$'", 2),
        ("x^(2^(1/2))", "non-integer power inside constant exponent", 3),
        ("x + 1e400", "constant '1e400' overflows to infinity", 4),
    ])
    def test_error_messages(self, text, message, position):
        with pytest.raises(ParseError, match=f"^{re.escape(message)} at position {position}$"):
            ex.parse(text)

    def test_constant_grammar_folds_difference_and_product(self):
        assert ex.parse("S(2-3; x)") == ex.SType(-1.0, ex.Var())
        assert ex.parse("S(2*3; x)") == ex.SType(6.0, ex.Var())

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

    def test_non_finite_constant_is_not_printed(self):
        with pytest.raises(ValueError, match="^cannot print non-finite constant inf$"):
            ex.to_string(ex.Const(math.inf))


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
        # the array and jet routes raise the same text: a jet's constant term
        # is the float route's value, an integer power's too
        with pytest.raises(DomainViolation) as array:
            ex.compile_array(e)(np.array([0.5, x, 0.25]))
        assert str(array.value) == str(scalar.value)
        with pytest.raises(DomainViolation) as jet:
            ex.eval_jet(e, x, 2)
        assert str(jet.value) == str(scalar.value)

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

    def test_signed_zero_constant_folds_to_one_zero(self):
        # -0.0 == 0.0 with equal hashes: if Const kept the sign, the caches
        # keyed on trees would return whichever zero was compiled first
        assert math.copysign(1.0, ex.Const(-0.0).value) == 1.0
        assert ex.to_string(ex.parse("-0")) == "0"
        signs = []
        for first, second in (("-0", "0"), ("0", "-0")):
            ex.compile_scalar.cache_clear()
            ex.compile_array.cache_clear()
            for text in (first, second):
                e = ex.parse(text)
                signs.append(math.copysign(1.0, ex.compile_scalar(e)(1.0)))
                signs.append(math.copysign(1.0, ex.compile_array(e)(np.ones(2))[0]))
        assert signs == [1.0] * 8


# ------------------------------------------------ emitted kernels, differentially

def _ref_reject(bad, x, message: str, arrays: bool) -> None:
    if arrays:
        if bad.any():
            i = int(np.argmax(bad))
            exc = DomainViolation(f"{message} at {float(np.asarray(x, dtype=float).flat[i])!r}")
            exc.index = i
            raise exc
    elif bad:
        raise DomainViolation(f"{message} at {x!r}")


def _ref_call(fn, v, x, name: str, overflows: bool, arrays: bool):
    if name in ("sin", "cos"):  # infinite-valued: math raises ValueError at an infinity
        if arrays:
            _ref_reject(np.isinf(v), x, f"{name} of infinite value", arrays)
        elif math.isinf(v):
            raise DomainViolation(f"{name} of infinite value at {x!r}")
    if not overflows:
        return fn(v)
    if arrays:
        with np.errstate(over="ignore"):
            out = fn(v)
        _ref_reject(np.isinf(out) & np.isfinite(v), x, f"{name} overflow", arrays)
        return out
    try:
        return fn(v)
    except OverflowError:
        raise DomainViolation(f"{name} overflow at {x!r}") from None


_REF_DOMAINS = {"log": (lambda v: v <= 0.0, "log of non-positive value"),
                "sqrt": (lambda v: v < 0.0, "sqrt of negative value")}


def _reference(e: ex.Expr, x, arrays: bool):
    """A tree walk with the checks of both compile routes, in their order:
    the denominator before the numerator, the argument of a call before
    the call, and C(0; u) without u."""
    lib = np if arrays else math
    if isinstance(e, ex.Const):
        return np.full(np.shape(x), e.value) if arrays else e.value
    if isinstance(e, ex.Var):
        return np.asarray(x, dtype=float) if arrays else x
    if isinstance(e, ex.Neg):
        return -_reference(e.operand, x, arrays)
    if isinstance(e, ex.BinOp):
        if e.op == "/":
            d = _reference(e.right, x, arrays)
            _ref_reject(d == 0.0, x, "division by zero", arrays)
            return _reference(e.left, x, arrays) / d
        left, right = _reference(e.left, x, arrays), _reference(e.right, x, arrays)
        return left + right if e.op == "+" else left - right if e.op == "-" else left * right
    if isinstance(e, ex.Pow):
        b, q = _reference(e.base, x, arrays), e.exponent
        if q.denominator != 1:
            _ref_reject(b <= 0.0, x, "non-integer power of non-positive base", arrays)
            k = float(q)
        else:
            if q < 0:
                _ref_reject(b == 0.0, x, "zero base with negative power", arrays)
            k = q.numerator
        return _ref_call(lambda v: v**k, b, x, "power", True, arrays)
    if isinstance(e, ex.Call):
        a = _reference(e.arg, x, arrays)
        if e.func in _REF_DOMAINS:
            bad, message = _REF_DOMAINS[e.func]
            _ref_reject(bad(a), x, message, arrays)
        return _ref_call(getattr(lib, e.func), a, x, e.func, e.func in ("exp", "sinh", "cosh"), arrays)
    if e.t == 0.0:
        return _reference(e.arg if isinstance(e, ex.SType) else ex.Const(1.0), x, arrays)
    names = ("sin", "cos") if e.t < 0.0 else ("sinh", "cosh")
    name = names[0] if isinstance(e, ex.SType) else names[1]
    a = math.sqrt(abs(e.t)) * _reference(e.arg, x, arrays)
    return _ref_call(getattr(lib, name), a, x, name, e.t > 0.0, arrays)


def _array_reference(e: ex.Expr, xs):
    """The array walk, failing at the first failing point in C order."""
    return jets.first_failure(lambda p: _reference(e, p, True), xs)


def _outcome(fn, x):
    """The bits of fn(x), or the class and text of what it raised."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            v = fn(x)
    except Exception as exc:  # every failure is compared, not only DomainViolation
        return type(exc), str(exc)
    return type(v), np.shape(v), np.asarray(v, dtype=float).tobytes()


_trees = st.recursive(
    st.one_of(
        st.just(ex.Var()),
        st.sampled_from([0.0, 1.0, -1.0, 2.0, 0.5, -3.0, 1e-3, 700.0]).map(ex.Const),
    ),
    lambda sub: st.one_of(
        st.builds(ex.BinOp, st.sampled_from("+-*/"), sub, sub),
        st.builds(ex.Neg, sub),
        st.builds(ex.Pow, sub, st.sampled_from(
            [Fraction(0), Fraction(2), Fraction(3), Fraction(-1), Fraction(-2),
             Fraction(1, 2), Fraction(2, 3), Fraction(-5, 4)])),
        st.builds(ex.Call, st.sampled_from(ex._CALLS), sub),
        st.builds(ex.SType, st.sampled_from([-2.0, -0.5, 0.0, 0.25, 4.0]), sub),
        st.builds(ex.CType, st.sampled_from([-2.0, -0.5, 0.0, 0.25, 4.0]), sub),
    ),
    max_leaves=10,
)
_POINTS = [-2.0, -0.5, 0.0, 0.3, 1.0, 2.5, 1e3, 1e155]


class TestEmittedKernels:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_trees)
    def test_both_routes_match_a_tree_walk(self, e):
        scalar, array = ex.compile_scalar(e), ex.compile_array(e)
        for x in _POINTS:
            assert _outcome(scalar, x) == _outcome(lambda p: _reference(e, p, False), x), x
        for xs in (np.array(_POINTS), np.array(_POINTS[2:5]).reshape(3, 1), np.array(0.3)):
            assert _outcome(array, xs) == _outcome(lambda p: _array_reference(e, p), xs), xs

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_constants_compile(self, value):
        # the parser rejects them, but a hand-built tree still compiles: the
        # value is an argument of the kernel, never printed into its source
        e = ex.BinOp("*", ex.Const(value), ex.Var())
        want = _outcome(lambda p: _reference(e, p, False), 2.0)
        assert _outcome(ex.compile_scalar(e), 2.0) == want
        got = ex.compile_array(e)(np.array([2.0, 3.0]))
        assert np.asarray([value * 2.0, value * 3.0]).tobytes() == got.tobytes()
        kernel = ex.compile_scalar(e)
        assert repr(value) not in map(repr, kernel.__code__.co_consts)
        assert repr(kernel.__closure__[0].cell_contents) == repr(value)

    def test_cosine_type_at_zero_skips_its_argument(self):
        e = ex.parse("C(0; log(x))")
        assert ex.compile_scalar(e)(-1.0) == 1.0
        assert ex.compile_array(e)(np.array([-1.0, 2.0])).tolist() == [1.0, 1.0]

    def test_denominator_is_checked_before_numerator(self):
        e = ex.parse("log(x) / (x - x)")
        with pytest.raises(DomainViolation, match=r"^division by zero at -1\.0$"):
            ex.compile_scalar(e)(-1.0)
        with pytest.raises(DomainViolation, match=r"^division by zero at -1\.0$"):
            ex.compile_array(e)(np.array([-1.0, 2.0]))

    def test_overflow_names_the_point(self):
        e = ex.parse("exp(1000 * x)")
        with pytest.raises(DomainViolation, match=r"^exp overflow at 1\.0$"):
            ex.compile_scalar(e)(1.0)
        with pytest.raises(DomainViolation, match=r"^exp overflow at 1\.0$"):
            ex.compile_array(e)(np.array([0.0, 1.0, 2.0]))

    def test_one_code_object_per_shape(self):
        a = ex.compile_scalar(ex.parse("sin(0.5*x+0.1)"))
        b = ex.compile_scalar(ex.parse("sin(0.7*x+0.2)"))
        assert a is not b and a.__code__ is b.__code__
        # the constants are the kernel's only free values, bound per tree
        assert [c.cell_contents for c in b.__closure__] == [0.7, 0.2]
        assert a(0.3) == math.sin(0.5 * 0.3 + 0.1) and b(0.3) == math.sin(0.7 * 0.3 + 0.2)
        c = ex.compile_array(ex.parse("sin(0.5*x+0.1)"))
        assert c.__code__ is ex.compile_array(ex.parse("sin(0.7*x+0.2)")).__code__
        assert c.__code__ is not a.__code__

    # a subtree equal to one computed before at the point is read back, not
    # computed again; C(0; u) computes nothing, so its u is not read back
    @pytest.mark.parametrize("text, shared", [
        ("log(x) / (log(x) - log(x))", True),
        ("sin(x + 1) * cos(x + 1) + sin(x + 1)", True),
        ("C(0; log(x)) * log(x)", False),
    ])
    def test_repeated_subtrees(self, text, shared):
        e = ex.parse(text)
        _, shape = ex._value_shape(e, [], {})
        assert ("'ref'" in repr(shape)) is shared
        scalar, array = ex.compile_scalar(e), ex.compile_array(e)
        for x in _POINTS + [-1.0]:
            assert _outcome(scalar, x) == _outcome(lambda p: _reference(e, p, False), x), x
        xs = np.array(_POINTS + [-1.0])
        assert _outcome(array, xs) == _outcome(lambda p: _array_reference(e, p), xs)

    def test_factory_cache_is_bounded(self):
        info = ex._factory.cache_info()
        assert info.maxsize == ex.KERNEL_SHAPE_CACHE_SIZE
        assert info.currsize <= ex.KERNEL_SHAPE_CACHE_SIZE
        # distinct shapes: a chain of k additions of x
        tree = ex.Var()
        for _ in range(ex.KERNEL_SHAPE_CACHE_SIZE + 3):
            tree = ex.BinOp("+", tree, ex.Var())
            ex._kernel(tree, arrays=False)
        assert ex._factory.cache_info().currsize == ex.KERNEL_SHAPE_CACHE_SIZE


class TestInfiniteArguments:
    """sin and cos of an infinity: one DomainViolation text on every route."""

    # sin(x * inf) and cos(C(-4; x * inf)) are infinite-valued at every x > 0
    TREES = {
        "sin": ex.Call("sin", ex.BinOp("*", ex.Var(), ex.Const(math.inf))),
        "cos": ex.CType(-4.0, ex.BinOp("*", ex.Var(), ex.Const(math.inf))),
    }

    @pytest.mark.parametrize("name", TREES)
    def test_value_routes(self, name):
        e = self.TREES[name]
        with pytest.raises(DomainViolation, match=f"^{name} of infinite value at 1.0$"):
            ex.compile_scalar(e)(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainViolation, match=f"^{name} of infinite value at 1.5$"):
                ex.compile_array(e)(np.array([1.5, 2.0]))

    @pytest.mark.parametrize("name", TREES)
    def test_jet_route(self, name):
        e = self.TREES[name]
        with pytest.raises(DomainViolation, match=f"^{name} of infinite value at 1.0$"):
            ex.eval_jet(e, 1.0, 3)
        with pytest.raises(DomainViolation) as info:
            ex.eval_jet(e, np.array([1.5, 2.0]), 3)
        assert (str(info.value), info.value.index) == (f"{name} of infinite value at 1.5", 0)

    def test_validate_pair_reports_non_smooth(self):
        with pytest.raises(NonSmooth, match="sin of infinite value"):
            ex.validate_pair(self.TREES["sin"], ex.Const(1.0), (0.5, 1.5))


class TestOneFailureProtocol:
    """One text per failure on every route, at the first failing point."""

    @pytest.mark.parametrize("f, detail", [
        ("1/x", "division by zero"), ("x^(-1)", "zero base with negative power"),
    ])
    def test_a_zero_divisor_is_non_smooth_at_its_point(self, f, detail):
        with pytest.raises(NonSmooth) as info:
            ex.validate_pair(f, "1", (-1.0, 1.0))
        assert info.value.point == 0.0
        assert str(info.value).endswith(f"order at 0.0: {detail} at 0.0")

    @pytest.mark.parametrize("text, xs, message", [
        # sqrt fails at -1.0 and log at 3.0: the log's failure comes first
        ("sqrt(x) + log(2 - x)", [3.0, -1.0], "log of non-positive value at 3.0"),
        # x^2 overflows at 1e155, after the zero base at 0.0
        ("(x^2)^(-1)", [0.0, 1e155], "zero base with negative power at 0.0"),
    ])
    def test_every_route_names_the_first_failing_point(self, text, xs, message):
        e = ex.parse(text)
        scalar = ex.compile_scalar(e)
        for run in (
            lambda p: [scalar(x) for x in p.tolist()],
            ex.compile_array(e),
            lambda p: ex.eval_jet(e, p, 2),
        ):
            with pytest.raises(DomainViolation) as info:
                run(np.array(xs))
            assert (str(info.value), info.value.index) == (message, 0)

    def test_an_integer_power_that_overflows_fails_alike_on_every_route(self):
        # 1e-200^2 underflows to 0, so 1e-200^(-2) overflows: no route divides by zero
        e = ex.parse("x^(-2)")
        for run in (ex.compile_scalar(e), ex.compile_array(e), lambda x: ex.eval_jet(e, x, 2)):
            with pytest.raises(DomainViolation, match="^power overflow at 1e-200$"):
                run(1e-200)
        with pytest.raises(NonSmooth) as info:
            ex.validate_pair("x^(-2)", "1", (1e-201, 1e-199))
        assert str(info.value).endswith(f": power overflow at {info.value.point!r}")

    def test_a_constant_failure_on_no_points_is_a_domain_violation(self):
        # the jet kernel checks a constant once, whatever the points
        with pytest.raises(DomainViolation, match="^log of non-positive value$"):
            ex.eval_jet(ex.parse("log(0 - 1) + x"), np.array([]), 2)


def _value(run) -> tuple:
    """The bits of run()'s float (any nan as one), or its DomainViolation text."""
    try:
        v = run()
    except DomainViolation as exc:
        return ("error", str(exc))
    return ("value", "nan" if math.isnan(v) else v.hex())


def test_a_jets_constant_term_is_the_float_routes_value():
    # bit for bit, with the sign of a zero, or the same failure; only the jet
    # of order >= 1 fails where sqrt meets 0, as no derivative is finite there
    rng = random.Random(20240817)
    for _ in range(300):
        e = random_expr(rng, depth=3)
        scalar = ex.compile_scalar(e)
        for x in (rng.uniform(-3.0, 3.0), rng.uniform(0.1, 5.0), 0.0, 1e155):
            want = _value(lambda: scalar(x))
            for order in (0, 3):
                got = _value(lambda: ex.eval_jet(e, x, order).coeffs[0])
                if order and got == ("error", f"sqrt of zero value at {x!r}"):
                    continue
                assert got == want, (ex.to_string(e), x, order)


class TestInteriorGrid:
    @pytest.mark.parametrize(
        "interval",
        [(-0.7, 0.7), (0.5, 2.0), (-3.0, -1e-3), (1.0, 1.0 + 1e-12), (-1e-300, 1e-300),
         (354.0, 355.0), (-1e6, 3.0)],
    )
    @pytest.mark.parametrize("size", [3, 9, ex.DEFAULT_GRID_SIZE])
    def test_bits_of_the_float_formula(self, interval, size):
        lo, hi = interval
        step = (hi - lo) / (size + 1)
        want = [lo + step * (i + 1) for i in range(size)]
        got = ex.interior_grid(interval, size)
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert ex._interior_points(interval, size).tobytes() == np.array(want).tobytes()


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

    def test_negation_and_flat_cosine_type(self):
        sin = ex.Call("sin", ex.Var())
        assert ex._derivative(ex.Neg(sin)) == ex.Neg(ex._derivative(sin))
        # C(0; u) is the constant 1
        assert ex._derivative(ex.parse("C(0; x^2)")) == ex.Const(0.0)


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


class TestValidatePairMemo:
    """Admissibility is a per-process fact: one pair per inputs, no cached failure."""

    def test_same_inputs_give_the_same_pair(self):
        interval = (-0.6, 0.6)
        pair = ex.validate_pair("sin(x)", "cos(x)", interval)
        assert ex.validate_pair("sin(x)", "cos(x)", interval) is pair
        assert ex.validate_pair("sin(x)", "cos(x)", list(interval)) is pair
        assert ex.validate_pair("sin(x)", "cos(x)", np.array(interval)) is pair
        assert ex.validate_pair(ex.parse("sin(x)"), ex.parse("cos(x)"), interval) is pair
        built = ex.Call("sin", ex.Var()), ex.Call("cos", ex.Var())
        assert ex.validate_pair(*built, [-0.6, 0.6]) is pair
        assert ex.parse("sin(x)") is pair.f
        assert pair.f_at is ex.validate_pair("sin(x)", "cos(x)", interval).f_at

    def test_options_give_different_pairs(self):
        base = ex.validate_pair("x", "1", (0.5, 2.0))
        others = [
            ex.validate_pair("x", "1", (0.5, 2.0), n=4),
            ex.validate_pair("x", "1", (0.5, 2.5)),
        ]
        assert len({id(p) for p in [base] + others}) == 3
        assert others[0].validated_order == 4 and base.validated_order == 6
        assert others[1].interval == (0.5, 2.5)

    def test_signed_zero_end_is_one_key(self):
        pair = ex.validate_pair("x", "1", (-0.0, 1.0))
        assert math.copysign(1.0, pair.interval[0]) == 1.0
        assert ex.validate_pair("x", "1", (0.0, 1.0)) is pair

    @pytest.mark.parametrize(
        "args, error",
        [
            (("x", "x - 10", (0.0, 1.0)), NotPositive),
            (("2 * exp(x)", "exp(x)", (0.0, 1.0)), WronskianVanishes),
            (("x +", "1", (0.0, 1.0)), ParseError),
            (("x", "1", (1.0, 1.0)), ValueError),
        ],
        ids=["g_not_positive", "w_zero", "bad_text", "empty_interval"],
    )
    def test_failures_are_raised_on_every_call(self, args, error):
        memo = ex.parse if error is ParseError else ex._validated_pair
        seen = []
        for _ in range(2):
            misses = memo.cache_info().misses
            with pytest.raises(error) as info:
                ex.validate_pair(*args)
            seen.append((type(info.value), str(info.value)))
        assert seen[0] == seen[1]
        # the second call missed the memo again: a failure is never stored
        assert memo.cache_info().misses == misses + 1

    def test_cached_pair_skips_the_checks(self, monkeypatch):
        pair = ex.validate_pair("x^2 + 1", "exp(x)", (0.1, 0.9))

        def no_jets(*args, **kwargs):
            raise AssertionError("pair_jets called")

        monkeypatch.setattr(ex, "pair_jets", no_jets)
        assert ex.validate_pair("x^2 + 1", "exp(x)", (0.1, 0.9)) is pair
        with pytest.raises(AssertionError, match="pair_jets called"):
            ex.validate_pair("x^2 + 1", "exp(x)", (0.1, 0.8))

    def test_caches_are_bounded(self):
        assert ex.parse.cache_info().maxsize == ex.PARSE_CACHE_SIZE
        assert ex._validated_pair.cache_info().maxsize == ex.PAIR_CACHE_SIZE
        assert 0 < ex.PAIR_CACHE_SIZE <= ex.PARSE_CACHE_SIZE <= 1024

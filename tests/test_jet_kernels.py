"""Emitted jet kernels against the loop forms of the Taylor rules.

The loop forms below are the rules as jets.py stated them before they became
printed templates, with the constant terms of integer powers and sqrt taken
from ** and math.sqrt, as the float route takes them, and _ref_jet is a
recursive tree walk in the order of the value kernels; both stay here as the
reference. rule prints one template alone,
unfolded, at one order, as the Phi/Psi and recursion kernels run them. The
eval_jet kernels fold the known zeros and ones of constant and identity
jets, so two differences are allowed there:

- an exactly zero coefficient may carry the other sign of zero, since a
  folded sum drops a +-0 term;
- a nan may carry another sign or payload. CPython 3.11 specializes float
  + and * once a code object is warm, and when both operands are nan the
  specialized and the generic operation keep different ones, so even the
  loop forms give no fixed nan bits.

Every other coefficient keeps its bits, and every failure its class, text
and index.
"""

from __future__ import annotations

import functools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanlab import MeanSpec, mean_eval, preset_measure
from meanlab import calculus as ca
from meanlab import expr as ex
from meanlab import jets
from meanlab.errors import DomainViolation, WronskianVanishes

from conftest import PAIR_FAMILIES, random_admissible_pair

# ------------------------------------------------------------ loop forms


def _dot(a, b, k, n):
    if n < 1:
        return 0.0
    acc = a[1] * b[k - 1]
    for j in range(2, n + 1):
        acc = acc + a[j] * b[k - j]
    return acc


def _mul(ac, bc):
    out = [ac[0] * bc[0]]
    for k in range(1, len(ac)):
        acc = ac[0] * bc[k] + ac[k] * bc[0]
        for j in range(1, (k + 1) // 2):
            acc = acc + (ac[j] * bc[k - j] + ac[k - j] * bc[j])
        if k % 2 == 0:
            acc = acc + ac[k // 2] * bc[k // 2]
        out.append(acc)
    return out


def _reject(bad, x, message):
    """A template's check: the violation at the first point of x where bad holds."""
    if np.any(bad):
        raise jets.violation(message, x, bad)


def _div(ac, bc, x, check=True):
    if check:
        _reject(bc[0] == 0.0, x, "division by zero")
    out = []
    for k in range(len(ac)):
        out.append((ac[k] - _dot(bc, out, k, k)) / bc[0])
    return out


def _exp(u, x):
    ju = [j * c for j, c in enumerate(u)]
    w = [jets._libm(math.exp, u[0], x, "exp")]
    for k in range(1, len(u)):
        w.append(_dot(ju, w, k, k) / k)
    return w


def _log(u, x):
    u0 = u[0]
    _reject(u0 <= 0.0, x, "log of non-positive value")
    w = [jets._libm(math.log, u0, x, "log")]
    jw = [0.0]
    for k in range(1, len(u)):
        w.append((u[k] - _dot(jw, u, k, k - 1) / k) / u0)
        jw.append(k * w[k])
    return w


def _sincos(u, x, hyperbolic, name):
    ju = [j * c for j, c in enumerate(u)]
    sine, cosine, sign = (math.sinh, math.cosh, 1.0) if hyperbolic else (math.sin, math.cos, -1.0)
    s, c = [jets._libm(sine, u[0], x, name)], [jets._libm(cosine, u[0], x, name)]
    for k in range(1, len(u)):
        s.append(_dot(ju, c, k, k) / k)
        c.append(sign * _dot(ju, s, k, k) / k)
    return s, c


def _ipow(a, n, x):
    # the constant term is a[0] ** n; the others come from binary powering
    if n < 0:
        _reject(a[0] == 0.0, x, "zero base with negative power")
    w0 = jets._libm(lambda v: v**n, a[0], x, "power")
    if n == 0:
        return [w0] + [0.0] * (len(a) - 1)
    acc, base, m = None, a, abs(n)
    while m:
        if m & 1:
            acc = base if acc is None else _mul(acc, base)
        m >>= 1
        if m:
            base = _mul(base, base)
    if n < 0:
        acc = _div([1.0] + [0.0] * (len(a) - 1), acc, x, check=False)
    return [w0, *acc[1:]]


def _pow(u, exponent, x, w0=None):
    if isinstance(exponent, Fraction) and exponent.denominator == 1:
        return _ipow(u, exponent.numerator, x)
    e = float(exponent)
    u0 = u[0]
    if w0 is None:
        _reject(u0 <= 0.0, x, "non-integer power of non-positive base")
        w0 = jets._libm(lambda v: v**e, u0, x, "power")
    w = [w0]
    for k in range(1, len(u)):
        cu = [((e + 1.0) * j - k) * c for j, c in enumerate(u[: k + 1])]
        w.append(_dot(cu, w, k, k) / (k * u0))
    return w


def _sqrt(u, x):
    # the constant term is math.sqrt's; u = 0 fails only where a derivative is asked for
    _reject(u[0] < 0.0, x, "sqrt of negative value")
    if len(u) > 1:
        _reject(u[0] == 0.0, x, "sqrt of zero value")
    return _pow(u, 0.5, x, jets._libm(math.sqrt, u[0], x, "sqrt"))


_LOOP_RULES = {
    "exp": _exp, "log": _log, "sqrt": _sqrt,
    "sin": lambda u, x: _sincos(u, x, False, "sin")[0],
    "cos": lambda u, x: _sincos(u, x, False, "cos")[1],
    "sinh": lambda u, x: _sincos(u, x, True, "sinh")[0],
    "cosh": lambda u, x: _sincos(u, x, True, "cosh")[1],
}


@functools.lru_cache(maxsize=None)
def rule(template, order: int, arity: int, *params):
    """template printed alone at one order, without folding. The function takes
    the point x that its checks name, the str params (names of run-time
    arguments), then the coefficients of arity jets; the other params are
    fixed in the code."""
    em = jets.Emitter()
    ins = [[f"a{i}_{k}" for k in range(order + 1)] for i in range(arity)]
    args = ["x", *(p for p in params if isinstance(p, str))] + [a for row in ins for a in row]
    out = template(em, *ins, *params)
    source = f"def rule({', '.join(args)}):\n{em.body(out, '    ')}"
    name = getattr(template, "func", template).__name__  # a rule of _RULES may be a partial
    return jets.compile_source(source, jets.NAMES, f"jet rule {name}")["rule"]


def _ref_jet(e: ex.Expr, x, n: int) -> list:
    """The recursive jet walk: children, then the rule; left before right,
    except that a denominator and its check come before the numerator, and
    C(0; u) is 1 without u, as in the value kernels."""
    if isinstance(e, ex.Const):
        return [float(e.value)] + [0.0] * n
    if isinstance(e, ex.Var):
        return [x, 1.0, *[0.0] * n][: n + 1]
    if isinstance(e, ex.Neg):
        return [-c for c in _ref_jet(e.operand, x, n)]
    if isinstance(e, ex.BinOp):
        if e.op == "/":
            b = _ref_jet(e.right, x, n)
            _reject(b[0] == 0.0, x, "division by zero")
            return _div(_ref_jet(e.left, x, n), b, x)
        a, b = _ref_jet(e.left, x, n), _ref_jet(e.right, x, n)
        if e.op in "+-":
            return [p + q if e.op == "+" else p - q for p, q in zip(a, b)]
        return _mul(a, b)
    if isinstance(e, ex.Pow):
        return _pow(_ref_jet(e.base, x, n), e.exponent, x)
    if isinstance(e, ex.Call):
        return _LOOP_RULES[e.func](_ref_jet(e.arg, x, n), x)
    if e.t == 0.0 and isinstance(e, ex.CType):
        return [1.0] + [0.0] * n
    a = _ref_jet(e.arg, x, n)
    if e.t == 0.0:
        return a
    sine, cosine = ("sin", "cos") if e.t < 0.0 else ("sinh", "cosh")
    scaled = _mul([math.sqrt(abs(e.t))] + [0.0] * n, a)
    return _LOOP_RULES[sine if isinstance(e, ex.SType) else cosine](scaled, x)


def _reference(e: ex.Expr, x, n: int) -> tuple:
    """eval_jet's coefficients by the tree walk, on a float or an array."""
    if not isinstance(x, np.ndarray):
        return tuple(_ref_jet(e, float(x), n))
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = jets.first_failure(lambda p: _ref_jet(e, p, n), x)
    return tuple(c if isinstance(c, np.ndarray) else np.full(x.shape, c) for c in coeffs)


def _outcome(run):
    """The coefficients of run(), or the class, text and index of its failure."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            coeffs = run()
    except Exception as exc:  # every failure is compared, not only DomainViolation
        return ("error", type(exc), str(exc), getattr(exc, "index", None))
    return ("ok", tuple(coeffs))


def _assert_same(got, want):
    """Equal outcomes, up to the sign of zero and the bits of nan."""
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got == want
        return
    assert len(got[1]) == len(want[1])
    for k, (g, w) in enumerate(zip(got[1], want[1])):
        assert type(g) is type(w), k
        g, w = np.asarray(g, dtype=float), np.asarray(w, dtype=float)
        assert g.shape == w.shape, k
        same = (g.view(np.int64) == w.view(np.int64)) | (g == 0.0) & (w == 0.0)
        same |= np.isnan(g) & np.isnan(w)
        assert same.all(), (k, g, w)


def _assert_kernel_matches(e, x, n):
    _assert_same(_outcome(lambda: ex.eval_jet(e, x, n).coeffs), _outcome(lambda: _reference(e, x, n)))


# ----------------------------------------------------- the whole grammar

_CONSTS = [0.0, -1.0, 2.0, 0.5, 1e-3, 700.0, math.inf]
_trees = st.recursive(
    st.one_of(st.just(ex.Var()), st.sampled_from(_CONSTS).map(ex.Const)),
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
    max_leaves=8,
)
_POINTS = [-2.0, -0.5, 0.0, 0.3, 1.0, 2.5, 1e155]
_ARRAYS = (
    np.array(_POINTS),
    np.array([0.3, -0.5, 2.5, 1.0, 0.0, -2.0]).reshape(2, 3),
    np.array(0.3),
)


class TestAgainstLoopForms:
    @settings(derandomize=True, max_examples=250, deadline=None)
    @given(_trees, st.integers(0, jets.MAX_ORDER), st.sampled_from(_POINTS))
    def test_whole_grammar_on_floats_and_arrays(self, e, order, x):
        _assert_kernel_matches(e, x, order)
        for xs in _ARRAYS:
            _assert_kernel_matches(e, xs, order)

    @pytest.mark.parametrize("text", [
        "sin(0.734 * x + 0.1)", "cos(0.734 * x + 0.1)", "sinh(1.2 * x)", "cosh(1.2 * x)",
        "exp(0.8 * x)", "exp(-0.4 * x)", "x^(3/2)", "x^(-1/2)", "sqrt(x)", "log(x)", "x^2",
        "x + 0.3 * x * x", "1 / (x + 2)", "S(-2; x)", "C(1.5; 2 * x)", "C(0; log(x))",
        "exp(sin(x) / (1 + x^2)) * log(x + 1) - sqrt(cosh(x)) * S(-0.5; 2 * x)",
        "S(-2; x^2 + 0.5 * x) / C(-2; x^2 + 0.5 * x) - cosh(x) * sinh(x)",
    ])
    def test_pair_families_and_mixed_trees(self, text):
        e = ex.parse(text)
        xs = np.linspace(0.2, 1.7, 33)
        for order in (0, 1, 4, 6, 8):
            _assert_kernel_matches(e, 0.7, order)
            _assert_kernel_matches(e, xs, order)

    def test_guard_keeps_the_nan_a_folded_product_would_drop(self):
        # (-inf + x) * 2 has the jet (-inf, nan, nan, ...) by the rules, since
        # 0 * -inf is nan; folding the constant's zeros alone would give
        # (-inf, 2, 0, ...), and exp would turn that into zeros
        e = ex.Call("exp", ex.BinOp("*", ex.BinOp("+", ex.Const(-math.inf), ex.Var()), ex.Const(2.0)))
        j = ex.eval_jet(e, 0.5, 3)
        assert j.coeffs[0] == 0.0 and all(math.isnan(c) for c in j.coeffs[1:])
        _assert_kernel_matches(e, 0.5, 3)
        # the same where the infinity comes from a product that overflows, at
        # 1e155 (an integer power raises "power overflow" there)
        cube = ex.BinOp("*", ex.BinOp("*", ex.Var(), ex.Var()), ex.Var())
        e = ex.BinOp("*", cube, ex.Const(2.0))
        j = ex.eval_jet(e, 1e155, 3)
        assert j.coeffs[0] == math.inf and all(math.isnan(c) for c in j.coeffs[1:])
        _assert_kernel_matches(e, np.array([0.5, 1e155]), 3)

    def test_a_zero_may_change_sign(self):
        # the one allowed difference: coefficient 1 of sin(C(4; 2)) is -0.0
        # by the rules, 0.0 by the folded sum
        e = ex.Call("sin", ex.CType(4.0, ex.Const(2.0)))
        want = _reference(e, 0.5, 2)[1]
        got = ex.eval_jet(e, 0.5, 2).coeffs[1]
        assert got == want == 0.0
        _assert_kernel_matches(e, 0.5, 2)


# -------------------------------------------------------- hand-built cases

class TestKernelShapes:
    def test_trees_of_one_shape_share_one_code_object(self):
        a, b = ex.parse("sin(0.5*x+0.1)"), ex.parse("sin(0.7*x+0.2)")
        ex._jet_factory.cache_clear()
        assert ex.eval_jet(a, 0.3, 6).coeffs != ex.eval_jet(b, 0.3, 6).coeffs
        info = ex._jet_factory.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        # a float and an array run the same kernel
        xs = np.array([0.3, 0.4])
        assert ex.eval_jet(a, xs, 6).coeffs[3][0] == ex.eval_jet(a, 0.3, 6).coeffs[3]
        # so do pairs of one shape: g reads the argument it shares with f
        pa = ex.validate_pair("sin(0.5*x+0.1)", "cos(0.5*x+0.1)", (-1.0, 1.0))
        pb = ex.validate_pair("sin(0.7*x+0.2)", "cos(0.7*x+0.2)", (-1.0, 1.0))
        ex.pair_jets(pa, 0.3, 6), ex.pair_jets(pb, 0.3, 6), ex.pair_jets(pb, 0.3, 4)
        ka, kb = pa.jet_kernels[6], pb.jet_kernels[6]
        assert ka is not kb and ka.__code__ is kb.__code__
        assert [c.cell_contents for c in kb.__closure__] == [0.7, 0.2]
        assert pb.jet_kernels[4].__code__ is not kb.__code__

    def test_non_integer_powers_of_one_shape_fail_with_the_value_text(self):
        base = ex.BinOp("*", ex.Var(), ex.Const(-0.25))
        first, second = ex.Pow(base, Fraction(2, 3)), ex.Pow(base, Fraction(-5, 4))
        # one shape, so one kernel: the exponent is an argument
        assert ex._value_shape(first, [], {})[1] == ex._value_shape(second, [], {})[1]
        message = "non-integer power of non-positive base at 1.0"
        for e in (first, second):
            for run in (lambda: ex.compile_scalar(e)(1.0), lambda: ex.eval_jet(e, 1.0, 3)):
                with pytest.raises(DomainViolation) as info:
                    run()
                assert str(info.value) == message
            for run in (ex.compile_array(e), lambda p: ex.eval_jet(e, p, 3)):
                with pytest.raises(DomainViolation) as info:
                    run(np.array([-1.0, 1.0]))
                assert (str(info.value), info.value.index) == (message, 1)

    def test_cosine_type_at_zero_is_one_without_its_argument(self):
        # C(0; u) is the constant 1 on every route: u is not evaluated
        e = ex.parse("C(0; log(x))")
        xs = np.array([2.0, -1.0])
        assert ex.compile_scalar(e)(-1.0) == 1.0
        assert ex.compile_array(e)(xs).tolist() == [1.0, 1.0]
        assert ex.eval_jet(e, -1.0, 2).coeffs == (1.0, 0.0, 0.0)
        assert [c.tolist() for c in ex.eval_jet(e, xs, 2).coeffs] == [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]

    def test_overflow_before_a_domain_error_stays_first(self):
        # nothing of a known constant is evaluated when the kernel is printed
        e = ex.parse("log(-sinh(12345.678))")
        for run in (ex.compile_scalar(e), lambda x: ex.eval_jet(e, x, 2)):
            with pytest.raises(DomainViolation, match="^sinh overflow at 0.5$"):
                run(0.5)

    def test_memos_stay_at_their_bounds(self):
        # eval_jet holds nothing per tree; the factories are one bounded memo
        info = ex._jet_factory.cache_info()
        assert info.maxsize == ex.KERNEL_SHAPE_CACHE_SIZE
        tree = ex.Var()
        for _ in range(ex.KERNEL_SHAPE_CACHE_SIZE + 3):
            tree = ex.BinOp("+", tree, ex.Var())
            ex.eval_jet(tree, 0.5, 0)
        assert ex._jet_factory.cache_info().currsize == ex.KERNEL_SHAPE_CACHE_SIZE


class TestOneShapeWalk:
    """The jets walk the value shapes: a pair's jets come from one kernel per
    order, and every route evaluates a tree in one order."""

    @pytest.mark.parametrize("family", PAIR_FAMILIES)
    def test_pair_kernel_equals_eval_jet_of_each_tree(self, rng, family):
        for _ in range(3):
            pair = random_admissible_pair(rng, family)
            lo, hi = pair.interval
            xs = np.linspace(lo, hi, 11)[1:-1]
            for order in range(jets.MAX_ORDER + 1):
                for x in (float(xs[4]), xs, xs.reshape(3, 3)):
                    jf, jg = ex.pair_jets(pair, x, order)
                    for got, e in ((jf, pair.f), (jg, pair.g)):
                        want = ex.eval_jet(e, x, order)
                        assert _bits(got.coeffs) == _bits(want.coeffs)
                        assert _bits([got.base_point]) == _bits([want.base_point])

    @pytest.mark.parametrize("family", PAIR_FAMILIES)
    def test_order_0_pair_values_keep_the_bits_of_the_scalar_kernels(self, rng, family):
        # the equivalence fit and the prefactor check read a pair's values
        # from its order-0 jets, where they once looped compile_scalar
        for _ in range(3):
            pair = random_admissible_pair(rng, family)
            xs = np.asarray(ex.interior_grid(pair.interval, 101))
            for jet, e in zip(ex.pair_jets(pair, xs, 0), (pair.f, pair.g)):
                kernel = ex.compile_scalar(e)
                assert _bits([jet.value]) == _bits([[kernel(x) for x in xs.tolist()]])

    def test_pair_error_is_the_one_at_the_earliest_point(self):
        # g fails from x = 1 on and f from x = 2 on; at one point, f fails first
        pair = ex.FunctionPair(ex.parse("log(2 - x)"), ex.parse("sqrt(1 - x)"), (-3.0, 3.0), 6)
        xs = np.array([0.5, 2.5, 1.5]), np.array([0.5, 1.5, 2.5])
        for x, e, index in ((xs[0], pair.f, 1), (xs[1], pair.g, 1), (2.5, pair.f, 0)):
            got = _outcome(lambda: ex.pair_jets(pair, x, 3)[0].coeffs)
            want = _outcome(lambda: ex.eval_jet(e, x, 3).coeffs)
            assert got[0] == "error" and got == want and got[3] == index

    @pytest.mark.parametrize("text, value", [
        ("log(x) / log(x - 2)", "log of non-positive value"),
        ("sqrt(x) / log(x - 2)", "log of non-positive value"),
        ("log(x) / sqrt(x - 2)", "sqrt of negative value"),
    ])
    def test_a_denominator_fails_first_on_every_route(self, text, value):
        e = ex.parse(text)
        xs = np.array([4.0, -1.0])
        for run in (
            lambda: ex.compile_scalar(e)(-1.0),
            lambda: ex.compile_array(e)(xs),
            lambda: ex.eval_jet(e, -1.0, 2),
            lambda: ex.eval_jet(e, xs, 2),
        ):
            with pytest.raises(DomainViolation) as info:
                run()
            assert str(info.value) == f"{value} at -1.0"

    def test_a_fractional_exponent_with_no_float_raises_one_error(self):
        # the exponent's float is taken with the shape, before any point
        e = ex.parse("log(x)^(10^400/3)")
        with pytest.raises(OverflowError) as want:
            float(Fraction(10**400, 3))
        for x in (-0.5, 2.5, np.array([2.5, -0.5]), np.array([-0.5, 2.5])):
            with pytest.raises(OverflowError) as info:
                ex.eval_jet(e, x, 2)
            assert str(info.value) == str(want.value)
            assert getattr(info.value, "index", None) is None

    @pytest.mark.parametrize("f, g", [
        ("sin(0.734 * x + 0.1)", "cos(0.734 * x + 0.1)"),
        ("sinh(0.5 * x + 0.2)", "cosh(0.5 * x + 0.2)"),
        ("S(-2; x^2 + 0.5 * x)", "C(-2; x^2 + 0.5 * x)"),
        ("C(3; x)", "S(3; x)"),
    ])
    def test_one_sine_cosine_recurrence_per_argument(self, f, g, monkeypatch):
        sources, compile_source = [], jets.compile_source

        def printed(source, names, label):
            sources.append(source)
            return compile_source(source, names, label)

        monkeypatch.setattr(jets, "compile_source", printed)
        shapes, _ = ex._value_shapes(ex.parse(f), ex.parse(g))
        ex._jet_factory.__wrapped__(shapes, 6)
        # one call each for sine and cosine, and one for each power of the argument
        assert sources[0].count("_libm(") == 2 + f.count("^")

    @pytest.mark.parametrize("t", [-2.0, -0.5, 0.0, 0.25, 4.0])
    @pytest.mark.parametrize("u", ["x", "x^2 + 0.5 * x", "0.3 / (x + 2)"])
    def test_sine_cosine_type_pairs_keep_the_bits_of_each_tree(self, t, u):
        f, g = ex.parse(f"S({t}; {u})"), ex.parse(f"C({t}; {u}) + 2")
        pair = ex.FunctionPair(f, g, (-1.0, 1.0), 6)
        xs = np.linspace(-0.9, 0.9, 7)
        for order in (0, 1, 6):
            for x in (0.3, xs):
                jf, jg = ex.pair_jets(pair, x, order)
                for got, e in ((jf, f), (jg, g)):
                    assert _bits(got.coeffs) == _bits(ex.eval_jet(e, x, order).coeffs)

    def test_the_first_rule_of_a_family_names_its_error(self):
        # sin and cos share one recurrence on u, and f's cos comes first
        pair = ex.FunctionPair(ex.parse("cos(1e306 * x)"), ex.parse("sin(1e306 * x)"), (-1e3, 1e3), 6)
        for x, index in ((800.0, 0), (np.array([0.5, 800.0]), 1)):
            with pytest.raises(DomainViolation) as info:
                ex.pair_jets(pair, x, 6)
            assert (str(info.value), info.value.index) == ("cos of infinite value at 800.0", index)
        with pytest.raises(DomainViolation, match="^sin of infinite value at 800.0$"):
            ex.eval_jet(pair.g, 800.0, 6)

    def test_a_fresh_pair_walks_its_shapes_once(self, monkeypatch):
        walks, depth, inner = [], [0], ex._value_shape

        def counted(e, consts, seen):
            if not depth[0]:
                walks.append(e)
            depth[0] += 1
            try:
                return inner(e, consts, seen)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(ex, "_value_shape", counted)
        pair = ex.validate_pair("sin(0.4321 * x + 0.1)", "cos(0.4321 * x + 0.1)", (-0.3, 0.9))
        assert walks == [pair.f, pair.g]
        ca.phi_psi(pair, 0.2, 4)
        for name in ("ebm", "lebesgue"):
            mean_eval(MeanSpec(pair, preset_measure(name)), 0.1, 0.5)
        assert walks == [pair.f, pair.g]
        assert sorted(pair.jet_kernels) == [6]


# ------------------------------------------------- single rules, unfolded

_coeff = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False)


def _jet_pairs(order):
    """Two jets of one order: on a float, or on two points as arrays."""
    row = st.lists(_coeff, min_size=order + 1, max_size=order + 1)
    return st.tuples(row, row, row, row)


def _as_coeffs(rows, arrays):
    a, b, c, d = rows
    if not arrays:
        return list(a), list(b)
    return [np.array(p) for p in zip(a, c)], [np.array(p) for p in zip(b, d)]


def _bits(coeffs):
    return [np.asarray(c, dtype=float).tobytes() for c in coeffs]


class TestJetFunctions:
    """Each template printed alone and unfolded keeps the bits of its loop form."""

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(st.integers(0, jets.MAX_ORDER).flatmap(_jet_pairs), st.booleans())
    def test_bits_equal_the_loop_forms(self, rows, arrays):
        u, v = _as_coeffs(rows, arrays)
        n = len(u) - 1
        p = [abs(u[0]) + 0.5, *u[1:]]
        x = 0.0 * u[0]  # a point of the coefficients' shape
        cases = [
            (rule(jets.mul_rule, n, 2)(x, *u, *v), _mul(u, v)),
            (rule(jets.exp_rule, n, 1)(x, *u), _exp(u, x)),
            (rule(ex._RULES["sin"], n, 1)(x, *u), _LOOP_RULES["sin"](u, x)),
            (rule(ex._RULES["cos"], n, 1)(x, *u), _LOOP_RULES["cos"](u, x)),
            (rule(ex._RULES["sinh"], n, 1)(x, *u), _LOOP_RULES["sinh"](u, x)),
            (rule(ex._RULES["cosh"], n, 1)(x, *u), _LOOP_RULES["cosh"](u, x)),
            (rule(jets.log_rule, n, 1)(x, *p), _log(p, x)),
            (rule(jets.sqrt_rule, n, 1)(x, *p), _sqrt(p, x)),
            (rule(jets.rpow_rule, n, 1, "e")(x, 2 / 3, *p), _pow(p, Fraction(2, 3), x)),
            (rule(jets.rpow_rule, n, 1, "e")(x, -1.25, *p), _pow(p, -1.25, x)),
            (rule(jets.ipow_rule, n, 1, 3, "e")(x, 3, *u), _ipow(u, 3, x)),
            (rule(jets.ipow_rule, n, 1, -2, "e")(x, -2, *p), _ipow(p, -2, x)),
            (rule(jets.div_rule, n, 2)(x, *u, *p), _div(u, p, x)),
        ]
        for got, want in cases:
            assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("x", [0.25, np.array([0.25, 0.5, 0.75])])
    def test_failures_equal_the_loop_forms(self, x):
        # a constant term that fails at the last two points of an array
        u0 = 0.0 if isinstance(x, float) else np.array([1.0, 0.0, 0.0])
        zero, big = [u0, 1.0, 0.0, 0.0], [1000.0 * (u0 == 0.0), 1.0, 0.0]
        neg = [u0 - 1.0 * (u0 == 0.0), 1.0, 0.0, 0.0]
        sqrt = rule(jets.sqrt_rule, 3, 1)
        cases = [
            (lambda: rule(jets.div_rule, 3, 2)(x, 1.0, 0.0, 0.0, 0.0, *zero), lambda: _div([1.0, 0, 0, 0], zero, x),
             "division by zero"),
            (lambda: rule(jets.log_rule, 3, 1)(x, *zero), lambda: _log(zero, x), "log of non-positive value"),
            (lambda: rule(jets.ipow_rule, 3, 1, -1, "e")(x, -1, *zero), lambda: _ipow(zero, -1, x),
             "zero base with negative power"),
            (lambda: rule(jets.rpow_rule, 3, 1, "e")(x, 0.5, *zero), lambda: _pow(zero, 0.5, x),
             "non-integer power of non-positive base"),
            (lambda: sqrt(x, *zero), lambda: _sqrt(zero, x), "sqrt of zero value"),
            (lambda: sqrt(x, *neg), lambda: _sqrt(neg, x), "sqrt of negative value"),
            (lambda: rule(jets.exp_rule, 2, 1)(x, *big), lambda: _exp(big, x), "exp overflow"),
        ]
        first = 0.25 if isinstance(x, float) else 0.5
        for run, ref, message in cases:
            got, want = _outcome(run), _outcome(ref)
            assert got[0] == "error" and got == want
            assert got[1:3] == (DomainViolation, f"{message} at {first!r}")


# -------------------------------------------------------- Phi/Psi kernel

def _shift(c) -> list:
    return [c[k + 1] * (k + 1) for k in range(len(c) - 1)]


def _phi_psi_composed(jf: jets.Jet, jg: jets.Jet, order: int) -> tuple[list, list]:
    """Phi and Psi composed of the unfolded rules, one rule at a time."""
    n = order + 1
    f0, g0 = list(jf.coeffs[:n]), list(jg.coeffs[:n])
    f1, g1 = _shift(jf.coeffs)[:n], _shift(jg.coeffs)[:n]
    f2, g2 = _shift(_shift(jf.coeffs)), _shift(_shift(jg.coeffs))
    mul, div = rule(jets.mul_rule, order, 2), rule(jets.div_rule, order, 2)
    x = jf.base_point

    def wronskian(a, b, c, d):
        return [p - q for p, q in zip(mul(x, *a, *b), mul(x, *c, *d))]

    w10, w20, w21 = wronskian(f1, g0, f0, g1), wronskian(f2, g0, f0, g2), wronskian(f2, g1, f1, g2)
    jets.reject(
        abs(w10[0]) <= ex.TOL_WRONSKIAN,
        lambda i: WronskianVanishes(jets.at(jf.base_point, i), jets.at(w10[0], i)),
    )
    return div(x, *w20, *w10), [-v for v in div(x, *w21, *w10)]


@pytest.mark.parametrize("family", PAIR_FAMILIES)
def test_phi_psi_kernel_equals_the_composition(rng, family):
    pair = random_admissible_pair(rng, family)
    lo, hi = pair.interval
    xs = np.linspace(lo, hi, 19)[1:-1]
    for order in range(0, 5):
        for x in (float(xs[5]), xs, xs.reshape(1, -1)):
            with np.errstate(over="ignore", invalid="ignore"):
                jf, jg = ex.eval_jet(pair.f, x, order + 2), ex.eval_jet(pair.g, x, order + 2)
            got = ca._phi_psi_jets(jf, jg, order)
            want = _phi_psi_composed(jf, jg, order)
            for g, w in zip(got, want):
                assert _bits(g.coeffs) == _bits(w)


def test_phi_psi_kernel_raises_where_the_composition_does():
    jf = ex.eval_jet(ex.parse("x^3"), np.array([0.5, 1e-6, 2.0]), 4)
    jg = ex.eval_jet(ex.parse("1"), np.array([0.5, 1e-6, 2.0]), 4)
    got = _outcome(lambda: ca._phi_psi_jets(jf, jg, 2)[0].coeffs)
    want = _outcome(lambda: _phi_psi_composed(jf, jg, 2)[0])
    assert got[0] == "error" and got[1] is WronskianVanishes and got == want


# ------------------------------------------------------ recursion kernel

def _recursion_composed(pp: ca.PhiPsi, n: int) -> tuple[tuple, tuple]:
    """phi_i and psi_i by the loop-form product and the shift, step by step."""
    phi_i, psi_i = [1.0] + [0.0] * (n - 1), [0.0] * n
    phis, psis = [0.0, 1.0], [1.0, 0.0]
    for m in range(n - 1, 0, -1):
        by_phi = _mul(phi_i[:m], list(pp.phi_jet.coeffs[:m]))
        by_psi = _mul(phi_i[:m], list(pp.psi_jet.coeffs[:m]))
        phi_i, psi_i = (
            [(d + c) + e for d, c, e in zip(_shift(phi_i), by_phi, psi_i)],
            [c + d for c, d in zip(by_psi, _shift(psi_i))],
        )
        phis.append(phi_i[0])
        psis.append(psi_i[0])
    return tuple(phis), tuple(psis)


@pytest.mark.parametrize("family", PAIR_FAMILIES)
def test_recursion_kernel_equals_the_loop_forms(rng, family):
    for _ in range(4):
        pair = random_admissible_pair(rng, family)
        lo, hi = pair.interval
        for x in np.linspace(lo, hi, 7)[1:-1]:
            for n in range(2, 7):
                got = ca.recursion_seq(pair, float(x), n)
                want = _recursion_composed(ca.phi_psi(pair, float(x), n - 2), n)
                assert (_bits(got.phi), _bits(got.psi)) == tuple(map(_bits, want))

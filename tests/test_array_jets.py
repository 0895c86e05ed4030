"""Array-valued jets: the same bits as float jets at every point, and the
one-pass validate_pair against the per-point loop it replaced."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from meanlab import calculus as ca
from meanlab import expr as ex
from meanlab.errors import (
    DomainViolation,
    MeanLabError,
    NonSmooth,
    NotPositive,
    WronskianVanishes,
)

from conftest import PAIR_FAMILIES, random_admissible_pair

# every _RULES row, integer, negative and rational powers, division, and S/C
# with each sign of t; all defined on XS
CASES = [
    "2.5", "x", "-(x * x)", "x + 1", "x - 3", "x * x", "x / (x + 2)", "(1 + x) / (2 - x)",
    "x^3", "x^7", "x^(-1)", "(x + 2)^(-3)", "x^(1/2)", "x^(2/3)", "(x + 2)^(-5/4)",
    "exp(x)", "log(x)", "sin(x)", "cos(x)", "sinh(x)", "cosh(x)", "sqrt(x)",
    "S(-2; x)", "S(0; x)", "S(1.5; x)", "C(-2; x)", "C(0; x)", "C(1.5; x)",
    "exp(sin(x) / (1 + x^2)) * log(x + 1) - sqrt(cosh(x)) * S(-0.5; 2 * x)",
]
XS = np.linspace(0.2, 1.7, 257)


def _assert_pointwise(e: ex.Expr, xs: np.ndarray, order: int) -> None:
    j = ex.eval_jet(e, xs, order)
    assert j.order == order and all(c.shape == xs.shape for c in j.coeffs)
    for idx, x in np.ndenumerate(xs):
        want = ex.eval_jet(e, float(x), order).coeffs
        assert tuple(float(c[idx]) for c in j.coeffs) == want, (idx, x)


@pytest.mark.parametrize("text", CASES)
def test_array_jet_equals_float_jet_at_every_point(text):
    _assert_pointwise(ex.parse(text), XS, 6)


@pytest.mark.parametrize("family", PAIR_FAMILIES)
def test_random_pair_families(rng, family):
    pair = random_admissible_pair(rng, family)
    xs = np.array(ex.interior_grid(pair.interval, 257))
    for e in (pair.f, pair.g):
        _assert_pointwise(e, xs, 6)


@pytest.mark.parametrize("text", CASES[-8:])
def test_point_alone_equals_point_in_batch(text):
    e = ex.parse(text)
    batch = ex.eval_jet(e, XS, 6)
    nodes = XS[:15].reshape(3, 5)
    grid = ex.eval_jet(e, nodes, 6)
    for i in (0, 7, 128, 256):
        alone = ex.eval_jet(e, XS[i : i + 1], 6)
        assert tuple(c[i] for c in batch.coeffs) == tuple(c[0] for c in alone.coeffs)
    for idx, x in np.ndenumerate(nodes):
        alone = ex.eval_jet(e, np.array(x), 6)
        assert tuple(c[idx] for c in grid.coeffs) == tuple(c[()] for c in alone.coeffs)


def test_mul_commutes_bitwise_on_arrays():
    a, b = "sin(x) * exp(x)", "log(x) / (1 + x)"
    ab = ex.eval_jet(ex.parse(f"({a}) * ({b})"), XS, 6)
    ba = ex.eval_jet(ex.parse(f"({b}) * ({a})"), XS, 6)
    assert all(np.array_equal(p, q) for p, q in zip(ab.coeffs, ba.coeffs))


def test_domain_error_names_the_first_failing_point():
    # sqrt fails first at 1.5, log first at 0.75: the error is the log's at
    # 0.75, though the tree walk meets sqrt first
    e = ex.parse("sqrt(1 - x) + log(0.5 - x)")
    xs = np.array([0.0, 0.75, 1.5, 2.0])
    with pytest.raises(DomainViolation) as want:
        ex.eval_jet(e, 0.75, 3)
    with pytest.raises(DomainViolation) as got:
        ex.eval_jet(e, xs, 3)
    assert (str(got.value), got.value.index) == (str(want.value), 1)


# ------------------------------------------------------- fixed-order sums

def test_product_overflow_gives_inf():
    # fsum raised "intermediate overflow in fsum" here
    j = ex.eval_jet(ex.parse("exp(x)*exp(x)"), 354.6, 1)
    assert j.coeffs[0] == pytest.approx(1.0037985541227e308, rel=1e-12)
    assert j.coeffs[1] == math.inf
    arr = ex.eval_jet(ex.parse("exp(x)*exp(x)"), np.array([354.6]), 1)
    assert tuple(c[0] for c in arr.coeffs) == j.coeffs


# ------------------------------------------------------------ validate_pair

def _validate_per_point(
    f, g, interval, n=6, grid_size=ex.DEFAULT_GRID_SIZE, tol_w=ex.TOL_WRONSKIAN
):
    """The per-point loop validate_pair ran before its one-pass form."""
    f, g = ex.parse(f), ex.parse(g)
    order = max(n, 1)
    sign = 0
    for x in ex.interior_grid(interval, grid_size):
        try:
            jf = ex.eval_jet(f, x, order)
            jg = ex.eval_jet(g, x, order)
        except (DomainViolation, OverflowError, ValueError) as exc:
            raise NonSmooth(x, str(exc)) from exc
        if not (jf.is_finite() and jg.is_finite()):
            raise NonSmooth(x, "non-finite jet coefficients")
        if not jg.value > 0.0:
            raise NotPositive("g", x, jg.value)
        w = jf.coeffs[1] * jg.coeffs[0] - jf.coeffs[0] * jg.coeffs[1]
        if not math.isfinite(w) or abs(w) < tol_w:
            raise WronskianVanishes(x, w)
        s = 1 if w > 0 else -1
        if sign and s != sign:
            raise WronskianVanishes.sign_change(x_prev, w_prev, x, w)
        sign, x_prev, w_prev = s, x, w
    return sign


def _outcome(run):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = run()
        except (MeanLabError, ValueError) as exc:
            return type(exc), getattr(exc, "point", None), str(exc)
    if isinstance(result, int):
        return result
    # the sign of f'g - fg' at the last grid point, where the loop reads it
    last = ex.interior_grid(result.interval, ex.DEFAULT_GRID_SIZE)[-1]
    return 1 if ca.wronskian(result, last, 1, 0) > 0 else -1


VALIDATE_CASES = {
    "admissible": ("sin(x)", "cos(x)", (-0.7, 0.7)),
    "negative W": ("cos(x)", "sin(x) + 2", (-0.4, 0.7)),
    "g crosses zero": ("x", "x - 0.5", (0.0, 1.0)),
    "negative constant g": ("x", "-2", (0.0, 1.0)),
    "W vanishes inside": ("x^3", "1", (-1.0, 1.0)),
    "W changes sign": ("sin(x)+x^2", "cos(x)+2", (-0.7, 0.7)),
    "proportional": ("2 * exp(x)", "exp(x)", (0.0, 1.0)),
    "g <= 0 before a log-domain point": ("log(1 - x)", "x + 0.5", (-1.0, 2.0)),
    "g domain before f domain": ("log(3 - x) + x", "sqrt(2 - x)", (0.0, 4.0)),
    "f domain at the first point": ("log(x)", "1", (-1.0, 1.0)),
    "overflow to a non-finite jet": ("exp(x)*exp(x)", "1", (354.0, 355.0)),
    "libm domain error": ("x + sin(x^500)", "1", (5.0, 6.0)),
    "libm domain error of a product": ("x + sin(x^250 * x^250)", "1", (5.0, 6.0)),
    "zero divisor": ("1 / x", "1", (-1.0, 1.0)),
}


@pytest.mark.parametrize("case", VALIDATE_CASES)
def test_validate_pair_matches_per_point_loop(case):
    f, g, interval = VALIDATE_CASES[case]
    want = _outcome(lambda: _validate_per_point(f, g, interval))
    got = _outcome(lambda: ex.validate_pair(f, g, interval))
    assert got == want


def test_overflow_rejected_as_non_smooth():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonSmooth, match="non-finite jet coefficients"):
            ex.validate_pair("exp(x)*exp(x)", "1", (354, 355))


def test_validate_pair_first_failures_are_the_expected_kinds():
    # the cases above exercise the paths they are named for
    kinds = {case: _outcome(lambda: _validate_per_point(*VALIDATE_CASES[case]))
             for case in VALIDATE_CASES}
    assert kinds["admissible"] == 1 and kinds["negative W"] == -1
    assert kinds["g <= 0 before a log-domain point"][0] is NotPositive
    assert kinds["g domain before f domain"][0] is NonSmooth
    assert "sqrt" in kinds["g domain before f domain"][2]
    # x^500 overflows before sin: the infinity that sin fails on is a product's
    assert "power overflow" in kinds["libm domain error"][2]
    assert "sin of infinite value" in kinds["libm domain error of a product"][2]
    assert kinds["overflow to a non-finite jet"][2].endswith("non-finite jet coefficients")


def test_sample_raises_at_the_first_offending_point():
    # the domain error of g at -2 comes after the vanishing W at 1e-6
    shady = ex.FunctionPair(
        f=ex.parse("x^3"), g=ex.parse("log(x + 1.5)"), interval=(-3.0, 3.0), validated_order=6
    )
    xs = [0.5, 1e-6, -2.0]
    with pytest.raises(WronskianVanishes) as want:
        for x in xs:
            ca.phi_psi(shady, x, order=2)
    with pytest.raises(WronskianVanishes) as got:
        ca.sample(shady, xs, 2)
    assert str(got.value) == str(want.value)

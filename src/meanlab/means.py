"""Two-variable means driven by a generator pair and a measure.

mean_eval solves the implicit equation (f/g)(z) = r with
r = (integral of f along the segment) / (integral of g along the segment),
the integrals taken against the measure in the segment parameter. The root
is unique in [min(x,y), max(x,y)] for an admissible pair, so a bracketed
solver cannot miss it. The classical specializations (quasiarithmetic,
Bajraktarevic, Cauchy) are separate entry points with their own closed
forms, used in tests as independent routes to the same values.

mean_table and quasiarithmetic_table fill a whole n x n table of those
means with one vectorized bracketed solve (Chandrupatla's method, Adv. Eng.
Software 28 (1997) 145-149). The scalar mean_eval and quasiarithmetic stay
the reference: every table element that the batched solve cannot certify is
recomputed by them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np
from scipy.optimize import brentq
from scipy.optimize.elementwise import find_root

from . import expr as ex
from .errors import (
    BracketFailure,
    DegenerateDenominator,
    NotPositive,
    OutOfInterval,
)
from .expr import FunctionPair
from .measures import Measure, moments, weighted_sum

__all__ = [
    "MeanSpec", "mean_eval", "mean_table", "quasiarithmetic", "quasiarithmetic_table",
    "bajraktarevic", "cauchy", "m_curve",
]

RESIDUAL_TOL = 1e-12
_BRENTQ_RTOL = 4.0 * float(np.finfo(float).eps)
_FIND_ROOT_TOL = {"xatol": 1e-15, "xrtol": _BRENTQ_RTOL}


@dataclass(frozen=True)
class MeanSpec:
    pair: FunctionPair
    measure: Measure


def _solve_bracketed(func: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of func on [lo, hi]; the endpoints must straddle zero."""
    flo = func(lo)
    if flo == 0.0:
        return lo
    fhi = func(hi)
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise BracketFailure(lo, hi, flo, fhi)
    try:
        return float(brentq(func, lo, hi, xtol=1e-15, rtol=_BRENTQ_RTOL, maxiter=100))
    except (ValueError, RuntimeError) as exc:
        raise BracketFailure(lo, hi, flo, fhi, detail=str(exc)) from exc


def _bracketed_roots(
    resid: Callable[..., np.ndarray], lo: np.ndarray, hi: np.ndarray, *args: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Roots of resid(z, *args) on [lo, hi], elementwise, in one batched solve.

    resid must be elementwise in z and args. As in _solve_bracketed, an end
    whose residual is exactly 0 is the root. Returns the roots and a mask
    of the elements solved; elsewhere (no sign change, or no convergence)
    the root is nan.
    """
    flo = resid(lo, *args)
    fhi = resid(hi, *args)
    z = np.where(flo == 0.0, lo, np.where(fhi == 0.0, hi, np.nan))
    ok = (flo == 0.0) | (fhi == 0.0)
    solve = ~ok & ((flo > 0.0) != (fhi > 0.0))
    if solve.any():
        res = find_root(
            resid, (lo[solve], hi[solve]), args=tuple(a[solve] for a in args),
            tolerances=_FIND_ROOT_TOL,
        )
        z[solve] = np.where(res.success, res.x, np.nan)
        ok[solve] = res.success
    return z, ok


def _as_expr(e: Union[ex.Expr, str]) -> ex.Expr:
    return ex.parse(e) if isinstance(e, str) else e


def mean_eval(spec: MeanSpec, x: float, y: float) -> float:
    """The mean of x and y for the given pair and measure.

    Returns the unique z in [min(x,y), max(x,y)] with (f/g)(z) equal to the
    ratio of the segment integrals of f and g. Equal arguments return
    exactly; otherwise the result carries a residual certificate of
    |(f/g)(z) - r| <= RESIDUAL_TOL * (1 + |r|).

    Both integrals are weighted_sum over the segment points t*x + (1-t)*y
    of the measure's nodes, f at every point first and then g.
    """
    x, y = float(x), float(y)
    if not spec.pair.contains(x):
        raise OutOfInterval(x, spec.pair.interval)
    if not spec.pair.contains(y):
        raise OutOfInterval(y, spec.pair.interval)
    if x == y:
        return x
    f, g = spec.pair.f_at, spec.pair.g_at
    ts, ws = spec.measure._nodes()
    points = [t * x + (1.0 - t) * y for t in ts]
    r = weighted_sum(ts, ws, map(f, points)) / weighted_sum(ts, ws, map(g, points))
    lo, hi = (x, y) if x < y else (y, x)

    def resid(z: float) -> float:
        return f(z) - r * g(z)

    try:
        z = _solve_bracketed(resid, lo, hi)
    except BracketFailure:
        # quadrature rounding can push r a few ulps outside [f/g(lo), f/g(hi)];
        # accept an endpoint when it already satisfies the residual contract
        for end in (lo, hi):
            if abs(f(end) / g(end) - r) <= RESIDUAL_TOL * (1.0 + abs(r)):
                return end
        raise
    if abs(f(z) / g(z) - r) > RESIDUAL_TOL * (1.0 + abs(r)):
        raise BracketFailure(lo, hi, resid(lo), resid(hi), detail="residual above tolerance")
    return z


def mean_table(spec: MeanSpec, xs: Sequence[float]) -> np.ndarray:
    """The n x n table T[i, j] = mean_eval(spec, xs[i], xs[j]).

    The segment integrals of all pairs are taken node by node, with
    mean_eval's arithmetic, and all off-diagonal roots are found in one
    batched solve. The diagonal is exact. Each solved element must pass
    mean_eval's residual certificate; an element that does not bracket,
    converge or certify is recomputed by mean_eval, which keeps its
    endpoint fallback and raises its BracketFailure.
    """
    xs = np.asarray(xs, dtype=float)
    for x in xs:
        if not spec.pair.contains(x):
            raise OutOfInterval(float(x), spec.pair.interval)
    f = ex.compile_array(spec.pair.f)
    g = ex.compile_array(spec.pair.g)
    X, Y = xs[:, None], xs[None, :]
    num = spec.measure.integrate(lambda t: f(t * X + (1.0 - t) * Y))
    den = spec.measure.integrate(lambda t: g(t * X + (1.0 - t) * Y))
    off = X != Y
    r = (num / den)[off]
    z, ok = _bracketed_roots(
        lambda z, r: f(z) - r * g(z), np.minimum(X, Y)[off], np.maximum(X, Y)[off], r
    )
    zk, rk = z[ok], r[ok]
    ok[ok] = np.abs(f(zk) / g(zk) - rk) <= RESIDUAL_TOL * (1.0 + np.abs(rk))
    return _fill_table(xs, off, z, ok, lambda x, y: mean_eval(spec, x, y))


def quasiarithmetic_table(
    phi: Callable[[np.ndarray], np.ndarray], xs: Sequence[float]
) -> np.ndarray:
    """The n x n table T[i, j] = quasiarithmetic(phi, xs[i], xs[j]).

    phi must be elementwise on arrays and also accept floats. All
    off-diagonal inversions are solved in one batch; an element that does
    not bracket or converge is recomputed by quasiarithmetic, which raises
    its BracketFailure.
    """
    xs = np.asarray(xs, dtype=float)
    p = np.asarray(phi(xs), dtype=float)
    X, Y = xs[:, None], xs[None, :]
    off = X != Y
    target = (0.5 * (p[:, None] + p[None, :]))[off]
    z, ok = _bracketed_roots(
        lambda z, c: phi(z) - c, np.minimum(X, Y)[off], np.maximum(X, Y)[off], target
    )
    ok &= (p[:, None] != p[None, :])[off]
    return _fill_table(xs, off, z, ok, lambda x, y: quasiarithmetic(phi, x, y))


def _fill_table(
    xs: np.ndarray, off: np.ndarray, z: np.ndarray, ok: np.ndarray,
    scalar: Callable[[float, float], float],
) -> np.ndarray:
    """x on the diagonal, the batched roots off it, and the scalar route
    wherever the batch gave no certified root."""
    table = np.repeat(xs[:, None], len(xs), axis=1)
    table[off] = z
    miss = np.zeros_like(off)
    miss[off] = ~ok
    for i, j in zip(*np.nonzero(miss)):
        table[i, j] = scalar(float(xs[i]), float(xs[j]))
    return table


def quasiarithmetic(
    phi: Union[ex.Expr, str, Callable[[float], float]], x: float, y: float
) -> float:
    """Inverts phi at the midpoint of phi(x), phi(y) over the bracket.

    phi may be an expression or any strictly monotone callable; the latter
    lets tabulated or integral-defined generators act as phi directly.
    """
    x, y = float(x), float(y)
    if x == y:
        return x
    if isinstance(phi, (ex.Expr, str)):
        pf = ex.compile_scalar(_as_expr(phi))
    else:
        pf = phi
    px, py = pf(x), pf(y)
    if px == py:
        raise BracketFailure(x, y, 0.0, 0.0, detail="phi is not strictly monotone")
    target = 0.5 * (px + py)
    lo, hi = (x, y) if x < y else (y, x)
    return _solve_bracketed(lambda z: pf(z) - target, lo, hi)


def bajraktarevic(
    phi: Union[ex.Expr, str], p: Union[ex.Expr, str], x: float, y: float
) -> float:
    """Weight-function mean: phi inverted at the p-weighted combination."""
    x, y = float(x), float(y)
    phi, p = _as_expr(phi), _as_expr(p)
    pf = ex.compile_scalar(phi)
    wf = ex.compile_scalar(p)
    wx, wy = wf(x), wf(y)
    if not wx > 0.0:
        raise NotPositive("p", x, wx)
    if not wy > 0.0:
        raise NotPositive("p", y, wy)
    if x == y:
        return x
    px, py = pf(x), pf(y)
    if px == py:
        raise BracketFailure(x, y, 0.0, 0.0, detail="phi is not strictly monotone")
    target = (wx * px + wy * py) / (wx + wy)
    lo, hi = (x, y) if x < y else (y, x)
    return _solve_bracketed(lambda z: pf(z) - target, lo, hi)


def cauchy(phi: Union[ex.Expr, str], psi: Union[ex.Expr, str], x: float, y: float) -> float:
    """Difference-quotient mean: (phi'/psi')^(-1) of dphi/dpsi along [x, y]."""
    x, y = float(x), float(y)
    if x == y:
        return x
    phi, psi = _as_expr(phi), _as_expr(psi)
    pf = ex.compile_scalar(phi)
    sf = ex.compile_scalar(psi)
    dpsi = sf(y) - sf(x)
    if abs(dpsi) <= 1e-14:
        raise DegenerateDenominator(x, y, dpsi)
    target = (pf(y) - pf(x)) / dpsi

    def ratio(z: float) -> float:
        jp = ex.eval_jet(phi, z, 1)
        js = ex.eval_jet(psi, z, 1)
        ds = js.coeffs[1]
        if not ds > 0.0:
            raise NotPositive("psi'", z, ds)
        return jp.coeffs[1] / ds

    lo, hi = (x, y) if x < y else (y, x)
    return _solve_bracketed(lambda z: ratio(z) - target, lo, hi)


def m_curve(spec: MeanSpec, x: float, u: float) -> float:
    """Diagonal section through x: the mean of x + (1-m1)u and x - m1*u,
    with m1 the measure's first raw moment. u = 0 returns x exactly."""
    return _section(spec, float(x), float(u), moments(spec.measure, 1).mu_hat1)


def _section(spec: MeanSpec, x: float, u: float, mu_hat1: float) -> float:
    """m_curve with the first raw moment mu_hat1 already read."""
    a = x + (1.0 - mu_hat1) * u
    b = x - mu_hat1 * u
    for point in (a, b):
        if not spec.pair.contains(point):
            raise OutOfInterval(point, spec.pair.interval)
    return mean_eval(spec, a, b)

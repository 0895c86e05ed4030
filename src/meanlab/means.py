"""Two-variable means driven by a generator pair and a measure.

mean_eval solves the implicit equation (f/g)(z) = r with
r = (integral of f along the segment) / (integral of g along the segment),
the integrals taken against the measure in the segment parameter. The root
is unique in [min(x,y), max(x,y)] for an admissible pair, so a bracketed
solver cannot miss it. The classical specializations (quasiarithmetic,
Bajraktarevic, Cauchy) are separate entry points with their own closed
forms, used in tests as independent routes to the same values.

mean_table and quasiarithmetic_table fill a whole n x n table of those
means with one vectorized bracketed solve. The scalar mean_eval and
quasiarithmetic stay the reference: every table element that the batched
solve cannot certify is recomputed by them.

Both root solvers live here and share one pair of root tolerances:

- chandrupatla solves an array of brackets at once by Chandrupatla's
  method (Adv. Eng. Software 28 (1997) 145-149): inverse quadratic
  interpolation where it is safe, bisection elsewhere, with each element
  leaving the active set as it converges.
- brentq solves one bracket by Brent's method (Algorithms for Minimization
  without Derivatives, 1973, ch. 4), step for step as the classic C routine
  (the same bracket swaps, interpolate/extrapolate test and step bounds).

The scalar route stays Brent rather than a one-element Chandrupatla: the two
methods stop at points a few ulps apart, and callers that difference means
(the polynomial-fit derivative oracle divides them by h^k) amplify that
into visible changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from . import expr as ex
from .errors import (
    BracketFailure,
    DegenerateDenominator,
    NotPositive,
    OutOfInterval,
)
from .expr import FunctionPair
from .measures import Measure, moments, segment_sum

__all__ = [
    "MeanSpec", "mean_eval", "mean_table", "quasiarithmetic", "quasiarithmetic_table",
    "bajraktarevic", "cauchy", "m_curve",
]

RESIDUAL_TOL = 1e-12
# a root is accepted once it is known within _XATOL + _XRTOL * |root|
_XATOL = 1e-15
_XRTOL = 4.0 * float(np.finfo(float).eps)
# chandrupatla also stops where |residual| reaches the smallest normal float
_FATOL = float(np.finfo(float).tiny)
_MAXITER = 100


@dataclass(frozen=True)
class MeanSpec:
    pair: FunctionPair
    measure: Measure


def _solve_bracketed(func: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of func on [lo, hi]; the endpoints must straddle zero."""
    flo = float(func(lo))
    if flo == 0.0:
        return lo
    fhi = float(func(hi))
    if fhi == 0.0:
        return hi
    if flo != flo or fhi != fhi:
        raise BracketFailure(lo, hi, flo, fhi, detail="residual is nan at an end")
    if (flo > 0.0) == (fhi > 0.0):
        raise BracketFailure(lo, hi, flo, fhi)
    return brentq(func, lo, hi, flo, fhi)


def brentq(f: Callable[[float], float], a: float, b: float, fa: float, fb: float) -> float:
    """Root of f on [a, b] by Brent's method, given fa = f(a) and fb = f(b).

    fa and fb must be floats that are nonzero, not nan and of opposite sign
    (_solve_bracketed checks that). Follows the classic C routine step for
    step with xtol = _XATOL, rtol = _XRTOL and at most _MAXITER steps; f is
    called once per step and its value taken as a float. Raises
    BracketFailure on a nan value and on no convergence.
    """
    xpre, fpre, xcur, fcur = a, fa, b, fb
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        # zeros and nans never get here, so < 0 is the sign bit
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XATOL + _XRTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C divides to an inf or a nan here (a denominator underflows
                # for tiny residuals), which fails the step test: bisect
                stry = math.inf
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
        if fcur != fcur:
            raise BracketFailure(a, b, fa, fb, detail=f"residual is nan at {xcur!r}")
    raise BracketFailure(a, b, fa, fb, detail=f"no convergence in {_MAXITER} steps")


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
    solve = np.flatnonzero(~ok & ((flo > 0.0) != (fhi > 0.0)))
    if solve.size:
        z[solve], ok[solve] = chandrupatla(
            resid, lo[solve], hi[solve], flo[solve], fhi[solve], tuple(a[solve] for a in args)
        )
    return z, ok


def chandrupatla(
    f: Callable[..., np.ndarray], a: np.ndarray, b: np.ndarray,
    fa: np.ndarray, fb: np.ndarray, args: tuple = (),
) -> tuple[np.ndarray, np.ndarray]:
    """Roots of f(x, *args) on the brackets [a, b] by Chandrupatla's method.

    a, b, fa = f(a), fb = f(b) and args are 1-d arrays of one length, and f
    is elementwise. Element i stops once |f| <= _FATOL at the better end of
    its bracket, or once the bracket is shorter than _XATOL + _XRTOL * |x|
    at that end, which is then the root; it fails on a lost sign change, a
    non-finite bracket or nan values at both ends. Returns the roots and a
    mask of the elements that converged within _MAXITER steps; elsewhere
    the root is nan.
    """
    z = np.full(a.shape, np.nan)
    ok = np.zeros(a.shape, dtype=bool)
    active = np.arange(a.size)
    # (x1, f1) is the newest point, x2 the other end of the bracket and x3
    # the point dropped last; the first step sets x3
    x1, f1, x2, f2, x3, f3 = a, fa, b, fb, a, fa
    with np.errstate(invalid="ignore"):
        # the value test is off where an end value is nan or both are infinite
        ftol = _FATOL + 0.0 * np.minimum(np.abs(fa), np.abs(fb))
    t = 0.5
    nit = 0
    while True:
        near = np.abs(f1) < np.abs(f2)
        xmin = np.where(near, x1, x2)
        conv = np.abs(np.where(near, f1, f2)) <= ftol
        fail = ~conv & (
            (np.sign(f1) == np.sign(f2))
            | ~(np.isfinite(x1) & np.isfinite(x2))
            | (np.isnan(f1) & np.isnan(f2))
        )
        dx = np.abs(x2 - x1)
        tol = np.abs(xmin) * _XRTOL + _XATOL
        conv |= ~fail & (dx < tol)
        done = active[conv]
        z[done] = xmin[conv]
        ok[done] = True
        keep = ~(conv | fail)
        if nit == _MAXITER or not keep.any():
            return z, ok
        if not keep.all():
            active, x1, f1, x2, f2, x3, f3, ftol, dx, tol = (
                v[keep] for v in (active, x1, f1, x2, f2, x3, f3, ftol, dx, tol)
            )
            args = tuple(v[keep] for v in args)
        if nit:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                # inverse quadratic interpolation where the three points allow it
                xi1 = (x1 - x2) / (x3 - x2)
                phi1 = (f1 - f2) / (f3 - f2)
                alpha = (x3 - x1) / (x2 - x1)
                quadratic = ((1 - np.sqrt(1 - xi1)) < phi1) & (phi1 < np.sqrt(xi1))
                t = np.where(
                    quadratic,
                    f1 / (f1 - f2) * f3 / (f3 - f2) - alpha * f1 / (f3 - f1) * f2 / (f2 - f3),
                    0.5,
                )
                # keep the new point at least half a tolerance inside the bracket
                tl = 0.5 * tol / dx
                t = np.clip(t, tl, 1 - tl)
        x = x1 + t * (x2 - x1)
        fx = f(x, *args)
        same = np.sign(fx) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, fx
        nit += 1


def _as_expr(e: Union[ex.Expr, str]) -> ex.Expr:
    return ex.parse(e) if isinstance(e, str) else e


def mean_eval(spec: MeanSpec, x: float, y: float) -> float:
    """The mean of x and y for the given pair and measure.

    Returns the unique z in [min(x,y), max(x,y)] with (f/g)(z) equal to the
    ratio of the segment integrals of f and g. Equal arguments return
    exactly; otherwise the result carries a residual certificate of
    |(f/g)(z) - r| <= RESIDUAL_TOL * (1 + |r|).

    Both integrals are segment_sum over the segment points t*x + (1-t)*y
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
    r = segment_sum(ts, ws, f, points) / segment_sum(ts, ws, g, points)
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

"""Two-variable means driven by a generator pair and a measure.

mean_eval solves the implicit equation (f/g)(z) = r with
r = (integral of f along the segment) / (integral of g along the segment),
the integrals taken against the measure in the segment parameter. The root
is unique in [min(x,y), max(x,y)] for an admissible pair, so a bracketed
solver cannot miss it. The classical specializations (quasiarithmetic,
Bajraktarevic, Cauchy) are separate entry points with their own closed
forms, used in tests as independent routes to the same values.

mean_eval runs one printed kernel per pair shape (_mean_factory): the
segment sums and the Brent steps in one function, with the checked value
code of f and g (expr._values) at each point and their shared subtrees
computed once per point. The measure's nodes and the tree's constants are
its arguments, so one code object serves every pair of a shape under every
measure. Where a value is not finite or fails, or the solve leaves the
plain path, the node loops (Measure.integrate) and _solve_bracketed run
instead and raise what they always raised.

mean_table and quasiarithmetic_table fill a whole n x n table of those
means with one vectorized bracketed solve, of the upper triangle only where
M(x, y) = M(y, x). The scalar mean_eval and quasiarithmetic stay the
reference: every table element, solved or mirrored, that the batched solve
cannot certify is recomputed by them.

Both root solvers live here and share one pair of root tolerances:

- chandrupatla solves an array of brackets at once by Chandrupatla's
  method (Adv. Eng. Software 28 (1997) 145-149): inverse quadratic
  interpolation where it is safe, bisection elsewhere, with each element
  leaving the active set as it converges.
- brentq solves one bracket by Brent's method (Algorithms for Minimization
  without Derivatives, 1973, ch. 4), step for step as the classic C routine
  (the same bracket swaps, interpolate/extrapolate test and step bounds).
  Its steps are stated once, in _BRENT_STEPS, and printed into brentq and
  into every mean kernel.

The scalar route stays Brent rather than a one-element Chandrupatla, though
not for speed: the two methods stop at points a few ulps apart, and the
polynomial-fit derivative oracle divides differenced means by h^k, which
moves the recorded perfbench reference's derivatives past their allowance.
The switch waits for that reference to be re-recorded (ROADMAP items 2 and
10, with the measurements).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence, Union

import numpy as np

from . import expr as ex
from . import jets
from .errors import (
    BracketFailure,
    DegenerateDenominator,
    DomainViolation,
    NotPositive,
    OutOfInterval,
)
from .expr import FunctionPair
from .jets import compile_source
from .measures import Measure, moments

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


# Brent's method (Algorithms for Minimization without Derivatives, 1973,
# ch. 4), step for step as the classic C routine: the same bracket swaps,
# interpolate/extrapolate test and step bounds, with xtol = _XATOL,
# rtol = _XRTOL and at most _MAXITER steps. These steps are stated here
# only, and printed into brentq and into every mean kernel. They start from
# the bracket [a, b] with fa = f(a) and fb = f(b), nonzero, not nan and of
# opposite sign; {resid} sets fcur to the residual at xcur, {nan} runs where
# that is nan and {limit} after _MAXITER steps. Past the loop, xcur is the root.
_BRENT_STEPS = """\
xpre, fpre, xcur, fcur = a, fa, b, fb
xblk = fblk = spre = scur = 0.0
for _ in range(_MAXITER):
    # zeros and nans never get here, so < 0 is the sign bit
    if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
        xblk, fblk = xpre, fpre
        spre = scur = xcur - xpre
    # each abs is taken once per step, as a call costs more than arithmetic,
    # and the literals are floats, as float-by-float arithmetic runs faster
    afcur, afblk = abs(fcur), abs(fblk)
    if afblk < afcur:
        xpre, xcur, xblk = xcur, xblk, xcur
        fpre, fcur, fblk = fcur, fblk, fcur
        afcur = afblk
    delta = (_XATOL + _XRTOL * abs(xcur)) * 0.5
    sbis = (xblk - xcur) * 0.5
    asbis = abs(sbis)
    if fcur == 0.0 or asbis < delta:
        break
    aspre = abs(spre)
    if aspre > delta and afcur < abs(fpre):
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
        bound = 3.0 * asbis - delta
        if 2.0 * abs(stry) < (aspre if aspre < bound else bound):
            spre, scur = scur, stry  # good short step
        else:
            spre = scur = sbis
    else:
        spre = scur = sbis
    xpre, fpre = xcur, fcur
    if abs(scur) > delta:
        xcur += scur
    else:
        xcur += delta if sbis > 0.0 else -delta
    {resid}
    if fcur != fcur:
        {nan}
else:
    {limit}
"""


def _brent(resid: list[str], nan: str, limit: str) -> list[str]:
    """The lines of _BRENT_STEPS with each hole replaced by its lines."""
    holes = {"{resid}": resid, "{nan}": [nan], "{limit}": [limit]}
    out = []
    for line in _BRENT_STEPS.splitlines():
        text = line.lstrip()
        pad = line[: len(line) - len(text)]
        out += [pad + s for s in holes.get(text, [text])]
    return out


def _printed(source: str, name: str, label: str) -> Callable:
    """The function name of printed source, run in this module's namespace:
    it reads _MAXITER and the tolerances when it runs, as brentq always has."""
    return compile_source(source, globals(), label)[name]


# the mean kernels call the elementary functions and the DomainViolation
# of expr's scalar kernels under the same names
globals().update(jets.NAMES)

brentq = _printed("def brentq(f, a, b, fa, fb):\n" + "".join(f"    {line}\n" for line in _brent(
    ["fcur = float(f(xcur))"],
    'raise BracketFailure(a, b, fa, fb, detail=f"residual is nan at {xcur!r}")',
    'raise BracketFailure(a, b, fa, fb, detail=f"no convergence in {_MAXITER} steps")',
) + ["return xcur"]), "brentq", "brentq")
brentq.__doc__ = """Root of f on [a, b] by Brent's method, given fa = f(a) and fb = f(b).

    fa and fb must be floats that are nonzero, not nan and of opposite sign
    (_solve_bracketed checks that). Runs _BRENT_STEPS; f is called once per
    step and its value taken as a float. Raises BracketFailure on a nan
    value and on no convergence.
    """


def chandrupatla(
    f: Callable[..., np.ndarray], a: np.ndarray, b: np.ndarray,
    fa: np.ndarray, fb: np.ndarray, args: tuple = (),
) -> tuple[np.ndarray, np.ndarray]:
    """Roots of f(x, *args) on the brackets [a, b] by Chandrupatla's method.

    a, b, fa = f(a), fb = f(b) and args are 1-d arrays of one length, and f
    is elementwise. An end where f is exactly 0 is the root (a before b);
    other ends must be of opposite sign and not nan, as in _solve_bracketed.
    Then element i stops once |f| <= _FATOL at the better end of its
    bracket, or once the bracket is shorter than _XATOL + _XRTOL * |x| at
    that end, which is then the root; it fails on a non-finite bracket or
    nan at both ends. Returns the roots and a mask of the elements that
    converged within _MAXITER steps, nan roots elsewhere. Finished elements
    leave the state arrays once at most half are live; until then they stay
    at their last point, so f is never given a point the element did not reach.
    """
    z = np.where(fa == 0.0, a, np.where(fb == 0.0, b, np.nan))
    ok = (fa == 0.0) | (fb == 0.0)
    # the state arrays hold the elements active[k], live or finished
    active, live = np.arange(a.size), ~ok & (np.sign(fa) * np.sign(fb) < 0.0)
    # (x1, f1) is the newest point, x2 the other end of the bracket and x3
    # the point dropped last; the first step sets x3. s1 is the sign of f1
    x1, f1, x2, f2, x3, f3, s1 = a, fa, b, fb, a, fa, np.sign(fa)
    with np.errstate(invalid="ignore"):
        # the value test is off where both end values are infinite
        ftol = _FATOL + 0.0 * np.minimum(np.abs(fa), np.abs(fb))
    t = 0.5
    nit = 0
    while True:
        # one error state for the step: only non-finite or finished brackets
        # make its arithmetic divide by zero or turn invalid
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            near = np.abs(f1) < np.abs(f2)
            xmin = np.where(near, x1, x2)
            conv = np.abs(np.where(near, f1, f2)) <= ftol
            bad = ~(np.isfinite(x1) & np.isfinite(x2)) | (np.isnan(f1) & np.isnan(f2))
            d21 = x2 - x1
            tol = np.abs(xmin) * _XRTOL + _XATOL
            conv |= ~bad & (np.abs(d21) < tol)
            conv &= live
            done = active[conv]
            z[done] = xmin[conv]
            ok[done] = True
            live &= ~(conv | bad)
            nlive = np.count_nonzero(live)
            if nit == _MAXITER or not nlive:
                return z, ok
            if 2 * nlive <= live.size:
                active, x1, f1, s1, x2, f2, x3, f3, ftol, d21, tol, *args = (
                    v[live] for v in (active, x1, f1, s1, x2, f2, x3, f3, ftol, d21, tol, *args)
                )
                live = live[live]
            if nit:
                # inverse quadratic interpolation where the three points allow it
                d12, d32 = f1 - f2, f3 - f2
                xi1 = (x1 - x2) / (x3 - x2)
                phi1 = d12 / d32
                quadratic = ((1 - np.sqrt(1 - xi1)) < phi1) & (phi1 < np.sqrt(xi1))
                # f1/(f1-f2) * f3/(f3-f2) - alpha * f1/(f3-f1) * f2/(f2-f3) with
                # alpha = (x3-x1)/(x2-x1); f2 - f3 is -d32 exactly
                t = f1 / d12 * f3 / d32 + (x3 - x1) / d21 * f1 / (f3 - f1) * f2 / d32
                np.copyto(t, 0.5, where=~quadratic)
                # keep the new point at least half a tolerance inside the bracket
                tl = 0.5 * tol / np.abs(d21)
                np.minimum(np.maximum(t, tl, out=t), 1 - tl, out=t)
            x = x1 + t * d21
        if nlive < live.size:
            x = np.where(live, x, x1)
        fx = f(x, *args)
        sx = np.sign(fx)
        same = sx == s1
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1, s1 = x, fx, sx
        nit += 1


def _as_expr(e: Union[ex.Expr, str]) -> ex.Expr:
    return ex.parse(e) if isinstance(e, str) else e


def mean_eval(spec: MeanSpec, x: float, y: float) -> float:
    """The mean of x and y for the given pair and measure.

    Returns the unique z in [min(x,y), max(x,y)] with (f/g)(z) equal to the
    ratio r of the segment integrals of f and g. Equal arguments return
    exactly; otherwise the result carries a residual certificate of
    |(f/g)(z) - r| <= RESIDUAL_TOL * (1 + |r|).

    Both integrals are left-to-right sums of w * v over the segment points
    t*x + (1-t)*y of the measure's nodes, f at every point first and then g;
    the root is brentq's, on the residual f(z) - r*g(z). The pair's mean
    kernel (_mean_factory) does all of that in one call. Where it leaves the
    plain path, the node loops (Measure.integrate) and _solve_bracketed run
    here, raise the first failure they meet (QuadratureNonFinite at the first
    non-finite value, a DomainViolation of f before one of g) and keep the
    endpoint fallback.
    """
    x, y = float(x), float(y)
    pair = spec.pair
    lo, hi = pair.interval
    # pair.contains, written out: this is the hot path of every scalar mean
    if not lo < x < hi:
        raise OutOfInterval(x, pair.interval)
    if not lo < y < hi:
        raise OutOfInterval(y, pair.interval)
    if x == y:
        return x
    kernel = pair.mean_kernels.get(spec.measure)
    if kernel is None:
        kernel = _mean_kernel(pair, spec.measure)
    try:
        z, r = kernel(x, y)
    except (DomainViolation, ArithmeticError, ValueError):
        z = r = None
    if z is not None:
        return z
    f, g = ex.compile_scalar(pair.f), ex.compile_scalar(pair.g)
    if r is None:
        integrate = spec.measure.integrate
        r = integrate(lambda t: f(t * x + (1.0 - t) * y)) / integrate(lambda t: g(t * x + (1.0 - t) * y))
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


def _mean_kernel(pair: FunctionPair, measure: Measure) -> Callable:
    """Binds the pair's mean kernel under the measure and holds it on the
    pair: the factory of the pair's shape, given the measure's segment
    nodes and the pair's arguments."""
    shapes, consts = pair.value_shapes
    kernel = pair.mean_kernels[measure] = _mean_factory(shapes)(_segment_nodes(measure), *consts)
    return kernel


@lru_cache(maxsize=ex.KERNEL_SHAPE_CACHE_SIZE)
def _segment_nodes(measure: Measure) -> tuple[tuple[float, float, float], ...]:
    """The measure's (t, 1 - t, w) per node, in order."""
    ts, ws = measure._nodes()
    return tuple((t, 1.0 - t, w) for t, w in zip(ts, ws))


@lru_cache(maxsize=ex.KERNEL_SHAPE_CACHE_SIZE)
def _mean_factory(shapes: tuple) -> Callable:
    """The mean kernel factory of a pair shape, printed once.

    shapes are the pair's value_shapes: at each point, g takes the subtrees
    it shares with f from f's code. The factory takes the segment nodes of
    a measure (_segment_nodes) and the pair's arguments, and gives
    kernel(x, y), for x != y, with mean_eval's arithmetic: at each node in
    turn the segment point t*x + (1-t)*y, f and g there, and the two sums
    w * v from left to right; then r, the Brent steps on f(z) - r*g(z) and
    the certificate. Each value it computes has the bits mean_eval's loops
    give it. It returns (z, r), or (None, r) where the bracket, the steps or
    the certificate leave the plain path, or (None, None) where a sum is
    not finite. f and g print as compile_scalar's checked code
    (expr._values): where a value fails it raises a DomainViolation, and
    ZeroDivisionError where r or the certificate divides by zero. The
    failure need not be the one the loops meet first, as the kernel takes
    g at a node before f at the next.

    The nodes are a loop rather than unrolled code, so one code object
    serves every measure: on CPython 3.11 the two run the 32-node sums of
    sin and cos at the same speed, and the unrolled code takes three to
    fifteen times as long to compile.
    """
    def at(point: str) -> tuple[list[str], str, str, int]:
        """The lines of f and g at the point, their values and the number
        of arguments."""
        em = jets.Emitter(route="float", point=point)
        (fv, gv), params = ex._values(em, shapes)
        return em.statements([fv, gv]), fv, gv, len(params)

    lines, fv, gv, n = at("p")
    body = ["num = den = 0.0", "for t, u, w in nodes:", "    p = t * x + u * y",
            *(f"    {line}" for line in lines), f"    num = num + w * {fv}", f"    den = den + w * {gv}",
            "if num - num != 0.0 or den - den != 0.0:", "    return None, None",
            "r = num / den", "a, b = (x, y) if x < y else (y, x)"]
    for end in "ab":
        lines, fv, gv, _ = at(end)
        body += lines + [f"f{end} = {fv} - r * {gv}"]
    body += ["if not (fa < 0.0 < fb or fb < 0.0 < fa):", "    return None, r"]
    lines, fv, gv, _ = at("xcur")
    body += _brent(lines + [f"fcur = {fv} - r * {gv}"], "return None, r", "return None, r")
    lines, fv, gv, _ = at("xcur")
    body += lines + [f"if abs({fv} / {gv} - r) > RESIDUAL_TOL * (1.0 + abs(r)):",
                     "    return None, r", "return xcur, r"]
    params = ", ".join(["nodes"] + [f"c{i}" for i in range(n)])
    source = (f"def factory({params}):\n    def kernel(x, y):\n"
              + "".join(f"        {line}\n" for line in body) + "    return kernel\n")
    return _printed(source, "factory", "mean kernel")


def mean_table(spec: MeanSpec, xs: Sequence[float]) -> np.ndarray:
    """The n x n table of the means of xs[i] and xs[j].

    T[i, j] is mean_eval(spec, xs[i], xs[j]) to within a few ulps, as its
    roots are chandrupatla's and f and g numpy's. The segment integrals
    are the measure's segment_integrals: node by node, with mean_eval's
    arithmetic, for atoms and densities, and exact for the Lebesgue
    measure, whose elements agree with mean_eval only to within its node
    rule's error. One chandrupatla call, given the residuals at the
    bracket ends, finds the off-diagonal roots: of the upper triangle
    only, copied to its mirror, when the measure is symmetric under
    t -> 1 - t. The diagonal is exact. Each
    element, solved or copied, must pass mean_eval's residual certificate
    against its own ratio; one that does not bracket, converge or certify
    is recomputed by mean_eval, which keeps its endpoint fallback and
    raises its BracketFailure.
    """
    xs = np.asarray(xs, dtype=float)
    for x in xs:
        if not spec.pair.contains(x):
            raise OutOfInterval(float(x), spec.pair.interval)
    f, g = ex.compile_array(spec.pair.f), ex.compile_array(spec.pair.g)
    r = spec.measure.segment_integrals(f, xs) / spec.measure.segment_integrals(g, xs)
    mirror = _symmetric(spec.measure)
    solve, lo, hi = _brackets(xs, mirror)
    rs = r[solve]

    def resid(z: np.ndarray, r: np.ndarray) -> np.ndarray:
        return f(z) - r * g(z)

    z, ok = chandrupatla(resid, lo, hi, resid(lo, rs), resid(hi, rs), (rs,))
    ratio = np.full(z.shape, np.nan)
    ratio[ok] = f(z[ok]) / g(z[ok])

    def certified(r: np.ndarray) -> np.ndarray:
        return np.abs(ratio - r) <= RESIDUAL_TOL * (1.0 + np.abs(r))

    return _fill_table(xs, solve, z, certified(rs), lambda x, y: mean_eval(spec, x, y),
                       certified(r.T[solve]) if mirror else None)


def _symmetric(measure: Measure) -> bool:
    """Whether the measure's nodes and weights are invariant under t -> 1 - t."""
    ts, ws = measure._nodes()
    return all(t + u == 1.0 and v == w for t, u, v, w in zip(ts, ts[::-1], ws, ws[::-1]))


def quasiarithmetic_table(
    phi: Callable[[np.ndarray], np.ndarray], xs: Sequence[float]
) -> np.ndarray:
    """The n x n table T[i, j] = quasiarithmetic(phi, xs[i], xs[j]).

    phi must be elementwise on arrays and also accept floats. The target
    and bracket of (i, j) and (j, i) are the same, so the upper triangle is
    solved in one batch and copied to its mirror. An element that does not
    bracket or converge is recomputed, in each order, by quasiarithmetic,
    which raises its BracketFailure.
    """
    xs = np.asarray(xs, dtype=float)
    p = np.asarray(phi(xs), dtype=float)
    solve, lo, hi = _brackets(xs, True)
    target = 0.5 * (p[:, None] + p[None, :])
    c = target[solve]
    z, ok = chandrupatla(lambda z, c: phi(z) - c, lo, hi, phi(lo) - c, phi(hi) - c, (c,))
    ok &= (p[:, None] != p[None, :])[solve]
    return _fill_table(xs, solve, z, ok, lambda x, y: quasiarithmetic(phi, x, y), ok)


def _brackets(xs: np.ndarray, upper: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mask of the elements to solve, xs[i] != xs[j] (only i < j with
    upper), and their brackets in row-major order."""
    X, Y = xs[:, None], xs[None, :]
    solve = np.triu(X != Y, 1) if upper else X != Y
    return solve, np.minimum(X, Y)[solve], np.maximum(X, Y)[solve]


def _fill_table(
    xs: np.ndarray, solve: np.ndarray, z: np.ndarray, ok: np.ndarray,
    scalar: Callable[[float, float], float], mirror_ok: np.ndarray | None = None,
) -> np.ndarray:
    """x on the diagonal, z at the solve mask (and at its transpose, given
    mirror_ok), and the scalar route, row by row, where ok is False."""
    table = np.repeat(xs[:, None], len(xs), axis=1)
    miss = np.zeros(solve.shape, dtype=bool)
    table[solve], miss[solve] = z, ~ok
    if mirror_ok is not None:
        table.T[solve], miss.T[solve] = z, ~mirror_ok
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
    # the jets of phi and psi, as eval_jet gives each, from one kernel
    shapes, consts = ex._value_shapes(phi, psi)
    jet = ex._jet_factory(shapes, 1)(*consts)

    def ratio(z: float) -> float:
        _, dp, _, ds = jet(z)
        if not ds > 0.0:
            raise NotPositive("psi'", z, ds)
        return dp / ds

    lo, hi = (x, y) if x < y else (y, x)
    return _solve_bracketed(lambda z: ratio(z) - target, lo, hi)


def m_curve(spec: MeanSpec, x: float, u: float) -> float:
    """Diagonal section through x: the mean of x + (1-m1)u and x - m1*u,
    with m1 the measure's first raw moment (memoized in moments). u = 0
    returns x exactly."""
    x, u = float(x), float(u)
    mu_hat1 = moments(spec.measure).mu_hat1
    a = x + (1.0 - mu_hat1) * u
    b = x - mu_hat1 * u
    return mean_eval(spec, a, b)

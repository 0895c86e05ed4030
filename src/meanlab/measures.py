"""Borel probability measures on [0,1]: integration, moments, regimes.

Three concrete measures: finite atomic combinations, the Lebesgue measure,
and absolutely continuous measures given by a density expression. Moments
are always centralized at the first raw moment. classify() reads the regime
off mu2, mu3, mu5 and attaches the derived exponents p, q, r that drive the
equality analysis; q and r are present only when their denominators allow.
The composite Gauss-Legendre panels live here too: the Lebesgue measure's
mean tables and the antiderivatives of the equality checks
(CumulativeIntegral) share them.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from . import expr as ex
from . import jets
from .errors import DegenerateMeasure, QuadratureNonFinite

__all__ = [
    "Measure", "Discrete", "Lebesgue", "Density",
    "MomentData", "Regime", "RegimeInfo", "CumulativeIntegral",
    "integrate", "weighted_sum", "moments", "classify",
    "measure_to_json", "measure_from_json", "preset_measure", "PRESETS",
]

MAX_MOMENT_ORDER = 8
ATOM_WEIGHT_TOL = 1e-14
DENSITY_NORM_TOL = 1e-10
DEGENERATE_TOL = 1e-14
MOMENT_ZERO_TOL = 1e-12
# numpy documents leggauss as tested up to degree 100; its cost grows as order^3
MAX_QUADRATURE_ORDER = 100
PANEL_WIDTH = 0.1
PANEL_POINTS = 16

_GL_PANEL = np.polynomial.legendre.leggauss(PANEL_POINTS)


def _check_order(order: int) -> None:
    if order < 2:
        raise ValueError("quadrature order must be at least 2")
    if order > MAX_QUADRATURE_ORDER:
        raise ValueError(f"quadrature order {order!r} is above {MAX_QUADRATURE_ORDER}")


@lru_cache(maxsize=16)
def _gauss_nodes(order: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss-Legendre nodes and weights mapped to [0,1], as Python floats."""
    x, w = np.polynomial.legendre.leggauss(order)
    return tuple(((x + 1.0) / 2.0).tolist()), tuple((w / 2.0).tolist())


def weighted_sum(
    ts: Sequence[float], ws: Sequence[float], values: Iterable
) -> Union[float, np.ndarray]:
    """Left-to-right sum of w * v, v drawn from values one node at a time.

    A non-finite v raises QuadratureNonFinite at its node before the next
    is drawn. An array v is summed elementwise; any other gives a float.
    """
    total = 0.0
    for t, w, v in zip(ts, ws, values):
        if isinstance(v, np.ndarray):
            jets.reject(~np.isfinite(v), lambda i: QuadratureNonFinite(t, float(v.flat[i])))
        elif not math.isfinite(v):
            raise QuadratureNonFinite(t, v)
        total = total + w * v
    return total if isinstance(total, np.ndarray) else float(total)


def _panel_sums(
    func: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """16-point Gauss-Legendre integrals of func over the panels [a[k], b[k]].

    All nodes go to func in one call, laid out (panel, node). Each panel's
    products w * v are summed in node order from 0.0 by a running sum along
    the node axis, with the bits of a loop over the nodes (np.sum's pairwise
    sum would move them).
    """
    nodes, weights = _GL_PANEL
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    ts = mid[:, None] + half[:, None] * nodes
    vs = func(ts)
    jets.reject(~np.isfinite(vs), lambda k: QuadratureNonFinite(float(ts.flat[k]), float(vs.flat[k]), "point"))
    # the leading 0.0 column is the loop's start: 0.0 + -0.0 is 0.0
    terms = np.zeros((len(a), PANEL_POINTS + 1))
    np.multiply(vs, weights, out=terms[:, 1:])
    return half * np.cumsum(terms, axis=1, out=terms)[:, -1]


class CumulativeIntegral:
    """Antiderivative of func anchored to 0 at x0.

    func is elementwise on numpy arrays. The quadrature is composite
    Gauss-Legendre with 16 points per panel of width at most PANEL_WIDTH,
    exact for polynomial integrands up to degree 31. The instance takes a
    float or an array of points. Values at a fixed panel lattice rooted at
    x0 are cached, so repeated evaluation costs one remainder panel per
    point; the lattice depends only on x0, never on the evaluation order or
    on how points are batched.
    """

    def __init__(self, func: Callable[[np.ndarray], np.ndarray], x0: float):
        self.func = func
        self.x0 = float(x0)
        self._fwd = [0.0]
        self._bwd = [0.0]

    def _extend(self, prefix: list[float], k: int, sign: float) -> None:
        if len(prefix) > k:
            return
        a = self.x0 + sign * np.arange(len(prefix) - 1, k) * PANEL_WIDTH
        for s in _panel_sums(self.func, a, a + sign * PANEL_WIDTH).tolist():
            prefix.append(prefix[-1] + s)

    def __call__(self, x: float | np.ndarray) -> float | np.ndarray:
        xa = np.asarray(x, dtype=float)
        xs = xa.ravel()
        fwd = xs >= self.x0
        k = (np.abs(xs - self.x0) / PANEL_WIDTH).astype(int)
        start = np.empty_like(xs)
        base = np.empty_like(xs)
        for mask, prefix, sign in ((fwd, self._fwd, 1.0), (~fwd, self._bwd, -1.0)):
            if mask.any():
                self._extend(prefix, int(k[mask].max()), sign)
                start[mask] = self.x0 + sign * k[mask] * PANEL_WIDTH
                base[mask] = np.asarray(prefix)[k[mask]]
        out = base + _panel_sums(self.func, start, xs)
        return float(out[0]) if xa.ndim == 0 else out.reshape(xa.shape)


class Measure:
    """Base for probability measures on [0,1]."""

    __slots__ = ()

    def _nodes(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        raise NotImplementedError

    def integrate(
        self, integrand: Callable[[float], Union[float, np.ndarray]]
    ) -> Union[float, np.ndarray]:
        """weighted_sum of integrand(t) over the nodes, t a Python float.

        A scalar integrand gives a plain float. An array-valued one gives an
        array, each element summed in the same order with the same
        arithmetic as the scalar integral of that element.
        """
        ts, ws = self._nodes()
        return weighted_sum(ts, ws, map(integrand, ts))

    def segment_integrals(
        self, fn: Callable[[np.ndarray], np.ndarray], xs: np.ndarray
    ) -> np.ndarray:
        """The n x n table of the integrals of fn(t xs[i] + (1 - t) xs[j]) over t.

        fn is elementwise on numpy arrays and xs is 1-d. Each element is
        integrate() of fn at its segment points, summed as its scalar
        integral would be; the Lebesgue measure overrides this.
        """
        X, Y = xs[:, None], xs[None, :]
        return self.integrate(lambda t: fn(t * X + (1.0 - t) * Y))


@dataclass(frozen=True)
class Discrete(Measure):
    """Finite convex combination of point masses sum w_k * delta_{t_k}."""

    atoms: tuple[tuple[float, float], ...]
    _node_tuples: tuple = field(default=((), ()), compare=False, repr=False)

    def __init__(self, atoms):
        pairs = tuple((float(t), float(w)) for t, w in atoms)
        if not pairs:
            raise ValueError("a discrete measure needs at least one atom")
        for t, w in pairs:
            if not (0.0 <= t <= 1.0):
                raise ValueError(f"atom location {t!r} outside [0, 1]")
            if not w > 0.0:
                raise ValueError(f"atom weight {w!r} must be positive")
        total = math.fsum(w for _, w in pairs)
        if abs(total - 1.0) > ATOM_WEIGHT_TOL:
            raise ValueError(f"atom weights sum to {total!r}, not 1")
        object.__setattr__(self, "atoms", pairs)
        object.__setattr__(self, "_node_tuples", tuple(zip(*pairs)))

    def _nodes(self):
        return self._node_tuples


@dataclass(frozen=True)
class Lebesgue(Measure):
    """Uniform measure on [0,1].

    order sets the Gauss-Legendre rule of integrate(), and so of mean_eval's
    segment sums. Tables (segment_integrals) and moments() take the
    measure's exact integral instead, whatever the order, so under
    Lebesgue(order=k) a table element matches mean_eval only to within the
    k-node rule's error (within 1.5e-15 of max(1, |integral|), measured
    at order 32 over six generator families at grid 100).
    """

    order: int = 32

    def __post_init__(self):
        _check_order(self.order)

    def _nodes(self):
        return _gauss_nodes(self.order)

    def segment_integrals(
        self, fn: Callable[[np.ndarray], np.ndarray], xs: np.ndarray
    ) -> np.ndarray:
        """The table from the exact segment integral: for x != y, the
        integral of fn from y to x over x - y, and fn(x) at x = y.

        The distinct points u_0 < ... < u_{m-1} of xs cut their hull into
        cells [u_k, u_k+1], each integrated once by 16-point panels no
        wider than PANEL_WIDTH. The integral from u_p to u_q is the running
        sum of cells p, ..., q-1 along row p, not a difference of
        antiderivative values, so close points lose nothing to
        cancellation; one masked running sum gives the upper triangle,
        whose transpose is the lower. The table is indexed back to xs
        unless xs is u. A non-finite value raises QuadratureNonFinite at
        its grid or panel point.
        """
        u, back = np.unique(xs, return_inverse=True)
        at = fn(u)
        jets.reject(~np.isfinite(at), lambda k: QuadratureNonFinite(float(u[k]), float(at[k]), "point"))
        table = np.diag(at)
        m = len(u)
        if m > 1:
            gap = np.diff(u)
            count = np.ceil(gap / PANEL_WIDTH).astype(int)
            cell = np.repeat(np.arange(m - 1), count)
            first = np.cumsum(count) - count
            # panel k of cell c starts at u_c + k (u_c+1 - u_c) / count_c
            edges = np.append(u[cell] + (np.arange(len(cell)) - first[cell]) * (gap / count)[cell], u[-1])
            cells = np.add.reduceat(_panel_sums(fn, edges[:-1], edges[1:]), first)
            upper = np.arange(m)[:, None] < np.arange(m)
            run = np.cumsum(np.where(upper, np.r_[0.0, cells], 0.0), axis=1)
            with np.errstate(invalid="ignore"):  # the diagonal is 0 / 0 until fill_diagonal
                quotient = run / (u - u[:, None])
            table = np.where(upper, quotient, quotient.T)
            np.fill_diagonal(table, at)
        return table if np.array_equal(u, xs) else table[np.ix_(back, back)]


@dataclass(frozen=True)
class Density(Measure):
    """Measure rho(t) dt with an expression density normalized on [0,1],
    nonnegative at its quadrature nodes."""

    rho: ex.Expr
    order: int = 32
    _weights: tuple[float, ...] = field(default=(), compare=False, repr=False)

    def __init__(self, rho: Union[ex.Expr, str], order: int = 32):
        if isinstance(rho, str):
            rho = ex.parse(rho)
        _check_order(order)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "order", order)
        ts, ws = _gauss_nodes(order)
        rf = ex.compile_scalar(rho)
        values = []
        for t, w in zip(ts, ws):
            v = rf(t)
            if not math.isfinite(v):
                raise QuadratureNonFinite(t, v)
            if v < 0.0:
                raise ValueError(f"density value {v!r} at node {t!r} is negative")
            values.append(w * v)
        norm = math.fsum(values)
        if abs(norm - 1.0) > DENSITY_NORM_TOL:
            raise ValueError(
                f"density integrates to {norm!r} on [0, 1]; expected 1 within {DENSITY_NORM_TOL}"
            )
        # renormalize so the node weights form an exact probability measure
        object.__setattr__(self, "_weights", tuple(v / norm for v in values))

    def _nodes(self):
        ts, _ = _gauss_nodes(self.order)
        return ts, self._weights


def integrate(m: Measure, integrand: Callable[[float], float]) -> float:
    """Integral of the integrand against the measure."""
    return m.integrate(integrand)


@dataclass(frozen=True)
class MomentData:
    """First raw moment and centralized moments mu[n] for n = 0..nmax."""

    mu_hat1: float
    mu: tuple[float, ...]


def moments(m: Measure, nmax: int = 6) -> MomentData:
    """Centralized moments mu_n = integral of (t - mu_hat1)^n, n <= nmax.

    The Lebesgue measure gets its closed form, mu_hat1 = 1/2 and
    mu_n = 1/((n+1) 2^n) for even n, 0 for odd n, so its moments are exact
    and do not depend on the quadrature order or on numpy's Gauss-Legendre
    nodes. Other measures are integrated with their own nodes. The result is
    memoized per (m, nmax), nmax passed explicitly, so moments(m) and
    moments(m, 6) share one entry.
    """
    if not (0 <= nmax <= MAX_MOMENT_ORDER):
        raise ValueError(f"nmax must be between 0 and {MAX_MOMENT_ORDER}")
    return _moments(m, nmax)


@lru_cache(maxsize=ex.KERNEL_SHAPE_CACHE_SIZE)
def _moments(m: Measure, nmax: int) -> MomentData:
    if isinstance(m, Lebesgue):
        mu = tuple(0.0 if n % 2 else 1.0 / ((n + 1) * 2**n) for n in range(nmax + 1))
        return MomentData(mu_hat1=0.5, mu=mu)
    mu_hat1 = m.integrate(lambda t: t)
    mu = [m.integrate(lambda t: 1.0)]
    for n in range(1, nmax + 1):
        mu.append(m.integrate(lambda t, _n=n: (t - mu_hat1) ** _n))
    return MomentData(mu_hat1=mu_hat1, mu=tuple(mu))


moments.cache_clear, moments.cache_info = _moments.cache_clear, _moments.cache_info


class Regime(enum.Enum):
    MU3_NONZERO = "mu3_nonzero"
    MU3_ZERO_MU5_NONZERO = "mu3_zero_mu5_nonzero"
    EVEN_SYMMETRIC = "even_symmetric"


@dataclass(frozen=True)
class RegimeInfo:
    """Classification plus the exponents the equality checks are built on.

    p is defined, as mu4 >= mu2^2 > 0 for nonnegative weights. q and r are
    None whenever their denominators vanish: q needs mu6 != 5 mu2 mu4, and
    r needs mu4 = 3 mu2^2 together with mu6 != 15 mu2^3. moment_condition_6
    carries the raw value of 6 mu6 mu2^2 - mu6 mu4 - 5 mu4^2 mu2, whose
    vanishing marks the measures for which the two exponent scales collapse
    into one power law; collapse is that vanishing, and mu4_matches is
    mu4 = 3 mu2^2, each decided by the zero rule. diagonal_mu is mu2, ...,
    mu6 with mu3 and mu5 zeroed where they vanish, as the diagonal closed
    forms use them. These three stay out of as_dict.
    """

    regime: Regime
    p: float
    q: float | None
    r: float | None
    moment_condition_6: float
    moment_data: MomentData
    diagonal_mu: tuple[float, float, float, float, float]
    mu4_matches: bool
    collapse: bool

    def as_dict(self) -> dict:
        return {
            "regime": self.regime.value,
            "p": self.p,
            "q": self.q,
            "r": self.r,
            "moment_condition_6": self.moment_condition_6,
            "mu_hat1": self.moment_data.mu_hat1,
            "mu": list(self.moment_data.mu),
        }


def _is_zero(value: float, n: int, mu2: float) -> bool:
    # moments of measures on [0,1] are at most 1 in magnitude, so this is
    # an absolute cutoff except for the (impossible here) mu2 > 1 case
    return abs(value) <= MOMENT_ZERO_TOL * max(1.0, mu2 ** (n / 2.0))


@lru_cache(maxsize=ex.KERNEL_SHAPE_CACHE_SIZE)
def classify(m: Measure) -> RegimeInfo:
    """The regime and every moment condition, decided once per measure, from moments to order 6."""
    md = moments(m)
    mu2, mu3, mu4, mu5, mu6 = md.mu[2:7]
    if mu2 <= DEGENERATE_TOL:
        raise DegenerateMeasure(mu2)
    mu3_zero, mu5_zero = _is_zero(mu3, 3, mu2), _is_zero(mu5, 5, mu2)
    if not mu3_zero:
        regime = Regime.MU3_NONZERO
    elif not mu5_zero:
        regime = Regime.MU3_ZERO_MU5_NONZERO
    else:
        regime = Regime.EVEN_SYMMETRIC

    p = 3.0 * mu2 * mu2 / mu4 - 1.0

    q_den = mu6 - 5.0 * mu4 * mu2
    q = None
    if not _is_zero(q_den, 6, mu2):
        q = (mu2 / mu4) * (10.0 * mu4 * mu4 - 3.0 * mu6 * mu2 - 15.0 * mu4 * mu2 * mu2) / q_den

    r = None
    r_den = 3.0 * mu6 - 45.0 * mu2 ** 3
    mu4_matches = _is_zero(mu4 - 3.0 * mu2 * mu2, 4, mu2)
    if mu4_matches and not _is_zero(r_den, 6, mu2):
        r = (7.0 * mu6 - 45.0 * mu2 ** 3) / r_den

    cond6 = 6.0 * mu6 * mu2 * mu2 - mu6 * mu4 - 5.0 * mu4 * mu4 * mu2
    return RegimeInfo(
        regime=regime, p=p, q=q, r=r, moment_condition_6=cond6, moment_data=md,
        diagonal_mu=(mu2, 0.0 if mu3_zero else mu3, mu4, 0.0 if mu5_zero else mu5, mu6),
        mu4_matches=mu4_matches, collapse=_is_zero(cond6, 10, mu2),
    )


# --------------------------------------------------------------- serialization

def measure_to_json(m: Measure) -> dict:
    if isinstance(m, Discrete):
        return {"type": "atoms", "atoms": [[t, w] for t, w in m.atoms]}
    if isinstance(m, Lebesgue):
        if m.order != 32:
            raise ValueError(f"a Lebesgue measure of order {m.order} has no JSON form; only order 32 has")
        return {"type": "lebesgue"}
    if isinstance(m, Density):
        return {"type": "density", "rho": ex.to_string(m.rho), "order": m.order}
    raise TypeError(f"not a measure: {m!r}")


def measure_from_json(data: Union[str, dict]) -> Measure:
    """The measure of a JSON object; a missing, ill-typed or unknown key raises ValueError."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError(f"a measure is a JSON object, not {type(data).__name__}")
    kind = data.get("type")
    if not (isinstance(kind, str) and kind in _JSON_KEYS):
        raise ValueError(f"unknown measure type {kind!r}")
    for key in data:
        if key not in _JSON_KEYS[kind]:
            raise ValueError(f"measure type {kind!r} takes no key {key!r}; its keys are {_JSON_KEYS[kind]}")
    if kind == "atoms":
        atoms = _json_key(data, "atoms", list)
        for atom in atoms:
            # JSON true and false load as bool, a subclass of int
            if not (isinstance(atom, list) and len(atom) == 2 and all(
                    isinstance(v, (int, float)) and not isinstance(v, bool) for v in atom)):
                raise ValueError(f"measure key 'atoms' holds [location, weight] pairs, not {atom!r}")
        return Discrete(tuple((t, w) for t, w in atoms))
    if kind == "lebesgue":
        return Lebesgue()
    order = _json_key(data, "order", int) if "order" in data else 32
    return Density(_json_key(data, "rho", str), order=order)


_JSON_KEYS = {"atoms": ("type", "atoms"), "lebesgue": ("type",), "density": ("type", "rho", "order")}


def _json_key(data: dict, key: str, kind: type):
    if key not in data:
        raise ValueError(f"measure type {data['type']!r} needs the key {key!r}")
    if not isinstance(data[key], kind) or isinstance(data[key], bool):
        raise ValueError(f"measure key {key!r} must be a {kind.__name__}, not {data[key]!r}")
    return data[key]


def preset_measure(name: str) -> Measure:
    """Named measures used throughout: 'ebm' for (delta_0 + delta_1)/2 and
    'lebesgue' for the uniform measure."""
    try:
        return PRESETS[name]()
    except KeyError:
        raise ValueError(f"unknown measure preset {name!r}; known: {sorted(PRESETS)}") from None


PRESETS: dict[str, Callable[[], Measure]] = {
    "ebm": lambda: Discrete(((0.0, 0.5), (1.0, 0.5))),
    "lebesgue": lambda: Lebesgue(),
}

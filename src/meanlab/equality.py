"""Equality diagnostics for two-variable generalized quasiarithmetic means.

Given two admissible generator pairs, the checks in this module decide, at
grid resolution, whether the associated means coincide and why: a direct
2x2 equivalence fit between the pairs, power-law relations between their
Psi coefficient functions with exponents driven by the measure's moments,
and two full assertion ladders for the binary-symmetric measure
(delta_0 + delta_1)/2 and for the Lebesgue measure. check_equality picks
the battery for a measure; a battery's grid has at least 3 distinct points.
Every verdict is a grid certificate: "holds" means the defining residual
stayed below its tolerance on the sampled grid, nothing stronger. Every
battery row comes from one constructor: it holds iff its residual is within
tolerance, unless more than one number or none decides it. Every report
comes from one constructor too, and the three ladders (EBM, ECM, N1.5)
share one opening that decides equivalence before any row. For equivalent
pairs, rows (iv) to (ix) of the EBM and ECM ladders take the first
alternative together, after the fits of (iv) and (v).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from . import calculus, jets, measures
from . import expr as ex
from .calculus import GridSamples, sample
from .errors import IllConditionedFit, NotApplicable, OutOfInterval, QuadratureNonFinite
from .expr import FunctionPair, interior_grid
from .means import MeanSpec, mean_eval, mean_table, quasiarithmetic_table
from .measures import Discrete, Lebesgue, Measure, Regime, RegimeInfo, classify, preset_measure

PANEL_WIDTH = 0.1
PANEL_POINTS = 16
EQUIVALENCE_TOL = 1e-9
DETERMINANT_FLOOR = 1e-10
PHI_PSI_TOL = 1e-9
FIT_TOL = 1e-8
DEFAULT_FIT_GRID = 101
DEFAULT_BATTERY_GRID = 50
# the rows of N2.5 and N3, which take no overrides
_BRANCH_TOLERANCES = {"phi_psi_gap": PHI_PSI_TOL, "fit_residual": FIT_TOL}

GridSpec = Union[int, Sequence[float]]

_GL_PANEL = np.polynomial.legendre.leggauss(PANEL_POINTS)


# ------------------------------------------------------------------- types


@dataclass(frozen=True)
class Matrix2:
    """Coefficients of the pair transform F = a f + b g, G = c f + d g."""

    a: float
    b: float
    c: float
    d: float

    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def norm(self) -> float:
        return math.sqrt(self.a**2 + self.b**2 + self.c**2 + self.d**2)

    def normalized(self) -> "Matrix2":
        """Unit Frobenius norm with the largest entry made positive."""
        entries = (self.a, self.b, self.c, self.d)
        n = self.norm()
        if n == 0.0:
            return self
        lead = max(entries, key=abs)
        s = (1.0 if lead >= 0.0 else -1.0) / n
        return Matrix2(*(s * v for v in entries))

    def apply(self, pair: FunctionPair) -> FunctionPair:
        """Validated image pair (a f + b g, c f + d g), at the pair's order."""

        def combo(u: float, v: float) -> ex.Expr:
            return ex.BinOp(
                "+",
                ex.BinOp("*", ex.Const(u), pair.f),
                ex.BinOp("*", ex.Const(v), pair.g),
            )

        return ex.validate_pair(
            combo(self.a, self.b), combo(self.c, self.d), pair.interval, n=pair.validated_order
        )

    def as_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c, "d": self.d, "det": self.det()}


@dataclass(frozen=True)
class NotEquivalent:
    """Outcome value of a failed equivalence fit; not an error."""

    residual: float

    def as_dict(self) -> dict:
        return {"equivalent": False, "residual": self.residual}


@dataclass(frozen=True)
class QuadraticForm:
    """P(t) = a t^2 + b t + c."""

    a: float
    b: float
    c: float

    def __call__(self, t: float) -> float:
        return (self.a * t + self.b) * t + self.c

    def min_on(self, lo: float, hi: float) -> float:
        """Exact minimum over [lo, hi] (endpoints plus interior vertex)."""
        candidates = [self(lo), self(hi)]
        if self.a != 0.0:
            vertex = -self.b / (2.0 * self.a)
            if lo < vertex < hi:
                candidates.append(self(vertex))
        return min(candidates)


@dataclass(frozen=True)
class AssertionResult:
    """One row of an equality ladder.

    holds is True or False when the check is residual-backed and None when
    it is not decidable by sampling (structural checks with no witness).
    residual is normalized by 1 + scale of the tested quantity except for
    mean gaps, which are absolute.
    """

    assertion_id: str
    holds: bool | None
    residual: float | None
    tolerance: float
    constants: Mapping[str, float | None] = field(default_factory=dict)
    note: str = ""

    def __post_init__(self):
        if self.residual is not None and not self.residual >= 0.0:
            raise ValueError(f"residual must be nonnegative, got {self.residual!r}")
        if self.holds is True and self.residual is not None and self.residual > self.tolerance:
            raise ValueError(
                f"assertion {self.assertion_id}: holds with residual "
                f"{self.residual!r} above tolerance {self.tolerance!r}"
            )

    def as_dict(self) -> dict:
        return {
            "id": self.assertion_id,
            "holds": self.holds,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "constants": dict(self.constants),
            "note": self.note,
        }


@dataclass(frozen=True)
class EqualityReport:
    """Assembled verdicts of one battery over a shared sample grid.

    R_values and S_values are the difference and the sum of the two Psi
    functions on the grid; they carry the raw material behind the power-law
    assertions so reports stay inspectable without rerunning. N2.5 and N3
    have one row, the alternative they took, and no equivalence verdict.
    """

    battery: str
    interval: tuple[float, float]
    grid: tuple[float, ...]
    regime: RegimeInfo
    assertions: tuple[AssertionResult, ...]
    fitted: Mapping[str, float | None]
    R_values: tuple[float, ...]
    S_values: tuple[float, ...]
    equivalence: Union[Matrix2, NotEquivalent, None]
    tolerances: Mapping[str, float]
    notes: tuple[str, ...] = ()

    @property
    def verdict_per_assertion(self) -> dict[str, AssertionResult]:
        return {a.assertion_id: a for a in self.assertions}

    @property
    def all_hold(self) -> bool:
        """True when no residual-backed assertion failed."""
        return all(a.holds is not False for a in self.assertions)

    @property
    def failing(self) -> tuple[str, ...]:
        return tuple(a.assertion_id for a in self.assertions if a.holds is False)

    def as_dict(self) -> dict:
        if self.battery in ("N2.5", "N3"):
            # the flat meanlab-report/1 form of the one-row batteries
            (a,) = self.assertions
            return {
                "battery": self.battery, "regime": self.regime.as_dict(),
                "alternative": a.assertion_id, "holds": a.holds, "residual": a.residual,
                "tolerance": a.tolerance, "note": a.note, **a.constants,
            }
        return {
            "battery": self.battery,
            "interval": list(self.interval),
            "grid": list(self.grid),
            "regime": self.regime.as_dict(),
            "assertions": [a.as_dict() for a in self.assertions],
            "fitted": dict(self.fitted),
            "R_values": list(self.R_values),
            "S_values": list(self.S_values),
            "equivalence": self.equivalence.as_dict(),
            "tolerances": dict(self.tolerances),
            "notes": list(self.notes),
            "all_hold": self.all_hold,
            "failing": list(self.failing),
        }


# ------------------------------------------------------------------ helpers


def _common_interval(pairA: FunctionPair, pairB: FunctionPair) -> tuple[float, float]:
    if tuple(pairA.interval) != tuple(pairB.interval):
        raise ValueError(
            f"pairs live on different intervals {pairA.interval} and {pairB.interval}"
        )
    return pairA.interval


def _resolve_grid(
    interval: tuple[float, float], grid: GridSpec, min_distinct: int = 1
) -> list[float]:
    """That many interior points, at least 3, or the explicit points, each
    inside the interval and at least min_distinct of them distinct."""
    if isinstance(grid, int):
        if grid < 3:
            raise ValueError("grid size must be at least 3")
        return interior_grid(interval, grid)
    lo, hi = interval
    xs = [float(x) for x in grid]
    if not xs:
        raise ValueError("the explicit grid is empty")
    for x in xs:
        if not lo < x < hi:
            raise OutOfInterval(x, interval)
    if len(set(xs)) < min_distinct:
        raise ValueError(f"grid size must be at least {min_distinct}")
    return xs


def _spread(values: np.ndarray) -> float:
    """Relative spread max - min over the mean magnitude."""
    center = abs(float(np.mean(values)))
    width = float(np.max(values) - np.min(values))
    return width / max(center, 1e-300)


def _fit(design: np.ndarray, target: np.ndarray, context: str) -> tuple[list[float], float]:
    """Least-squares coefficients of design @ coef = target, as floats, and
    the sup of |design @ coef - target|; a design whose condition number
    reaches FIT_CONDITION_LIMIT raises IllConditionedFit naming context."""
    if design.ndim == 1:
        design = design[:, None]
    cond = np.linalg.cond(design)
    # the limit is read at call time, so lowering it still takes effect
    if not cond < calculus.FIT_CONDITION_LIMIT:
        raise IllConditionedFit(cond, context=context)
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    return [float(c) for c in coef], float(np.max(np.abs(design @ coef - target)))


# ------------------------------------------------------------ antiderivative


def _panel_sums(
    func: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """16-point Gauss-Legendre integrals of func over the panels [a[k], b[k]].

    All nodes go to func in one call; each panel's weights are summed in
    node order, as a scalar loop over the nodes would.
    """
    nodes, weights = _GL_PANEL
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    ts = mid[:, None] + half[:, None] * nodes
    vs = func(ts)
    jets.reject(~np.isfinite(vs), lambda k: QuadratureNonFinite(float(ts.flat[k]), float(vs.flat[k])))
    total = np.zeros(len(a))
    for k, w in enumerate(weights):
        total += w * vs[:, k]
    return half * total


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


def _phi3_w_integral(
    pair: FunctionPair, e: float, anchor: float, xs: Sequence[float]
) -> np.ndarray:
    """Antiderivative of Phi^3 |W10|^e at xs, 0 at anchor: N3 (iii) and (iv)."""

    def integrand(t: np.ndarray) -> np.ndarray:
        s = sample(pair, t, 0)
        return s.phi[0] ** 3 * np.abs(s.w(1, 0)) ** e

    return CumulativeIntegral(integrand, anchor)(np.asarray(xs))


# --------------------------------------------------------------- equivalence


def _fit_matrix(
    pairA: FunctionPair, pairB: FunctionPair, xs: Sequence[float], tol: float
) -> tuple[Union[Matrix2, NotEquivalent], float]:
    """Normalized least-squares transform of pairA onto pairB and its
    relative residual. The transform is accepted only when the residual is
    at most tol and the matrix is nonsingular; otherwise NotEquivalent."""
    fa = np.array([pairA.f_at(x) for x in xs])
    ga = np.array([pairA.g_at(x) for x in xs])
    fb = np.array([pairB.f_at(x) for x in xs])
    gb = np.array([pairB.g_at(x) for x in xs])
    design = np.column_stack([fa, ga])
    ab, *_ = np.linalg.lstsq(design, fb, rcond=None)
    cd, *_ = np.linalg.lstsq(design, gb, rcond=None)
    rss = float(np.sum((design @ ab - fb) ** 2) + np.sum((design @ cd - gb) ** 2))
    scale = float(np.sum(fb**2) + np.sum(gb**2))
    residual = math.sqrt(rss / max(scale, 1e-300))
    m = Matrix2(float(ab[0]), float(ab[1]), float(cd[0]), float(cd[1])).normalized()
    if residual <= tol and abs(m.det()) >= DETERMINANT_FLOOR:
        return m, residual
    return NotEquivalent(residual), residual


def _equivalence(
    pairA: FunctionPair, pairB: FunctionPair, grid_size: int, tol: float
) -> tuple[Union[Matrix2, NotEquivalent], float]:
    """The one decider of equivalence: the fit of _fit_matrix on grid_size
    interior points, then, for an accepted matrix, the two means under
    (delta_0 + delta_1)/2 at a 3 x 3 spot grid, since equivalent pairs must
    generate the same mean. Returns the matrix or NotEquivalent, with the
    fit residual, or the first spot gap that exceeds its tolerance."""
    interval = _common_interval(pairA, pairB)
    m, residual = _fit_matrix(pairA, pairB, interior_grid(interval, grid_size), tol)
    if isinstance(m, NotEquivalent):
        return m, residual
    spot = preset_measure("ebm")
    sa, sb = MeanSpec(pairA, spot), MeanSpec(pairB, spot)
    pts = interior_grid(interval, 3)
    tol_spot = 1e-8 * (1.0 + max(abs(interval[0]), abs(interval[1])))
    for x in pts:
        for y in pts:
            gap = abs(mean_eval(sa, x, y) - mean_eval(sb, x, y))
            if gap > tol_spot:
                return NotEquivalent(gap), gap
    return m, residual


def fit_equivalence(pairA: FunctionPair, pairB: FunctionPair) -> Union[Matrix2, NotEquivalent]:
    """The 2x2 matrix sending (f, g) to (F, G), or NotEquivalent, fitted on
    DEFAULT_FIT_GRID interior points.

    Accepts only when the relative fit residual is at most EQUIVALENCE_TOL,
    the normalized matrix is nonsingular and the two means agree on a
    coarse spot grid; the batteries decide equivalence the same way.
    """
    return _equivalence(pairA, pairB, DEFAULT_FIT_GRID, EQUIVALENCE_TOL)[0]


# ----------------------------------------------------- necessary conditions


@dataclass(frozen=True)
class PhiPsiGaps:
    """Sup gaps of the two coefficient functions over a grid. They agree iff
    each gap over 1 + its scale (the larger sup of the two) is within tolerance."""

    phi_gap: float
    psi_gap: float
    phi_scale: float
    psi_scale: float
    tolerance: float = PHI_PSI_TOL

    @property
    def phi_resid(self) -> float:
        return self.phi_gap / (1.0 + self.phi_scale)

    @property
    def psi_resid(self) -> float:
        return self.psi_gap / (1.0 + self.psi_scale)

    @property
    def holds(self) -> bool:
        return max(self.phi_resid, self.psi_resid) <= self.tolerance

    def as_dict(self) -> dict:
        return {**dataclasses.asdict(self), "holds": self.holds}


def check_phi_psi(pairA: FunctionPair, pairB: FunctionPair, grid: GridSpec) -> PhiPsiGaps:
    """Compare Phi and Psi of the two pairs pointwise; holds iff both sup
    gaps over 1 + their scale are within PHI_PSI_TOL."""
    xs = _resolve_grid(_common_interval(pairA, pairB), grid)
    return _phi_psi_gaps(sample(pairA, xs, 0), sample(pairB, xs, 0))


def _phi_psi_gaps(sa: GridSamples, sb: GridSamples) -> PhiPsiGaps:
    phi_gap = float(np.max(np.abs(sa.phi[0] - sb.phi[0])))
    psi_gap = float(np.max(np.abs(sa.psi[0] - sb.psi[0])))
    phi_scale = float(max(np.max(np.abs(sa.phi[0])), np.max(np.abs(sb.phi[0]))))
    psi_scale = float(max(np.max(np.abs(sa.psi[0])), np.max(np.abs(sb.psi[0]))))
    return PhiPsiGaps(phi_gap, psi_gap, phi_scale, psi_scale)


def check_power_law_R(
    pairA: FunctionPair, pairB: FunctionPair, measure: Measure, grid: GridSpec
) -> tuple[float, float]:
    """Fit gamma in Psi_A - Psi_B = 2 gamma |W_A|^p and report the residual.

    The exponent p comes from the measure's moments. The returned residual
    is the larger of the fit residual and the residual of the first-order
    consistency law R' = p Phi R, each relative to 1 + the scale of the
    quantity tested. The Phi functions must already agree on the grid;
    otherwise the power law is not applicable.
    """
    p = classify(measure).p
    xs = _resolve_grid(_common_interval(pairA, pairB), grid)
    sa, sb = sample(pairA, xs, 1), sample(pairB, xs, 1)
    if _phi_psi_gaps(sa, sb).phi_resid > PHI_PSI_TOL:
        raise NotApplicable("the Phi functions differ, so no single power law applies")
    R = sa.psi[0] - sb.psi[0]
    (gamma,), fit_gap = _fit(2.0 * np.abs(sa.w(1, 0)) ** p, R, context="power-law gap fit")
    fit_resid = fit_gap / (1.0 + float(np.max(np.abs(R))))
    dR = sa.psi[1] - sb.psi[1]
    ode_gap = np.abs(dR - p * sa.phi[0] * R)
    ode_resid = float(np.max(ode_gap)) / (1.0 + float(np.max(np.abs(dR))))
    return gamma, max(fit_resid, ode_resid)


def _split_law(
    sa: GridSamples, sb: GridSamples, gaps: PhiPsiGaps, p: float, keep: np.ndarray,
    tail: np.ndarray, context: str,
) -> tuple[float, float]:
    """The split law Psi_A = tail + gamma |W_A|^p, Psi_B = tail - gamma |W_A|^p on keep.

    gamma is fitted to Psi_A - Psi_B = 2 gamma |W_A|^p on the whole grid.
    The residual is the larger of the sup gap of both identities on keep
    over 1 + the larger sup |Psi|, and, since equal means need Phi_A =
    Phi_B, the sup Phi gap over 1 + the larger sup |Phi|, as in N1.5 (iv).
    """
    basis = np.abs(sa.w(1, 0)) ** p
    (gamma,), _ = _fit(2.0 * basis, sa.psi[0] - sb.psi[0], context=context)
    psi_gap = 0.0
    if np.any(keep):
        psi_gap = max(
            float(np.max(np.abs(sa.psi[0][keep] - (gamma * basis[keep] + tail)))),
            float(np.max(np.abs(sb.psi[0][keep] - (-gamma * basis[keep] + tail)))),
        )
    return gamma, max(gaps.phi_resid, psi_gap / (1.0 + gaps.psi_scale))


def _report(
    battery: str, regime: RegimeInfo, interval: tuple[float, float], xs: Sequence[float],
    sa: GridSamples, sb: GridSamples, rows: Sequence[AssertionResult],
    tolerances: Mapping[str, float], fitted: Mapping[str, float | None],
    equivalence: Union[Matrix2, NotEquivalent, None] = None, notes: Sequence[str] = (),
) -> EqualityReport:
    """The report of every battery; R and S are the difference and the sum
    of the two Psi functions on the grid."""
    psiA, psiB = sa.psi[0], sb.psi[0]
    return EqualityReport(
        battery=battery, interval=interval, grid=tuple(xs), regime=regime, assertions=tuple(rows),
        fitted=fitted, R_values=tuple((psiA - psiB).tolist()),
        S_values=tuple((psiA + psiB).tolist()), equivalence=equivalence,
        tolerances=dict(tolerances), notes=tuple(notes),
    )


def check_N25(
    pairA: FunctionPair, pairB: FunctionPair, measure: Measure, grid: GridSpec
) -> EqualityReport:
    """Split alternative for measures with mu3 = 0 but mu5 nonzero.

    Either the Psi functions agree outright, or they sit symmetrically
    around the forced combination of Phi' and Phi^2, offset by a fitted
    gamma times |W|^p on each side. Acceptance is by residual only; the
    residual includes the Phi gap of the two pairs.
    """
    info = classify(measure)
    if info.regime is not Regime.MU3_ZERO_MU5_NONZERO:
        raise NotApplicable(
            f"the split alternative needs mu3 = 0 and mu5 nonzero, got regime {info.regime.value}"
        )
    p = info.p
    xs = _resolve_grid(_common_interval(pairA, pairB), grid, 3)
    sa, sb = sample(pairA, xs, 1), sample(pairB, xs, 1)
    phiA, dphiA = sa.phi
    gaps = _phi_psi_gaps(sa, sb)
    if gaps.holds:
        note = "the Psi functions already agree"
        row = _row("psi_equal", gaps.psi_resid, PHI_PSI_TOL, note, gamma=0.0)
    else:
        note = ("" if gaps.phi_resid <= PHI_PSI_TOL
                else "the Phi functions differ; residuals measured against the first pair")
        tail = -0.5 * (4.0 + 3.0 * p) * dphiA - 0.5 * (3.0 + 5.0 * p + 3.0 * p * p) * phiA**2
        gamma, resid = _split_law(sa, sb, gaps, p, np.full(len(xs), True), tail, "split gap fit")
        row = _row("power_law", resid, FIT_TOL, note, gamma=gamma)
    fitted = {"gamma": row.constants["gamma"]}
    return _report("N2.5", info, pairA.interval, xs, sa, sb, [row], _BRANCH_TOLERANCES, fitted)


def _two_sided_fit(
    col: np.ndarray, shared: np.ndarray, targetA: np.ndarray, targetB: np.ndarray, context: str
) -> tuple[list[float], float]:
    """Fit targetA = gamma col + delta shared and targetB = -gamma col +
    delta shared together; returns [gamma, delta] and the sup residual."""
    design = np.vstack([np.column_stack([col, shared]), np.column_stack([-col, shared])])
    return _fit(design, np.concatenate([targetA, targetB]), context=context)


def check_N3(
    pairA: FunctionPair, pairB: FunctionPair, measure: Measure, grid: GridSpec
) -> EqualityReport:
    """Alternative selection for even-symmetric measures (mu3 = mu5 = 0).

    Pairs that share Phi and Psi (the agreement rule of PhiPsiGaps) solve
    one y'' = Phi y' + Psi y, so each is a nonsingular linear image of the
    other and their means agree: they take the alternative "equivalent".
    Otherwise it branches on whether mu6 equals 5 mu2 mu4 and whether mu4
    equals 3 mu2^2, then evaluates the corresponding displayed identity for
    the two Psi functions, fitting the free constants by least squares. The
    integral terms are cumulative quadratures anchored at the interval
    midpoint; their additive constants are absorbed by the fitted delta.
    When the sixth-order moment condition vanishes the two power laws
    collapse and the fitted constants are also reported as alpha and beta.
    Branches (ii) and (iv) also take the Phi gap of the two pairs into
    their residuals.
    """
    info = classify(measure)
    if info.regime is not Regime.EVEN_SYMMETRIC:
        raise NotApplicable(
            f"the even alternatives need mu3 = mu5 = 0, got regime {info.regime.value}"
        )
    md = info.moment_data
    mu2, mu4 = md.mu[2], md.mu[4]
    mu4_matches = measures._is_zero(mu4 - 3.0 * mu2 * mu2, 4, mu2)
    # classify leaves q unset exactly where mu6 = 5 mu2 mu4; one decision serves both
    mu6_matches = info.q is None

    interval = _common_interval(pairA, pairB)
    xs = _resolve_grid(interval, grid, 3)
    n = len(xs)
    sa, sb = sample(pairA, xs, 2), sample(pairB, xs, 0)
    (phiA, dphiA, d2phiA), psiA, psiB = sa.phi, sa.psi[0], sb.psi[0]
    wA = sa.w(1, 0)
    R = psiA - psiB
    gaps = _phi_psi_gaps(sa, sb)
    psi_scale = 1.0 + gaps.psi_scale
    anchor = 0.5 * (interval[0] + interval[1])

    def report(alternative: str, resid: float, grid_used: int, note: str = "",
               tolerance: float = FIT_TOL, **constants):
        named = {k: constants.get(k) for k in ("gamma", "delta", "alpha", "beta", "p", "q", "r")}
        row = _row(alternative, resid, tolerance, note, **named, grid_used=grid_used)
        fitted = {k: named[k] for k in ("gamma", "delta", "alpha", "beta") if named[k] is not None}
        return _report("N3", info, interval, xs, sa, sb, [row], _BRANCH_TOLERANCES, fitted)

    if gaps.holds:
        note = "the pairs share Phi and Psi, so they are equivalent"
        return report("equivalent", max(gaps.phi_resid, gaps.psi_resid), n, note, PHI_PSI_TOL)

    if mu6_matches and mu4_matches:
        # the sixth-order relation collapses to Phi'' = 0
        design = np.column_stack([np.ones(n), np.asarray(xs)])
        _, line_gap = _fit(design, phiA, context="first-degree fit of Phi")
        line_resid = line_gap / (1.0 + float(np.max(np.abs(phiA))))
        r_spread = float(np.max(R) - np.min(R)) / psi_scale
        return report(
            "i", max(line_resid, r_spread), n,
            "Phi at most first degree polynomial; Psi gap constant",
            gamma=float(np.median(R)) / 2.0, p=0.0, q=info.q, r=info.r,
        )

    if mu6_matches and not mu4_matches:
        p = info.p
        keep = np.abs(phiA) > 1e-6
        tail = (
            -(p + 1.0) / (3.0 * p) * d2phiA[keep] / phiA[keep]
            - 0.5 * (2.0 * p + 3.0) * dphiA[keep]
            - (2.0 * p * p + 3.0 * p + 4.0) / 6.0 * phiA[keep] ** 2
        )
        gamma, resid = _split_law(sa, sb, gaps, p, keep, tail, context="power-law gap fit")
        note = ("identity restricted to the subgrid where Phi is nonzero" if np.any(keep)
                else "Phi vanishes on the whole grid; the identity is vacuous there")
        return report("ii", resid, int(np.sum(keep)), note, gamma=gamma, p=p)

    if mu4_matches:
        r = info.r
        J = _phi3_w_integral(pairA, 1, anchor, xs)
        inv_w = 1.0 / np.abs(wA)
        known = -0.5 * r * dphiA + 0.25 * (r - 5.0) * phiA**2 - (3.0 * r - 7.0) / 12.0 * inv_w * J
        (gamma, delta), resid = _two_sided_fit(
            np.ones(n), inv_w, psiA - known, psiB - known,
            context="constant plus inverse-Wronskian fit",
        )
        return report(
            "iii", resid / psi_scale, n, gamma=gamma, delta=delta, p=0.0, q=info.q, r=r
        )

    p, q = info.p, info.q
    c1 = (2.0 * (q - p) * (p + 1.0) - p + 2.0) / (6.0 * p)
    c2 = ((q - p) * (q + 3.0 * p + 1.0) * (p + 1.0) + p * p - 2.0 * p) / (6.0 * p)
    c3 = (q - p) * (2.0 * p + q) * (p + q + 1.0) * (p + 1.0) / (6.0 * p)
    K = np.zeros(n) if c3 == 0.0 else _phi3_w_integral(pairA, -q, anchor, xs)
    basis_p = np.abs(wA) ** p
    basis_q = np.abs(wA) ** q
    known = c1 * dphiA + c2 * phiA**2 + c3 * basis_q * K
    (gamma, delta), resid = _two_sided_fit(
        basis_p, basis_q, psiA - known, psiB - known, context="two-exponent power-law fit"
    )
    # the identity needs Phi_B = Phi_A: their sup gap, scaled as in N1.5 (iv)
    resid = max(gaps.phi_resid, resid / psi_scale)
    collapse = measures._is_zero(info.moment_condition_6, 10, mu2)
    return report(
        "iv", resid, n, "single power law (exponents collapse)" if collapse else "",
        gamma=gamma, delta=delta, p=p, q=q,
        alpha=gamma + delta if collapse else None, beta=delta - gamma if collapse else None,
    )


# ------------------------------------------------- sine and cosine patterns


def _product_factors(e: ex.Expr) -> tuple[float, list[ex.Expr]]:
    """Flatten constant scalars out of a product tree."""
    if isinstance(e, ex.Const):
        return e.value, []
    if isinstance(e, ex.Neg):
        s, fs = _product_factors(e.operand)
        return -s, fs
    if isinstance(e, ex.BinOp) and e.op == "*":
        sl, fl = _product_factors(e.left)
        sr, fr = _product_factors(e.right)
        return sl * sr, fl + fr
    if isinstance(e, ex.BinOp) and e.op == "/" and isinstance(e.right, ex.Const):
        if e.right.value != 0.0:
            sl, fl = _product_factors(e.left)
            return sl / e.right.value, fl
    return 1.0, [e]


def _sc_core(e: ex.Expr) -> tuple[str, float, ex.Expr] | None:
    if isinstance(e, ex.SType):
        return "s", e.t, e.arg
    if isinstance(e, ex.CType):
        return "c", e.t, e.arg
    if isinstance(e, ex.Call):
        kind = {"sin": ("s", -1.0), "cos": ("c", -1.0), "sinh": ("s", 1.0), "cosh": ("c", 1.0)}
        if e.func in kind:
            k, t = kind[e.func]
            return k, t, e.arg
    return None


def _remove_factors(pool: list[ex.Expr], taken: list[ex.Expr]) -> list[ex.Expr] | None:
    """Pool minus taken as multisets, or None when taken is not contained."""
    rest = list(pool)
    for item in taken:
        try:
            rest.remove(item)
        except ValueError:
            return None
    return rest


def _as_product(factors: list[ex.Expr]) -> ex.Expr:
    """The product of a non-empty list of factors, left to right."""
    out = factors[0]
    for f in factors[1:]:
        out = ex.BinOp("*", out, f)
    return out


def _match_sincos(pair: FunctionPair, cauchy: bool) -> tuple[float, ex.Expr, ex.Expr | None] | None:
    """Structural decomposition f = u * S_t(phi), g = u * C_t(phi).

    Constant scalars are ignored on both components. The shared non-constant
    prefactor u is admitted only in the cauchy flavor; returns None whenever
    the trees do not expose the pattern, which is a "cannot decide", not a
    refutation.
    """
    sf, ffac = _product_factors(pair.f)
    sg, gfac = _product_factors(pair.g)
    if sf == 0.0 or sg == 0.0:
        return None

    s_hits = [(i, core) for i, f in enumerate(ffac) if (core := _sc_core(f)) is not None]
    c_hits = [(j, core) for j, g in enumerate(gfac) if (core := _sc_core(g)) is not None]
    for i, (skind, st, sarg) in s_hits:
        if skind != "s":
            continue
        for j, (ckind, ct, carg) in c_hits:
            if ckind != "c" or ct != st or carg != sarg:
                continue
            pre_f = ffac[:i] + ffac[i + 1 :]
            pre_g = gfac[:j] + gfac[j + 1 :]
            if not cauchy:
                if pre_f or pre_g:
                    continue
                return st, sarg, None
            if _remove_factors(pre_f, pre_g) == []:
                return st, sarg, _as_product(pre_f) if pre_f else None

    # flat case t = 0: the cosine side degenerates to a constant; in the
    # cauchy flavor the absent prefactor still faces the derivative check
    if not gfac:
        if ffac:
            return 0.0, _as_product(ffac), None
        return None
    if cauchy:
        leftover = _remove_factors(ffac, gfac)
        if leftover:
            return 0.0, _as_product(leftover), _as_product(gfac)
    return None


def _prefactor_tracks_derivative(
    u_ast: ex.Expr, phi_ast: ex.Expr, interval: tuple[float, float]
) -> float | None:
    """Relative spread of u / phi' on a coarse interior grid, or None."""
    xs = np.array(interior_grid(interval, 9))
    d = ex.eval_jet(phi_ast, xs, 1).derivative_value(1)
    if (np.abs(d) < 1e-12).any():
        return None
    uf = ex.compile_scalar(u_ast)
    return _spread(np.array([uf(x) for x in xs.tolist()]) / d)


def make_sincos_pair(
    alpha: float,
    phi: Union[ex.Expr, str],
    cauchy_flavor: bool = False,
    *,
    interval: tuple[float, float],
) -> FunctionPair:
    """Validated pair (S_alpha of phi, C_alpha of phi), optionally with a
    phi-prime prefactor on both components.

    S_t and C_t are the sine and cosine type fundamental solutions of
    h'' = t h; alpha = 0 degenerates to (phi, 1). Validation errors
    propagate, so a negative alpha whose cosine component crosses zero on
    the interval is rejected as NotPositive.
    """
    phi_ast = ex.parse(phi) if isinstance(phi, str) else phi
    t = float(alpha)
    if t == 0.0:
        f_ast: ex.Expr = phi_ast
        g_ast: ex.Expr = ex.Const(1.0)
    elif t == -1.0:
        f_ast = ex.Call("sin", phi_ast)
        g_ast = ex.Call("cos", phi_ast)
    elif t == 1.0:
        f_ast = ex.Call("sinh", phi_ast)
        g_ast = ex.Call("cosh", phi_ast)
    else:
        f_ast = ex.SType(t, phi_ast)
        g_ast = ex.CType(t, phi_ast)
    if cauchy_flavor:
        d_ast = ex._derivative(phi_ast)
        f_ast = ex.BinOp("*", d_ast, f_ast)
        g_ast = d_ast if t == 0.0 else ex.BinOp("*", d_ast, g_ast)
    return ex.validate_pair(f_ast, g_ast, interval)


# ------------------------------------------------------- assertion ladders

EBM_TOLERANCES: dict[str, float] = {
    "mean_gap": 1e-11,
    "near_diagonal_gap": 1e-11,
    "derivative_gap": 1e-9,
    "phi_psi_gap": PHI_PSI_TOL,
    "fit_residual": FIT_TOL,
    "constancy_spread": 1e-8,
    "equivalence_residual": EQUIVALENCE_TOL,
    "quasiarithmetic_gap": 1e-10,
}

ECM_TOLERANCES: dict[str, float] = dict(EBM_TOLERANCES, mean_gap=1e-10, near_diagonal_gap=1e-10)

N15_TOLERANCES: dict[str, float] = {
    k: EBM_TOLERANCES[k] for k in
    ("mean_gap", "near_diagonal_gap", "derivative_gap", "phi_psi_gap", "equivalence_residual")
}


def _with_overrides(table: Mapping[str, float], overrides: Mapping[str, float] | None) -> dict:
    """The tolerance table with overrides; a name not in the table, or a value
    that is not a positive finite number, raises ValueError."""
    unknown = sorted(set(overrides or ()) - set(table))
    if unknown:
        raise ValueError(f"unknown tolerance {', '.join(unknown)}; known: {', '.join(sorted(table))}")
    # overrides are the only values that come from outside the program
    values = {k: float(v) for k, v in (overrides or {}).items()}
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"tolerance {name} must be positive and finite, got {value}")
    return {**table, **values}


def _is_ebm_measure(m: Measure) -> bool:
    """Whether m has the atoms of the ebm preset, to 1e-12."""
    ebm = preset_measure("ebm").atoms
    if not isinstance(m, Discrete) or len(m.atoms) != len(ebm):
        return False
    return all(
        abs(t - t0) <= 1e-12 and abs(w - w0) <= 1e-12
        for (t, w), (t0, w0) in zip(sorted(m.atoms), ebm)
    )


def _w10_array(pair: FunctionPair) -> Callable[[np.ndarray], np.ndarray]:
    """The Wronskian W10 = f'g - fg' as one array kernel, so subtrees that f,
    g and their derivatives share are computed once per point."""
    f, g = pair.f, pair.g
    return ex.compile_array(ex.BinOp(
        "-", ex.BinOp("*", ex._derivative(f), g), ex.BinOp("*", f, ex._derivative(g))
    ))


_BY_RESIDUAL = object()


def _row(
    assertion_id: str, residual: float | None, tolerance: float, note: str,
    holds: bool | None | object = _BY_RESIDUAL, **constants: float | None,
) -> AssertionResult:
    """One ladder row. It holds iff its residual is within tolerance, unless
    holds is passed: by rows decided by more than one number, and by rows
    that sampling cannot decide."""
    if holds is _BY_RESIDUAL:
        holds = residual <= tolerance
    return AssertionResult(assertion_id, holds, residual, tolerance, constants, note)


def _ladder_head(
    pairA: FunctionPair, pairB: FunctionPair, measure: Measure, grid: GridSpec,
    tols: Mapping[str, float],
) -> tuple[tuple[float, float], list[float], RegimeInfo, Union[Matrix2, NotEquivalent], float,
           list[AssertionResult], np.ndarray, np.ndarray, list[str]]:
    """The opening of every ladder: the common interval, a grid of at least
    3 distinct points, the regime, the equivalence decision on max(n,
    DEFAULT_FIT_GRID) points with its residual, rows (i) and (ii) (the means
    on the square grid and near its diagonal), the two mean tables and the
    first note."""
    interval = _common_interval(pairA, pairB)
    xs = _resolve_grid(interval, grid, 3)
    regime = classify(measure)
    equivalence, eq_resid = _equivalence(
        pairA, pairB, max(len(xs), DEFAULT_FIT_GRID), tols["equivalence_residual"]
    )
    ma = mean_table(MeanSpec(pairA, measure), xs)
    mb = mean_table(MeanSpec(pairB, measure), xs)
    gap = np.abs(ma - mb)
    xcol = np.asarray(xs)
    near = np.abs(xcol[:, None] - xcol[None, :]) <= 0.2 * (interval[1] - interval[0])
    rows = [
        _row("i", float(np.max(gap)), tols["mean_gap"], "the two means agree on the square grid"),
        _row("ii", float(np.max(gap[near])), tols["near_diagonal_gap"],
             "the two means agree near the diagonal"),
    ]
    notes = ["all verdicts are grid certificates at the reported grid"]
    return interval, xs, regime, equivalence, eq_resid, rows, ma, mb, notes


def _rel_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Largest |a - b| / (1 + |a|) over the grid."""
    return float(np.max(np.abs(a - b) / (1.0 + np.abs(a))))


def _quadratic_form_fit(
    s: GridSamples, target: np.ndarray
) -> tuple[QuadraticForm, float, np.ndarray, float]:
    """Least-squares a f^2 + b f g + c g^2 = target on the grid.

    Returns P(t) = a t^2 + b t + c, its relative residual, t = f/g on the
    grid and the minimum of P over the sampled range of t.
    """
    f, g = s.d_f[0], s.d_g[0]
    design = np.column_stack([f**2, f * g, g**2])
    coef, gap = _fit(design, target, context="quadratic form fit")
    resid = gap / (1.0 + float(np.max(np.abs(target))))
    P = QuadraticForm(*coef)
    t = f / g
    return P, resid, t, P.min_on(float(np.min(t)), float(np.max(t)))


def _reconstruction(
    s: GridSamples, P: QuadraticForm, t: np.ndarray, ebm: bool
) -> tuple[float, np.ndarray]:
    """Relative gap between g and the g rebuilt from P, and the
    antiderivative of 1/P at t, anchored mid-range."""
    g = s.d_g[0]
    recon = 1.0 / np.sqrt(P(t)) if ebm else (s.w(1, 0) / g**2) * P(t) ** -1.5
    gap = float(np.max(np.abs(g - recon))) / (1.0 + float(np.max(np.abs(g))))
    anchor = 0.5 * (float(np.min(t)) + float(np.max(t)))
    return gap, CumulativeIntegral(lambda u: 1.0 / P(u), anchor)(t)


def _row_vii(pairA: FunctionPair, pairB: FunctionPair, ebm: bool, tol: float) -> AssertionResult:
    """Row (vii), the sine and cosine type representation, read off the
    expression trees; it stays open whenever they do not show it."""
    matchA = _match_sincos(pairA, cauchy=not ebm)
    matchB = _match_sincos(pairB, cauchy=not ebm)
    if not (matchA and matchB and matchA[1] == matchB[1]):
        note = "not decidable structurally; no sine and cosine type pattern exposed"
        return _row("vii", None, tol, note, holds=None)
    (t_a, phi_ast, preA), (t_b, _, preB) = matchA, matchB
    spreads = [0.0, 0.0]
    if not ebm:
        # cauchy flavor: the prefactor (1 when absent) must be a constant
        # multiple of the derivative of the shared generator
        spreads = [
            _prefactor_tracks_derivative(pre or ex.Const(1.0), phi_ast, pairA.interval)
            for pre in (preA, preB)
        ]
    if None in spreads or max(spreads) > tol:
        note = "prefactor does not track the derivative of the matched generator"
        return _row("vii", None, tol, note, holds=None)
    note = "both pairs expose sine and cosine type components of one generator"
    return _row("vii", max(spreads), tol, note, alpha=t_a, beta=t_b)


def _sincos_battery(
    pairA: FunctionPair, pairB: FunctionPair, grid: GridSpec, measure: Measure | None,
    tolerances: Mapping[str, float] | None, flavor: str,
) -> EqualityReport:
    ebm = flavor == "ebm"
    tols = _with_overrides(EBM_TOLERANCES if ebm else ECM_TOLERANCES, tolerances)
    if measure is None:
        measure = preset_measure("ebm") if ebm else Lebesgue()
    elif ebm and not _is_ebm_measure(measure):
        raise NotApplicable("this ladder is specific to the measure (delta_0 + delta_1)/2")
    elif not ebm and not isinstance(measure, Lebesgue):
        raise NotApplicable("this ladder is specific to the Lebesgue measure")

    interval, xs, regime, equivalence, eq_resid, rows, ma, mb, notes = _ladder_head(
        pairA, pairB, measure, grid, tols
    )
    n = len(xs)
    equivalent = isinstance(equivalence, Matrix2)

    # every later row reads these samples: Phi and Psi to order 4 for (iii)
    sa, sb = sample(pairA, xs, 4), sample(pairB, xs, 4)

    # (iii): diagonal section derivatives of orders 2, 4, 6
    mu = calculus.diagonal_moments(measure)
    da = calculus.diagonal_closed_form(sa.phi, sa.psi, mu)
    db = calculus.diagonal_closed_form(sb.phi, sb.psi, mu)
    worst = {f"gap_order_{k}": _rel_gap(da[k - 1], db[k - 1]) for k in (2, 4, 6)}
    note = "even diagonal derivatives match through order 6"
    a_iii = _row("iii", max(worst.values()), tols["derivative_gap"], note, **worst)

    # pointwise coefficient data shared by the remaining assertions
    phiA, dphiA, psiA, psiB = sa.phi[0], sa.phi[1], sa.psi[0], sb.psi[0]
    wa, wb = sa.w(1, 0), sb.w(1, 0)
    gaps = _phi_psi_gaps(sa, sb)

    # the fits of (iv) and (v) run for every pair, equivalent or not:
    # (iv) Phi equality plus the forced power law for both Psi functions
    if ebm:
        basis = wa**2
        targetA, targetB = psiA, psiB
    else:
        basis = np.abs(wa) ** (2.0 / 3.0)
        tail = dphiA / 3.0 - 2.0 * phiA**2 / 9.0
        targetA, targetB = psiA - tail, psiB - tail
    (alpha,), fitA = _fit(basis, targetA, context="Psi power-law fit")
    (beta,), fitB = _fit(basis, targetB, context="Psi power-law fit")
    phi_gap, fit_resid = gaps.phi_resid, max(fitA, fitB) / (1.0 + gaps.psi_scale)

    # (v) quadratic forms in the generators plus proportional Wronskians
    ratios = wb / wa
    gamma_w = float(np.median(ratios))
    w_spread = _spread(ratios)
    P, residP, ta, P_min = _quadratic_form_fit(sa, np.ones(n) if ebm else np.abs(wa) ** (2.0 / 3.0))
    Q, residQ, tb, Q_min = _quadratic_form_fit(sb, np.ones(n) if ebm else np.abs(wb) ** (2.0 / 3.0))
    positive = P_min > 0.0 and Q_min > 0.0

    delta_vi: float | None = None
    if equivalent:
        # rows (iv) to (ix) all take the first alternative
        alpha = beta = None
        note = "first alternative: the pairs are equivalent"
        later = [
            _row(k, eq_resid, tols["equivalence_residual"], note, equivalent=1.0)
            for k in ("iv", "v", "vi", "vii", "viii", "ix")
        ]
    else:
        a_iv = _row(
            "iv", max(phi_gap, fit_resid), max(tols["phi_psi_gap"], tols["fit_residual"]),
            "shared Phi and power-law Psi with the fitted constants",
            holds=phi_gap <= tols["phi_psi_gap"] and fit_resid <= tols["fit_residual"],
            alpha=alpha, beta=beta, phi_gap=phi_gap,
        )
        a_v = _row(
            "v", max(residP, residQ, w_spread), max(tols["fit_residual"], tols["constancy_spread"]),
            "quadratic forms in the generators; Wronskians proportional"
            + ("" if positive else "; fitted quadratic not positive on the sampled range"),
            holds=max(residP, residQ) <= tols["fit_residual"]
            and w_spread <= tols["constancy_spread"]
            and positive,
            P_a=P.a, P_b=P.b, P_c=P.c, Q_a=Q.a, Q_b=Q.b, Q_c=Q.c,
            gamma=gamma_w, wronskian_ratio_spread=w_spread,
        )

        # (vi): reconstruct the generators from the fitted quadratics
        if positive:
            rg, v = _reconstruction(sa, P, ta, ebm)
            rG, u = _reconstruction(sb, Q, tb, ebm)
            design = np.column_stack([v, np.ones(n)])
            (slope, delta_vi), r_gap = _fit(design, u, context="antiderivative relation fit")
            r_rel = r_gap / (1.0 + float(np.max(np.abs(u))))
            a_vi = _row(
                "vi", max(rg, rG, r_rel), tols["fit_residual"],
                "generators rebuilt from the quadratics; antiderivatives affinely related",
                **{"gamma" if ebm else "gamma_cuberoot": slope, "delta": delta_vi},
            )
        else:
            note = "no admissible quadratic forms to reconstruct from"
            a_vi = _row("vi", None, tols["fit_residual"], note, holds=False)

        a_vii = _row_vii(pairA, pairB, ebm, tols["fit_residual"])

        # (viii) and (ix): both means against the quasiarithmetic mean of
        # the Wronskian antiderivative
        w10 = _w10_array(pairA)
        integrand = w10 if ebm else lambda t: np.cbrt(w10(t))
        phi_int = CumulativeIntegral(integrand, 0.5 * (interval[0] + interval[1]))
        idx = np.arange(0, n, max(1, n // 12))
        z = quasiarithmetic_table(phi_int, np.asarray(xs)[idx])
        sub = np.ix_(idx, idx)
        aphi_gap = float(max(np.max(np.abs(ma[sub] - z)), np.max(np.abs(mb[sub] - z))))
        later = [
            a_iv, a_v, a_vi, a_vii,
            _row(
                "viii", aphi_gap, tols["quasiarithmetic_gap"],
                "both means equal the quasiarithmetic mean of the Wronskian antiderivative",
                subgrid=float(len(idx)),
            ),
            _row(
                "ix", aphi_gap, tols["quasiarithmetic_gap"],
                "witnessed by the antiderivative generator from (viii)",
            ),
        ]

    assertions = [*rows, a_iii, *later]

    if not ebm:
        # constancy of the third-order Wronskian combination; meaningful
        # only when the power-law assertion holds, not by equivalence
        spreads, values = [], []
        for s in (sa, sb):
            w10 = np.abs(s.w(1, 0))
            es = (3.0 * s.w(3, 0) + 12.0 * s.w(2, 1)) / w10 ** (5.0 / 3.0)
            es = es - 5.0 * s.w(2, 0) ** 2 / w10 ** (8.0 / 3.0)
            spreads.append(_spread(es))
            values.append(float(np.mean(es)))
        forced = not equivalent and later[0].holds
        note = "third-order Wronskian combination is constant for each pair"
        assertions.append(_row(
            "exp", max(spreads), tols["constancy_spread"],
            note if forced else "constancy is only forced when the power-law assertion holds",
            holds=_BY_RESIDUAL if forced else None, value_A=values[0], value_B=values[1],
        ))

    by_id = {a.assertion_id: a for a in assertions}
    for upstream, downstream in (("ix", "i"), ("ix", "ii"), ("ix", "iii"), ("i", "ii")):
        if by_id[upstream].holds is True and by_id[downstream].holds is False:
            notes.append(
                f"ladder violation: ({upstream}) holds but ({downstream}) fails; "
                "inspect tolerances and grid"
            )

    return _report(
        "EBM" if ebm else "ECM", regime, interval, xs, sa, sb, assertions, tols,
        {"alpha": alpha, "beta": beta, "gamma": gamma_w, "delta": delta_vi}, equivalence, notes,
    )


def check_EBM(
    pairA: FunctionPair, pairB: FunctionPair, grid: GridSpec = DEFAULT_BATTERY_GRID,
    measure: Measure | None = None, tolerances: Mapping[str, float] | None = None,
) -> EqualityReport:
    """Nine-assertion equality ladder under the measure (delta_0 + delta_1)/2.

    The assertions run from raw mean agreement through diagonal derivative
    matching, the squared-Wronskian power law for Psi, unit quadratic forms
    in the generators, generator reconstruction, the sine and cosine type
    representation, and finally reduction of both means to a quasiarithmetic
    mean of the Wronskian antiderivative. For equivalent pairs rows (iv)
    to (ix) take the first alternative together.
    """
    return _sincos_battery(pairA, pairB, grid, measure, tolerances, "ebm")


def check_ECM(
    pairA: FunctionPair, pairB: FunctionPair, grid: GridSpec = DEFAULT_BATTERY_GRID,
    measure: Measure | None = None, tolerances: Mapping[str, float] | None = None,
) -> EqualityReport:
    """Nine-assertion equality ladder under the Lebesgue measure.

    Mirrors the binary-symmetric ladder with exponent 2/3 forms: the Psi
    power law gains the forced Phi' and Phi^2 terms, the quadratic forms
    target the 2/3 power of the Wronskians, reconstruction carries the
    derivative prefactor, and the antiderivative generator integrates the
    cube root of the Wronskian. An extra row reports the constancy of the
    third-order Wronskian combination for each pair.
    """
    return _sincos_battery(pairA, pairB, grid, measure, tolerances, "ecm")


def check_N15(
    pairA: FunctionPair, pairB: FunctionPair, measure: Measure,
    grid: GridSpec = DEFAULT_BATTERY_GRID, tolerances: Mapping[str, float] | None = None,
) -> EqualityReport:
    """Five-assertion ladder for measures with nonzero third moment.

    (i) mean agreement on the square grid, (ii) agreement near the
    diagonal, (iii) diagonal derivatives of orders 2 and 3, (iv) equality
    of Phi and Psi, (v) equivalence of the pairs. For measures with mu3
    close to zero the ladder still runs but its one-way implications are
    not guaranteed, and the report says so.
    """
    tols = _with_overrides(N15_TOLERANCES, tolerances)
    interval, xs, regime, equivalence, eq_resid, rows, _, _, notes = _ladder_head(
        pairA, pairB, measure, grid, tols
    )
    mu2, mu3 = regime.moment_data.mu[2], regime.moment_data.mu[3]
    if regime.regime is not Regime.MU3_NONZERO:
        notes.append(
            "mu3 vanishes for this measure, so failing later rows does not "
            "certify unequal means by the third-order route"
        )

    sa, sb = sample(pairA, xs, 1), sample(pairB, xs, 1)
    worst2 = _rel_gap(mu2 * sa.phi[0], mu2 * sb.phi[0])
    # third diagonal derivative: mu3 times the third recursion value
    m3a, m3b = (mu3 * (s.phi[1] + s.phi[0] * s.phi[0] + s.psi[0]) for s in (sa, sb))
    worst3 = _rel_gap(m3a, m3b)
    a_iii = _row(
        "iii", max(worst2, worst3), tols["derivative_gap"],
        "diagonal derivatives match at orders 2 and 3", gap_order_2=worst2, gap_order_3=worst3,
    )

    gaps = _phi_psi_gaps(sa, sb)
    a_iv = _row(
        "iv", max(gaps.phi_resid, gaps.psi_resid), tols["phi_psi_gap"],
        "the coefficient functions Phi and Psi agree", phi_gap=gaps.phi_gap, psi_gap=gaps.psi_gap,
    )

    equivalent = isinstance(equivalence, Matrix2)
    a_v = _row(
        "v", eq_resid, tols["equivalence_residual"],
        "the pairs are related by a nonsingular two by two matrix"
        if equivalent
        else "no matrix relates the pairs within tolerance",
        holds=equivalent, **({"det": equivalence.det()} if equivalent else {}),
    )
    return _report(
        "N1.5", regime, interval, xs, sa, sb, [*rows, a_iii, a_iv, a_v], tols,
        dict.fromkeys(("alpha", "beta", "gamma", "delta")), equivalence, notes,
    )


def check_equality(
    pairA: FunctionPair, pairB: FunctionPair, measure: Measure,
    grid: GridSpec = DEFAULT_BATTERY_GRID, tolerances: Mapping[str, float] | None = None,
) -> EqualityReport:
    """Run the battery that answers the equality question for this measure.

    The preset (delta_0 + delta_1)/2 runs check_EBM and the Lebesgue
    measure check_ECM. Any other measure goes by its moment regime: mu3
    nonzero to check_N15, mu3 = 0 with mu5 nonzero to check_N25, and
    otherwise to check_N3. Only the three ladders take tolerance overrides.
    """
    if _is_ebm_measure(measure):
        return check_EBM(pairA, pairB, grid, measure, tolerances)
    if isinstance(measure, Lebesgue):
        return check_ECM(pairA, pairB, grid, measure, tolerances)
    regime = classify(measure).regime
    if regime is Regime.MU3_NONZERO:
        return check_N15(pairA, pairB, measure, grid, tolerances)
    if regime is Regime.MU3_ZERO_MU5_NONZERO:
        battery, check = "N2.5", check_N25
    else:
        battery, check = "N3", check_N3
    if tolerances:
        raise ValueError(f"battery {battery} takes no tolerance overrides")
    return check(pairA, pairB, measure, grid)

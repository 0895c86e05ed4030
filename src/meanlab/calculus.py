"""Wronskian calculus for generator pairs.

Everything here is jet-based: the (i,j)-order Wronskians, the logarithmic
derivative pair Phi = W20/W10 and Psi = -W21/W10, the recursion that writes
h^(i) in the basis (h', h), and the closed forms for the first six
derivatives of the diagonal section u -> M(x + (1-m1)u, x - m1*u) at u = 0.
The recursion and the closed forms are independent routes to the same
numbers, and a least-squares sampling oracle gives a third route that never
touches jets at all.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import expr as ex
from . import jets
from .errors import (
    IllConditionedFit,
    OrderOutOfRange,
    OutOfInterval,
    WronskianVanishes,
)
from .expr import FunctionPair
from .jets import Jet, at, first_failure, reject
from .means import MeanSpec, m_curve
from .measures import Measure, classify, moments

__all__ = [
    "PhiPsi", "SeqPair",
    "GridSamples", "sample",
    "wronskian", "phi_psi", "recursion_seq", "closed_form_seq",
    "diagonal_closed_form",
    "diagonal_derivatives", "diagonal_derivatives_numeric",
]

FIT_CONDITION_LIMIT = 1e8
ORACLE_NODES = 17
ORACLE_DEGREE = 8
# the oracle's Chebyshev nodes in u/h, its fit matrix and that matrix's
# condition number are fixed, so they are built once
_ORACLE_SCALED = tuple(math.cos(math.pi * (j + 0.5) / ORACLE_NODES) for j in range(ORACLE_NODES))
_ORACLE_DESIGN = np.vander(np.asarray(_ORACLE_SCALED), ORACLE_DEGREE + 1, increasing=True)
_ORACLE_DESIGN.flags.writeable = False
_ORACLE_COND = float(np.linalg.cond(_ORACLE_DESIGN))


@dataclass(frozen=True)
class PhiPsi:
    """Jets of Phi and Psi at a common point, order at most 4."""

    x: float
    phi_jet: Jet
    psi_jet: Jet

    def phi(self, k: int = 0) -> float:
        """k-th derivative of Phi at x."""
        return self.phi_jet.derivative_value(k)

    def psi(self, k: int = 0) -> float:
        return self.psi_jet.derivative_value(k)


@dataclass(frozen=True)
class SeqPair:
    """Values of the recursion sequences phi_i, psi_i at a point."""

    x: float
    phi: tuple[float, ...]
    psi: tuple[float, ...]


def wronskian(pair: FunctionPair, x: float, i: int, j: int) -> float:
    """Determinant f^(i) g^(j) - f^(j) g^(i) at x."""
    k = max(i, j)
    if min(i, j) < 0 or k > pair.validated_order:
        raise OrderOutOfRange(
            f"Wronskian order ({i}, {j}) outside the validated order {pair.validated_order}"
        )
    jf, jg = ex.pair_jets(pair, x, k)
    return jf.derivative_value(i) * jg.derivative_value(j) - jf.derivative_value(
        j
    ) * jg.derivative_value(i)


def _check_phi_psi_order(pair: FunctionPair, order: int) -> None:
    if order < 0 or order + 2 > pair.validated_order:
        raise OrderOutOfRange(
            f"Phi/Psi jets of order {order} need the pair validated to order {order + 2}"
        )


def _phi_psi_jets(jf: Jet, jg: Jet, order: int) -> tuple[Jet, Jet]:
    """Jets of Phi = W20/W10 and Psi = -W21/W10 from pair jets of order order + 2."""
    x = jf.base_point
    out = _phi_psi_kernel(order)(x, ex.TOL_WRONSKIAN, *jf.coeffs, *jg.coeffs)
    return Jet(x, out[: order + 1]), Jet(x, out[order + 1 :])


def _vanishing(small, x, w10) -> None:
    reject(small, lambda i: WronskianVanishes(at(x, i), at(w10, i)))


def _shift(em: jets.Emitter, c: list) -> list:
    """The coefficients of h' from those of h; the order drops by one."""
    return [em.mul(c[k + 1], k + 1) for k in range(len(c) - 1)]


@lru_cache(maxsize=jets.MAX_ORDER + 1)
def _phi_psi_kernel(order: int):
    """kernel(x, tol, f_0..f_{order+2}, g_0..g_{order+2}) -> the coefficients
    of Phi, then of Psi, printed once per order from the jets templates.

    The Wronskian jets W10 = f'g - fg', W20 = f''g - fg'' and W21 = f''g' -
    f'g'' come from the derivative shifts of the pair jets; |W10| < tol
    raises WronskianVanishes before the two divisions.
    """
    em = jets.Emitter()
    f = [f"f{k}" for k in range(order + 3)]
    g = [f"g{k}" for k in range(order + 3)]

    def wronskian(a, b, c, d) -> list:
        ab, cd = jets.mul_rule(em, a, b), jets.mul_rule(em, c, d)
        return [em.sub(p, q) for p, q in zip(ab, cd)]

    n = order + 1
    f1, g1 = _shift(em, f), _shift(em, g)
    f2, g2 = _shift(em, f1), _shift(em, g1)
    f0, g0, f1, g1 = f[:n], g[:n], f1[:n], g1[:n]
    w10, w20, w21 = wronskian(f1, g0, f0, g1), wronskian(f2, g0, f0, g2), wronskian(f2, g1, f1, g2)
    em.check("abs({}) < tol", f"_vanishing({{}}, x, {w10[0]})", w10[0])
    phi = jets.div_rule(em, w20, w10)
    psi = [em.neg(v) for v in jets.div_rule(em, w21, w10)]
    source = f"def kernel(x, tol, {', '.join(f + g)}):\n{em.body(phi + psi, '    ')}"
    names = {**jets.NAMES, "_vanishing": _vanishing}
    return jets.compile_source(source, names, "phi/psi kernel")["kernel"]


def phi_psi(pair: FunctionPair, x: float, order: int = 4) -> PhiPsi:
    """Jets of Phi = W20/W10 and Psi = -W21/W10 at x.

    Needs pair jets of order order + 2, so the validated order bounds the
    reachable jet order of Phi and Psi.
    """
    _check_phi_psi_order(pair, order)
    phi_jet, psi_jet = _phi_psi_jets(*ex.pair_jets(pair, x, order + 2), order)
    return PhiPsi(x=x, phi_jet=phi_jet, psi_jet=psi_jet)


@dataclass(frozen=True)
class GridSamples:
    """Derivatives of a pair and of its Phi and Psi at every point of a grid.

    Each array has the shape of xs: d_f[k] and d_g[k] hold f^(k) and g^(k)
    for k <= order + 2, and phi[k] and psi[k] hold Phi^(k) and Psi^(k) for
    k <= order. Every value equals the pointwise wronskian and phi_psi
    value bit for bit, since jet coefficients never depend on the order.
    """

    d_f: tuple[np.ndarray, ...]
    d_g: tuple[np.ndarray, ...]
    phi: tuple[np.ndarray, ...]
    psi: tuple[np.ndarray, ...]

    def w(self, i: int, j: int) -> np.ndarray:
        """Wronskian f^(i) g^(j) - f^(j) g^(i) on the grid."""
        return self.d_f[i] * self.d_g[j] - self.d_f[j] * self.d_g[i]


def sample(pair: FunctionPair, xs, order: int) -> GridSamples:
    """One pass of pair jets of order order + 2 over the points xs, any shape;
    raises what phi_psi raises, at the first offending point in C order."""
    _check_phi_psi_order(pair, order)

    def run(pts):
        jf, jg = ex.pair_jets(pair, pts, order + 2)
        return (jf, jg, *_phi_psi_jets(jf, jg, order))

    with np.errstate(over="ignore", invalid="ignore"):
        jets = first_failure(run, np.asarray(xs, dtype=float))
    d_f, d_g, phi, psi = (tuple(j.derivative_value(k) for k in range(j.order + 1)) for j in jets)
    return GridSamples(d_f=d_f, d_g=d_g, phi=phi, psi=psi)


@lru_cache(maxsize=jets.MAX_ORDER + 1)
def _recursion_kernel(n: int):
    """kernel(Phi_0..Phi_{n-2}, Psi_0..Psi_{n-2}) -> (phi_0..phi_n, psi_0..psi_n),
    printed once per depth n from the unfolded jets templates.

    A step takes the jets of phi_i and psi_i, of order m + 1, to those of
    phi_{i+1} = phi_i' + phi_i * Phi + psi_i and psi_{i+1} = phi_i * Psi +
    psi_i' at order m, the order of the shifts; the outputs are the
    constant terms.
    """
    em = jets.Emitter()
    P, Q = [f"p{k}" for k in range(n - 1)], [f"q{k}" for k in range(n - 1)]
    phi_i, psi_i = [1.0] + [0.0] * (n - 1), [0.0] * n
    phis, psis = [0.0, 1.0], [1.0, 0.0]
    for m in range(n - 1, 0, -1):
        d_phi, d_psi = _shift(em, phi_i), _shift(em, psi_i)
        by_phi, by_psi = jets.mul_rule(em, phi_i[:m], P[:m]), jets.mul_rule(em, phi_i[:m], Q[:m])
        phi_i = [em.add(em.add(d, c), e) for d, c, e in zip(d_phi, by_phi, psi_i)]
        psi_i = [em.add(c, d) for c, d in zip(by_psi, d_psi)]
        phis.append(phi_i[0])
        psis.append(psi_i[0])
    source = f"def kernel({', '.join(P + Q)}):\n{em.body(phis + psis, '    ')}"
    return jets.compile_source(source, jets.NAMES, "recursion kernel")["kernel"]


def recursion_seq(pair: FunctionPair, x: float, n: int = 6) -> SeqPair:
    """Run the derivative-elimination recursion on the jets of Phi and Psi.

    phi_{i+1} = phi_i' + phi_i * Phi + psi_i and psi_{i+1} = phi_i * Psi +
    psi_i', seeded by phi_1 = 1, psi_1 = 0; the order-0 entries are the
    definitional phi_0 = 0, psi_0 = 1. Jet orders shrink by one per step,
    which is why n is capped by the order of the Phi/Psi jets.
    """
    if n < 2 or n > 6:
        raise OrderOutOfRange(f"recursion depth n = {n} outside 2..6")
    pp = phi_psi(pair, x, order=n - 2)
    out = _recursion_kernel(n)(*pp.phi_jet.coeffs, *pp.psi_jet.coeffs)
    return SeqPair(x=x, phi=out[: n + 1], psi=out[n + 1 :])


def _seq_closed_form(phi, psi) -> tuple[tuple, tuple]:
    """The displayed polynomial formulas for phi_i, psi_i up to i = 6.

    phi and psi hold Phi, Psi and their first four derivatives, as floats
    or as arrays over a grid. Powers are written as products, so a float
    and an array element round alike.
    """
    P, P1, P2, P3, P4 = phi
    Q, Q1, Q2, Q3, Q4 = psi
    PP, QQ, P1P1 = P * P, Q * Q, P1 * P1
    PPP = PP * P
    seq_phi = (
        0.0,
        1.0,
        P,
        P1 + PP + Q,
        P2 + 3 * P1 * P + PPP + 2 * P * Q + 2 * Q1,
        P3 + 4 * P2 * P + 3 * P1P1 + 6 * P1 * PP + PP * PP
        + (4 * P1 + 3 * PP) * Q + 5 * P * Q1 + QQ + 3 * Q2,
        P4 + 5 * P3 * P + 10 * P2 * P1 + 10 * P2 * PP + 10 * P1 * PPP
        + 15 * P1P1 * P + PP * PPP + 3 * P * QQ
        + (7 * P2 + 15 * P1 * P + 4 * PPP) * Q
        + (12 * P1 + 9 * PP) * Q1 + 9 * P * Q2 + 6 * Q1 * Q + 4 * Q3,
    )
    seq_psi = (
        1.0,
        0.0,
        Q,
        P * Q + Q1,
        (2 * P1 + PP) * Q + P * Q1 + QQ + Q2,
        2 * P * QQ + (3 * P2 + 5 * P1 * P + PPP) * Q
        + (3 * P1 + PP) * Q1 + P * Q2 + 4 * Q1 * Q + Q3,
        (6 * P1 + 3 * PP) * QQ
        + (4 * P3 + 9 * P2 * P + 8 * P1P1 + 9 * P1 * PP + PP * PP) * Q
        + (4 * P1 + PP) * Q2 + (6 * P2 + 7 * P1 * P + PPP) * Q1
        + P * (Q3 + 9 * Q1 * Q) + QQ * Q + 4 * Q1 * Q1 + 7 * Q2 * Q + Q4,
    )
    return seq_phi, seq_psi


def closed_form_seq(pair: FunctionPair, x: float) -> SeqPair:
    """Evaluate the displayed polynomial formulas for phi_i, psi_i up to 6."""
    pp = phi_psi(pair, x, order=4)
    phi, psi = _seq_closed_form(
        [pp.phi(k) for k in range(5)], [pp.psi(k) for k in range(5)]
    )
    return SeqPair(x=x, phi=phi, psi=psi)


def diagonal_closed_form(phi, psi, mu: tuple[float, ...]) -> tuple:
    """(m'(0), ..., m^(6)(0)) from Phi, Psi and their first four derivatives.

    phi and psi are as in the phi_i, psi_i closed forms, floats or arrays;
    mu is measures.RegimeInfo.diagonal_mu.
    """
    mu2, mu3, mu4, mu5, mu6 = mu
    P, P1, P2 = phi[:3]
    Q, Q1, Q2 = psi[:3]
    PP, QQ = P * P, Q * Q
    PPP = PP * P
    seq = _seq_closed_form(phi, psi)[0]
    m1 = 0.0
    m2 = mu2 * P
    m3 = mu3 * seq[3]
    m4 = -3 * mu2**2 * (PPP + 2 * P * Q) + mu4 * seq[4]
    m5 = (
        -10 * mu3 * mu2 * (PP * P1 + PP * PP + (P1 + 3 * PP) * Q + P * Q1 + QQ)
        + mu5 * seq[5]
    )
    m6 = (
        15 * mu2**3 * (-P1 * PPP + 2 * PP * PPP + 8 * PPP * Q + 6 * P * QQ)
        - 10
        * mu3**2
        * (
            P1 * P1 * P + 2 * P1 * PPP + PP * PPP + 3 * P * QQ
            + 4 * (P1 * P + PPP) * Q + 2 * (P1 + PP) * Q1 + 2 * Q1 * Q
        )
        - 15
        * mu2
        * mu4
        * (
            P2 * PP + 3 * P1 * PPP + PP * PPP + 3 * P * QQ
            + (P2 + 5 * P1 * P + 4 * PPP) * Q + 3 * PP * Q1 + P * Q2 + 2 * Q1 * Q
        )
        + mu6 * seq[6]
    )
    return (m1, m2, m3, m4, m5, m6)


def diagonal_derivatives(
    pair: FunctionPair, measure: Measure, x: float
) -> tuple[float, ...]:
    """Closed forms for the first six derivatives of the diagonal section.

    Returns (m'(0), ..., m^(6)(0)). Odd entries are proportional to the odd
    moments; when mu3 or mu5 vanish to tolerance they are zeroed outright so
    symmetric measures report exact structural zeros instead of noise.
    """
    mu = classify(measure).diagonal_mu
    pp = phi_psi(pair, x, order=4)
    return diagonal_closed_form(
        [pp.phi(k) for k in range(5)], [pp.psi(k) for k in range(5)], mu
    )


def diagonal_derivatives_numeric(
    pair: FunctionPair,
    measure: Measure,
    x: float,
    h: float | None = None,
) -> tuple[float, ...]:
    """Sampling oracle for the diagonal derivatives, independent of jets.

    Samples the diagonal section at Chebyshev nodes in u, fits one
    polynomial of degree 8 by least squares in the scaled variable u/h, and
    reads the derivatives of orders 1 to 6 off the coefficients. The default
    radius h fills most of the room the interval leaves around x, since the
    k = 6 coefficient amplifies sampling noise like 1/h^6. A radius that is
    not finite and positive, whose sixth power is not a normal float, or
    whose sections collapse to a point raises ValueError.
    """
    lo, hi = pair.interval
    if not pair.contains(x):
        raise OutOfInterval(x, pair.interval)
    mu_hat1 = moments(measure).mu_hat1
    wmax = max(mu_hat1, 1.0 - mu_hat1, 1e-9)
    dist = min(x - lo, hi - x)
    if h is None:
        # the k = 6 read-off amplifies node noise like 1/h^6 while the fit's
        # unmodeled tail contaminates it like h^4; 0.12 keeps the tail a few
        # orders below the k = 5, 6 budget with noise still far underneath
        h = min(0.12, 0.8 * dist / wmax)
    _check_radius(h, x, mu_hat1)
    spec = MeanSpec(pair=pair, measure=measure)
    values = [m_curve(spec, x, h * s) for s in _ORACLE_SCALED]
    # the limit is read at call time, so lowering it still takes effect
    if _ORACLE_COND > FIT_CONDITION_LIMIT:
        raise IllConditionedFit(_ORACLE_COND, context="diagonal derivative oracle")
    coef, *_ = np.linalg.lstsq(_ORACLE_DESIGN, np.asarray(values), rcond=None)
    return tuple(float(coef[k]) * math.factorial(k) / h**k for k in range(1, 7))


def _check_radius(h: float, x: float, mu_hat1: float) -> None:
    """The oracle divides by h**k for k <= 6 and samples the sections
    through x at u = h*s; each must be a usable number."""
    if not math.isfinite(h):
        raise ValueError(f"radius {h!r} must be finite")
    if not h > 0.0:
        raise ValueError(f"radius {h!r} must be positive")
    try:
        power = h**6
    except OverflowError:
        power = math.inf
    if not sys.float_info.min <= power < math.inf:
        raise ValueError(f"radius {h!r} is unusable: its power 6 is not a normal float")
    for j, s in enumerate(_ORACLE_SCALED):
        u = h * s
        # the middle node is cos(pi/2), 6e-17: its section is x at any radius
        if j != ORACLE_NODES // 2 and x + (1.0 - mu_hat1) * u == x - mu_hat1 * u:
            raise ValueError(f"radius {h!r} is unusable: the section at u = {u!r} is the point {x!r}")

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
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import (
    DegenerateMeasure,
    IllConditionedFit,
    OrderOutOfRange,
    OutOfInterval,
    WronskianVanishes,
)
from .expr import FunctionPair
from .jets import Jet, div, jet_const, mul, sub
from .means import MeanSpec, m_curve
from .measures import DEGENERATE_TOL, MOMENT_ZERO_TOL, Measure, moments

__all__ = [
    "PhiPsi", "SeqPair",
    "wronskian", "phi_psi", "recursion_seq", "closed_form_seq",
    "diagonal_derivatives", "diagonal_derivatives_numeric",
]

FIT_CONDITION_LIMIT = 1e8
ORACLE_NODES = 17
ORACLE_DEGREE = 8


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

    @property
    def n(self) -> int:
        return len(self.phi) - 1


def _pair_jets(pair: FunctionPair, x: float, order: int) -> tuple[Jet, Jet]:
    if not pair.contains(x):
        raise OutOfInterval(x, pair.interval)
    return ex.eval_jet(pair.f, x, order), ex.eval_jet(pair.g, x, order)


def wronskian(pair: FunctionPair, x: float, i: int, j: int) -> float:
    """Determinant f^(i) g^(j) - f^(j) g^(i) at x."""
    k = max(i, j)
    if min(i, j) < 0 or k > pair.validated_order:
        raise OrderOutOfRange(
            f"Wronskian order ({i}, {j}) outside the validated order {pair.validated_order}"
        )
    jf, jg = _pair_jets(pair, x, k)
    return jf.derivative_value(i) * jg.derivative_value(j) - jf.derivative_value(
        j
    ) * jg.derivative_value(i)


def _wronskian_jets(pair: FunctionPair, x: float, order: int) -> tuple[Jet, Jet, Jet]:
    """Jets of W10, W20, W21 at x, each truncated at the given order."""
    jf, jg = _pair_jets(pair, x, order + 2)
    f0, g0 = jf.truncate(order), jg.truncate(order)
    f1, g1 = jf.derivative().truncate(order), jg.derivative().truncate(order)
    f2, g2 = jf.derivative().derivative(), jg.derivative().derivative()
    w10 = sub(mul(f1, g0), mul(f0, g1))
    w20 = sub(mul(f2, g0), mul(f0, g2))
    w21 = sub(mul(f2, g1), mul(f1, g2))
    return w10, w20, w21


def phi_psi(pair: FunctionPair, x: float, order: int = 4) -> PhiPsi:
    """Jets of Phi = W20/W10 and Psi = -W21/W10 at x.

    Needs pair jets of order order + 2, so the validated order bounds the
    reachable jet order of Phi and Psi.
    """
    if order < 0 or order + 2 > pair.validated_order:
        raise OrderOutOfRange(
            f"Phi/Psi jets of order {order} need the pair validated to order {order + 2}"
        )
    w10, w20, w21 = _wronskian_jets(pair, x, order)
    if abs(w10.value) <= ex.TOL_WRONSKIAN:
        raise WronskianVanishes(x, w10.value)
    return PhiPsi(x=x, phi_jet=div(w20, w10), psi_jet=-div(w21, w10))


def _match(a: Jet, b: Jet) -> tuple[Jet, Jet]:
    m = min(a.order, b.order)
    return a.truncate(m), b.truncate(m)


def _mul(a: Jet, b: Jet) -> Jet:
    return mul(*_match(a, b))


def _add(a: Jet, b: Jet) -> Jet:
    x, y = _match(a, b)
    return x + y


def recursion_seq(pair: FunctionPair, x: float, n: int = 6) -> SeqPair:
    """Run the derivative-elimination recursion in jet arithmetic.

    phi_{i+1} = phi_i' + phi_i * Phi + psi_i and psi_{i+1} = phi_i * Psi +
    psi_i', seeded by phi_1 = 1, psi_1 = 0; the order-0 entries are the
    definitional phi_0 = 0, psi_0 = 1. Jet orders shrink by one per step,
    which is why n is capped by the order of the Phi/Psi jets.
    """
    if n < 2 or n > 6:
        raise OrderOutOfRange(f"recursion depth n = {n} outside 2..6")
    pp = phi_psi(pair, x, order=n - 2)
    # seeds at i = 1; both are exact constants
    phi_i = jet_const(1.0, x, n - 1)
    psi_i = jet_const(0.0, x, n - 1)
    phis = [0.0, 1.0]
    psis = [1.0, 0.0]
    for _ in range(1, n):
        nxt_phi = _add(_add(phi_i.derivative(), _mul(phi_i, pp.phi_jet)), psi_i)
        nxt_psi = _add(_mul(phi_i, pp.psi_jet), psi_i.derivative())
        phi_i, psi_i = nxt_phi, nxt_psi
        phis.append(phi_i.value)
        psis.append(psi_i.value)
    return SeqPair(x=x, phi=tuple(phis), psi=tuple(psis))


def closed_form_seq(pair: FunctionPair, x: float) -> SeqPair:
    """Evaluate the displayed polynomial formulas for phi_i, psi_i up to 6."""
    pp = phi_psi(pair, x, order=4)
    P = pp.phi(0)
    P1, P2, P3, P4 = pp.phi(1), pp.phi(2), pp.phi(3), pp.phi(4)
    Q = pp.psi(0)
    Q1, Q2, Q3, Q4 = pp.psi(1), pp.psi(2), pp.psi(3), pp.psi(4)
    phi = (
        0.0,
        1.0,
        P,
        P1 + P**2 + Q,
        P2 + 3 * P1 * P + P**3 + 2 * P * Q + 2 * Q1,
        P3 + 4 * P2 * P + 3 * P1**2 + 6 * P1 * P**2 + P**4
        + (4 * P1 + 3 * P**2) * Q + 5 * P * Q1 + Q**2 + 3 * Q2,
        P4 + 5 * P3 * P + 10 * P2 * P1 + 10 * P2 * P**2 + 10 * P1 * P**3
        + 15 * P1**2 * P + P**5 + 3 * P * Q**2
        + (7 * P2 + 15 * P1 * P + 4 * P**3) * Q
        + (12 * P1 + 9 * P**2) * Q1 + 9 * P * Q2 + 6 * Q1 * Q + 4 * Q3,
    )
    psi = (
        1.0,
        0.0,
        Q,
        P * Q + Q1,
        (2 * P1 + P**2) * Q + P * Q1 + Q**2 + Q2,
        2 * P * Q**2 + (3 * P2 + 5 * P1 * P + P**3) * Q
        + (3 * P1 + P**2) * Q1 + P * Q2 + 4 * Q1 * Q + Q3,
        (6 * P1 + 3 * P**2) * Q**2
        + (4 * P3 + 9 * P2 * P + 8 * P1**2 + 9 * P1 * P**2 + P**4) * Q
        + (4 * P1 + P**2) * Q2 + (6 * P2 + 7 * P1 * P + P**3) * Q1
        + P * (Q3 + 9 * Q1 * Q) + Q**3 + 4 * Q1**2 + 7 * Q2 * Q + Q4,
    )
    return SeqPair(x=x, phi=phi, psi=psi)


def diagonal_derivatives(
    pair: FunctionPair, measure: Measure, x: float
) -> tuple[float, ...]:
    """Closed forms for the first six derivatives of the diagonal section.

    Returns (m'(0), ..., m^(6)(0)). Odd entries are proportional to the odd
    moments; when mu3 or mu5 vanish to tolerance they are zeroed outright so
    symmetric measures report exact structural zeros instead of noise.
    """
    md = moments(measure, 6)
    mu2, mu3, mu4, mu5, mu6 = md.mu[2], md.mu[3], md.mu[4], md.mu[5], md.mu[6]
    if mu2 <= DEGENERATE_TOL:
        raise DegenerateMeasure(mu2)
    if abs(mu3) <= MOMENT_ZERO_TOL * max(1.0, mu2**1.5):
        mu3 = 0.0
    if abs(mu5) <= MOMENT_ZERO_TOL * max(1.0, mu2**2.5):
        mu5 = 0.0
    pp = phi_psi(pair, x, order=4)
    P = pp.phi(0)
    P1, P2 = pp.phi(1), pp.phi(2)
    Q = pp.psi(0)
    Q1, Q2 = pp.psi(1), pp.psi(2)
    seq = closed_form_seq(pair, x)
    m1 = 0.0
    m2 = mu2 * P
    m3 = mu3 * seq.phi[3]
    m4 = -3.0 * mu2**2 * (P**3 + 2 * P * Q) + mu4 * seq.phi[4]
    m5 = (
        -10.0 * mu3 * mu2 * (P**2 * P1 + P**4 + (P1 + 3 * P**2) * Q + P * Q1 + Q**2)
        + mu5 * seq.phi[5]
    )
    m6 = (
        15.0 * mu2**3 * (-P1 * P**3 + 2 * P**5 + 8 * P**3 * Q + 6 * P * Q**2)
        - 10.0
        * mu3**2
        * (
            P1**2 * P + 2 * P1 * P**3 + P**5 + 3 * P * Q**2
            + 4 * (P1 * P + P**3) * Q + 2 * (P1 + P**2) * Q1 + 2 * Q1 * Q
        )
        - 15.0
        * mu2
        * mu4
        * (
            P2 * P**2 + 3 * P1 * P**3 + P**5 + 3 * P * Q**2
            + (P2 + 5 * P1 * P + 4 * P**3) * Q + 3 * P**2 * Q1 + P * Q2 + 2 * Q1 * Q
        )
        + mu6 * seq.phi[6]
    )
    return (m1, m2, m3, m4, m5, m6)


def diagonal_derivatives_numeric(
    pair: FunctionPair,
    measure: Measure,
    x: float,
    k_max: int = 6,
    h: float | None = None,
) -> tuple[float, ...]:
    """Sampling oracle for the diagonal derivatives, independent of jets.

    Samples the diagonal section at Chebyshev nodes in u, fits one
    polynomial of degree 8 by least squares in the scaled variable u/h, and
    reads the derivatives off the coefficients. The default radius h fills
    most of the room the interval leaves around x, since the k = 6
    coefficient amplifies sampling noise like 1/h^6.
    """
    if not (1 <= k_max <= 6):
        raise OrderOutOfRange(f"k_max = {k_max} outside 1..6")
    lo, hi = pair.interval
    if not pair.contains(x):
        raise OutOfInterval(x, pair.interval)
    mu_hat1 = moments(measure, 1).mu_hat1
    wmax = max(mu_hat1, 1.0 - mu_hat1, 1e-9)
    dist = min(x - lo, hi - x)
    if h is None:
        # the k = 6 read-off amplifies node noise like 1/h^6 while the fit's
        # unmodeled tail contaminates it like h^4; 0.12 keeps the tail a few
        # orders below the k = 5, 6 budget with noise still far underneath
        h = min(0.12, 0.8 * dist / wmax)
    if h <= 0.0:
        raise OutOfInterval(x, pair.interval)
    spec = MeanSpec(pair=pair, measure=measure)
    scaled = [math.cos(math.pi * (j + 0.5) / ORACLE_NODES) for j in range(ORACLE_NODES)]
    values = [m_curve(spec, x, h * s) for s in scaled]
    design = np.vander(np.asarray(scaled), ORACLE_DEGREE + 1, increasing=True)
    cond = float(np.linalg.cond(design))
    if cond > FIT_CONDITION_LIMIT:
        raise IllConditionedFit(cond, context="diagonal derivative oracle")
    coef, *_ = np.linalg.lstsq(design, np.asarray(values), rcond=None)
    return tuple(
        float(coef[k]) * math.factorial(k) / h**k for k in range(1, k_max + 1)
    )

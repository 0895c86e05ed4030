"""Truncated Taylor jets with exact propagation of derivatives.

A jet stores the Taylor coefficients of a smooth function h at a base point x:
coeffs[k] = h^(k)(x)/k!, truncated at a fixed order n <= 8. All arithmetic and
elementary-function rules below are the standard triangular power-series
recurrences, so coefficients of order <= m never depend on coefficients of
order > m; truncating first or last gives bitwise-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BasePointMismatch,
    DivisionByZeroConstantTerm,
    DomainViolation,
    OrderMismatch,
    OrderOutOfRange,
)

MAX_ORDER = 8

_FACTORIALS = tuple(math.factorial(k) for k in range(MAX_ORDER + 1))


def _check_order(order: int) -> None:
    if not (0 <= order <= MAX_ORDER):
        raise OrderOutOfRange(f"order {order} outside [0, {MAX_ORDER}]")


@dataclass(frozen=True)
class Jet:
    """Taylor coefficients (h(x), h'(x)/1!, ..., h^(n)(x)/n!) at base_point x."""

    base_point: float
    coeffs: tuple[float, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def value(self) -> float:
        return self.coeffs[0]

    def derivative_value(self, k: int) -> float:
        """k-th derivative of the represented function at the base point."""
        if not (0 <= k <= self.order):
            raise OrderOutOfRange(f"derivative order {k} outside jet order {self.order}")
        return self.coeffs[k] * _FACTORIALS[k]

    def truncate(self, order: int) -> "Jet":
        _check_order(order)
        if order > self.order:
            raise OrderOutOfRange(f"cannot extend jet of order {self.order} to {order}")
        if order == self.order:
            return self
        return Jet(self.base_point, self.coeffs[: order + 1])

    def derivative(self) -> "Jet":
        """Jet of h' at the same base point; order drops by one."""
        if self.order == 0:
            raise OrderOutOfRange("cannot differentiate an order-0 jet")
        c = self.coeffs
        return Jet(self.base_point, tuple(c[k + 1] * (k + 1) for k in range(self.order)))

    def is_finite(self) -> bool:
        return all(math.isfinite(c) for c in self.coeffs)

    def __add__(self, other: "Jet") -> "Jet":
        return add(self, other)

    def __sub__(self, other: "Jet") -> "Jet":
        return sub(self, other)

    def __mul__(self, other: "Jet") -> "Jet":
        return mul(self, other)

    def __truediv__(self, other: "Jet") -> "Jet":
        return div(self, other)

    def __neg__(self) -> "Jet":
        return Jet(self.base_point, tuple(-c for c in self.coeffs))


def jet_var(x: float, order: int) -> Jet:
    """Jet of the identity function at x."""
    _check_order(order)
    coeffs = [float(x)] + [0.0] * order
    if order >= 1:
        coeffs[1] = 1.0
    return Jet(float(x), tuple(coeffs))


def jet_const(c: float, x: float, order: int) -> Jet:
    """Jet of the constant function c at x."""
    _check_order(order)
    return Jet(float(x), (float(c),) + (0.0,) * order)


def _aligned(a: Jet, b: Jet) -> None:
    if a.base_point != b.base_point:
        raise BasePointMismatch(f"base points differ: {a.base_point!r} vs {b.base_point!r}")
    if a.order != b.order:
        raise OrderMismatch(f"orders differ: {a.order} vs {b.order}")


def add(a: Jet, b: Jet) -> Jet:
    _aligned(a, b)
    return Jet(a.base_point, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def sub(a: Jet, b: Jet) -> Jet:
    _aligned(a, b)
    return Jet(a.base_point, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))


def mul(a: Jet, b: Jet) -> Jet:
    _aligned(a, b)
    n = a.order
    ac, bc = a.coeffs, b.coeffs
    out = [0.0] * (n + 1)
    for k in range(n + 1):
        out[k] = math.fsum(ac[j] * bc[k - j] for j in range(k + 1))
    return Jet(a.base_point, tuple(out))


def div(a: Jet, b: Jet) -> Jet:
    _aligned(a, b)
    if b.coeffs[0] == 0.0:
        raise DivisionByZeroConstantTerm("divisor jet has zero constant term")
    n = a.order
    ac, bc = a.coeffs, b.coeffs
    out = [0.0] * (n + 1)
    for k in range(n + 1):
        acc = ac[k] - math.fsum(bc[j] * out[k - j] for j in range(1, k + 1))
        out[k] = acc / bc[0]
    return Jet(a.base_point, tuple(out))


# ------------------------------------------------------- elementary functions

def _scalar_series(a: Jet, w0: float, rule) -> Jet:
    """Run a triangular recurrence rule(k, u, w) -> w_k starting from w0."""
    n = a.order
    u = a.coeffs
    w = [0.0] * (n + 1)
    w[0] = w0
    for k in range(1, n + 1):
        w[k] = rule(k, u, w)
    return Jet(a.base_point, tuple(w))


def jexp(a: Jet) -> Jet:
    try:
        w0 = math.exp(a.coeffs[0])
    except OverflowError:
        raise DomainViolation(f"exp overflow at constant term {a.coeffs[0]!r}") from None
    return _scalar_series(
        a, w0, lambda k, u, w: math.fsum(j * u[j] * w[k - j] for j in range(1, k + 1)) / k
    )


def jlog(a: Jet) -> Jet:
    u0 = a.coeffs[0]
    if u0 <= 0.0:
        raise DomainViolation(f"log of non-positive constant term {u0!r}")
    return _scalar_series(
        a,
        math.log(u0),
        lambda k, u, w: (u[k] - math.fsum(j * w[j] * u[k - j] for j in range(1, k)) / k) / u0,
    )


def _jsincos(a: Jet, hyperbolic: bool) -> tuple[Jet, Jet]:
    n = a.order
    u = a.coeffs
    if hyperbolic:
        try:
            s0, c0 = math.sinh(u[0]), math.cosh(u[0])
        except OverflowError:
            raise DomainViolation(f"sinh/cosh overflow at constant term {u[0]!r}") from None
        sign = 1.0
    else:
        s0, c0 = math.sin(u[0]), math.cos(u[0])
        sign = -1.0
    s = [0.0] * (n + 1)
    c = [0.0] * (n + 1)
    s[0], c[0] = s0, c0
    for k in range(1, n + 1):
        s[k] = math.fsum(j * u[j] * c[k - j] for j in range(1, k + 1)) / k
        c[k] = sign * math.fsum(j * u[j] * s[k - j] for j in range(1, k + 1)) / k
    base = a.base_point
    return Jet(base, tuple(s)), Jet(base, tuple(c))


def jsin(a: Jet) -> Jet:
    return _jsincos(a, hyperbolic=False)[0]


def jcos(a: Jet) -> Jet:
    return _jsincos(a, hyperbolic=False)[1]


def jsinh(a: Jet) -> Jet:
    return _jsincos(a, hyperbolic=True)[0]


def jcosh(a: Jet) -> Jet:
    return _jsincos(a, hyperbolic=True)[1]


def _ipow(a: Jet, n: int) -> Jet:
    if n == 0:
        return jet_const(1.0, a.base_point, a.order)
    if n < 0:
        if a.coeffs[0] == 0.0:
            raise DomainViolation("negative integer power of jet with zero constant term")
        return div(jet_const(1.0, a.base_point, a.order), _ipow(a, -n))
    acc = None
    base = a
    m = n
    while m:
        if m & 1:
            acc = base if acc is None else mul(acc, base)
        m >>= 1
        if m:
            base = mul(base, base)
    return acc


def jpow(a: Jet, exponent) -> Jet:
    """Real power a(x)^e. Integer exponents work for any sign of the constant
    term; non-integer exponents require a positive constant term."""
    if isinstance(exponent, Fraction) and exponent.denominator == 1:
        return _ipow(a, exponent.numerator)
    e = float(exponent)
    if e == int(e):
        return _ipow(a, int(e))
    u0 = a.coeffs[0]
    if u0 <= 0.0:
        raise DomainViolation(
            f"non-integer power {e!r} of non-positive constant term {u0!r}"
        )
    try:
        w0 = u0 ** e
    except OverflowError:
        raise DomainViolation(f"power overflow at constant term {u0!r}") from None

    def rule(k, u, w):
        return math.fsum(((e + 1.0) * j - k) * u[j] * w[k - j] for j in range(1, k + 1)) / (k * u0)

    return _scalar_series(a, w0, rule)


def jsqrt(a: Jet) -> Jet:
    if a.coeffs[0] <= 0.0:
        raise DomainViolation(f"sqrt of non-positive constant term {a.coeffs[0]!r}")
    return jpow(a, 0.5)


def jabspow(a: Jet, exponent: float) -> Jet:
    """|a(x)|^e for a jet whose constant term is bounded away from zero."""
    u0 = a.coeffs[0]
    if u0 == 0.0:
        raise DomainViolation("abspow of jet with zero constant term")
    return jpow(a if u0 > 0.0 else -a, exponent)

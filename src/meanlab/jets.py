"""Truncated Taylor jets with exact propagation of derivatives.

A jet stores the Taylor coefficients of a smooth function h at a base point x:
coeffs[k] = h^(k)(x)/k!, truncated at a fixed order n <= 8. All arithmetic and
elementary-function rules below are the standard triangular power-series
recurrences, so coefficients of order <= m never depend on coefficients of
order > m; truncating first or last gives bitwise-identical results.

The base point is a float or an array of points, each coefficient a float or
an array over them. Every rule is written once, with plain * / + -: sums run
left to right in one fixed order and constant terms come from libm, mapped
over the points of an array. So a point gives the same bits alone as in any
batch, and overflow gives inf (callers silence numpy's warnings).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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
    """Taylor coefficients (h(x), h'(x)/1!, ..., h^(n)(x)/n!) at base_point x,
    a float or an array of points."""

    base_point: float | np.ndarray
    coeffs: tuple

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def value(self):
        return self.coeffs[0]

    def derivative_value(self, k: int):
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

    def __neg__(self) -> "Jet":
        return Jet(self.base_point, tuple(-c for c in self.coeffs))


def jet_var(x, order: int) -> Jet:
    """Jet of the identity function at x."""
    _check_order(order)
    x = x if isinstance(x, np.ndarray) else float(x)
    return Jet(x, ((x, 1.0) + (0.0,) * order)[: order + 1])


def jet_const(c: float, x, order: int) -> Jet:
    """Jet of the constant function c at x."""
    _check_order(order)
    return Jet(x if isinstance(x, np.ndarray) else float(x), (float(c),) + (0.0,) * order)


# ------------------------------------------------------ points and failures

def at(v, i: int) -> float:
    """The float of coefficient v at flat point index i."""
    return float(v.flat[i]) if isinstance(v, np.ndarray) else v


def reject(bad, error) -> None:
    """Raise error(i), with index i, at the first point i where bad (bool or mask) holds."""
    if isinstance(bad, np.ndarray):
        i = int(bad.argmax()) if bad.any() else None
    else:
        i = 0 if bad else None
    if i is not None:
        exc = error(i)
        exc.index = i
        raise exc


def first_failure(run, points):
    """run(points) for a run pointwise over an array of points; an error at flat
    index i (its index attribute) is raised only if run passes before i in C order."""
    try:
        return run(points)
    except Exception as exc:
        if getattr(exc, "index", 0):
            first_failure(run, points.ravel()[: exc.index])
        raise


def _libm(fn, u0, name: str):
    """fn(u0) by libm, over each point of an array u0; overflow raises DomainViolation."""
    if not isinstance(u0, np.ndarray):
        try:
            return fn(u0)
        except OverflowError:
            raise DomainViolation(f"{name} overflow at constant term {u0!r}") from None
    vals = u0.ravel().tolist()
    try:
        return np.fromiter(map(fn, vals), float, len(vals)).reshape(u0.shape)
    except (OverflowError, ValueError):
        for i, v in enumerate(vals):
            try:
                _libm(fn, v, name)
            except (DomainViolation, ValueError) as exc:
                exc.index = i
                raise
        raise


# ---------------------------------------------------------------- arithmetic

def _aligned(a: Jet, b: Jet) -> None:
    p, q = a.base_point, b.base_point
    arrays = isinstance(p, np.ndarray) or isinstance(q, np.ndarray)
    if p is not q and not (np.array_equal(p, q) if arrays else p == q):
        raise BasePointMismatch(f"base points differ: {p!r} vs {q!r}")
    if len(a.coeffs) != len(b.coeffs):
        raise OrderMismatch(f"orders differ: {a.order} vs {b.order}")


def _dot(a, b, k: int, n: int):
    """a[1]*b[k-1] + ... + a[n]*b[k-n] left to right (0.0 if n < 1): every sum but mul's."""
    if n < 1:
        return 0.0
    acc = a[1] * b[k - 1]
    for j in range(2, n + 1):
        acc = acc + a[j] * b[k - j]
    return acc


def add(a: Jet, b: Jet) -> Jet:
    _aligned(a, b)
    return Jet(a.base_point, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def sub(a: Jet, b: Jet) -> Jet:
    _aligned(a, b)
    return Jet(a.base_point, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))


def mul(a: Jet, b: Jet) -> Jet:
    """Cauchy product; terms j and k - j are added in pairs, so it commutes bitwise."""
    _aligned(a, b)
    ac, bc = a.coeffs, b.coeffs
    out = [ac[0] * bc[0]]
    for k in range(1, len(ac)):
        acc = ac[0] * bc[k] + ac[k] * bc[0]
        for j in range(1, (k + 1) // 2):
            acc = acc + (ac[j] * bc[k - j] + ac[k - j] * bc[j])
        if k % 2 == 0:
            acc = acc + ac[k // 2] * bc[k // 2]
        out.append(acc)
    return Jet(a.base_point, tuple(out))


def div(a: Jet, b: Jet) -> Jet:
    _aligned(a, b)
    ac, bc = a.coeffs, b.coeffs
    reject(bc[0] == 0.0, lambda i: DivisionByZeroConstantTerm("divisor jet has zero constant term"))
    out = []
    for k in range(len(ac)):
        out.append((ac[k] - _dot(bc, out, k, k)) / bc[0])
    return Jet(a.base_point, tuple(out))


Jet.__add__, Jet.__sub__, Jet.__mul__, Jet.__truediv__ = add, sub, mul, div


# ------------------------------------------------------- elementary functions

def _positive(u0, what: str) -> None:
    """Reject a constant term u0 <= 0: "<what> of non-positive constant term <u0>"."""
    message = f"{what} of non-positive constant term "
    reject(u0 <= 0.0, lambda i: DomainViolation(message + repr(at(u0, i))))


def jexp(a: Jet) -> Jet:
    u = a.coeffs
    ju = [j * c for j, c in enumerate(u)]
    w = [_libm(math.exp, u[0], "exp")]
    for k in range(1, len(u)):
        w.append(_dot(ju, w, k, k) / k)
    return Jet(a.base_point, tuple(w))


def jlog(a: Jet) -> Jet:
    u, u0 = a.coeffs, a.coeffs[0]
    _positive(u0, "log")
    w = [_libm(math.log, u0, "log")]
    jw = [0.0]
    for k in range(1, len(u)):
        w.append((u[k] - _dot(jw, u, k, k - 1) / k) / u0)
        jw.append(k * w[k])
    return Jet(a.base_point, tuple(w))


def _jsincos(a: Jet, hyperbolic: bool) -> tuple[Jet, Jet]:
    u = a.coeffs
    ju = [j * c for j, c in enumerate(u)]
    sine, cosine, sign = (math.sinh, math.cosh, 1.0) if hyperbolic else (math.sin, math.cos, -1.0)
    # only sinh and cosh can overflow
    s, c = [_libm(sine, u[0], "sinh/cosh")], [_libm(cosine, u[0], "sinh/cosh")]
    for k in range(1, len(u)):
        s.append(_dot(ju, c, k, k) / k)
        c.append(sign * _dot(ju, s, k, k) / k)
    return Jet(a.base_point, tuple(s)), Jet(a.base_point, tuple(c))


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
        reject(
            a.coeffs[0] == 0.0,
            lambda i: DomainViolation("negative integer power of jet with zero constant term"),
        )
        return div(jet_const(1.0, a.base_point, a.order), _ipow(a, -n))
    acc, base, m = None, a, n
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
    u, u0 = a.coeffs, a.coeffs[0]
    _positive(u0, f"non-integer power {e!r}")
    w = [_libm(lambda v: v**e, u0, "power")]
    for k in range(1, len(u)):
        cu = [((e + 1.0) * j - k) * c for j, c in enumerate(u[: k + 1])]
        w.append(_dot(cu, w, k, k) / (k * u0))
    return Jet(a.base_point, tuple(w))


def jsqrt(a: Jet) -> Jet:
    _positive(a.coeffs[0], "sqrt")
    return jpow(a, 0.5)


def jabspow(a: Jet, exponent: float) -> Jet:
    """|a(x)|^e for a float jet whose constant term is bounded away from zero."""
    u0 = a.coeffs[0]
    if u0 == 0.0:
        raise DomainViolation("abspow of jet with zero constant term")
    return jpow(a if u0 > 0.0 else -a, exponent)

"""Truncated Taylor jets with exact propagation of derivatives.

A jet stores the Taylor coefficients of a smooth function h at a base point x:
coeffs[k] = h^(k)(x)/k!, truncated at a fixed order n <= 8. All arithmetic and
elementary-function rules below are the standard triangular power-series
recurrences (Griewank & Walther, Evaluating Derivatives, ch. 13), so
coefficients of order <= m never depend on coefficients of order > m;
truncating first or last gives bitwise-identical results.

The base point is a float or an array of points, each coefficient a float or
an array over them. Every rule is stated once, as a template that prints
straight-line code at a fixed order (Emitter): sums run left to right in one
fixed order and constant terms come from libm, mapped over the points of an
array. So a point gives the same bits alone as in any batch, and arithmetic
overflow gives inf (callers silence numpy's warnings). The templates run
only in printed kernels: expr prints the jets of the value shapes, one
tree's for eval_jet and a pair's in one kernel per order, and calculus the
Phi/Psi jets and the phi_i/psi_i recursion. There is no jet arithmetic here;
the jet of a composite function is eval_jet of its tree.

The value kernels are the same templates at order 0, printed on another
route: the constant terms as inline math calls on a float ("float") or
numpy ufuncs on an array ("array"). So a jet's constant term is the float
route's value, and every printed check fails through violation, "<message>
at <x>"; under first_failure, a kernel over an array fails at its first
failing point.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, OrderOutOfRange

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

    def is_finite(self):
        """Whether every coefficient is finite: a bool for a float base point,
        a boolean array of the points' shape for an array of points."""
        if not isinstance(self.base_point, np.ndarray):
            return all(math.isfinite(c) for c in self.coeffs)
        finite = np.ones(self.base_point.shape, dtype=bool)
        for c in self.coeffs:
            finite &= np.isfinite(c)
        return finite


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


def violation(message: str, x, bad=True) -> DomainViolation:
    """The DomainViolation of every printed check, "<message> at <point>": the
    point x or, for an array x, its first point in C order where bad (a bool
    or a mask) holds. It carries that point's flat index as its index. An
    empty array has no point to name."""
    i = int(np.argmax(bad))
    exc = DomainViolation(f"{message} at {at(x, i)!r}" if np.size(x) else message)
    exc.index = i
    return exc


def _fails(fn, v, args) -> bool:
    try:
        fn(v, *args)
    except (OverflowError, ValueError):
        return True
    return False


def _libm(fn, u0, x, name: str, *args):
    """fn(u0, *args) by libm, over each point of an array u0. An overflow
    raises the violation "<name> overflow" and a libm domain error (sin or
    cos of an infinity) "<name> of infinite value", at the first point of x
    where one happens."""
    try:
        if not isinstance(u0, np.ndarray):
            return fn(u0, *args)
        vals = u0.ravel().tolist()
        values = map(fn, vals, *(itertools.repeat(a) for a in args))
        return np.fromiter(values, float, len(vals)).reshape(u0.shape)
    except (OverflowError, ValueError) as exc:
        what = "overflow" if isinstance(exc, OverflowError) else "of infinite value"
        bad = [_fails(fn, v, args) for v in vals] if isinstance(u0, np.ndarray) else True
        raise violation(f"{name} {what}", x, bad) from None


def _finite(t) -> bool:
    return bool(np.isfinite(t).all()) if isinstance(t, np.ndarray) else math.isfinite(t)


# --------------------------------------------------- straight-line emission

_TEMP = re.compile(r"\bt\d+\b")


def _src(v) -> str:
    """Source text of a coefficient: a local's name, or a known number."""
    if isinstance(v, str):
        return v
    return repr(v) if math.isfinite(v) else f"float({repr(float(v))!r})"


# the error a libm call of the templates can raise, and its text after the
# rule's name; log and sqrt raise none behind their checks
_LIBM_ERRORS = {
    "exp": ("OverflowError", "overflow"), "sinh": ("OverflowError", "overflow"),
    "cosh": ("OverflowError", "overflow"), "pow": ("OverflowError", "overflow"),
    "sin": ("ValueError", "of infinite value"), "cos": ("ValueError", "of infinite value"),
}


class Emitter:
    """Prints straight-line code for jet rules at a fixed order.

    A coefficient is the name of a local (str) or a number known when the
    code is printed: the 0.0 and 1.0 of constant and identity jets, the
    integers of the recurrences, and what exact float arithmetic on them
    gives. Arithmetic on two known numbers is done here, and the exact
    identities v * 1, v / 1 and v - 0 are dropped, so the unfolded code does
    what the rules do, operation for operation.

    With fold, a known 0 also drops the term 0 * v (or 0 / v), and 0 + v
    gives v: only the sign of a zero sum can differ. A dropped 0 * v is nan
    where v is not finite, so before it returns, a folded kernel checks that
    every dropped v is finite and otherwise gives the unfolded code's result
    (guard).

    route says how a libm call, a check and a constant print: "jet" maps
    libm over the points (_libm), "float" calls math inline on one point and
    "array" calls numpy on an array, as the value kernels do. point is the
    name of the point that the checks report.
    """

    def __init__(self, fold: bool = False, route: str = "jet", point: str = "x"):
        self.fold, self.route, self.point = fold, route, point
        # (local, statement) per line; a check defines no local and is always kept
        self.lines: list[tuple[str | None, str]] = []
        self.guard: dict[str, None] = {}
        # the sine and cosine coefficients printed so far, by family and argument
        self.sincos: dict[tuple, tuple[list, list]] = {}
        self._names = itertools.count()

    def let(self, rhs: str, form: str = "{}") -> str:
        """A new local v = rhs, printed as the statement form of "v = rhs"."""
        v = f"t{next(self._names)}"
        self.lines.append((v, form.format(f"{v} = {rhs}")))
        return v

    def check(self, cond: str, failure: str, *operands) -> None:
        """Run the statement failure, a template on cond's local, where cond,
        a template on the operands, holds (a bool, or a mask anywhere)."""
        c = self.let(cond.format(*map(_src, operands)))
        self.lines.append(
            (None, f"if {c} is True or {c} is not False and {c}.any(): {failure.format(c)}")
        )

    def domain(self, cond: str, message: str, *operands) -> None:
        """Raise violation(message) at the first point where cond holds."""
        if self.route == "float":
            cond = cond.format(*map(_src, operands))
            self.lines.append((None, f"if {cond}: raise _violation({message!r}, {self.point})"))
        else:
            self.check(cond, f"raise _violation({message!r}, {self.point}, {{}})", *operands)

    def libm(self, fn: str, u0, name: str, *args) -> str:
        """fn(u0, *args), "pow" being u0 ** args[0]; where it overflows or meets
        an infinity it raises "<name> overflow" or "<name> of infinite value"."""
        u = _src(u0)
        if self.route == "jet":
            extra = "".join(f", {_src(a)}" for a in args)
            return self.let(f"_libm({fn}, {u}, {self.point}, {name!r}{extra})")
        call = f"{u} ** {_src(args[0])}" if fn == "pow" else f"{fn}({u})"
        if fn not in _LIBM_ERRORS:
            return self.let(call)
        error, what = _LIBM_ERRORS[fn]
        if self.route == "float":
            raised = f"raise _violation({f'{name} {what}'!r}, {self.point}) from None"
            return self.let(call, f"try: {{}}\nexcept {error}: {raised}")
        if error == "ValueError":  # numpy gives nan where math fails
            self.domain("isinf({})", f"{name} {what}", u0)
            return self.let(call)
        v = self.let(call, 'with errstate(over="ignore"): {}')
        self.domain("isinf({}) & isfinite({})", f"{name} {what}", v, u0)
        return v

    def const(self, c: str):
        """The constant term of the argument c's constant jet."""
        return self.let(f"full(shape({self.point}), {c})") if self.route == "array" else c

    def _drop(self, v) -> float:
        self.guard[v] = None
        return 0.0

    def mul(self, a, b):
        known_a, known_b = not isinstance(a, str), not isinstance(b, str)
        if known_a and known_b:
            return a * b
        if known_a and a == 1.0:
            return b
        if known_b and b == 1.0:
            return a
        if self.fold and known_a and a == 0.0:
            return self._drop(b)
        if self.fold and known_b and b == 0.0:
            return self._drop(a)
        return self.let(f"{_src(a)} * {_src(b)}")

    def div(self, a, b):
        known_a, known_b = not isinstance(a, str), not isinstance(b, str)
        if known_a and known_b and b != 0.0:
            return a / b
        if known_b and b == 1.0:
            return a
        if self.fold and known_a and a == 0.0 and not known_b:
            return self._drop(b)
        return self.let(f"{_src(a)} / {_src(b)}")

    def add(self, a, b):
        known_a, known_b = not isinstance(a, str), not isinstance(b, str)
        if known_a and known_b:
            return a + b
        if self.fold and known_a and a == 0.0:
            return b
        if self.fold and known_b and b == 0.0:
            return a
        return self.let(f"{_src(a)} + {_src(b)}")

    def sub(self, a, b):
        known_a, known_b = not isinstance(a, str), not isinstance(b, str)
        if known_a and known_b:
            return a - b
        if known_b and b == 0.0 and (self.fold or math.copysign(1.0, b) > 0.0):
            return a
        # 0 - v stays a subtraction: -v would flip the sign bit of a nan
        return self.let(f"{_src(a)} - {_src(b)}")

    def neg(self, a):
        return -a if not isinstance(a, str) else self.let(f"-{a}")

    def statements(self, outputs) -> list[str]:
        """The lines that outputs, the checks and the guard need, in order."""
        live = set(_TEMP.findall(" ".join(map(_src, outputs))))
        live.update(self.guard)
        kept = []
        for target, statement in reversed(self.lines):
            if target is None or target in live:
                live.update(_TEMP.findall(statement))
                kept.append(statement)
        return [line for statement in reversed(kept) for line in statement.split("\n")]

    def body(self, outputs, indent: str, fallback: str = "") -> str:
        """The statements, then the return of the outputs' tuple. With a
        guard, the return is fallback where a dropped term's other factor is
        not finite."""
        lines = self.statements(outputs)
        if self.guard:
            lines.append(f"if not _finite({' + '.join(self.guard)}): return {fallback}")
        lines.append(f"return ({''.join(_src(v) + ', ' for v in outputs)})")
        return "".join(f"{indent}{line}\n" for line in lines)


NAMES = {
    "_libm": _libm, "_finite": _finite, "_violation": violation,
    **{name: getattr(math, name) for name in ("exp", "log", "sin", "cos", "sinh", "cosh", "sqrt")},
}


def compile_source(source: str, names: dict, label: str) -> dict:
    """Exec printed source in a namespace of the given names; its definitions."""
    scope: dict = {}
    exec(compile(source, f"<meanlab {label}>", "exec"), names, scope)
    return scope


# ----------------------------------------------------------- the templates
#
# Each template takes an Emitter and coefficient lists of one order n and
# returns the coefficients of the result; checks come first where the rules
# check, and libm gives every constant term. sin, cos, sinh and cosh are one
# template, whose coupled recurrence an Emitter prints once per argument.

def dot(em: Emitter, a, b, k: int, n: int):
    """a[1]*b[k-1] + ... + a[n]*b[k-n] left to right (0.0 if n < 1): every sum but mul's."""
    if n < 1:
        return 0.0
    acc = em.mul(a[1], b[k - 1])
    for j in range(2, n + 1):
        acc = em.add(acc, em.mul(a[j], b[k - j]))
    return acc


def mul_rule(em: Emitter, a, b) -> list:
    """Cauchy product; terms j and k - j are added in pairs, so it commutes bitwise."""
    out = [em.mul(a[0], b[0])]
    for k in range(1, len(a)):
        acc = em.add(em.mul(a[0], b[k]), em.mul(a[k], b[0]))
        for j in range(1, (k + 1) // 2):
            acc = em.add(acc, em.add(em.mul(a[j], b[k - j]), em.mul(a[k - j], b[j])))
        if k % 2 == 0:
            acc = em.add(acc, em.mul(a[k // 2], b[k // 2]))
        out.append(acc)
    return out


def nonzero_divisor(em: Emitter, b0) -> None:
    """Reject a divisor whose constant term b0 is 0."""
    em.domain("{} == 0.0", "division by zero", b0)


def div_rule(em: Emitter, a, b, check: bool = True) -> list:
    """a / b; check=False where the caller has made the divisor's check."""
    if check:
        nonzero_divisor(em, b[0])
    out: list = []
    for k in range(len(a)):
        out.append(em.div(em.sub(a[k], dot(em, b, out, k, k)), b[0]))
    return out


def _scaled(em: Emitter, u) -> list:
    """j * u[j], the coefficients of x * u'(x)."""
    return [None] + [em.mul(j, u[j]) for j in range(1, len(u))]


def exp_rule(em: Emitter, u) -> list:
    ju = _scaled(em, u)
    w = [em.libm("exp", u[0], "exp")]
    for k in range(1, len(u)):
        w.append(em.div(dot(em, ju, w, k, k), k))
    return w


def log_rule(em: Emitter, u) -> list:
    u0 = u[0]
    em.domain("{} <= 0.0", "log of non-positive value", u0)
    w = [em.libm("log", u0, "log")]
    jw = [0.0]
    for k in range(1, len(u)):
        w.append(em.div(em.sub(u[k], em.div(dot(em, jw, u, k, k - 1), k)), u0))
        jw.append(em.mul(k, w[k]))
    return w


def sincos_rule(em: Emitter, u, name: str) -> list:
    """name(u), name one of sin, cos, sinh and cosh, by the coupled sine and
    cosine recurrences, printed once per family and argument: a later rule
    of the family on u (by the source of its coefficients, so 0.0 and -0.0
    stay apart) reads the first one's result. The first rule's name is in
    the errors of libm (only sinh and cosh overflow, only sin and cos of an
    infinity fail, both functions at once). At order 0 it is the one call."""
    if len(u) == 1:
        return [em.libm(name, u[0], name)]
    sine, cosine, sign = ("sinh", "cosh", 1.0) if name in ("sinh", "cosh") else ("sin", "cos", -1.0)
    key = (sine, *map(_src, u))
    if key not in em.sincos:
        ju = _scaled(em, u)
        s, c = [em.libm(sine, u[0], name)], [em.libm(cosine, u[0], name)]
        for k in range(1, len(u)):
            s.append(em.div(dot(em, ju, c, k, k), k))
            c.append(em.div(em.mul(sign, dot(em, ju, s, k, k)), k))
        em.sincos[key] = s, c
    return em.sincos[key][name != sine]


def ipow_rule(em: Emitter, a, n: int, e) -> list:
    """a^n for an integer n, which e (a number or an argument's name) holds:
    the constant term a[0] ** e by libm, the others by binary powering. A
    negative n divides 1 by a^-n after the power, which fails first where
    a[0]^-n underflows to 0."""
    if n < 0:
        em.domain("{} == 0.0", "zero base with negative power", a[0])
    w0 = em.libm("pow", a[0], "power", e)
    if n == 0:
        return [w0] + [0.0] * (len(a) - 1)
    acc, base, m = None, a, abs(n)
    while m:
        if m & 1:
            acc = base if acc is None else mul_rule(em, acc, base)
        m >>= 1
        if m:
            base = mul_rule(em, base, base)
    if n < 0:
        acc = div_rule(em, [1.0] + [0.0] * (len(a) - 1), acc, check=False)
    return [w0, *acc[1:]]


def rpow_rule(em: Emitter, u, e, w0=None) -> list:
    """u^e for a non-integer e, a known number or the name of an argument;
    given w0, the caller has made its own check and w0 is the constant term."""
    u0, n = u[0], len(u) - 1
    if w0 is None:
        em.domain("{} <= 0.0", "non-integer power of non-positive base", u0)
        w0 = em.libm("pow", u0, "power", e)
    w = [w0]
    e1 = em.add(e, 1.0)
    zeros = False
    for k in range(1, n + 1):
        cu: list = [None]
        for j in range(1, k + 1):
            if em.fold and not isinstance(u[j], str) and u[j] == 0.0:
                cu.append(0.0)  # the factor is dropped, and guarded below
                zeros = True
            else:
                cu.append(em.mul(em.sub(em.mul(e1, j), k), u[j]))
        w.append(em.div(dot(em, cu, w, k, k), em.mul(k, u0)))
    if zeros and isinstance(e1, str):
        # every factor (e + 1) * j - k is finite where (e + 1) * n is
        em.guard[em.mul(e1, n)] = None
    return w


def sqrt_rule(em: Emitter, u) -> list:
    """sqrt(u), its constant term by libm; at u = 0, where the value is 0 but
    no derivative is finite, a jet of order >= 1 has a check of its own."""
    em.domain("{} < 0.0", "sqrt of negative value", u[0])
    if len(u) > 1:
        em.domain("{} == 0.0", "sqrt of zero value", u[0])
    return rpow_rule(em, u, 0.5, em.libm("sqrt", u[0], "sqrt"))

"""Expression ASTs for generator functions of one variable.

The grammar covers arithmetic (+, -, *, /), powers with rational constant
exponents, the elementary calls exp/log/sin/cos/sinh/cosh/sqrt, and the
first-class sine/cosine-type nodes S(t; u), C(t; u), which evaluate to
sin/identity/sinh resp. cos/1/cosh of sqrt(|t|)*u depending on the sign of
the parameter t. S and C stay explicit nodes so that structural checks can
read the parameter back off the tree.

Canonical printing is the inverse of parsing: parse(to_string(e)) == e for
every tree the printer emits (structural equality; constants are printed
with round-tripping float repr). Negative literal constants print as a unary
minus applied to the positive constant, which is also how the parser builds
them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from . import jets
from .errors import DomainViolation, NonSmooth, NotPositive, ParseError, WronskianVanishes
from .jets import Jet

__all__ = [
    "Expr", "Const", "Var", "BinOp", "Neg", "Pow", "Call", "SType", "CType",
    "parse", "to_string", "eval_scalar", "eval_jet", "compile_scalar", "compile_array",
    "validate_pair", "FunctionPair", "TOL_WRONSKIAN", "DEFAULT_GRID_SIZE",
]

TOL_WRONSKIAN = 1e-9
DEFAULT_GRID_SIZE = 257

_CALLS = ("exp", "log", "sin", "cos", "sinh", "cosh", "sqrt")


class Expr:
    """Base class; concrete nodes are frozen dataclasses below."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    """The single free variable x."""


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * /
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: Fraction


@dataclass(frozen=True)
class Call(Expr):
    func: str  # one of _CALLS
    arg: Expr


@dataclass(frozen=True)
class SType(Expr):
    """Sine-type node: sin(sqrt(-t)x) / x / sinh(sqrt(t)x) for t <0/=0/>0."""

    t: float
    arg: Expr


@dataclass(frozen=True)
class CType(Expr):
    """Cosine-type node: cos(sqrt(-t)x) / 1 / cosh(sqrt(t)x) for t <0/=0/>0."""

    t: float
    arg: Expr


# ------------------------------------------------------------------ parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|(?P<ident>[A-Za-z_]\w*)|(?P<op>[-+*/^();,]))"
)


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                stripped = text[pos:].lstrip()
                at = len(text) - len(stripped)
                raise ParseError(f"unexpected character {stripped[:1]!r}", at)
            if m.group("num") is not None:
                self.toks.append(("num", m.group("num"), m.start("num")))
            elif m.group("ident") is not None:
                self.toks.append(("ident", m.group("ident"), m.start("ident")))
            else:
                self.toks.append(("op", m.group("op"), m.start("op")))
            pos = m.end()
        self.toks.append(("end", "", len(text)))
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.i]

    def next(self) -> tuple[str, str, int]:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str) -> None:
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"found {val or 'end of input'!r}", pos, (repr(op),))
        self.next()


def parse(text: str) -> Expr:
    """Parse expression text into an AST; raises ParseError with position."""
    ts = _Tokens(text)
    e = _parse_sum(ts)
    kind, val, pos = ts.peek()
    if kind != "end":
        raise ParseError(f"trailing input {val!r}", pos, ("operator", "end of input"))
    return e


def _parse_sum(ts: _Tokens) -> Expr:
    e = _parse_term(ts)
    while True:
        kind, val, _ = ts.peek()
        if kind == "op" and val in "+-":
            ts.next()
            e = BinOp(val, e, _parse_term(ts))
        else:
            return e


def _parse_term(ts: _Tokens) -> Expr:
    e = _parse_unary(ts)
    while True:
        kind, val, _ = ts.peek()
        if kind == "op" and val in "*/":
            ts.next()
            e = BinOp(val, e, _parse_unary(ts))
        else:
            return e


def _parse_unary(ts: _Tokens) -> Expr:
    kind, val, _ = ts.peek()
    if kind == "op" and val == "-":
        ts.next()
        inner = _parse_unary(ts)
        # fold a negated literal so "-2" and "(-2)" both give Const(-2.0)
        if isinstance(inner, Const):
            return Const(-inner.value)
        return Neg(inner)
    return _parse_power(ts)


def _parse_power(ts: _Tokens) -> Expr:
    base = _parse_atom(ts)
    kind, val, _ = ts.peek()
    if kind == "op" and val == "^":
        ts.next()
        return Pow(base, _parse_rational(ts))
    return base


def _parse_rational(ts: _Tokens) -> Fraction:
    """Constant sub-expression after '^' or inside S(...;/C(...;, folded exactly.

    Supports signs, integer and decimal literals (decimals fold exactly, so
    x^0.5 == x^(1/2)), + - * /, integer powers, and parentheses.
    """

    def ratom() -> Fraction:
        kind, val, pos = ts.peek()
        if kind == "op" and val == "-":
            ts.next()
            return -ratom()
        if kind == "op" and val == "(":
            ts.next()
            v = rsum()
            ts.expect_op(")")
            return v
        if kind == "num":
            ts.next()
            v = Fraction(val)
            k2, v2, _ = ts.peek()
            if k2 == "op" and v2 == "^":
                ts.next()
                e = ratom()
                if e.denominator != 1:
                    raise ParseError("non-integer power inside constant exponent", pos)
                v = v ** e.numerator
            return v
        raise ParseError(f"found {val or 'end of input'!r}", pos, ("rational constant",))

    def rterm() -> Fraction:
        v = ratom()
        while True:
            kind, val, pos = ts.peek()
            if kind == "op" and val in "*/":
                ts.next()
                rhs = ratom()
                if val == "/":
                    if rhs == 0:
                        raise ParseError("division by zero in constant", pos)
                    v = v / rhs
                else:
                    v = v * rhs
            else:
                return v

    def rsum() -> Fraction:
        v = rterm()
        while True:
            kind, val, _ = ts.peek()
            if kind == "op" and val in "+-":
                ts.next()
                rhs = rterm()
                v = v + rhs if val == "+" else v - rhs
            else:
                return v

    # the exponent itself is atom-level: x^1/2 stays (x^1)/2, not x^(1/2)
    return ratom()


def _parse_atom(ts: _Tokens) -> Expr:
    kind, val, pos = ts.next()
    if kind == "num":
        v = float(val)
        if not math.isfinite(v):
            raise ParseError(f"constant {val!r} overflows to infinity", pos)
        return Const(v)
    if kind == "op" and val == "(":
        e = _parse_sum(ts)
        ts.expect_op(")")
        return e
    if kind == "ident":
        if val == "x":
            return Var()
        if val in _CALLS:
            ts.expect_op("(")
            arg = _parse_sum(ts)
            ts.expect_op(")")
            return Call(val, arg)
        if val in ("S", "C"):
            ts.expect_op("(")
            t = _parse_stype_param(ts)
            ts.expect_op(";")
            arg = _parse_sum(ts)
            ts.expect_op(")")
            if not math.isfinite(t):
                raise ParseError(f"non-finite {val} parameter", pos)
            return SType(t, arg) if val == "S" else CType(t, arg)
        raise ParseError(
            f"unknown identifier {val!r}", pos, ("x",) + _CALLS + ("S", "C")
        )
    raise ParseError(f"found {val or 'end of input'!r}", pos, ("number", "identifier", "'('"))


def _parse_stype_param(ts: _Tokens) -> float:
    # full constant arithmetic is allowed for the parameter, e.g. S(-1/2; x)
    def psum() -> Fraction:
        v = pterm()
        while True:
            kind, val, _ = ts.peek()
            if kind == "op" and val in "+-":
                ts.next()
                rhs = pterm()
                v = v + rhs if val == "+" else v - rhs
            else:
                return v

    def pterm() -> Fraction:
        v = patom()
        while True:
            kind, val, pos = ts.peek()
            if kind == "op" and val in "*/":
                ts.next()
                rhs = patom()
                if val == "/":
                    if rhs == 0:
                        raise ParseError("division by zero in constant", pos)
                    v = v / rhs
                else:
                    v = v * rhs
            else:
                return v

    def patom() -> Fraction:
        kind, val, pos = ts.peek()
        if kind == "op" and val == "-":
            ts.next()
            return -patom()
        if kind == "op" and val == "(":
            ts.next()
            v = psum()
            ts.expect_op(")")
            return v
        if kind == "num":
            ts.next()
            return Fraction(val)
        raise ParseError(f"found {val or 'end of input'!r}", pos, ("numeric parameter",))

    return float(psum())


# ------------------------------------------------------------------ printing

_PREC_SUM, _PREC_TERM, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _frac_str(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator) if q.numerator >= 0 else f"({q.numerator})"
    return f"({q.numerator}/{q.denominator})"


def _const_str(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError(f"cannot print non-finite constant {v!r}")
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _print(e: Expr, ctx: int) -> str:
    if isinstance(e, Const):
        s = _const_str(e.value)
        if s.startswith("-"):
            return f"({s})" if ctx > _PREC_SUM else s
        return s
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Neg):
        s = "-" + _print(e.operand, _PREC_UNARY)
        return f"({s})" if ctx > _PREC_UNARY else s
    if isinstance(e, BinOp):
        prec = _PREC_SUM if e.op in "+-" else _PREC_TERM
        left = _print(e.left, prec)
        right = _print(e.right, prec + 1)
        s = f"{left} {e.op} {right}"
        return f"({s})" if ctx > prec else s
    if isinstance(e, Pow):
        base = _print(e.base, _PREC_ATOM)
        if isinstance(e.base, Pow):
            base = f"({base})"  # ^ does not chain in the grammar
        return f"{base}^{_frac_str(e.exponent)}"
    if isinstance(e, Call):
        return f"{e.func}({_print(e.arg, 0)})"
    if isinstance(e, (SType, CType)):
        name = "S" if isinstance(e, SType) else "C"
        return f"{name}({_const_str(e.t)}; {_print(e.arg, 0)})"
    raise TypeError(f"not an Expr node: {e!r}")


def to_string(e: Expr) -> str:
    """Canonical text form; parse(to_string(e)) reproduces e structurally."""
    return _print(e, 0)


# ---------------------------------------------------------------- evaluation

def _stype_pieces(t: float) -> tuple[float, str]:
    """Scale factor and underlying call name for S_t; '' means identity."""
    if t < 0.0:
        return math.sqrt(-t), "sin"
    if t > 0.0:
        return math.sqrt(t), "sinh"
    return 1.0, ""


_SCALAR_CALLS = {
    "exp": math.exp, "sin": math.sin, "cos": math.cos, "sinh": math.sinh, "cosh": math.cosh,
}


def _overflow_checked(fn: Callable[[float], float], name: str) -> Callable[[float], float]:
    """fn with a float overflow reported as DomainViolation naming x."""

    def checked(x: float) -> float:
        try:
            return fn(x)
        except OverflowError:
            raise DomainViolation(f"{name} overflow at {x!r}") from None

    return checked


@lru_cache(maxsize=1024)
def compile_scalar(e: Expr) -> Callable[[float], float]:
    """Compile to a plain float callable. Domain failures raise DomainViolation."""
    if isinstance(e, Const):
        c = e.value
        return lambda x: c
    if isinstance(e, Var):
        return lambda x: x
    if isinstance(e, Neg):
        f = compile_scalar(e.operand)
        return lambda x: -f(x)
    if isinstance(e, BinOp):
        lf, rf = compile_scalar(e.left), compile_scalar(e.right)
        if e.op == "+":
            return lambda x: lf(x) + rf(x)
        if e.op == "-":
            return lambda x: lf(x) - rf(x)
        if e.op == "*":
            return lambda x: lf(x) * rf(x)

        def _div(x: float) -> float:
            d = rf(x)
            if d == 0.0:
                raise DomainViolation(f"division by zero at {x!r}")
            return lf(x) / d

        return _div
    if isinstance(e, Pow):
        bf = compile_scalar(e.base)
        q = e.exponent
        if q.denominator == 1:
            n = q.numerator

            def _ipow(x: float) -> float:
                b = bf(x)
                if n < 0 and b == 0.0:
                    raise DomainViolation(f"zero base with negative power at {x!r}")
                return b ** n

            return _overflow_checked(_ipow, "power")
        ef = float(q)

        def _rpow(x: float) -> float:
            b = bf(x)
            if b <= 0.0:
                raise DomainViolation(f"non-integer power of non-positive base at {x!r}")
            return b ** ef

        return _overflow_checked(_rpow, "power")
    if isinstance(e, Call):
        af = compile_scalar(e.arg)
        if e.func == "log":
            def _log(x: float) -> float:
                v = af(x)
                if v <= 0.0:
                    raise DomainViolation(f"log of non-positive value at {x!r}")
                return math.log(v)
            return _log
        if e.func == "sqrt":
            def _sqrt(x: float) -> float:
                v = af(x)
                if v < 0.0:
                    raise DomainViolation(f"sqrt of negative value at {x!r}")
                return math.sqrt(v)
            return _sqrt
        fn = _SCALAR_CALLS[e.func]
        return _overflow_checked(lambda x: fn(af(x)), e.func)
    if isinstance(e, (SType, CType)):
        af = compile_scalar(e.arg)
        scale, call = _stype_pieces(e.t)
        if isinstance(e, SType):
            if call == "":
                return af
            fn = math.sin if call == "sin" else math.sinh
            return _overflow_checked(lambda x: fn(scale * af(x)), fn.__name__)
        if call == "":
            return lambda x: 1.0
        fn = math.cos if call == "sin" else math.cosh
        return _overflow_checked(lambda x: fn(scale * af(x)), fn.__name__)
    raise TypeError(f"not an Expr node: {e!r}")


def _reject(mask, x, message: str) -> None:
    """Raise DomainViolation naming the first point of x where mask holds."""
    if mask.any():
        bad = np.asarray(x, dtype=float).flat[int(np.argmax(mask))]
        raise DomainViolation(f"{message} at {float(bad)!r}")


_ARRAY_CALLS = {"sin": np.sin, "cos": np.cos, "sinh": np.sinh, "cosh": np.cosh}


@lru_cache(maxsize=1024)
def compile_array(e: Expr) -> Callable[[np.ndarray], np.ndarray]:
    """Compile to an elementwise numpy callable, the array twin of compile_scalar.

    The result has the shape of its argument. Each domain check of
    compile_scalar becomes a mask; DomainViolation names the first point, in
    C order, where the mask holds. Values agree with compile_scalar to a few
    ulps (numpy's elementary functions are not libm's). Where compile_scalar
    raises DomainViolation for an overflow, the array value is inf.
    """
    if isinstance(e, Const):
        c = e.value
        return lambda x: np.full(np.shape(x), c)
    if isinstance(e, Var):
        return lambda x: np.asarray(x, dtype=float)
    if isinstance(e, Neg):
        f = compile_array(e.operand)
        return lambda x: -f(x)
    if isinstance(e, BinOp):
        lf, rf = compile_array(e.left), compile_array(e.right)
        if e.op == "+":
            return lambda x: lf(x) + rf(x)
        if e.op == "-":
            return lambda x: lf(x) - rf(x)
        if e.op == "*":
            return lambda x: lf(x) * rf(x)

        def _div(x):
            d = rf(x)
            _reject(d == 0.0, x, "division by zero")
            return lf(x) / d

        return _div
    if isinstance(e, Pow):
        bf = compile_array(e.base)
        q = e.exponent
        if q.denominator == 1:
            n = q.numerator

            def _ipow(x):
                b = bf(x)
                if n < 0:
                    _reject(b == 0.0, x, "zero base with negative power")
                return b**n

            return _ipow
        ef = float(q)

        def _rpow(x):
            b = bf(x)
            _reject(b <= 0.0, x, "non-integer power of non-positive base")
            return b**ef

        return _rpow
    if isinstance(e, Call):
        af = compile_array(e.arg)
        if e.func == "exp":
            def _exp(x):
                a = af(x)
                with np.errstate(over="ignore"):
                    v = np.exp(a)
                _reject(np.isinf(v) & np.isfinite(a), x, "exp overflow")
                return v
            return _exp
        if e.func == "log":
            def _log(x):
                v = af(x)
                _reject(v <= 0.0, x, "log of non-positive value")
                return np.log(v)
            return _log
        if e.func == "sqrt":
            def _sqrt(x):
                v = af(x)
                _reject(v < 0.0, x, "sqrt of negative value")
                return np.sqrt(v)
            return _sqrt
        fn = _ARRAY_CALLS[e.func]
        return lambda x: fn(af(x))
    if isinstance(e, (SType, CType)):
        af = compile_array(e.arg)
        scale, call = _stype_pieces(e.t)
        if isinstance(e, SType):
            if call == "":
                return af
            fn = np.sin if call == "sin" else np.sinh
            return lambda x: fn(scale * af(x))
        if call == "":
            return lambda x: np.ones(np.shape(x))
        fn = np.cos if call == "sin" else np.cosh
        return lambda x: fn(scale * af(x))
    raise TypeError(f"not an Expr node: {e!r}")


def eval_scalar(e: Expr, x: float) -> float:
    return compile_scalar(e)(x)


def eval_jet(e: Expr, x: float, order: int) -> Jet:
    """Jet of the expression at x, truncated at the given order."""
    if isinstance(e, Const):
        return jets.jet_const(e.value, x, order)
    if isinstance(e, Var):
        return jets.jet_var(x, order)
    if isinstance(e, Neg):
        return -eval_jet(e.operand, x, order)
    if isinstance(e, BinOp):
        a = eval_jet(e.left, x, order)
        b = eval_jet(e.right, x, order)
        return jets.jet_combine({"+": "add", "-": "sub", "*": "mul", "/": "div"}[e.op], a, b)
    if isinstance(e, Pow):
        return jets.jpow(eval_jet(e.base, x, order), e.exponent)
    if isinstance(e, Call):
        return jets.jet_elem(e.func, eval_jet(e.arg, x, order))
    if isinstance(e, (SType, CType)):
        a = eval_jet(e.arg, x, order)
        scale, call = _stype_pieces(e.t)
        if call:
            a = jets.mul(jets.jet_const(scale, x, order), a)
        if isinstance(e, SType):
            if call == "":
                return a
            return jets.jsin(a) if call == "sin" else jets.jsinh(a)
        if call == "":
            return jets.jet_const(1.0, x, order)
        return jets.jcos(a) if call == "sin" else jets.jcosh(a)
    raise TypeError(f"not an Expr node: {e!r}")


# ------------------------------------------------- exact AST differentiation

def _derivative(e: Expr) -> Expr:
    """Exact derivative tree.

    Used for pair construction, and compiled with compile_array for the
    Wronskian W10 = f'g - fg' that the (viii) antiderivative integrates.
    """
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0)
    if isinstance(e, Neg):
        return Neg(_derivative(e.operand))
    if isinstance(e, BinOp):
        dl, dr = _derivative(e.left), _derivative(e.right)
        if e.op in "+-":
            return BinOp(e.op, dl, dr)
        if e.op == "*":
            return BinOp("+", BinOp("*", dl, e.right), BinOp("*", e.left, dr))
        num = BinOp("-", BinOp("*", dl, e.right), BinOp("*", e.left, dr))
        return BinOp("/", num, Pow(e.right, Fraction(2)))
    if isinstance(e, Pow):
        q = e.exponent
        inner = BinOp("*", Const(float(q)), Pow(e.base, q - 1))
        return BinOp("*", inner, _derivative(e.base))
    if isinstance(e, Call):
        d = _derivative(e.arg)
        u = e.arg
        table = {
            "exp": Call("exp", u),
            "sin": Call("cos", u),
            "sinh": Call("cosh", u),
            "cosh": Call("sinh", u),
        }
        if e.func in table:
            return BinOp("*", table[e.func], d)
        if e.func == "cos":
            return Neg(BinOp("*", Call("sin", u), d))
        if e.func == "log":
            return BinOp("/", d, u)
        # sqrt
        return BinOp("/", d, BinOp("*", Const(2.0), Call("sqrt", u)))
    if isinstance(e, SType):
        scale, _ = _stype_pieces(e.t)
        return BinOp("*", BinOp("*", Const(scale), CType(e.t, e.arg)), _derivative(e.arg))
    if isinstance(e, CType):
        scale, _ = _stype_pieces(e.t)
        if e.t == 0.0:
            return Const(0.0)
        coef = e.t / scale  # -sqrt(-t) for t<0, sqrt(t) for t>0
        return BinOp("*", BinOp("*", Const(coef), SType(e.t, e.arg)), _derivative(e.arg))
    raise TypeError(f"not an Expr node: {e!r}")


# ------------------------------------------------------------ pair validation

@dataclass(frozen=True)
class FunctionPair:
    """A validated generator pair on an open interval.

    validated_order n certifies: f, g have finite jets of order n on the
    sample grid, g > 0, and the first-order Wronskian f'g - fg' keeps one
    sign with magnitude >= TOL_WRONSKIAN. All of this is a grid certificate,
    not a proof on the continuum.
    """

    f: Expr
    g: Expr
    interval: tuple[float, float]
    validated_order: int
    w_sign: int = 0

    def f_at(self, x: float) -> float:
        return compile_scalar(self.f)(x)

    def g_at(self, x: float) -> float:
        return compile_scalar(self.g)(x)

    def contains(self, x: float) -> bool:
        lo, hi = self.interval
        return lo < x < hi


def interior_grid(interval: tuple[float, float], size: int) -> list[float]:
    """Uniform grid strictly inside an open interval."""
    lo, hi = interval
    step = (hi - lo) / (size + 1)
    return [lo + step * (i + 1) for i in range(size)]


def validate_pair(
    f: Union[Expr, str],
    g: Union[Expr, str],
    interval: tuple[float, float],
    n: int = 6,
    grid_size: int = DEFAULT_GRID_SIZE,
    tol_w: float = TOL_WRONSKIAN,
) -> FunctionPair:
    """Grid-certify admissibility of (f, g) on the open interval.

    Checks, at each of grid_size interior points: finite jets of order
    max(n, 1) for both functions (NonSmooth), g > 0 (NotPositive), and
    |f'g - fg'| >= tol_w with constant sign (WronskianVanishes).
    """
    if isinstance(f, str):
        f = parse(f)
    if isinstance(g, str):
        g = parse(g)
    lo, hi = float(interval[0]), float(interval[1])
    if not (lo < hi):
        raise ValueError(f"empty interval ({lo!r}, {hi!r})")
    if grid_size < 32:
        raise ValueError("grid_size must be at least 32")
    order = max(n, 1)
    sign = 0
    for x in interior_grid((lo, hi), grid_size):
        try:
            jf = eval_jet(f, x, order)
            jg = eval_jet(g, x, order)
        except (DomainViolation, OverflowError, ValueError) as exc:
            raise NonSmooth(x, str(exc)) from exc
        if not (jf.is_finite() and jg.is_finite()):
            raise NonSmooth(x, "non-finite jet coefficients")
        if not jg.value > 0.0:
            raise NotPositive("g", x, jg.value)
        w = jf.coeffs[1] * jg.coeffs[0] - jf.coeffs[0] * jg.coeffs[1]
        if not math.isfinite(w) or abs(w) < tol_w:
            raise WronskianVanishes(x, w)
        s = 1 if w > 0 else -1
        if sign and s != sign:
            raise WronskianVanishes.sign_change(x_prev, w_prev, x, w)
        sign, x_prev, w_prev = s, x, w
    return FunctionPair(f=f, g=g, interval=(lo, hi), validated_order=n, w_sign=sign)

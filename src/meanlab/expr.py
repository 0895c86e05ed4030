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
from functools import cached_property, lru_cache
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
# bounds of the per-process memos of validate_pair and parse: the parse memo
# holds the two texts of each memoized pair
PAIR_CACHE_SIZE = 256
PARSE_CACHE_SIZE = 2 * PAIR_CACHE_SIZE

class Expr:
    """Base class; concrete nodes are frozen dataclasses below."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def __post_init__(self):
        # -0.0 == 0.0 with equal hashes, so a cache keyed on trees would hand
        # back whichever zero it saw first; one zero keeps results history-free
        object.__setattr__(self, "value", self.value + 0.0)


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
    func: str  # a name in _RULES
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
            kind = m.lastgroup  # the one alternative that matched: num, ident or op
            self.toks.append((kind, m.group(kind), m.start(kind)))
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


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse(text: str) -> Expr:
    """Parse expression text into an AST; raises ParseError with position.

    Trees are frozen, so one text gives back one shared tree per process; a
    ParseError is not cached and is raised again on every call.
    """
    ts = _Tokens(text)
    e = _parse_sum(ts)
    kind, val, pos = ts.peek()
    if kind != "end":
        raise ParseError(f"trailing input {val!r}", pos, ("operator", "end of input"))
    return e


def _parse_chain(ts: _Tokens, operand, ops: str, combine):
    """A left-associative run operand (op operand)* with op one of ops;
    combine(op, left, right, pos) folds each step."""
    v = operand(ts)
    while True:
        kind, val, pos = ts.peek()
        if kind != "op" or val not in ops:
            return v
        ts.next()
        v = combine(val, v, operand(ts), pos)


def _binop(op: str, left: Expr, right: Expr, pos: int) -> Expr:
    return BinOp(op, left, right)


def _parse_sum(ts: _Tokens) -> Expr:
    return _parse_chain(ts, _parse_term, "+-", _binop)


def _parse_term(ts: _Tokens) -> Expr:
    return _parse_chain(ts, _parse_unary, "*/", _binop)


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
        # the exponent itself is atom-level: x^1/2 stays (x^1)/2, not x^(1/2)
        return Pow(base, _parse_rational_atom(ts))
    return base


# The rational-constant grammar of exponents and of the S/C parameter, folded
# exactly: signs, integer and decimal literals (decimals fold exactly, so
# x^0.5 == x^(1/2)), + - * /, integer powers, and parentheses.


def _fold(op: str, left: Fraction, right: Fraction, pos: int) -> Fraction:
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if right == 0:
        raise ParseError("division by zero in constant", pos)
    return left / right


def _parse_rational(ts: _Tokens) -> Fraction:
    """A constant sum, as the parameter of S(...; and C(...;."""
    return _parse_chain(ts, _parse_rational_term, "+-", _fold)


def _parse_rational_term(ts: _Tokens) -> Fraction:
    return _parse_chain(ts, _parse_rational_atom, "*/", _fold)


def _parse_rational_atom(ts: _Tokens) -> Fraction:
    """A signed literal, optionally raised to an integer power, or a
    parenthesized constant sum; the exponent after '^'."""
    kind, val, pos = ts.peek()
    if kind == "op" and val == "-":
        ts.next()
        return -_parse_rational_atom(ts)
    if kind == "op" and val == "(":
        ts.next()
        v = _parse_rational(ts)
        ts.expect_op(")")
        return v
    if kind == "num":
        ts.next()
        v = Fraction(val)
        k2, v2, _ = ts.peek()
        if k2 == "op" and v2 == "^":
            ts.next()
            e = _parse_rational_atom(ts)
            if e.denominator != 1:
                raise ParseError("non-integer power inside constant exponent", pos)
            v = v ** e.numerator
        return v
    raise ParseError(f"found {val or 'end of input'!r}", pos, ("rational constant",))


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
            try:
                t = float(_parse_rational(ts))
            except OverflowError:
                raise ParseError(f"non-finite {val} parameter", pos) from None
            ts.expect_op(";")
            arg = _parse_sum(ts)
            ts.expect_op(")")
            return SType(t, arg) if val == "S" else CType(t, arg)
        raise ParseError(
            f"unknown identifier {val!r}", pos, ("x",) + _CALLS + ("S", "C")
        )
    raise ParseError(f"found {val or 'end of input'!r}", pos, ("number", "identifier", "'('"))


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

@dataclass(frozen=True)
class _Rule:
    """One elementary call on every evaluation route.

    scalar and array are its math and numpy functions, jet its Taylor rule.
    Where bad holds for the argument (a float, or a mask for arrays), the
    call raises DomainViolation with the domain message. A rule that
    overflows raises "<name> overflow" where a finite argument gives an
    infinite value.
    """

    name: str
    scalar: Callable[[float], float]
    array: Callable[[np.ndarray], np.ndarray]
    jet: Callable[[Jet], Jet] | None = None
    bad: Callable | None = None
    domain: str = ""
    overflows: bool = False


_RULES = {
    r.name: r
    for r in (
        _Rule("exp", math.exp, np.exp, jets.jexp, overflows=True),
        _Rule("log", math.log, np.log, jets.jlog, lambda v: v <= 0.0, "log of non-positive value"),
        _Rule("sin", math.sin, np.sin, jets.jsin),
        _Rule("cos", math.cos, np.cos, jets.jcos),
        _Rule("sinh", math.sinh, np.sinh, jets.jsinh, overflows=True),
        _Rule("cosh", math.cosh, np.cosh, jets.jcosh, overflows=True),
        _Rule("sqrt", math.sqrt, np.sqrt, jets.jsqrt, lambda v: v < 0.0, "sqrt of negative value"),
    )
}
_CALLS = tuple(_RULES)


def _power_rule(q: Fraction) -> _Rule:
    """The rule of u^q; float and array powers share one function."""
    if q.denominator == 1:
        n = q.numerator
        ipow = lambda b: b**n
        bad = (lambda b: b == 0.0) if n < 0 else None
        return _Rule("power", ipow, ipow, None, bad, "zero base with negative power", True)
    ef = float(q)
    rpow = lambda b: b**ef
    bad = lambda b: b <= 0.0
    return _Rule("power", rpow, rpow, None, bad, "non-integer power of non-positive base", True)


def _sc_rule(e: Union[SType, CType]) -> tuple[float, _Rule | None]:
    """Scale and rule of S_t/C_t: sin/cos for t < 0, sinh/cosh for t > 0.

    None (t = 0) means the identity for S and the constant 1 for C.
    """
    if e.t == 0.0:
        return 1.0, None
    sine, cosine = ("sin", "cos") if e.t < 0.0 else ("sinh", "cosh")
    return math.sqrt(abs(e.t)), _RULES[sine if isinstance(e, SType) else cosine]


def _compile(e: Expr, arrays: bool) -> Callable:
    """The one compiler behind compile_scalar and compile_array.

    Subtrees compile through the cached entry point of the same route. The
    routes differ only in constants, the variable, and the checks of
    _scalar_*/_array_*. A denominator is checked before its numerator is
    evaluated.
    """
    sub = compile_array if arrays else compile_scalar
    reject, apply = (_array_reject, _array_apply) if arrays else (_scalar_reject, _scalar_apply)
    if isinstance(e, Const):
        c = e.value
        return (lambda x: np.full(np.shape(x), c)) if arrays else (lambda x: c)
    if isinstance(e, Var):
        return (lambda x: np.asarray(x, dtype=float)) if arrays else (lambda x: x)
    if isinstance(e, Neg):
        f = sub(e.operand)
        return lambda x: -f(x)
    if isinstance(e, BinOp):
        lf, rf = sub(e.left), sub(e.right)
        if e.op == "+":
            return lambda x: lf(x) + rf(x)
        if e.op == "-":
            return lambda x: lf(x) - rf(x)
        if e.op == "*":
            return lambda x: lf(x) * rf(x)

        def _div(x):
            d = rf(x)
            reject(d == 0.0, x, "division by zero")
            return lf(x) / d

        return _div
    if isinstance(e, Pow):
        return apply(sub(e.base), _power_rule(e.exponent))
    if isinstance(e, Call):
        return apply(sub(e.arg), _RULES[e.func])
    if isinstance(e, (SType, CType)):
        af = sub(e.arg)
        scale, rule = _sc_rule(e)
        if rule is None:
            return af if isinstance(e, SType) else _compile(Const(1.0), arrays)
        return apply(lambda x: scale * af(x), rule)
    raise TypeError(f"not an Expr node: {e!r}")


@lru_cache(maxsize=1024)
def compile_scalar(e: Expr) -> Callable[[float], float]:
    """Compile to a plain float callable. Domain failures raise DomainViolation."""
    return _compile(e, arrays=False)


@lru_cache(maxsize=1024)
def compile_array(e: Expr) -> Callable[[np.ndarray], np.ndarray]:
    """Compile to an elementwise numpy callable, the array twin of compile_scalar.

    The result has the shape of its argument. Each domain and overflow check
    of compile_scalar becomes a mask; DomainViolation names the first point,
    in C order, where the mask holds, with the text compile_scalar gives for
    that point. Values agree with compile_scalar to a few ulps (numpy's
    elementary functions are not libm's).
    """
    return _compile(e, arrays=True)


def _violation(message: str, x: float) -> DomainViolation:
    """The DomainViolation of every compile route: the message and the point x."""
    return DomainViolation(f"{message} at {x!r}")


def _scalar_reject(bad: bool, x: float, message: str) -> None:
    if bad:
        raise _violation(message, x)


def _scalar_apply(af: Callable[[float], float], rule: _Rule) -> Callable[[float], float]:
    fn, bad, domain, name = rule.scalar, rule.bad, rule.domain, rule.name

    def call(x: float) -> float:
        v = af(x)
        if bad is not None and bad(v):
            raise _violation(domain, x)
        # math raises OverflowError only for the rules that overflow
        try:
            return fn(v)
        except OverflowError:
            raise _violation(f"{name} overflow", x) from None

    return call


def _array_reject(mask, x, message: str) -> None:
    """Raise DomainViolation naming the first point of x where mask holds."""
    if mask.any():
        raise _violation(message, float(np.asarray(x, dtype=float).flat[int(np.argmax(mask))]))


def _array_apply(af: Callable, rule: _Rule) -> Callable[[np.ndarray], np.ndarray]:
    fn, bad, domain, name = rule.array, rule.bad, rule.domain, rule.name

    def call(x):
        v = af(x)
        if bad is not None:
            _array_reject(bad(v), x, domain)
        if not rule.overflows:
            return fn(v)
        with np.errstate(over="ignore"):
            out = fn(v)
        _array_reject(np.isinf(out) & np.isfinite(v), x, f"{name} overflow")
        return out

    return call


def eval_scalar(e: Expr, x: float) -> float:
    return compile_scalar(e)(x)


def eval_jet(e: Expr, x, order: int) -> Jet:
    """Jet of the expression at x, truncated at the given order. For an array
    x, each coefficient is an array of its shape with the bits of each point
    alone, and an error is the float route's at the first failing point in C
    order, with that flat index in its index attribute."""
    if not isinstance(x, np.ndarray):
        return _jet(e, float(x), order)
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        j = jets.first_failure(lambda p: _jet(e, p, order), x)
    return Jet(x, tuple(c if isinstance(c, np.ndarray) else np.full(x.shape, c) for c in j.coeffs))


def _jet(e: Expr, x, order: int) -> Jet:
    if isinstance(e, Const):
        return jets.jet_const(e.value, x, order)
    if isinstance(e, Var):
        return jets.jet_var(x, order)
    if isinstance(e, Neg):
        return -_jet(e.operand, x, order)
    if isinstance(e, BinOp):
        return _JET_BINARY[e.op](_jet(e.left, x, order), _jet(e.right, x, order))
    if isinstance(e, Pow):
        return jets.jpow(_jet(e.base, x, order), e.exponent)
    if isinstance(e, Call):
        return _RULES[e.func].jet(_jet(e.arg, x, order))
    if isinstance(e, (SType, CType)):
        a = _jet(e.arg, x, order)
        scale, rule = _sc_rule(e)
        if rule is None:
            return a if isinstance(e, SType) else jets.jet_const(1.0, x, order)
        return rule.jet(jets.mul(jets.jet_const(scale, x, order), a))
    raise TypeError(f"not an Expr node: {e!r}")


_JET_BINARY = {"+": jets.add, "-": jets.sub, "*": jets.mul, "/": jets.div}


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
        scale, _ = _sc_rule(e)
        return BinOp("*", BinOp("*", Const(scale), CType(e.t, e.arg)), _derivative(e.arg))
    if isinstance(e, CType):
        scale, _ = _sc_rule(e)
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

    # compile_scalar(f) and (g), looked up once per pair and then held
    @cached_property
    def f_at(self) -> Callable[[float], float]:
        return compile_scalar(self.f)

    @cached_property
    def g_at(self) -> Callable[[float], float]:
        return compile_scalar(self.g)

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

    Admissibility is memoized per process: equal trees (or texts), interval
    ends and options give back the same frozen FunctionPair, with the
    kernels it already holds. A failure is not cached and is raised again
    on every call.
    """
    if isinstance(f, str):
        f = parse(f)
    if isinstance(g, str):
        g = parse(g)
    # + 0.0 folds -0.0, as Const does, so an end's sign of zero cannot leak
    # from one call into the pair another call gets back
    lo, hi = float(interval[0]) + 0.0, float(interval[1]) + 0.0
    return _validated_pair(f, g, lo, hi, n, grid_size, tol_w)


# typed: n = 6 and n = 6.0 are kept apart, as validated_order records n
@lru_cache(maxsize=PAIR_CACHE_SIZE, typed=True)
def _validated_pair(
    f: Expr, g: Expr, lo: float, hi: float, n: int, grid_size: int, tol_w: float
) -> FunctionPair:
    if not (lo < hi):
        raise ValueError(f"empty interval ({lo!r}, {hi!r})")
    if grid_size < 32:
        raise ValueError("grid_size must be at least 32")
    xs = np.array(interior_grid((lo, hi), grid_size))
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            sign = jets.first_failure(lambda p: _grid_sign(f, g, p, max(n, 1), tol_w), xs)
    except (DomainViolation, OverflowError, ValueError) as exc:
        raise NonSmooth(float(xs[getattr(exc, "index", 0)]), str(exc)) from exc
    return FunctionPair(f=f, g=g, interval=(lo, hi), validated_order=n, w_sign=sign)


def _grid_sign(f: Expr, g: Expr, xs: np.ndarray, order: int, tol_w: float) -> int:
    """The sign of f'g - fg' on the points xs, after the checks of
    validate_pair; each check raises at its first failing point."""
    jf, jg = eval_jet(f, xs, order), eval_jet(g, xs, order)
    finite = np.logical_and.reduce([np.isfinite(c) for c in jf.coeffs + jg.coeffs])
    jets.reject(~finite, lambda i: NonSmooth(float(xs[i]), "non-finite jet coefficients"))
    g0, w = jg.coeffs[0], jf.coeffs[1] * jg.coeffs[0] - jf.coeffs[0] * jg.coeffs[1]
    jets.reject(~(g0 > 0.0), lambda i: NotPositive("g", float(xs[i]), float(g0[i])))
    small = ~np.isfinite(w) | (np.abs(w) < tol_w)
    jets.reject(small, lambda i: WronskianVanishes(float(xs[i]), float(w[i])))
    jets.reject(
        np.r_[False, np.diff(w > 0)],
        lambda i: WronskianVanishes.sign_change(*map(float, (xs[i - 1], w[i - 1], xs[i], w[i]))),
    )
    return 1 if w[-1] > 0 else -1

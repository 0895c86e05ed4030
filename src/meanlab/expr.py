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
from functools import cached_property, lru_cache, partial
from typing import Callable, Union

import numpy as np

from . import jets
from .errors import (
    DomainViolation, NonSmooth, NotPositive, OutOfInterval, ParseError, WronskianVanishes,
)
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
# bound of the memos of kernel factories: one per tree shape and route for
# values, one per tuple of shapes and order for jets
KERNEL_SHAPE_CACHE_SIZE = 256

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

# the Taylor template of each elementary call (jets); the value kernels are
# the same templates at order 0
_RULES = {
    "exp": jets.exp_rule, "log": jets.log_rule,
    **{name: partial(jets.sincos_rule, name=name) for name in ("sin", "cos", "sinh", "cosh")},
    "sqrt": jets.sqrt_rule,
}
_CALLS = tuple(_RULES)


def _sc_rule(e: Union[SType, CType]) -> tuple[float, str | None]:
    """Scale and call of S_t/C_t: sin/cos for t < 0, sinh/cosh for t > 0.

    None (t = 0) means the identity for S and the constant 1 for C.
    """
    if e.t == 0.0:
        return 1.0, None
    sine, cosine = ("sin", "cos") if e.t < 0.0 else ("sinh", "cosh")
    return math.sqrt(abs(e.t)), sine if isinstance(e, SType) else cosine


def _value_shape(e: Expr, consts: list, seen: dict):
    """The key and the shape of e's value code; e's arguments go to consts.

    The shape is all the printed code depends on: node structure, the class
    of each power and each integer exponent (the jet code unrolls on it).
    An S/C node is walked as the call of its rule on scale * u, or as u or
    1 where t = 0. consts gets the constants and exponents in the order
    _emit_jet takes them. The key is e's structure with those values in it.
    seen maps the keys of the compound values already computed at the same
    point to their number, in the order their code ends: such a subtree has
    the shape ("ref", i) and no arguments, and a new one joins seen.
    """
    if isinstance(e, (SType, CType)):
        scale, name = _sc_rule(e)
        if name is not None:
            e = Call(name, BinOp("*", Const(scale), e.arg))
        else:  # S(0; u) is u, and C(0; u) is 1 without u
            e = e.arg if isinstance(e, SType) else Const(1.0)
        return _value_shape(e, consts, seen)
    if isinstance(e, Const):
        consts.append(e.value)
        return ("c", e.value), "c"
    if isinstance(e, Var):
        return "x", "x"
    start = len(consts)
    if isinstance(e, Neg):
        k, s = _value_shape(e.operand, consts, seen)
        key, shape = ("neg", k), ("neg", s)
    elif isinstance(e, BinOp):
        if e.op == "/":  # the denominator comes first
            kr, sr = _value_shape(e.right, consts, seen)
            kl, sl = _value_shape(e.left, consts, seen)
        else:
            kl, sl = _value_shape(e.left, consts, seen)
            kr, sr = _value_shape(e.right, consts, seen)
        key, shape = (e.op, kl, kr), (e.op, sl, sr)
    elif isinstance(e, Pow):
        kb, sb = _value_shape(e.base, consts, seen)
        q = e.exponent
        if q.denominator != 1:  # OverflowError for a fraction with no float
            k = float(q)
            key, shape = ("rpow", k, kb), ("rpow", sb)
        else:  # the sign of a Fraction is its numerator's
            k = q.numerator
            kind = "npow" if k < 0 else "ipow"
            key, shape = (kind, k, kb), (kind, sb, k)
        consts.append(k)
    elif isinstance(e, Call):
        k, s = _value_shape(e.arg, consts, seen)
        key, shape = (e.func, k), (e.func, s)
    else:
        raise TypeError(f"not an Expr node: {e!r}")
    i = seen.get(key)
    if i is not None:
        del consts[start:]
        return key, ("ref", i)
    seen[key] = len(seen)
    return key, shape


def _kernel(e: Expr, arrays: bool) -> Callable:
    """The one compiler behind compile_scalar and compile_array: the factory
    of e's shape, given e's arguments. A subtree equal to one computed
    before is not computed again."""
    (shape,), consts = _value_shapes(e)
    return _factory(shape, arrays)(*consts)


def _value_shapes(*trees: Expr) -> tuple[tuple, tuple]:
    """The shapes of the trees' value code, each taken with the earlier
    trees' seen so that it reuses the subtrees they share, and their
    arguments in order."""
    consts: list = []
    seen: dict = {}
    return tuple(_value_shape(e, consts, seen)[1] for e in trees), tuple(consts)


_ARRAY_NAMES = {
    "_violation": jets.violation, "_first_failure": jets.first_failure,
    "full": np.full, "shape": np.shape, "asarray": np.asarray,
    "errstate": np.errstate, "isinf": np.isinf, "isfinite": np.isfinite,
    **{n: getattr(np, n) for n in _CALLS},
}


def _arguments() -> tuple[list[str], Callable[[], str]]:
    """The parameters of a printed kernel, c0, c1, ..., and arg(), which
    names the next one."""
    params: list[str] = []

    def arg() -> str:
        params.append(f"c{len(params)}")
        return params[-1]

    return params, arg


def _values(em: jets.Emitter, shapes: tuple) -> tuple[list, list[str]]:
    """Print the values of shapes at em.point through em, as jets of order 0
    that share their subtrees; their locals and the parameters they read."""
    params, arg = _arguments()
    memo: list = []
    return [_emit_jet(em, shape, 0, arg, memo)[0] for shape in shapes], params


@lru_cache(maxsize=KERNEL_SHAPE_CACHE_SIZE)
def _factory(shape, arrays: bool) -> Callable:
    """The kernel factory of a shape on one route, printed and compiled once;
    an array kernel runs under jets.first_failure."""
    em = jets.Emitter(route="array" if arrays else "float")
    (out,), params = _values(em, (shape,))
    lines = "".join(f"        {line}\n" for line in em.statements([out]))
    run = "lambda x: _first_failure(kernel, asarray(x, dtype=float))" if arrays else "kernel"
    source = f"def factory({', '.join(params)}):\n    def kernel(x):\n{lines}        return {out}\n    return {run}\n"
    return jets.compile_source(source, _ARRAY_NAMES if arrays else jets.NAMES, "kernel")["factory"]


@lru_cache(maxsize=1024)
def compile_scalar(e: Expr) -> Callable[[float], float]:
    """Compile to a plain float callable. Domain failures raise DomainViolation."""
    return _kernel(e, arrays=False)


@lru_cache(maxsize=1024)
def compile_array(e: Expr) -> Callable[[np.ndarray], np.ndarray]:
    """Compile to an elementwise numpy callable, the array twin of compile_scalar.

    The result has the shape of its argument. Each domain and overflow check
    of compile_scalar becomes a mask, with the text compile_scalar gives; a
    failure is the one at the first failing point in C order, with its flat
    index (jets.first_failure). Values agree with compile_scalar to a few
    ulps (numpy's elementary functions are not libm's).
    """
    return _kernel(e, arrays=True)


def eval_scalar(e: Expr, x: float) -> float:
    return compile_scalar(e)(x)


def eval_jet(e: Expr, x, order: int) -> Jet:
    """Jet of the expression at x, truncated at the given order. For an array
    x, each coefficient is an array of its shape with the bits of each point
    alone, and an error is the float route's at the first failing point in C
    order, with that flat index in its index attribute."""
    shapes, consts = _value_shapes(e)
    return _run_jets(_jet_factory(shapes, order)(*consts), x, order)[0]


def pair_jets(pair: FunctionPair, x, order: int) -> tuple[Jet, Jet]:
    """The jets of f and g at a float x or an array of points, as eval_jet
    gives each, from the pair's jet kernel of the order, printed from its
    value_shapes and then held. A point outside the interval (or nan) raises
    OutOfInterval; an error is the one at the first failing point, f's before
    g's at one point."""
    lo, hi = pair.interval
    jets.reject((x <= lo) | (x >= hi) | (x != x), lambda i: OutOfInterval(jets.at(x, i), pair.interval))
    kernel = pair.jet_kernels.get(order)
    if kernel is None:
        shapes, consts = pair.value_shapes
        kernel = pair.jet_kernels[order] = _jet_factory(shapes, order)(*consts)
    return _run_jets(kernel, x, order)


def _run_jets(kernel: Callable, x, order: int) -> tuple[Jet, ...]:
    """The jets a jet kernel gives at x, order + 1 coefficients each."""
    if isinstance(x, np.ndarray):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = jets.first_failure(kernel, x)
        coeffs = tuple(c if isinstance(c, np.ndarray) else np.full(x.shape, c) for c in coeffs)
    else:
        x = float(x)
        coeffs = kernel(x)
    n = order + 1
    return tuple(Jet(x, coeffs[i : i + n]) for i in range(0, len(coeffs), n))


def _emit_jet(em: jets.Emitter, shape, order: int, arg: Callable[[], str], memo: list) -> list:
    """Print the jet of a value shape (_value_shape) at em.point through em;
    arg() names the next argument, and memo holds the jets of the compound
    values printed so far, which a ("ref", i) reads back. A denominator and
    its check come before the numerator, and C(0; u) is the constant 1 of
    its shape, without u."""
    if shape == "x":
        return [em.point, 1.0, *[0.0] * order][: order + 1]
    if shape == "c":
        return [em.const(arg())] + [0.0] * order
    tag = shape[0]
    if tag == "ref":
        return memo[shape[1]]

    def walk(s) -> list:
        return _emit_jet(em, s, order, arg, memo)

    if tag == "/":
        b = walk(shape[2])
        jets.nonzero_divisor(em, b[0])
        out = jets.div_rule(em, walk(shape[1]), b, check=False)
    else:
        a = walk(shape[1])
        if tag == "neg":
            out = [em.neg(v) for v in a]
        elif tag == "*":
            out = jets.mul_rule(em, a, walk(shape[2]))
        elif tag in ("+", "-"):
            out = [(em.add if tag == "+" else em.sub)(p, q) for p, q in zip(a, walk(shape[2]))]
        elif tag == "rpow":
            out = jets.rpow_rule(em, a, arg())
        elif tag in ("ipow", "npow"):
            out = jets.ipow_rule(em, a, shape[2], arg())
        else:
            out = _RULES[tag](em, a)
    memo.append(out)
    return out


@lru_cache(maxsize=KERNEL_SHAPE_CACHE_SIZE)
def _jet_factory(shapes: tuple, order: int, fold: bool = True) -> Callable:
    """The jet kernel factory of a tuple of value shapes at order, compiled once.

    The factory takes the shapes' arguments and gives kernel(x), for a float
    x or an array of points alike, which returns each shape's coefficients in
    turn; a later shape reads the subtrees it shares with an earlier one.
    With fold, kernel folds the known zeros and ones of constant and identity
    jets; where a dropped term 0 * v meets a v that is not finite, it returns
    the unfolded kernel's coefficients instead.
    """
    jets._check_order(order)
    params, arg = _arguments()
    em = jets.Emitter(fold)
    memo: list = []
    out = [c for shape in shapes for c in _emit_jet(em, shape, order, arg, memo)]
    consts = ", ".join(params)
    fallback = f"_jet_factory(_shapes, {order}, False)({consts})(x)"
    source = f"def factory({consts}):\n    def kernel(x):\n{em.body(out, ' ' * 8, fallback)}    return kernel\n"
    names = {**jets.NAMES, "_jet_factory": _jet_factory, "_shapes": shapes}
    return jets.compile_source(source, names, "jet kernel")["factory"]


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

    # the mean kernels of the pair (means.mean_eval), one per measure, and
    # its jet kernels (pair_jets), one per order, bound on first use and then
    # held
    @cached_property
    def mean_kernels(self) -> dict:
        return {}

    @cached_property
    def jet_kernels(self) -> dict:
        return {}

    # the shapes of f's and g's value code, g's reusing the subtrees the two
    # share, and their arguments in order (_value_shapes)
    @cached_property
    def value_shapes(self) -> tuple[tuple, tuple]:
        return _value_shapes(self.f, self.g)

    def contains(self, x: float) -> bool:
        lo, hi = self.interval
        return lo < x < hi


def interior_grid(interval: tuple[float, float], size: int) -> list[float]:
    """Uniform grid strictly inside an open interval."""
    return _interior_points(interval, size).tolist()


def _interior_points(interval: tuple[float, float], size: int) -> np.ndarray:
    """interior_grid as an array: point i is lo + step * (i + 1), two IEEE
    operations, as a float loop gives it."""
    lo, hi = interval
    step = (hi - lo) / (size + 1)
    return lo + step * np.arange(1.0, size + 1)


def validate_pair(
    f: Union[Expr, str],
    g: Union[Expr, str],
    interval: tuple[float, float],
    n: int = 6,
) -> FunctionPair:
    """Grid-certify admissibility of (f, g) on the open interval.

    Checks, at each of DEFAULT_GRID_SIZE interior points: finite jets of
    order max(n, 1) for both functions (NonSmooth), g > 0 (NotPositive), and
    |f'g - fg'| >= TOL_WRONSKIAN with constant sign (WronskianVanishes).

    Admissibility is memoized per process: equal trees (or texts), interval
    ends and order give back the same frozen FunctionPair, with the
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
    return _validated_pair(f, g, lo, hi, n)


# typed: n = 6 and n = 6.0 are kept apart, as validated_order records n
@lru_cache(maxsize=PAIR_CACHE_SIZE, typed=True)
def _validated_pair(f: Expr, g: Expr, lo: float, hi: float, n: int) -> FunctionPair:
    if not (lo < hi):
        raise ValueError(f"empty interval ({lo!r}, {hi!r})")
    if not math.isfinite(hi - lo):
        raise ValueError(f"interval ({lo!r}, {hi!r}) has an infinite end or width")
    xs = _interior_points((lo, hi), DEFAULT_GRID_SIZE)
    # the checks run the pair's own jet kernel, so its shapes are walked once
    pair = FunctionPair(f=f, g=g, interval=(lo, hi), validated_order=n)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            jets.first_failure(lambda p: _check_grid(pair, p, max(n, 1)), xs)
    except (DomainViolation, OverflowError, ValueError) as exc:
        raise NonSmooth(float(xs[getattr(exc, "index", 0)]), str(exc)) from exc
    return pair


def _check_grid(pair: FunctionPair, xs: np.ndarray, order: int) -> None:
    """The checks of validate_pair on the points xs; each raises at its
    first failing point."""
    jf, jg = pair_jets(pair, xs, order)
    finite = jf.is_finite() & jg.is_finite()
    jets.reject(~finite, lambda i: NonSmooth(float(xs[i]), "non-finite jet coefficients"))
    g0, w = jg.coeffs[0], jf.coeffs[1] * jg.coeffs[0] - jf.coeffs[0] * jg.coeffs[1]
    jets.reject(~(g0 > 0.0), lambda i: NotPositive("g", float(xs[i]), float(g0[i])))
    small = ~np.isfinite(w) | (np.abs(w) < TOL_WRONSKIAN)
    jets.reject(small, lambda i: WronskianVanishes(float(xs[i]), float(w[i])))
    jets.reject(
        np.r_[False, np.diff(w > 0)],
        lambda i: WronskianVanishes.sign_change(*map(float, (xs[i - 1], w[i - 1], xs[i], w[i]))),
    )

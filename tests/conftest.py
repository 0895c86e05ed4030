"""Shared fixtures: seeded RNG, finite-difference weights, random generators."""

from __future__ import annotations

import random

import numpy as np
import pytest

from meanlab import expr as ex


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)


@pytest.fixture
def nprng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def fd_weights(z: float, nodes, m: int) -> np.ndarray:
    """Finite-difference weights on arbitrary nodes (Fornberg's recurrence).

    Returns array c of shape (len(nodes), m+1); sum(c[:, k] * f(nodes))
    approximates f^(k)(z).
    """
    x = np.asarray(nodes, dtype=float)
    n = len(x)
    c = np.zeros((n, m + 1))
    c1 = 1.0
    c4 = x[0] - z
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c


def fd_derivative(func, z: float, k: int, h: float = 1e-2, points: int = 13) -> float:
    """Central finite-difference estimate of func^(k)(z) on a uniform stencil."""
    offsets = [(i - (points - 1) / 2) * h for i in range(points)]
    nodes = [z + o for o in offsets]
    w = fd_weights(z, nodes, k)
    return float(sum(w[i, k] * func(nodes[i]) for i in range(points)))


# ------------------------------------------------------ random expression ASTs

def random_expr(rng: random.Random, depth: int = 3) -> ex.Expr:
    """Random AST drawn from the full grammar (for printer round-trip tests).

    Avoids shapes the parser normalizes away: Neg directly on a Const (the
    parser folds that into the literal) and non-finite constants.
    """
    if depth <= 0:
        choice = rng.random()
        if choice < 0.45:
            return ex.Var()
        value = rng.choice(
            [0.0, 1.0, 2.0, -1.0, -3.0, 0.5, -0.25, 3.75, 1e-3, 12345.678]
        )
        return ex.Const(value)
    roll = rng.random()
    if roll < 0.30:
        op = rng.choice("+-*/")
        return ex.BinOp(op, random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    if roll < 0.40:
        inner = random_expr(rng, depth - 1)
        if isinstance(inner, ex.Const):
            inner = ex.BinOp("+", inner, ex.Var())
        return ex.Neg(inner)
    if roll < 0.55:
        from fractions import Fraction

        q = rng.choice(
            [Fraction(2), Fraction(-1), Fraction(3), Fraction(1, 2), Fraction(2, 3), Fraction(-5, 4)]
        )
        return ex.Pow(random_expr(rng, depth - 1), q)
    if roll < 0.85:
        func = rng.choice(["exp", "log", "sin", "cos", "sinh", "cosh", "sqrt"])
        return ex.Call(func, random_expr(rng, depth - 1))
    t = rng.choice([-2.0, -1.0, -0.5, 0.0, 0.25, 1.0, 4.0])
    node = ex.SType if rng.random() < 0.5 else ex.CType
    return node(t, random_expr(rng, depth - 1))


# ------------------------------------------------- random admissible pairs

PAIR_FAMILIES = ("trig", "hyperbolic", "exponential", "power", "log", "polynomial")


def random_admissible_pair(rng: random.Random, family: str | None = None):
    """A randomly parametrized admissible pair with a safe open interval.

    Every family keeps g > 0 and the first-order Wronskian bounded away from
    zero on the returned interval, and stays analytic well beyond it.
    """
    fam = family or rng.choice(PAIR_FAMILIES)
    if fam == "trig":
        a = rng.uniform(0.4, 1.2)
        b = rng.uniform(-0.2, 0.2)
        f = f"sin({a} * x + {b})"
        g = f"cos({a} * x + {b})"
        lo, hi = -0.3, 0.9  # keeps a*x+b inside (-pi/2, pi/2)
    elif fam == "hyperbolic":
        a = rng.uniform(0.4, 1.5)
        f = f"sinh({a} * x)"
        g = f"cosh({a} * x)"
        lo, hi = -1.0, 1.0
    elif fam == "exponential":
        a = rng.uniform(0.3, 1.5)
        b = rng.uniform(-1.0, -0.1)
        f = f"exp({a} * x)"
        g = f"exp({b} * x)"
        lo, hi = -1.0, 1.0
    elif fam == "power":
        p = rng.choice([0.5, 1.5, 2.0, 3.0, -1.0])
        q = rng.choice([-0.5, 1.0, 2.5])
        while q == p:
            q = rng.choice([-0.5, 1.0, 2.5])
        f = f"x^({p if p != int(p) else int(p)})" if p != 0.5 else "sqrt(x)"
        g = f"x^({q if q != int(q) else int(q)})" if q != 2.5 else "x^(5/2)"
        lo, hi = 0.5, 2.0
    elif fam == "log":
        c = rng.uniform(0.5, 2.0)
        f = "log(x)"
        g = f"{c}"
        lo, hi = 1.2, 3.0
    else:
        a = rng.uniform(0.1, 0.5)
        f = f"x + {a} * x * x"
        g = "1"
        lo, hi = -0.4, 0.4
    pair = ex.validate_pair(f, g, (lo, hi))
    return pair


def mp_value(e: ex.Expr, x):
    """The value of the tree at x in mpmath arithmetic (needs mpmath)."""
    import mpmath

    if isinstance(e, ex.Const):
        return mpmath.mpf(e.value)
    if isinstance(e, ex.Var):
        return x
    if isinstance(e, ex.Neg):
        return -mp_value(e.operand, x)
    if isinstance(e, ex.BinOp):
        a, b = mp_value(e.left, x), mp_value(e.right, x)
        return {"+": a + b, "-": a - b, "*": a * b}[e.op] if e.op != "/" else a / b
    if isinstance(e, ex.Pow):
        q = e.exponent
        return mp_value(e.base, x) ** (mpmath.mpf(q.numerator) / q.denominator)
    if isinstance(e, ex.Call):
        return getattr(mpmath, e.func)(mp_value(e.arg, x))
    if isinstance(e, (ex.SType, ex.CType)):
        u, t = mp_value(e.arg, x), mpmath.mpf(e.t)
        sine = isinstance(e, ex.SType)
        if t == 0:
            return u if sine else mpmath.mpf(1)
        z = mpmath.sqrt(abs(t)) * u
        if t < 0:
            return mpmath.sin(z) if sine else mpmath.cos(z)
        return mpmath.sinh(z) if sine else mpmath.cosh(z)
    raise TypeError(e)

"""Taylor jets against an independent 50-digit reference.

The reference evaluates the expression tree in mpmath arithmetic and takes
its Taylor coefficients with mpmath.taylor, so it shares no code with the
float recurrences of meanlab.jets.
"""

from __future__ import annotations

import mpmath
import numpy as np
import pytest

from meanlab import expr as ex

from conftest import mp_value

ORDER = 6
BOUND = 1e-14  # max |c - ref| / max |ref| over the coefficients of one jet


def _reference(e: ex.Expr, x: float) -> list:
    with mpmath.workdps(50):
        return mpmath.taylor(lambda t: mp_value(e, t), mpmath.mpf(x), ORDER)


# together every node type: each call, each operator, integer, negative and
# rational powers, and S/C with each sign of the parameter
TREES = [
    "exp(x) * sin(2 * x) - 3",
    "log(x + 2) / (1 + x^2)",
    "cos(x)^3 + sinh(x / 2)^(-2)",
    "sqrt(cosh(x)) * x^(2/3)",
    "-(x^(-5/4)) + exp(-x * x)",
    "S(-2; x) * C(1.5; x) + S(0; x)",
    "C(-0.5; x^2) / C(0; x) - S(4; x / 3)",
    "exp(sin(x) / (1 + x^2)) * log(x + 1)",
    "(x + 1)^7 / (x + 3)^4",
    "sinh(log(x + 1)) * cos(sqrt(x) - 1)",
]
POINTS = (0.3, 0.9, 1.6)


@pytest.mark.parametrize("text", TREES)
def test_jets_match_mpmath(text):
    e = ex.parse(text)
    batch = ex.eval_jet(e, np.array(POINTS), ORDER)
    for i, x in enumerate(POINTS):
        ref = _reference(e, x)
        got = [float(c[i]) for c in batch.coeffs]
        assert got == list(ex.eval_jet(e, x, ORDER).coeffs)
        scale = max(abs(r) for r in ref)
        err = max(abs(mpmath.mpf(c) - r) for c, r in zip(got, ref))
        assert float(err / scale) <= BOUND, (x, float(err / scale))

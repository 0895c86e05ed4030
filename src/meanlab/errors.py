"""Exception hierarchy shared by all meanlab modules.

Every failure mode that is part of a module contract raises a subclass of
MeanLabError, so callers (and the CLI) can distinguish validation failures
from programming errors. The jet errors below come from the printed jet
kernels of expr.eval_jet and calculus.
"""

from __future__ import annotations


class MeanLabError(Exception):
    """Base class for all contract-level failures."""


# ---------------------------------------------------------------- jets

class OrderOutOfRange(MeanLabError):
    """Requested truncation order is negative or above the supported maximum."""


class DomainViolation(MeanLabError):
    """A kernel's check failed at a point: a zero divisor, a domain error or an overflow."""


# ---------------------------------------------------------------- expr

class ParseError(MeanLabError):
    """Expression text rejected; carries position and the expected token set."""

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = expected
        suffix = f" at position {position}"
        if expected:
            suffix += f" (expected {', '.join(expected)})"
        super().__init__(message + suffix)


class NotPositive(MeanLabError):
    """A function required to be strictly positive fails at a sample point."""

    def __init__(self, name: str, point: float, value: float):
        self.name = name
        self.point = point
        self.value = value
        super().__init__(f"{name} must be positive: value {value!r} at {point!r}")


class WronskianVanishes(MeanLabError):
    """First-order Wronskian below tolerance or changing sign on the grid."""

    def __init__(self, point: float, value: float):
        self.point = point
        self.value = value
        super().__init__(f"first-order Wronskian degenerate at {point!r} (value {value!r})")

    @classmethod
    def sign_change(cls, a: float, wa: float, b: float, wb: float) -> "WronskianVanishes":
        """The Wronskian has the value wa at the grid node a and wb of the
        other sign at the next node b."""
        exc = cls(b, wb)
        exc.args = (
            f"first-order Wronskian changes sign between {a!r} (value {wa!r}) "
            f"and {b!r} (value {wb!r})",
        )
        return exc


class NonSmooth(MeanLabError):
    """Jet evaluation failed or produced non-finite coefficients at a grid point."""

    def __init__(self, point: float, detail: str = ""):
        self.point = point
        msg = f"function not smooth to the requested order at {point!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


# ---------------------------------------------------------------- measures

class QuadratureNonFinite(MeanLabError):
    """Integrand produced a non-finite value under the measure."""

    def __init__(self, node: float, value: float):
        self.node = node
        self.value = value
        super().__init__(f"integrand returned {value!r} at quadrature node {node!r}")


class DegenerateMeasure(MeanLabError):
    """Measure is concentrated at a point (second centralized moment ~ 0)."""

    def __init__(self, mu2: float):
        self.mu2 = mu2
        super().__init__(f"measure is a point mass up to tolerance (mu_2 = {mu2!r})")


# ---------------------------------------------------------------- means

class BracketFailure(MeanLabError):
    """Root bracketing or convergence failed in a mean inversion."""

    def __init__(self, lo: float, hi: float, f_lo: float, f_hi: float, detail: str = ""):
        self.bracket = (lo, hi)
        self.values = (f_lo, f_hi)
        msg = f"no sign change on [{lo!r}, {hi!r}] (values {f_lo!r}, {f_hi!r})"
        if detail:
            msg = f"root solve failed on [{lo!r}, {hi!r}]: {detail}"
        super().__init__(msg)


class DegenerateDenominator(MeanLabError):
    """Difference-quotient denominator vanishes."""

    def __init__(self, x: float, y: float, value: float):
        self.points = (x, y)
        self.value = value
        super().__init__(f"denominator {value!r} is degenerate for arguments {x!r}, {y!r}")


class OutOfInterval(MeanLabError):
    """Argument left the validated open interval."""

    def __init__(self, point: float, interval: tuple[float, float]):
        self.point = point
        self.interval = interval
        super().__init__(f"{point!r} is outside the open interval {interval!r}")


# ---------------------------------------------------------------- calculus / equality

class IllConditionedFit(MeanLabError):
    """Least-squares design matrix too ill-conditioned to trust."""

    def __init__(self, condition: float, context: str = ""):
        self.condition = condition
        msg = f"ill-conditioned fit (condition estimate {condition:.3e})"
        if context:
            msg += f" in {context}"
        super().__init__(msg)


class NotApplicable(MeanLabError):
    """Check preconditions (regime, exponent existence, ...) not met."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)

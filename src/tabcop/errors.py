"""Exception hierarchy for tabcop.

Every error raised by the public API derives from :class:`TabcopError`,
so callers can catch the whole family at once.  The CLI maps input-side
errors to exit code 1 and infeasibility (no table with the requested
support/margins exists) to exit code 2.
"""

import math
import numbers


class TabcopError(Exception):
    """Base class for all tabcop errors."""


class ParseError(TabcopError, ValueError):
    """Malformed table text: unreadable cell or ragged rows."""


class ValidationError(TabcopError, ValueError):
    """Input violates a documented contract (negative entry, bad sum, ...)."""


class EmptyTableError(ValidationError):
    """A count table with grand total zero."""


class ZeroMarginError(ValidationError):
    """A table with an all-zero row or column."""


class DimensionMismatchError(ValidationError):
    """Two tables that were expected to share a shape do not."""


class DomainError(ValidationError):
    """A scalar parameter outside its mathematical domain."""


class ParamError(ValidationError):
    """A family parameter outside its admissible range."""


class DegenerateError(ValidationError):
    """An operation whose result would be identically zero or undefined."""


class UndefinedEntryError(ValidationError):
    """An odds-ratio matrix with 0/0 entries where none are allowed."""


class NotACopulaError(ValidationError):
    """A table whose margins are not uniform where a copula pmf is required."""


class InfeasibleError(TabcopError):
    """No nonnegative table with the requested support and margins exists.

    Carries the :class:`~tabcop.scaling.FeasibilityClass` that witnessed
    the infeasibility when available.
    """

    def __init__(self, message, classification=None):
        super().__init__(message)
        self.classification = classification


class NonConvergenceError(TabcopError):
    """Proportional fitting did not reach the requested tolerance.

    The partially converged diagnostics are attached for inspection.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


def check_nonnegative(value, name: str, error: type, allow_inf: bool = True) -> float:
    """``value`` as a float in [0, inf], or in [0, inf) without ``allow_inf``.

    Odds ratios and association parameters share this domain; each caller
    names the parameter and the :class:`ValidationError` subclass it
    raises.  Booleans and non-real types are rejected, as is NaN.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if math.isnan(value) or value < 0.0 or (math.isinf(value) and not allow_inf):
        upper = "inf]" if allow_inf else "inf)"
        raise error(f"{name} must lie in [0, {upper}, got {value!r}")
    return value


def check_size(value, name: str, minimum: int, error: type) -> int:
    """``value`` as an int of at least ``minimum``.

    Table sides, level counts and trial counts share this check; each
    caller names the size and the :class:`ValidationError` subclass it
    raises.  Booleans and non-integers (``3.0`` included) are rejected;
    NumPy integers are accepted.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)

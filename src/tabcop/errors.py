"""Exception hierarchy for tabcop.

Every error raised by the public API derives from :class:`TabcopError`,
so callers can catch the whole family at once.  The CLI maps input-side
errors to exit code 1 and infeasibility (no table with the requested
support/margins exists) to exit code 2.

The argument checks below run on every default argument of a fit, so a
plain ``float`` or ``int`` inside its domain is returned before the
``numbers`` ABC dispatch, which costs about as much as a small table's
sweeps; every other value takes the full checks and gets the same
result.
"""

import math
import numbers
import sys

#: The largest finite double.
_MAX_FLOAT = sys.float_info.max


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


def real_as_float(value, name: str, error: type) -> float:
    """``value``, a real but not a bool, as a float; else ``error`` names ``name``.

    A real that no float holds, such as the int 10**400, is rejected too.
    """
    if type(value) is float:  # the common case, without the ABC dispatch
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise error(f"{name} lies past the range of a double") from None


def check_nonnegative(value, name: str, error: type, allow_inf: bool = True) -> float:
    """``value`` as a float in [0, inf], or in [0, inf) without ``allow_inf``.

    Odds ratios and association parameters share this domain; each caller
    names the parameter and the :class:`ValidationError` subclass it
    raises.  Any real number is accepted, NumPy scalars included;
    booleans (``np.bool_`` is not a real) and other types are rejected,
    as is NaN, and so is a real past the doubles (:func:`real_as_float`).
    A plain float inside the domain is returned at once.
    """
    if type(value) is float and 0.0 <= value <= (math.inf if allow_inf else _MAX_FLOAT):
        return value
    value = real_as_float(value, name, error)
    if math.isnan(value) or value < 0.0 or (math.isinf(value) and not allow_inf):
        upper = "inf]" if allow_inf else "inf)"
        raise error(f"{name} must lie in [0, {upper}, got {value!r}")
    return value


def check_positive(value, name: str, error: type) -> float:
    """``value`` as a float in (0, inf): :func:`check_nonnegative` without inf, then not 0."""
    if type(value) is float and 0.0 < value <= _MAX_FLOAT:
        return value
    value = check_nonnegative(value, name, error, allow_inf=False)
    if value == 0.0:
        raise error(f"{name} must be positive")
    return value


def check_size(value, name: str, minimum: int, error: type) -> int:
    """``value`` as an int of at least ``minimum``.

    Table sides, level counts and trial counts share this check; each
    caller names the size and the :class:`ValidationError` subclass it
    raises.  Booleans and non-integers (``3.0`` included) are rejected;
    NumPy integers are accepted, and a plain int of at least ``minimum``
    is returned at once.
    """
    if type(value) is int and value >= minimum:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)

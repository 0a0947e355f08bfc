"""The argument checks return and raise exactly as their plain forms.

Each check has a fast path for a plain ``float`` or ``int``; the
references below are the checks without it, which go through the
``numbers`` ABCs for every value.  Both must return the same object
type and value (the sign of a zero included) or raise the same error
with the same message.
"""

import math
import numbers
from decimal import Decimal
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tabcop import errors
from tabcop.errors import DomainError, ValidationError


def reference_real_as_float(value, name, error):
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise error(f"{name} lies past the range of a double") from None


def reference_check_nonnegative(value, name, error, allow_inf=True):
    value = reference_real_as_float(value, name, error)
    if math.isnan(value) or value < 0.0 or (math.isinf(value) and not allow_inf):
        upper = "inf]" if allow_inf else "inf)"
        raise error(f"{name} must lie in [0, {upper}, got {value!r}")
    return value


def reference_check_positive(value, name, error):
    value = reference_check_nonnegative(value, name, error, allow_inf=False)
    if value == 0.0:
        raise error(f"{name} must be positive")
    return value


def reference_check_size(value, name, minimum, error):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def outcome(check, *args):
    """What ``check(*args)`` does: its return value's type and repr, or its error."""
    try:
        value = check(*args)
    except Exception as exc:  # noqa: BLE001 - the error is what is compared
        return "raises", type(exc), str(exc)
    return "returns", type(value), repr(value)


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
               1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan]

values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(EDGE_FLOATS),
    st.integers(min_value=-10, max_value=10**6),
    st.sampled_from([0, -1, 2, 10**400, -10**400, 2**63]),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.integers(min_value=-2**63, max_value=2**63 - 1).map(np.int64),
    st.fractions(),
    st.sampled_from([Fraction(10**400), Fraction(-1, 10**400)]),
    st.decimals(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.none(),
)


@settings(max_examples=500, deadline=None)
@given(value=values)
def test_real_as_float(value):
    assert (outcome(errors.real_as_float, value, "x", ValidationError)
            == outcome(reference_real_as_float, value, "x", ValidationError))


@settings(max_examples=500, deadline=None)
@given(value=values, allow_inf=st.booleans())
def test_check_nonnegative(value, allow_inf):
    assert (outcome(errors.check_nonnegative, value, "tol", DomainError, allow_inf)
            == outcome(reference_check_nonnegative, value, "tol", DomainError, allow_inf))


@settings(max_examples=500, deadline=None)
@given(value=values)
def test_check_positive(value):
    assert (outcome(errors.check_positive, value, "tol", ValidationError)
            == outcome(reference_check_positive, value, "tol", ValidationError))


@settings(max_examples=500, deadline=None)
@given(value=values, minimum=st.integers(-2, 3))
def test_check_size(value, minimum):
    assert (outcome(errors.check_size, value, "n", minimum, ValidationError)
            == outcome(reference_check_size, value, "n", minimum, ValidationError))


def test_plain_float_keeps_its_object_and_sign():
    value = 1e-12
    assert errors.check_positive(value, "tol", ValidationError) is value
    zero = errors.check_nonnegative(-0.0, "tol", ValidationError)
    assert zero == 0.0 and math.copysign(1.0, zero) == -1.0

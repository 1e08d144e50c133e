"""Exception hierarchy and the argument checks shared across the package.

The CLI exits with the ``exit_code`` of the error it catches, so new error
types should subclass one of the three mid-level classes rather than
NetacorrError directly.

Every public entry point checks its arguments with the helpers below, so
one rule decides what counts as a valid count, real, choice, flag, list of
cells or numeric array, and the InputError names the parameter first.
"""

import math
import numbers

import numpy as np

__all__ = [
    "NetacorrError",
    "InputError",
    "SingularDesignError",
    "BadCovarianceError",
    "DegenerateStatisticError",
    "NumericError",
]


class NetacorrError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 4


class InputError(NetacorrError):
    """Malformed or inconsistent user input (exit code 2)."""

    exit_code = 2


class SingularDesignError(InputError):
    """Rank-deficient design matrix."""


class BadCovarianceError(InputError):
    """Covariance/kinship matrix not symmetric positive (semi)definite."""


class DegenerateStatisticError(NetacorrError):
    """Statistic undefined for this input, e.g. zero variance (exit code 3)."""

    exit_code = 3


class NumericError(NetacorrError):
    """Numeric failure inside an otherwise valid computation (exit code 4)."""


def _count(name, value, floor):
    """value as a Python int, if it is a Python or numpy int (never a bool) >= floor."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= floor:
        return int(value)
    raise InputError(f"{name} must be an integer >= {floor}, got {value!r}")


def _real(name, value, lo=-math.inf, hi=math.inf, strict=False):
    """value, if it is a finite real number (never a bool) in [lo, hi], or in (lo, hi) if strict."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value) and (lo < value < hi if strict else lo <= value <= hi)):
        return value
    if math.isfinite(hi):
        rule = f"a number in {'(' if strict else '['}{lo:g}, {hi:g}{')' if strict else ']'}"
    else:
        bound = f" {'>' if strict else '>='} {lo:g}" if math.isfinite(lo) else ""
        rule = f"a finite number{bound}"
    raise InputError(f"{name} must be {rule}, got {value!r}")


def _choice(name, value, options):
    """value, if it is one of the options."""
    if isinstance(value, str) and value in options:
        return value
    raise InputError(f"{name} must be one of {', '.join(map(repr, options))}, got {value!r}")


def _flag(name, value):
    """value as a Python bool, if it is a Python or numpy bool."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise InputError(f"{name} must be True or False, got {value!r}")


def _cells(name, values, least=1):
    """values, if it is a list, tuple, range or 1-D array of >= least study cells."""
    if not (isinstance(values, (list, tuple, range)) or np.ndim(values) == 1):
        raise InputError(f"{name} must be a list of values, got {values!r}")
    if len(values) < least:
        raise InputError(f"{name} must not be empty")
    return values


def _float_array(name, value):
    """value as a float ndarray, if every entry is a real number."""
    try:
        if np.iscomplexobj(value):
            raise TypeError("it holds complex values")
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} must be an array of real numbers: {exc}") from None


def _scaled(v):
    """(v * 2^-e, e), e the binary exponent of max |v|: max |v * 2^-e| lies in
    [1/2, 1), so no sum of it leaves the float range. The scale is exact
    but for entries below 2^-1022 max |v|."""
    e = math.frexp(float(np.abs(v).max()))[1]
    return np.ldexp(v, -e), e


def _unscaled(x, e):
    """x * 2^e, or an infinity of x's sign where that is beyond the float range."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _check_y(y):
    """y as a 1-D float array of at least 2 finite values."""
    y = _float_array("y", y)
    if y.ndim != 1 or len(y) < 2:
        raise InputError(f"y must be 1-D with at least 2 values, got shape {y.shape}")
    if not np.isfinite(y).all():
        bad = np.flatnonzero(~np.isfinite(y))
        raise InputError(f"y must be finite, got non-finite values at positions {bad.tolist()}")
    return y

"""Exception taxonomy shared by every module in the package."""

import math
import numbers


class UcastError(Exception):
    """Base class for all package-specific failures."""


class ShapeError(UcastError, ValueError):
    """Operands have incompatible or malformed dimensions."""


class NumericError(UcastError, ArithmeticError):
    """A numeric contract was violated (non-finite values, asymmetry, ...)."""


class DefinitenessError(NumericError):
    """A factorization hit a non-positive pivot; the matrix is not PD."""


class MissingGradientError(UcastError, RuntimeError):
    """A gradient was requested for a parameter the tape never saw."""


class ConvergenceError(UcastError, RuntimeError):
    """An iterative solver exhausted its iteration budget."""


class ParameterError(UcastError, ValueError):
    """A configuration value is outside its legal range."""


class DataError(UcastError, ValueError):
    """A dataset violates a data contract (too short, all-NaN channel, ...)."""


class FormatError(UcastError, ValueError):
    """A file cannot be parsed (ragged rows, bad header, bad manifest)."""


def integral(name: str, value) -> int:
    """An integer read from a spec or config file; 2 and 2.0 are accepted,
    2.7, "2" and true are not."""
    if not isinstance(value, bool) and (
            isinstance(value, numbers.Integral)
            or (isinstance(value, float) and value.is_integer())):
        return int(value)
    raise ParameterError(f"{name} must be an integer, got {value!r}")


def finite(name: str, value) -> float:
    """A finite number read from a config file; 0.5 and 2 are accepted,
    "0.5", true, NaN, Infinity and integers beyond the float range are
    not."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:
            pass
    raise ParameterError(f"{name} must be a finite number, got {value!r}")


def text(name: str, value) -> str:
    """A string read from a config file; 3 and null are not read as text."""
    if isinstance(value, str):
        return value
    raise ParameterError(f"{name} must be a string, got {value!r}")

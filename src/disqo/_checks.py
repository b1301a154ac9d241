"""The one copy of each rule for a number, an index, a vector, a symmetric
matrix or a named choice disqo takes from outside. Every rule raises
``DimensionMismatch`` naming the value; no bool passes as a number or an
index, and no string as a number. An index rule checks the type alone: the
caller checks the range, so an agent out of range raises ``UnknownAgent``."""

import numpy as np

from .errors import DimensionMismatch

_REAL = (int, float, np.integer, np.floating)


def integer(value, name: str, least: int):
    """``value`` when it is an int or numpy integer of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise DimensionMismatch(f"{name} must be an integer of at least {least}, got {value!r}")
    return value


def index(value, name: str):
    """``value`` when it is an int or numpy integer, or an array of numpy
    integer dtype: never a bool or a float."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "iu":
        return value
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DimensionMismatch(f"{name} must be an integer, got {value!r}")
    return value


def positive(value, name: str):
    """``value`` when it is a finite real number above 0."""
    if isinstance(value, bool) or not isinstance(value, _REAL) or not 0 < value < np.inf:
        raise DimensionMismatch(f"{name} must be a finite positive number, got {value!r}")
    return value


def nonnegative(value, name: str):
    """``value`` when it is a finite real number of at least 0."""
    if isinstance(value, bool) or not isinstance(value, _REAL) or not 0 <= value < np.inf:
        raise DimensionMismatch(f"{name} must be a finite number of at least 0, got {value!r}")
    return value


def number(value, name: str) -> float:
    """``value`` as a float, when it is a finite real number."""
    if isinstance(value, bool) or not isinstance(value, _REAL) or not np.isfinite(value):
        raise DimensionMismatch(f"{name} must be a finite number, got {value!r}")
    return float(value)


def floats(value, name: str) -> np.ndarray:
    """``value`` as a float array of its own shape. Outside an ndarray no
    entry may be a bool or a string, which numpy reads as 1.0 or parses."""
    if not isinstance(value, np.ndarray):
        wrong = [v for v in np.asarray(value, object).ravel() if isinstance(v, (bool, np.bool_, str))]
        if wrong:
            raise DimensionMismatch(f"{name} must hold numbers, never a bool or a string, got {wrong[0]!r}")
    return np.asarray(value, float)


def finite(array, name: str):
    """``array`` when every entry is finite (and a number, by ``floats``)."""
    if not np.all(np.isfinite(floats(array, name))):
        raise DimensionMismatch(f"{name} must be finite, got a value that is not finite")
    return array


def vector(value, name: str, length: int | None = None) -> np.ndarray:
    """``value`` as a flat float array, when it has ``length`` entries (any
    number when None) and every entry is finite."""
    array = floats(value, name).ravel()
    if length is not None and array.shape[0] != length:
        raise DimensionMismatch(f"{name} has length {array.shape[0]}, expected {length}")
    return finite(array, name)


def symmetric(value, name: str) -> np.ndarray:
    """``value`` as the float matrix (M + M') / 2, when M is square, finite and
    symmetric to 1e-10 max(1, max |M|)."""
    M = np.asarray(value, float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{name} is not square: {M.shape}")
    finite(M, name)
    asym = float(np.abs(M - M.T).max(initial=0.0))
    if asym > 1e-10 * max(1.0, float(np.abs(M).max(initial=0.0))):
        raise DimensionMismatch(f"{name} is not symmetric (asymmetry {asym:.3e})")
    return (M + M.T) / 2.0


def choice(value, name: str, options: tuple[str, ...]) -> str:
    """``value`` when it is one of the names ``options``."""
    if not isinstance(value, str) or value not in options:
        raise DimensionMismatch(f"{name} must be {' or '.join(map(repr, options))}, got {value!r}")
    return value

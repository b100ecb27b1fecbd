"""Argument rules shared by every module, without numpy: it registers its
integers with ``numbers.Integral`` and its floats with ``numbers.Real``,
not its bool, so numpy's numbers pass and ``np.bool_`` fails like ``bool``.
The ``cost`` command applies these rules without importing numpy."""

import math
import numbers


def _is_int(value) -> bool:
    """An integer, numpy's included, that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A real number, numpy's included, that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _as_int(name, value) -> int:
    """value as a Python int, so numpy's narrow integers cannot overflow
    later; a ValueError unless ``_is_int(value)``."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_ints(name, values) -> tuple[int, ...]:
    """values as a tuple of Python ints; a ValueError unless values is a
    sequence and ``_is_int`` holds for every entry."""
    try:
        values = tuple(values)
    except TypeError:
        raise ValueError(f"{name} must be a sequence of integers, got {values!r}") from None
    bad = [value for value in values if not _is_int(value)]
    if bad:
        raise ValueError(f"{name} must be integers, got {bad[0]!r}")
    return tuple(map(int, values))


def _as_grid(grid) -> tuple[int, int]:
    """grid as two Python ints, so h * w cannot overflow; a ValueError
    unless ``_is_int`` holds for both."""
    try:
        h, w = grid
        return _as_int("h", h), _as_int("w", w)
    except (TypeError, ValueError):
        raise ValueError(f"grid must be two integers, got {grid!r}") from None


def _as_finite(name, value, integer=False, nonnegative=False) -> int | float:
    """value as a Python int if ``_is_int(value)``, else a Python float; a
    ValueError unless it is an integer (a real number when not ``integer``)
    that is finite as a float and, if ``nonnegative``, not below zero."""
    if not (_is_int(value) if integer else _is_real(value)):
        noun = "an integer" if integer else "a real number"
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer past the float range
        raise ValueError(f"{name} is too large for a float") from None
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")
    if nonnegative and value < 0:
        raise ValueError(f"{name} must be nonnegative")
    return int(value) if _is_int(value) else float(value)

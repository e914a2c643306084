"""Exception types shared across the package, and its one rule for each
kind of scalar argument: a count, a bandwidth, a rate."""

import math


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition (shape, range, value)."""


def _exact(kind: type, value):
    """``kind(value)`` when it equals ``value`` (no cut fraction, no parsed string), else None."""
    try:
        converted = kind(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return converted if converted == value else None


def _count(name: str, value, low: int) -> int:
    """``value`` as an ``int``: a whole number (``16`` or ``16.0``) >= ``low``."""
    whole = _exact(int, value)
    if whole is None or whole < low:
        raise InvalidArgumentError(f"{name} must be a whole number >= {low}, got {value!r}")
    return whole


def _positive(name: str, value) -> float:
    """``value`` as a ``float``: a positive finite real, as a bandwidth is."""
    real = _exact(float, value)
    if real is None or not 0.0 < real < math.inf:
        raise InvalidArgumentError(f"{name} must be a positive finite real, got {value!r}")
    return real


def _rate(name: str, value) -> float:
    """``value`` as a ``float``: a rate in [0, 1]."""
    real = _exact(float, value)
    if real is None or not 0.0 <= real <= 1.0:
        raise InvalidArgumentError(f"{name} must lie in [0, 1], got {value!r}")
    return real


class InsufficientDataError(ValueError):
    """Not enough samples to perform the requested operation."""


class InsufficientClassError(InsufficientDataError):
    """A class has too few samples to populate every split."""

    def __init__(self, label: int, message: str | None = None):
        self.label = int(label)
        super().__init__(message or f"class {label} has too few samples to populate every split")


class DegenerateEmbeddingError(ValueError):
    """The raw Fourier embedding of a sample is the zero vector and cannot be normalized."""


class ParseError(ValueError):
    """A data or model file could not be parsed.

    ``row`` is the 1-based line number in the file (header is line 1),
    ``column`` the offending column name, when known.
    """

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        self.row = row
        self.column = column
        where = []
        if row is not None:
            where.append(f"row {row}")
        if column is not None:
            where.append(f"column {column!r}")
        if where:
            message = f"{message} ({', '.join(where)})"
        super().__init__(message)


class ConfigError(ValueError):
    """A run configuration is missing keys or carries invalid values."""

"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: input/parse problems exit 1,
configuration problems exit 2, numerical failures exit 3.
"""

from __future__ import annotations

import numbers


class PanelDepError(Exception):
    """Base class for every error this package raises deliberately."""


class ParseError(PanelDepError):
    """Malformed input data; the message carries line/column context."""


class DuplicateKeyError(ParseError):
    """The same (region, code, ...) key appeared twice in an input file."""


class MappingError(ParseError):
    """An input token could not be mapped onto a known domain value."""


class NotFoundError(PanelDepError):
    """Lookup key does not exist; ``nearest`` holds close matches."""

    def __init__(self, message: str, nearest: list[str] | None = None):
        super().__init__(message)
        self.nearest = nearest or []


class InsufficientOverlapError(PanelDepError):
    """Two series share too few jointly populated years."""

    def __init__(self, message: str, overlap: int):
        super().__init__(message)
        self.overlap = overlap


class InsufficientDataError(PanelDepError):
    """Not enough observations for the requested computation."""


class DegenerateInputError(PanelDepError):
    """Input has no variation where the method requires some."""


class NonContiguousYearsError(PanelDepError):
    """Lagged analysis was asked for on a year sequence with gaps."""


class SingularDesignError(PanelDepError):
    """Design matrix is rank deficient; ``rank`` is the estimated rank."""

    def __init__(self, message: str, rank: int):
        super().__init__(message)
        self.rank = rank


class MissingBandError(ParseError):
    """An age band is absent from a life table or weight mapping."""


class MissingWeightError(ParseError):
    """No disability weight for a (condition, age band) pair."""


class NormalizationError(PanelDepError):
    """Weights that must sum to one do not."""


class DomainError(PanelDepError):
    """Argument outside the mathematical domain of the operation."""


class ConvergenceError(PanelDepError):
    """An iterative evaluation did not reach full precision in its step budget."""


class ConfigError(PanelDepError):
    """Invalid analysis configuration."""


def _only(results: list):
    """The result of a batch of one, raised when it is the element's error."""
    (result,) = results
    if isinstance(result, Exception):
        raise result
    return result


def _check_count(name: str, value, least: int) -> None:
    """Raise DomainError naming ``name`` unless ``value`` is an integer (a
    bool is not one) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value}")

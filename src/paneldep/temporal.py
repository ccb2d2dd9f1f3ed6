"""Lagged predictability testing on contiguous annual pairs.

The test compares two nested autoregressions of the response: one on its
own past, one additionally on the past of the candidate driver. The
variance-ratio statistic of the residual sums is referred to the F
distribution. Year gaps are rejected outright; a lag across a gap is not
a lag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    InsufficientDataError,
    NonContiguousYearsError,
    SingularDesignError,
)
from .panel import AlignedPair
from .special import regularized_beta


def first_difference(series) -> tuple[float, ...]:
    """Consecutive differences; length shrinks by one."""
    values = tuple(series)
    if len(values) < 2:
        raise InsufficientDataError("need at least 2 points to difference")
    return tuple(b - a for a, b in zip(values, values[1:]))


def _gain_and_rss(design, response, restricted_cols: int) -> tuple[float, float]:
    """(rss_r - rss_ur, rss_ur) of the nested fits described in nested_rss."""
    X = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    if X.ndim != 2:
        raise DomainError("design must be a 2-d matrix")
    rows, cols = X.shape
    if y.shape != (rows,):
        raise DomainError("response length does not match design rows")
    if not 0 <= restricted_cols <= cols:
        raise DomainError(f"restricted_cols must lie in 0..{cols}")
    if rows <= cols:
        raise InsufficientDataError(
            f"need more rows than columns, got {rows}x{cols}"
        )
    R = np.linalg.qr(np.column_stack([X, y]), mode="r")
    diag = np.abs(np.diag(R)[:cols])
    tol = max(rows, cols) * np.finfo(float).eps * diag.max(initial=0.0)
    rank = int(np.count_nonzero(diag > tol))
    if rank < cols:
        raise SingularDesignError(
            f"design is rank deficient (rank {rank} of {cols} columns)",
            rank=rank,
        )
    gain = R[restricted_cols:cols, cols]
    return float(gain @ gain), float(R[cols, cols] ** 2)


def nested_rss(design, response, restricted_cols: int) -> tuple[float, float]:
    """Residual sums (rss_r, rss_ur) of two nested least-squares fits.

    The restricted fit uses the first ``restricted_cols`` of the p design
    columns. One QR of [design | response] gives both: R[p, p]^2 is rss_ur,
    ||R[restricted_cols:p, p]||^2 is rss_r - rss_ur. Any |diag R| at or
    below max(rows, cols) * eps * max|diag R|, the default rank cutoff of
    least squares, raises SingularDesignError with the rank.
    """
    gain, rss_ur = _gain_and_rss(design, response, restricted_cols)
    return rss_ur + gain, rss_ur


def f_sf(f: float, d1: float, d2: float) -> float:
    """Upper-tail probability of the F distribution.

    Evaluated through the regularized incomplete beta function. The
    equal-dof statistic at 1 sits on the symmetry point and is returned
    exactly.
    """
    if d1 < 1 or d2 < 1:
        raise DomainError(f"degrees of freedom must be >= 1, got ({d1}, {d2})")
    if math.isnan(f) or f < 0:
        raise DomainError(f"F statistic must be >= 0, got {f}")
    if f == 0.0:
        return 1.0
    if math.isinf(f):
        return 0.0
    if f == 1.0 and d1 == d2:
        return 0.5
    fd = d1 * f
    return regularized_beta(d2 / 2.0, d1 / 2.0, d2 / (d2 + fd), fd / (d2 + fd))


@dataclass(frozen=True)
class LagDesign:
    """Regression pieces for one lag order on one aligned pair."""

    response: np.ndarray
    #: [1 | y lags | x lags]; the restricted model is the first 1 + lag.
    predictors: np.ndarray
    lag: int
    n_eff: int


@dataclass(frozen=True)
class GrangerResult:
    lag: int
    f_stat: float
    p_value: float
    rss_restricted: float
    rss_unrestricted: float
    n_eff: int


@dataclass(frozen=True)
class SkippedLag:
    lag: int
    reason: str


@dataclass(frozen=True)
class LagSweep:
    results: tuple[GrangerResult, ...]
    skipped: tuple[SkippedLag, ...]
    best: GrangerResult


def build_lag_design(x, y, lag: int) -> LagDesign:
    """Stack intercept and lag columns for the nested model pair.

    Restricted: intercept + ``lag`` lags of y. Unrestricted: those plus
    ``lag`` lags of x, appended so the restricted columns are a prefix.
    Requires n - lag > 1 + 2*lag usable rows.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    if lag < 1:
        raise DomainError(f"lag must be >= 1, got {lag}")
    n_eff = n - lag
    if n_eff <= 1 + 2 * lag:
        raise InsufficientDataError(
            f"{n} observations leave {n_eff} usable rows, need more than "
            f"{1 + 2 * lag} for lag {lag}"
        )
    y_lags = np.column_stack([y[lag - j:n - j] for j in range(1, lag + 1)])
    x_lags = np.column_stack([x[lag - j:n - j] for j in range(1, lag + 1)])
    predictors = np.hstack([np.ones((n_eff, 1)), y_lags, x_lags])
    return LagDesign(y[lag:], predictors, lag, n_eff)


def _prepare(pair: AlignedPair, difference_first: bool):
    """The (x, y) sequences every lag of one pair is fitted on."""
    for a, b in zip(pair.years, pair.years[1:]):
        if b - a != 1:
            raise NonContiguousYearsError(
                f"years jump from {a} to {b}; lags are meaningless across gaps"
            )
    if difference_first:
        return first_difference(pair.x), first_difference(pair.y)
    return pair.x, pair.y


def _fit(x, y, lag: int) -> GrangerResult:
    design = build_lag_design(x, y, lag)
    gain, rss_ur = _gain_and_rss(design.predictors, design.response, 1 + lag)
    dof_den = design.n_eff - (1 + 2 * lag)
    f = math.inf if rss_ur == 0.0 else (gain / lag) / (rss_ur / dof_den)
    return GrangerResult(lag, f, f_sf(f, lag, dof_den), rss_ur + gain, rss_ur,
                         design.n_eff)


def granger_test(pair: AlignedPair, lag: int,
                 difference_first: bool = False) -> GrangerResult:
    """Test whether lagged x improves prediction of y beyond lagged y.

    Direction is fixed: x is the candidate driver, y the response. With
    ``difference_first`` both sequences are first-differenced before the
    designs are built (the caller's stationarity treatment; never applied
    silently).
    """
    return _fit(*_prepare(pair, difference_first), lag)


def lag_sweep(pair: AlignedPair, max_lag: int,
              difference_first: bool = False) -> LagSweep:
    """Run the test at every lag 1..max_lag that fits the sample.

    Lags that individually lack data are skipped with a reason; if no lag
    fits at all that is an error. Best lag is the smallest p-value, ties
    going to the shorter lag.
    """
    if max_lag < 1:
        raise DomainError(f"max_lag must be >= 1, got {max_lag}")
    x, y = _prepare(pair, difference_first)
    results, skipped = [], []
    for lag in range(1, max_lag + 1):
        try:
            results.append(_fit(x, y, lag))
        except (InsufficientDataError, SingularDesignError) as exc:
            skipped.append(SkippedLag(lag, str(exc)))
    if not results:
        raise InsufficientDataError(
            f"pair of length {pair.n} is too short for even lag 1"
        )
    best = min(results, key=lambda res: res.p_value)  # first minimum wins
    return LagSweep(tuple(results), tuple(skipped), best)

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


def _ranks(R: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Rank of each design from the R factor of [design | response].

    A column counts when its |diag R| is above max(rows, cols) * eps *
    max|diag R|, the default rank cutoff of least squares. R may be a stack.
    """
    diag = np.abs(np.diagonal(R, axis1=-2, axis2=-1)[..., :cols])
    tol = max(rows, cols) * np.finfo(float).eps * diag.max(axis=-1, initial=0.0)
    return np.count_nonzero(diag > tol[..., None], axis=-1)


def _rank_deficient(rank: int, cols: int) -> SingularDesignError:
    return SingularDesignError(
        f"design is rank deficient (rank {rank} of {cols} columns)", rank=rank)


def _split_rss(R: np.ndarray, restricted_cols: int, cols: int) -> tuple[float, float]:
    """(rss_r - rss_ur, rss_ur) read off the R factor of [design | response]."""
    gain = R[restricted_cols:cols, cols]
    return float(gain @ gain), float(R[cols, cols] ** 2)


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
    rank = int(_ranks(R, rows, cols))
    if rank < cols:
        raise _rank_deficient(rank, cols)
    return _split_rss(R, restricted_cols, cols)


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


def _usable_rows(n: int, lag: int) -> int:
    """Rows left for the lag-``lag`` fit of a length-n pair, checked."""
    if lag < 1:
        raise DomainError(f"lag must be >= 1, got {lag}")
    n_eff = n - lag
    if n_eff <= 1 + 2 * lag:
        raise InsufficientDataError(
            f"{n} observations leave {n_eff} usable rows, need more than "
            f"{1 + 2 * lag} for lag {lag}"
        )
    return n_eff


def _lag_designs(x: np.ndarray, y: np.ndarray, lag: int) -> np.ndarray:
    """[1 | y lags | x lags | y] of each row of x and y, in one new array.

    x and y are (pairs, n); the result is (pairs, n - lag, 2 + 2 * lag).
    Column j of the y lags (and of the x lags) holds the series shifted
    back by j.
    """
    pairs, n = y.shape
    n_eff = n - lag
    cols = 1 + 2 * lag
    shifted = np.arange(n_eff)[:, None] + np.arange(lag - 1, -1, -1)
    out = np.empty((pairs, n_eff, cols + 1))
    out[:, :, 0] = 1.0
    out[:, :, 1:lag + 1] = y[:, shifted]
    out[:, :, lag + 1:cols] = x[:, shifted]
    out[:, :, cols] = y[:, lag:]
    return out


def build_lag_design(x, y, lag: int) -> LagDesign:
    """Stack intercept and lag columns for the nested model pair.

    Restricted: intercept + ``lag`` lags of y. Unrestricted: those plus
    ``lag`` lags of x, appended so the restricted columns are a prefix.
    Requires n - lag > 1 + 2*lag usable rows.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n_eff = _usable_rows(len(y), lag)
    design = _lag_designs(x[None], y[None], lag)[0]
    return LagDesign(design[:, -1], design[:, :-1], lag, n_eff)


def _series(pairs, difference_first: bool) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) rows every lag of the pairs is fitted on; the pairs share years."""
    years = pairs[0].years
    if any(pair.years != years for pair in pairs):
        raise DomainError("pairs fitted together must share their years")
    for a, b in zip(years, years[1:]):
        if b - a != 1:
            raise NonContiguousYearsError(
                f"years jump from {a} to {b}; lags are meaningless across gaps"
            )
    if difference_first:
        xs = [first_difference(pair.x) for pair in pairs]
        ys = [first_difference(pair.y) for pair in pairs]
    else:
        xs = [pair.x for pair in pairs]
        ys = [pair.y for pair in pairs]
    return np.array(xs, dtype=float), np.array(ys, dtype=float)


def _fit_lag(x: np.ndarray, y: np.ndarray,
             lag: int) -> list[GrangerResult | SingularDesignError]:
    """Fit one lag on every row of x and y with one stacked QR.

    The rank check is per row: a singular design gives its row's error and
    leaves the other rows' fits alone.
    """
    n_eff = _usable_rows(y.shape[1], lag)
    cols = 1 + 2 * lag
    dof_den = n_eff - cols
    R = np.linalg.qr(_lag_designs(x, y, lag), mode="r")
    fits: list[GrangerResult | SingularDesignError] = []
    for R_pair, rank in zip(R, _ranks(R, n_eff, cols).tolist()):
        if rank < cols:
            fits.append(_rank_deficient(rank, cols))
            continue
        gain, rss_ur = _split_rss(R_pair, 1 + lag, cols)
        f = math.inf if rss_ur == 0.0 else (gain / lag) / (rss_ur / dof_den)
        fits.append(GrangerResult(lag, f, f_sf(f, lag, dof_den), rss_ur + gain,
                                  rss_ur, n_eff))
    return fits


def granger_test(pair: AlignedPair, lag: int,
                 difference_first: bool = False) -> GrangerResult:
    """Test whether lagged x improves prediction of y beyond lagged y.

    Direction is fixed: x is the candidate driver, y the response. With
    ``difference_first`` both sequences are first-differenced before the
    designs are built (the caller's stationarity treatment; never applied
    silently).
    """
    (fit,) = _fit_lag(*_series([pair], difference_first), lag)
    if isinstance(fit, SingularDesignError):
        raise fit
    return fit


def lag_sweeps(pairs, max_lag: int,
               difference_first: bool = False) -> list[LagSweep | None]:
    """``lag_sweep`` over pairs that share their years, fitted together.

    Each lag's designs go through one stacked QR. Each pair gets its own
    sweep, the same as ``lag_sweep`` gives it, or None where no lag fits.
    What holds for every pair alike (a bad ``max_lag``, a year gap, too
    few points to difference) raises.
    """
    if max_lag < 1:
        raise DomainError(f"max_lag must be >= 1, got {max_lag}")
    if not pairs:
        return []
    x, y = _series(pairs, difference_first)
    results = [[] for _ in pairs]
    skipped = [[] for _ in pairs]
    for lag in range(1, max_lag + 1):
        try:
            fits = _fit_lag(x, y, lag)
        except InsufficientDataError as exc:
            fits = [exc] * len(pairs)
        for fit, fitted, skips in zip(fits, results, skipped):
            if isinstance(fit, GrangerResult):
                fitted.append(fit)
            else:
                skips.append(SkippedLag(lag, str(fit)))
    return [
        LagSweep(tuple(fitted), tuple(skips),
                 min(fitted, key=lambda res: res.p_value))  # first minimum wins
        if fitted else None
        for fitted, skips in zip(results, skipped)
    ]


def lag_sweep(pair: AlignedPair, max_lag: int,
              difference_first: bool = False) -> LagSweep:
    """Run the test at every lag 1..max_lag that fits the sample.

    Lags that individually lack data are skipped with a reason; if no lag
    fits at all that is an error. Best lag is the smallest p-value, ties
    going to the shorter lag.
    """
    (sweep,) = lag_sweeps([pair], max_lag, difference_first)
    if sweep is None:
        raise InsufficientDataError(
            f"pair of length {pair.n} is too short for even lag 1"
        )
    return sweep

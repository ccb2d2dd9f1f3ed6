"""Lagged predictability testing on contiguous annual pairs.

The test compares two nested autoregressions of the response: one on its
own past, one additionally on the past of the candidate driver. The
variance-ratio statistic of the residual sums is referred to the F
distribution. Year gaps are rejected outright; a lag across a gap is not
a lag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DomainError,
    InsufficientDataError,
    NonContiguousYearsError,
    PanelDepError,
    SingularDesignError,
    _only,
)
from .panel import AlignedPair
from .special import f_sfs
from .table import PairTable


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


def nested_rss(design, response, restricted_cols: int) -> tuple[float, float]:
    """Residual sums (rss_r, rss_ur) of two nested least-squares fits.

    The restricted fit uses the first ``restricted_cols`` of the p design
    columns. One QR of [design | response] gives both: R[p, p]^2 is rss_ur,
    ||R[restricted_cols:p, p]||^2 is rss_r - rss_ur. Any |diag R| at or
    below max(rows, cols) * eps * max|diag R|, the default rank cutoff of
    least squares, raises SingularDesignError with the rank.
    """
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
    gain, rss_ur = _split_rss(R, restricted_cols, cols)
    return rss_ur + gain, rss_ur


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


def _fitted_stacks(table: PairTable, difference_first: bool,
                   out: list) -> list[tuple[int, list, np.ndarray, np.ndarray]]:
    """(n, places, x, y) of each length group: the pairs' stacks that every
    lag is fitted on. A pair that cannot be fitted gets its error in ``out``.

    Every pair's years must be one contiguous run; the jump of each year
    set is found once. ``np.diff`` rounds each difference as ``b - a`` does.
    """
    jumps = [next(((a, b) for a, b in zip(years, years[1:]) if b - a != 1), None)
             for years in table.years]
    gapped = np.array([jump is not None for jump in jumps], dtype=bool)
    stacks = []
    for group in table.groups:
        bad = gapped[group.mask]
        for place, mask in zip(group.places[bad].tolist(), group.mask[bad].tolist()):
            a, b = jumps[mask]
            out[place] = NonContiguousYearsError(
                f"years jump from {a} to {b}; lags are meaningless across gaps")
        places = group.places[~bad].tolist()
        if not places:
            continue
        if difference_first and group.n < 2:
            for place in places:
                out[place] = InsufficientDataError("need at least 2 points to difference")
            continue
        x, y = group.rows[group.xi[~bad]], group.rows[group.yi[~bad]]
        if difference_first:
            x, y = np.diff(x, axis=1), np.diff(y, axis=1)
        stacks.append((group.n, places, x, y))
    return stacks


def _fit_lag(x: np.ndarray, y: np.ndarray,
             lag: int) -> list[GrangerResult | SingularDesignError]:
    """Fit one lag on every row of x and y with one stacked QR.

    The rank check is per row: a singular design gives its row's error and
    leaves the other rows' fits alone. The p-values are left NaN for
    ``_with_p_values`` to fill.
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
        fits.append(GrangerResult(lag, f, math.nan, rss_ur + gain, rss_ur, n_eff))
    return fits


def _with_p_values(fits: list[GrangerResult]) -> list[GrangerResult]:
    """The fits with their p-values, every F tail from one ``f_sfs`` call."""
    tails = f_sfs([fit.f_stat for fit in fits], [fit.lag for fit in fits],
                  [fit.n_eff - (1 + 2 * fit.lag) for fit in fits])
    return [replace(fit, p_value=p) for fit, p in zip(fits, tails)]


def granger_test(pair: AlignedPair, lag: int,
                 difference_first: bool = False) -> GrangerResult:
    """Test whether lagged x improves prediction of y beyond lagged y.

    Direction is fixed: x is the candidate driver, y the response. With
    ``difference_first`` both sequences are first-differenced before the
    designs are built (the caller's stationarity treatment; never applied
    silently).
    """
    out = [None]
    stacks = _fitted_stacks(PairTable.of_pairs([pair]), difference_first, out)
    if out[0] is not None:
        raise out[0]
    ((_, _, x, y),) = stacks
    (fit,) = _fit_lag(x, y, lag)
    if isinstance(fit, SingularDesignError):
        raise fit
    return _with_p_values([fit])[0]


def _no_lag_fits(n: int, skipped: list[SkippedLag],
                 singular: SingularDesignError | None) -> PanelDepError:
    """The error of a sweep in which every lag was skipped; ``singular`` is
    the first rank-deficiency error among its lags, if there was one."""
    if singular is not None:
        reasons = "; ".join(f"lag {skip.lag}: {skip.reason}" for skip in skipped)
        return SingularDesignError(f"no lag fits the pair of length {n} ({reasons})",
                                   rank=singular.rank)
    return InsufficientDataError(f"pair of length {n} is too short for even lag 1")


def lag_sweeps(pairs, max_lag: int,
               difference_first: bool = False) -> list[LagSweep | PanelDepError]:
    """``lag_sweep`` over many pairs: each pair's sweep, or the error its own
    call raises. See ``lag_sweeps_over``."""
    return lag_sweeps_over(PairTable.of_pairs(pairs), max_lag, difference_first)


def lag_sweeps_over(table: PairTable, max_lag: int,
                    difference_first: bool = False) -> list:
    """``lag_sweep`` of each pair of a table, by place (None at a place with
    no pair).

    Each length group is one stack, so each lag's designs of that length
    go through one QR, and every fit's F tail comes from one ``f_sfs``
    call; each sweep equals the pair's own ``lag_sweep``, bit for bit. A
    bad ``max_lag`` raises.
    """
    if max_lag < 1:
        raise DomainError(f"max_lag must be >= 1, got {max_lag}")
    out: list = [None] * table.size
    swept = []  # (n, place, fits, skipped lags, first singular error)
    for n, places, x, y in _fitted_stacks(table, difference_first, out):
        fits: list[list[GrangerResult]] = [[] for _ in places]
        skipped: list[list[SkippedLag]] = [[] for _ in places]
        singular: list[SingularDesignError | None] = [None] * len(places)
        for lag in range(1, max_lag + 1):
            try:
                lag_fits = _fit_lag(x, y, lag)
            except InsufficientDataError as exc:
                lag_fits = [exc.with_traceback(None)] * len(places)
            for j, fit in enumerate(lag_fits):
                if isinstance(fit, GrangerResult):
                    fits[j].append(fit)
                else:
                    skipped[j].append(SkippedLag(lag, str(fit)))
                    if isinstance(fit, SingularDesignError) and singular[j] is None:
                        singular[j] = fit
        swept += zip([n] * len(places), places, fits, skipped, singular)
    results = iter(_with_p_values([fit for *_, fits, _, _ in swept for fit in fits]))
    for n, place, fits, skipped, singular in swept:
        if not fits:
            out[place] = _no_lag_fits(n, skipped, singular)
            continue
        fitted = tuple(next(results) for _ in fits)
        out[place] = LagSweep(fitted, tuple(skipped),
                              min(fitted, key=lambda res: res.p_value))  # first minimum wins
    return out


def lag_sweep(pair: AlignedPair, max_lag: int,
              difference_first: bool = False) -> LagSweep:
    """Run the test at every lag 1..max_lag that fits the sample.

    Lags that individually lack data are skipped with a reason; if no lag
    fits at all that is an error: SingularDesignError when some lag was
    skipped for a rank-deficient design, InsufficientDataError otherwise.
    Best lag is the smallest p-value, ties going to the shorter lag.
    """
    return _only(lag_sweeps([pair], max_lag, difference_first))

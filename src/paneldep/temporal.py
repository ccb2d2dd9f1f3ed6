"""Lagged predictability testing on contiguous annual pairs.

The test compares two nested autoregressions of the response: one on its
own past, one additionally on the past of the candidate driver. The
variance-ratio statistic of the residual sums is referred to the F
distribution. Year gaps are rejected outright; a lag across a gap is not
a lag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainError,
    InsufficientDataError,
    NonContiguousYearsError,
    PanelDepError,
    SingularDesignError,
    _check_count,
)
from .panel import AlignedPair
from .special import f_sfs
from .table import Columns, PairTable, _pair_slices, _unit_scaled


def first_difference(series) -> tuple[float, ...]:
    """Consecutive differences; length shrinks by one."""
    values = tuple(series)
    if len(values) < 2:
        raise InsufficientDataError("need at least 2 points to difference")
    return tuple(b - a for a, b in zip(values, values[1:]))


def _nested_fits(augmented: np.ndarray,
                 restricted_cols: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rss_r - rss_ur, rss_ur, rank) of each [design | response] matrix of
    a stack, as arrays, from one QR.

    With p design columns, R[p, p]^2 is rss_ur and ||R[restricted_cols:p, p]||^2
    is rss_r - rss_ur; the restricted fit uses the first ``restricted_cols``
    columns. A column counts toward the rank when its |diag R| is above
    max(rows, p) * eps * max|diag R|, the default rank cutoff of least
    squares. Each square goes through libm ``pow`` and each gain is one dot
    product, as a lone fit's ``R[p, p] ** 2`` and ``gain @ gain`` are.
    """
    rows, cols = augmented.shape[-2], augmented.shape[-1] - 1
    R = np.linalg.qr(augmented, mode="r")
    diag = np.abs(np.diagonal(R, axis1=-2, axis2=-1)[..., :cols])
    tol = max(rows, cols) * np.finfo(float).eps * diag.max(axis=-1, initial=0.0)
    gain = R[..., restricted_cols:cols, cols]
    return (np.matmul(gain[..., None, :], gain[..., None])[..., 0, 0],
            np.float_power(R[..., cols, cols], 2.0),
            np.count_nonzero(diag > tol[..., None], axis=-1))


def _rank_deficient(rank: int, cols: int) -> SingularDesignError:
    return SingularDesignError(
        f"design is rank deficient (rank {rank} of {cols} columns)", rank=rank)


def nested_rss(design, response, restricted_cols: int) -> tuple[float, float]:
    """Residual sums (rss_r, rss_ur) of two nested least-squares fits.

    The restricted fit uses the first ``restricted_cols`` design columns.
    Both come from ``_nested_fits`` of [design | response]; a design below
    full rank raises SingularDesignError with the rank.
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
    (gain,), (rss_ur,), (rank,) = _nested_fits(np.column_stack([X, y])[None],
                                               restricted_cols)
    if rank < cols:
        raise _rank_deficient(int(rank), cols)
    return float(rss_ur + gain), float(rss_ur)


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


def _longest_lag(n: int) -> int:
    """The longest lag L that n fitted points allow: n - L > 1 + 2L."""
    return (n - 2) // 3


def _too_short(n: int, lag: int) -> InsufficientDataError:
    return InsufficientDataError(
        f"{n} observations leave {n - lag} usable rows, need more than "
        f"{1 + 2 * lag} for lag {lag}")


def _lag_designs(rows: np.ndarray, xi: np.ndarray, yi: np.ndarray, lag: int) -> np.ndarray:
    """[1 | y lags | x lags | y] of each pair, x ``rows[xi[j]]`` and y
    ``rows[yi[j]]``, gathered from the (series, n) stack into one new array.

    The result is (pairs, n - lag, 2 + 2 * lag). Column j of the y lags
    (and of the x lags) holds the series shifted back by j.
    """
    n_eff = rows.shape[1] - lag
    cols = 1 + 2 * lag
    shifted = np.arange(n_eff)[:, None] + np.arange(lag - 1, -1, -1)
    out = np.empty((len(xi), n_eff, cols + 1))
    out[:, :, 0] = 1.0
    out[:, :, 1:lag + 1] = rows[yi[:, None, None], shifted]
    out[:, :, lag + 1:cols] = rows[xi[:, None, None], shifted]
    out[:, :, cols] = rows[yi, lag:]
    return out


def _fitted_stacks(table: PairTable, difference_first: bool, errors: dict
                   ) -> list[tuple[list, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """(places, rows, xi, yi, ey) of each length group: the stack of rows
    that every lag is fitted on, and each fitted pair's x and y rows in it.
    A pair that cannot be fitted gets its error in ``errors``, under its
    place.

    Every pair's years must be one contiguous run; the jump of each year
    set is found once. Each group row is differenced (``np.diff``
    rounds each difference as ``b - a`` does) and then unit scaled (see
    ``table._unit_scaled``) once, so that no rank decision depends on a
    series' scale; pair j's y is the input's times 2**-ey[j].
    """
    jumps = [next(((a, b) for a, b in zip(years, years[1:]) if b - a != 1), None)
             for years in table.years]
    gapped = np.array([jump is not None for jump in jumps], dtype=bool)
    stacks = []
    for group in table.groups:
        bad = gapped[group.mask]
        for place, mask in zip(group.places[bad].tolist(), group.mask[bad].tolist()):
            a, b = jumps[mask]
            errors[place] = NonContiguousYearsError(
                f"years jump from {a} to {b}; lags are meaningless across gaps")
        places = group.places[~bad].tolist()
        if not places:
            continue
        if difference_first and group.n < 2:
            for place in places:
                errors[place] = InsufficientDataError("need at least 2 points to difference")
            continue
        rows, exponents = _unit_scaled(
            np.diff(group.rows, axis=1) if difference_first else group.rows)
        xi, yi = group.xi[~bad], group.yi[~bad]
        stacks.append((places, rows, xi, yi, exponents[yi]))
    return stacks


class _Fits(NamedTuple):
    """Each fitted pair's fit at each of ``lags``, as (pair, lag) arrays.

    ``n`` is each pair's fitted length (after any differencing). ``rank``
    is the rank of the lag's design, or -1 where the pair is too short for
    the lag; a fit is kept where the design has full rank (``fitted``), so
    the skips can be counted by lag and by reason from these two arrays.
    ``f``, ``p`` and the residual sums are read only where ``fitted``.
    """

    places: list[int]
    n: list[int]
    lags: tuple[int, ...]
    f: np.ndarray
    p: np.ndarray
    rss_r: np.ndarray
    rss_ur: np.ndarray
    rank: np.ndarray
    fitted: np.ndarray

    def result(self, i: int, j: int) -> GrangerResult:
        lag = self.lags[j]
        return GrangerResult(lag, float(self.f[i, j]), float(self.p[i, j]),
                             float(self.rss_r[i, j]), float(self.rss_ur[i, j]),
                             self.n[i] - lag)

    def error(self, i: int, j: int) -> PanelDepError:
        """The error that skips pair i's fit at lags[j]."""
        lag, rank = self.lags[j], int(self.rank[i, j])
        return _too_short(self.n[i], lag) if rank < 0 else _rank_deficient(rank, 1 + 2 * lag)

    def skipped(self, i: int, max_lag: int) -> list[tuple[int, PanelDepError]]:
        """(lag, error) of each lag 1..max_lag that pair i does not fit,
        where ``lags`` are 1..L; every lag past L is too short for it."""
        fitted = self.fitted[i].tolist()
        return [(lag, self.error(i, lag - 1) if lag <= len(fitted) else _too_short(self.n[i], lag))
                for lag in range(1, max_lag + 1) if lag > len(fitted) or not fitted[lag - 1]]

    def best(self) -> tuple[np.ndarray, np.ndarray]:
        """Each pair's column of its first minimum p-value among its kept
        fits, and whether it has one."""
        return np.where(self.fitted, self.p, np.inf).argmin(axis=1), self.fitted.any(axis=1)


def _fits(table: PairTable, lags, difference_first: bool, errors: dict) -> _Fits:
    """Every pair's fit at each of the ascending ``lags``, each length
    group's pairs through one stacked QR per lag and slice of the pairs
    (see ``table._pair_slices``), and the kept fits' F tails from
    ``f_sfs`` batches. A pair that cannot be fitted at all gets
    its error in ``errors``, under its place.

    The rank check is per fit: a singular design skips its own fit and
    leaves the others alone. F is formed from the unit-scaled sums in one
    elementwise program, so it neither overflows nor underflows; the sums
    are reported in input units, where one out of range is 0.0 or inf.
    """
    stacks = _fitted_stacks(table, difference_first, errors)
    lags = tuple(lags)
    places = [place for group_places, *_ in stacks for place in group_places]
    n = [rows.shape[1] for group_places, rows, *_ in stacks for _ in group_places]
    shape = (len(places), len(lags))
    f, rss_r, rss_ur = np.full(shape, np.nan), np.full(shape, np.nan), np.full(shape, np.nan)
    rank = np.full(shape, -1)
    start = 0
    for group_places, rows, xi, yi, ey in stacks:
        for j, lag in enumerate(lags):
            if lag > _longest_lag(rows.shape[1]):
                break
            dof = rows.shape[1] - lag - (1 + 2 * lag)
            for part in _pair_slices(len(xi), (rows.shape[1] - lag) * (2 + 2 * lag)):
                at = slice(start + part.start, start + part.stop)
                gain, ur, rank[at, j] = _nested_fits(
                    _lag_designs(rows, xi[part], yi[part], lag), 1 + lag)
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    f[at, j] = np.where(ur == 0.0, np.inf, (gain / lag) / (ur / dof))
                    rss_r[at, j] = np.ldexp(ur + gain, 2 * ey[part])
                    rss_ur[at, j] = np.ldexp(ur, 2 * ey[part])
        start += len(group_places)
    lag_row = np.array(lags, dtype=np.intp)
    fitted = rank == 1 + 2 * lag_row
    p = np.full(shape, np.nan)
    lengths = np.array(n, dtype=np.intp)
    i, j = np.nonzero(fitted)  # each kept fit's pair and lag column
    for part in _pair_slices(len(i), 1):
        at, d1 = (i[part], j[part]), lag_row[j[part]]
        p[at] = f_sfs(f[at], d1, lengths[i[part]] - d1 - (1 + 2 * d1))
    return _Fits(places, n, lags, f, p, rss_r, rss_ur, rank, fitted)


def granger_test(pair: AlignedPair, lag: int,
                 difference_first: bool = False) -> GrangerResult:
    """Test whether lagged x improves prediction of y beyond lagged y.

    Direction is fixed: x is the candidate driver, y the response. With
    ``difference_first`` both sequences are first-differenced before the
    designs are built (the caller's stationarity treatment; never applied
    silently).
    """
    _check_count("lag", lag, 1)
    errors: dict = {}
    fits = _fits(PairTable.of_pairs([pair]), [lag], difference_first, errors)
    if errors:
        raise errors[0]
    if not fits.fitted[0, 0]:
        raise fits.error(0, 0)
    return fits.result(0, 0)


def _no_lag_fits(n: int, skipped: list[tuple[int, PanelDepError]]) -> PanelDepError:
    """The error of a sweep in which every lag was skipped, from each lag's
    (lag, error): SingularDesignError with the rank of the first singular
    design if there was one."""
    singular = [error for _, error in skipped if isinstance(error, SingularDesignError)]
    if singular:
        reasons = "; ".join(f"lag {lag}: {error}" for lag, error in skipped)
        return SingularDesignError(f"no lag fits the pair of length {n} ({reasons})",
                                   rank=singular[0].rank)
    return InsufficientDataError(f"pair of length {n} is too short for even lag 1")


def _sweep(table: PairTable, max_lag: int, difference_first: bool, errors: dict) -> _Fits:
    """``_fits`` at lags 1..max_lag, up to the longest that some pair of
    the table allows (at least lag 1); every longer lag is too short for
    every pair."""
    _check_count("max_lag", max_lag, 1)
    longest = max([1, *(_longest_lag(group.n - difference_first) for group in table.groups)])
    return _fits(table, range(1, min(max_lag, longest) + 1), difference_first, errors)


def best_fits_over(table: PairTable, max_lag: int, difference_first: bool = False
                   ) -> Columns:
    """``lag_sweep(...).best`` of each pair of a table, as columns by place;
    a pair's error is the one its sweep over the lags some pair allows
    raises.

    Each pair's best fit is picked from the arrays of one ``_fits`` call.
    A bad ``max_lag`` raises.
    """
    errors: dict = {}
    fits = _sweep(table, max_lag, difference_first, errors)
    best, found = fits.best()
    for i in np.flatnonzero(~found).tolist():
        errors[fits.places[i]] = _no_lag_fits(fits.n[i] + difference_first,
                                              fits.skipped(i, len(fits.lags)))
    places = np.array(fits.places, dtype=np.intp)
    rows = np.arange(len(places))
    lag = np.array(fits.lags, dtype=np.intp)[best]
    values = {}
    for name, column in (("lag", lag), ("f_stat", fits.f[rows, best]),
                         ("p_value", fits.p[rows, best]),
                         ("rss_restricted", fits.rss_r[rows, best]),
                         ("rss_unrestricted", fits.rss_ur[rows, best]),
                         ("n_eff", np.array(fits.n, dtype=np.intp) - lag)):
        values[name] = np.zeros(table.size, dtype=column.dtype)
        values[name][places] = column
    return Columns(GrangerResult, values, table.n, errors)


def lag_sweep(pair: AlignedPair, max_lag: int,
              difference_first: bool = False) -> LagSweep:
    """Run the test at every lag 1..max_lag that fits the sample.

    Lags that individually lack data are skipped with a reason; if no lag
    fits at all that is an error: SingularDesignError when some lag was
    skipped for a rank-deficient design, InsufficientDataError otherwise.
    Best lag is the smallest p-value, ties going to the shorter lag.
    """
    errors: dict = {}
    fits = _sweep(PairTable.of_pairs([pair]), max_lag, difference_first, errors)
    if errors:
        raise errors[0]
    skipped = fits.skipped(0, max_lag)
    best, found = fits.best()
    if not found[0]:
        raise _no_lag_fits(pair.n, skipped)
    return LagSweep(tuple(fits.result(0, j) for j, ok in enumerate(fits.fitted[0]) if ok),
                    tuple(SkippedLag(lag, str(error)) for lag, error in skipped),
                    fits.result(0, int(best[0])))

"""Lagged predictability testing on contiguous annual pairs.

The test compares two nested autoregressions of the response: one on its
own past, one additionally on the past of the candidate driver. The
variance-ratio statistic of the residual sums is referred to the F
distribution. Year gaps are rejected outright; a lag across a gap is not
a lag.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .table import PairTable, _unit_scaled


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


def _usable_rows(n: int, lag: int) -> int:
    """Rows left for the lag-``lag`` fit of a length-n pair, checked."""
    if lag < 1:
        raise DomainError(f"lag must be >= 1, got {lag}")
    if lag > _longest_lag(n):
        raise InsufficientDataError(
            f"{n} observations leave {n - lag} usable rows, need more than "
            f"{1 + 2 * lag} for lag {lag}"
        )
    return n - lag


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


def _fitted_stacks(table: PairTable, difference_first: bool, out: list
                   ) -> list[tuple[int, list, np.ndarray, np.ndarray, np.ndarray]]:
    """(n, places, x, y, ey) of each length group: the pairs' stacks that
    every lag is fitted on. A pair that cannot be fitted gets its error in
    ``out``.

    Every pair's years must be one contiguous run; the jump of each year
    set is found once. Each distinct series is differenced (``np.diff``
    rounds each difference as ``b - a`` does) and then unit scaled (see
    ``table._unit_scaled``) once, so that no rank decision depends on a
    series' scale; y's row j is the input's times 2**-ey[j].
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
        rows, exponents = _unit_scaled(
            np.diff(group.rows, axis=1) if difference_first else group.rows)
        xi, yi = group.xi[~bad], group.yi[~bad]
        stacks.append((group.n, places, rows[xi], rows[yi], exponents[yi]))
    return stacks


def _fit_lag(x: np.ndarray, y: np.ndarray, ey: np.ndarray, lag: int) -> list:
    """Each row's lag-``lag`` fit (f, rss_r, rss_ur, n_eff) from one
    stacked QR of the unit-scaled rows, or the error that skips it.

    The rank check is per row: a singular design gives its row's error and
    leaves the other rows' fits alone. F is formed from the scaled sums, so
    it neither overflows nor underflows; the sums are reported in input
    units, where one out of range is 0.0 or inf.
    """
    try:
        n_eff = _usable_rows(y.shape[1], lag)
    except InsufficientDataError as exc:
        return [exc.with_traceback(None)] * len(y)
    cols = 1 + 2 * lag
    gain, rss_ur, rank = _nested_fits(_lag_designs(x, y, lag), 1 + lag)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f = np.where(rss_ur == 0.0, np.inf, (gain / lag) / (rss_ur / (n_eff - cols)))
        rss_r = np.ldexp(rss_ur + gain, 2 * ey)
        rss_ur = np.ldexp(rss_ur, 2 * ey)
    return [(f_j, rss_r_j, rss_ur_j, n_eff) if rank_j == cols
            else _rank_deficient(rank_j, cols)
            for f_j, rss_r_j, rss_ur_j, rank_j
            in zip(f.tolist(), rss_r.tolist(), rss_ur.tolist(), rank.tolist())]


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
    ((_, _, x, y, ey),) = stacks
    (fit,) = _fit_lag(x, y, ey, lag)
    if isinstance(fit, PanelDepError):
        raise fit
    (p,) = f_sfs([fit[0]], [lag], [fit[3] - (1 + 2 * lag)])
    return GrangerResult(lag, fit[0], p, *fit[1:])


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
    swept = []  # (n, place, each lag's (lag, fit or the error that skips it))
    for n, places, x, y, ey in _fitted_stacks(table, difference_first, out):
        by_lag = [_fit_lag(x, y, ey, lag) for lag in range(1, max_lag + 1)]
        swept += [(n, place, list(enumerate(fits, 1)))
                  for place, fits in zip(places, zip(*by_lag))]
    fitted = [(lag, fit) for *_, fits in swept for lag, fit in fits if isinstance(fit, tuple)]
    tails = iter(f_sfs([fit[0] for _, fit in fitted], [lag for lag, _ in fitted],
                       [fit[3] - (1 + 2 * lag) for lag, fit in fitted]))
    for n, place, fits in swept:
        results = tuple(GrangerResult(lag, fit[0], next(tails), *fit[1:])
                        for lag, fit in fits if isinstance(fit, tuple))
        skipped = tuple(SkippedLag(lag, str(error)) for lag, error in fits
                        if not isinstance(error, tuple))
        out[place] = (LagSweep(results, skipped, min(results, key=lambda res: res.p_value))
                      if results else _no_lag_fits(n, fits))  # the first minimum wins
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
